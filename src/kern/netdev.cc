#include "src/kern/netdev.h"

#include <cstring>

#include "src/base/log.h"

namespace sud::kern {

bool Firewall::Accept(const PacketView& packet) const {
  if (!packet.valid()) {
    ++rejected_;
    return false;
  }
  if (denied_ports_.count(packet.dst_port()) != 0) {
    ++rejected_;
    return false;
  }
  return true;
}

NetDevice::NetDevice(std::string name, const uint8_t mac[6], NetDeviceOps* ops)
    : name_(std::move(name)), ops_(ops) {
  std::memcpy(mac_.data(), mac, 6);
}

void NetDevice::set_dev_addr(const uint8_t mac[6]) { std::memcpy(mac_.data(), mac, 6); }

Result<NetDevice*> NetSubsystem::RegisterNetdev(const std::string& name, const uint8_t mac[6],
                                                NetDeviceOps* ops) {
  if (devices_.count(name) != 0) {
    return Status(ErrorCode::kAlreadyExists, "netdev " + name + " already registered");
  }
  if (ops == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "null netdev ops");
  }
  auto device = std::make_unique<NetDevice>(name, mac, ops);
  NetDevice* ptr = device.get();
  devices_[name] = std::move(device);
  SUD_LOG(kInfo) << "registered netdev " << name;
  return ptr;
}

Status NetSubsystem::UnregisterNetdev(const std::string& name) {
  auto it = devices_.find(name);
  if (it == devices_.end()) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  devices_.erase(it);
  return Status::Ok();
}

NetDevice* NetSubsystem::Find(const std::string& name) {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : it->second.get();
}

Status NetSubsystem::BringUp(const std::string& name) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  if (device->is_up()) {
    return Status::Ok();
  }
  SUD_RETURN_IF_ERROR(device->ops()->Open());
  device->up_.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

Status NetSubsystem::BringDown(const std::string& name) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  if (!device->is_up()) {
    return Status::Ok();
  }
  device->up_.store(false, std::memory_order_relaxed);
  return device->ops()->Stop();
}

Status NetSubsystem::Transmit(const std::string& name, SkbPtr skb) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  return Transmit(device, std::move(skb));
}

Status NetSubsystem::Transmit(NetDevice* device, SkbPtr skb) {
  Result<size_t> accepted = XmitBurst(device, std::span<SkbPtr>(&skb, 1));
  if (!accepted.ok()) {
    return accepted.status();
  }
  return accepted.value() == 1 ? Status::Ok()
                               : Status(ErrorCode::kQueueFull, "driver dropped the frame");
}

Result<size_t> NetSubsystem::TransmitBatch(const std::string& name, std::vector<SkbPtr> skbs) {
  NetDevice* device = Find(name);
  if (device == nullptr) {
    return Status(ErrorCode::kNotFound, "no netdev " + name);
  }
  return TransmitBatch(device, std::move(skbs));
}

Result<size_t> NetSubsystem::TransmitBatch(NetDevice* device, std::vector<SkbPtr> skbs) {
  return XmitBurst(device, skbs);
}

Result<size_t> NetSubsystem::XmitBurst(NetDevice* device, std::span<SkbPtr> skbs) {
  if (!device->is_up()) {
    device->stats().tx_dropped += skbs.size();
    return Status(ErrorCode::kUnavailable, device->name() + " is down");
  }
  size_t total = skbs.size();
  size_t accepted = 0;
  uint16_t queues = device->num_queues();
  auto queue_of = [queues](const SkbPtr& skb) {
    return queues <= 1 ? uint16_t{0} : FlowQueue(skb->span(), queues);
  };
  uint16_t first = total == 0 ? 0 : queue_of(skbs[0]);
  if (std::all_of(skbs.begin(), skbs.end(), [&](const SkbPtr& skb) {
        return queue_of(skb) == first;
      })) {
    // One queue (always, on a single-queue device): the whole burst in one
    // driver call.
    accepted = device->ops()->StartXmitBatch(skbs, first);
    device->queue_stats(first).tx_packets += accepted;
  } else {
    // RSS-style transmit steering: partition the burst by flow hash, one
    // StartXmitBatch per non-empty queue. Flows stay ordered (a flow always
    // hashes to the same queue); cross-flow order across queues is
    // deliberately unordered, as on real multi-queue hardware.
    std::array<std::vector<SkbPtr>, kNetMaxQueues> per_queue;
    for (SkbPtr& skb : skbs) {
      per_queue[queue_of(skb)].push_back(std::move(skb));
    }
    for (uint16_t q = 0; q < queues; ++q) {
      if (per_queue[q].empty()) {
        continue;
      }
      size_t queue_accepted = device->ops()->StartXmitBatch(per_queue[q], q);
      device->queue_stats(q).tx_packets += queue_accepted;
      accepted += queue_accepted;
    }
  }
  device->stats().tx_packets += accepted;
  if (accepted != total) {
    device->stats().tx_dropped += total - accepted;
  }
  return accepted;
}

size_t NetSubsystem::NetifRxBatch(NetDevice* device, std::span<SkbPtr> skbs, uint16_t queue) {
  size_t accepted = 0;
  for (SkbPtr& skb : skbs) {
    if (NetifRx(device, std::move(skb), queue).ok()) {
      ++accepted;
    }
  }
  return accepted;
}

Status NetSubsystem::NetifRx(NetDevice* device, SkbPtr skb, uint16_t queue) {
  if (device == nullptr || skb == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "netif_rx: null device/skb");
  }
  PacketView view = skb->view();
  if (!view.valid()) {
    device->stats().rx_dropped++;
    device->stats().driver_errors++;
    SUD_LOG_RL(kWarning) << device->name() << ": driver delivered runt packet, dropping";
    return Status(ErrorCode::kInvalidArgument, "runt packet");
  }
  // Checksum pass. Under SUD the proxy fuses its guard-copy with this pass
  // (Section 3.1.2) and delivers the skb pre-verified, so by the time the
  // verdict below is computed the driver can no longer alter the bytes —
  // and the stack does not traverse them a second time.
  if (!skb->checksum_verified) {
    if (!view.ChecksumOk()) {
      device->stats().rx_bad_checksum++;
      device->stats().rx_dropped++;
      return Status(ErrorCode::kInvalidArgument, "bad checksum");
    }
    skb->checksum_verified = true;
  }
  if (!firewall_.Accept(view)) {
    device->stats().rx_dropped++;
    return Status(ErrorCode::kPermissionDenied, "firewall rejected packet");
  }
  if (FlowTable* flows = device->flow_table()) {
    flows->Record(FlowHash(skb->span()), queue);
  }
  if (device->rx_sink()) {
    device->rx_sink()(*skb);
  }
  // The counters are the completion signal, so they move last: a thread that
  // polls rx_packets from outside finds the flow record and the sink's work
  // for every frame it counts.
  device->stats().rx_packets.Add(queue < kNetMaxQueues ? queue : 0);
  return Status::Ok();
}

}  // namespace sud::kern
