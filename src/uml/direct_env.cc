#include "src/uml/direct_env.h"

#include <cstring>

#include "src/base/log.h"
#include "src/kern/net_limits.h"
#include "src/kern/skb.h"

namespace sud::uml {

// ---- adapters ---------------------------------------------------------------

class DirectEnv::NetAdapter : public kern::NetDeviceOps {
 public:
  explicit NetAdapter(DirectEnv* env) : env_(env) {}

  Status Open() override {
    return env_->net_ops_.open ? env_->net_ops_.open()
                               : Status(ErrorCode::kUnavailable, "no open op");
  }
  Status Stop() override {
    return env_->net_ops_.stop ? env_->net_ops_.stop()
                               : Status(ErrorCode::kUnavailable, "no stop op");
  }
  size_t StartXmitBatch(std::span<kern::SkbPtr> skbs, uint16_t queue) override {
    size_t accepted = 0;
    for (kern::SkbPtr& skb : skbs) {
      if (!XmitOne(*skb, queue).ok()) {
        break;
      }
      ++accepted;
    }
    return accepted;
  }
  Result<std::string> Ioctl(uint32_t cmd) override {
    if (!env_->net_ops_.ioctl) {
      return Status(ErrorCode::kUnavailable, "no ioctl op");
    }
    return env_->net_ops_.ioctl(cmd);
  }

 private:
  Status XmitOne(kern::Skb& skb, uint16_t queue) {
    if (!env_->net_ops_.xmit) {
      return Status(ErrorCode::kUnavailable, "no xmit op");
    }
    CpuModel& cpu = env_->kernel_->machine().cpu();
    if (!skb.is_linear() &&
        (!env_->net_ops_.sg || skb.TxChunks(kTxBounceBytes) > kern::kMaxChainFrags)) {
      // Linearize fallback: non-SG drivers always, and frag geometries that
      // would burst the chain cap (the real stack linearizes skbs over
      // MAX_SKB_FRAGS the same way) — one charged full-frame pass, the copy
      // the SG path deletes.
      cpu.ChargeBytes(env_->account_, cpu.costs().per_byte_copy, skb.total_len());
      if (!skb.Linearize(kTxBounceBytes)) {
        return Status(ErrorCode::kInvalidArgument, "frame exceeds bounce buffer");
      }
      if (env_->netdev_ != nullptr) {
        env_->netdev_->stats().tx_linearized++;
      }
    }
    // In-kernel transmit: the driver DMA-maps each segment (head, then every
    // frag) as its own bounce slot, charged one dma_map each — exactly how
    // the real driver skb_frag_dma_maps a frag list. Modelled as a
    // bounce-buffer copy charged at dma_map cost (a constant), not a
    // per-byte copy: the baseline must not pay SUD's copy-to-shared-buffer
    // price.
    std::array<uml::TxFrag, kern::kMaxChainFrags> frags;
    size_t count = 0;
    auto map_segment = [&](ConstByteSpan segment) -> Status {
      size_t off = 0;
      while (off < segment.size()) {
        if (count >= kern::kMaxChainFrags) {
          return Status(ErrorCode::kInvalidArgument, "frame exceeds the chain cap");
        }
        size_t chunk = std::min<size_t>(segment.size() - off, kTxBounceBytes);
        Result<uint64_t> bounce = env_->AcquireTxBounce();
        if (!bounce.ok()) {
          return bounce.status();
        }
        Result<ByteSpan> view = env_->dma_->HostView(bounce.value(), chunk);
        if (!view.ok()) {
          return view.status();
        }
        std::memcpy(view.value().data(), segment.data() + off, chunk);
        cpu.Charge(env_->account_, cpu.costs().dma_map);
        frags[count++] = uml::TxFrag{bounce.value(), static_cast<uint32_t>(chunk), -1};
        off += chunk;
      }
      return Status::Ok();
    };
    SUD_RETURN_IF_ERROR(map_segment(skb.span()));
    for (size_t i = 0; i < skb.nr_frags(); ++i) {
      SUD_RETURN_IF_ERROR(map_segment(skb.tx_frag(i)));
    }
    if (count == 0) {
      return Status(ErrorCode::kInvalidArgument, "empty frame");
    }
    return env_->net_ops_.xmit(std::span<const uml::TxFrag>(frags.data(), count), queue);
  }

  DirectEnv* env_;
};

class DirectEnv::WifiAdapter : public kern::WirelessOps {
 public:
  explicit WifiAdapter(DirectEnv* env) : env_(env) {}

  uint32_t EnableFeatures(uint32_t requested) override {
    uint32_t enabled = requested & env_->wifi_supported_;
    if (env_->wifi_ops_.enable_features) {
      env_->wifi_ops_.enable_features(enabled);
    }
    return enabled;
  }
  Result<std::vector<kern::ScanResult>> Scan() override {
    if (!env_->wifi_ops_.scan) {
      return Status(ErrorCode::kUnavailable, "no scan op");
    }
    return env_->wifi_ops_.scan();
  }
  Status Associate(const std::string& ssid) override {
    if (!env_->wifi_ops_.associate) {
      return Status(ErrorCode::kUnavailable, "no associate op");
    }
    return env_->wifi_ops_.associate(ssid);
  }

 private:
  DirectEnv* env_;
};

class DirectEnv::AudioAdapter : public kern::PcmOps {
 public:
  explicit AudioAdapter(DirectEnv* env) : env_(env) {}

  Status OpenStream(const kern::PcmConfig& config) override {
    return env_->audio_ops_.open_stream ? env_->audio_ops_.open_stream(config)
                                        : Status(ErrorCode::kUnavailable, "no open op");
  }
  Status CloseStream() override {
    return env_->audio_ops_.close_stream ? env_->audio_ops_.close_stream()
                                         : Status(ErrorCode::kUnavailable, "no close op");
  }
  Status WriteSamples(ConstByteSpan samples) override {
    if (!env_->audio_ops_.write) {
      return Status(ErrorCode::kUnavailable, "no write op");
    }
    Result<uint64_t> bounce = env_->AcquireTxBounce();
    if (!bounce.ok()) {
      return bounce.status();
    }
    Result<ByteSpan> view = env_->dma_->HostView(bounce.value(), kTxBounceBytes);
    if (!view.ok()) {
      return view.status();
    }
    size_t len = std::min<size_t>(samples.size(), kTxBounceBytes);
    std::memcpy(view.value().data(), samples.data(), len);
    return env_->audio_ops_.write(bounce.value(), static_cast<uint32_t>(len), -1);
  }

 private:
  DirectEnv* env_;
};

// ---- DirectEnv ----------------------------------------------------------------

DirectEnv::DirectEnv(kern::Kernel* kernel, hw::PciDevice* device, CpuAccount account)
    : kernel_(kernel), device_(device), account_(account) {
  uint16_t source_id = device_->address().source_id();
  (void)kernel_->machine().iommu().CreateContext(source_id);
  dma_ = std::make_unique<DmaSpace>(&kernel_->machine().dram(), &kernel_->machine().iommu(),
                                    source_id);
}

DirectEnv::~DirectEnv() {
  (void)FreeIrq();
  dma_.reset();
  (void)kernel_->machine().iommu().DestroyContext(device_->address().source_id());
}

uint64_t DirectEnv::Jiffies() { return kernel_->machine().clock().now() / kMillisecond; }

Result<uint32_t> DirectEnv::PciConfigRead(uint16_t offset, int width) {
  return device_->config().Read(offset, width);
}

Status DirectEnv::PciConfigWrite(uint16_t offset, int width, uint32_t value) {
  device_->config().Write(offset, width, value);
  return Status::Ok();
}

Status DirectEnv::PciEnableDevice() {
  device_->config().set_command(device_->config().command() | hw::kPciCommandIoEnable |
                                hw::kPciCommandMemEnable);
  return Status::Ok();
}

Status DirectEnv::PciSetMaster() {
  device_->config().set_command(device_->config().command() | hw::kPciCommandBusMaster);
  return Status::Ok();
}

Result<uint32_t> DirectEnv::MmioRead32(int bar, uint64_t offset) {
  kernel_->machine().cpu().Charge(account_, kernel_->machine().cpu().costs().mmio_access);
  return device_->MmioRead(bar, offset);
}

Status DirectEnv::MmioWrite32(int bar, uint64_t offset, uint32_t value) {
  kernel_->machine().cpu().Charge(account_, kernel_->machine().cpu().costs().mmio_access);
  device_->MmioWrite(bar, offset, value);
  return Status::Ok();
}

Result<uint8_t> DirectEnv::IoRead8(uint16_t port) { return kernel_->machine().IoPortRead(port); }

Status DirectEnv::IoWrite8(uint16_t port, uint8_t value) {
  kernel_->machine().IoPortWrite(port, value);
  return Status::Ok();
}

Result<uint16_t> DirectEnv::IoBarBase() {
  for (size_t b = 0; b < device_->bars().size(); ++b) {
    if (device_->bars()[b].is_io) {
      return static_cast<uint16_t>(device_->config().bar(static_cast<int>(b)));
    }
  }
  return Status(ErrorCode::kNotFound, "device has no io bar");
}

Result<DmaRegion> DirectEnv::DmaAllocCoherent(uint64_t bytes) {
  return dma_->Alloc(bytes, /*coherent=*/true);
}

Result<DmaRegion> DirectEnv::DmaAllocCaching(uint64_t bytes) {
  return dma_->Alloc(bytes, /*coherent=*/false);
}

Result<ByteSpan> DirectEnv::DmaView(uint64_t iova, uint64_t len) {
  return dma_->HostView(iova, len);
}

Status DirectEnv::RequestQueueIrqs(uint16_t num_queues, std::function<void(uint16_t)> handler) {
  if (num_queues == 0) {
    num_queues = 1;
  }
  Result<uint8_t> base = kernel_->AllocIrqVectorRange(static_cast<uint8_t>(num_queues));
  if (!base.ok()) {
    return base.status();
  }
  vector_ = base.value();
  irq_vector_count_ = num_queues;
  for (uint16_t q = 0; q < num_queues; ++q) {
    SUD_RETURN_IF_ERROR(kernel_->RequestIrq(
        static_cast<uint8_t>(vector_ + q), [this, handler, q](uint16_t source_id) {
          CpuModel& cpu = kernel_->machine().cpu();
          cpu.Charge(account_, cpu.costs().interrupt_entry);
          handler(q);
        }));
  }
  device_->config().set_msi_address(hw::kMsiRangeBase);
  device_->config().set_msi_data(vector_);
  device_->config().set_msi_enabled(true);
  if (kernel_->machine().iommu().interrupt_remapping()) {
    for (uint16_t q = 0; q < num_queues; ++q) {
      SUD_RETURN_IF_ERROR(kernel_->machine().iommu().SetInterruptRemapEntry(
          device_->address().source_id(), static_cast<uint8_t>(vector_ + q),
          static_cast<uint8_t>(vector_ + q)));
    }
  }
  irq_registered_ = true;
  return Status::Ok();
}

Status DirectEnv::FreeIrq() {
  if (!irq_registered_) {
    return Status::Ok();
  }
  irq_registered_ = false;
  device_->config().set_msi_enabled(false);
  Status status = Status::Ok();
  for (uint16_t q = 0; q < irq_vector_count_; ++q) {
    Status freed = kernel_->FreeIrq(static_cast<uint8_t>(vector_ + q));
    if (!freed.ok()) {
      status = freed;
    }
  }
  irq_vector_count_ = 0;
  return status;
}

Result<uint64_t> DirectEnv::AcquireTxBounce() {
  if (tx_bounce_.bytes == 0) {
    Result<DmaRegion> region = dma_->Alloc(
        static_cast<uint64_t>(kTxBounceCount) * kTxBounceBytes, /*coherent=*/false);
    if (!region.ok()) {
      return region.status();
    }
    tx_bounce_ = region.value();
  }
  // Recycle round-robin: the device has long consumed the oldest frame by
  // the time 64 more were queued (the model has no in-flight overlap).
  uint64_t iova = tx_bounce_.iova + static_cast<uint64_t>(tx_bounce_next_) * kTxBounceBytes;
  tx_bounce_next_ = (tx_bounce_next_ + 1) % kTxBounceCount;
  return iova;
}

Status DirectEnv::RegisterNetdev(const uint8_t mac[6], NetDriverOps ops) {
  net_ops_ = std::move(ops);
  net_adapter_ = std::make_unique<NetAdapter>(this);
  std::string name = kernel_->net().NextName("keth");
  Result<kern::NetDevice*> netdev = kernel_->net().RegisterNetdev(name, mac, net_adapter_.get());
  if (!netdev.ok()) {
    return netdev.status();
  }
  netdev_ = netdev.value();
  netdev_->set_num_queues(net_ops_.num_queues);
  netdev_->set_mtu(net_ops_.mtu);
  return Status::Ok();
}

Status DirectEnv::NetifRx(std::span<const DmaFrag> frags, uint16_t queue) {
  if (netdev_ == nullptr) {
    return Status(ErrorCode::kUnavailable, "netdev not registered");
  }
  // In-kernel delivery: copy the frame — frag-appending an EOP chain's
  // descriptors — into one skb. Even the trusted baseline bounds the total:
  // the chain came out of descriptor memory a faulty device could have
  // corrupted.
  auto skb = std::make_unique<kern::Skb>();
  uint64_t total = 0;
  for (const DmaFrag& frag : frags) {
    Result<ByteSpan> view = dma_->HostView(frag.iova, frag.len);
    if (!view.ok()) {
      return view.status();
    }
    if (!skb->AppendFrag(ConstByteSpan(view.value().data(), frag.len),
                         netdev_->max_frame_bytes())) {
      netdev_->stats().rx_dropped++;
      netdev_->stats().driver_errors++;
      return Status(ErrorCode::kInvalidArgument, "frame exceeds interface maximum");
    }
    total += frag.len;
  }
  CpuModel& cpu = kernel_->machine().cpu();
  cpu.ChargeBytes(account_, cpu.costs().per_byte_checksum, total);
  cpu.Charge(account_, cpu.costs().skb_alloc + cpu.costs().stack_work_per_pkt);
  return kernel_->net().NetifRx(netdev_, std::move(skb), queue);
}

void DirectEnv::NetifCarrierOn() {
  if (netdev_ != nullptr) {
    netdev_->set_carrier(true);
  }
}

void DirectEnv::NetifCarrierOff() {
  if (netdev_ != nullptr) {
    netdev_->set_carrier(false);
  }
}

Status DirectEnv::RegisterWifi(uint32_t supported_features, WifiDriverOps ops) {
  wifi_ops_ = std::move(ops);
  wifi_supported_ = supported_features;
  wifi_adapter_ = std::make_unique<WifiAdapter>(this);
  std::string name = kernel_->wireless().NextName("kwlan");
  Result<kern::WirelessDevice*> wdev =
      kernel_->wireless().Register(name, wifi_adapter_.get(), supported_features);
  if (!wdev.ok()) {
    return wdev.status();
  }
  wdev_ = wdev.value();
  return Status::Ok();
}

void DirectEnv::WifiBssChange(bool associated) {
  if (wdev_ != nullptr) {
    wdev_->NotifyBssChange(associated);
  }
}

void DirectEnv::WifiSetBitrates(const std::vector<uint32_t>& rates) {
  if (wdev_ != nullptr) {
    wdev_->set_bitrates(rates);
  }
}

Status DirectEnv::RegisterAudio(AudioDriverOps ops) {
  audio_ops_ = std::move(ops);
  audio_adapter_ = std::make_unique<AudioAdapter>(this);
  std::string name = kernel_->audio().NextName("kpcm");
  Result<kern::PcmDevice*> pcm = kernel_->audio().Register(name, audio_adapter_.get());
  if (!pcm.ok()) {
    return pcm.status();
  }
  pcm_ = pcm.value();
  return Status::Ok();
}

void DirectEnv::AudioPeriodElapsed() {
  if (pcm_ != nullptr) {
    pcm_->NotifyPeriodElapsed();
  }
}

void DirectEnv::SubmitKeyEvent(uint8_t usage_code) { kernel_->input().SubmitKey(usage_code); }

}  // namespace sud::uml
