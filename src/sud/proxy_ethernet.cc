#include "src/sud/proxy_ethernet.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/devices/ether_link.h"
#include "src/kern/net_limits.h"

namespace sud {

namespace {

// One sealed-TX frame's grant set: the read-only external IOMMU mapping plus
// the skb whose DRAM frag pages back it. Each grant chunk's release closure
// holds a shared_ptr, so the group — and with it the mapping and the pages —
// lives exactly until the driver has freed every chunk (TX reap), however the
// chunks interleave with other frames. The epoch guard keeps a post-crash
// destruction (the dead pool's slots being reaped) from touching the
// successor instance's IO space: quarantined grants unmap nothing, they are
// already gone with the dead context, and only the kernel pages get reclaimed
// (by the skb's own release hook).
struct TxGrantGroup {
  SudDeviceContext* ctx;
  uint64_t region_iova;
  uint32_t epoch;
  kern::SkbPtr skb;

  TxGrantGroup(SudDeviceContext* ctx, uint64_t region_iova, uint32_t epoch)
      : ctx(ctx), region_iova(region_iova), epoch(epoch) {}
  TxGrantGroup(const TxGrantGroup&) = delete;
  TxGrantGroup& operator=(const TxGrantGroup&) = delete;
  ~TxGrantGroup() {
    if (ctx->bind_generation() == epoch) {
      (void)ctx->dma().Free(region_iova);
    }
  }
};

}  // namespace

EthernetProxy::EthernetProxy(kern::Kernel* kernel, SudDeviceContext* ctx, Options options)
    : kernel_(kernel), ctx_(ctx), options_(options) {
  ctx_->set_downcall_handler([this](UchanMsg& msg, uint16_t shard, wire::Malform verdict) {
    HandleDowncall(msg, shard, verdict);
  });
  ctx_->set_downcall_flush_handler([this](uint16_t shard) { DeliverRxBundle(shard); });
}

Status EthernetProxy::Open() {
  UchanMsg msg;
  msg.opcode = kEthUpOpen;
  Result<UchanMsg> reply = ctx_->ctl().SendSync(std::move(msg));
  if (!reply.ok()) {
    return reply.status();  // interrupted/timed out: ifconfig reports an error
  }
  if (reply.value().error != 0) {
    return Status(static_cast<ErrorCode>(reply.value().error), "driver open failed");
  }
  return Status::Ok();
}

Status EthernetProxy::Stop() {
  UchanMsg msg;
  msg.opcode = kEthUpStop;
  Result<UchanMsg> reply = ctx_->ctl().SendSync(std::move(msg));
  if (!reply.ok()) {
    return reply.status();
  }
  return Status::Ok();
}

void EthernetProxy::NoteXmitFull() {
  if (consecutive_full_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      kHungThreshold) {
    stats_.hung_reports.fetch_add(1, std::memory_order_relaxed);
    SUD_LOG_RL(kWarning) << "ethernet driver not consuming buffers; reporting hung";
    consecutive_full_.store(0, std::memory_order_relaxed);
  }
}

// The MTU the interface actually gets for a driver-declared value: clamped
// by set_mtu (jumbo ceiling, like ndo_change_mtu) AND by what the TX staging
// pool can stage — one shared buffer for a single-buffer driver, a bounded
// chain of them for an SG driver. A driver claiming more would otherwise
// lure the stack into frames the transmit path must truncate.
uint32_t EthernetProxy::DeclaredMtu(uint64_t declared) const {
  uint64_t stage_bytes = ctx_->pool().buffer_bytes();
  if (driver_sg_) {
    stage_bytes *= kern::kMaxChainFrags;
  }
  uint64_t pool_cap = stage_bytes > kern::kEthHeaderBytes
                          ? stage_bytes - kern::kEthHeaderBytes
                          : kern::kEthMinFrameBytes;
  return static_cast<uint32_t>(std::min<uint64_t>(declared, pool_cap));
}

Status EthernetProxy::PrepareXmit(kern::SkbPtr& skb_ptr, UchanMsg* msg, uint16_t queue) {
  kern::Skb& skb = *skb_ptr;
  CpuModel& cpu = kernel_->machine().cpu();
  uint32_t buffer_bytes = ctx_->pool().buffer_bytes();
  if (!skb.is_linear() && (!driver_sg_ || skb.TxChunks(buffer_bytes) > kern::kMaxChainFrags)) {
    // Linearize fallback: non-SG drivers always, and — like the real stack
    // linearizing skbs over MAX_SKB_FRAGS — frames whose fragment geometry
    // (many tiny frags) would burst the chain cap even for an SG driver.
    // One extra charged full-frame pass, the copy the SG path deletes.
    size_t linear_cap = driver_sg_ ? buffer_bytes * kern::kMaxChainFrags : buffer_bytes;
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy, skb.total_len());
    if (!skb.Linearize(linear_cap)) {
      stats_.xmit_dropped.fetch_add(1, std::memory_order_relaxed);
      return Status(ErrorCode::kInvalidArgument, "frame exceeds staging buffer");
    }
    if (netdev_ != nullptr) {
      netdev_->stats().tx_linearized++;
    }
  }
  if (!driver_sg_ && skb.data_len() > buffer_bytes) {
    // Never truncate: a frame one staging buffer cannot hold is dropped whole
    // (only reachable by handing the interface frames above its MTU — the
    // MTU itself is clamped to pool capacity at registration).
    stats_.xmit_dropped.fetch_add(1, std::memory_order_relaxed);
    return Status(ErrorCode::kInvalidArgument, "frame exceeds staging buffer");
  }
  // Sealed TX: DRAM-backed frags (page-cache pages the kernel owns) cross as
  // read-only grants — one external mapping spanning the frame's frag pages,
  // per-chunk grant handles in the ordinary fragment records — instead of
  // staging copies. Read-only IS the seal: a driver-directed device write to
  // a granted page faults in the IOMMU. A mapping failure degrades to the
  // counted staging-copy fallback, never a dropped frame.
  std::shared_ptr<TxGrantGroup> group;
  uint64_t grant_lo = 0;
  if (skb.has_dram_frags()) {
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (size_t i = 0; i < skb.nr_frags(); ++i) {
      uint64_t paddr = skb.tx_frag_paddr(i);
      if (paddr == 0) {
        continue;
      }
      lo = std::min(lo, hw::PageAlignDown(paddr));
      hi = std::max(hi, hw::PageAlignUp(paddr + skb.tx_frag(i).size()));
    }
    Result<uint64_t> region_iova = ctx_->dma().MapExternal(lo, hi - lo);
    if (region_iova.ok()) {
      group = std::make_shared<TxGrantGroup>(ctx_, region_iova.value(), ctx_->bind_generation());
      grant_lo = lo;
    } else {
      stats_.tx_grant_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Stage head then frags, chunking every segment by the pool buffer size:
  // a linear frame that fits one buffer is a one-fragment list, anything
  // bigger chains across STANDARD buffers instead of one oversized one. A
  // granted chunk gets the same record as a staged one, with no memcpy: its
  // handle resolves (driver-side, unchanged) to the granted IOVA inside the
  // frame's external mapping. The list is bounded by the same chain cap the
  // ring setup asserts — unreachable here, since the geometry check above
  // linearizes over-fragmented skbs and the registration-time MTU clamp
  // bounds the total — and a frame that somehow cannot be expressed within
  // it is dropped whole, never truncated.
  std::array<int32_t, kern::kMaxChainFrags> ids;
  std::array<uint32_t, kern::kMaxChainFrags> lens;
  size_t count = 0;
  size_t copied_bytes = 0;  // bytes that paid a staging memcpy
  Status staging = Status::Ok();
  auto stage_segment = [&](ConstByteSpan segment, uint64_t paddr) {
    bool grant = group != nullptr && paddr != 0;
    for (size_t off = 0; off < segment.size() && staging.ok();) {
      if (count >= kern::kMaxChainFrags) {
        staging = Status(ErrorCode::kInvalidArgument, "frame exceeds the staging chain cap");
        return;
      }
      uint32_t chunk = static_cast<uint32_t>(std::min<size_t>(segment.size() - off, buffer_bytes));
      Result<int32_t> id =
          grant ? ctx_->pool().GrantExternal(group->region_iova + (paddr + off - grant_lo), chunk,
                                             [group]() mutable { group.reset(); })
                : ctx_->pool().Alloc();
      if (!id.ok()) {
        staging = id.status();
        if (!grant) {
          if (netdev_ != nullptr) {
            netdev_->stats().tx_no_buffer++;
          }
          NoteXmitFull();
          staging = Status(ErrorCode::kQueueFull, "no shared buffers (driver slow or hung)");
        }
        return;
      }
      ids[count] = id.value();
      lens[count++] = chunk;
      if (grant) {
        stats_.tx_grants.fetch_add(1, std::memory_order_relaxed);
      } else {
        Result<ByteSpan> buffer = ctx_->pool().Buffer(id.value());
        if (!buffer.ok()) {
          // Freshly allocated id failed validation (torn-down pool): the
          // failure path below returns it — never a leaked buffer.
          staging = buffer.status();
          return;
        }
        std::memcpy(buffer.value().data(), segment.data() + off, chunk);
        copied_bytes += chunk;
      }
      off += chunk;
    }
  };
  stage_segment(skb.span(), 0);
  for (size_t i = 0; i < skb.nr_frags() && staging.ok(); ++i) {
    stage_segment(skb.tx_frag(i), skb.tx_frag_paddr(i));
  }
  if (staging.ok() && count == 0) {
    staging = Status(ErrorCode::kInvalidArgument, "empty frame");
  }
  if (!staging.ok()) {
    for (size_t i = 0; i < count; ++i) {
      // Freeing a minted grant fires its release closure: the group's
      // refcount unwinds with the ids, and the external mapping dies with
      // the local reference below.
      ctx_->pool().Free(ids[i]);
    }
    stats_.xmit_dropped.fetch_add(1, std::memory_order_relaxed);
    return staging;
  }
  // One staging pass over the copied bytes, wherever they landed. Granted
  // bytes pay nothing: that is the copy sealed TX deletes.
  cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy, copied_bytes);

  wire::EncodeXmit(queue, ids.data(), lens.data(), count, msg);
  if (group != nullptr) {
    // The frag pages must outlive the device's reads: the frame's skb moves
    // into the grant group and dies when the last grant chunk is freed.
    group->skb = std::move(skb_ptr);
    stats_.tx_grant_frames.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

size_t EthernetProxy::StartXmitBatch(std::span<kern::SkbPtr> skbs, uint16_t queue) {
  if (queue >= ctx_->num_queues()) {
    queue = 0;
  }
  // Stage every frame first, so the whole array crosses in one enqueue, into
  // this thread's array (a nested transmit, in a ring-full pump, gets a new one).
  thread_local std::vector<UchanMsg> t_staged;
  std::vector<UchanMsg> msgs = std::move(t_staged);
  Status staging = Status::Ok();
  for (kern::SkbPtr& skb : skbs) {
    staging = PrepareXmit(skb, &msgs.emplace_back(), queue);
    if (!staging.ok()) {
      msgs.pop_back();
      break;  // pool exhausted: the tail of the burst is dropped
    }
  }
  if (staging.code() == ErrorCode::kQueueFull) {
    // Each frame behind the failing one would have hit the same empty pool:
    // account them as if each had tried (drop + hung detection).
    for (size_t rest = msgs.size() + 1; rest < skbs.size(); ++rest) {
      stats_.xmit_dropped.fetch_add(1, std::memory_order_relaxed);
      if (netdev_ != nullptr) {
        netdev_->stats().tx_no_buffer++;
      }
      NoteXmitFull();
    }
  } else if (!staging.ok() && msgs.size() + 1 < skbs.size()) {
    // Any other staging failure mid-burst also drops the unstaged tail:
    // count those frames too (the failing frame was counted in PrepareXmit).
    stats_.xmit_dropped.fetch_add(skbs.size() - msgs.size() - 1, std::memory_order_relaxed);
  }
  if (msgs.empty()) {
    return 0;
  }
  stats_.xmit_batches.fetch_add(1, std::memory_order_relaxed);
  Result<size_t> sent = ctx_->ctl(queue).SendAsyncBatch(msgs);
  size_t enqueued = sent.ok() ? sent.value() : 0;
  // The messages the ring did not take (a full ring's tail, or all of them
  // on a shut-down channel) are still intact: free their staged buffers.
  for (size_t i = enqueued; i < msgs.size(); ++i) {
    for (size_t f = 0; f < wire::XmitFragCount(msgs[i]); ++f) {
      ctx_->pool().Free(wire::XmitFragAt(msgs[i], f).pool_id);
    }
  }
  size_t dropped = msgs.size() - enqueued;
  stats_.xmit_dropped.fetch_add(dropped, std::memory_order_relaxed);
  stats_.xmit_upcalls.fetch_add(enqueued, std::memory_order_relaxed);
  if (dropped == 0) {
    consecutive_full_.store(0, std::memory_order_relaxed);
  } else if (sent.ok()) {
    NoteXmitFull();
  }
  msgs.clear();
  t_staged = std::move(msgs);
  return enqueued;
}

Result<std::string> EthernetProxy::Ioctl(uint32_t cmd) {
  UchanMsg msg;
  msg.opcode = kEthUpIoctl;
  msg.args[0] = cmd;
  Result<UchanMsg> reply = ctx_->ctl().SendSync(std::move(msg));
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().error != 0) {
    return Status(static_cast<ErrorCode>(reply.value().error), "ioctl failed in driver");
  }
  return std::string(reply.value().inline_data.begin(), reply.value().inline_data.end());
}

void EthernetProxy::OnDriverRestart() {
  consecutive_full_.store(0, std::memory_order_relaxed);
  // The replacement driver binds a FRESH uchan set whose seqs restart at 1:
  // the dedup watermarks must restart with them.
  last_rx_seq_.fill(0);
  for (auto& bundle : rx_bundle_) {
    // Packets whose NAPI flush died with the driver: dropping them here is
    // part of the bounded, counted crash loss. Guard copies are private
    // skbs; sealed (extern) skbs fire their release hooks right here, and
    // the epoch guard in ReleaseSealedPages turns each into a counted
    // quarantine instead of an unseal into the dead context's IO space.
    bundle.clear();
  }
}

void EthernetProxy::HandleDowncall(UchanMsg& msg, uint16_t shard, wire::Malform verdict) {
  // The context certified the shape (or refused it, counted). Semantic
  // checks — DMA-space lookups, the interface's declared MTU, queue-count
  // clamps — stay in the handlers below, with their historical counters.
  if (verdict != wire::Malform::kNone) {
    RejectDowncall(msg, shard, verdict);
    return;
  }
  switch (msg.opcode) {
    case kEthDownRegisterNetdev: {
      // The driver's advertised queue count, clamped to the shards the
      // kernel actually exported: a malicious count cannot grow the
      // attack surface.
      uint16_t queues = static_cast<uint16_t>(msg.args[0]);
      if (queues == 0) {
        queues = 1;
      }
      if (queues > ctx_->num_queues()) {
        if (netdev_ != nullptr) {
          netdev_->stats().driver_errors++;
        }
        SUD_LOG(kAttack) << "register_netdev claims " << queues
                         << " queues but the device context has " << ctx_->num_queues();
        queues = static_cast<uint16_t>(ctx_->num_queues());
      }
      // Feature bits: only bits the kernel knows are honoured; everything
      // else a driver claims is ignored.
      driver_sg_ = (msg.args[2] & kEthFeatureSg) != 0;
      // A register_netdev marks a new driver generation speaking a freshly
      // bound uchan whose seqs restart at 1 — the netif_rx dedup watermarks
      // must restart with it. The supervisor's OnDriverRestart also resets
      // them, but an administrator's manual kill+start bypasses it.
      last_rx_seq_.fill(0);
      if (netdev_ != nullptr) {
        // A restarted driver re-registering: keep the existing interface and
        // refresh the MAC (shadow-driver-style recovery, Section 2).
        netdev_->set_dev_addr(msg.inline_data.data());
        netdev_->set_num_queues(queues);
        netdev_->set_sg(driver_sg_);
        netdev_->set_mtu(DeclaredMtu(msg.args[1]));
        msg.error = 0;
        return;
      }
      std::string name = kernel_->net().NextName("eth");
      Result<kern::NetDevice*> netdev =
          kernel_->net().RegisterNetdev(name, msg.inline_data.data(), this);
      if (!netdev.ok()) {
        msg.error = static_cast<int32_t>(netdev.status().code());
        return;
      }
      netdev_ = netdev.value();
      netdev_->set_num_queues(queues);
      netdev_->set_sg(driver_sg_);
      netdev_->set_mtu(DeclaredMtu(msg.args[1]));
      msg.error = 0;
      return;
    }
    case kEthDownNetifRx:
      HandleNetifRx(msg, shard);
      return;
    case kEthDownSetCarrier:
      // Shared-memory mirror update (Section 3.3): ordered with respect to
      // other control downcalls because it travels the same (control) shard.
      if (netdev_ != nullptr) {
        netdev_->set_carrier(msg.args[0] != 0);
      }
      msg.error = 0;
      return;
    case kEthDownFreeBuffer:
      HandleFreeBuffer(msg);
      return;
    default:
      SUD_LOG(kWarning) << "ethernet proxy: unknown downcall opcode " << msg.opcode;
      msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      return;
  }
}

void EthernetProxy::HandleFreeBuffer(UchanMsg& msg) {
  // Unified layout, schema-certified: args[0] ids in the payload (one
  // message per TX reap pass; a single completion is a batch of one).
  size_t count = wire::FreeBufferCount(msg);
  if (count > 1) {
    stats_.free_batches.fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < count; ++i) {
    // Bogus ids are tolerated and counted by the pool (double_frees).
    ctx_->pool().Free(wire::DecodeFreeBufferId(msg, i));
  }
  msg.error = 0;
}

bool EthernetProxy::RxDowncallProlog(UchanMsg& msg, uint16_t shard) {
  if (msg.seq != 0 && msg.seq <= last_rx_seq_[shard]) {
    // Duplicated delivery (channel fault or replay): the shard's seqs are
    // strictly increasing, so a non-advancing one was already handled.
    stats_.rx_dups_rejected.fetch_add(1, std::memory_order_relaxed);
    msg.error = 0;  // tolerated, not a downcall failure
    return false;
  }
  last_rx_seq_[shard] = msg.seq;
  stats_.rx_downcalls.fetch_add(1, std::memory_order_relaxed);
  if (netdev_ == nullptr) {
    msg.error = static_cast<int32_t>(ErrorCode::kUnavailable);
    return false;
  }
  return true;
}

void EthernetProxy::RejectNetifRx(UchanMsg& msg, const char* why) {
  stats_.rx_malformed.fetch_add(1, std::memory_order_relaxed);
  netdev_->stats().driver_errors++;
  SUD_LOG(kAttack) << "netif_rx downcall rejected: " << why;
  msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
}

void EthernetProxy::RejectDowncall(UchanMsg& msg, uint16_t shard, wire::Malform verdict) {
  switch (msg.opcode) {
    case kEthDownNetifRx:
      // A structurally malformed delivery leaves the same books behind as a
      // semantically rejected one: the dedup watermark advances, the
      // downcall counter bumps, and the attack lands in rx_malformed.
      if (RxDowncallProlog(msg, shard)) {
        RejectNetifRx(msg, wire::MalformName(verdict));
      }
      return;
    case kEthDownFreeBuffer: {
      // Tolerate-and-salvage: a count that disagrees with the payload is a
      // malformed (malicious) message, but the ids the payload actually
      // carries are real completions — free them or the pool leaks on the
      // driver's word alone.
      if (netdev_ != nullptr) {
        netdev_->stats().driver_errors++;
      }
      SUD_LOG(kAttack) << "free-buffer batch count " << msg.args[0]
                       << " disagrees with payload (" << wire::FreeBufferPayloadCount(msg)
                       << " ids)";
      stats_.free_batches.fetch_add(1, std::memory_order_relaxed);
      size_t salvage = wire::FreeBufferPayloadCount(msg);
      for (size_t i = 0; i < salvage; ++i) {
        ctx_->pool().Free(wire::DecodeFreeBufferId(msg, i));
      }
      msg.error = 0;
      return;
    }
    default:
      return;  // refused by the context
  }
}

void EthernetProxy::HandleNetifRx(UchanMsg& msg, uint16_t shard) {
  if (!RxDowncallProlog(msg, shard)) {
    return;
  }
  // The downcall carries the frame as (iova, len) fragments in the driver's
  // own DMA space: the RX buffers the device DMA'd it into (zero-copy,
  // Section 3.1.2). The schema certified the shape (tail count vs payload vs
  // the chain cap, no empty fragment, the jumbo total); the fragments are
  // still driver-marshalled, so re-validate the SEMANTIC facts — every
  // fragment within the driver's own mappings (never kernel addresses or
  // other devices' buffers), the total within the INTERFACE's maximum frame
  // (a standard-MTU interface rejects jumbo lengths) — before a single byte
  // is copied.
  size_t max_frame = netdev_->max_frame_bytes();
  size_t count = wire::NetifRxFragCount(msg);
  uint64_t iova = msg.args[0];
  uint64_t total = msg.args[1];
  if (total > max_frame) {
    RejectNetifRx(msg, "frame exceeds the interface maximum");
    return;
  }
  Result<ByteSpan> head = ctx_->dma().HostView(iova, total);
  if (!head.ok()) {
    RejectNetifRx(msg, "fragment outside the driver's dma space");
    return;
  }
  CpuModel& cpu = kernel_->machine().cpu();
  auto charge_guard_copy = [&](uint64_t bytes) {
    // The copy is fused with the checksum pass: one charged pass (§3.1.2).
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_checksum, bytes);
    stats_.guard_copies.fetch_add(1, std::memory_order_relaxed);
  };
  if (count > 1) {
    // An EOP-chained frame: validate every tail fragment, then guard-copy
    // fragment by fragment into ONE private skb before any verdict (chains
    // always guard-copy; sealing models the one-descriptor path only). The
    // checksum runs over the assembled copy.
    std::array<ByteSpan, kern::kMaxChainFrags> views;
    views[0] = head.value();
    for (size_t i = 1; i < count; ++i) {
      DmaFrag frag = wire::NetifRxFragAt(msg, i);
      total += frag.len;
      if (total > max_frame) {
        RejectNetifRx(msg, "frame exceeds the interface maximum");
        return;
      }
      Result<ByteSpan> view = ctx_->dma().HostView(frag.iova, frag.len);
      if (!view.ok()) {
        RejectNetifRx(msg, "fragment outside the driver's dma space");
        return;
      }
      views[i] = view.value();
    }
    auto skb = std::make_unique<kern::Skb>();
    for (size_t i = 0; i < count; ++i) {
      // Cannot fail: the total was bounded by max_frame above.
      (void)skb->AppendFrag(ConstByteSpan(views[i].data(), views[i].size()), max_frame);
    }
    bool checksum_ok = skb->VerifyChecksumPrivate();
    charge_guard_copy(total);
    FinishRxSkb(std::move(skb), checksum_ok, static_cast<size_t>(total), shard);
    msg.error = 0;  // a dropped packet is not a downcall failure
    return;
  }
  ByteSpan shared = head.value();
  msg.error = 0;  // rejection by firewall/checksum is not a downcall failure
  if (options_.sealed_delivery) {
    if (TrySealedDeliver(iova, shared, shard)) {
      return;
    }
    // The seal did not happen (unaligned buffer, injected or genuine
    // failure): degrade to the guard copy — counted, so a "zero-copy"
    // configuration silently copying is visible.
    stats_.sealed_fallback_copies.fetch_add(1, std::memory_order_relaxed);
  }
  // Copy out of shared memory *first*, then let the stack filter the
  // private copy. On the simulator's own clock too the copy and the checksum
  // are one traversal (AssignAndVerifyChecksum), and the stack skips its
  // (redundant) checksum pass for skbs the proxy already verified.
  auto skb = std::make_unique<kern::Skb>();
  bool checksum_ok = skb->AssignAndVerifyChecksum(ConstByteSpan(shared.data(), shared.size()));
  charge_guard_copy(shared.size());
  FinishRxSkb(std::move(skb), checksum_ok, shared.size(), shard);
}

bool EthernetProxy::TrySealedDeliver(uint64_t iova, ByteSpan shared, uint16_t shard) {
  // Page-granular revocation needs page-isolated RX buffers: a seal covering
  // a neighbouring in-flight buffer's bytes would block the device's own
  // writes to it. Only page-aligned deliveries qualify (the single-queue
  // 16 KB arena layout; an 8-queue arena's 2 KB buffers never will).
  if (!hw::IsPageAligned(iova)) {
    return false;
  }
  // Injected seal failure (fault site "iommu.seal"): nothing sealed, nothing
  // delivered — the caller degrades to the counted guard-copy fallback.
  if (SUD_FAULT_POINT("iommu.seal")) {
    return false;
  }
  hw::Iommu* iommu = ctx_->dma().iommu();
  uint16_t source = ctx_->source_id();
  uint32_t epoch = ctx_->bind_generation();
  uint64_t len = hw::PageAlignUp(shared.size());
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    Status sealed = iommu->SealWrite(source, iova, len);
    if (!sealed.ok()) {
      return false;
    }
    for (uint64_t off = 0; off < len; off += hw::kPageSize) {
      SealRef& ref = sealed_pages_[iova + off];
      ++ref.refs;
      ref.epoch = epoch;
    }
  }
  auto skb = std::make_unique<kern::Skb>();
  skb->AssignExtern(shared.data(), shared.size(),
                    [this, iova, len, epoch] { ReleaseSealedPages(iova, len, epoch); });
  if (toctou_hook_) {
    // The verdict window, adversarially: the attacker fires its rewrite NOW,
    // between the seal and the checksum — and hits the seal instead of the
    // verdict. (The guard-copy path survives this by owning a copy; this
    // path survives it by revocation.)
    toctou_hook_(shared);
  }
  // Verify the transport checksum IN PLACE over the sealed bytes. The seal
  // replaces the private copy as the TOCTOU guarantee, so the charged pass
  // is checksum-only — exactly what the fused guard copy charged. The copy
  // itself is what this path deletes.
  bool checksum_ok = skb->VerifyChecksumPrivate();
  CpuModel& cpu = kernel_->machine().cpu();
  cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_checksum, shared.size());
  stats_.sealed_deliveries.fetch_add(1, std::memory_order_relaxed);
  size_t frame_bytes = skb->data_len();
  FinishRxSkb(std::move(skb), checksum_ok, frame_bytes, shard);
  return true;
}

void EthernetProxy::ReleaseSealedPages(uint64_t base, uint64_t len, uint32_t epoch) {
  std::lock_guard<std::mutex> lock(seal_mu_);
  for (uint64_t off = 0; off < len; off += hw::kPageSize) {
    uint64_t page = base + off;
    auto it = sealed_pages_.find(page);
    if (it == sealed_pages_.end() || it->second.epoch != epoch) {
      continue;  // a fresh epoch owns this page now; not ours to touch
    }
    if (--it->second.refs > 0) {
      continue;  // another live skb still references the page
    }
    sealed_pages_.erase(it);
    if (ctx_->bind_generation() != epoch) {
      // The epoch quarantine, extended to seals: this skb outlived its
      // driver instance. The dead context's IO space is already reclaimed
      // (or a successor's is live in its place) — crash-reap never unseals
      // across the epoch.
      stats_.sealed_quarantined.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Status unsealed = ctx_->dma().iommu()->UnsealWrite(ctx_->source_id(), page, hw::kPageSize);
    if (!unsealed.ok()) {
      // Same-generation teardown window (driver killed, successor not yet
      // bound): the IOMMU context is gone and the page leaves quarantined.
      stats_.sealed_quarantined.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void EthernetProxy::FinishRxSkb(kern::SkbPtr skb, bool checksum_ok, size_t frame_bytes,
                                uint16_t shard) {
  CpuModel& cpu = kernel_->machine().cpu();
  cpu.Charge(kAccountKernel, cpu.costs().skb_alloc + cpu.costs().stack_work_per_pkt);
  if (!checksum_ok) {
    // Same drop accounting the stack's own pass would have applied (the
    // skb_alloc + stack charge above still applies first, as it did when
    // these packets died inside NetifRx).
    if (frame_bytes < kern::kPacketMinSize) {
      netdev_->stats().rx_dropped++;
      netdev_->stats().driver_errors++;
      SUD_LOG_RL(kWarning) << netdev_->name() << ": driver delivered runt packet, dropping";
    } else {
      netdev_->stats().rx_bad_checksum++;
      netdev_->stats().rx_dropped++;
    }
    return;
  }
  // NAPI-style: the private copy joins the shard's poll bundle; the whole
  // array enters the stack once, at the end of this kernel entry.
  rx_bundle_[shard].push_back(std::move(skb));
}

void EthernetProxy::DeliverRxBundle(uint16_t shard) {
  if (rx_bundle_[shard].empty() || netdev_ == nullptr) {
    return;
  }
  std::vector<kern::SkbPtr> bundle;
  bundle.swap(rx_bundle_[shard]);
  stats_.rx_bundles.fetch_add(1, std::memory_order_relaxed);
  if (hold_rx_.load(std::memory_order_relaxed)) {
    // Test seam: the modeled socket queue retains the delivery — sealed skbs
    // stay alive (and their pages sealed) past this kernel entry.
    std::lock_guard<std::mutex> lock(hold_mu_);
    for (kern::SkbPtr& skb : bundle) {
      held_rx_.push_back(std::move(skb));
    }
    return;
  }
  (void)kernel_->net().NetifRxBatch(netdev_, std::move(bundle), shard);
  if (options_.sealed_delivery) {
    // Skbs died inside the batch; their unseals queued their IOTLB
    // invalidations (when the IOMMU batches). One sync here amortizes the
    // shootdown over the whole NAPI bundle — the Section 6 answer to the
    // per-packet invalidation cost that made the paper pick the copy.
    ctx_->dma().iommu()->SyncInvalidations();
  }
}

}  // namespace sud
