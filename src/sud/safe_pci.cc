#include "src/sud/safe_pci.h"

#include <algorithm>
#include <thread>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/kern/net_limits.h"

namespace sud {

namespace {
// Interrupts arriving while MSI is masked (so necessarily stray-DMA
// generated) before the storm escalation kicks in.
constexpr uint32_t kStormThreshold = 8;
}  // namespace

void SudDeviceContext::SpinLock::lock() {
  static const bool multi_cpu = std::thread::hardware_concurrency() > 1;
  for (int spins = 0; flag.test_and_set(std::memory_order_acquire); ++spins) {
    if (!multi_cpu || spins >= 64) {
      std::this_thread::yield();  // the holder may need this CPU to finish
    }
  }
}

SudDeviceContext::SudDeviceContext(kern::Kernel* kernel, hw::PciDevice* device,
                                   kern::Uid owner_uid, Options options)
    : kernel_(kernel), device_(device), owner_uid_(owner_uid), options_(options) {
  num_queues_ = std::clamp<uint32_t>(options_.num_queues, 1, kSudMaxQueues);
  // The ctl shards live as long as the context, shut while no driver is
  // bound: a sender blocked across a rebind never outlives its shard. Each
  // shard's handlers pin its index: two words, no heap copy per downcall.
  for (uint16_t q = 0; q < num_queues_; ++q) {
    shards_.push_back(std::make_unique<Uchan>(options_.uchan, &kernel_->machine().cpu()));
    shards_[q]->set_downcall_handler([this, q](UchanMsg& msg) { Downcall(msg, q); });
    shards_[q]->set_downcall_flush_handler([this, q] {
      if (downcall_flush_handler_) {
        downcall_flush_handler_(q);
      }
    });
    shards_[q]->Shutdown();
  }
}

SudDeviceContext::~SudDeviceContext() { Teardown(); }

Uchan::Stats SudDeviceContext::AggregateCtlStats() const {
  Uchan::Stats total;
  for (const auto& shard : shards_) {
    total += shard->stats();
  }
  return total;
}

void SudDeviceContext::Downcall(UchanMsg& msg, uint16_t shard) {
  // The one structural check at this boundary (the ownership check at handle
  // entry): opcode known, control lane on shard 0, args in their static
  // bounds, payload well-formed — before anything parses a byte. Semantic
  // checks (DMA-space lookups, the interface's declared MTU, queue-count
  // clamps) stay with the state they check, in the proxies.
  wire::Malform verdict = wire::ValidateStructure(wire::Dir::kDown, msg, shard);
  if (verdict != wire::Malform::kNone) {
    wire_rejects_.Count(wire::Dir::kDown, msg.opcode);
    SUD_LOG(kAttack) << device_->name() << ": malformed downcall " << msg.opcode
                     << " rejected (" << wire::MalformName(verdict) << ")";
    msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
  } else if (msg.opcode == kOpInterruptAck) {
    // The ack is for the queue whose shard carried it — not for a queue
    // index the driver could lie about.
    msg.error = static_cast<int32_t>(InterruptAck(shard).code());
    return;
  } else if (msg.opcode == kOpRequestRegion) {
    msg.error = static_cast<int32_t>(RequestIoRegion().code());
    return;
  }
  if (verdict == wire::Malform::kUnknownOpcode || msg.opcode < kOpDownDeviceClassBase) {
    // Unknown, malformed generic, or a generic call this model does not serve.
    msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
    return;
  }
  if (!downcall_handler_) {
    msg.error = static_cast<int32_t>(ErrorCode::kUnavailable);
    return;
  }
  downcall_handler_(msg, shard, verdict);
}

Status SudDeviceContext::Bind(kern::Process* proc) {
  if (bound_) {
    return Status(ErrorCode::kAlreadyExists, "device already bound to a driver");
  }
  if (proc == nullptr || !proc->alive()) {
    return Status(ErrorCode::kInvalidArgument, "no live process");
  }
  if (proc->uid() != owner_uid_) {
    SUD_LOG(kAttack) << device_->name() << ": uid " << proc->uid()
                     << " tried to bind device owned by uid " << owner_uid_;
    return Status(ErrorCode::kPermissionDenied, "device files not owned by this uid");
  }

  SUD_RETURN_IF_ERROR(kernel_->machine().iommu().CreateContext(source_id()));
  if (Status acquired = Acquire(proc); !acquired.ok()) {
    Release();
    return acquired;
  }
  process_ = proc;
  {
    // A device interrupt that entered OnDeviceInterrupt for the previous
    // instance can still hold irq_mu_. Publishing the fresh interrupt state
    // together with bound_ under the lock means that handler's mask or
    // in-flight mark is either reset here or never made: unmasking first
    // let it re-mask for an upcall no driver would ever ack, wedging every
    // queue.
    std::lock_guard<SpinLock> lock(irq_mu_);
    irq_in_flight_.fill(false);
    irq_pended_.fill(false);
    interrupts_while_masked_ = 0;
    device_->config().set_msi_masked(false);
    bound_ = true;
  }
  SUD_LOG(kInfo) << device_->name() << ": bound to pid " << proc->pid() << " (uid " << proc->uid()
                 << "), irq vectors " << int{vector_base_} << ".."
                 << int{vector_base_} + static_cast<int>(num_queues_) - 1;
  return Status::Ok();
}

Status SudDeviceContext::Acquire(kern::Process* proc) {
  hw::Machine& machine = kernel_->machine();
  // AMD-Vi: the OS must explicitly map the MSI doorbell page for the device;
  // storm escalation later removes it (Section 5.2).
  if (machine.iommu().mode() == hw::IommuMode::kAmdVi) {
    SUD_RETURN_IF_ERROR(machine.iommu().Map(source_id(), hw::kMsiRangeBase, hw::kMsiRangeBase,
                                            hw::kPageSize, /*readable=*/false,
                                            /*writable=*/true));
  }

  // Interrupt setup: the *kernel* programs the MSI capability (drivers are
  // filtered away from it) and routes the vectors to this context. A
  // multi-queue device gets one contiguous multi-message range — queue q
  // signals vector_base + q, and each vector dispatches with its queue index.
  Result<uint8_t> base = kernel_->AllocIrqVectorRange(static_cast<uint8_t>(num_queues_));
  if (!base.ok()) {
    return base.status();
  }
  vector_base_ = base.value();
  for (; irq_vectors_ < num_queues_; ++irq_vectors_) {
    uint32_t q = irq_vectors_;
    SUD_RETURN_IF_ERROR(kernel_->RequestIrq(
        static_cast<uint8_t>(vector_base_ + q), [this, q](uint16_t source_id) {
          OnDeviceInterrupt(static_cast<uint16_t>(q), source_id);
        }));
  }
  device_->config().set_msi_address(hw::kMsiRangeBase);
  device_->config().set_msi_data(vector_base_);
  device_->config().set_msi_enabled(true);
  if (machine.iommu().interrupt_remapping()) {
    for (uint32_t q = 0; q < num_queues_; ++q) {
      SUD_RETURN_IF_ERROR(machine.iommu().SetInterruptRemapEntry(
          source_id(), static_cast<uint8_t>(vector_base_ + q),
          static_cast<uint8_t>(vector_base_ + q)));
    }
  }

  for (auto& shard : shards_) {
    shard->Reopen();
  }
  // Each bind is a new pool epoch: handles issued to the previous (dead)
  // driver instance fail validation everywhere in the fresh one.
  ++bind_generation_;
  // A zero-buffer pool is legal (non-networking device classes may never
  // exchange bulk data); the pool then reports kUnavailable on Alloc.
  if (options_.pool_buffers > 0) {
    SUD_RETURN_IF_ERROR(pool_.Init(bind_generation_));
    SUD_RETURN_IF_ERROR(proc->ChargeMemory(static_cast<uint64_t>(options_.pool_buffers) *
                                           kern::kRxDefaultBufferBytes));
  }
  return Status::Ok();
}

Status SudDeviceContext::MmioAccess(int bar, uint64_t offset) {
  if (!bound_) {
    return Status(ErrorCode::kUnavailable, "device not bound");
  }
  if (bar < 0 || static_cast<size_t>(bar) >= device_->bars().size() ||
      device_->bars()[bar].is_io || device_->bars()[bar].size < 4 ||
      offset > device_->bars()[bar].size - 4) {
    return Status(ErrorCode::kInvalidArgument, "mmio access outside device bars");
  }
  kernel_->machine().cpu().Charge(kAccountDriver, kernel_->machine().cpu().costs().mmio_access);
  return Status::Ok();
}

Result<uint32_t> SudDeviceContext::MmioRead(int bar, uint64_t offset) {
  SUD_RETURN_IF_ERROR(MmioAccess(bar, offset));
  return device_->MmioRead(bar, offset);
}

Status SudDeviceContext::MmioWrite(int bar, uint64_t offset, uint32_t value) {
  SUD_RETURN_IF_ERROR(MmioAccess(bar, offset));
  device_->MmioWrite(bar, offset, value);
  return Status::Ok();
}

bool SudDeviceContext::ConfigWriteAllowed(uint16_t offset, int width, uint32_t value,
                                          std::string* why) const {
  // Writable: the command register (with a bit whitelist), cache line size
  // and latency timer. Everything else — BARs, the capability chain, the
  // MSI capability, interrupt line — is routing-sensitive and kernel-owned.
  if (offset == hw::kPciCommand && width == 2) {
    constexpr uint16_t kAllowed = hw::kPciCommandIoEnable | hw::kPciCommandMemEnable |
                                  hw::kPciCommandBusMaster | hw::kPciCommandIntxDisable;
    if ((value & ~static_cast<uint32_t>(kAllowed)) != 0) {
      *why = "command-register bits outside the allowed set";
      return false;
    }
    return true;
  }
  if ((offset == hw::kPciCacheLineSize || offset == hw::kPciLatencyTimer) && width == 1) {
    return true;
  }
  if (offset >= hw::kPciBar0 && offset < hw::kPciBar0 + 24) {
    *why = "BAR registers are kernel-owned (relocation attack)";
    return false;
  }
  if (offset >= hw::kMsiCapOffset && offset < hw::kMsiCapOffset + 0x14) {
    *why = "MSI capability is kernel-owned (interrupt redirection attack)";
    return false;
  }
  *why = "register not in the safe-PCI write whitelist";
  return false;
}

Result<uint32_t> SudDeviceContext::ConfigRead(uint16_t offset, int width) {
  if (!bound_) {
    return Status(ErrorCode::kUnavailable, "device not bound");
  }
  kernel_->machine().cpu().Charge(kAccountDriver,
                                  kernel_->machine().cpu().costs().pci_config_access);
  return device_->config().Read(offset, width);
}

Status SudDeviceContext::ConfigWrite(uint16_t offset, int width, uint32_t value) {
  if (!bound_) {
    return Status(ErrorCode::kUnavailable, "device not bound");
  }
  std::string why;
  if (!ConfigWriteAllowed(offset, width, value, &why)) {
    SUD_LOG(kAttack) << device_->name() << ": filtered config write at offset " << Hex(offset)
                     << " (" << why << ")";
    return Status(ErrorCode::kPermissionDenied, why);
  }
  kernel_->machine().cpu().Charge(kAccountDriver,
                                  kernel_->machine().cpu().costs().pci_config_access);
  device_->config().Write(offset, width, value);
  return Status::Ok();
}

Status SudDeviceContext::IoPortAccess(uint16_t port) {
  if (!bound_ || process_ == nullptr) {
    return Status(ErrorCode::kUnavailable, "device not bound");
  }
  if (!process_->MayAccessIoPort(port)) {
    SUD_LOG(kAttack) << device_->name() << ": io port " << Hex(port) << " not in process IOPB";
    return Status(ErrorCode::kPermissionDenied, "io port not granted");
  }
  return Status::Ok();
}

Result<uint8_t> SudDeviceContext::IoPortRead(uint16_t port) {
  SUD_RETURN_IF_ERROR(IoPortAccess(port));
  return kernel_->machine().IoPortRead(port);
}

Status SudDeviceContext::IoPortWrite(uint16_t port, uint8_t value) {
  SUD_RETURN_IF_ERROR(IoPortAccess(port));
  kernel_->machine().IoPortWrite(port, value);
  return Status::Ok();
}

Status SudDeviceContext::RequestIoRegion() {
  if (!bound_ || process_ == nullptr) {
    return Status(ErrorCode::kUnavailable, "device not bound");
  }
  for (size_t b = 0; b < device_->bars().size(); ++b) {
    const hw::BarDesc& bar = device_->bars()[b];
    if (!bar.is_io || bar.size == 0) {
      continue;
    }
    uint16_t base = static_cast<uint16_t>(device_->config().bar(static_cast<int>(b)));
    uint16_t count = static_cast<uint16_t>(bar.size);
    process_->GrantIoPorts(base, count);
    granted_io_base_ = base;
    granted_io_count_ = count;
    return Status::Ok();
  }
  return Status(ErrorCode::kNotFound, "device has no io bar");
}

void SudDeviceContext::OnDeviceInterrupt(uint16_t queue, uint16_t msi_source_id) {
  if (msi_source_id != source_id()) {
    // Our vector, someone else's requester id: a forged interrupt via stray
    // DMA to the MSI address. Masking *our* device is useless — escalate
    // against the storming device's context, under its lock, not ours.
    {
      std::lock_guard<SpinLock> lock(irq_mu_);
      ++irq_stats_.forged_received;
    }
    SUD_LOG(kAttack) << device_->name() << ": forged MSI (vector "
                     << int{vector_base_} + queue << ") from source " << Hex(msi_source_id);
    module_->ReportForgedMsi(msi_source_id);
    return;
  }
  std::lock_guard<SpinLock> lock(irq_mu_);
  if (!bound_) {
    return;
  }
  hw::Machine& machine = kernel_->machine();
  if (device_->config().msi_masked()) {
    // MSI is masked, yet an interrupt arrived: it cannot have come from the
    // device's MSI logic — this is a stray DMA write to the MSI address
    // (Section 3.2.2). Count toward a storm; once one is escalated, remapping
    // or the unmapped MSI page stops delivery upstream.
    // It can ALSO be a genuine message that raced the mask flip (the device
    // checked the mask bit before a coalesce set it); the source id already
    // matched, so pend the queue — a spurious re-poll is harmless, a lost
    // edge wedges the queue forever.
    irq_pended_[queue] = true;
    ++interrupts_while_masked_;
    if (interrupts_while_masked_ >= kStormThreshold) {
      EscalateStorm();
    } else if (interrupts_while_masked_ == 1) {
      SUD_LOG(kAttack) << device_->name()
                       << ": interrupt delivered while MSI masked (stray DMA to MSI address)";
    }
    return;
  }

  if (irq_in_flight_[queue]) {
    // A second interrupt on this queue before the driver acknowledged the
    // first: mask further MSIs so an unresponsive driver cannot storm us.
    // (MSI masking is per function, not per message — so a storm on one
    // queue throttles them all until the ack, as on real hardware.)
    // Pend the queue: this edge may have fired for work the driver's poll
    // already missed (frame landed after the ring read, before the ack),
    // and a window-blocked sender will never produce another edge.
    irq_pended_[queue] = true;
    machine.cpu().Charge(kAccountKernel, machine.cpu().costs().pci_config_access);
    device_->config().set_msi_masked(true);
    ++irq_stats_.mask_events;
    ++irq_stats_.coalesced;
    return;
  }

  irq_in_flight_[queue] = true;
  ++irq_stats_.forwarded;
  machine.cpu().Charge(kAccountKernel, machine.cpu().costs().interrupt_entry);
  (void)shards_[queue]->RaiseInterrupt(queue);
}

void SudDeviceContext::EscalateStorm() {
  hw::Machine& machine = kernel_->machine();
  ++irq_stats_.storm_escalations;
  if (machine.iommu().interrupt_remapping()) {
    machine.cpu().Charge(kAccountKernel, machine.cpu().costs().irq_remap_update);
    for (uint32_t q = 0; q < num_queues_; ++q) {
      (void)machine.iommu().SetInterruptRemapEntry(
          source_id(), static_cast<uint8_t>(vector_base_ + q), std::nullopt);
    }
    irq_stats_.remap_blocked = true;
    SUD_LOG(kAttack) << device_->name()
                     << ": interrupt storm — disabled MSI via interrupt remapping";
    return;
  }
  if (machine.iommu().mode() == hw::IommuMode::kAmdVi) {
    (void)machine.iommu().Unmap(source_id(), hw::kMsiRangeBase, hw::kPageSize);
    irq_stats_.msi_page_unmapped = true;
    SUD_LOG(kAttack) << device_->name() << ": interrupt storm — unmapped MSI page (AMD-Vi)";
    return;
  }
  // Intel without interrupt remapping: nothing more SUD can do; the paper's
  // testbed is vulnerable to exactly this livelock (§5.2).
  ++irq_stats_.unstoppable;
  SUD_LOG(kAttack) << device_->name()
                   << ": interrupt storm from stray DMA — no interrupt remapping available, "
                      "livelock cannot be stopped (Intel VT-d without IR, §5.2)";
}

Status SudDeviceContext::InterruptAck(uint16_t queue) {
  if (!bound_) {
    return Status(ErrorCode::kUnavailable, "device not bound");
  }
  if (queue >= num_queues_) {
    return Status(ErrorCode::kInvalidArgument, "interrupt_ack for a queue the device lacks");
  }
  CpuModel& cpu = kernel_->machine().cpu();
  bool unmasked = false;
  {
    std::lock_guard<SpinLock> lock(irq_mu_);
    irq_in_flight_[queue] = false;
    interrupts_while_masked_ = 0;
    unmasked = device_->config().msi_masked() && !irq_stats_.remap_blocked &&
               !irq_stats_.msi_page_unmapped;
    if (unmasked) {
      cpu.Charge(kAccountKernel, cpu.costs().pci_config_access);
      device_->config().set_msi_masked(false);
    }
  }
  // A masked interrupt pends and fires on unmask, per the PCI spec; it
  // re-enters OnDeviceInterrupt, so it fires with the lock released.
  Status fired = unmasked ? device_->FirePendingMsi() : Status::Ok();
  // Raise the edges this layer swallowed mid-handling (coalesced while in
  // flight, or raced a mask flip): the work they signalled is already in the
  // descriptor rings, and no further edge may ever come — a window-blocked
  // generator stops transmitting at exactly one full window. A queue the
  // re-fire raised, or one still in flight, is swept by its own ack.
  std::lock_guard<SpinLock> lock(irq_mu_);
  for (uint32_t q = 0; q < num_queues_; ++q) {
    if (irq_pended_[q] && !irq_in_flight_[q]) {
      irq_pended_[q] = false;
      irq_in_flight_[q] = true;
      ++irq_stats_.forwarded;
      cpu.Charge(kAccountKernel, cpu.costs().interrupt_entry);
      (void)shards_[q]->RaiseInterrupt(static_cast<uint16_t>(q));
    }
  }
  return fired;
}

void SudDeviceContext::Teardown() {
  if (!bound_) {
    return;
  }
  process_->RevokeIoPorts(granted_io_base_, granted_io_count_);
  process_->UncchargeMemory(static_cast<uint64_t>(options_.pool_buffers) *
                            kern::kRxDefaultBufferBytes);
  // TX staging the dead driver never completed: those buffers leave with the
  // dying epoch (counted loss), never back into a live free list.
  quarantined_buffers_ += pool_.outstanding();
  Release();
  process_ = nullptr;
  SUD_LOG(kInfo) << device_->name() << ": context torn down, all resources reclaimed";
}

void SudDeviceContext::Release() {
  for (auto& shard : shards_) {
    shard->Shutdown();
  }
  dma_.ReleaseAll();
  (void)kernel_->machine().iommu().DestroyContext(source_id());
  for (; irq_vectors_ > 0; --irq_vectors_) {
    (void)kernel_->FreeIrq(static_cast<uint8_t>(vector_base_ + irq_vectors_ - 1));
  }
  // Quiesce the device: no more DMA, no more interrupts.
  device_->config().set_msi_enabled(false);
  uint16_t command = device_->config().command();
  device_->config().set_command(command & static_cast<uint16_t>(~hw::kPciCommandBusMaster));
  std::lock_guard<SpinLock> lock(irq_mu_);
  bound_ = false;
}

Result<SudDeviceContext*> SafePciModule::ExportDevice(hw::PciDevice* device, kern::Uid owner_uid,
                                                      SudDeviceContext::Options options) {
  if (contexts_.count(device) != 0) {
    return Status(ErrorCode::kAlreadyExists, device->name() + " already exported");
  }
  if (policy_.enable_acs) {
    for (const auto& sw : kernel_->machine().switches()) {
      sw->set_acs(hw::PcieSwitch::AcsConfig{/*source_validation=*/true,
                                            /*p2p_request_redirect=*/true});
    }
  }
  auto context = std::make_unique<SudDeviceContext>(kernel_, device, owner_uid, options);
  SudDeviceContext* ptr = context.get();
  ptr->module_ = this;
  contexts_[device] = std::move(context);
  SUD_LOG(kInfo) << "exported " << device->name() << " for uid " << owner_uid;
  return ptr;
}

Status SafePciModule::RevokeDevice(hw::PciDevice* device) {
  auto it = contexts_.find(device);
  if (it == contexts_.end()) {
    return Status(ErrorCode::kNotFound, "device not exported");
  }
  it->second->Teardown();
  contexts_.erase(it);
  return Status::Ok();
}

SudDeviceContext* SafePciModule::Find(hw::PciDevice* device) {
  auto it = contexts_.find(device);
  return it == contexts_.end() ? nullptr : it->second.get();
}

void SafePciModule::ReportForgedMsi(uint16_t attacker_source_id) {
  // A forger SUD does not export has no context: the victim's count is all.
  for (auto& [device, attacker] : contexts_) {
    if (attacker->source_id() == attacker_source_id) {
      std::lock_guard<SudDeviceContext::SpinLock> lock(attacker->irq_mu_);
      attacker->EscalateStorm();
    }
  }
}

}  // namespace sud
