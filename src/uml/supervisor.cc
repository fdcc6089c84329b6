#include "src/uml/supervisor.h"

#include <chrono>

#include "src/base/log.h"
#include "src/sud/proxy_ethernet.h"

namespace sud::uml {

namespace {
constexpr auto kWatchdogPeriod = std::chrono::milliseconds(5);
// Bound on Upgrade's per-queue drain before it cuts over anyway.
constexpr auto kDrainTimeout = std::chrono::milliseconds(1000);

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}
}  // namespace

DriverSupervisor::DriverSupervisor(kern::Kernel* kernel, DriverHost* host,
                                   DriverFactory factory, Options options)
    : kernel_(kernel), host_(host), factory_(std::move(factory)), options_(options) {}

DriverSupervisor::~DriverSupervisor() { StopWatchdog(); }

void DriverSupervisor::ShadowNetdev(const std::string& ifname) {
  std::lock_guard<std::mutex> lock(mu_);
  shadow_ifname_ = ifname;
}

void DriverSupervisor::AttachProxy(EthernetProxy* proxy) {
  std::lock_guard<std::mutex> lock(mu_);
  proxy_ = proxy;
  proxy_hung_baseline_ =
      proxy_ != nullptr ? proxy_->stats().hung_reports.load(std::memory_order_relaxed) : 0;
}

void DriverSupervisor::set_config_replay(ConfigReplayHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  config_replay_ = std::move(hook);
}

bool DriverSupervisor::CheckAndRecover() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckAndRecoverLocked();
}

bool DriverSupervisor::CheckAndRecoverLocked() {
  // Kill marks the process dead and clears running() under one lock.
  bool dead = !host_->running();
  // One new hung report since the last restart is enough.
  bool hung = proxy_ != nullptr &&
              proxy_->stats().hung_reports.load(std::memory_order_relaxed) > proxy_hung_baseline_;
  bool wedged = false;
  if (!dead && !hung) {
    // Only consult the watchdog when nothing cheaper fired: its strike
    // counters are per-check state, and a recovery resets them anyway.
    wedged = WatchdogSawWedgeLocked();
  }
  if (!dead && !hung && !wedged) {
    return false;
  }
  return RecoverLocked(dead ? Reason::kDead : hung ? Reason::kHung : Reason::kWedged);
}

bool DriverSupervisor::WatchdogSawWedgeLocked() {
  if (!host_->running()) {
    return false;
  }
  bool wedge = false;
  uint32_t queues = host_->ctx()->num_queues();
  for (uint16_t q = 0; q < queues && q < kSudMaxQueues; ++q) {
    uint64_t progress = host_->queue_progress(q);
    uint64_t pending = host_->ctx()->ctl(q).pending_upcalls();
    if (pending > 0 && progress == last_progress_[q]) {
      if (++strikes_[q] >= options_.watchdog_strikes) {
        SUD_LOG(kWarning) << "supervisor watchdog: queue " << q << " wedged ("
                          << pending << " pending upcalls, no progress past "
                          << progress << " for " << strikes_[q] << " checks)";
        wedge = true;
      }
    } else {
      strikes_[q] = 0;
    }
    last_progress_[q] = progress;
  }
  return wedge;
}

void DriverSupervisor::ResetWatchdogLocked() {
  last_progress_.fill(0);
  strikes_.fill(0);
}

bool DriverSupervisor::RecoverLocked(Reason reason) {
  if (gave_up_) {
    ++stats_.give_ups;
    return false;
  }
  if (stats_.restarts >= options_.max_restarts) {
    // Terminal: the budget is spent. Park the interface down/unregistered —
    // from here the paper's §4.1 administrator genuinely takes over.
    gave_up_ = true;
    ++stats_.give_ups;
    SUD_LOG(kWarning) << "supervisor: giving up after " << stats_.restarts
                      << " restarts; interface parked for the administrator";
    if (!shadow_ifname_.empty()) {
      (void)kernel_->net().BringDown(shadow_ifname_);
      if (proxy_ != nullptr) {
        // Only unregister when we can also detach the proxy's pointer.
        (void)kernel_->net().UnregisterNetdev(shadow_ifname_);
        proxy_->DetachNetdev();
      }
    }
    return false;
  }
  ++stats_.restarts;
  switch (reason) {
    case Reason::kDead:
      ++stats_.dead_recoveries;
      break;
    case Reason::kHung:
      ++stats_.hung_recoveries;
      break;
    case Reason::kWedged:
      ++stats_.watchdog_recoveries;
      break;
  }
  auto t0 = std::chrono::steady_clock::now();
  Status started = CutoverLocked(ShadowMtuLocked());
  if (!started.ok()) {
    SUD_LOG(kWarning) << "supervisor: replacement driver failed to start: "
                      << started.ToString();
    return false;  // the budget is consumed regardless
  }
  stats_.last_recovery_ns = ElapsedNs(t0);
  return true;
}

uint32_t DriverSupervisor::ShadowMtuLocked() {
  kern::NetDevice* dev =
      shadow_ifname_.empty() ? nullptr : kernel_->net().Find(shadow_ifname_);
  return dev != nullptr ? dev->mtu() : 0;
}

Status DriverSupervisor::CutoverLocked(uint32_t recorded_mtu) {
  // Kill BEFORE BringDown: a dead process can't be asked to stop, and a
  // wedged one must not be — once the shards are shut down, the BringDown
  // Stop upcall fails fast instead of eating the sync timeout.
  uint64_t quarantined_before = host_->ctx()->quarantined_buffers();
  if (host_->running()) {
    (void)host_->Kill();
  }
  stats_.buffers_quarantined += host_->ctx()->quarantined_buffers() - quarantined_before;
  if (!shadow_ifname_.empty()) {
    // The interface is administratively down while the driver is dead.
    (void)kernel_->net().BringDown(shadow_ifname_);
  }
  ResetWatchdogLocked();
  Status started = host_->Start(factory_(), host_->mode());
  if (proxy_ != nullptr) {
    proxy_hung_baseline_ = proxy_->stats().hung_reports.load(std::memory_order_relaxed);
  }
  SUD_RETURN_IF_ERROR(started);
  if (!shadow_ifname_.empty()) {
    (void)kernel_->net().BringUp(shadow_ifname_);
    kern::NetDevice* dev = kernel_->net().Find(shadow_ifname_);
    if (dev != nullptr && recorded_mtu != 0) {
      dev->set_mtu(recorded_mtu);
    }
  }
  if (config_replay_) {
    config_replay_(host_);
  }
  return Status::Ok();
}

Status DriverSupervisor::Upgrade(DriverFactory new_factory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gave_up_) {
    return Status(ErrorCode::kUnavailable, "supervisor gave up; no upgrades");
  }
  if (!host_->running()) {
    return Status(ErrorCode::kUnavailable, "driver not running; use CheckAndRecover");
  }
  auto t0 = std::chrono::steady_clock::now();
  auto deadline = t0 + kDrainTimeout;
  SudDeviceContext* ctx = host_->ctx();
  auto drained = [&]() {
    if (!host_->running()) {
      return true;  // killed meanwhile: nothing is left to drain
    }
    for (uint16_t q = 0; q < ctx->num_queues(); ++q) {
      if (ctx->ctl(q).pending_upcalls() > 0) {
        return false;
      }
    }
    return ctx->pool().outstanding() == 0;
  };
  // Per-queue drain: every pending upcall serviced and every TX staging
  // buffer reaped before cutover. Pump() drives a pumped host; per-queue
  // threads drain on their own.
  while (!drained() && std::chrono::steady_clock::now() < deadline) {
    host_->Pump();
    std::this_thread::yield();
  }
  if (!drained()) {
    SUD_LOG(kWarning) << "supervisor upgrade: drain timed out; in-flight work "
                         "will be quarantined with the old epoch";
  }

  uint32_t recorded_mtu = ShadowMtuLocked();
  if (!shadow_ifname_.empty()) {
    // Graceful, unlike recovery: the driver is alive, so the Stop upcall
    // completes and the stack stops transmitting before the cutover.
    (void)kernel_->net().BringDown(shadow_ifname_);
  }
  while (!drained() && std::chrono::steady_clock::now() < deadline) {
    host_->Pump();
    std::this_thread::yield();
  }

  factory_ = std::move(new_factory);
  SUD_RETURN_IF_ERROR(CutoverLocked(recorded_mtu));
  ++stats_.upgrades;
  SUD_LOG(kInfo) << "supervisor: hot upgrade complete in " << ElapsedNs(t0) << " ns";
  return Status::Ok();
}

void DriverSupervisor::StartWatchdog() {
  std::lock_guard<std::mutex> control(watchdog_control_mu_);
  if (watchdog_running_) {
    return;
  }
  watchdog_stop_.store(false, std::memory_order_relaxed);
  watchdog_ = std::thread([this]() {
    while (!watchdog_stop_.load(std::memory_order_relaxed)) {
      (void)CheckAndRecover();
      std::this_thread::sleep_for(kWatchdogPeriod);
    }
  });
  watchdog_running_ = true;
}

void DriverSupervisor::StopWatchdog() {
  std::lock_guard<std::mutex> control(watchdog_control_mu_);
  if (!watchdog_running_) {
    return;
  }
  watchdog_stop_.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
  watchdog_running_ = false;
}

uint32_t DriverSupervisor::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.restarts;
}

bool DriverSupervisor::gave_up() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gave_up_;
}

DriverSupervisor::Stats DriverSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sud::uml
