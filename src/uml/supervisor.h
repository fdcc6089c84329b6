// DriverSupervisor: shadow-driver-style automatic recovery (§2: "SUD's
// architecture could also use shadow drivers to gracefully restart untrusted
// device drivers", pointing at Swift et al.'s shadow drivers).
//
// The supervisor watches one DriverHost and performs the §4.1 administrator
// dance automatically. Detection is three-pronged:
//   * dead: the host stopped running or its process died (kill -9, crash);
//   * hung: the attached EthernetProxy's hung_reports counter advanced past
//     the threshold (the transmit ring stopped draining);
//   * wedged: the per-queue watchdog saw a shard with pending upcalls whose
//     UmlRuntime progress counter did not advance for `watchdog_strikes`
//     consecutive checks — a driver that is alive but silently stuck on one
//     queue, which no aggregate counter catches.
// Recovery is kill -9 FIRST (the dead process can't be asked anything, and a
// wedged one must not be — its teardown wedge would stall us; after Kill the
// uchan shards are shut down, so the BringDown Stop upcall fails fast
// instead of eating a sync timeout), then reap (SudDeviceContext::Teardown
// revokes the IOMMU context, releases the DMA space, quarantines in-flight
// pool buffers with the dying epoch), then a fresh driver instance from the
// factory, then shadow-config replay: interface up, recorded MTU, and an
// optional operator hook (e.g. re-programming a rebalanced RSS RETA).
//
// Upgrade() swaps the driver factory live: each queue is drained (pending
// upcalls serviced, TX staging returned) before cutover, so a hot upgrade
// under streaming load loses nothing that was in the kernel's hands.
//
// When the restart budget is exhausted the supervisor enters a terminal
// gave_up() state (counted, loggable, assertable) — the point where the
// paper's human administrator genuinely takes over.

#ifndef SUD_SRC_UML_SUPERVISOR_H_
#define SUD_SRC_UML_SUPERVISOR_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/uml/driver_host.h"

namespace sud {
class EthernetProxy;
}  // namespace sud

namespace sud::uml {

class DriverSupervisor {
 public:
  using DriverFactory = std::function<std::unique_ptr<Driver>()>;
  // Invoked after every successful restart/upgrade, once the interface is
  // back up: replays operator configuration the driver's own probe defaults
  // don't restore (the RETA rebalance case).
  using ConfigReplayHook = std::function<void(DriverHost*)>;

  struct Options {
    // Hung-driver reports from the proxy before the supervisor restarts.
    uint64_t hung_report_threshold = 1;
    uint32_t max_restarts = 8;
    // Consecutive no-progress checks on a queue with pending upcalls before
    // the watchdog declares the driver wedged.
    uint32_t watchdog_strikes = 3;
    // Watchdog thread period (StartWatchdog).
    uint64_t watchdog_period_ms = 5;
    // Bound on Upgrade's per-queue drain before it cuts over anyway.
    uint64_t drain_timeout_ms = 1000;
    // Mode replacement drivers start in (the bench restarts into
    // threaded-per-queue; tests default to pumped).
    DriverHost::Mode restart_mode = DriverHost::Mode::kPumped;
  };

  struct Stats {
    uint32_t restarts = 0;          // recovery attempts (budget consumed)
    uint32_t upgrades = 0;          // successful hot upgrades (not budgeted)
    uint64_t give_ups = 0;          // recoveries refused after exhaustion
    uint64_t dead_recoveries = 0;   // triggered by a dead process
    uint64_t hung_recoveries = 0;   // triggered by proxy hung reports
    uint64_t watchdog_recoveries = 0;  // triggered by a stalled queue
    uint64_t buffers_quarantined = 0;  // in-flight TX lost across all kills
    uint64_t last_recovery_ns = 0;  // wall clock, kill through config replay
  };

  DriverSupervisor(kern::Kernel* kernel, DriverHost* host, DriverFactory factory)
      : DriverSupervisor(kernel, host, std::move(factory), Options{}) {}
  DriverSupervisor(kern::Kernel* kernel, DriverHost* host, DriverFactory factory,
                   Options options);
  ~DriverSupervisor();

  DriverSupervisor(const DriverSupervisor&) = delete;
  DriverSupervisor& operator=(const DriverSupervisor&) = delete;

  // Records kernel-side configuration to replay after a restart (the shadow
  // state: which interface to bring up; its MTU is sampled at recovery time).
  void ShadowNetdev(const std::string& ifname);

  // Attaches the proxy so hung detection reads hung_reports directly and
  // restarts reset the proxy's per-instance state (rx bundles, strikes).
  void AttachProxy(EthernetProxy* proxy);

  // Operator-config replay after restarts (e.g. RETA reprogramming).
  void set_config_replay(ConfigReplayHook hook);

  // One supervision step: restart if the driver looks dead, hung or wedged.
  // Returns true if a recovery was performed.
  bool CheckAndRecover();

  // Live driver hot-upgrade: drain every queue (bounded), gracefully stop
  // the interface, kill + reap the old instance, start `new_factory`'s
  // driver, replay config. Future recoveries also use `new_factory`.
  Status Upgrade(DriverFactory new_factory);

  // Background watchdog: CheckAndRecover every watchdog_period_ms from a
  // dedicated thread until StopWatchdog (or destruction).
  void StartWatchdog();
  void StopWatchdog();

  uint32_t restarts() const;
  bool gave_up() const;
  Stats stats() const;

 private:
  bool CheckAndRecoverLocked();
  // The kill→reap→restart→replay path. `reason` feeds the stats breakdown.
  enum class Reason { kDead, kHung, kWedged };
  bool RecoverLocked(Reason reason);
  void ReplayShadowConfigLocked(uint32_t recorded_mtu);
  // Samples the per-queue watchdog counters; true when some queue has had
  // pending upcalls without progress for watchdog_strikes checks.
  bool WatchdogSawWedgeLocked();
  void ResetWatchdogLocked();

  kern::Kernel* kernel_;
  DriverHost* host_;
  DriverFactory factory_;
  Options options_;
  EthernetProxy* proxy_ = nullptr;
  ConfigReplayHook config_replay_;
  std::string shadow_ifname_;

  mutable std::mutex mu_;
  uint64_t proxy_hung_baseline_ = 0;  // proxy counter value at last restart
  std::array<uint64_t, kSudMaxQueues> last_progress_{};
  std::array<uint32_t, kSudMaxQueues> strikes_{};
  bool gave_up_ = false;
  Stats stats_;

  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  bool watchdog_running_ = false;  // guarded by watchdog_control_mu_
  std::mutex watchdog_control_mu_;
};

}  // namespace sud::uml

#endif  // SUD_SRC_UML_SUPERVISOR_H_
