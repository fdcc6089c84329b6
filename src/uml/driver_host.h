// DriverHost: lifecycle manager for one untrusted driver process
// (Section 4.1: start, kill -9, restart, setrlimit, sched_setscheduler).
//
// A host owns the simulated process (own UID), the UmlRuntime and the driver
// instance. Start binds the SUD device context to the process and runs the
// driver's probe; Kill models `kill -9` — the process dies mid-whatever and
// the kernel reclaims everything via SudDeviceContext::Teardown; Restart
// starts a fresh driver instance against a re-bound context, demonstrating
// that recovery needs nothing beyond process machinery.
//
// Execution modes:
//  * pumped (default): the driver's dispatch loop runs inline whenever the
//    kernel would block on it — deterministic, used by tests and benches;
//  * threaded-per-queue: one real std::thread per uchan shard (one for a
//    single-queue device), each pumping its own queue's ring pair, so the
//    packet path runs with no lock shared between queues. A pump drains its
//    ring without the kernel's lock, polls briefly when it is empty, then
//    parks in uchan WaitBatch; the modeled charges are the same either way.
// Neither mode services a comatose driver (Driver::comatose()): its process
// exists, but no pump runs it.

#ifndef SUD_SRC_UML_DRIVER_HOST_H_
#define SUD_SRC_UML_DRIVER_HOST_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/kern/kernel.h"
#include "src/sud/safe_pci.h"
#include "src/uml/uml_runtime.h"

namespace sud::uml {

class DriverHost {
 public:
  enum class Mode { kPumped, kThreadedPerQueue };

  DriverHost(kern::Kernel* kernel, SudDeviceContext* ctx, std::string name, kern::Uid uid);
  ~DriverHost();

  DriverHost(const DriverHost&) = delete;
  DriverHost& operator=(const DriverHost&) = delete;

  // Spawns the process, binds the device, probes the driver.
  // Start/Kill/Restart serialize on a lifecycle mutex: the supervisor's
  // watchdog thread and an administrator Kill may race, and exactly one
  // must win with the other seeing a consistent before-or-after state.
  Status Start(std::unique_ptr<Driver> driver, Mode mode = Mode::kPumped);

  // kill -9: stop the thread (if any), mark the process dead, tear down the
  // device context. The driver gets no chance to clean up — that is the point.
  Status Kill();

  // Restart with a fresh driver instance (usually the same type).
  Status Restart(std::unique_ptr<Driver> driver, Mode mode = Mode::kPumped);

  // Pumped mode: process pending upcalls now, under the lifecycle lock (a
  // sync upcall's inline pump runs this too). For a comatose driver, and in
  // threaded mode, this is a no-op — there the pump threads own the dispatch
  // loop, and draining shards from the caller's thread as well would race the
  // per-queue rx arrays that each pump thread touches without a lock.
  void Pump();

  bool running() const { return running_; }
  Mode mode() const { return mode_; }
  // Dispatch threads currently running (one per shard in per-queue mode,
  // otherwise 0).
  size_t thread_count() const { return threads_.size(); }
  kern::Process* process() { return process_; }
  UmlRuntime* runtime() { return runtime_.get(); }
  Driver* driver() { return driver_.get(); }
  // The device context (stable across restarts — owned by the SafePciModule).
  SudDeviceContext* ctx() { return ctx_; }

  // Queue `queue`'s dispatch progress, 0 when the host is not running. It
  // takes the lifecycle lock, so a supervisor thread can sample it while
  // another thread kills or restarts the host (which replaces runtime_).
  uint64_t queue_progress(uint16_t queue) const;

 private:
  void QueueThreadLoop(uint16_t queue);
  Status StartLocked(std::unique_ptr<Driver> driver, Mode mode);
  Status KillLocked();

  kern::Kernel* kernel_;
  SudDeviceContext* ctx_;
  std::string name_;
  kern::Uid uid_;
  kern::Process* process_ = nullptr;
  std::unique_ptr<UmlRuntime> runtime_;
  std::unique_ptr<Driver> driver_;
  std::vector<std::thread> threads_;  // one per shard (kThreadedPerQueue)
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<Mode> mode_{Mode::kPumped};  // a supervisor restarts into it
  // Serializes Start/Kill/Restart (supervisor recovery vs concurrent admin
  // kill) with pumped passes; never held while pump threads dispatch.
  mutable std::recursive_mutex lifecycle_mu_;
};

}  // namespace sud::uml

#endif  // SUD_SRC_UML_DRIVER_HOST_H_
