#include "src/uml/driver_host.h"

#include "src/base/log.h"

namespace sud::uml {

namespace {
// How long a pump thread parks in uchan WaitBatch before it re-checks
// stop_requested_. Kill does not wait it out: shutting the shards down wakes
// every parked pump at once.
constexpr uint64_t kPumpParkTimeoutMs = 5;
}  // namespace

DriverHost::DriverHost(kern::Kernel* kernel, SudDeviceContext* ctx, std::string name,
                       kern::Uid uid)
    : kernel_(kernel), ctx_(ctx), name_(std::move(name)), uid_(uid) {}

DriverHost::~DriverHost() {
  std::lock_guard<std::recursive_mutex> lock(lifecycle_mu_);
  if (running_) {
    (void)KillLocked();
  }
}

Status DriverHost::Start(std::unique_ptr<Driver> driver, Mode mode) {
  std::lock_guard<std::recursive_mutex> lock(lifecycle_mu_);
  return StartLocked(std::move(driver), mode);
}

Status DriverHost::StartLocked(std::unique_ptr<Driver> driver, Mode mode) {
  if (running_) {
    return Status(ErrorCode::kAlreadyExists, name_ + " already running");
  }
  process_ = &kernel_->processes().Spawn(name_, uid_);
  if (Status bound = ctx_->Bind(process_); !bound.ok()) {
    (void)kernel_->processes().Kill(process_->pid());  // Bind undid its own setup
    return bound;
  }
  runtime_ = std::make_unique<UmlRuntime>(kernel_, ctx_, process_);
  driver_ = std::move(driver);
  mode_ = mode;
  running_ = true;

  if (mode == Mode::kPumped && !driver_->comatose()) {
    // Under the lifecycle lock, like any Pump: a sync upcall's inline pass
    // never runs the driver while another thread kills the host.
    ctx_->ctl().set_user_pump([this]() { Pump(); });
  }

  Status probed = driver_->Probe(*runtime_);
  if (!probed.ok()) {
    SUD_LOG(kWarning) << name_ << ": probe failed: " << probed.ToString();
    (void)KillLocked();
    return probed;
  }

  if (mode == Mode::kThreadedPerQueue && !driver_->comatose()) {
    stop_requested_ = false;
    for (uint16_t q = 0; q < ctx_->num_queues(); ++q) {
      threads_.emplace_back([this, q]() { QueueThreadLoop(q); });
    }
  }
  SUD_LOG(kInfo) << name_ << ": driver " << driver_->name() << " started (pid "
                 << process_->pid() << ")";
  return Status::Ok();
}

void DriverHost::QueueThreadLoop(uint16_t queue) {
  // One pump per uchan shard: this thread only ever touches queue-`queue`
  // state (its ring pair, its rx array, its descriptor rings), so the packet
  // path scales across queues without a shared lock.
  while (!stop_requested_) {
    (void)runtime_->RunOnceQueue(queue, kPumpParkTimeoutMs);
  }
}

Status DriverHost::Kill() {
  std::lock_guard<std::recursive_mutex> lock(lifecycle_mu_);
  return KillLocked();
}

Status DriverHost::KillLocked() {
  if (!running_) {
    return Status(ErrorCode::kUnavailable, name_ + " not running");
  }
  stop_requested_ = true;
  for (uint16_t q = 0; q < ctx_->num_queues(); ++q) {
    ctx_->ctl(q).Shutdown();  // unblocks threads stuck in WaitBatch
  }
  for (std::thread& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  threads_.clear();
  (void)kernel_->processes().Kill(process_->pid());
  ctx_->Teardown();  // the kernel reclaims every granted resource
  running_ = false;
  runtime_.reset();
  driver_.reset();
  SUD_LOG(kInfo) << name_ << ": killed and reclaimed";
  return Status::Ok();
}

Status DriverHost::Restart(std::unique_ptr<Driver> driver, Mode mode) {
  std::lock_guard<std::recursive_mutex> lock(lifecycle_mu_);
  if (running_) {
    SUD_RETURN_IF_ERROR(KillLocked());
  }
  return StartLocked(std::move(driver), mode);
}

uint64_t DriverHost::queue_progress(uint16_t queue) const {
  std::lock_guard<std::recursive_mutex> lock(lifecycle_mu_);
  if (!running_ || runtime_ == nullptr) {
    return 0;
  }
  return runtime_->queue_progress(queue);
}

void DriverHost::Pump() {
  // Comatose drivers never service their uchan (that is the point), and in
  // per-queue mode the pump threads own the dispatch loop — draining from
  // this thread too would race their per-queue rx arrays. The lifecycle lock
  // keeps runtime_ alive against a concurrent Kill; a pass that re-enters
  // through a ring-full retry pump takes it again on the same thread.
  std::lock_guard<std::recursive_mutex> lock(lifecycle_mu_);
  if (running_ && runtime_ != nullptr && mode_ == Mode::kPumped && !driver_->comatose()) {
    runtime_->ProcessPending();
  }
}

}  // namespace sud::uml
