#include "perfbench/src/trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<uint64_t> g_epochs{0};

// The calling thread's state in the tracer with epoch `epoch` (a thread may
// outlive one tracer and record into the next).
struct ThreadSlot {
  uint64_t epoch = 0;
  void* state = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kLoop: return "bench.loop";
    case SpanKind::kGen: return "bench.gen";
    case SpanKind::kDevicesRx: return "devices.rx";
    case SpanKind::kUmlPump: return "uml.pump";
    case SpanKind::kKernXmit: return "kern.xmit";
    case SpanKind::kPeerRx: return "peer.rx";
    case SpanKind::kSink: return "bench.sink";
    case SpanKind::kHandoffWait: return "uchan.handoff_wait";
    case SpanKind::kWait: return "bench.wait";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

Tracer::Tracer(size_t capacity) : epoch_(++g_epochs), records_(capacity) {}

Tracer::ThreadState& Tracer::Local() {
  if (t_slot.epoch != epoch_) {
    auto state = std::make_unique<ThreadState>();
    state->stack.reserve(16);
    std::lock_guard<std::mutex> lock(threads_mu_);
    state->id = static_cast<uint32_t>(threads_.size());
    t_slot = ThreadSlot{epoch_, state.get()};
    threads_.push_back(std::move(state));
  }
  return *static_cast<ThreadState*>(t_slot.state);
}

void Tracer::Begin(SpanKind kind, uint64_t request, int64_t start_ns) {
  ThreadState& local = Local();
  size_t slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
  int64_t stored = -1;
  if (slot < records_.size()) {
    stored = static_cast<int64_t>(slot);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  local.stack.push_back(Open{kind, start_ns, 0, stored, request});
}

void Tracer::End(int64_t end_ns) {
  ThreadState& local = Local();
  if (local.stack.empty()) {
    return;
  }
  Open open = local.stack.back();
  local.stack.pop_back();
  int64_t duration = end_ns - open.start_ns;
  SpanTotals& totals = local.totals[static_cast<size_t>(open.kind)];
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  ++totals.count;
  int64_t parent_slot = -1;
  if (!local.stack.empty()) {
    Open& parent = local.stack.back();
    parent.child_ns += duration;
    parent_slot = parent.slot;
    if (parent.kind == SpanKind::kLoop) {
      local.top_level_ns += duration;
    }
  }
  if (open.slot >= 0) {
    records_[static_cast<size_t>(open.slot)] =
        Record{open.start_ns, end_ns, parent_slot, open.request, local.id, open.kind};
  }
}

SpanTotals Tracer::Totals(SpanKind kind) const {
  std::lock_guard<std::mutex> lock(threads_mu_);
  SpanTotals sum;
  for (const auto& state : threads_) {
    const SpanTotals& t = state->totals[static_cast<size_t>(kind)];
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
    sum.count += t.count;
  }
  return sum;
}

int64_t Tracer::TopLevelNs() const {
  std::lock_guard<std::mutex> lock(threads_mu_);
  int64_t sum = 0;
  for (const auto& state : threads_) {
    sum += state->top_level_ns;
  }
  return sum;
}

size_t Tracer::stored() const {
  size_t next = next_slot_.load(std::memory_order_relaxed);
  return next < records_.size() ? next : records_.size();
}

uint64_t Tracer::dropped() const { return dropped_.load(std::memory_order_relaxed); }

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"fields\": [\"name\", \"thread\", \"request\", \"start_ns\", "
                    "\"end_ns\", \"parent\"],\n \"dropped\": %llu,\n \"spans\": [",
               static_cast<unsigned long long>(dropped()));
  size_t count = stored();
  for (size_t i = 0; i < count; ++i) {
    const Record& r = records_[i];
    std::fprintf(out, "%s\n  [\"%s\", %u, %llu, %lld, %lld, %lld]", i == 0 ? "" : ",",
                 SpanName(r.kind), r.thread, static_cast<unsigned long long>(r.request),
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.parent));
  }
  std::fprintf(out, "\n ]}\n");
  return std::fclose(out) == 0;
}

Tracer* ActiveTracer() { return g_active.load(std::memory_order_acquire); }

void SetActiveTracer(Tracer* tracer) { g_active.store(tracer, std::memory_order_release); }

}  // namespace perfbench
