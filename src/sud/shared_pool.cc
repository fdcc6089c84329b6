#include "src/sud/shared_pool.h"

#include "src/base/fault_injector.h"

namespace sud {

SharedBufferPool::SharedBufferPool(DmaSpace* dma, uint32_t count, uint32_t buffer_bytes)
    : dma_(dma), count_(count > kMaxBuffers ? kMaxBuffers : count), buffer_bytes_(buffer_bytes) {}

Status SharedBufferPool::Init(uint32_t epoch) {
  Result<DmaRegion> region =
      dma_->Alloc(static_cast<uint64_t>(count_) * buffer_bytes_, /*coherent=*/false);
  std::vector<std::function<void()>> dropped;  // old grant hooks, destroyed unrun, unlocked
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& slot : slots_) {
      if (slot.release) {
        dropped.push_back(std::move(slot.release));
      }
    }
    // Epoch 0 never exists, so zero-extended raw ints never match.
    epoch_ = (epoch & kEpochMask) == 0 ? 1 : epoch & kEpochMask;
    slots_.assign(count_, Slot{});  // grant slots join on demand
    free_list_.clear();
    grant_free_.clear();
    active_grants_ = allocated_count_ = 0;
    double_frees_ = stale_frees_ = 0;
    initialized_ = region.ok();
    host_base_ = initialized_ ? region.value().host_base : nullptr;
    // The free list hands out its lowest slot first.
    for (uint32_t index = count_; initialized_ && index-- > 0;) {
      slots_[index].iova = region.value().iova + static_cast<uint64_t>(index) * buffer_bytes_;
      free_list_.push_back(index);
    }
  }
  return region.status();
}

int32_t SharedBufferPool::IssueLocked(uint32_t index) {
  slots_[index].in_use = true;
  return static_cast<int32_t>(index | (slots_[index].gen << kIndexBits) |
                              (epoch_ << (kIndexBits + kGenBits)));
}

int32_t SharedBufferPool::ValidateLocked(int32_t id, bool* stale_epoch) const {
  if (stale_epoch != nullptr) {
    *stale_epoch = false;
  }
  if (id < 0 || !initialized_) {
    return -1;
  }
  uint32_t bits = static_cast<uint32_t>(id);
  uint32_t index = bits & (kMaxBuffers - 1);
  uint32_t gen = (bits >> kIndexBits) & kGenMask;
  uint32_t epoch = (bits >> (kIndexBits + kGenBits)) & kEpochMask;
  if (epoch != epoch_) {
    if (stale_epoch != nullptr) {
      *stale_epoch = epoch != 0;  // 0 is garbage, not a dead epoch
    }
    return -1;
  }
  if (index >= slots_.size() || !slots_[index].in_use || gen != slots_[index].gen) {
    return -1;
  }
  return static_cast<int32_t>(index);
}

Result<int32_t> SharedBufferPool::GrantExternal(uint64_t iova, uint32_t len,
                                                std::function<void()> release) {
  if (len == 0 || len > buffer_bytes_) {
    // The driver-side semantic check bounds every fragment by one staging
    // buffer; a grant that couldn't pass it would be armed nowhere.
    return Status(ErrorCode::kInvalidArgument, "grant length exceeds buffer size");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!initialized_) {
    return Status(ErrorCode::kUnavailable, "pool not initialized");
  }
  if (grant_free_.empty()) {
    if (slots_.size() >= kMaxBuffers) {
      return Status(ErrorCode::kExhausted, "grant slots exhausted");
    }
    grant_free_.push_back(static_cast<uint32_t>(slots_.size()));  // open the next grant slot
    slots_.emplace_back();
  }
  uint32_t index = grant_free_.back();
  grant_free_.pop_back();
  slots_[index].iova = iova;
  slots_[index].release = std::move(release);
  ++active_grants_;
  return IssueLocked(index);
}

Result<int32_t> SharedBufferPool::Alloc() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!initialized_) {
    return Status(ErrorCode::kUnavailable, "pool not initialized");
  }
  // Injected memory pressure: the pool reports exhaustion with buffers still
  // free. Callers must treat it exactly like a genuinely empty free list —
  // counted TX backpressure, never silent loss or partial staging.
  if (SUD_FAULT_POINT("sud.pool.alloc")) {
    return Status(ErrorCode::kExhausted, "shared buffer pool exhausted (injected)");
  }
  if (free_list_.empty()) {
    return Status(ErrorCode::kExhausted, "shared buffer pool exhausted");
  }
  uint32_t index = free_list_.back();
  free_list_.pop_back();
  ++allocated_count_;
  return IssueLocked(index);
}

void SharedBufferPool::Free(int32_t id) {
  std::function<void()> release;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool stale_epoch = false;
    int32_t index = ValidateLocked(id, &stale_epoch);
    if (index < 0) {
      ++double_frees_;
      if (stale_epoch) {
        ++stale_frees_;
      }
      return;
    }
    // Retire the handle: the generation moves on, so replaying this id —
    // even after the slot is reissued — is a counted rejection, not a free.
    Slot& slot = slots_[index];
    slot.in_use = false;
    slot.gen = slot.gen % kGenMask + 1;  // 1..kGenMask, never 0
    if (static_cast<uint32_t>(index) < count_) {
      free_list_.push_back(static_cast<uint32_t>(index));
      --allocated_count_;
    } else {
      // A grant's release hook fires outside the lock: it re-enters the
      // proxy (unmap, skb destruction).
      release = std::move(slot.release);
      slot.release = nullptr;
      grant_free_.push_back(static_cast<uint32_t>(index));
      --active_grants_;
    }
  }
  if (release) {
    release();
  }
}

Result<ByteSpan> SharedBufferPool::Buffer(int32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  int32_t index = ValidateLocked(id);
  if (index < 0 || static_cast<uint32_t>(index) >= count_) {
    // Grants have no pool-side storage to expose.
    return Status(ErrorCode::kInvalidArgument, "bad buffer id");
  }
  return ByteSpan(host_base_ + static_cast<uint64_t>(index) * buffer_bytes_, buffer_bytes_);
}

Result<uint64_t> SharedBufferPool::BufferIova(int32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  int32_t index = ValidateLocked(id);
  if (index < 0) {
    return Status(ErrorCode::kInvalidArgument, "bad buffer id");
  }
  return slots_[index].iova;
}

}  // namespace sud
