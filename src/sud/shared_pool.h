// SharedBufferPool: sud_alloc / sud_free (Figure 3).
//
// Pre-allocated, fixed-size message buffers living in DMA-capable shared
// memory: the kernel proxy, the user-space driver *and the device* all see
// the same bytes (the device through the IOMMU mapping installed by the
// DmaSpace the pool is carved from). This is what lets packet transmit
// upcalls and receive downcalls exchange buffer ids instead of copying
// (Section 3.1.2) — and also what makes the TOCTOU attack possible, since
// the driver can keep writing a buffer after handing it to the kernel.
//
// Buffer ids are epoch-tagged handles, not raw indices. A handle encodes
// the buffer index, a per-buffer allocation generation (bumped on every
// free, so a handle dies the moment its buffer is returned) and the pool
// epoch (the device-context bind generation). Each bind re-carves the pool
// under a new epoch, so every id the *previous* driver instance ever held —
// including ids it squirreled away to replay after the crash — fails
// validation. Rejected frees are tolerated and counted; the stale-epoch
// subset is counted separately so restart-time replay attacks are visible.
//
// Staged buffers and TX grants share one slot table over the whole index
// space: staged slots first, grant slots above them. One encoder, one
// validator (epoch ours, slot in use, generation current) and one retire
// path serve both kinds.

#ifndef SUD_SRC_SUD_SHARED_POOL_H_
#define SUD_SRC_SUD_SHARED_POOL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/base/status.h"
#include "src/sud/dma_space.h"

namespace sud {

class SharedBufferPool {
 public:
  // Handle layout (31 usable bits; bit 31 stays 0 so handles are positive):
  //   bits  0..11  buffer index            (pools up to 4096 buffers)
  //   bits 12..21  per-buffer generation   (1..1023, wraps, never 0)
  //   bits 22..30  pool epoch              (1..511, wraps, never 0)
  // Generation and epoch never being 0 means small raw integers — the ids a
  // pre-epoch driver believed in, or a guessing attacker's first tries —
  // are never valid handles.
  static constexpr int kIndexBits = 12;
  static constexpr int kGenBits = 10;
  static constexpr int kEpochBits = 9;
  static constexpr uint32_t kMaxBuffers = 1u << kIndexBits;

  // A pool of `count` buffers of `buffer_bytes`, carved from `dma` by Init.
  SharedBufferPool(DmaSpace* dma, uint32_t count = 512, uint32_t buffer_bytes = 2048);

  // Carves the buffers out of `dma` (one contiguous cacheable region) under
  // `epoch` (the bind generation), dropping every earlier handle, counter and
  // grant release hook (destroyed outside the lock, never run).
  Status Init(uint32_t epoch);

  // sud_alloc: returns a buffer handle, or kExhausted. Thread-safe: the proxy
  // allocates on the kernel's transmit path while per-queue driver threads
  // return buffers via free downcalls.
  Result<int32_t> Alloc();
  // sud_free: returns the buffer to the pool. Double frees, garbage ids and
  // stale handles (dead generation or dead epoch) are tolerated and counted
  // (a malicious driver shouldn't corrupt the free list).
  void Free(int32_t id);

  // TX grant: hands out a handle for a device-readable EXTERNAL range (a
  // sealed kernel frag page the DmaSpace mapped read-only) from the index
  // space above `count()`. A grant rides the same wire records, the same
  // epoch/generation validation and the same free downcall as a staged
  // buffer — the driver cannot tell the difference — but BufferIova resolves
  // to the granted IOVA instead of pool storage, so descriptors arm straight
  // from the sealed page with no staging copy. `len` must fit one staging
  // buffer (the driver-side per-fragment bound). `release` fires after the
  // grant's free is accepted, outside the pool lock.
  Result<int32_t> GrantExternal(uint64_t iova, uint32_t len, std::function<void()> release);
  // Grants currently outstanding (also included in outstanding()).
  uint32_t active_grants() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_grants_;
  }

  uint32_t buffer_bytes() const { return buffer_bytes_; }
  uint32_t count() const { return count_; }
  uint32_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }
  uint32_t free_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(free_list_.size());
  }
  // Buffers currently handed out, grants included (the in-flight TX staging
  // a crash strands: what Teardown quarantines).
  uint32_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return allocated_count_ + active_grants_;
  }
  // Every rejected free (double frees, garbage, stale handles).
  uint64_t double_frees() const {
    std::lock_guard<std::mutex> lock(mu_);
    return double_frees_;
  }
  // The subset of rejected frees whose handle named a dead pool epoch — a
  // replay from before a crash/restart.
  uint64_t stale_frees() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stale_frees_;
  }

  // Shared view of staged buffer `id` (both sides use this; the device
  // reaches the same bytes via BufferIova through the IOMMU). Validation
  // checks the full handle, so a stale id from a dead epoch, a freed buffer
  // or a never-allocated slot is refused everywhere an id can be presented.
  Result<ByteSpan> Buffer(int32_t id);
  // The device-visible address of buffer or grant `id`.
  Result<uint64_t> BufferIova(int32_t id) const;

 private:
  static constexpr uint32_t kGenMask = (1u << kGenBits) - 1;
  static constexpr uint32_t kEpochMask = (1u << kEpochBits) - 1;

  // One handle slot: index i < count_ is staged buffer i, any higher index a
  // grant slot. `gen` persists across reuse, so a retired handle stays dead.
  struct Slot {
    uint32_t gen = 1;  // 1..kGenMask
    bool in_use = false;
    uint64_t iova = 0;
    std::function<void()> release;  // grants only
  };

  // Marks slot `index` in use and returns its handle.
  int32_t IssueLocked(uint32_t index);
  // Returns the slot index of a live handle, or -1 if the handle is garbage,
  // stale or not in use. Sets `*stale_epoch` when the failure is
  // specifically a dead pool epoch.
  int32_t ValidateLocked(int32_t id, bool* stale_epoch = nullptr) const;

  DmaSpace* dma_;
  uint32_t count_;
  uint32_t buffer_bytes_;
  mutable std::mutex mu_;  // guards everything below
  uint32_t epoch_ = 1;
  uint8_t* host_base_ = nullptr;  // host view of the whole pool region
  bool initialized_ = false;
  std::vector<Slot> slots_;          // staged slots, then grant slots opened so far
  std::vector<uint32_t> free_list_;  // free staged slots
  std::vector<uint32_t> grant_free_;  // free grant slots
  uint32_t active_grants_ = 0;
  uint32_t allocated_count_ = 0;
  uint64_t double_frees_ = 0;
  uint64_t stale_frees_ = 0;
};

}  // namespace sud

#endif  // SUD_SRC_SUD_SHARED_POOL_H_
