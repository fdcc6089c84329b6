// PhysicalMemory: the machine's DRAM.
//
// Every DMA that survives routing and IOMMU translation lands here, as does
// every CPU load/store the simulated kernel performs. Kernel data structures
// (the net stack's buffers, the firewall verdict cache, ...) live at known
// physical ranges, so an unconfined malicious DMA visibly corrupts them —
// which is exactly what the security tests check for.

#ifndef SUD_SRC_HW_PHYS_MEM_H_
#define SUD_SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"

namespace sud::hw {

constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kPageMask = kPageSize - 1;

inline uint64_t PageAlignDown(uint64_t addr) { return addr & ~kPageMask; }
inline uint64_t PageAlignUp(uint64_t addr) { return (addr + kPageMask) & ~kPageMask; }
inline bool IsPageAligned(uint64_t addr) { return (addr & kPageMask) == 0; }

class PhysicalMemory {
 public:
  explicit PhysicalMemory(uint64_t size_bytes);

  uint64_t size() const { return bytes_.size(); }

  Status Read(uint64_t paddr, ByteSpan out) const;
  Status Write(uint64_t paddr, ConstByteSpan data);

  // Direct typed accessors; bounds-checked, return 0 / no-op when out of
  // range (callers that care use Read/Write and check Status).
  uint32_t Read32(uint64_t paddr) const;
  uint64_t Read64(uint64_t paddr) const;
  void Write32(uint64_t paddr, uint32_t value);
  void Write64(uint64_t paddr, uint64_t value);

  // Raw pointer into DRAM for zero-copy paths (shared uchan buffers). The
  // span stays valid for the lifetime of the PhysicalMemory.
  Result<ByteSpan> Window(uint64_t paddr, uint64_t len);

  // A simple first-fit page allocator over DRAM for the harness: kernel
  // structures, DMA pools and uchan rings carve their backing store here.
  // Thread-safe: the transmit path allocates frag pages while a pump thread
  // reaping TX frees another frame's.
  Result<uint64_t> AllocPages(uint64_t num_pages);
  void FreePages(uint64_t paddr, uint64_t num_pages);
  uint64_t allocated_pages() const {
    std::lock_guard<std::mutex> lock(page_mu_);
    return allocated_pages_;
  }

 private:
  std::vector<uint8_t> bytes_;
  mutable std::mutex page_mu_;  // guards page_used_ and allocated_pages_
  std::vector<bool> page_used_;
  uint64_t allocated_pages_ = 0;
};

}  // namespace sud::hw

#endif  // SUD_SRC_HW_PHYS_MEM_H_
