// PhysicalMemory: the machine's DRAM.
//
// Every DMA that survives routing and IOMMU translation lands here, as does
// every CPU load/store the simulated kernel performs. Kernel data structures
// (the net stack's buffers, the firewall verdict cache, ...) live at known
// physical ranges, so an unconfined malicious DMA visibly corrupts them —
// which is exactly what the security tests check for.
//
// The storage is an anonymous private mapping: the host commits a page on
// first touch, and a page never written reads as zero. Standing up a machine
// therefore costs only the pages its round touches, not the whole DRAM size.

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
  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint64_t size() const { return size_; }

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

  // A first-fit page allocator over DRAM: DMA regions, pools and kernel
  // structures carve their backing store here, and a bind allocates about
  // 4,100 pages for each e1000e instance. AllocPages returns the lowest run
  // of `num_pages` free pages. The map keeps one bit per page in 64-bit
  // words, plus a hint below which every page is allocated: a search starts
  // at the hint, skips full words, measures a free run a word at a time
  // (count trailing zeros), and a run is set or cleared whole words at a
  // time. FreePages ignores pages that are already free or past the end.
  // Thread-safe: the transmit path allocates frag pages while a pump thread
  // reaping TX frees another frame's.
  Result<uint64_t> AllocPages(uint64_t num_pages);
  void FreePages(uint64_t paddr, uint64_t num_pages);
  uint64_t allocated_pages() const {
    std::lock_guard<std::mutex> lock(page_mu_);
    return allocated_pages_;
  }

 private:
  // [paddr, paddr + len) lies inside DRAM; a sum that wraps never does.
  bool InRange(uint64_t paddr, uint64_t len) const {
    return len <= size_ && paddr <= size_ - len;
  }

  // The first page at or after `page` whose bit equals `used`, or pages_
  // when there is none. Callers hold page_mu_.
  uint64_t FindPage(uint64_t page, bool used) const;
  // Sets (or clears) the bits of pages [first, end) and returns how many of
  // them changed. Callers hold page_mu_.
  uint64_t MarkPages(uint64_t first, uint64_t end, bool used);

  uint64_t size_ = 0;
  uint8_t* bytes_ = nullptr;  // size_ bytes, mapped zero-filled
  uint64_t pages_ = 0;        // size_ / kPageSize
  // Guards used_words_, free_hint_ and allocated_pages_.
  mutable std::mutex page_mu_;
  // Bit (page % 64) of word (page / 64) is set while the page is allocated;
  // the last word's bits past pages_ stay clear, and FindPage clamps to
  // pages_, so no run reaches beyond DRAM.
  std::vector<uint64_t> used_words_;
  uint64_t free_hint_ = 0;  // every page below it is allocated
  uint64_t allocated_pages_ = 0;
};

}  // namespace sud::hw

#endif  // SUD_SRC_HW_PHYS_MEM_H_
