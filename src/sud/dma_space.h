// DmaSpace: the dma_coherent / dma_caching device files (Figure 6).
//
// Per managed device, SUD exposes two mmap-able files that allocate
// anonymous memory "mapped at the same virtual address in both the driver's
// page table and the device's IOMMU page table". DmaSpace models exactly
// that contract: Alloc returns a region whose IOVA doubles as the driver's
// virtual address; the backing pages come from DRAM; and the mapping is
// installed in the device's IO page table at allocation time.
//
// The IOVA arena starts at 0x42430000 — matching the paper's Figure 9 dump,
// so an e1000e driver that allocates its TX ring, RX ring, TX buffers and
// RX buffers in probe order reproduces the published layout bit-for-bit.
//
// ReleaseAll() is the reclamation path behind "kill -9 and restart"
// (Section 4.1): it unmaps every region, returns the pages and rewinds the
// arena, so the next driver instance gets the same IOVAs.
//
// TX grants (MapExternal) are device-only: a read-only IOMMU mapping of
// kernel pages at a fresh IOVA, kept outside the region map, so HostView —
// the driver's own mapping — never resolves them and the driver cannot
// write a granted page.
//
// Locking: the region map changes only at probe and teardown (Alloc, Free of
// a region, ReleaseAll), never against the datapath's lock-free HostView.
// Grants come and go on the datapath — minted on the transmit path, unmapped
// on whichever pump thread reaps the last chunk — so they live in their own
// map under iova_mu_, which also guards the IOVA cursor both kinds draw from.

#ifndef SUD_SRC_SUD_DMA_SPACE_H_
#define SUD_SRC_SUD_DMA_SPACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/hw/iommu.h"
#include "src/hw/phys_mem.h"

namespace sud {

inline constexpr uint64_t kDmaIovaBase = 0x42430000ull;

struct DmaRegion {
  uint64_t iova = 0;   // == the driver's virtual address for this memory
  uint64_t paddr = 0;
  uint64_t bytes = 0;
  bool coherent = false;
  // Host pointer to the region's backing DRAM window, resolved once at Alloc
  // so the per-packet HostView is pure pointer arithmetic.
  uint8_t* host_base = nullptr;
};

// One fragment of a frame in a DMA space (an EOP chain's per-descriptor
// chunk). Crossing the uchan it is driver data: re-validated, never trusted.
struct DmaFrag {
  uint64_t iova = 0;
  uint32_t len = 0;
};

class DmaSpace {
 public:
  DmaSpace(hw::PhysicalMemory* dram, hw::Iommu* iommu, uint16_t source_id)
      : dram_(dram), iommu_(iommu), source_id_(source_id) {}

  ~DmaSpace() { ReleaseAll(); }

  DmaSpace(const DmaSpace&) = delete;
  DmaSpace& operator=(const DmaSpace&) = delete;

  // Allocates `bytes` (page-rounded), maps them read+write for the device,
  // and returns the region. `coherent` distinguishes the two device files;
  // both behave identically in the model (the distinction is a cache
  // attribute on real hardware).
  Result<DmaRegion> Alloc(uint64_t bytes, bool coherent);

  // Maps the caller-owned DRAM pages under the (paddr, bytes) extents into
  // the device's IO page table READ-ONLY, in a fresh IOVA window laid out
  // like DRAM from the lowest extent's page (window pages no extent covers
  // stay unmapped), and returns the window's IOVA. This is the sealed TX
  // path: kernel frag pages become device-readable without a staging copy,
  // and read-only IS the seal — a driver-directed device write faults. The
  // pages are not owned: Free unmaps without returning them to DRAM.
  // Thread-safe against other grants and against HostView.
  Result<uint64_t> MapExternal(std::vector<std::pair<uint64_t, uint64_t>> extents);

  // Frees one region or grant by IOVA (must match an Alloc or MapExternal).
  Status Free(uint64_t iova);

  // The driver's view of a region's memory (host pointer into DRAM); grants
  // are not in it. Steady-state lookups hit a one-entry MRU region cache
  // (packet paths call this once or more per packet); only the first touch
  // of a region walks the region map. Lock-free and thread-safe against
  // concurrent lookups: multi-queue packet paths resolve views from one
  // thread per queue, and the region map itself only changes at
  // probe/teardown time (no concurrent Alloc/Free against lookups — same
  // contract as real dma_alloc_coherent vs the datapath).
  Result<ByteSpan> HostView(uint64_t iova, uint64_t len);

  // Tears down every mapping, returns all pages and rewinds the arena.
  void ReleaseAll();

  const std::map<uint64_t, DmaRegion>& regions() const { return regions_; }
  // The device's IOMMU: the proxy seals/unseals delivered RX pages through it.
  hw::Iommu* iommu() const { return iommu_; }

 private:
  const DmaRegion* FindRegion(uint64_t iova, uint64_t len) const;

  hw::PhysicalMemory* dram_;
  hw::Iommu* iommu_;
  uint16_t source_id_;
  std::map<uint64_t, DmaRegion> regions_;  // keyed by iova
  std::mutex iova_mu_;                     // guards next_iova_ and grants_
  uint64_t next_iova_ = kDmaIovaBase;
  std::map<uint64_t, uint64_t> grants_;    // grant iova -> mapped bytes
  // MRU cache of the last region FindRegion resolved (the region carries its
  // own host base); invalidated on Free/ReleaseAll. An atomic pointer rather
  // than a plain one: per-queue pump threads race on it, and a stale or torn
  // hint is harmless because every hit re-validates the range against the
  // (stable) region object.
  mutable std::atomic<const DmaRegion*> mru_region_{nullptr};
};

}  // namespace sud

#endif  // SUD_SRC_SUD_DMA_SPACE_H_
