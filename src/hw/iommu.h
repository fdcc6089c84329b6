// Iommu: DMA remapping, IOTLB, fault reporting and interrupt remapping.
//
// Models the subset of Intel VT-d / AMD-Vi behaviour that SUD's confinement
// argument rests on (Sections 3.2.2 and 5.2 of the paper):
//
//  * per-requester-id IO page tables: a DMA from source S at IO-virtual
//    address V is translated through S's table; untranslated addresses fault
//    and the transaction is dropped (never reaches DRAM);
//  * an IOTLB with explicit invalidation — and the paper's observation that
//    invalidations are expensive, which motivates the guard-copy design in
//    Section 3.1.2 (see CpuCosts::iotlb_miss and the queued-invalidation
//    feature from Section 6). The IOTLB is a fixed-size direct-indexed
//    set-associative cache (like the hardware it models): Translate is
//    allocation-free in steady state. Whole-source invalidation scans the
//    cache (64 entries by default): it runs only when a context dies;
//  * the MSI address range: Intel VT-d keeps an *implicit identity mapping*
//    for 0xFEE00000-0xFEF00000 in every IO page table (the weakness Section
//    5.2 reports); AMD-Vi does not, so unmap-the-MSI-page works there;
//  * interrupt remapping: a table keyed by (source id, requested vector)
//    that can block or rewrite MSI vectors.
//
// Page tables here are explicit multi-level radix trees (4 KB pages, 9-bit
// fan-out) rather than a flat map, so WalkMappings really walks a directory
// the way bench/fig9_iommu_mappings and the paper's Figure 9 do.

#ifndef SUD_SRC_HW_IOMMU_H_
#define SUD_SRC_HW_IOMMU_H_

#include <array>
#include <cstdint>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/cpu_model.h"
#include "src/base/status.h"
#include "src/hw/phys_mem.h"

namespace sud::hw {

// The x86 MSI doorbell window.
inline constexpr uint64_t kMsiRangeBase = 0xFEE00000ull;
inline constexpr uint64_t kMsiRangeSize = 0x00100000ull;

inline bool InMsiRange(uint64_t addr) {
  return addr >= kMsiRangeBase && addr < kMsiRangeBase + kMsiRangeSize;
}

enum class IommuMode {
  kIntelVtd,  // implicit MSI identity mapping present in every context
  kAmdVi,     // MSI range translated like any other address
};

struct IommuFaultRecord {
  uint16_t source_id;
  uint64_t iova;
  bool is_write;
  std::string reason;
  SimTime when;
};

// Seal/unseal accounting: the page-revocation alternative to the guard copy
// (Section 3.1.2's tradeoff, quantified). `shootdowns` counts the IOTLB
// invalidations the permission transitions forced — the cost the paper cites
// as the reason it copied instead.
struct SealStats {
  uint64_t seals = 0;           // pages transitioned writable -> sealed
  uint64_t unseals = 0;         // pages transitioned sealed -> writable
  uint64_t shootdowns = 0;      // synchronous IOTLB invalidations those forced
  uint64_t blocked_writes = 0;  // device DMA writes rejected by a seal
};

// One contiguous, coalesced mapping range, as reported by WalkMappings.
struct IoMapping {
  uint64_t iova_start;
  uint64_t iova_end;  // exclusive
  uint64_t paddr_start;
  bool readable;
  bool writable;
  bool implicit_msi;  // Intel's built-in MSI identity window
};

class Iommu {
 public:
  struct IotlbStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;  // valid entries displaced by set conflicts
  };

  // IOTLB shape: `sets` x `ways` entries, direct-indexed by a hash of
  // (source id, iova page). Sweepable by the abl_iotlb_geometry bench;
  // `sets` is rounded up to a power of two.
  struct IotlbGeometry {
    uint32_t sets = 16;
    uint32_t ways = 4;
  };

  explicit Iommu(IommuMode mode = IommuMode::kIntelVtd, CpuModel* cpu = nullptr,
                 SimClock* clock = nullptr);

  IommuMode mode() const { return mode_; }

  // --- context (per-device IO address space) management
  Status CreateContext(uint16_t source_id);
  Status DestroyContext(uint16_t source_id);
  bool HasContext(uint16_t source_id) const;

  // --- mapping management (page-granular; iova/paddr/len page-aligned)
  Status Map(uint16_t source_id, uint64_t iova, uint64_t paddr, uint64_t len, bool readable,
             bool writable);
  Status Unmap(uint16_t source_id, uint64_t iova, uint64_t len);

  // --- write sealing (per-page permission downgrade on an EXISTING mapping).
  // SealWrite revokes device write permission for every page covering
  // [iova, iova+len) without unmap/remap churn: the PTE keeps its paddr and
  // base permissions, only the seal bit flips, and each transitioned page
  // pays a synchronous IOTLB shootdown (a cached writable entry would let a
  // racing DMA write land after the seal — the TOCTOU this exists to close).
  // UnsealWrite restores write permission; its invalidations may ride the
  // queued-invalidation batch when that feature is on, because a stale
  // *sealed* IOTLB entry fails safe (it can only over-block, never admit a
  // write). Both are idempotent per page and all-or-nothing per range: if any
  // covered page is unmapped, nothing changes and an error returns. `iova`
  // must be page-aligned; `len` is rounded up to whole pages.
  Status SealWrite(uint16_t source_id, uint64_t iova, uint64_t len);
  Status UnsealWrite(uint16_t source_id, uint64_t iova, uint64_t len);
  // True iff the page containing `iova` is present and write-sealed.
  bool IsWriteSealed(uint16_t source_id, uint64_t iova) const;
  const SealStats& seal_stats() const { return seal_stats_; }

  // --- the data path. Translates a [iova, iova+len) access; the access must
  // not cross an unmapped page. On failure a fault is logged and the
  // transaction must be dropped by the caller (the root complex).
  Result<uint64_t> Translate(uint16_t source_id, uint64_t iova, uint64_t len, bool is_write);

  // --- IOTLB
  // Whole-source invalidation: clears every cached entry for the source. A
  // scan of the cache, which DestroyContext alone runs outside tests, so no
  // per-source generation table (64K counters per machine) is worth keeping.
  void InvalidateIotlb(uint16_t source_id);
  const IotlbStats& iotlb_stats() const { return iotlb_stats_; }
  // Reshapes (and empties) the IOTLB; stats are preserved.
  void set_iotlb_geometry(IotlbGeometry geometry);
  const IotlbGeometry& iotlb_geometry() const { return iotlb_geometry_; }

  // Queued invalidation (VT-d optional feature, Section 6 "New hardware"):
  // batch page invalidations and apply them on Sync. When the feature is off
  // QueueInvalidate degrades to an immediate (expensive) invalidation.
  void set_queued_invalidation(bool enabled) { queued_invalidation_ = enabled; }
  bool queued_invalidation() const { return queued_invalidation_; }
  void QueueInvalidate(uint16_t source_id, uint64_t iova);
  void SyncInvalidations();

  // --- interrupt remapping
  void set_interrupt_remapping(bool enabled) { interrupt_remapping_ = enabled; }
  bool interrupt_remapping() const { return interrupt_remapping_; }
  // Program an entry: requested vector from `source_id` maps to
  // `mapped_vector`, or is blocked entirely when nullopt.
  Status SetInterruptRemapEntry(uint16_t source_id, uint8_t requested_vector,
                                std::optional<uint8_t> mapped_vector);
  // Remap a vector. When remapping is enabled, vectors with no entry are
  // blocked (VT-d semantics). When disabled, passes through.
  Result<uint8_t> RemapInterrupt(uint16_t source_id, uint8_t requested_vector);

  // Is a DMA write by `source_id` to the MSI range allowed to reach the MSI
  // controller? Intel: always (implicit identity mapping — cannot be removed,
  // the Section 5.2 weakness). AMD: only if the context maps the MSI page.
  bool AllowsMsiWrite(uint16_t source_id);

  // --- introspection
  // Walks `source_id`'s page directory and returns coalesced ranges, sorted
  // by IOVA, including the Intel implicit MSI window (Figure 9).
  std::vector<IoMapping> WalkMappings(uint16_t source_id) const;
  // Total mapped bytes in a context (excludes the implicit MSI window).
  uint64_t MappedBytes(uint16_t source_id) const;

  const std::vector<IommuFaultRecord>& faults() const { return faults_; }

 private:
  // Three-level radix tree, 9 bits per level: covers a 39-bit IO-virtual
  // space with 4 KB leaves, mirroring one VT-d second-level table.
  struct Pte {
    uint64_t paddr = 0;
    bool readable = false;
    bool writable = false;
    bool present = false;
    // Write seal: overrides `writable` for device DMA writes while the page
    // stays device-readable. Kept separate from `writable` so UnsealWrite
    // restores the original permission without the caller re-supplying it.
    bool sealed = false;
  };
  struct TableL1 {  // leaf level: 512 PTEs
    std::array<Pte, 512> ptes{};
  };
  struct TableL2 {
    std::array<std::unique_ptr<TableL1>, 512> entries{};
  };
  struct TableL3 {  // root
    std::array<std::unique_ptr<TableL2>, 512> entries{};
  };
  struct Context {
    std::unique_ptr<TableL3> root = std::make_unique<TableL3>();
    uint64_t mapped_pages = 0;
  };

  static void SplitIova(uint64_t iova, size_t* l3, size_t* l2, size_t* l1) {
    *l3 = (iova >> 30) & 0x1ff;
    *l2 = (iova >> 21) & 0x1ff;
    *l1 = (iova >> 12) & 0x1ff;
  }

  Pte* LookupPte(Context& ctx, uint64_t iova, bool create);
  const Pte* LookupPte(const Context& ctx, uint64_t iova) const;

  Status Fault(uint16_t source_id, uint64_t iova, bool is_write, std::string reason);

  // One IOTLB entry, live iff `valid`: every invalidation, of a page or of a
  // whole source, clears the flag in place.
  struct IotlbEntry {
    uint64_t page = 0;
    uint16_t source_id = 0;
    bool valid = false;
    Pte pte;
  };

  size_t IotlbSetBase(uint16_t source_id, uint64_t page) const;
  IotlbEntry* IotlbLookup(uint16_t source_id, uint64_t page);
  void IotlbInsert(uint16_t source_id, uint64_t page, const Pte& pte);
  void IotlbInvalidatePageNoCount(uint16_t source_id, uint64_t iova);
  void IotlbInvalidateSourceLocked(uint16_t source_id);  // counts one invalidation

  IommuMode mode_;
  CpuModel* cpu_;
  SimClock* clock_;
  // Serializes the data path (Translate: IOTLB probe/fill, fault log) and the
  // mutators against each other: with multi-queue NICs, descriptor and buffer
  // DMA translates concurrently from every queue's pump thread. A spinlock
  // rather than std::mutex: the critical section is a handful of array
  // probes (tens of nanoseconds), Translate runs several times per packet on
  // every DMA path, and the uncontended fast path must stay cheap enough
  // that the single-queue configuration pays almost nothing for it.
  class SpinLock {
   public:
    void lock() {
      while (flag_.test_and_set(std::memory_order_acquire)) {
      }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  };
  mutable SpinLock mu_;
  std::map<uint16_t, Context> contexts_;

  IotlbGeometry iotlb_geometry_{};
  std::vector<IotlbEntry> iotlb_;        // sets * ways, flat
  std::vector<uint8_t> iotlb_fill_rr_;   // per-set round-robin fill cursor
  IotlbStats iotlb_stats_;

  bool interrupt_remapping_ = false;
  std::map<std::pair<uint16_t, uint8_t>, std::optional<uint8_t>> irte_;

  bool queued_invalidation_ = false;
  std::vector<std::pair<uint16_t, uint64_t>> invalidation_queue_;

  SealStats seal_stats_;

  std::vector<IommuFaultRecord> faults_;
};

}  // namespace sud::hw

#endif  // SUD_SRC_HW_IOMMU_H_
