#include "src/hw/iommu.h"

#include <algorithm>
#include <bit>

#include "src/base/bytes.h"
#include "src/base/log.h"

namespace sud::hw {

namespace {

// The pages from `iova` to the end of its leaf table, at most `pages`: the
// slice of a range that one table walk reaches.
uint64_t LeafSlice(uint64_t iova, uint64_t pages) {
  return std::min<uint64_t>(pages, 512 - ((iova >> 12) & 0x1ff));
}

// Whether [iova, iova + len) lies in the table's 39-bit IO-virtual space.
// The table indexes bits 12-38 only, so an address past it would alias one
// inside; like VT-d, every entry point refuses it instead.
bool InIoSpace(uint64_t iova, uint64_t len) {
  constexpr uint64_t kIoSpace = uint64_t{1} << 39;
  return iova < kIoSpace && len <= kIoSpace - iova;
}

}  // namespace

Iommu::Iommu(IommuMode mode, CpuModel* cpu, SimClock* clock)
    : mode_(mode), cpu_(cpu), clock_(clock) {
  set_iotlb_geometry(IotlbGeometry{});
}

void Iommu::set_iotlb_geometry(IotlbGeometry geometry) {
  geometry.sets = std::bit_ceil(std::max<uint32_t>(geometry.sets, 1));
  geometry.ways = std::max<uint32_t>(geometry.ways, 1);
  iotlb_geometry_ = geometry;
  iotlb_.assign(static_cast<size_t>(geometry.sets) * geometry.ways, IotlbEntry{});
  iotlb_fill_rr_.assign(geometry.sets, 0);
}

size_t Iommu::IotlbSetBase(uint16_t source_id, uint64_t page) const {
  // Direct index: hash the page number with the source id so different
  // devices' working sets spread across the sets.
  uint64_t key = (page >> 12) ^ (static_cast<uint64_t>(source_id) * 0x9E3779B97F4A7C15ull);
  size_t set = static_cast<size_t>(key) & (iotlb_geometry_.sets - 1);
  return set * iotlb_geometry_.ways;
}

Iommu::IotlbEntry* Iommu::IotlbLookup(uint16_t source_id, uint64_t page) {
  size_t base = IotlbSetBase(source_id, page);
  for (size_t way = 0; way < iotlb_geometry_.ways; ++way) {
    IotlbEntry& entry = iotlb_[base + way];
    if (entry.valid && entry.source_id == source_id && entry.page == page) {
      return &entry;
    }
  }
  return nullptr;
}

void Iommu::IotlbInsert(uint16_t source_id, uint64_t page, const Pte& pte) {
  size_t base = IotlbSetBase(source_id, page);
  size_t victim = iotlb_geometry_.ways;  // sentinel: none free
  for (size_t way = 0; way < iotlb_geometry_.ways; ++way) {
    IotlbEntry& entry = iotlb_[base + way];
    if (!entry.valid) {
      victim = way;  // free slot: reuse without an eviction
      break;
    }
  }
  if (victim == iotlb_geometry_.ways) {
    size_t set = base / iotlb_geometry_.ways;
    victim = iotlb_fill_rr_[set] % iotlb_geometry_.ways;
    iotlb_fill_rr_[set] = static_cast<uint8_t>((victim + 1) % iotlb_geometry_.ways);
    iotlb_stats_.evictions++;
  }
  IotlbEntry& entry = iotlb_[base + victim];
  entry.page = page;
  entry.source_id = source_id;
  entry.valid = true;
  entry.pte = pte;
}

void Iommu::IotlbInvalidatePageNoCount(uint16_t source_id, uint64_t iova) {
  IotlbEntry* entry = IotlbLookup(source_id, PageAlignDown(iova));
  if (entry != nullptr) {
    entry->valid = false;
  }
}

Status Iommu::CreateContext(uint16_t source_id) {
  std::lock_guard<SpinLock> lock(mu_);
  if (contexts_.count(source_id) != 0) {
    return Status(ErrorCode::kAlreadyExists,
                  "iommu context for source " + Hex(source_id) + " exists");
  }
  contexts_.emplace(source_id, Context{});
  return Status::Ok();
}

Status Iommu::DestroyContext(uint16_t source_id) {
  std::lock_guard<SpinLock> lock(mu_);
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return Status(ErrorCode::kNotFound, "no iommu context for source " + Hex(source_id));
  }
  contexts_.erase(it);
  IotlbInvalidateSourceLocked(source_id);
  // Drop interrupt-remapping entries belonging to this source.
  for (auto ir = irte_.begin(); ir != irte_.end();) {
    if (ir->first.first == source_id) {
      ir = irte_.erase(ir);
    } else {
      ++ir;
    }
  }
  return Status::Ok();
}

bool Iommu::HasContext(uint16_t source_id) const {
  std::lock_guard<SpinLock> lock(mu_);
  return contexts_.count(source_id) != 0;
}

Iommu::Pte* Iommu::LookupPte(Context& ctx, uint64_t iova, bool create) {
  size_t l3, l2, l1;
  SplitIova(iova, &l3, &l2, &l1);
  auto& l2_table = ctx.root->entries[l3];
  if (!l2_table) {
    if (!create) {
      return nullptr;
    }
    l2_table = std::make_unique<TableL2>();
  }
  auto& l1_table = l2_table->entries[l2];
  if (!l1_table) {
    if (!create) {
      return nullptr;
    }
    l1_table = std::make_unique<TableL1>();
  }
  return &l1_table->ptes[l1];
}

const Iommu::Pte* Iommu::LookupPte(const Context& ctx, uint64_t iova) const {
  size_t l3, l2, l1;
  SplitIova(iova, &l3, &l2, &l1);
  const auto& l2_table = ctx.root->entries[l3];
  if (!l2_table) {
    return nullptr;
  }
  const auto& l1_table = l2_table->entries[l2];
  if (!l1_table) {
    return nullptr;
  }
  return &l1_table->ptes[l1];
}

Status Iommu::Map(uint16_t source_id, uint64_t iova, uint64_t paddr, uint64_t len, bool readable,
                  bool writable) {
  std::lock_guard<SpinLock> lock(mu_);
  if (!IsPageAligned(iova) || !IsPageAligned(paddr) || !IsPageAligned(len) || len == 0) {
    return Status(ErrorCode::kInvalidArgument, "iommu map not page aligned");
  }
  if (!InIoSpace(iova, len)) {
    return Status(ErrorCode::kInvalidArgument, "iova beyond 39-bit io-virtual space");
  }
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return Status(ErrorCode::kNotFound, "no iommu context for source " + Hex(source_id));
  }
  // One table walk per leaf table: LookupPte returns the slice's first PTE,
  // and the rest of the slice follows it in the same table. Reject overlap
  // with existing mappings first (all-or-nothing); a missing leaf table
  // overlaps nothing.
  const uint64_t pages = len / kPageSize;
  for (uint64_t page = 0, slice = 0; page < pages; page += slice) {
    uint64_t at = iova + page * kPageSize;
    slice = LeafSlice(at, pages - page);
    const Pte* ptes = LookupPte(it->second, at);
    for (uint64_t i = 0; ptes != nullptr && i < slice; ++i) {
      if (ptes[i].present) {
        return Status(ErrorCode::kAlreadyExists,
                      "iova " + Hex(at + i * kPageSize) + " already mapped");
      }
    }
  }
  for (uint64_t page = 0, slice = 0; page < pages; page += slice) {
    uint64_t at = iova + page * kPageSize;
    slice = LeafSlice(at, pages - page);
    Pte* ptes = LookupPte(it->second, at, /*create=*/true);
    for (uint64_t i = 0; i < slice; ++i) {
      // The whole entry: a page sealed before an Unmap comes back unsealed.
      ptes[i] = Pte{paddr + (page + i) * kPageSize, readable, writable, /*present=*/true,
                    /*sealed=*/false};
    }
  }
  it->second.mapped_pages += pages;
  return Status::Ok();
}

Status Iommu::Unmap(uint16_t source_id, uint64_t iova, uint64_t len) {
  std::lock_guard<SpinLock> lock(mu_);
  if (!IsPageAligned(iova) || !IsPageAligned(len) || len == 0) {
    return Status(ErrorCode::kInvalidArgument, "iommu unmap not page aligned");
  }
  if (!InIoSpace(iova, len)) {
    return Status(ErrorCode::kInvalidArgument, "iova beyond 39-bit io-virtual space");
  }
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return Status(ErrorCode::kNotFound, "no iommu context for source " + Hex(source_id));
  }
  // One table walk per leaf table, as in Map.
  const uint64_t pages = len / kPageSize;
  uint64_t unmapped = 0;
  for (uint64_t page = 0, slice = 0; page < pages; page += slice) {
    uint64_t at = iova + page * kPageSize;
    slice = LeafSlice(at, pages - page);
    Pte* ptes = LookupPte(it->second, at, /*create=*/false);
    for (uint64_t i = 0; ptes != nullptr && i < slice; ++i) {
      if (ptes[i].present) {
        ptes[i].present = false;
        ++unmapped;
      }
    }
  }
  it->second.mapped_pages -= unmapped;
  // The IOTLB caches only present pages, so dropping the source's entries
  // in the range is the per-page invalidation, done in one pass over the
  // cache; it still counts one invalidation per page unmapped.
  if (unmapped != 0) {
    for (IotlbEntry& entry : iotlb_) {
      if (entry.source_id == source_id && entry.page - iova < len) {
        entry.valid = false;
      }
    }
  }
  iotlb_stats_.invalidations += unmapped;
  return Status::Ok();
}

Status Iommu::SealWrite(uint16_t source_id, uint64_t iova, uint64_t len) {
  std::lock_guard<SpinLock> lock(mu_);
  if (!IsPageAligned(iova) || len == 0) {
    return Status(ErrorCode::kInvalidArgument, "iommu seal not page aligned");
  }
  if (!InIoSpace(iova, len)) {
    return Status(ErrorCode::kInvalidArgument, "iova beyond 39-bit io-virtual space");
  }
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return Status(ErrorCode::kNotFound, "no iommu context for source " + Hex(source_id));
  }
  uint64_t span = PageAlignUp(len);
  // All-or-nothing: every covered page must be mapped, or nothing changes.
  for (uint64_t off = 0; off < span; off += kPageSize) {
    const Pte* pte = LookupPte(it->second, iova + off);
    if (pte == nullptr || !pte->present) {
      return Status(ErrorCode::kInvalidArgument,
                    "seal range not fully mapped at " + Hex(iova + off));
    }
  }
  for (uint64_t off = 0; off < span; off += kPageSize) {
    Pte* pte = LookupPte(it->second, iova + off, /*create=*/false);
    if (pte->sealed) {
      continue;  // idempotent: an already-sealed page costs nothing
    }
    pte->sealed = true;
    seal_stats_.seals++;
    // Synchronous shootdown, always: a cached writable IOTLB entry would let
    // a racing device write land AFTER the seal — exactly the TOCTOU window
    // the seal exists to close — so seal-side invalidation never queues.
    IotlbInvalidatePageNoCount(source_id, iova + off);
    iotlb_stats_.invalidations++;
    seal_stats_.shootdowns++;
    if (cpu_ != nullptr) {
      cpu_->Charge(kAccountKernel, cpu_->costs().iommu_seal + cpu_->costs().iotlb_shootdown);
    }
  }
  return Status::Ok();
}

Status Iommu::UnsealWrite(uint16_t source_id, uint64_t iova, uint64_t len) {
  std::lock_guard<SpinLock> lock(mu_);
  if (!IsPageAligned(iova) || len == 0) {
    return Status(ErrorCode::kInvalidArgument, "iommu unseal not page aligned");
  }
  if (!InIoSpace(iova, len)) {
    return Status(ErrorCode::kInvalidArgument, "iova beyond 39-bit io-virtual space");
  }
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return Status(ErrorCode::kNotFound, "no iommu context for source " + Hex(source_id));
  }
  uint64_t span = PageAlignUp(len);
  for (uint64_t off = 0; off < span; off += kPageSize) {
    const Pte* pte = LookupPte(it->second, iova + off);
    if (pte == nullptr || !pte->present) {
      return Status(ErrorCode::kInvalidArgument,
                    "unseal range not fully mapped at " + Hex(iova + off));
    }
  }
  for (uint64_t off = 0; off < span; off += kPageSize) {
    Pte* pte = LookupPte(it->second, iova + off, /*create=*/false);
    if (!pte->sealed) {
      continue;
    }
    pte->sealed = false;
    seal_stats_.unseals++;
    if (cpu_ != nullptr) {
      cpu_->Charge(kAccountKernel, cpu_->costs().iommu_seal);
    }
    // A stale *sealed* IOTLB entry fails safe (it over-blocks, never admits a
    // write), so unseal-side invalidation may ride the queued batch — the
    // Section 6 "new hardware" amortization that makes revocation affordable.
    if (queued_invalidation_) {
      invalidation_queue_.emplace_back(source_id, PageAlignDown(iova + off));
    } else {
      IotlbInvalidatePageNoCount(source_id, iova + off);
      iotlb_stats_.invalidations++;
      seal_stats_.shootdowns++;
      if (cpu_ != nullptr) {
        cpu_->Charge(kAccountKernel, cpu_->costs().iotlb_shootdown);
      }
    }
  }
  return Status::Ok();
}

bool Iommu::IsWriteSealed(uint16_t source_id, uint64_t iova) const {
  std::lock_guard<SpinLock> lock(mu_);
  auto it = contexts_.find(source_id);
  if (it == contexts_.end() || !InIoSpace(iova, 1)) {
    return false;
  }
  const Pte* pte = LookupPte(it->second, PageAlignDown(iova));
  return pte != nullptr && pte->present && pte->sealed;
}

Result<uint64_t> Iommu::Translate(uint16_t source_id, uint64_t iova, uint64_t len, bool is_write) {
  std::lock_guard<SpinLock> lock(mu_);
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return Fault(source_id, iova, is_write, "no context (device not assigned)");
  }
  if (len == 0 || PageAlignDown(iova) != PageAlignDown(iova + len - 1)) {
    // Hardware splits page-crossing bursts; the root complex does the same
    // (see RootComplex), so a single Translate call never crosses a page.
    return Fault(source_id, iova, is_write, "access crosses page boundary");
  }
  if (!InIoSpace(iova, len)) {
    return Fault(source_id, iova, is_write, "iova beyond 39-bit io-virtual space");
  }

  uint64_t page = PageAlignDown(iova);
  Pte entry;
  if (IotlbEntry* cached = IotlbLookup(source_id, page); cached != nullptr) {
    iotlb_stats_.hits++;
    entry = cached->pte;
  } else {
    iotlb_stats_.misses++;
    if (cpu_ != nullptr) {
      cpu_->Charge(kAccountDevice, cpu_->costs().iotlb_miss);
    }
    const Pte* pte = LookupPte(it->second, iova);
    if (pte == nullptr || !pte->present) {
      return Fault(source_id, iova, is_write, "iova not mapped");
    }
    entry = *pte;
    IotlbInsert(source_id, page, entry);
  }

  if (is_write && entry.sealed) {
    seal_stats_.blocked_writes++;
    return Fault(source_id, iova, is_write, "write to sealed page");
  }
  if (is_write && !entry.writable) {
    return Fault(source_id, iova, is_write, "write to read-only mapping");
  }
  if (!is_write && !entry.readable) {
    return Fault(source_id, iova, is_write, "read from write-only mapping");
  }
  return entry.paddr + (iova & kPageMask);
}

Status Iommu::Fault(uint16_t source_id, uint64_t iova, bool is_write, std::string reason) {
  IommuFaultRecord record{source_id, iova, is_write,
                          reason, clock_ != nullptr ? clock_->now() : 0};
  faults_.push_back(record);
  SUD_LOG(kAttack) << "iommu fault: source " << Hex(source_id) << (is_write ? " write " : " read ")
                   << Hex(iova) << " (" << reason << ")";
  return Status(ErrorCode::kIommuFault,
                "source " + Hex(source_id) + " iova " + Hex(iova) + ": " + reason);
}

void Iommu::InvalidateIotlb(uint16_t source_id) {
  std::lock_guard<SpinLock> lock(mu_);
  IotlbInvalidateSourceLocked(source_id);
}

void Iommu::IotlbInvalidateSourceLocked(uint16_t source_id) {
  for (IotlbEntry& entry : iotlb_) {
    if (entry.source_id == source_id) {
      entry.valid = false;
    }
  }
  iotlb_stats_.invalidations++;
}

void Iommu::QueueInvalidate(uint16_t source_id, uint64_t iova) {
  std::lock_guard<SpinLock> lock(mu_);
  if (!queued_invalidation_) {
    IotlbInvalidatePageNoCount(source_id, iova);
    iotlb_stats_.invalidations++;
    return;
  }
  invalidation_queue_.emplace_back(source_id, PageAlignDown(iova));
}

void Iommu::SyncInvalidations() {
  std::lock_guard<SpinLock> lock(mu_);
  for (const auto& [source_id, iova] : invalidation_queue_) {
    IotlbInvalidatePageNoCount(source_id, iova);
  }
  if (!invalidation_queue_.empty()) {
    // A queued batch costs one synchronisation, not one per page — the
    // amortization that makes unseal-side revocation affordable; count it as
    // one shootdown in the seal accounting too.
    iotlb_stats_.invalidations++;
    seal_stats_.shootdowns++;
    if (cpu_ != nullptr) {
      cpu_->Charge(kAccountKernel, cpu_->costs().iotlb_shootdown);
    }
  }
  invalidation_queue_.clear();
}

Status Iommu::SetInterruptRemapEntry(uint16_t source_id, uint8_t requested_vector,
                                     std::optional<uint8_t> mapped_vector) {
  if (!interrupt_remapping_) {
    return Status(ErrorCode::kUnavailable, "interrupt remapping not supported/enabled");
  }
  std::lock_guard<SpinLock> lock(mu_);
  irte_[{source_id, requested_vector}] = mapped_vector;
  return Status::Ok();
}

Result<uint8_t> Iommu::RemapInterrupt(uint16_t source_id, uint8_t requested_vector) {
  if (!interrupt_remapping_) {
    return requested_vector;
  }
  std::lock_guard<SpinLock> lock(mu_);
  auto it = irte_.find({source_id, requested_vector});
  if (it == irte_.end() || !it->second.has_value()) {
    SUD_LOG(kAttack) << "interrupt remapping blocked vector " << int{requested_vector}
                     << " from source " << Hex(source_id);
    return Status(ErrorCode::kPermissionDenied, "interrupt remapping: vector blocked");
  }
  return *it->second;
}

bool Iommu::AllowsMsiWrite(uint16_t source_id) {
  if (mode_ == IommuMode::kIntelVtd) {
    // Implicit identity mapping for the MSI range in every context: always
    // reaches the MSI controller. (The Section 5.2 weakness.)
    return true;
  }
  // AMD-Vi: the MSI page translates like anything else.
  std::lock_guard<SpinLock> lock(mu_);
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return false;
  }
  const Pte* pte = LookupPte(it->second, kMsiRangeBase);
  return pte != nullptr && pte->present && pte->writable;
}

std::vector<IoMapping> Iommu::WalkMappings(uint16_t source_id) const {
  std::lock_guard<SpinLock> lock(mu_);
  std::vector<IoMapping> out;
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return out;
  }
  const Context& ctx = it->second;
  // Walk the directory levels in order; coalesce physically- and
  // virtually-contiguous runs with equal permissions.
  for (size_t l3 = 0; l3 < 512; ++l3) {
    const auto& l2_table = ctx.root->entries[l3];
    if (!l2_table) {
      continue;
    }
    for (size_t l2 = 0; l2 < 512; ++l2) {
      const auto& l1_table = l2_table->entries[l2];
      if (!l1_table) {
        continue;
      }
      for (size_t l1 = 0; l1 < 512; ++l1) {
        const Pte& pte = l1_table->ptes[l1];
        if (!pte.present) {
          continue;
        }
        uint64_t iova = (static_cast<uint64_t>(l3) << 30) | (static_cast<uint64_t>(l2) << 21) |
                        (static_cast<uint64_t>(l1) << 12);
        if (!out.empty()) {
          IoMapping& last = out.back();
          if (!last.implicit_msi && last.iova_end == iova &&
              last.paddr_start + (last.iova_end - last.iova_start) == pte.paddr &&
              last.readable == pte.readable && last.writable == pte.writable) {
            last.iova_end += kPageSize;
            continue;
          }
        }
        out.push_back(IoMapping{iova, iova + kPageSize, pte.paddr, pte.readable, pte.writable,
                                /*implicit_msi=*/false});
      }
    }
  }
  if (mode_ == IommuMode::kIntelVtd) {
    out.push_back(IoMapping{kMsiRangeBase, kMsiRangeBase + kMsiRangeSize, kMsiRangeBase,
                            /*readable=*/false, /*writable=*/true, /*implicit_msi=*/true});
  }
  std::sort(out.begin(), out.end(),
            [](const IoMapping& a, const IoMapping& b) { return a.iova_start < b.iova_start; });
  return out;
}

uint64_t Iommu::MappedBytes(uint16_t source_id) const {
  std::lock_guard<SpinLock> lock(mu_);
  auto it = contexts_.find(source_id);
  if (it == contexts_.end()) {
    return 0;
  }
  return it->second.mapped_pages * kPageSize;
}

}  // namespace sud::hw
