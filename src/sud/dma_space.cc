#include "src/sud/dma_space.h"

#include <algorithm>

namespace sud {

Result<DmaRegion> DmaSpace::Alloc(uint64_t bytes, bool coherent) {
  if (bytes == 0) {
    return Status(ErrorCode::kInvalidArgument, "zero-byte dma allocation");
  }
  uint64_t rounded = hw::PageAlignUp(bytes);
  Result<uint64_t> paddr = dram_->AllocPages(rounded / hw::kPageSize);
  if (!paddr.ok()) {
    return paddr.status();
  }
  std::unique_lock<std::mutex> lock(iova_mu_);
  uint64_t iova = next_iova_;
  Status mapped = iommu_->Map(source_id_, iova, paddr.value(), rounded, /*readable=*/true,
                              /*writable=*/true);
  if (!mapped.ok()) {
    dram_->FreePages(paddr.value(), rounded / hw::kPageSize);
    return mapped;
  }
  next_iova_ += rounded;
  lock.unlock();
  // Resolve the host window once (allocated pages always lie in DRAM): the
  // steady-state HostView is then pure pointer arithmetic off the cached base.
  DmaRegion region{iova, paddr.value(), rounded, coherent,
                   dram_->Window(paddr.value(), rounded).value().data()};
  regions_[iova] = region;
  mru_region_.store(nullptr, std::memory_order_release);  // map may have rebalanced
  return region;
}

Result<uint64_t> DmaSpace::MapExternal(std::vector<std::pair<uint64_t, uint64_t>> extents) {
  std::sort(extents.begin(), extents.end());
  const uint64_t lo = extents.empty() ? 0 : hw::PageAlignDown(extents.front().first);
  std::lock_guard<std::mutex> lock(iova_mu_);
  const uint64_t iova = next_iova_;
  uint64_t end = lo;  // every covered page below `end` is mapped
  Status mapped = Status::Ok();
  for (auto [paddr, bytes] : extents) {
    uint64_t first = std::max(hw::PageAlignDown(paddr), end);
    uint64_t last = hw::PageAlignUp(paddr + bytes);
    if (mapped.ok() && first < last) {
      mapped = iommu_->Map(source_id_, iova + (first - lo), first, last - first,
                           /*readable=*/true, /*writable=*/false);
      end = mapped.ok() ? last : end;
    }
  }
  if (mapped.ok() && end == lo) {
    mapped = Status(ErrorCode::kInvalidArgument, "external dma grant covers no page");
  }
  if (!mapped.ok()) {
    (void)iommu_->Unmap(source_id_, iova, end - lo);
    return mapped;
  }
  next_iova_ += end - lo;
  grants_[iova] = end - lo;
  return iova;
}

Status DmaSpace::Free(uint64_t iova) {
  {
    std::lock_guard<std::mutex> lock(iova_mu_);
    auto grant = grants_.find(iova);
    if (grant != grants_.end()) {
      // The pages belong to the caller: unmap only.
      (void)iommu_->Unmap(source_id_, iova, grant->second);
      grants_.erase(grant);
      return Status::Ok();
    }
  }
  auto it = regions_.find(iova);
  if (it == regions_.end()) {
    return Status(ErrorCode::kNotFound, "no dma region at iova");
  }
  const DmaRegion& region = it->second;
  (void)iommu_->Unmap(source_id_, region.iova, region.bytes);
  dram_->FreePages(region.paddr, region.bytes / hw::kPageSize);
  regions_.erase(it);
  mru_region_.store(nullptr, std::memory_order_release);
  return Status::Ok();
}

const DmaRegion* DmaSpace::FindRegion(uint64_t iova, uint64_t len) const {
  if (iova + len < iova) {
    return nullptr;  // length overflow can never land inside a region
  }
  const DmaRegion* hint = mru_region_.load(std::memory_order_acquire);
  if (hint != nullptr && iova >= hint->iova && iova + len <= hint->iova + hint->bytes) {
    return hint;
  }
  auto it = regions_.upper_bound(iova);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  const DmaRegion& region = it->second;
  if (iova < region.iova || iova + len > region.iova + region.bytes) {
    return nullptr;
  }
  mru_region_.store(&region, std::memory_order_release);
  return &region;
}

Result<ByteSpan> DmaSpace::HostView(uint64_t iova, uint64_t len) {
  const DmaRegion* region = FindRegion(iova, len);
  if (region == nullptr) {
    return Status(ErrorCode::kNotFound, "iova range not in any dma region");
  }
  return ByteSpan(region->host_base + (iova - region->iova), len);
}

void DmaSpace::ReleaseAll() {
  for (const auto& [iova, region] : regions_) {
    (void)iommu_->Unmap(source_id_, region.iova, region.bytes);
    dram_->FreePages(region.paddr, region.bytes / hw::kPageSize);
  }
  regions_.clear();
  mru_region_.store(nullptr, std::memory_order_release);
  std::lock_guard<std::mutex> lock(iova_mu_);
  for (const auto& [iova, bytes] : grants_) {
    (void)iommu_->Unmap(source_id_, iova, bytes);
  }
  grants_.clear();
  next_iova_ = kDmaIovaBase;
}

}  // namespace sud
