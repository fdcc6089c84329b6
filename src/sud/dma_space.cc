#include "src/sud/dma_space.h"

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
  DmaRegion region{iova, paddr.value(), rounded, coherent};
  // Resolve the host window once: the steady-state HostView is then pure
  // pointer arithmetic off the cached base.
  Result<ByteSpan> window = dram_->Window(region.paddr, region.bytes);
  if (!window.ok()) {
    (void)iommu_->Unmap(source_id_, iova, rounded);
    dram_->FreePages(paddr.value(), rounded / hw::kPageSize);
    return window.status();
  }
  region.host_base = window.value().data();
  regions_[iova] = region;
  mru_region_.store(nullptr, std::memory_order_release);  // map may have rebalanced
  return region;
}

Result<uint64_t> DmaSpace::MapExternal(uint64_t paddr, uint64_t bytes) {
  if (bytes == 0 || !hw::IsPageAligned(paddr)) {
    return Status(ErrorCode::kInvalidArgument, "external dma grant not page aligned");
  }
  uint64_t rounded = hw::PageAlignUp(bytes);
  std::lock_guard<std::mutex> lock(iova_mu_);
  uint64_t iova = next_iova_;
  SUD_RETURN_IF_ERROR(iommu_->Map(source_id_, iova, paddr, rounded, /*readable=*/true,
                                  /*writable=*/false));
  next_iova_ += rounded;
  grants_[iova] = rounded;
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

Result<uint64_t> DmaSpace::IovaToPaddr(uint64_t iova) const {
  const DmaRegion* region = FindRegion(iova, 1);
  if (region == nullptr) {
    return Status(ErrorCode::kNotFound, "iova not in any dma region");
  }
  return region->paddr + (iova - region->iova);
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
}

uint64_t DmaSpace::total_bytes() const {
  uint64_t total = 0;
  for (const auto& [iova, region] : regions_) {
    total += region.bytes;
  }
  return total;
}

}  // namespace sud
