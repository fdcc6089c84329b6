#include "src/hw/phys_mem.h"

#include <atomic>
#include <cstring>

namespace sud::hw {

PhysicalMemory::PhysicalMemory(uint64_t size_bytes) {
  uint64_t rounded = PageAlignUp(size_bytes);
  bytes_.resize(rounded, 0);
  page_used_.resize(rounded / kPageSize, false);
}

Status PhysicalMemory::Read(uint64_t paddr, ByteSpan out) const {
  if (paddr + out.size() > bytes_.size() || paddr + out.size() < paddr) {
    return Status(ErrorCode::kInvalidArgument,
                  "physical read out of range at " + Hex(paddr));
  }
  std::memcpy(out.data(), bytes_.data() + paddr, out.size());
  return Status::Ok();
}

Status PhysicalMemory::Write(uint64_t paddr, ConstByteSpan data) {
  if (paddr + data.size() > bytes_.size() || paddr + data.size() < paddr) {
    return Status(ErrorCode::kInvalidArgument,
                  "physical write out of range at " + Hex(paddr));
  }
  if (data.size() == 1) {
    // Single-byte DMA writes publish with release semantics: devices use
    // them as the descriptor-done flag (DD written last, as real NICs do),
    // and a driver polling from another thread pairs it with an acquire
    // load of that byte.
    std::atomic_ref<uint8_t>(bytes_[paddr]).store(data[0], std::memory_order_release);
    return Status::Ok();
  }
  std::memcpy(bytes_.data() + paddr, data.data(), data.size());
  return Status::Ok();
}

uint32_t PhysicalMemory::Read32(uint64_t paddr) const {
  if (paddr + 4 > bytes_.size()) {
    return 0;
  }
  return LoadLe32(bytes_.data() + paddr);
}

uint64_t PhysicalMemory::Read64(uint64_t paddr) const {
  if (paddr + 8 > bytes_.size()) {
    return 0;
  }
  return LoadLe64(bytes_.data() + paddr);
}

void PhysicalMemory::Write32(uint64_t paddr, uint32_t value) {
  if (paddr + 4 <= bytes_.size()) {
    StoreLe32(bytes_.data() + paddr, value);
  }
}

void PhysicalMemory::Write64(uint64_t paddr, uint64_t value) {
  if (paddr + 8 <= bytes_.size()) {
    StoreLe64(bytes_.data() + paddr, value);
  }
}

Result<ByteSpan> PhysicalMemory::Window(uint64_t paddr, uint64_t len) {
  if (paddr + len > bytes_.size() || paddr + len < paddr) {
    return Status(ErrorCode::kInvalidArgument, "window out of range at " + Hex(paddr));
  }
  return ByteSpan(bytes_.data() + paddr, len);
}

Result<uint64_t> PhysicalMemory::AllocPages(uint64_t num_pages) {
  if (num_pages == 0) {
    return Status(ErrorCode::kInvalidArgument, "zero-page allocation");
  }
  std::lock_guard<std::mutex> lock(page_mu_);
  uint64_t run = 0;
  for (uint64_t i = 0; i < page_used_.size(); ++i) {
    run = page_used_[i] ? 0 : run + 1;
    if (run == num_pages) {
      uint64_t first = i + 1 - num_pages;
      for (uint64_t j = first; j <= i; ++j) {
        page_used_[j] = true;
      }
      allocated_pages_ += num_pages;
      return first * kPageSize;
    }
  }
  return Status(ErrorCode::kExhausted, "out of physical pages");
}

void PhysicalMemory::FreePages(uint64_t paddr, uint64_t num_pages) {
  std::lock_guard<std::mutex> lock(page_mu_);
  uint64_t first = paddr / kPageSize;
  for (uint64_t j = first; j < first + num_pages && j < page_used_.size(); ++j) {
    if (page_used_[j]) {
      page_used_[j] = false;
      --allocated_pages_;
    }
  }
}

}  // namespace sud::hw
