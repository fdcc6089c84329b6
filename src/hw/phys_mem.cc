#include "src/hw/phys_mem.h"

#include <sys/mman.h>

#include <atomic>
#include <cstring>
#include <new>

namespace sud::hw {

PhysicalMemory::PhysicalMemory(uint64_t size_bytes) : size_(PageAlignUp(size_bytes)) {
  if (size_ != 0) {
    // The host zero-fills each page when it is first touched, so an untouched
    // page costs neither time nor resident memory.
    void* mapped = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                        -1, 0);
    if (mapped == MAP_FAILED) {
      throw std::bad_alloc();
    }
    bytes_ = static_cast<uint8_t*>(mapped);
  }
  page_used_.resize(size_ / kPageSize, false);
}

PhysicalMemory::~PhysicalMemory() {
  if (bytes_ != nullptr) {
    munmap(bytes_, size_);
  }
}

Status PhysicalMemory::Read(uint64_t paddr, ByteSpan out) const {
  if (!InRange(paddr, out.size())) {
    return Status(ErrorCode::kInvalidArgument,
                  "physical read out of range at " + Hex(paddr));
  }
  std::memcpy(out.data(), bytes_ + paddr, out.size());
  return Status::Ok();
}

Status PhysicalMemory::Write(uint64_t paddr, ConstByteSpan data) {
  if (!InRange(paddr, data.size())) {
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
  std::memcpy(bytes_ + paddr, data.data(), data.size());
  return Status::Ok();
}

uint32_t PhysicalMemory::Read32(uint64_t paddr) const {
  return InRange(paddr, 4) ? LoadLe32(bytes_ + paddr) : 0;
}

uint64_t PhysicalMemory::Read64(uint64_t paddr) const {
  return InRange(paddr, 8) ? LoadLe64(bytes_ + paddr) : 0;
}

void PhysicalMemory::Write32(uint64_t paddr, uint32_t value) {
  if (InRange(paddr, 4)) {
    StoreLe32(bytes_ + paddr, value);
  }
}

void PhysicalMemory::Write64(uint64_t paddr, uint64_t value) {
  if (InRange(paddr, 8)) {
    StoreLe64(bytes_ + paddr, value);
  }
}

Result<ByteSpan> PhysicalMemory::Window(uint64_t paddr, uint64_t len) {
  if (!InRange(paddr, len)) {
    return Status(ErrorCode::kInvalidArgument, "window out of range at " + Hex(paddr));
  }
  return ByteSpan(bytes_ + paddr, len);
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
