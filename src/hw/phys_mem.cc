#include "src/hw/phys_mem.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
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
  pages_ = size_ / kPageSize;
  used_words_.assign((pages_ + 63) / 64, 0);
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

uint64_t PhysicalMemory::FindPage(uint64_t page, bool used) const {
  uint64_t word = page / 64;
  if (word >= used_words_.size()) {
    return pages_;
  }
  // Set bits of `wanted` are the pages whose bit equals `used`.
  const uint64_t flip = used ? 0 : ~uint64_t{0};
  uint64_t wanted = (used_words_[word] ^ flip) & (~uint64_t{0} << (page % 64));
  while (wanted == 0) {
    if (++word == used_words_.size()) {
      return pages_;
    }
    wanted = used_words_[word] ^ flip;
  }
  return std::min<uint64_t>(word * 64 + std::countr_zero(wanted), pages_);
}

uint64_t PhysicalMemory::MarkPages(uint64_t first, uint64_t end, bool used) {
  uint64_t changed = 0;
  for (uint64_t page = first; page < end;) {
    uint64_t bit = page % 64;
    uint64_t count = std::min<uint64_t>(64 - bit, end - page);
    uint64_t mask = (~uint64_t{0} >> (64 - count)) << bit;
    uint64_t& word = used_words_[page / 64];
    changed += std::popcount(used ? mask & ~word : mask & word);
    word = used ? word | mask : word & ~mask;
    page += count;
  }
  return changed;
}

Result<uint64_t> PhysicalMemory::AllocPages(uint64_t num_pages) {
  if (num_pages == 0) {
    return Status(ErrorCode::kInvalidArgument, "zero-page allocation");
  }
  std::lock_guard<std::mutex> lock(page_mu_);
  free_hint_ = FindPage(free_hint_, /*used=*/false);
  // First fit: a free run ends at the next allocated page, and a run too
  // short is skipped whole, since any start inside it ends at the same page.
  for (uint64_t first = free_hint_; num_pages <= pages_ - first;) {
    uint64_t end = FindPage(first, /*used=*/true);
    if (end - first >= num_pages) {
      end = first + num_pages;
      MarkPages(first, end, /*used=*/true);
      allocated_pages_ += num_pages;
      if (first == free_hint_) {
        free_hint_ = end;
      }
      return first * kPageSize;
    }
    first = FindPage(end, /*used=*/false);
  }
  return Status(ErrorCode::kExhausted, "out of physical pages");
}

void PhysicalMemory::FreePages(uint64_t paddr, uint64_t num_pages) {
  std::lock_guard<std::mutex> lock(page_mu_);
  uint64_t first = paddr / kPageSize;
  // A count that wraps frees nothing: `end` then lies below `first`.
  uint64_t end = std::min(first + num_pages, pages_);
  if (first < end) {
    allocated_pages_ -= MarkPages(first, end, /*used=*/false);
    free_hint_ = std::min(free_hint_, first);
  }
}

}  // namespace sud::hw
