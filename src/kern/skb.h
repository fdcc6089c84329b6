// Skb: the simulated kernel's socket buffer.
//
// Deliberately shaped like struct sk_buff where the paper's driver API needs
// it (Figure 2 uses skb->data / skb->data_len): owned byte storage plus the
// metadata the stack tracks per packet.
//
// Storage layout: frames up to kInlineCapacity (2 KB — every normal Ethernet
// frame) live in an inline buffer inside the Skb itself, so MakeSkb and the
// proxy's guard copy cost exactly one allocation (the Skb node) instead of
// two (node + vector backing store). Jumbo payloads spill to a heap vector.
//
// Transmit scatter/gather: a frame may also continue past the linear head in
// page-like fragments (the skb_shinfo frag array). The stack hands such
// frag skbs down unmodified; drivers that advertise NetDriverOps::sg receive
// them as per-fragment descriptor chains, and everyone else (ne2k) gets the
// Linearize() fallback — one extra full-frame copy, which is exactly the
// copy the SG path deletes.

#ifndef SUD_SRC_KERN_SKB_H_
#define SUD_SRC_KERN_SKB_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/kern/packet.h"

namespace sud::kern {

struct Skb {
  // Covers the 1518-byte Ethernet maximum with headroom; anything larger is
  // a jumbo frame and may pay the heap allocation.
  static constexpr size_t kInlineCapacity = 2048;

  // Set by the receive path once the checksum pass has run (the guard-copy
  // is fused with this pass, Section 3.1.2).
  bool checksum_verified = false;

  // Nodes come from a bounded per-thread free list of kCachedNodes (a 2 KB
  // node is past glibc's per-thread cache, so every packet would otherwise
  // take the allocator's locked path twice). A node freed on any thread
  // refills that thread's list, and a thread's list is released when it
  // exits. AddressSanitizer builds bypass the list, so a use after free is
  // still caught.
  static constexpr size_t kCachedNodes = 32;
  static void* operator new(size_t bytes);
  static void operator delete(void* node, size_t bytes);
  // Nodes the calling thread's free list holds.
  static size_t CachedNodes();

  // User-provided on purpose: std::make_unique<Skb>() value-initializes, and
  // a defaulted constructor would zero the 2 KB inline buffer per packet.
  Skb() {}
  explicit Skb(std::vector<uint8_t> bytes) : heap_(std::move(bytes)), len_(heap_.size()) {}
  explicit Skb(ConstByteSpan bytes) { Assign(bytes); }

  // Extern storage plus frag release hooks fire exactly once, at death: the
  // sealed-delivery unseal and TX grant releases ride them. Skbs travel as
  // SkbPtr; copying one would double-fire the hooks, so copies are deleted.
  Skb(const Skb&) = delete;
  Skb& operator=(const Skb&) = delete;
  ~Skb() {
    if (release_) {
      release_();
    }
  }

  // Zero-copy delivery (the sealed RX path): the skb references `len` bytes
  // the caller guarantees immutable for the skb's lifetime — the IOMMU seal
  // is that guarantee — and `release` runs at skb destruction (the unseal /
  // buffer-recycle point). No byte is copied.
  void AssignExtern(const uint8_t* bytes, size_t len, std::function<void()> release) {
    extern_data_ = bytes;
    len_ = len;
    release_ = std::move(release);
  }
  bool is_extern() const { return extern_data_ != nullptr; }

  void Assign(ConstByteSpan bytes) {
    extern_data_ = nullptr;
    len_ = bytes.size();
    if (len_ <= kInlineCapacity) {
      heap_.clear();
      if (len_ > 0) {
        std::memcpy(inline_.data(), bytes.data(), len_);
      }
    } else {
      heap_.assign(bytes.begin(), bytes.end());
    }
  }

  // Guard copy fused with checksum verification (Section 3.1.2, for real):
  // assigns `bytes` and validates the transport checksum over the private
  // copy in the same pass, setting checksum_verified accordingly. Returns
  // false for runts and checksum mismatches.
  bool AssignAndVerifyChecksum(ConstByteSpan bytes) {
    extern_data_ = nullptr;
    len_ = bytes.size();
    if (len_ <= kInlineCapacity) {
      heap_.clear();
      checksum_verified = CopyAndVerifyPacket(inline_.data(), bytes);
    } else {
      heap_.resize(len_);
      checksum_verified = CopyAndVerifyPacket(heap_.data(), bytes);
    }
    return checksum_verified;
  }

  // Frag-append for EOP-chained multi-descriptor frames: grows the frame by
  // one fragment, spilling from the inline buffer to the heap when the
  // running length crosses kInlineCapacity. `max_len` bounds the assembled
  // frame — an append that would exceed it copies NOTHING and returns false,
  // so a torn or endless chain can never grow an skb past the interface
  // maximum.
  bool AppendFrag(ConstByteSpan bytes, size_t max_len) {
    size_t new_len = len_ + bytes.size();
    if (new_len > max_len) {
      return false;
    }
    if (new_len <= kInlineCapacity && heap_.empty()) {
      std::memcpy(inline_.data() + len_, bytes.data(), bytes.size());
    } else {
      if (heap_.empty()) {
        // First spill: move what the inline buffer holds (possibly nothing)
        // to the heap, then append there — data() discriminates on
        // heap_.empty(), so the spill must happen even for a zero-length
        // prefix.
        heap_.reserve(max_len);
        heap_.assign(inline_.data(), inline_.data() + len_);
      }
      heap_.insert(heap_.end(), bytes.begin(), bytes.end());
    }
    len_ = new_len;
    return true;
  }

  // The chain counterpart of AssignAndVerifyChecksum: the guard copy already
  // happened fragment-by-fragment (AppendFrag), so this runs the checksum
  // pass over the assembled PRIVATE copy — same safe ordering, the verdict
  // can never be computed over bytes the driver still owns.
  bool VerifyChecksumPrivate() {
    PacketView packet = view();
    checksum_verified = packet.valid() && packet.ChecksumOk();
    return checksum_verified;
  }

  // --- transmit scatter/gather ----------------------------------------------
  // Payload continuing after the linear head in owned page-like fragments.
  // Receive skbs are always linear (the guard copy assembles one private
  // buffer); only the transmit path builds frag skbs.
  bool is_linear() const { return tx_frags_.empty(); }
  size_t nr_frags() const { return tx_frags_.size(); }
  ConstByteSpan tx_frag(size_t i) const { return tx_frags_[i].view; }
  // Nonzero iff fragment `i` is DRAM-backed (a sealed grant candidate): the
  // physical address of its first byte. Owned fragments report 0.
  uint64_t tx_frag_paddr(size_t i) const { return tx_frags_[i].paddr; }
  // Head bytes plus every fragment: the length the wire will carry.
  size_t total_len() const { return len_ + tx_frag_bytes_; }
  // Transmit descriptors the frame needs when the head and each fragment are
  // split into `chunk_bytes` pieces (a pool buffer, a bounce slot): the
  // map-or-linearize input of every transmit environment.
  size_t TxChunks(size_t chunk_bytes) const {
    size_t chunks = (len_ + chunk_bytes - 1) / chunk_bytes;
    for (const TxFrag& frag : tx_frags_) {
      chunks += (frag.view.size() + chunk_bytes - 1) / chunk_bytes;
    }
    return chunks;
  }
  void AppendTxFrag(ConstByteSpan bytes) {
    tx_frag_bytes_ += bytes.size();
    TxFrag frag;
    frag.owned.assign(bytes.begin(), bytes.end());
    frag.view = ConstByteSpan(frag.owned.data(), frag.owned.size());
    tx_frags_.push_back(std::move(frag));
  }
  // A fragment living in DRAM the skb does NOT own (page-cache model): the
  // transmit path can arm descriptors straight from it through a read-only
  // IOMMU grant instead of staging a copy. The backing pages must outlive the
  // skb; wire a reclaim into set_release if they need freeing.
  void AppendDramFrag(uint64_t paddr, ConstByteSpan bytes) {
    tx_frag_bytes_ += bytes.size();
    TxFrag frag;
    frag.view = bytes;
    frag.paddr = paddr;
    tx_frags_.push_back(std::move(frag));
  }
  // Death hook for skbs whose storage needs reclaiming (DRAM frag pages).
  void set_release(std::function<void()> release) { release_ = std::move(release); }

  // skb_linearize: folds the fragments into the contiguous head storage, the
  // fallback for drivers without SG. Bounded like AppendFrag: a frame that
  // cannot fit `max_len` copies nothing past the bound and returns false (the
  // caller drops it whole — transmit never truncates).
  bool Linearize(size_t max_len) {
    if (total_len() > max_len) {
      return false;
    }
    for (const TxFrag& frag : tx_frags_) {
      if (!AppendFrag(frag.view, max_len)) {
        return false;  // unreachable given the pre-check; defence in depth
      }
    }
    tx_frags_.clear();
    tx_frag_bytes_ = 0;
    return true;
  }

  // Extern storage is immutable by contract (the seal enforces it); the
  // const_cast below only serves callers that treat data() as a read handle —
  // the receive stack never mutates a delivered skb.
  uint8_t* data() {
    if (extern_data_ != nullptr) {
      return const_cast<uint8_t*>(extern_data_);
    }
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  const uint8_t* data() const {
    if (extern_data_ != nullptr) {
      return extern_data_;
    }
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  size_t data_len() const { return len_; }
  ConstByteSpan span() const { return ConstByteSpan(data(), len_); }
  ByteSpan mutable_span() { return ByteSpan(data(), len_); }
  PacketView view() const { return PacketView{span()}; }

 private:
  // One skb_shinfo fragment: either an owned buffer (`owned` non-empty,
  // `view` into it) or a DRAM-backed reference (`view` into the DRAM window,
  // `paddr` set, nothing owned).
  struct TxFrag {
    std::vector<uint8_t> owned;
    ConstByteSpan view;
    uint64_t paddr = 0;
  };

  std::array<uint8_t, kInlineCapacity> inline_;
  std::vector<uint8_t> heap_;  // jumbo overflow only
  const uint8_t* extern_data_ = nullptr;  // sealed zero-copy delivery
  size_t len_ = 0;
  std::vector<TxFrag> tx_frags_;
  size_t tx_frag_bytes_ = 0;
  std::function<void()> release_;  // fired once, at destruction
};

using SkbPtr = std::unique_ptr<Skb>;

inline SkbPtr MakeSkb(ConstByteSpan bytes) { return std::make_unique<Skb>(bytes); }

// Splits a prebuilt frame into the frag-skb shape the stack produces for
// large sends: `head_len` bytes in the linear head (always enough for every
// header the transmit path parses), the rest in `frag_len`-byte fragments.
inline SkbPtr MakeFragSkb(ConstByteSpan frame, size_t head_len, size_t frag_len) {
  if (head_len >= frame.size() || frag_len == 0) {
    return MakeSkb(frame);
  }
  auto skb = std::make_unique<Skb>(frame.subspan(0, head_len));
  for (size_t off = head_len; off < frame.size(); off += frag_len) {
    size_t chunk = frame.size() - off < frag_len ? frame.size() - off : frag_len;
    skb->AppendTxFrag(frame.subspan(off, chunk));
  }
  return skb;
}

}  // namespace sud::kern

#endif  // SUD_SRC_KERN_SKB_H_
