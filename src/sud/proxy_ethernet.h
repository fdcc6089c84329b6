// EthernetProxy: the in-kernel Ethernet proxy driver (300 lines in Figure 5).
//
// Implements kern::NetDeviceOps on behalf of an untrusted user-space
// Ethernet driver, translating each kernel call into uchan messages
// (Section 3.1):
//
//   ndo_open/ndo_stop  -> synchronous upcalls (interruptable: ifconfig on a
//                         hung driver returns an error instead of blocking)
//   ndo_start_xmit     -> StartXmitBatch, the one transmit entry (a single
//                         send is a burst of one): one asynchronous
//                         kEthUpXmit upcall per frame, the whole burst in
//                         one crossing. Each carries its frame as a list of
//                         shared-pool buffers (zero-copy hand-off; the
//                         driver points its NIC at the same bytes): the head
//                         buffer in the message's fixed fields, further
//                         fragments as records. Frag skbs for an SG driver
//                         stage per-fragment into standard pool buffers — no
//                         linearize copy, no oversized staging buffer; for a
//                         non-SG driver the proxy linearizes first (the
//                         fallback copy the SG path deletes). DRAM-backed
//                         frags cross as read-only IOMMU grants instead of
//                         staged copies (sealed TX: see PrepareXmit)
//   ndo_do_ioctl       -> synchronous upcall (the MII status example)
//   netif_rx           <- one asynchronous kEthDownNetifRx downcall per
//                         frame, a list of (iova, len) fragments in the
//                         driver's DMA space laid out the same way; the proxy
//                         *guard-copies* the packet into an skb, fused with
//                         the checksum pass (Section 3.1.2), so a malicious
//                         driver rewriting the buffer after the firewall
//                         verdict attacks only its own copy
//   carrier on/off     <- mirror downcalls for the shared-memory link state
//                         (Section 3.3)
//
// Multi-queue: packet traffic rides the uchan shard of the queue it belongs
// to. StartXmitBatch(skbs, q) stages its burst into shard q (the kernel's
// flow steering in NetSubsystem::TransmitBatch already partitioned it);
// netif_rx downcalls arriving on shard q join queue q's rx bundle, which the
// shard's end-of-entry flush hands to the stack as one NAPI delivery. The
// queue a downcall belongs to comes from the shard it arrived on — never
// from driver-marshalled bytes — so a malicious driver cannot cross-talk
// queues or corrupt another queue's bundle. Per-queue state is only ever
// touched from its own shard's pump thread, and so are per-shard counters.
//
// Downcalls reach the proxy through SudDeviceContext, which schema-checks
// each one, serves interrupt_ack and request_region, and hands the rest over
// with its verdict.
//
// One option remains, for the sealed rows of fig8 and the sealed attack
// cells: sealed_delivery swaps the guard copy for an IOMMU write seal.
// Transmit is always a zero-copy hand-off and the guard copy always rides
// the checksum pass; a bounce copy or a separate guard pass would each cost
// CpuCosts::per_byte_copy per frame byte (bench/README.md). The guard copy
// itself is not optional: the check-then-copy ordering the TOCTOU attack
// exploits is not modeled.

#ifndef SUD_SRC_SUD_PROXY_ETHERNET_H_
#define SUD_SRC_SUD_PROXY_ETHERNET_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/kern/kernel.h"
#include "src/kern/netdev.h"
#include "src/sud/proto.h"
#include "src/sud/safe_pci.h"
#include "src/sud/wire_schema.h"

namespace sud {

class EthernetProxy : public kern::NetDeviceOps {
 public:
  struct Options {
    // Sealed zero-copy verified delivery (the revocation alternative the
    // paper priced out of reach, Section 3.1.2): on netif_rx the proxy
    // write-seals the buffer's pages in the IOMMU, verifies the transport
    // checksum IN PLACE over the sealed bytes, and hands the stack an skb
    // referencing the shared region — no guard copy. The pages unseal when
    // the skb dies. Only page-aligned deliveries (a page-isolated RX arena,
    // e.g. the single-queue 16 KB layout) qualify; everything else — and any
    // seal failure — degrades to the counted guard-copy fallback.
    bool sealed_delivery = false;
  };
  // Consecutive transmits that find the ring full or the pool empty before
  // the driver is reported hung; an accepted transmit restarts the count.
  static constexpr uint32_t kHungThreshold = 8;

  EthernetProxy(kern::Kernel* kernel, SudDeviceContext* ctx)
      : EthernetProxy(kernel, ctx, Options{}) {}
  EthernetProxy(kern::Kernel* kernel, SudDeviceContext* ctx, Options options);

  // kern::NetDeviceOps. Open, Stop and Ioctl are synchronous upcalls: each
  // returns the driver's answer as Uchan::SendSync delivers it.
  Status Open() override;
  Status Stop() override;
  // The transmit entry, for a burst or a single frame on TX queue `queue`:
  // stages every frame into shared-pool buffers (or grants), then enqueues
  // the xmit upcalls in ONE crossing of shard `queue` (one lock, at most one
  // driver wakeup, nothing shared with other queues). Frames the ring cannot
  // take are dropped, counted, and their buffers freed from the messages.
  size_t StartXmitBatch(std::span<kern::SkbPtr> skbs, uint16_t queue) override;
  Result<std::string> Ioctl(uint32_t cmd) override;

  kern::NetDevice* netdev() { return netdev_; }

  // Give-up hook: the supervisor unregistered the interface; drop the raw
  // pointer so nothing dereferences the dead netdev.
  void DetachNetdev() { netdev_ = nullptr; }

  struct Stats {
    std::atomic<uint64_t> xmit_upcalls{0};
    std::atomic<uint64_t> xmit_batches{0};      // transmit crossings (a single send is one)
    std::atomic<uint64_t> xmit_dropped{0};
    PerQueueCounter<kSudMaxQueues> rx_downcalls;
    PerQueueCounter<kSudMaxQueues> rx_bundles;  // NAPI deliveries into the stack
    // Malformed netif_rx deliveries (bad shape, a fragment outside the
    // driver's DMA space, a frame over the interface maximum), each rejected
    // before a byte is copied.
    std::atomic<uint64_t> rx_malformed{0};
    // netif_rx downcalls whose per-shard sequence number was not strictly
    // greater than the last one seen: a duplicated (replayed or
    // fault-injected) delivery, rejected before any guard copy. Neither a
    // loss nor a delivery in the conservation books.
    std::atomic<uint64_t> rx_dups_rejected{0};
    PerQueueCounter<kSudMaxQueues> free_batches;  // coalesced free-buffer messages
    std::atomic<uint64_t> hung_reports{0};
    PerQueueCounter<kSudMaxQueues> guard_copies;
    // Frames delivered by reference under an IOMMU write seal (no copy).
    std::atomic<uint64_t> sealed_deliveries{0};
    // Deliveries that wanted the sealed path but fell back to the guard copy
    // (unaligned buffer, injected or genuine seal failure): counted so a
    // "zero-copy" configuration silently copying is visible.
    std::atomic<uint64_t> sealed_fallback_copies{0};
    // Sealed pages whose skb outlived its driver instance: the epoch guard
    // kept crash-reap from unsealing into a dead (or successor) IO space.
    std::atomic<uint64_t> sealed_quarantined{0};
    // TX grant chunks minted (descriptors armed straight from kernel pages).
    std::atomic<uint64_t> tx_grants{0};
    // Frames whose DRAM frags crossed as grants instead of staging copies.
    std::atomic<uint64_t> tx_grant_frames{0};
    // Frames with DRAM frags that staged copies instead (mapping failure).
    std::atomic<uint64_t> tx_grant_fallbacks{0};
  };
  const Stats& stats() const { return stats_; }

  // Test seam modelling a perfectly-timed concurrent attacker: invoked (when
  // set) inside the sealed-delivery verdict window, between the seal and the
  // in-place checksum, where its rewrite hits the seal. Only the attack
  // matrix's verdict-window cell sets it: the guard copy needs no seam, since
  // a driver's rewrite after the verdict lands in its own buffer.
  using ToctouHook = std::function<void(ByteSpan shared_buffer)>;
  void set_toctou_hook(ToctouHook hook) { toctou_hook_ = std::move(hook); }

  // Test seam modelling a socket queue that retains delivered skbs: while
  // set, rx bundles park in a held list instead of entering the stack, so a
  // sealed delivery can stay alive across a driver crash. TakeHeldRx hands
  // the held skbs back (dropping the result releases/unseals them — outside
  // any proxy lock).
  void set_hold_rx_for_test(bool hold) { hold_rx_.store(hold, std::memory_order_relaxed); }
  std::vector<kern::SkbPtr> TakeHeldRx() {
    std::lock_guard<std::mutex> lock(hold_mu_);
    return std::exchange(held_rx_, {});
  }

 private:
  void HandleDowncall(UchanMsg& msg, uint16_t shard, wire::Malform verdict);
  // Head of every netif_rx delivery — dedup against the shard's seq
  // watermark, the downcall counter, the netdev-liveness check — run for
  // accepted AND structurally rejected deliveries alike. Returns false when
  // the message is already fully handled (dup or no netdev).
  bool RxDowncallProlog(UchanMsg& msg, uint16_t shard);
  // Counts and refuses a malformed netif_rx delivery (rx_malformed).
  void RejectNetifRx(UchanMsg& msg, const char* why);
  // netif_rx: re-validates the fragment list (addresses, interface total),
  // then delivers. A one-fragment frame is sealed or guard-copied with the
  // fused checksum; a longer one is guard-copied fragment by fragment into
  // ONE private skb.
  void HandleNetifRx(UchanMsg& msg, uint16_t shard);
  // The sealed zero-copy delivery attempt: write-seal the buffer's pages,
  // verify the checksum in place, hand the stack an extern skb whose death
  // unseals. Returns false (nothing delivered, nothing sealed) when the
  // delivery does not qualify or the seal fails — the caller falls back to
  // the guard copy.
  bool TrySealedDeliver(uint64_t iova, ByteSpan shared, uint16_t shard);
  // Extern-skb death hook: drops the seal ledger references for the skb's
  // pages and unseals the ones whose last reference this was — unless the
  // bind generation moved on (crash-reap quarantine: never unseal a dead
  // epoch's page into a successor's IO space).
  void ReleaseSealedPages(uint64_t base, uint64_t len, uint32_t epoch);
  // Tail of every rx delivery: charges the stack costs and joins the shard's
  // NAPI bundle. The stack drops (and counts) the runts and bad checksums.
  void FinishRxSkb(kern::SkbPtr skb, uint16_t shard);
  // Frees the ids a free-buffer batch's payload carries. A batch the context
  // refused on its shape is tolerated and counted, its ids salvaged.
  void HandleFreeBuffer(UchanMsg& msg, uint16_t shard, wire::Malform verdict);
  // Stages one skb for transmit and fills `msg` with its kEthUpXmit upcall:
  // a frame over the staging cap is refused first; the rest are chunked by
  // the pool buffer size into a fragment list bounded by kern::kMaxChainFrags
  // (one fragment for a linear frame that fits one buffer), behind the
  // linearize fallback (an extra charged full-frame copy) for frag skbs
  // headed at a non-SG driver or over the fragment cap. One chunk loop
  // serves both kinds of fragment: a chunk of a DRAM-backed frag becomes a
  // read-only grant, any other chunk a staged copy (same records; a grant
  // costs no memcpy). On failure the drop and hung-driver accounting has
  // already been applied and nothing stays allocated. Takes the skb by
  // owning pointer: a frame with grants moves it into its grant group (the
  // DRAM frag pages must outlive the device's reads); every other frame
  // leaves it with the caller.
  Status PrepareXmit(kern::SkbPtr& skb, UchanMsg* msg, uint16_t queue);
  // The driver-declared MTU clamped to what the TX staging pool can hold
  // (one buffer for single-buffer drivers, a bounded chain of them for SG).
  uint32_t DeclaredMtu(uint64_t declared, bool sg) const;
  void NoteXmitFull();
  // Delivers queue `shard`'s guard-copied rx bundle accumulated during the
  // current downcall kernel entry (the NAPI poll-end point).
  void DeliverRxBundle(uint16_t shard);

  kern::Kernel* kernel_;
  SudDeviceContext* ctx_;
  Options options_;
  kern::NetDevice* netdev_ = nullptr;
  // NETIF_F_SG as the driver declared it at register_netdev (kEthFeatureSg
  // in the marshalled feature bits): selects fragment staging vs linearize.
  std::atomic<bool> driver_sg_{false};
  std::atomic<uint32_t> consecutive_full_{0};
  Stats stats_;
  ToctouHook toctou_hook_;
  // One sealed RX page: how many live extern skbs reference it, and the bind
  // generation it was sealed under. Refcounted because a malicious driver
  // can deliver the same buffer twice (fresh seqs): the seal is idempotent
  // and the page must stay sealed until the LAST referencing skb dies.
  struct SealRef {
    uint32_t refs = 0;
    uint32_t epoch = 0;
  };
  // Guards the seal ledger. Skb release hooks run on the shard pump threads
  // (end-of-entry bundle delivery), the supervisor's restart path and test
  // teardown; the ledger is the one structure they all touch.
  std::mutex seal_mu_;
  std::map<uint64_t, SealRef> sealed_pages_;  // keyed by page address (iova)
  std::atomic<bool> hold_rx_{false};
  std::mutex hold_mu_;
  // NOTE: every member an extern skb's release hook touches (stats_, the
  // seal ledger, ctx_) is declared ABOVE the containers that may still hold
  // such skbs at destruction (held_rx_, rx_bundle_), so the hooks fire while
  // those members are alive.
  std::vector<kern::SkbPtr> held_rx_;
  // Guard-copied packets awaiting the end-of-entry NetifRxBatch delivery, one
  // per queue (touched only by its shard's pump, which trades it for a spare).
  std::array<std::vector<kern::SkbPtr>, kSudMaxQueues> rx_bundle_;
  // Highest downcall seq accepted per shard for netif_rx delivery: shard
  // seqs are assigned monotonically at enqueue, across rebinds, and the
  // channel preserves per-shard order, so any non-increasing seq is a
  // duplicate. Touched only from that shard's pump thread.
  std::array<uint64_t, kSudMaxQueues> last_rx_seq_{};
};

}  // namespace sud

#endif  // SUD_SRC_SUD_PROXY_ETHERNET_H_
