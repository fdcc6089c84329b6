// Device-model unit tests: the e1000e-class NIC's descriptor rings, the
// ne2k PIO NIC, the wifi NIC's command mailbox, the audio DMA ring, and the
// USB host controller's TRB engine — each driven "bare metal", with identity
// IOMMU mappings standing in for a trusted driver.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/devices/audio_dev.h"
#include "src/devices/ne2k_nic.h"
#include "src/devices/sim_nic.h"
#include "src/devices/usb_host.h"
#include "src/devices/wifi_nic.h"
#include "src/hw/machine.h"
#include "src/kern/net_limits.h"
#include "src/kern/packet.h"

namespace sud::devices {
namespace {

constexpr uint8_t kMac[6] = {0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};

// Harness granting a device identity-mapped DMA over low DRAM.
class BareMetal {
 public:
  explicit BareMetal(hw::PciDevice* device) {
    sw_ = &machine.AddSwitch("sw0");
    (void)machine.AttachDevice(*sw_, device);
    device->config().set_command(hw::kPciCommandMemEnable | hw::kPciCommandBusMaster);
    (void)machine.iommu().CreateContext(device->address().source_id());
    (void)machine.iommu().Map(device->address().source_id(), 0, 0, 1 << 20, true, true);
  }

  hw::Machine machine;

 private:
  hw::PcieSwitch* sw_;
};

void WriteDesc(hw::Machine& m, uint64_t ring, uint32_t index, uint64_t buffer, uint16_t len,
               uint8_t cmd, uint8_t status) {
  uint64_t addr = ring + index * 16ull;
  m.dram().Write64(addr, buffer);
  uint8_t tail[8] = {};
  StoreLe16(tail, len);
  tail[3] = cmd;
  tail[4] = status;
  (void)m.dram().Write(addr + 8, {tail, 8});
}

// A counting sink for the far end of the link.
struct FrameSink : EtherEndpoint {
  int frames = 0;
  size_t last_len = 0;
  void DeliverFrame(ConstByteSpan frame) override {
    ++frames;
    last_len = frame.size();
  }
};

uint8_t DescStatus(hw::Machine& m, uint64_t ring, uint32_t index) {
  uint8_t raw[16];
  (void)m.dram().Read(ring + index * 16ull, {raw, 16});
  return raw[12];
}

TEST(SimNicTest, ResetLoadsMacIntoReceiveAddress) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EXPECT_EQ(nic.MmioRead(0, kNicRegRal0), LoadLe32(kMac));
  EXPECT_EQ(nic.MmioRead(0, kNicRegRah0) & 0xffffu, LoadLe16(kMac + 4));
  EXPECT_NE(nic.MmioRead(0, kNicRegRah0) & kNicRahValid, 0u);
}

TEST(SimNicTest, TransmitRingMovesFramesToLink) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  FrameSink sink;
  link.Attach(1, &sink);

  constexpr uint64_t kRing = 0x1000, kBuf = 0x2000;
  std::vector<uint8_t> frame(100, 0x42);
  (void)hw.machine.dram().Write(kBuf, {frame.data(), frame.size()});
  WriteDesc(hw.machine, kRing, 0, kBuf, 100, kNicDescCmdEop, 0);

  nic.MmioWrite(0, kNicRegTdbal, kRing);
  nic.MmioWrite(0, kNicRegTdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegTdh, 0);
  nic.MmioWrite(0, kNicRegTctl, kNicTctlEnable);
  nic.MmioWrite(0, kNicRegTdt, 1);

  EXPECT_EQ(nic.stats().tx_frames, 1u);
  EXPECT_EQ(link.stats().frames[0], 1u);
  EXPECT_EQ(link.stats().bytes[0], 100u);
  // DD written back.
  EXPECT_NE(DescStatus(hw.machine, kRing, 0) & kNicDescStatusDone, 0);
  // Head caught up with tail.
  EXPECT_EQ(nic.MmioRead(0, kNicRegTdh), 1u);
}

TEST(SimNicTest, TransmitDisabledDoesNothing) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  nic.MmioWrite(0, kNicRegTdbal, 0x1000);
  nic.MmioWrite(0, kNicRegTdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegTdt, 1);  // TCTL.EN clear
  EXPECT_EQ(nic.stats().tx_frames, 0u);
}

TEST(SimNicTest, TransmitGathersEopChainsWholeFrame) {
  // TX scatter/gather at the device level: three descriptors, CMD.EOP only
  // on the last, must leave the NIC as ONE wire frame carrying the
  // concatenated fragments — DD written back on every descriptor, and only
  // once the whole frame was gathered.
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  struct Recorder : EtherEndpoint {
    std::vector<std::vector<uint8_t>> frames;
    void DeliverFrame(ConstByteSpan frame) override {
      frames.emplace_back(frame.begin(), frame.end());
    }
  } sink;
  link.Attach(1, &sink);

  constexpr uint64_t kRing = 0x1000;
  constexpr uint64_t kBuf = 0x2000;
  std::vector<uint8_t> frame(700 + 700 + 100);
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<uint8_t>(i * 3 + 1);
  }
  (void)hw.machine.dram().Write(kBuf, {frame.data(), frame.size()});
  WriteDesc(hw.machine, kRing, 0, kBuf, 700, 0, 0);
  WriteDesc(hw.machine, kRing, 1, kBuf + 700, 700, 0, 0);
  WriteDesc(hw.machine, kRing, 2, kBuf + 1400, 100, kNicDescCmdEop, 0);

  nic.MmioWrite(0, kNicRegTdbal, kRing);
  nic.MmioWrite(0, kNicRegTdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegTdh, 0);
  nic.MmioWrite(0, kNicRegTctl, kNicTctlEnable);

  // Partial doorbell: two no-EOP fragments park — nothing on the wire, no
  // completion for the open chain, no drop.
  nic.MmioWrite(0, kNicRegTdt, 2);
  EXPECT_EQ(sink.frames.size(), 0u);
  EXPECT_EQ(nic.stats().tx_frames, 0u);
  EXPECT_EQ(nic.stats().tx_dropped_chain, 0u);

  // The EOP completes the frame: one gather, one wire frame, DD everywhere.
  nic.MmioWrite(0, kNicRegTdt, 3);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0], frame);
  EXPECT_EQ(nic.stats().tx_frames, 1u);
  EXPECT_EQ(nic.stats().tx_chain_frames, 1u);
  EXPECT_EQ(nic.stats().tx_chain_descs, 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_NE(DescStatus(hw.machine, kRing, i) & kNicDescStatusDone, 0) << "desc " << i;
  }
  EXPECT_EQ(nic.MmioRead(0, kNicRegTdh), 3u);
}

TEST(SimNicTest, TransmitReenteredDuringTheLinkHopSendsEveryFrameIntact) {
  // The far end rings the doorbell again from inside DeliverFrame, as an
  // in-kernel driver answering on the delivering thread does: the nested
  // reap gathers and sends a two-fragment frame while the outer frame's
  // buffer is still on the wire, and a later frame reuses what came back.
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  struct Answerer : EtherEndpoint {
    SimNic* nic = nullptr;
    std::vector<std::vector<uint8_t>> frames;
    void DeliverFrame(ConstByteSpan frame) override {
      frames.emplace_back(frame.begin(), frame.end());
      if (frames.size() == 1) {
        nic->MmioWrite(0, kNicRegTdt, 3);
      }
    }
  } sink;
  sink.nic = &nic;
  link.Attach(1, &sink);

  constexpr uint64_t kRing = 0x1000;
  constexpr uint64_t kBuf = 0x2000;
  std::vector<std::vector<uint8_t>> sent;
  for (size_t len : {300, 900, 200}) {
    std::vector<uint8_t> frame(len);
    for (size_t i = 0; i < len; ++i) {
      frame[i] = static_cast<uint8_t>(i * 7 + sent.size() + 1);
    }
    sent.push_back(std::move(frame));
  }
  (void)hw.machine.dram().Write(kBuf, {sent[0].data(), sent[0].size()});
  (void)hw.machine.dram().Write(kBuf + 0x1000, {sent[1].data(), sent[1].size()});
  (void)hw.machine.dram().Write(kBuf + 0x2000, {sent[2].data(), sent[2].size()});
  WriteDesc(hw.machine, kRing, 0, kBuf, 300, kNicDescCmdEop, 0);
  WriteDesc(hw.machine, kRing, 1, kBuf + 0x1000, 500, 0, 0);
  WriteDesc(hw.machine, kRing, 2, kBuf + 0x1000 + 500, 400, kNicDescCmdEop, 0);
  WriteDesc(hw.machine, kRing, 3, kBuf + 0x2000, 200, kNicDescCmdEop, 0);

  nic.MmioWrite(0, kNicRegTdbal, kRing);
  nic.MmioWrite(0, kNicRegTdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegTdh, 0);
  nic.MmioWrite(0, kNicRegTctl, kNicTctlEnable);
  nic.MmioWrite(0, kNicRegTdt, 1);
  ASSERT_EQ(sink.frames.size(), 2u);
  nic.MmioWrite(0, kNicRegTdt, 4);

  EXPECT_EQ(sink.frames, sent);
  EXPECT_EQ(nic.stats().tx_frames, 3u);
  EXPECT_EQ(nic.MmioRead(0, kNicRegTdh), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_NE(DescStatus(hw.machine, kRing, i) & kNicDescStatusDone, 0) << "desc " << i;
  }
}

TEST(SimNicTest, ReceiveWritesFrameAndRaisesInterrupt) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  nic.config().set_msi_address(hw::kMsiRangeBase);
  nic.config().set_msi_data(44);
  nic.config().set_msi_enabled(true);
  int interrupts = 0;
  hw.machine.msi().set_handler([&](uint8_t v, uint16_t) { interrupts += (v == 44); });

  constexpr uint64_t kRing = 0x1000, kBuf = 0x3000;
  WriteDesc(hw.machine, kRing, 0, kBuf, 0, 0, 0);
  WriteDesc(hw.machine, kRing, 1, kBuf + 0x800, 0, 0, 0);
  nic.MmioWrite(0, kNicRegRdbal, kRing);
  nic.MmioWrite(0, kNicRegRdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegRdh, 0);
  nic.MmioWrite(0, kNicRegRdt, 1);
  nic.MmioWrite(0, kNicRegIms, kNicIntRx);
  nic.MmioWrite(0, kNicRegRctl, kNicRctlEnable);

  std::vector<uint8_t> frame(80, 0x55);
  nic.DeliverFrame({frame.data(), frame.size()});

  EXPECT_EQ(nic.stats().rx_frames, 1u);
  EXPECT_EQ(interrupts, 1);
  uint8_t got[80];
  (void)hw.machine.dram().Read(kBuf, {got, 80});
  EXPECT_EQ(memcmp(got, frame.data(), 80), 0);
  EXPECT_NE(DescStatus(hw.machine, kRing, 0) & kNicDescStatusDone, 0);
  // ICR read-clears.
  EXPECT_NE(nic.MmioRead(0, kNicRegIcr) & kNicIntRx, 0u);
  EXPECT_EQ(nic.MmioRead(0, kNicRegIcr), 0u);
}

TEST(SimNicTest, RxBacklogDrainsWhenDescriptorsArmed) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  std::vector<uint8_t> frame(64, 0x1);
  // No ring yet: frames back up in the device FIFO.
  nic.DeliverFrame({frame.data(), frame.size()});
  nic.DeliverFrame({frame.data(), frame.size()});
  EXPECT_EQ(nic.stats().rx_frames, 0u);

  constexpr uint64_t kRing = 0x1000;
  WriteDesc(hw.machine, kRing, 0, 0x3000, 0, 0, 0);
  WriteDesc(hw.machine, kRing, 1, 0x3800, 0, 0, 0);
  WriteDesc(hw.machine, kRing, 2, 0x4000, 0, 0, 0);
  nic.MmioWrite(0, kNicRegRdbal, kRing);
  nic.MmioWrite(0, kNicRegRdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegRdh, 0);
  nic.MmioWrite(0, kNicRegRdt, 2);
  nic.MmioWrite(0, kNicRegRctl, kNicRctlEnable);  // enabling drains backlog
  EXPECT_EQ(nic.stats().rx_frames, 2u);
}

TEST(SimNicTest, MdicAnswersPhyReads) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  nic.MmioWrite(0, kNicRegMdic, (2u << 26) | (1u << 16));  // read BMSR
  uint32_t mdic = nic.MmioRead(0, kNicRegMdic);
  EXPECT_NE(mdic & (1u << 28), 0u);  // ready
  EXPECT_NE(mdic & (1u << 2), 0u);   // link up
}

// Thread-safe counterpart of FrameSink for tests that deliver concurrently.
struct AtomicFrameSink : EtherEndpoint {
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> hash{0};
  void DeliverFrame(ConstByteSpan frame) override {
    frames.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(frame.size(), std::memory_order_relaxed);
    hash.fetch_add(EtherLink::FrameHash(frame), std::memory_order_relaxed);
  }
};

// Arms RX ring q (at a queue-specific DRAM address inside the 1 MB identity
// window) with `descs`-1 usable descriptors and returns the ring base.
uint64_t ArmRxRing(hw::Machine& m, SimNic& nic, uint32_t q, uint32_t descs) {
  uint64_t ring = 0x20000 + q * 0x1000;
  uint64_t buf = 0x80000 + q * 0x1000;
  for (uint32_t i = 0; i < descs; ++i) {
    WriteDesc(m, ring, i, buf, 0, 0, 0);
  }
  uint64_t stride = q * kNicQueueRegStride;
  nic.MmioWrite(0, kNicRegRdbal + stride, static_cast<uint32_t>(ring));
  nic.MmioWrite(0, kNicRegRdlen + stride, descs * 16);
  nic.MmioWrite(0, kNicRegRdh + stride, 0);
  nic.MmioWrite(0, kNicRegRdt + stride, descs - 1);
  return ring;
}

// Satellite regression: MRQC is rewritten by driver MMIO while RX traffic is
// being RSS-steered on the delivering thread. The clamped atomic register
// must keep steering in-bounds (no out-of-range queue index, no torn reads —
// TSAN enforces the latter), and every frame must be accounted for.
TEST(SimNicTest, MrqcRewriteRaceKeepsSteeringInBounds) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);

  constexpr uint32_t kDescs = 128;
  for (uint32_t q = 0; q < kNicNumQueues; ++q) {
    ArmRxRing(hw.machine, nic, q, kDescs);
  }
  nic.MmioWrite(0, kNicRegRctl, kNicRctlEnable);
  nic.MmioWrite(0, kNicRegMrqc, kNicNumQueues);

  // 32 distinct flows so the hash actually spreads across whatever queue
  // count the racing MRQC writer has installed at each instant.
  std::vector<std::vector<uint8_t>> frames;
  std::vector<uint8_t> payload(50, 0x5a);
  uint8_t src[6] = {0x02, 0, 0, 0, 0, 1};
  for (uint16_t f = 0; f < 32; ++f) {
    frames.push_back(kern::BuildPacket(kMac, src, 1000 + f, 80, {payload.data(), payload.size()}));
  }

  constexpr int kSent = 800;  // fits the armed rings even if all hash to one queue twice over
  std::thread sender([&]() {
    for (int i = 0; i < kSent; ++i) {
      (void)link.Transmit(1, {frames[i % frames.size()].data(), frames[i % frames.size()].size()});
    }
  });
  std::thread rewriter([&]() {
    // Includes 0 (legacy single-queue), mid values, the max, and garbage that
    // must clamp — the attack-surface seam the SoK calls out.
    const uint32_t patterns[] = {0, 1, 2, 4, kNicNumQueues, 0xffffffffu, 3};
    for (int i = 0; i < 4000; ++i) {
      nic.MmioWrite(0, kNicRegMrqc, patterns[i % (sizeof(patterns) / sizeof(patterns[0]))]);
    }
  });
  sender.join();
  rewriter.join();

  // Garbage writes clamp to the implemented queue count.
  nic.MmioWrite(0, kNicRegMrqc, 0xffffffffu);
  EXPECT_EQ(nic.MmioRead(0, kNicRegMrqc), kNicNumQueues);
  EXPECT_LE(nic.rss_queues(), kNicNumQueues);

  // Re-arm and drain until every frame is either in a ring or counted as
  // dropped: nothing may vanish.
  for (int round = 0; round < 32; ++round) {
    for (uint32_t q = 0; q < kNicNumQueues; ++q) {
      uint64_t stride = q * kNicQueueRegStride;
      uint32_t head = nic.MmioRead(0, kNicRegRdh + stride);
      for (uint32_t i = 0; i < kDescs; ++i) {
        WriteDesc(hw.machine, 0x20000 + q * 0x1000, i, 0x80000 + q * 0x1000, 0, 0, 0);
      }
      nic.MmioWrite(0, kNicRegRdt + stride, (head + kDescs - 1) % kDescs);
    }
  }
  uint64_t per_queue_sum = 0;
  for (uint32_t q = 0; q < kNicNumQueues; ++q) {
    per_queue_sum += nic.queue_stats(q).rx_frames.load();
  }
  EXPECT_EQ(nic.stats().rx_frames.load() + nic.stats().rx_dropped_no_desc.load(),
            static_cast<uint64_t>(kSent));
  EXPECT_EQ(per_queue_sum, nic.stats().rx_frames.load());
}

// Satellite regression for the TX-ring locking: one thread hammers the TDT
// doorbell while a second thread plays the device's own descriptor fetch
// (Tick). Under the shared queue_mu_ the ring must process every descriptor
// exactly once — no double transmit, no lost frame, no torn head.
TEST(SimNicTest, ConcurrentTdtDoorbellAndDeviceReapTransmitExactlyOnce) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  AtomicFrameSink sink;
  link.Attach(1, &sink);

  constexpr uint64_t kRing = 0x10000, kBuf = 0x40000;
  constexpr uint32_t kRingEntries = 256;
  constexpr uint32_t kFrames = kRingEntries - 1;  // tail may never catch head
  std::vector<uint8_t> frame(100, 0x42);
  (void)hw.machine.dram().Write(kBuf, {frame.data(), frame.size()});
  for (uint32_t i = 0; i < kRingEntries; ++i) {
    WriteDesc(hw.machine, kRing, i, kBuf, 100, kNicDescCmdEop, 0);
  }
  nic.MmioWrite(0, kNicRegTdbal, kRing);
  nic.MmioWrite(0, kNicRegTdlen, kRingEntries * 16);
  nic.MmioWrite(0, kNicRegTdh, 0);
  nic.MmioWrite(0, kNicRegTctl, kNicTctlEnable);

  std::atomic<bool> stop{false};
  std::thread device([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      nic.Tick();
    }
  });
  std::thread driver([&]() {
    for (uint32_t tail = 1; tail <= kFrames; ++tail) {
      nic.MmioWrite(0, kNicRegTdt, tail);
    }
  });
  driver.join();
  nic.Tick();  // reap anything the racing passes left armed
  stop.store(true, std::memory_order_relaxed);
  device.join();

  EXPECT_EQ(nic.stats().tx_frames.load(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(sink.frames.load(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(link.stats().frames[0].load(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(nic.MmioRead(0, kNicRegTdh), kFrames);
  for (uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_NE(DescStatus(hw.machine, kRing, i) & kNicDescStatusDone, 0) << "descriptor " << i;
  }
}

// Jumbo receive: a frame larger than the programmed per-descriptor buffer
// scatters across consecutive descriptors as an EOP chain — full chunks with
// DD but no EOP status, the remainder with DD|EOP — and the chunks
// concatenate back to the original frame.
TEST(SimNicTest, JumboScattersAcrossEopChain) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);

  constexpr uint64_t kRing = 0x1000;
  constexpr uint64_t kBufBase = 0x4000;
  constexpr uint32_t kBufSz = 2048;
  for (uint32_t i = 0; i < 15; ++i) {
    WriteDesc(hw.machine, kRing, i, kBufBase + i * kBufSz, 0, 0, 0);
  }
  nic.MmioWrite(0, kNicRegRdbal, kRing);
  nic.MmioWrite(0, kNicRegRdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegRdh, 0);
  nic.MmioWrite(0, kNicRegRdt, 15);
  nic.MmioWrite(0, kNicRegRdbsz, kBufSz);
  nic.MmioWrite(0, kNicRegRctl, kNicRctlEnable | kNicRctlJumboEnable);

  std::vector<uint8_t> frame(5000);
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<uint8_t>(i * 7);
  }
  nic.DeliverFrame({frame.data(), frame.size()});

  ASSERT_EQ(nic.stats().rx_frames, 1u);
  EXPECT_EQ(nic.stats().rx_chain_frames, 1u);
  EXPECT_EQ(nic.stats().rx_chain_descs, 3u);
  // Chunk statuses: DD on all three, EOP only on the last.
  EXPECT_EQ(DescStatus(hw.machine, kRing, 0), kNicDescStatusDone);
  EXPECT_EQ(DescStatus(hw.machine, kRing, 1), kNicDescStatusDone);
  EXPECT_EQ(DescStatus(hw.machine, kRing, 2), kNicDescStatusDone | kNicDescStatusEop);
  EXPECT_EQ(nic.MmioRead(0, kNicRegRdh), 3u);
  // Concatenating the chunks reproduces the frame bit-for-bit.
  std::vector<uint8_t> reassembled;
  uint32_t lens[3] = {kBufSz, kBufSz, 5000 - 2 * kBufSz};
  for (uint32_t i = 0; i < 3; ++i) {
    uint8_t raw[16];
    (void)hw.machine.dram().Read(kRing + i * 16ull, {raw, 16});
    EXPECT_EQ(LoadLe16(raw + 8), lens[i]) << "chunk " << i;
    std::vector<uint8_t> chunk(lens[i]);
    (void)hw.machine.dram().Read(kBufBase + i * kBufSz, {chunk.data(), chunk.size()});
    reassembled.insert(reassembled.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(reassembled, frame);
}

// Without RCTL.LPE a long frame is dropped at the MAC — counted, nothing
// published, ring untouched.
TEST(SimNicTest, OversizeFrameWithoutLpeIsDropped) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  constexpr uint64_t kRing = 0x1000;
  for (uint32_t i = 0; i < 15; ++i) {
    WriteDesc(hw.machine, kRing, i, 0x4000 + i * 2048, 0, 0, 0);
  }
  nic.MmioWrite(0, kNicRegRdbal, kRing);
  nic.MmioWrite(0, kNicRegRdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegRdh, 0);
  nic.MmioWrite(0, kNicRegRdt, 15);
  nic.MmioWrite(0, kNicRegRctl, kNicRctlEnable);  // no LPE

  std::vector<uint8_t> jumbo(5000, 0x11);
  nic.DeliverFrame({jumbo.data(), jumbo.size()});
  EXPECT_EQ(nic.stats().rx_frames, 0u);
  EXPECT_EQ(nic.stats().rx_dropped_oversize, 1u);
  EXPECT_EQ(nic.MmioRead(0, kNicRegRdh), 0u);
  // A standard frame still flows.
  std::vector<uint8_t> standard(1000, 0x22);
  nic.DeliverFrame({standard.data(), standard.size()});
  EXPECT_EQ(nic.stats().rx_frames, 1u);
}

// A frame whose chain would exceed the hard descriptor cap (malicious
// buffer-size programming) is dropped and counted — never a partial chain.
TEST(SimNicTest, ChainCapBoundsMaliciousBufferSize) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  constexpr uint64_t kRing = 0x1000;
  constexpr uint32_t kDescs = 64;
  for (uint32_t i = 0; i < kDescs - 1; ++i) {
    WriteDesc(hw.machine, kRing, i, 0x10000 + i * 256, 0, 0, 0);
  }
  nic.MmioWrite(0, kNicRegRdbal, kRing);
  nic.MmioWrite(0, kNicRegRdlen, kDescs * 16);
  nic.MmioWrite(0, kNicRegRdh, 0);
  nic.MmioWrite(0, kNicRegRdt, kDescs - 1);
  nic.MmioWrite(0, kNicRegRdbsz, 1);  // malicious: clamped to the 256-byte floor
  nic.MmioWrite(0, kNicRegRctl, kNicRctlEnable | kNicRctlJumboEnable);

  // 9014 bytes over 256-byte buffers = 36 descriptors: exactly the cap, ok.
  std::vector<uint8_t> max_frame(kern::kJumboMaxFrameBytes, 0x33);
  nic.DeliverFrame({max_frame.data(), max_frame.size()});
  EXPECT_EQ(nic.stats().rx_frames, 1u);
  EXPECT_EQ(nic.stats().rx_chain_descs, (kern::kJumboMaxFrameBytes + 255) / 256);
  // One byte past the jumbo maximum: dropped whole, nothing published (the
  // 256-byte floor + the MAC maximum together make the cap unreachable by
  // any buffer-size program — defence in depth on both sides).
  uint32_t head_after_first = nic.MmioRead(0, kNicRegRdh);
  std::vector<uint8_t> over(kern::kJumboMaxFrameBytes + 1, 0x44);
  nic.DeliverFrame({over.data(), over.size()});
  EXPECT_EQ(nic.stats().rx_frames, 1u);
  EXPECT_EQ(nic.stats().rx_dropped_oversize, 1u);
  EXPECT_EQ(nic.MmioRead(0, kNicRegRdh), head_after_first);
}

// The mid-burst rewrite attack: the driver rewrites descriptors AFTER the
// device fetched its cacheline burst (timed via the link endpoint, which
// runs inside the reap pass with the queue lock dropped). The device must
// transmit the armed bytes from its snapshot, exactly once — and a replayed
// doorbell at the same tail must transmit nothing.
TEST(SimNicTest, MidBurstDescriptorRewriteUsesFetchedSnapshot) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);

  constexpr uint64_t kRing = 0x1000, kBufBase = 0x4000, kVictim = 0x20000;
  constexpr uint16_t kLen = 64;
  std::vector<uint8_t> secret(kLen, 0x5e);
  (void)hw.machine.dram().Write(kVictim, {secret.data(), secret.size()});
  for (uint32_t i = 0; i < 4; ++i) {
    std::vector<uint8_t> benign(kLen, 0xab);
    (void)hw.machine.dram().Write(kBufBase + i * kLen, {benign.data(), benign.size()});
    WriteDesc(hw.machine, kRing, i, kBufBase + i * kLen, kLen, kNicDescCmdEop, 0);
  }

  struct RewritingSink : EtherEndpoint {
    hw::Machine* machine = nullptr;
    bool rewritten = false;
    std::vector<std::vector<uint8_t>> frames;
    void DeliverFrame(ConstByteSpan frame) override {
      if (!rewritten) {
        rewritten = true;
        // Repoint descriptors 1..3 at the victim — they are already inside
        // the device's fetched cacheline.
        for (uint32_t i = 1; i < 4; ++i) {
          WriteDesc(*machine, 0x1000, i, 0x20000, 64, kNicDescCmdEop, 0);
        }
      }
      frames.emplace_back(frame.begin(), frame.end());
    }
  } sink;
  sink.machine = &hw.machine;
  link.Attach(1, &sink);

  nic.MmioWrite(0, kNicRegTdbal, kRing);
  nic.MmioWrite(0, kNicRegTdlen, 16 * 16);
  nic.MmioWrite(0, kNicRegTdh, 0);
  nic.MmioWrite(0, kNicRegTctl, kNicTctlEnable);
  nic.MmioWrite(0, kNicRegTdt, 4);

  ASSERT_EQ(sink.frames.size(), 4u);
  for (const std::vector<uint8_t>& frame : sink.frames) {
    for (uint8_t byte : frame) {
      EXPECT_EQ(byte, 0xab);  // snapshot bytes, not the rewrite's target
    }
  }
  // Exactly once: replaying the doorbell at the same tail moves nothing.
  nic.MmioWrite(0, kNicRegTdt, 4);
  EXPECT_EQ(sink.frames.size(), 4u);
  EXPECT_EQ(nic.stats().tx_frames, 4u);
}

// RETA steering: programmed entries direct hash buckets to queues; entries
// are masked at write and reduced at lookup so a hostile table can never
// steer out of bounds; an unprogrammed table behaves exactly like
// hash % queues.
TEST(SimNicTest, RetaProgramsClampAndSteer) {
  SimNic nic("nic", kMac);
  BareMetal hw(&nic);
  nic.MmioWrite(0, kNicRegMrqc, 4);

  auto frame_for_port = [&](uint16_t port) {
    std::vector<uint8_t> payload(32, 0x55);
    return kern::BuildPacket(kMac, kMac, port, 80, {payload.data(), payload.size()});
  };
  // Unprogrammed: hash % queues.
  auto frame = frame_for_port(1234);
  uint32_t hash = kern::FlowHash({frame.data(), frame.size()});
  EXPECT_EQ(nic.SteerQueue({frame.data(), frame.size()}), hash % 4);

  // All entries -> queue 2 (written with absurd values in the high bytes:
  // the write masks them to the implemented queue count).
  for (uint32_t i = 0; i < kNicRetaEntries; i += 4) {
    nic.MmioWrite(0, kNicRegReta + i, 0x0a0a0a0au);  // 10 % 8 == 2
  }
  for (uint16_t port = 1000; port < 1032; ++port) {
    auto f = frame_for_port(port);
    EXPECT_EQ(nic.SteerQueue({f.data(), f.size()}), 2u);
  }
  // Readback reflects the masked entries.
  EXPECT_EQ(nic.MmioRead(0, kNicRegReta), 0x02020202u);
  // MRQC shrink below the entry value: lookup reduces to stay in-bounds.
  nic.MmioWrite(0, kNicRegMrqc, 2);
  auto f = frame_for_port(4321);
  EXPECT_LT(nic.SteerQueue({f.data(), f.size()}), 2u);
}

TEST(Ne2kTest, PioTransmit) {
  Ne2kNic nic("ne2k", kMac);
  BareMetal hw(&nic);
  EtherLink link;
  nic.ConnectLink(&link, 0);
  FrameSink sink;
  link.Attach(1, &sink);
  nic.IoWrite(kNe2kPortCmd, kNe2kCmdStart);
  const char* msg = "hello ne2k, this is a sixty-byte-plus ethernet frame payload..";
  for (const char* p = msg; *p; ++p) {
    nic.IoWrite(kNe2kPortData, static_cast<uint8_t>(*p));
  }
  uint16_t len = static_cast<uint16_t>(strlen(msg));
  nic.IoWrite(kNe2kPortTbcr0, static_cast<uint8_t>(len & 0xff));
  nic.IoWrite(kNe2kPortTbcr1, static_cast<uint8_t>(len >> 8));
  nic.IoWrite(kNe2kPortCmd, kNe2kCmdStart | kNe2kCmdTransmit);
  EXPECT_EQ(nic.tx_frames(), 1u);
  EXPECT_EQ(link.stats().frames[0], 1u);
  EXPECT_NE(nic.IoRead(kNe2kPortIsr) & kNe2kIsrTx, 0);
}

TEST(Ne2kTest, PioReceiveWithRingHeader) {
  Ne2kNic nic("ne2k", kMac);
  BareMetal hw(&nic);
  nic.IoWrite(kNe2kPortCmd, kNe2kCmdStart);
  std::vector<uint8_t> frame(70);
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<uint8_t>(i);
  }
  nic.DeliverFrame({frame.data(), frame.size()});
  ASSERT_NE(nic.IoRead(kNe2kPortIsr) & kNe2kIsrRx, 0);
  uint16_t len = nic.IoRead(kNe2kPortData);
  len |= static_cast<uint16_t>(nic.IoRead(kNe2kPortData)) << 8;
  EXPECT_EQ(len, 70);
  for (uint16_t i = 0; i < len; ++i) {
    EXPECT_EQ(nic.IoRead(kNe2kPortData), frame[i]);
  }
  EXPECT_EQ(nic.IoRead(kNe2kPortIsr) & kNe2kIsrRx, 0);  // drained
}

TEST(Ne2kTest, StoppedNicDropsFrames) {
  Ne2kNic nic("ne2k", kMac);
  BareMetal hw(&nic);
  std::vector<uint8_t> frame(64, 0x2);
  nic.DeliverFrame({frame.data(), frame.size()});
  EXPECT_EQ(nic.rx_frames(), 0u);
}

TEST(Ne2kTest, MacReadableThroughPar) {
  Ne2kNic nic("ne2k", kMac);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(nic.IoRead(static_cast<uint16_t>(kNe2kPortPar0 + i)), kMac[i]);
  }
}

TEST(WifiTest, ScanDmaWritesBssTable) {
  RadioEnvironment air;
  BssInfo ap{};
  ap.bssid = {1, 2, 3, 4, 5, 6};
  snprintf(ap.ssid, sizeof(ap.ssid), "csail");
  ap.channel = 6;
  ap.signal_dbm = -40;
  air.AddAccessPoint(ap);

  WifiNic nic("wifi", &air);
  BareMetal hw(&nic);
  nic.MmioWrite(0, kWifiRegCmdArgLo, 0x8000);
  nic.MmioWrite(0, kWifiRegCmd, kWifiCmdScan);
  EXPECT_EQ(nic.MmioRead(0, kWifiRegScanCount), 1u);
  uint8_t record[kBssRecordSize];
  (void)hw.machine.dram().Read(0x8000, {record, sizeof(record)});
  EXPECT_EQ(memcmp(record, ap.bssid.data(), 6), 0);
  EXPECT_STREQ(reinterpret_cast<char*>(record + 8), "csail");
  EXPECT_EQ(record[36], 6);
}

TEST(WifiTest, AssociateAndTx) {
  RadioEnvironment air;
  BssInfo ap{};
  snprintf(ap.ssid, sizeof(ap.ssid), "net");
  air.AddAccessPoint(ap);
  WifiNic nic("wifi", &air);
  BareMetal hw(&nic);

  EXPECT_FALSE(nic.associated());
  nic.MmioWrite(0, kWifiRegCmd, kWifiCmdAssoc);
  EXPECT_TRUE(nic.associated());
  EXPECT_EQ(nic.MmioRead(0, kWifiRegAssocState), 1u);

  (void)hw.machine.dram().Write(0x9000, {reinterpret_cast<const uint8_t*>("data"), 4});
  nic.MmioWrite(0, kWifiRegTxAddr, 0x9000);
  nic.MmioWrite(0, kWifiRegTxLen, 4);
  nic.MmioWrite(0, kWifiRegTxDoorbell, 1);
  EXPECT_EQ(nic.tx_frames(), 1u);

  nic.MmioWrite(0, kWifiRegCmd, kWifiCmdDisassoc);
  EXPECT_FALSE(nic.associated());
}

TEST(AudioTest, ConsumesRingAndRaisesPeriodInterrupts) {
  hw::Machine machine;
  AudioDev dev("hda", &machine.clock());
  auto& sw = machine.AddSwitch("sw0");
  (void)machine.AttachDevice(sw, &dev);
  dev.config().set_command(hw::kPciCommandMemEnable | hw::kPciCommandBusMaster);
  (void)machine.iommu().CreateContext(dev.address().source_id());
  (void)machine.iommu().Map(dev.address().source_id(), 0, 0, 1 << 20, true, true);

  // 4 KB ring, 1 KB periods, 192 KB/s rate.
  std::vector<uint8_t> samples(4096, 0x33);
  (void)machine.dram().Write(0x8000, {samples.data(), samples.size()});
  dev.MmioWrite(0, kAudioRegRingLo, 0x8000);
  dev.MmioWrite(0, kAudioRegRingBytes, 4096);
  dev.MmioWrite(0, kAudioRegPeriodBytes, 1024);
  dev.MmioWrite(0, kAudioRegRate, 192000);
  dev.MmioWrite(0, kAudioRegIms, kAudioIntPeriod);
  dev.MmioWrite(0, kAudioRegCtl, kAudioCtlRun);

  // 1/48 s at 192 kB/s = 3999 bytes (integer ns) = 3 full periods.
  machine.clock().Advance(kSecond / 48);
  dev.Tick();
  EXPECT_EQ(dev.periods_played(), 3u);
  EXPECT_GT(dev.consumed_signature(), 0u);
  EXPECT_EQ(dev.MmioRead(0, kAudioRegLpib), 3999u);
}

TEST(AudioTest, BadRingAddressUnderruns) {
  hw::Machine machine;
  AudioDev dev("hda", &machine.clock());
  auto& sw = machine.AddSwitch("sw0");
  (void)machine.AttachDevice(sw, &dev);
  dev.config().set_command(hw::kPciCommandMemEnable | hw::kPciCommandBusMaster);
  (void)machine.iommu().CreateContext(dev.address().source_id());  // nothing mapped

  dev.MmioWrite(0, kAudioRegRingLo, 0x8000);
  dev.MmioWrite(0, kAudioRegRingBytes, 4096);
  dev.MmioWrite(0, kAudioRegPeriodBytes, 1024);
  dev.MmioWrite(0, kAudioRegCtl, kAudioCtlRun);
  machine.clock().Advance(kMillisecond);
  dev.Tick();
  EXPECT_GE(dev.underruns(), 1u);  // confined: DMA faulted, stream starved
}

TEST(UsbTest, EnumerationDance) {
  UsbHostController hcd("ehci");
  BareMetal hw(&hcd);
  UsbKeyboard kbd;
  ASSERT_TRUE(hcd.PlugDevice(0, &kbd).ok());

  EXPECT_NE(hcd.MmioRead(0, kUsbRegPortsc0) & kUsbPortConnected, 0u);
  EXPECT_EQ(hcd.MmioRead(0, kUsbRegPortsc0 + 4) & kUsbPortConnected, 0u);

  // SET_ADDRESS via a TRB at 0x1000.
  auto run_trb = [&](uint8_t addr, uint8_t type, uint32_t len, uint64_t buf,
                     const uint8_t setup[8]) -> uint8_t {
    uint8_t raw[kUsbTrbSize] = {};
    raw[0] = addr;
    raw[1] = type == kUsbTrbIn ? 1 : 0;
    raw[2] = type;
    StoreLe32(raw + 4, len);
    StoreLe64(raw + 8, buf);
    if (setup) {
      memcpy(raw + 16, setup, 8);
    }
    (void)hw.machine.dram().Write(0x1000, {raw, sizeof(raw)});
    hcd.MmioWrite(0, kUsbRegListLo, 0x1000);
    hcd.MmioWrite(0, kUsbRegListCount, 1);
    hcd.MmioWrite(0, kUsbRegCmd, kUsbCmdRun);
    hcd.MmioWrite(0, kUsbRegDoorbell, 1);
    uint8_t back[kUsbTrbSize];
    (void)hw.machine.dram().Read(0x1000, {back, sizeof(back)});
    return back[3];
  };

  uint8_t set_address[8] = {0x00, kUsbReqSetAddress, 5, 0, 0, 0, 0, 0};
  EXPECT_EQ(run_trb(0, kUsbTrbSetup, 0, 0, set_address), kUsbTrbStatusOk);
  EXPECT_EQ(kbd.address(), 5);

  uint8_t get_desc[8] = {0x80, kUsbReqGetDescriptor, 0, kUsbDescTypeDevice, 0, 0, 18, 0};
  EXPECT_EQ(run_trb(5, kUsbTrbSetup, 18, 0x2000, get_desc), kUsbTrbStatusOk);
  uint8_t descriptor[18];
  (void)hw.machine.dram().Read(0x2000, {descriptor, 18});
  EXPECT_EQ(descriptor[0], 18);
  EXPECT_EQ(descriptor[1], kUsbDescTypeDevice);
  EXPECT_EQ(descriptor[4], 0x03);  // HID class

  uint8_t set_config[8] = {0x00, kUsbReqSetConfiguration, 1, 0, 0, 0, 0, 0};
  EXPECT_EQ(run_trb(5, kUsbTrbSetup, 0, 0, set_config), kUsbTrbStatusOk);
  EXPECT_TRUE(kbd.configured());

  // HID report via bulk-in.
  kbd.PressKey(0x1c);  // usage code
  EXPECT_EQ(run_trb(5, kUsbTrbIn, 8, 0x3000, nullptr), kUsbTrbStatusOk);
  uint8_t report[8];
  (void)hw.machine.dram().Read(0x3000, {report, 8});
  EXPECT_EQ(report[2], 0x1c);
  EXPECT_EQ(hcd.transfers_completed(), 4u);
}

TEST(UsbTest, TransferToMissingDeviceStalls) {
  UsbHostController hcd("ehci");
  BareMetal hw(&hcd);
  uint8_t raw[kUsbTrbSize] = {};
  raw[0] = 9;  // no device at address 9
  raw[2] = kUsbTrbIn;
  StoreLe32(raw + 4, 8);
  (void)hw.machine.dram().Write(0x1000, {raw, sizeof(raw)});
  hcd.MmioWrite(0, kUsbRegListLo, 0x1000);
  hcd.MmioWrite(0, kUsbRegListCount, 1);
  hcd.MmioWrite(0, kUsbRegCmd, kUsbCmdRun);
  hcd.MmioWrite(0, kUsbRegDoorbell, 1);
  uint8_t back[kUsbTrbSize];
  (void)hw.machine.dram().Read(0x1000, {back, sizeof(back)});
  EXPECT_EQ(back[3], kUsbTrbStatusStall);
}

TEST(EtherLinkTest, PadsRuntsAndDropsOversize) {
  EtherLink link;
  struct Sink : EtherEndpoint {
    size_t last_len = 0;
    int frames = 0;
    void DeliverFrame(ConstByteSpan frame) override {
      last_len = frame.size();
      ++frames;
    }
  } sink;
  link.Attach(1, &sink);
  struct Null : EtherEndpoint {
    void DeliverFrame(ConstByteSpan) override {}
  } null_ep;
  link.Attach(0, &null_ep);

  uint8_t tiny[10] = {};
  ASSERT_TRUE(link.Transmit(0, {tiny, 10}).ok());
  EXPECT_EQ(sink.last_len, kEthMinFrame);  // padded

  std::vector<uint8_t> huge(kEthMaxFrame + 1);
  EXPECT_FALSE(link.Transmit(0, {huge.data(), huge.size()}).ok());
  EXPECT_EQ(link.stats().dropped, 1u);
}

TEST(EtherLinkTest, WireTimeMatchesGigabit) {
  // 1514-byte frame + 24 overhead = 1538 bytes = 12304 ns at 1 Gb/s.
  EXPECT_NEAR(EtherLink::WireTimeNs(1, 1514), 12304.0, 1.0);
}

std::vector<EtherLink::PeerFlow> ThreeTestFlows() {
  std::vector<EtherLink::PeerFlow> flows(3);
  const size_t sizes[] = {60, 100, 200};
  const uint64_t counts[] = {500, 300, 200};
  for (size_t f = 0; f < flows.size(); ++f) {
    flows[f].frame.assign(sizes[f], static_cast<uint8_t>(0x10 + f));
    flows[f].count = counts[f];
    flows[f].acked = nullptr;  // unpaced: the sink consumes instantly
  }
  return flows;
}

// Threaded generation must be indistinguishable from a serial replay of the
// same flows: identical per-flow frame counts, bytes and frame digests, and
// an identical aggregate at the receiving endpoint.
TEST(EtherLinkTest, ThreadedPeersMatchSerialReplay) {
  EtherLink serial_link;
  AtomicFrameSink serial_sink;
  serial_link.Attach(0, &serial_sink);
  serial_link.RunPeersSerial(ThreeTestFlows(), /*pump=*/nullptr, /*side=*/1);

  EtherLink threaded_link;
  AtomicFrameSink threaded_sink;
  threaded_link.Attach(0, &threaded_sink);
  threaded_link.StartPeers(ThreeTestFlows(), /*side=*/1);
  threaded_link.JoinPeers();

  ASSERT_EQ(serial_link.peer_count(), threaded_link.peer_count());
  for (size_t f = 0; f < serial_link.peer_count(); ++f) {
    EXPECT_EQ(serial_link.peer_stats(f).frames.load(), threaded_link.peer_stats(f).frames.load())
        << "flow " << f;
    EXPECT_EQ(serial_link.peer_stats(f).bytes.load(), threaded_link.peer_stats(f).bytes.load())
        << "flow " << f;
    EXPECT_EQ(serial_link.peer_stats(f).frame_hash.load(),
              threaded_link.peer_stats(f).frame_hash.load())
        << "flow " << f;
  }
  EXPECT_EQ(serial_sink.frames.load(), 1000u);
  EXPECT_EQ(threaded_sink.frames.load(), serial_sink.frames.load());
  EXPECT_EQ(threaded_sink.bytes.load(), serial_sink.bytes.load());
  // The sink-side digest is order-independent, so the interleaving the
  // threads produce must not change it either.
  EXPECT_EQ(threaded_sink.hash.load(), serial_sink.hash.load());
}

TEST(EtherLinkTest, StopPeersEndsGenerationEarly) {
  EtherLink link;
  AtomicFrameSink sink;
  link.Attach(0, &sink);
  std::atomic<uint64_t> released{0};
  std::vector<EtherLink::PeerFlow> flows(1);
  flows[0].frame.assign(64, 0xee);
  flows[0].count = uint64_t{1} << 40;  // effectively unbounded
  flows[0].window = 8;
  flows[0].acked = [&released]() { return released.load(std::memory_order_relaxed); };
  link.StartPeers(std::move(flows), /*side=*/1);
  released.store(16);  // let a couple of windows through
  while (link.peer_stats(0).frames.load() == 0) {
    std::this_thread::yield();  // generator runs: window room is available
  }
  link.StopPeers();
  EXPECT_LE(link.peer_stats(0).frames.load(), 16u + 8u);
  EXPECT_GT(link.peer_stats(0).frames.load(), 0u);
}

// A consumer that never acks: the generator rewinds and resends its window
// every few milliseconds, and none of those resends is progress, so it must
// still give up once give_up_ms passes without a new frame or an ack.
TEST(EtherLinkTest, RetransmittingGeneratorStillGivesUp) {
  EtherLink link;
  AtomicFrameSink sink;
  link.Attach(0, &sink);
  std::vector<EtherLink::PeerFlow> flows(1);
  flows[0].frame.assign(64, 0x5e);
  flows[0].count = 1000;
  flows[0].window = 4;
  flows[0].acked = []() { return uint64_t{0}; };
  flows[0].retransmit_on_stall_ms = 5;
  link.StartPeers(std::move(flows), /*side=*/1, /*give_up_ms=*/100);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!link.peer_stats(0).gave_up.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  link.StopPeers();  // returns at once when the generator already gave up
  EXPECT_TRUE(link.peer_stats(0).gave_up.load());
  EXPECT_GT(link.peer_stats(0).rewinds.load(), 0u);  // it did retransmit first
}

}  // namespace
}  // namespace sud::devices
