// Integration tests for the non-Ethernet device classes under SUD: the
// wireless driver (scan/associate/features/mirroring), the audio driver
// (playback + periods + real-time policy), the ne2k PIO driver (IOPB path)
// and the USB host driver (enumeration + HID input).

#include <gtest/gtest.h>

#include "src/devices/audio_dev.h"
#include "src/devices/ne2k_nic.h"
#include "src/devices/usb_host.h"
#include "src/devices/wifi_nic.h"
#include "src/drivers/iwl.h"
#include "src/drivers/ne2k.h"
#include "src/drivers/snd_hda.h"
#include "src/drivers/usb_hcd.h"
#include "src/sud/proxy_audio.h"
#include "src/sud/proxy_usb.h"
#include "src/sud/proxy_wireless.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kDriverUid;

TEST(WifiIntegration, ScanAssociateAndMirrorUnderSud) {
  hw::Machine machine;
  kern::Kernel kernel(&machine);
  devices::RadioEnvironment air;
  devices::BssInfo ap{};
  ap.bssid = {0xde, 0xad, 0x00, 0x00, 0xbe, 0xef};
  snprintf(ap.ssid, sizeof(ap.ssid), "csail");
  ap.channel = 11;
  ap.signal_dbm = -52;
  air.AddAccessPoint(ap);

  devices::WifiNic nic("iwl-nic", &air);
  auto& sw = machine.AddSwitch("sw0");
  ASSERT_TRUE(machine.AttachDevice(sw, &nic).ok());

  SafePciModule safe_pci(&kernel);
  SudDeviceContext* ctx = safe_pci.ExportDevice(&nic, kDriverUid).value();
  WirelessProxy proxy(&kernel, ctx);
  uml::DriverHost host(&kernel, ctx, "iwl-driver", kDriverUid);
  ASSERT_TRUE(host.Start(std::make_unique<drivers::IwlDriver>()).ok());
  host.Pump();  // flush the bitrate mirror downcall

  kern::WirelessDevice* wdev = kernel.wireless().Find("wlan0");
  ASSERT_NE(wdev, nullptr);
  // Mirrored bitrates arrived (Section 3.3).
  EXPECT_EQ(wdev->bitrates().size(), 11u);

  // Scan: a synchronous upcall; results DMA'd by the device into the driver.
  Result<std::vector<kern::ScanResult>> results = kernel.wireless().Scan("wlan0");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].ssid, "csail");
  EXPECT_EQ(results.value()[0].channel, 11);

  // Feature enable from non-preemptable context: answered from the mirror,
  // async upcall queued.
  Result<uint32_t> enabled = kernel.wireless().EnableFeatures(
      "wlan0", kern::kWifiFeatureQos | kern::kWifiFeatureHt40);
  ASSERT_TRUE(enabled.ok());
  EXPECT_EQ(enabled.value(), kern::kWifiFeatureQos);  // Ht40 unsupported
  EXPECT_EQ(proxy.stats().atomic_violations, 0u);     // never blocked atomically
  host.Pump();                                        // deliver async feature upcall

  // Associate + bss_change downcall propagates to the kernel mirror.
  bool bss_changed = false;
  wdev->set_bss_change_handler([&](bool associated) { bss_changed = associated; });
  ASSERT_TRUE(kernel.wireless().Associate("wlan0", "csail").ok());
  host.Pump();
  EXPECT_TRUE(nic.associated());
  EXPECT_TRUE(bss_changed);
  EXPECT_TRUE(wdev->associated());
}

TEST(AudioIntegration, PlaybackThroughSud) {
  hw::Machine machine;
  kern::Kernel kernel(&machine);
  devices::AudioDev dev("hda", &machine.clock());
  auto& sw = machine.AddSwitch("sw0");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());

  SafePciModule safe_pci(&kernel);
  SudDeviceContext* ctx = safe_pci.ExportDevice(&dev, kDriverUid).value();
  AudioProxy proxy(&kernel, ctx);
  uml::DriverHost host(&kernel, ctx, "hda-driver", kDriverUid);
  ASSERT_TRUE(host.Start(std::make_unique<drivers::SndHdaDriver>()).ok());

  kern::PcmDevice* pcm = kernel.audio().Find("pcm0");
  ASSERT_NE(pcm, nullptr);

  // The audio driver runs with a real-time policy (Section 4.1).
  host.process()->set_sched_policy(kern::SchedPolicy::kFifo);

  kern::PcmConfig config;
  config.rate_hz = 48000;
  config.channels = 2;
  config.sample_bytes = 2;
  config.period_bytes = 4096;
  config.buffer_bytes = 16384;
  ASSERT_TRUE(pcm->ops()->OpenStream(config).ok());

  // Feed half a second of audio, advancing simulated time in 10 ms steps.
  std::vector<uint8_t> chunk(1920, 0x11);  // 10 ms at 192 kB/s
  for (int step = 0; step < 50; ++step) {
    ASSERT_TRUE(pcm->ops()->WriteSamples({chunk.data(), chunk.size()}).ok());
    host.Pump();
    machine.clock().Advance(10 * kMillisecond);
    machine.TickDevices();
    host.Pump();  // period-elapsed interrupts -> downcalls
  }
  // ~96000 bytes played = ~23 periods of 4096.
  EXPECT_GE(dev.periods_played(), 20u);
  EXPECT_GE(pcm->periods(), 20u);
  EXPECT_EQ(dev.underruns(), 0u);
  EXPECT_GT(dev.consumed_signature(), 0u);
  ASSERT_TRUE(pcm->ops()->CloseStream().ok());
}

TEST(Ne2kIntegration, PioDriverUnderSudUsesIopb) {
  hw::Machine machine;
  kern::Kernel kernel(&machine);
  devices::EtherLink link;
  uint8_t mac_peer[6] = {9, 9, 9, 9, 9, 9};
  devices::Ne2kNic nic("ne2k-nic", testing::kMacA);
  devices::SimNic peer("peer", mac_peer);
  auto& sw = machine.AddSwitch("sw0");
  ASSERT_TRUE(machine.AttachDevice(sw, &nic).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &peer).ok());
  nic.ConnectLink(&link, 0);

  struct Sink : devices::EtherEndpoint {
    int frames = 0;
    void DeliverFrame(ConstByteSpan) override { ++frames; }
  } sink;
  link.Attach(1, &sink);

  SafePciModule safe_pci(&kernel);
  SudDeviceContext* ctx = safe_pci.ExportDevice(&nic, kDriverUid).value();
  EthernetProxy proxy(&kernel, ctx);
  uml::DriverHost host(&kernel, ctx, "ne2k-driver", kDriverUid);
  ASSERT_TRUE(host.Start(std::make_unique<drivers::Ne2kDriver>()).ok());

  // The IOPB grant happened through the request_region downcall.
  EXPECT_GT(host.process()->granted_io_ports(), 0u);

  ASSERT_TRUE(kernel.net().BringUp("eth0").ok());
  auto frame = kern::BuildPacket(mac_peer, testing::kMacA, 1, 2, {});
  ASSERT_TRUE(
      kernel.net().Transmit("eth0", kern::MakeSkb({frame.data(), frame.size()})).ok());
  host.Pump();
  EXPECT_EQ(sink.frames, 1);
  EXPECT_EQ(nic.tx_frames(), 1u);

  // Receive by polling (ne2k has no MSI in this model).
  std::vector<uint8_t> incoming = kern::BuildPacket(testing::kMacA, mac_peer, 3, 80, {});
  int received = 0;
  kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  nic.DeliverFrame({incoming.data(), incoming.size()});
  auto* driver = static_cast<drivers::Ne2kDriver*>(host.driver());
  Result<int> polled = driver->Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), 1);
  host.Pump();  // flush the netif_rx downcall
  EXPECT_EQ(received, 1);
}

// NetDriverOps::sg fallback correctness: a frag skb transmitted through the
// non-SG ne2k must hit the wire bit-identical to the frame it was built
// from (the proxy linearizes exactly once), with the same FNV digest the SG
// e1000e chain path produces for the same frame.
TEST(Ne2kIntegration, FragSkbThroughNonSgDriverMatchesSgDigest) {
  std::vector<uint8_t> payload(1200);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 11 + 3);
  }
  uint8_t mac_peer[6] = {9, 9, 9, 9, 9, 9};
  auto frame = kern::BuildPacket(mac_peer, testing::kMacA, 7, 9,
                                 {payload.data(), payload.size()});
  uint64_t frame_digest = devices::EtherLink::FrameHash({frame.data(), frame.size()});

  // Path 1: the ne2k (no SG bit) — the proxy linearizes.
  uint64_t ne2k_digest = 0;
  {
    hw::Machine machine;
    kern::Kernel kernel(&machine);
    devices::EtherLink link;
    devices::Ne2kNic nic("ne2k-nic", testing::kMacA);
    auto& sw = machine.AddSwitch("sw0");
    ASSERT_TRUE(machine.AttachDevice(sw, &nic).ok());
    nic.ConnectLink(&link, 0);
    testing::WireRecorder wire;
    link.Attach(1, &wire);
    SafePciModule safe_pci(&kernel);
    SudDeviceContext* ctx = safe_pci.ExportDevice(&nic, kDriverUid).value();
    EthernetProxy proxy(&kernel, ctx);
    uml::DriverHost host(&kernel, ctx, "ne2k-driver", kDriverUid);
    ASSERT_TRUE(host.Start(std::make_unique<drivers::Ne2kDriver>()).ok());
    ASSERT_TRUE(kernel.net().BringUp("eth0").ok());
    kern::NetDevice* netdev = kernel.net().Find("eth0");
    EXPECT_FALSE(netdev->sg());

    ASSERT_TRUE(kernel.net()
                    .Transmit("eth0", kern::MakeFragSkb({frame.data(), frame.size()},
                                                        /*head_len=*/256, /*frag_len=*/512))
                    .ok());
    host.Pump();
    ASSERT_EQ(wire.frames.size(), 1u);
    EXPECT_EQ(wire.frames[0], frame);  // bit-identical to the built frame
    EXPECT_EQ(netdev->stats().tx_linearized, 1u);
    ne2k_digest = devices::EtherLink::FrameHash({wire.frames[0].data(), wire.frames[0].size()});
  }

  // Path 2: the SG e1000e — the same frame rides a TX descriptor chain.
  uint64_t sg_digest = 0;
  {
    testing::NetBench::Options options;
    options.start_peer = false;
    testing::NetBench bench(options);
    testing::WireRecorder wire;
    bench.link.Attach(1, &wire);
    ASSERT_TRUE(bench.StartSut().ok());
    kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
    EXPECT_TRUE(netdev->sg());

    ASSERT_TRUE(bench.kernel.net()
                    .Transmit("eth0", kern::MakeFragSkb({frame.data(), frame.size()},
                                                        /*head_len=*/256, /*frag_len=*/512))
                    .ok());
    bench.host->Pump();
    ASSERT_EQ(wire.frames.size(), 1u);
    EXPECT_EQ(wire.frames[0], frame);
    EXPECT_EQ(netdev->stats().tx_linearized, 0u);  // no linearize on the SG path
    EXPECT_GE(bench.sut_nic.stats().tx_chain_frames, 1u);
    sg_digest = devices::EtherLink::FrameHash({wire.frames[0].data(), wire.frames[0].size()});
  }

  EXPECT_EQ(ne2k_digest, frame_digest);
  EXPECT_EQ(sg_digest, frame_digest);
  EXPECT_EQ(ne2k_digest, sg_digest);
}

TEST(UsbIntegration, EnumerationAndKeyEventsUnderSud) {
  hw::Machine machine;
  kern::Kernel kernel(&machine);
  devices::UsbHostController hcd("ehci");
  devices::UsbKeyboard kbd;
  auto& sw = machine.AddSwitch("sw0");
  ASSERT_TRUE(machine.AttachDevice(sw, &hcd).ok());
  ASSERT_TRUE(hcd.PlugDevice(0, &kbd).ok());

  SafePciModule safe_pci(&kernel);
  SudDeviceContext* ctx = safe_pci.ExportDevice(&hcd, kDriverUid).value();
  UsbHostProxy proxy(&kernel, ctx);
  uml::DriverHost host(&kernel, ctx, "ehci-driver", kDriverUid);
  ASSERT_TRUE(host.Start(std::make_unique<drivers::UsbHcdDriver>()).ok());

  auto* driver = static_cast<drivers::UsbHcdDriver*>(host.driver());
  Result<int> configured = driver->Enumerate();
  ASSERT_TRUE(configured.ok());
  EXPECT_EQ(configured.value(), 1);
  ASSERT_EQ(driver->devices().size(), 1u);
  EXPECT_EQ(driver->devices()[0].vendor_id, 0x046d);
  EXPECT_TRUE(driver->devices()[0].configured);

  kbd.PressKey(0x04);  // 'a'
  kbd.PressKey(0x05);  // 'b'
  ASSERT_TRUE(driver->PollInput().ok());
  ASSERT_TRUE(driver->PollInput().ok());
  host.Pump();  // flush key-event downcalls
  ASSERT_EQ(kernel.input().pending(), 2u);
  EXPECT_EQ(kernel.input().PopEvent()->usage_code, 0x04);
  EXPECT_EQ(kernel.input().PopEvent()->usage_code, 0x05);
}

// The USB proxy has no validator of its own: the context's schema check
// refuses a key event whose usage code does not fit a byte, before the
// proxy could truncate it into a different key (0x141 -> 'A', 0x41).
TEST(UsbIntegration, OutOfRangeKeyEventIsRefusedAtTheContext) {
  hw::Machine machine;
  kern::Kernel kernel(&machine);
  devices::UsbHostController hcd("ehci");
  auto& sw = machine.AddSwitch("sw0");
  ASSERT_TRUE(machine.AttachDevice(sw, &hcd).ok());
  SafePciModule safe_pci(&kernel);
  SudDeviceContext* ctx = safe_pci.ExportDevice(&hcd, kDriverUid).value();
  UsbHostProxy proxy(&kernel, ctx);
  uml::DriverHost host(&kernel, ctx, "ehci-driver", kDriverUid);
  ASSERT_TRUE(host.Start(std::make_unique<drivers::UsbHcdDriver>()).ok());

  // Played from the driver's side of the ctl file: one forged report, then
  // an honest one.
  for (uint64_t usage : {0x141u, 0x41u}) {
    UchanMsg event;
    event.opcode = kUsbDownKeyEvent;
    event.args[0] = usage;
    ASSERT_TRUE(ctx->ctl().DowncallAsync(std::move(event)).ok());
  }
  ctx->ctl().FlushDowncalls();
  EXPECT_EQ(ctx->wire_rejects().rejected(wire::Dir::kDown, kUsbDownKeyEvent), 1u);
  EXPECT_EQ(ctx->wire_rejects().total(), 1u);
  ASSERT_EQ(kernel.input().pending(), 1u);
  EXPECT_EQ(kernel.input().PopEvent()->usage_code, 0x41);
}

}  // namespace
}  // namespace sud
