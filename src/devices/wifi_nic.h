// WifiNic: an iwlagn-class 802.11 adapter.
//
// Models the slice of a wireless NIC that matters for SUD's wireless proxy
// driver: a command mailbox (scan / associate / set-bitrate), a scan-results
// table DMA'd into driver memory, BSS-change interrupts, and data TX/RX over
// a RadioEnvironment of access points. The Linux 802.11 stack's habit of
// calling drivers from non-preemptable context (Section 3.1.1) is exercised
// through the feature-set registers mirrored by the wireless proxy.

#ifndef SUD_SRC_DEVICES_WIFI_NIC_H_
#define SUD_SRC_DEVICES_WIFI_NIC_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/hw/pci_device.h"

namespace sud::devices {

// One access point visible in the simulated air.
struct BssInfo {
  std::array<uint8_t, 6> bssid{};
  char ssid[32] = {};
  uint8_t channel = 0;
  int8_t signal_dbm = 0;
};

// The "air": a set of access points the NIC can scan and associate with.
class RadioEnvironment {
 public:
  void AddAccessPoint(const BssInfo& bss) { aps_.push_back(bss); }
  const std::vector<BssInfo>& access_points() const { return aps_; }

 private:
  std::vector<BssInfo> aps_;
};

// Register map (BAR0).
inline constexpr uint64_t kWifiRegCmd = 0x00;
inline constexpr uint64_t kWifiRegCmdArgLo = 0x04;   // DMA address for results
inline constexpr uint64_t kWifiRegCmdArgHi = 0x08;
inline constexpr uint64_t kWifiRegIcr = 0x0c;        // read-clears
inline constexpr uint64_t kWifiRegIms = 0x10;
inline constexpr uint64_t kWifiRegScanCount = 0x14;  // results after scan
inline constexpr uint64_t kWifiRegAssocState = 0x18; // 0=idle 1=associated
inline constexpr uint64_t kWifiRegBitrate = 0x1c;    // current bitrate, Mbit/s
inline constexpr uint64_t kWifiRegTxAddr = 0x20;     // frame buffer DMA address
inline constexpr uint64_t kWifiRegTxLen = 0x28;
inline constexpr uint64_t kWifiRegTxDoorbell = 0x2c;

// Commands.
inline constexpr uint32_t kWifiCmdScan = 1;
inline constexpr uint32_t kWifiCmdAssoc = 2;
inline constexpr uint32_t kWifiCmdDisassoc = 3;

// Interrupt causes.
inline constexpr uint32_t kWifiIntScanDone = 1u << 0;
inline constexpr uint32_t kWifiIntBssChanged = 1u << 1;
inline constexpr uint32_t kWifiIntTxDone = 1u << 2;

// Serialized BssInfo record size as DMA'd to the driver.
inline constexpr size_t kBssRecordSize = 40;

class WifiNic : public hw::PciDevice {
 public:
  WifiNic(std::string name, RadioEnvironment* air);

  uint32_t MmioRead(int bar, uint64_t offset) override;
  void MmioWrite(int bar, uint64_t offset, uint32_t value) override;
  void Reset() override;

  bool associated() const { return assoc_state_ == 1; }
  uint32_t bitrate_mbps() const { return bitrate_; }
  const std::vector<uint32_t>& supported_bitrates() const { return supported_bitrates_; }
  uint64_t tx_frames() const { return tx_frames_; }

 private:
  void RunScan();
  void RunAssoc();
  void RunTx();
  void SetInterruptCause(uint32_t bits);

  RadioEnvironment* air_;
  uint32_t cmd_arg_lo_ = 0, cmd_arg_hi_ = 0;
  uint32_t icr_ = 0, ims_ = 0;
  uint32_t scan_count_ = 0;
  uint32_t assoc_state_ = 0;
  uint32_t bitrate_ = 54;
  uint32_t tx_addr_lo_ = 0, tx_addr_hi_ = 0, tx_len_ = 0;
  uint64_t tx_frames_ = 0;
  std::vector<uint32_t> supported_bitrates_{1, 2, 11, 6, 9, 12, 18, 24, 36, 48, 54};
};

}  // namespace sud::devices

#endif  // SUD_SRC_DEVICES_WIFI_NIC_H_
