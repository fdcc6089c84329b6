#include "src/devices/wifi_nic.h"

#include <cstring>

#include "src/base/bytes.h"

namespace sud::devices {

WifiNic::WifiNic(std::string name, RadioEnvironment* air)
    : PciDevice(std::move(name), /*vendor_id=*/0x8086, /*device_id=*/0x4235,
                /*class_code=*/0x02, {hw::BarDesc{4096, /*is_io=*/false}}),
      air_(air) {}

void WifiNic::Reset() {
  icr_ = ims_ = 0;
  scan_count_ = 0;
  assoc_state_ = 0;
  bitrate_ = 54;
}

void WifiNic::SetInterruptCause(uint32_t bits) {
  // MSIs are edge-triggered on the assertion of a new cause: if the
  // interrupt condition was already pending (driver has not read ICR yet),
  // no additional message is signalled, as on real hardware.
  bool was_asserted = (icr_ & ims_) != 0;
  icr_ |= bits;
  if (!was_asserted && (icr_ & ims_) != 0) {
    (void)RaiseMsi();
  }
}

uint32_t WifiNic::MmioRead(int bar, uint64_t offset) {
  if (bar != 0) {
    return 0xffffffffu;
  }
  switch (offset) {
    case kWifiRegIcr: {
      uint32_t value = icr_;
      icr_ = 0;
      return value;
    }
    case kWifiRegIms:
      return ims_;
    case kWifiRegScanCount:
      return scan_count_;
    case kWifiRegAssocState:
      return assoc_state_;
    case kWifiRegBitrate:
      return bitrate_;
    default:
      return 0;
  }
}

void WifiNic::MmioWrite(int bar, uint64_t offset, uint32_t value) {
  if (bar != 0) {
    return;
  }
  switch (offset) {
    case kWifiRegCmd:
      if (value == kWifiCmdScan) {
        RunScan();
      } else if (value == kWifiCmdAssoc) {
        RunAssoc();
      } else if (value == kWifiCmdDisassoc) {
        assoc_state_ = 0;
        SetInterruptCause(kWifiIntBssChanged);
      }
      break;
    case kWifiRegCmdArgLo:
      cmd_arg_lo_ = value;
      break;
    case kWifiRegCmdArgHi:
      cmd_arg_hi_ = value;
      break;
    case kWifiRegIms:
      ims_ = value;
      if ((icr_ & ims_) != 0) {
        (void)RaiseMsi();
      }
      break;
    case kWifiRegBitrate:
      bitrate_ = value;
      break;
    case kWifiRegTxAddr:
      tx_addr_lo_ = value;
      break;
    case kWifiRegTxAddr + 4:
      tx_addr_hi_ = value;
      break;
    case kWifiRegTxLen:
      tx_len_ = value;
      break;
    case kWifiRegTxDoorbell:
      RunTx();
      break;
    default:
      break;
  }
}

void WifiNic::RunScan() {
  // DMA the BSS table into the driver-provided buffer. Each record:
  // bssid[6] pad[2] ssid[28] channel[1] signal[1] pad[2] == 40 bytes.
  uint64_t results_addr = (static_cast<uint64_t>(cmd_arg_hi_) << 32) | cmd_arg_lo_;
  scan_count_ = 0;
  if (air_ == nullptr) {
    SetInterruptCause(kWifiIntScanDone);
    return;
  }
  uint32_t index = 0;
  for (const BssInfo& bss : air_->access_points()) {
    uint8_t record[kBssRecordSize] = {};
    std::memcpy(record, bss.bssid.data(), 6);
    std::memcpy(record + 8, bss.ssid, 28);
    record[36] = bss.channel;
    record[37] = static_cast<uint8_t>(bss.signal_dbm);
    Status status = DmaWrite(results_addr + index * kBssRecordSize,
                             ConstByteSpan(record, kBssRecordSize));
    if (!status.ok()) {
      break;  // confined: driver gave us a bad address, stop writing
    }
    ++index;
  }
  scan_count_ = index;
  SetInterruptCause(kWifiIntScanDone);
}

void WifiNic::RunAssoc() {
  // Associate with the strongest AP (the model doesn't need SSID selection
  // beyond what the driver scans for).
  if (air_ != nullptr && !air_->access_points().empty()) {
    assoc_state_ = 1;
  }
  SetInterruptCause(kWifiIntBssChanged);
}

void WifiNic::RunTx() {
  uint64_t addr = (static_cast<uint64_t>(tx_addr_hi_) << 32) | tx_addr_lo_;
  std::vector<uint8_t> frame(tx_len_);
  if (tx_len_ > 0) {
    Status status = DmaRead(addr, ByteSpan(frame.data(), frame.size()));
    if (!status.ok()) {
      return;  // DMA confined
    }
  }
  if (assoc_state_ == 1) {
    ++tx_frames_;
  }
  SetInterruptCause(kWifiIntTxDone);
}

}  // namespace sud::devices
