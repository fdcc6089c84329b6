#include "src/drivers/ne2k.h"

#include "src/base/log.h"

namespace sud::drivers {

uint8_t Ne2kDriver::In(uint16_t reg) {
  Result<uint8_t> value = env_->IoRead8(static_cast<uint16_t>(io_base_ + reg));
  ++stats_.pio_bytes;
  return value.ok() ? value.value() : 0xff;
}

void Ne2kDriver::Out(uint16_t reg, uint8_t value) {
  (void)env_->IoWrite8(static_cast<uint16_t>(io_base_ + reg), value);
  ++stats_.pio_bytes;
}

Status Ne2kDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  // request_region: have our ports added to the IOPB before touching them.
  SUD_RETURN_IF_ERROR(env.RequestIoRegion());
  Result<uint16_t> base = env.IoBarBase();
  if (!base.ok()) {
    return base.status();
  }
  io_base_ = base.value();

  uint8_t mac[6];
  for (int i = 0; i < 6; ++i) {
    mac[i] = In(static_cast<uint16_t>(devices::kNe2kPortPar0 + i));
  }

  uml::NetDriverOps ops;
  ops.open = [this]() { return Open(); };
  ops.stop = [this]() { return Stop(); };
  // No NETIF_F_SG: the kernel side linearizes, so every frame is one
  // fragment; a single-queue device ignores the steering.
  ops.xmit = [this](std::span<const uml::TxFrag> frags, uint16_t /*queue*/) {
    return Xmit(frags[0].iova, frags[0].len, frags[0].pool_buffer_id);
  };
  ops.ioctl = [this](uint32_t cmd) -> Result<std::string> {
    return Status(ErrorCode::kInvalidArgument, "ne2k supports no ioctls");
  };
  SUD_RETURN_IF_ERROR(env.RegisterNetdev(mac, std::move(ops)));
  env.NetifCarrierOn();
  return Status::Ok();
}

Status Ne2kDriver::Open() {
  Out(devices::kNe2kPortCmd, devices::kNe2kCmdStart);
  open_ = true;
  return Status::Ok();
}

Status Ne2kDriver::Stop() {
  Out(devices::kNe2kPortCmd, devices::kNe2kCmdStop);
  open_ = false;
  return Status::Ok();
}

Status Ne2kDriver::Xmit(uint64_t frame_iova, uint32_t len, int32_t pool_buffer_id) {
  if (!open_) {
    return Status(ErrorCode::kUnavailable, "interface down");
  }
  Result<ByteSpan> frame = env_->DmaView(frame_iova, len);
  if (!frame.ok()) {
    return frame.status();
  }
  // PIO the frame into the card through the data port, then fire transmit.
  for (uint32_t i = 0; i < len; ++i) {
    Out(devices::kNe2kPortData, frame.value()[i]);
  }
  Out(devices::kNe2kPortTbcr0, static_cast<uint8_t>(len & 0xff));
  Out(devices::kNe2kPortTbcr1, static_cast<uint8_t>(len >> 8));
  Out(devices::kNe2kPortCmd, devices::kNe2kCmdStart | devices::kNe2kCmdTransmit);
  ++stats_.tx_frames;
  if (pool_buffer_id >= 0) {
    env_->FreeTxBuffers(0, {&pool_buffer_id, 1});
  }
  return Status::Ok();
}

Result<int> Ne2kDriver::Poll() {
  if (!open_) {
    return 0;
  }
  int delivered = 0;
  // Use a scratch DMA region as the landing area for netif_rx (the kernel
  // needs the bytes in driver-owned memory).
  static constexpr uint32_t kScratchBytes = 2048;
  if (scratch_iova_ == 0) {
    Result<DmaRegion> scratch = env_->DmaAllocCaching(kScratchBytes);
    if (!scratch.ok()) {
      return scratch.status();
    }
    scratch_iova_ = scratch.value().iova;
  }
  while ((In(devices::kNe2kPortIsr) & devices::kNe2kIsrRx) != 0) {
    uint16_t len = In(devices::kNe2kPortData);
    len |= static_cast<uint16_t>(In(devices::kNe2kPortData)) << 8;
    if (len == 0 || len > kScratchBytes) {
      break;
    }
    Result<ByteSpan> scratch = env_->DmaView(scratch_iova_, len);
    if (!scratch.ok()) {
      return scratch.status();
    }
    for (uint16_t i = 0; i < len; ++i) {
      scratch.value()[i] = In(devices::kNe2kPortData);
    }
    DmaFrag frame{scratch_iova_, len};
    (void)env_->NetifRx({&frame, 1});
    ++stats_.rx_frames;
    ++delivered;
  }
  return delivered;
}

}  // namespace sud::drivers
