#include "src/drivers/snd_hda.h"

#include <cstring>

#include "src/base/log.h"

namespace sud::drivers {

Status SndHdaDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  SUD_RETURN_IF_ERROR(env.RequestIrq([this]() { IrqHandler(); }));

  uml::AudioDriverOps ops;
  ops.open_stream = [this](const kern::PcmConfig& config) { return OpenStream(config); };
  ops.close_stream = [this]() { return CloseStream(); };
  ops.write = [this](uint64_t iova, uint32_t len, int32_t id) { return Write(iova, len, id); };
  return env.RegisterAudio(std::move(ops));
}

Status SndHdaDriver::OpenStream(const kern::PcmConfig& config) {
  if (stream_open_) {
    return Status(ErrorCode::kAlreadyExists, "stream already open");
  }
  if (ring_.bytes == 0) {
    Result<DmaRegion> ring = env_->DmaAllocCoherent(config.buffer_bytes);
    if (!ring.ok()) {
      return ring.status();
    }
    ring_ = ring.value();
  }
  ring_bytes_ = config.buffer_bytes;
  write_pos_ = 0;

  SUD_RETURN_IF_ERROR(
      env_->MmioWrite32(0, devices::kAudioRegRingLo, static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(
      env_->MmioWrite32(0, devices::kAudioRegRingHi, static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kAudioRegRingBytes, ring_bytes_));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kAudioRegPeriodBytes, config.period_bytes));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kAudioRegRate, config.bytes_per_second()));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kAudioRegIms,
                                        devices::kAudioIntPeriod | devices::kAudioIntUnderrun));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kAudioRegCtl, devices::kAudioCtlRun));
  stream_open_ = true;
  return Status::Ok();
}

Status SndHdaDriver::CloseStream() {
  if (!stream_open_) {
    return Status(ErrorCode::kUnavailable, "no open stream");
  }
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kAudioRegCtl, 0));
  stream_open_ = false;
  return Status::Ok();
}

Status SndHdaDriver::Write(uint64_t samples_iova, uint32_t len, int32_t pool_buffer_id) {
  Status copied = CopyToRing(samples_iova, len);
  if (pool_buffer_id >= 0) {
    env_->FreeTxBuffers(0, {&pool_buffer_id, 1});
  }
  return copied;
}

Status SndHdaDriver::CopyToRing(uint64_t samples_iova, uint32_t len) {
  if (!stream_open_) {
    return Status(ErrorCode::kUnavailable, "no open stream");
  }
  Result<ByteSpan> samples = env_->DmaView(samples_iova, len);
  if (!samples.ok()) {
    return samples.status();
  }
  uint32_t copied = 0;
  while (copied < len) {
    uint32_t pos = write_pos_ % ring_bytes_;
    uint32_t chunk = std::min(len - copied, ring_bytes_ - pos);
    Result<ByteSpan> ring = env_->DmaView(ring_.iova + pos, chunk);
    if (!ring.ok()) {
      return ring.status();
    }
    std::memcpy(ring.value().data(), samples.value().data() + copied, chunk);
    write_pos_ = (write_pos_ + chunk) % ring_bytes_;
    copied += chunk;
  }
  ++stats_.writes;
  stats_.bytes_written += len;
  return Status::Ok();
}

void SndHdaDriver::IrqHandler() {
  Result<uint32_t> icr = env_->MmioRead32(0, devices::kAudioRegIcr);
  if (!icr.ok()) {
    return;
  }
  if ((icr.value() & devices::kAudioIntPeriod) != 0) {
    ++stats_.period_irqs;
    env_->AudioPeriodElapsed();
  }
  if ((icr.value() & devices::kAudioIntUnderrun) != 0) {
    ++stats_.underrun_irqs;
  }
}

}  // namespace sud::drivers
