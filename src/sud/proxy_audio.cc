#include "src/sud/proxy_audio.h"

#include <cstring>

#include "src/base/log.h"

namespace sud {

AudioProxy::AudioProxy(kern::Kernel* kernel, SudDeviceContext* ctx)
    : kernel_(kernel), ctx_(ctx) {
  ctx_->set_downcall_handler([this](UchanMsg& msg, uint16_t /*shard*/, wire::Malform verdict) {
    HandleDowncall(msg, verdict);
  });
}

Status AudioProxy::OpenStream(const kern::PcmConfig& config) {
  UchanMsg msg;
  msg.opcode = kAudioUpOpenStream;
  msg.args[0] = config.rate_hz;
  msg.args[1] = config.channels;
  msg.args[2] = config.sample_bytes;
  msg.args[3] = config.period_bytes;
  msg.args[4] = config.buffer_bytes;
  return ctx_->ctl().SendSync(std::move(msg)).status();
}

Status AudioProxy::CloseStream() {
  UchanMsg msg;
  msg.opcode = kAudioUpCloseStream;
  return ctx_->ctl().SendSync(std::move(msg)).status();
}

Status AudioProxy::WriteSamples(ConstByteSpan samples) {
  CpuModel& cpu = kernel_->machine().cpu();
  size_t offset = 0;
  while (offset < samples.size()) {
    Result<int32_t> buffer_id = ctx_->pool().Alloc();
    if (!buffer_id.ok()) {
      ++stats_.write_dropped;
      return Status(ErrorCode::kQueueFull, "audio driver not consuming buffers");
    }
    Result<ByteSpan> buffer = ctx_->pool().Buffer(buffer_id.value());
    if (!buffer.ok()) {
      return buffer.status();
    }
    size_t chunk = std::min<size_t>(samples.size() - offset, buffer.value().size());
    std::memcpy(buffer.value().data(), samples.data() + offset, chunk);
    cpu.ChargeBytes(kAccountKernel, cpu.costs().per_byte_copy, chunk);

    UchanMsg msg;
    msg.opcode = kAudioUpWrite;
    msg.buffer_id = buffer_id.value();
    msg.buffer_len = static_cast<uint32_t>(chunk);
    Status status = ctx_->ctl().SendAsync(std::move(msg));
    if (!status.ok()) {
      ctx_->pool().Free(buffer_id.value());
      ++stats_.write_dropped;
      return status;
    }
    ++stats_.write_upcalls;
    offset += chunk;
  }
  return Status::Ok();
}

void AudioProxy::HandleDowncall(UchanMsg& msg, wire::Malform verdict) {
  if (msg.opcode == kEthDownFreeBuffer) {
    // Shared-pool buffer return (generic). A batch the context refused on
    // its shape is still tolerated: the ids its payload carries are real
    // completions, salvaged exactly like the ethernet proxy.
    for (size_t i = 0; i < wire::FreeBufferPayloadCount(msg); ++i) {
      ctx_->pool().Free(wire::DecodeFreeBufferId(msg, i));
    }
    msg.error = 0;
    return;
  }
  if (verdict != wire::Malform::kNone) {
    return;  // refused and counted by the context
  }
  switch (msg.opcode) {
    case kAudioDownRegister: {
      if (pcm_ != nullptr) {
        msg.error = 0;  // restarted driver re-registering
        return;
      }
      std::string name = kernel_->audio().NextName("pcm");
      Result<kern::PcmDevice*> pcm = kernel_->audio().Register(name, this);
      if (!pcm.ok()) {
        msg.error = static_cast<int32_t>(pcm.status().code());
        return;
      }
      pcm_ = pcm.value();
      msg.error = 0;
      return;
    }
    case kAudioDownPeriodElapsed:
      if (pcm_ != nullptr) {
        pcm_->NotifyPeriodElapsed();
        ++stats_.periods_notified;
      }
      msg.error = 0;
      return;
    default:
      SUD_LOG(kWarning) << "audio proxy: unknown downcall opcode " << msg.opcode;
      msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      return;
  }
}

}  // namespace sud
