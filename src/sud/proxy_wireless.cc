#include "src/sud/proxy_wireless.h"

#include "src/base/log.h"

namespace sud {

WirelessProxy::WirelessProxy(kern::Kernel* kernel, SudDeviceContext* ctx)
    : kernel_(kernel), ctx_(ctx) {
  ctx_->set_downcall_handler([this](UchanMsg& msg, uint16_t /*shard*/, wire::Malform verdict) {
    if (verdict == wire::Malform::kNone) {
      HandleDowncall(msg);  // a refused shape stays refused: nothing to salvage
    }
  });
}

uint32_t WirelessProxy::EnableFeatures(uint32_t requested) {
  // Called with the kernel in a non-preemptable context. A synchronous
  // upcall here would be a design violation (it could sleep); the proxy
  // answers from the mirror and queues an async upcall instead.
  uint32_t enabled = requested & mirrored_supported_features_;
  UchanMsg msg;
  msg.opcode = kWifiUpEnableFeatures;
  msg.args[0] = enabled;
  Status status = ctx_->ctl().SendAsync(std::move(msg));
  if (status.ok()) {
    ++stats_.feature_upcalls_queued;
  }
  return enabled;
}

Result<std::vector<kern::ScanResult>> WirelessProxy::Scan() {
  if (kernel_->InAtomicContext()) {
    ++stats_.atomic_violations;
    return Status(ErrorCode::kInternal, "sync upcall from non-preemptable context");
  }
  ++stats_.scans;
  UchanMsg msg;
  msg.opcode = kWifiUpScan;
  Result<UchanMsg> reply = ctx_->ctl().SendSync(std::move(msg));
  if (!reply.ok()) {
    return reply.status();
  }
  // The reply payload is driver-marshalled: certify its record shape against
  // the schema before decoding — a ragged or oversize result list is an
  // attack on the scan parser, not a tolerable fuzz.
  const wire::MessageSchema* schema = wire::FindSchema(wire::Dir::kUp, kWifiUpScan);
  wire::Malform verdict = wire::ValidateReplyStructure(*schema, reply.value());
  if (verdict != wire::Malform::kNone) {
    SUD_LOG(kAttack) << "wireless proxy: malformed scan reply rejected ("
                     << wire::MalformName(verdict) << ")";
    return Status(ErrorCode::kInvalidArgument, "malformed scan reply");
  }
  return wire::DecodeScanResults(reply.value().inline_data);
}

Status WirelessProxy::Associate(const std::string& ssid) {
  if (kernel_->InAtomicContext()) {
    ++stats_.atomic_violations;
    return Status(ErrorCode::kInternal, "sync upcall from non-preemptable context");
  }
  UchanMsg msg;
  msg.opcode = kWifiUpAssociate;
  msg.inline_data.assign(ssid.begin(), ssid.end());
  return ctx_->ctl().SendSync(std::move(msg)).status();
}

void WirelessProxy::HandleDowncall(UchanMsg& msg) {
  // Schema-certified by the context (the wireless lanes are all control
  // traffic: anything off shard 0 was refused there).
  switch (msg.opcode) {
    case kWifiDownRegister: {
      mirrored_supported_features_ = static_cast<uint32_t>(msg.args[0]);
      if (wdev_ != nullptr) {
        msg.error = 0;  // restarted driver re-registering
        return;
      }
      std::string name = kernel_->wireless().NextName("wlan");
      Result<kern::WirelessDevice*> wdev =
          kernel_->wireless().Register(name, this, mirrored_supported_features_);
      if (!wdev.ok()) {
        msg.error = static_cast<int32_t>(wdev.status().code());
        return;
      }
      wdev_ = wdev.value();
      msg.error = 0;
      return;
    }
    case kWifiDownBssChange:
      if (wdev_ != nullptr) {
        wdev_->NotifyBssChange(msg.args[0] != 0);
      }
      msg.error = 0;
      return;
    case kWifiDownSetBitrates: {
      // Mirror update: currently-available bitrates (Section 3.3).
      if (wdev_ != nullptr) {
        wdev_->set_bitrates(wire::DecodeBitrates(msg));
      }
      msg.error = 0;
      return;
    }
    default:
      SUD_LOG(kWarning) << "wireless proxy: unknown downcall opcode " << msg.opcode;
      msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      return;
  }
}

}  // namespace sud
