#include "src/sud/wire_schema.h"

#include <cstring>

#include "src/base/bytes.h"
#include "src/kern/net_limits.h"

namespace sud::wire {

namespace {

constexpr uint64_t kMaxQueueIndex = kSudMaxQueues - 1;

constexpr MessageSchema Msg(Dir dir, uint32_t opcode, const char* name, Lane lane) {
  MessageSchema s{};
  s.dir = dir;
  s.opcode = opcode;
  s.name = name;
  s.lane = lane;
  return s;
}

// kEthUpXmit tail fragments: {le32 pool id, le32 len}. Per-fragment lengths
// and the frame total (head included) are statically capped by the jumbo
// ceiling; whether a length fits ONE pool buffer is dynamic (the runtime's
// semantic check).
constexpr RecordSpec XmitFragRecord() {
  RecordSpec r{};
  r.bytes = kXmitFragBytes;
  r.fields[0] = FieldSpec{"pool_id", FieldType::kLe32, 0, 4, 0, 0x7fffffff};
  r.fields[1] = FieldSpec{"len", FieldType::kLe32, 4, 4, 1, kern::kJumboMaxFrameBytes};
  r.num_fields = 2;
  r.sum_field = 1;
  r.sum_max = kern::kJumboMaxFrameBytes;
  return r;
}

// kEthDownNetifRx tail fragments: {le64 iova, le32 len}. The iova has no
// static bound (whether it maps is the DMA space's semantic check); lengths
// and the frame total (head included) are capped by the jumbo ceiling — the
// tighter per-interface MTU bound is dynamic and stays in the proxy.
constexpr RecordSpec NetifRxFragRecord() {
  RecordSpec r{};
  r.bytes = kNetifRxFragBytes;
  r.fields[0] = FieldSpec{"iova", FieldType::kLe64, 0, 8, 0, UINT64_MAX};
  r.fields[1] = FieldSpec{"len", FieldType::kLe32, 8, 4, 1, kern::kJumboMaxFrameBytes};
  r.num_fields = 2;
  r.sum_field = 1;
  r.sum_max = kern::kJumboMaxFrameBytes;
  return r;
}

// kEthDownFreeBuffer records: one le32 pool buffer id each. Ids must look
// like non-negative int32s; whether they resolve is the pool's business
// (bogus ids are tolerated there and counted as double frees).
constexpr RecordSpec FreeBufferRecord() {
  RecordSpec r{};
  r.bytes = kFreeBufferIdBytes;
  r.fields[0] = FieldSpec{"pool_id", FieldType::kLe32, 0, 4, 0, 0x7fffffff};
  r.num_fields = 1;
  return r;
}

// kWifiDownSetBitrates records: one le32 rate each; a zero rate is garbage.
constexpr RecordSpec BitrateRecord() {
  RecordSpec r{};
  r.bytes = kWifiBitrateBytes;
  r.fields[0] = FieldSpec{"rate", FieldType::kLe32, 0, 4, 1, UINT32_MAX};
  r.num_fields = 1;
  return r;
}

// kWifiUpScan reply records: 6 (bssid) + 1 (channel) + 1 (signal) + 32
// (ssid, NUL-padded).
constexpr RecordSpec ScanRecord() {
  RecordSpec r{};
  r.bytes = kWifiScanRecordBytes;
  r.fields[0] = FieldSpec{"bssid", FieldType::kBytes, 0, 6, 0, 0};
  r.fields[1] = FieldSpec{"channel", FieldType::kU8, 6, 1, 0, 0xff};
  r.fields[2] = FieldSpec{"signal_dbm", FieldType::kI8, 7, 1, 0, 0xff};
  r.fields[3] = FieldSpec{"ssid", FieldType::kBytes, 8, 32, 0, 0};
  r.num_fields = 4;
  return r;
}

constexpr std::array<MessageSchema, kRegistryCapacity> BuildRegistry() {
  std::array<MessageSchema, kRegistryCapacity> reg{};
  size_t i = 0;

  // ---- upcalls (kernel -> driver), dispatched by UmlRuntime ---------------
  {
    MessageSchema s = Msg(Dir::kUp, kOpInterrupt, "interrupt", Lane::kQueue);
    s.args[0] = ArgSpec{"queue", kMaxQueueIndex};
    reg[i++] = s;
  }
  reg[i++] = Msg(Dir::kUp, kEthUpOpen, "eth_open", Lane::kControl);
  reg[i++] = Msg(Dir::kUp, kEthUpStop, "eth_stop", Lane::kControl);
  {
    MessageSchema s = Msg(Dir::kUp, kEthUpXmit, "eth_xmit", Lane::kQueue);
    s.droppable = true;
    s.carries_buffer = true;
    s.max_buffer_len = kern::kJumboMaxFrameBytes;
    s.args[0] = ArgSpec{"queue", kMaxQueueIndex};
    s.args[1] = ArgSpec{"tail_count", kern::kMaxChainFrags - 1};
    s.payload = PayloadKind::kRecords;
    s.count_arg = 1;
    s.max_records = kern::kMaxChainFrags - 1;
    s.record = XmitFragRecord();
    s.head = FrameHead::kBuffer;
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kUp, kEthUpIoctl, "eth_ioctl", Lane::kControl);
    s.args[0] = ArgSpec{"cmd", UINT32_MAX};
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kUp, kWifiUpScan, "wifi_scan", Lane::kControl);
    s.reply_payload = PayloadKind::kRecords;
    s.reply_record = ScanRecord();
    s.reply_max_records = kMaxScanRecords;
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kUp, kWifiUpAssociate, "wifi_associate", Lane::kControl);
    s.payload = PayloadKind::kRawBounded;
    s.min_bytes = 1;
    s.max_bytes = kMaxSsidBytes;
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kUp, kWifiUpEnableFeatures, "wifi_enable_features", Lane::kControl);
    s.args[0] = ArgSpec{"features", UINT32_MAX};
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kUp, kAudioUpOpenStream, "audio_open_stream", Lane::kControl);
    s.args[0] = ArgSpec{"rate_hz", UINT32_MAX};
    s.args[1] = ArgSpec{"channels", UINT32_MAX};
    s.args[2] = ArgSpec{"sample_bytes", UINT32_MAX};
    s.args[3] = ArgSpec{"period_bytes", UINT32_MAX};
    s.args[4] = ArgSpec{"buffer_bytes", UINT32_MAX};
    reg[i++] = s;
  }
  reg[i++] = Msg(Dir::kUp, kAudioUpCloseStream, "audio_close_stream", Lane::kControl);
  {
    MessageSchema s = Msg(Dir::kUp, kAudioUpWrite, "audio_write", Lane::kControl);
    s.carries_buffer = true;
    reg[i++] = s;
  }

  // ---- downcalls (driver -> kernel), checked by the device context -------
  {
    MessageSchema s = Msg(Dir::kDown, kOpInterruptAck, "interrupt_ack", Lane::kQueue);
    s.args[0] = ArgSpec{"queue", kMaxQueueIndex};
    reg[i++] = s;
  }
  reg[i++] = Msg(Dir::kDown, kOpRequestRegion, "request_region", Lane::kControl);
  {
    MessageSchema s = Msg(Dir::kDown, kOpPciFindCapability, "pci_find_capability", Lane::kControl);
    s.args[0] = ArgSpec{"cap_id", 0xff};
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kDown, kEthDownRegisterNetdev, "eth_register_netdev",
                          Lane::kControl);
    // Queue count, MTU, and feature bits are all kernel-CLAMPED, not
    // rejected (a lying driver cannot grow the attack surface, Section 3.1):
    // no static bound here.
    s.args[0] = ArgSpec{"num_queues", UINT64_MAX};
    s.args[1] = ArgSpec{"mtu", UINT64_MAX};
    s.args[2] = ArgSpec{"features", UINT64_MAX};
    s.payload = PayloadKind::kFixedBytes;
    s.fixed_bytes = 6;  // the MAC
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kDown, kEthDownNetifRx, "eth_netif_rx", Lane::kQueue);
    s.droppable = true;
    s.args[0] = ArgSpec{"iova", UINT64_MAX};
    s.args[1] = ArgSpec{"len", kern::kJumboMaxFrameBytes};
    s.args[2] = ArgSpec{"tail_count", kern::kMaxChainFrags - 1};
    s.payload = PayloadKind::kRecords;
    s.count_arg = 2;
    s.max_records = kern::kMaxChainFrags - 1;
    s.record = NetifRxFragRecord();
    s.head = FrameHead::kArgs;
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kDown, kEthDownSetCarrier, "eth_set_carrier", Lane::kControl);
    s.args[0] = ArgSpec{"carrier", 1};
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kDown, kEthDownFreeBuffer, "eth_free_buffer", Lane::kQueue);
    s.args[0] = ArgSpec{"count", kMaxFreeBufferIds};
    s.payload = PayloadKind::kRecords;
    s.count_arg = 0;
    s.min_records = 1;
    s.max_records = kMaxFreeBufferIds;
    s.record = FreeBufferRecord();
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kDown, kWifiDownRegister, "wifi_register", Lane::kControl);
    s.args[0] = ArgSpec{"supported_features", UINT32_MAX};
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kDown, kWifiDownBssChange, "wifi_bss_change", Lane::kControl);
    s.args[0] = ArgSpec{"associated", 1};
    reg[i++] = s;
  }
  {
    MessageSchema s = Msg(Dir::kDown, kWifiDownSetBitrates, "wifi_set_bitrates", Lane::kControl);
    s.payload = PayloadKind::kRecords;
    s.count_arg = -1;  // implicit: the payload size IS the count
    s.min_records = 0;
    s.max_records = kMaxWifiBitrates;
    s.record = BitrateRecord();
    reg[i++] = s;
  }
  reg[i++] = Msg(Dir::kDown, kAudioDownRegister, "audio_register", Lane::kControl);
  reg[i++] = Msg(Dir::kDown, kAudioDownPeriodElapsed, "audio_period_elapsed", Lane::kControl);
  {
    MessageSchema s = Msg(Dir::kDown, kUsbDownKeyEvent, "usb_key_event", Lane::kControl);
    s.args[0] = ArgSpec{"usage_code", 0xff};
    reg[i++] = s;
  }
  return reg;
}

constexpr std::array<MessageSchema, kRegistryCapacity> kRegistry = BuildRegistry();

constexpr size_t DeviceClassEntries() {
  size_t n = 0;
  for (const MessageSchema& s : kRegistry) {
    if (s.opcode >= kOpDeviceClassBase) {
      ++n;
    }
  }
  return n;
}

// Adding a message to proto.h without a registry entry here must not
// compile: bump kProtoMessageCount with the new constant and this assert
// fails until the schema exists (and wire_schema_test round-trips it).
static_assert(DeviceClassEntries() == kProtoMessageCount,
              "every proto.h message needs a wire-schema registry entry");
static_assert(kRegistryCapacity - DeviceClassEntries() == kGenericMessageCount,
              "generic (safe-pci) message count out of sync");

uint64_t LoadField(const FieldSpec& f, const uint8_t* record) {
  switch (f.type) {
    case FieldType::kU8:
    case FieldType::kI8:
      return record[f.offset];
    case FieldType::kLe32:
      return LoadLe32(record + f.offset);
    case FieldType::kLe64:
      return LoadLe64(record + f.offset);
    case FieldType::kBytes:
      return 0;  // opaque spans have no scalar value to bound
  }
  return 0;
}

// `sum` starts at the head fragment's length (0 when there is none).
Malform ValidateRecords(const RecordSpec& record, uint32_t min_records, uint32_t max_records,
                        int8_t count_arg, const UchanMsg& msg,
                        const std::vector<uint8_t>& payload, uint64_t sum) {
  if (record.bytes == 0 || payload.size() % record.bytes != 0) {
    return Malform::kPayloadSize;
  }
  size_t count = payload.size() / record.bytes;
  if (count_arg >= 0 && msg.args[static_cast<size_t>(count_arg)] != count) {
    return Malform::kCountMismatch;
  }
  if (count < min_records || count > max_records) {
    return Malform::kCountMismatch;
  }
  for (size_t r = 0; r < count; ++r) {
    const uint8_t* bytes = payload.data() + r * record.bytes;
    for (size_t f = 0; f < record.num_fields; ++f) {
      const FieldSpec& field = record.fields[f];
      if (field.type == FieldType::kBytes) {
        continue;
      }
      uint64_t value = LoadField(field, bytes);
      if (value < field.min || value > field.max) {
        return Malform::kFieldRange;
      }
      if (record.sum_field == static_cast<int8_t>(f)) {
        sum += value;
      }
    }
  }
  if (record.sum_field >= 0 && sum > record.sum_max) {
    return Malform::kFieldRange;
  }
  return Malform::kNone;
}

}  // namespace

const char* MalformName(Malform verdict) {
  switch (verdict) {
    case Malform::kNone:
      return "none";
    case Malform::kUnknownOpcode:
      return "unknown_opcode";
    case Malform::kWrongLane:
      return "wrong_lane";
    case Malform::kArgRange:
      return "arg_range";
    case Malform::kPayloadSize:
      return "payload_size";
    case Malform::kCountMismatch:
      return "count_mismatch";
    case Malform::kFieldRange:
      return "field_range";
  }
  return "none";
}

const MessageSchema* FindSchema(Dir dir, uint32_t opcode) {
  for (const MessageSchema& s : kRegistry) {
    if (s.dir == dir && s.opcode == opcode) {
      return &s;
    }
  }
  return nullptr;
}

const MessageSchema& SchemaAt(size_t index) { return kRegistry[index]; }

int SchemaIndexOf(Dir dir, uint32_t opcode) {
  for (size_t i = 0; i < kRegistry.size(); ++i) {
    if (kRegistry[i].dir == dir && kRegistry[i].opcode == opcode) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Malform ValidateStructure(Dir dir, const UchanMsg& msg, uint16_t shard) {
  const MessageSchema* s = FindSchema(dir, msg.opcode);
  if (s == nullptr) {
    return Malform::kUnknownOpcode;
  }
  if (s->lane == Lane::kControl && shard != 0) {
    return Malform::kWrongLane;
  }
  for (size_t i = 0; i < s->args.size(); ++i) {
    if (s->args[i].name == nullptr) {
      // A dead slot carrying bytes is forged garbage, not padding.
      if (msg.args[i] != 0) {
        return Malform::kArgRange;
      }
    } else if (msg.args[i] > s->args[i].max) {
      return Malform::kArgRange;
    }
  }
  if (s->carries_buffer) {
    if (msg.buffer_len > s->max_buffer_len) {
      return Malform::kArgRange;
    }
  } else if (msg.buffer_id != -1 || msg.buffer_len != 0) {
    return Malform::kArgRange;
  }
  uint64_t head_len = HeadLength(*s, msg);
  if (s->head != FrameHead::kNone && head_len == 0) {
    return Malform::kArgRange;
  }
  switch (s->payload) {
    case PayloadKind::kNone:
      return msg.inline_data.empty() ? Malform::kNone : Malform::kPayloadSize;
    case PayloadKind::kFixedBytes:
      return msg.inline_data.size() == s->fixed_bytes ? Malform::kNone : Malform::kPayloadSize;
    case PayloadKind::kRawBounded:
      return msg.inline_data.size() >= s->min_bytes && msg.inline_data.size() <= s->max_bytes
                 ? Malform::kNone
                 : Malform::kPayloadSize;
    case PayloadKind::kRecords:
      if (msg.inline_data.empty() && s->min_records == 0) {
        // Nothing to walk (every one-fragment frame): the count must say so,
        // and the head alone must fit the frame cap.
        if (s->count_arg >= 0 && msg.args[static_cast<size_t>(s->count_arg)] != 0) {
          return Malform::kCountMismatch;
        }
        return s->record.sum_field < 0 || head_len <= s->record.sum_max ? Malform::kNone
                                                                        : Malform::kFieldRange;
      }
      return ValidateRecords(s->record, s->min_records, s->max_records, s->count_arg, msg,
                             msg.inline_data, head_len);
  }
  return Malform::kNone;
}

Malform ValidateReplyStructure(const MessageSchema& schema, const UchanMsg& reply) {
  switch (schema.reply_payload) {
    case PayloadKind::kNone:
      return Malform::kNone;  // reply payloads are free-form unless declared
    case PayloadKind::kRecords:
      return ValidateRecords(schema.reply_record, 0, schema.reply_max_records,
                             /*count_arg=*/-1, reply, reply.inline_data, /*sum=*/0);
    default:
      return Malform::kNone;
  }
}

std::vector<std::pair<std::string, uint64_t>> RejectStats::NonZero() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t i = 0; i < kRegistryCapacity; ++i) {
    uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n > 0) {
      out.emplace_back(kRegistry[i].name, n);
    }
  }
  if (uint64_t n = counts_[kRegistryCapacity].load(std::memory_order_relaxed); n > 0) {
    out.emplace_back("unknown_opcode", n);
  }
  return out;
}

// ---- typed codec ------------------------------------------------------------

void EncodeXmit(uint16_t queue, const int32_t* ids, const uint32_t* lens, size_t count,
                UchanMsg* msg) {
  msg->opcode = kEthUpXmit;
  msg->droppable = true;  // loss-tolerant data plane: fault-injection eligible
  msg->args[0] = queue;
  msg->args[1] = count - 1;
  msg->buffer_id = ids[0];
  msg->buffer_len = lens[0];
  msg->inline_data.resize((count - 1) * kXmitFragBytes);
  for (size_t i = 1; i < count; ++i) {
    uint8_t* record = msg->inline_data.data() + (i - 1) * kXmitFragBytes;
    StoreLe32(record, static_cast<uint32_t>(ids[i]));
    StoreLe32(record + 4, lens[i]);
  }
}

void EncodeNetifRx(std::span<const DmaFrag> frags, UchanMsg* msg) {
  msg->opcode = kEthDownNetifRx;
  msg->droppable = true;  // loss-tolerant data plane: fault-injection eligible
  msg->args[0] = frags[0].iova;
  msg->args[1] = frags[0].len;
  msg->args[2] = frags.size() - 1;
  msg->inline_data.resize((frags.size() - 1) * kNetifRxFragBytes);
  for (size_t i = 1; i < frags.size(); ++i) {
    uint8_t* record = msg->inline_data.data() + (i - 1) * kNetifRxFragBytes;
    StoreLe64(record, frags[i].iova);
    StoreLe32(record + 8, frags[i].len);
  }
}

void EncodeFreeBuffers(const int32_t* ids, size_t count, UchanMsg* msg) {
  msg->opcode = kEthDownFreeBuffer;
  msg->args[0] = count;
  msg->inline_data.resize(count * kFreeBufferIdBytes);
  for (size_t i = 0; i < count; ++i) {
    StoreLe32(msg->inline_data.data() + i * kFreeBufferIdBytes, static_cast<uint32_t>(ids[i]));
  }
}

int32_t DecodeFreeBufferId(const UchanMsg& msg, size_t index) {
  return static_cast<int32_t>(LoadLe32(msg.inline_data.data() + index * kFreeBufferIdBytes));
}

size_t FreeBufferPayloadCount(const UchanMsg& msg) {
  return msg.inline_data.size() / kFreeBufferIdBytes;
}

void EncodeBitrates(const std::vector<uint32_t>& rates, UchanMsg* msg) {
  msg->opcode = kWifiDownSetBitrates;
  msg->inline_data.resize(rates.size() * kWifiBitrateBytes);
  for (size_t i = 0; i < rates.size(); ++i) {
    StoreLe32(msg->inline_data.data() + i * kWifiBitrateBytes, rates[i]);
  }
}

std::vector<uint32_t> DecodeBitrates(const UchanMsg& msg) {
  std::vector<uint32_t> rates;
  size_t count = msg.inline_data.size() / kWifiBitrateBytes;
  rates.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    rates.push_back(LoadLe32(msg.inline_data.data() + i * kWifiBitrateBytes));
  }
  return rates;
}

void EncodeScanResults(const std::vector<kern::ScanResult>& results,
                       std::vector<uint8_t>* out) {
  for (const kern::ScanResult& r : results) {
    size_t off = out->size();
    out->resize(off + kWifiScanRecordBytes, 0);
    std::memcpy(out->data() + off, r.bssid.data(), 6);
    (*out)[off + 6] = r.channel;
    (*out)[off + 7] = static_cast<uint8_t>(r.signal_dbm);
    // Truncated to 31 so the record's final byte is always NUL.
    std::memcpy(out->data() + off + 8, r.ssid.data(), std::min<size_t>(r.ssid.size(), 31));
  }
}

std::vector<kern::ScanResult> DecodeScanResults(const std::vector<uint8_t>& payload) {
  std::vector<kern::ScanResult> results;
  for (size_t off = 0; off + kWifiScanRecordBytes <= payload.size();
       off += kWifiScanRecordBytes) {
    kern::ScanResult result;
    std::memcpy(result.bssid.data(), payload.data() + off, 6);
    result.channel = payload[off + 6];
    result.signal_dbm = static_cast<int8_t>(payload[off + 7]);
    const char* ssid = reinterpret_cast<const char*>(payload.data() + off + 8);
    result.ssid.assign(ssid, strnlen(ssid, kMaxSsidBytes));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace sud::wire
