// Declarative wire schema for the uchan protocol: ONE definition per message
// (direction, queue discipline, per-arg bounds, inline-payload record layout;
// proto.h says which are sync), from which everything else derives —
//
//   * the typed encode/decode codec both sides marshal through (no hand-rolled
//     StoreLe32/LoadLe32 at the call sites),
//   * the structural validator that runs at the trust boundary BEFORE the
//     semantic checks (pool-id resolution, DMA-space lookups, MTU clamps stay
//     in the handlers — but they never parse garbage: by the time a handler
//     sees a message, its shape is schema-certified),
//   * the per-message rejection stat every boundary counts malformed traffic
//     in (RejectStats), and
//   * the structure-aware protocol fuzzer (bench/fuzz_wire.cc), which reads
//     the same table to build valid messages and bounded mutations of them.
//
// The split between structural and semantic is deliberate and load-bearing:
// structural facts are STATIC (stride, counts vs payload, compile-time field
// bounds like the jumbo ceiling or the chain cap) and belong here; anything
// that depends on runtime state (which pool ids resolve, the interface's
// declared MTU, the driver's DMA mappings) stays in the handler that owns
// that state, with its historical counters. A message can therefore fail
// structurally (counted in RejectStats) or semantically (counted where it
// always was) — the attack-matrix containment accounting is unchanged.

#ifndef SUD_SRC_SUD_WIRE_SCHEMA_H_
#define SUD_SRC_SUD_WIRE_SCHEMA_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/base/bytes.h"
#include "src/kern/wireless.h"
#include "src/sud/dma_space.h"
#include "src/sud/proto.h"
#include "src/sud/uchan.h"

namespace sud::wire {

// Message direction. Opcode spaces OVERLAP across directions (kOpInterrupt
// and kOpInterruptAck are both 1; kEthUpOpen and kEthDownRegisterNetdev are
// both kOpDeviceClassBase+0), so every registry lookup is keyed by BOTH.
enum class Dir : uint8_t {
  kUp,    // kernel -> driver (upcall), dispatched by UmlRuntime
  kDown,  // driver -> kernel (downcall), checked by SudDeviceContext
};

// Queue discipline: control messages ride shard 0 only; packet-path messages
// ride the shard of the queue they belong to (any shard is legal — the
// receiver trusts the SHARD, never a marshalled queue index).
enum class Lane : uint8_t { kControl, kQueue };

enum class FieldType : uint8_t { kU8, kI8, kLe32, kLe64, kBytes };

// One field of an inline-payload record. min/max bound scalar fields
// (inclusive, STATIC values only); kBytes fields, opaque spans, read as 0.
struct FieldSpec {
  const char* name = nullptr;
  FieldType type = FieldType::kLe32;
  uint16_t offset = 0;
  uint16_t size = 0;
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
};

inline constexpr size_t kMaxRecordFields = 4;

struct RecordSpec {
  uint16_t bytes = 0;  // record stride; payload size must be a multiple
  std::array<FieldSpec, kMaxRecordFields> fields{};
  uint8_t num_fields = 0;
  // If >= 0: index of the field whose values, summed over every record (plus
  // the message's head fragment, see FrameHead), must not exceed sum_max
  // (the data plane's static frame-total ceiling).
  int8_t sum_field = -1;
  uint64_t sum_max = 0;
};

// Fragment-list messages (the Ethernet data plane) carry a frame's FIRST
// fragment in fixed fields and any further fragments as records. The head
// must be non-empty, and its length joins the record sum, so the static
// frame-total cap covers head plus tail.
enum class FrameHead : uint8_t {
  kNone,
  kBuffer,  // buffer_id / buffer_len (kEthUpXmit)
  kArgs,    // args[0] iova / args[1] len (kEthDownNetifRx)
};

enum class PayloadKind : uint8_t {
  kNone,        // inline_data must be empty
  kFixedBytes,  // inline_data must be exactly fixed_bytes long
  kRawBounded,  // free-form bytes, size within [min_bytes, max_bytes]
  kRecords,     // an array of RecordSpec-shaped records
};

// One args[i] slot. A null name means the slot is UNUSED and must be zero
// on the wire (forged garbage in dead slots is malformed, not ignored).
struct ArgSpec {
  const char* name = nullptr;
  uint64_t max = UINT64_MAX;  // inclusive static bound
};

struct MessageSchema {
  uint32_t opcode = 0;
  const char* name = nullptr;  // the rejection-stat name
  Dir dir = Dir::kDown;
  Lane lane = Lane::kControl;
  bool droppable = false;       // loss-tolerant data plane (fault-injectable)
  bool carries_buffer = false;  // buffer_id/buffer_len legal on this message
  uint32_t max_buffer_len = UINT32_MAX;
  std::array<ArgSpec, 6> args{};
  PayloadKind payload = PayloadKind::kNone;
  uint32_t fixed_bytes = 0;  // kFixedBytes
  uint32_t min_bytes = 0;    // kRawBounded
  uint32_t max_bytes = 0;    // kRawBounded
  // kRecords: the args slot carrying the record count (-1: count is implicit
  // from the payload size), and the static record-count bounds.
  int8_t count_arg = -1;
  uint32_t min_records = 0;
  uint32_t max_records = 0;
  RecordSpec record{};
  FrameHead head = FrameHead::kNone;
  // Sync messages whose REPLY carries records (kWifiUpScan). Against a zero
  // stride, ValidateReplyStructure refuses every reply, even an empty one.
  RecordSpec reply_record{};
  uint32_t reply_max_records = 0;
};

// Structural verdicts, most specific first. kNone means the shape is valid.
enum class Malform : uint8_t {
  kNone = 0,
  kUnknownOpcode,  // no schema for (dir, opcode)
  kWrongLane,      // control-lane message delivered on a queue shard
  kArgRange,       // an args slot out of bounds (or a dead slot non-zero),
                   // an illegal buffer_id/buffer_len attachment, or a
                   // zero-length head fragment
  kPayloadSize,    // inline payload size violates the schema shape
  kCountMismatch,  // count arg disagrees with the payload, or count bounds
  kFieldRange,     // a record field outside its static bound (or sum cap)
};

const char* MalformName(Malform verdict);

// ---- registry ---------------------------------------------------------------

// Generic (device-class-independent) messages: interrupt forwarding up;
// interrupt_ack / request_region / pci_find_capability down.
inline constexpr size_t kGenericMessageCount = 4;
inline constexpr size_t kRegistryCapacity = kProtoMessageCount + kGenericMessageCount;

const MessageSchema* FindSchema(Dir dir, uint32_t opcode);
const MessageSchema& SchemaAt(size_t index);
constexpr size_t SchemaCount() { return kRegistryCapacity; }
// Registry index of (dir, opcode), or -1 when unknown.
int SchemaIndexOf(Dir dir, uint32_t opcode);

// ---- validator --------------------------------------------------------------

// Structural validation of a request message as delivered on `shard`. Static
// shape only — see the header comment for the structural/semantic split.
Malform ValidateStructure(Dir dir, const UchanMsg& msg, uint16_t shard = 0);

// Structural validation of a sync REPLY's payload against the request
// schema's reply records (a schema with none refuses every payload).
Malform ValidateReplyStructure(const MessageSchema& schema, const UchanMsg& reply);

// ---- rejection accounting ---------------------------------------------------

// The uniform per-message rejection stat: one counter per registry entry plus
// one for unknown opcodes. Each trust boundary (every device context for
// downcalls, the runtime for upcalls) owns one and bumps it for every
// structural rejection.
class RejectStats {
 public:
  void Count(Dir dir, uint32_t opcode) {
    int index = SchemaIndexOf(dir, opcode);
    size_t slot = index < 0 ? kRegistryCapacity : static_cast<size_t>(index);
    counts_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t rejected(Dir dir, uint32_t opcode) const {
    int index = SchemaIndexOf(dir, opcode);
    return index < 0 ? 0 : counts_[static_cast<size_t>(index)].load(std::memory_order_relaxed);
  }
  uint64_t unknown_opcode() const {
    return counts_[kRegistryCapacity].load(std::memory_order_relaxed);
  }
  uint64_t total() const {
    uint64_t sum = 0;
    for (const auto& c : counts_) {
      sum += c.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::array<std::atomic<uint64_t>, kRegistryCapacity + 1> counts_{};
};

// ---- typed codec ------------------------------------------------------------
// Encoders marshal EXACTLY what they are given — including hostile shapes a
// malicious driver asks for (over-cap chains, criminal totals): honesty lives
// at the receiving boundary's validator, not in the sender's marshaller.

struct XmitFrag {
  int32_t pool_id = 0;
  uint32_t len = 0;
};

// Length of a fragment-list message's head fragment (0 for other messages),
// and its setter for the generators that build messages off the table.
inline uint64_t HeadLength(const MessageSchema& schema, const UchanMsg& msg) {
  switch (schema.head) {
    case FrameHead::kBuffer:
      return msg.buffer_len;
    case FrameHead::kArgs:
      return msg.args[1];
    case FrameHead::kNone:
      break;
  }
  return 0;
}
inline void SetHeadLength(const MessageSchema& schema, uint64_t len, UchanMsg* msg) {
  if (schema.head == FrameHead::kBuffer) {
    msg->buffer_len = static_cast<uint32_t>(len);
  } else if (schema.head == FrameHead::kArgs) {
    msg->args[1] = len;
  }
}

// kEthUpXmit: args[0] = TX queue, the head fragment in buffer_id/buffer_len,
// args[1] = tail count, one 8-byte {le32 pool id, le32 len} record per tail
// fragment. `ids`/`lens` are the whole frame, head first (count >= 1); a
// one-fragment frame leaves inline_data empty. The accessors are inline:
// both boundaries decode every frame.
void EncodeXmit(uint16_t queue, const int32_t* ids, const uint32_t* lens, size_t count,
                UchanMsg* msg);
inline size_t XmitFragCount(const UchanMsg& msg) {
  return 1 + msg.inline_data.size() / kXmitFragBytes;
}
inline XmitFrag XmitFragAt(const UchanMsg& msg, size_t index) {
  if (index == 0) {
    return XmitFrag{msg.buffer_id, msg.buffer_len};
  }
  const uint8_t* record = msg.inline_data.data() + (index - 1) * kXmitFragBytes;
  return XmitFrag{static_cast<int32_t>(LoadLe32(record)), LoadLe32(record + 4)};
}

// kEthDownNetifRx: the head fragment in args[0] (iova) / args[1] (len),
// args[2] = tail count, one 12-byte {le64 iova, le32 len} record per tail
// fragment. `frags` is the whole frame, head first, and must not be empty.
void EncodeNetifRx(std::span<const DmaFrag> frags, UchanMsg* msg);
inline size_t NetifRxFragCount(const UchanMsg& msg) {
  return 1 + msg.inline_data.size() / kNetifRxFragBytes;
}
inline DmaFrag NetifRxFragAt(const UchanMsg& msg, size_t index) {
  if (index == 0) {
    return DmaFrag{msg.args[0], static_cast<uint32_t>(msg.args[1])};
  }
  const uint8_t* record = msg.inline_data.data() + (index - 1) * kNetifRxFragBytes;
  return DmaFrag{LoadLe64(record), LoadLe32(record + 8)};
}

// kEthDownFreeBuffer, unified layout: args[0] = id count, one 4-byte le32
// buffer id per record — a single completion is simply a batch of one (the
// legacy empty-payload single-id layout is gone from the protocol).
// Receivers read the ids the PAYLOAD carries, whatever the count arg claims:
// one path for a valid batch and a salvaged malformed one.
void EncodeFreeBuffers(const int32_t* ids, size_t count, UchanMsg* msg);
int32_t DecodeFreeBufferId(const UchanMsg& msg, size_t index);
size_t FreeBufferPayloadCount(const UchanMsg& msg);

// kWifiDownSetBitrates: implicit-count le32 rate records (mirror update).
void EncodeBitrates(const std::vector<uint32_t>& rates, UchanMsg* msg);
std::vector<uint32_t> DecodeBitrates(const UchanMsg& msg);

// kWifiUpScan reply records: 6 (bssid) + 1 (channel) + 1 (signal) + 32
// (ssid, NUL-padded; truncated to 31 so the last byte stays NUL).
void EncodeScanResults(const std::vector<kern::ScanResult>& results,
                       std::vector<uint8_t>* out);
std::vector<kern::ScanResult> DecodeScanResults(const std::vector<uint8_t>& payload);

}  // namespace sud::wire

#endif  // SUD_SRC_SUD_WIRE_SCHEMA_H_
