// Wire-schema property tests: for EVERY message in the registry, a
// schema-derived canonical message round-trips the validator (encode ->
// kNone), and every single-field mutation of it — dead args, out-of-range
// args, illegal buffer attachments, resized payloads, count/payload
// mismatches, out-of-bounds record fields, sum-cap violations, wrong-shard
// delivery — is rejected. Table-driven off the registry itself, so a message
// added to proto.h without a schema fails the completeness checks here (and
// the static_assert in wire_schema.cc fails the build first).

#include <gtest/gtest.h>

#include <set>

#include "src/kern/net_limits.h"
#include "src/sud/proto.h"
#include "src/sud/wire_schema.h"

namespace sud::wire {
namespace {

// Canonical valid message for a schema: every named arg at a small in-bound
// value, dead slots zero, records populated at their fields' minimum legal
// values, the count arg consistent with the payload.
UchanMsg ValidMessageFor(const MessageSchema& s) {
  UchanMsg msg;
  msg.opcode = s.opcode;
  msg.droppable = s.droppable;
  for (size_t i = 0; i < s.args.size(); ++i) {
    if (s.args[i].name != nullptr) {
      msg.args[i] = std::min<uint64_t>(1, s.args[i].max);
    }
  }
  if (s.carries_buffer) {
    msg.buffer_id = 3;
    msg.buffer_len = std::min<uint32_t>(64, s.max_buffer_len);
  }
  switch (s.payload) {
    case PayloadKind::kNone:
      break;
    case PayloadKind::kFixedBytes:
      msg.inline_data.assign(s.fixed_bytes, 0xab);
      break;
    case PayloadKind::kRawBounded:
      msg.inline_data.assign(std::max<uint32_t>(s.min_bytes, 1), 0x61);
      break;
    case PayloadKind::kRecords: {
      size_t count = std::min<uint64_t>(std::max<uint32_t>(s.min_records, 2), s.max_records);
      msg.inline_data.assign(count * s.record.bytes, 0);
      for (size_t r = 0; r < count; ++r) {
        uint8_t* record = msg.inline_data.data() + r * s.record.bytes;
        for (size_t f = 0; f < s.record.num_fields; ++f) {
          const FieldSpec& field = s.record.fields[f];
          uint64_t value = field.min;
          for (uint16_t b = 0; b < field.size && field.type != FieldType::kBytes; ++b) {
            record[field.offset + b] = static_cast<uint8_t>(value >> (8 * b));
          }
        }
      }
      if (s.count_arg >= 0) {
        msg.args[static_cast<size_t>(s.count_arg)] = count;
      }
      break;
    }
  }
  return msg;
}

// Writes `value` little-endian into record `r`, field `f` of the payload.
void PokeField(UchanMsg* msg, const RecordSpec& record, size_t r, size_t f, uint64_t value) {
  const FieldSpec& field = record.fields[f];
  uint8_t* bytes = msg->inline_data.data() + r * record.bytes + field.offset;
  for (uint16_t b = 0; b < field.size; ++b) {
    bytes[b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

TEST(WireSchema, RegistryIsCompleteAndUnique) {
  std::set<std::pair<int, uint32_t>> keys;
  for (size_t i = 0; i < SchemaCount(); ++i) {
    const MessageSchema& s = SchemaAt(i);
    ASSERT_NE(s.name, nullptr) << "registry entry " << i << " has no name";
    EXPECT_TRUE(keys.insert({static_cast<int>(s.dir), s.opcode}).second)
        << "duplicate registry entry for opcode " << s.opcode;
  }
  // Every message proto.h defines must resolve to a schema. Adding an opcode
  // there without extending this list (and the registry) trips the
  // kProtoMessageCount static_assert at build time; this enumerates the
  // mapping explicitly so a *renumbered* opcode cannot silently alias.
  const std::pair<Dir, uint32_t> kAll[] = {
      {Dir::kUp, kOpInterrupt},          {Dir::kUp, kEthUpOpen},
      {Dir::kUp, kEthUpStop},            {Dir::kUp, kEthUpXmit},
      {Dir::kUp, kEthUpIoctl},           {Dir::kUp, kWifiUpScan},
      {Dir::kUp, kWifiUpAssociate},      {Dir::kUp, kWifiUpEnableFeatures},
      {Dir::kUp, kAudioUpOpenStream},    {Dir::kUp, kAudioUpCloseStream},
      {Dir::kUp, kAudioUpWrite},         {Dir::kDown, kOpInterruptAck},
      {Dir::kDown, kOpRequestRegion},    {Dir::kDown, kOpPciFindCapability},
      {Dir::kDown, kEthDownRegisterNetdev}, {Dir::kDown, kEthDownNetifRx},
      {Dir::kDown, kEthDownSetCarrier},  {Dir::kDown, kEthDownFreeBuffer},
      {Dir::kDown, kWifiDownRegister},   {Dir::kDown, kWifiDownBssChange},
      {Dir::kDown, kWifiDownSetBitrates}, {Dir::kDown, kAudioDownRegister},
      {Dir::kDown, kAudioDownPeriodElapsed}, {Dir::kDown, kUsbDownKeyEvent},
  };
  EXPECT_EQ(std::size(kAll), 24u);
  EXPECT_EQ(std::size(kAll), SchemaCount());
  for (const auto& [dir, opcode] : kAll) {
    EXPECT_NE(FindSchema(dir, opcode), nullptr) << "no schema for opcode " << opcode;
  }
}

TEST(WireSchema, EveryCanonicalMessageValidates) {
  for (size_t i = 0; i < SchemaCount(); ++i) {
    const MessageSchema& s = SchemaAt(i);
    UchanMsg msg = ValidMessageFor(s);
    EXPECT_STREQ(MalformName(ValidateStructure(s.dir, msg, 0)), "none") << s.name;
    // Queue-lane messages are legal on any shard; control-lane ones are not.
    EXPECT_EQ(ValidateStructure(s.dir, msg, 2),
              s.lane == Lane::kControl ? Malform::kWrongLane : Malform::kNone)
        << s.name;
  }
}

TEST(WireSchema, EverySingleFieldMutationIsRejected) {
  for (size_t i = 0; i < SchemaCount(); ++i) {
    const MessageSchema& s = SchemaAt(i);
    const UchanMsg base = ValidMessageFor(s);

    // Dead args slots must be zero; named slots must respect their bound.
    for (size_t a = 0; a < s.args.size(); ++a) {
      UchanMsg m = base;
      if (s.args[a].name == nullptr) {
        m.args[a] = 1;
        EXPECT_EQ(ValidateStructure(s.dir, m, 0), Malform::kArgRange)
            << s.name << " dead arg " << a;
      } else if (s.args[a].max < UINT64_MAX) {
        m.args[a] = s.args[a].max + 1;
        EXPECT_NE(ValidateStructure(s.dir, m, 0), Malform::kNone)
            << s.name << " arg " << a << " over bound";
      }
    }

    // Buffer attachment rules.
    if (s.carries_buffer) {
      if (s.max_buffer_len < UINT32_MAX) {
        UchanMsg m = base;
        m.buffer_len = s.max_buffer_len + 1;
        EXPECT_EQ(ValidateStructure(s.dir, m, 0), Malform::kArgRange)
            << s.name << " oversize buffer_len";
      }
    } else {
      UchanMsg with_id = base;
      with_id.buffer_id = 5;
      EXPECT_EQ(ValidateStructure(s.dir, with_id, 0), Malform::kArgRange)
          << s.name << " forged buffer_id";
      UchanMsg with_len = base;
      with_len.buffer_len = 1;
      EXPECT_EQ(ValidateStructure(s.dir, with_len, 0), Malform::kArgRange)
          << s.name << " forged buffer_len";
    }

    // Payload shape.
    switch (s.payload) {
      case PayloadKind::kNone: {
        UchanMsg m = base;
        m.inline_data.push_back(0);
        EXPECT_EQ(ValidateStructure(s.dir, m, 0), Malform::kPayloadSize)
            << s.name << " unexpected payload";
        break;
      }
      case PayloadKind::kFixedBytes: {
        UchanMsg longer = base;
        longer.inline_data.push_back(0);
        EXPECT_EQ(ValidateStructure(s.dir, longer, 0), Malform::kPayloadSize) << s.name;
        UchanMsg shorter = base;
        shorter.inline_data.pop_back();
        EXPECT_EQ(ValidateStructure(s.dir, shorter, 0), Malform::kPayloadSize) << s.name;
        break;
      }
      case PayloadKind::kRawBounded: {
        UchanMsg over = base;
        over.inline_data.assign(s.max_bytes + 1, 0x61);
        EXPECT_EQ(ValidateStructure(s.dir, over, 0), Malform::kPayloadSize) << s.name;
        if (s.min_bytes > 0) {
          UchanMsg under = base;
          under.inline_data.assign(s.min_bytes - 1, 0x61);
          EXPECT_EQ(ValidateStructure(s.dir, under, 0), Malform::kPayloadSize) << s.name;
        }
        break;
      }
      case PayloadKind::kRecords: {
        size_t count = base.inline_data.size() / s.record.bytes;
        // Truncated payload: no longer a whole number of records.
        UchanMsg ragged = base;
        ragged.inline_data.pop_back();
        EXPECT_EQ(ValidateStructure(s.dir, ragged, 0), Malform::kPayloadSize)
            << s.name << " ragged payload";
        // Count arg disagreeing with the payload.
        if (s.count_arg >= 0) {
          UchanMsg lied = base;
          lied.args[static_cast<size_t>(s.count_arg)] = count + 1;
          EXPECT_NE(ValidateStructure(s.dir, lied, 0), Malform::kNone)
              << s.name << " count/payload mismatch";
        }
        // Below the record-count floor.
        if (s.min_records > 0) {
          UchanMsg empty = base;
          empty.inline_data.clear();
          if (s.count_arg >= 0) {
            empty.args[static_cast<size_t>(s.count_arg)] = 0;
          }
          EXPECT_EQ(ValidateStructure(s.dir, empty, 0), Malform::kCountMismatch)
              << s.name << " under min_records";
        }
        // Above the record-count ceiling (count arg kept consistent, so the
        // verdict is the count bound or the arg bound — never acceptance).
        {
          UchanMsg over = base;
          size_t too_many = s.max_records + 1;
          over.inline_data.assign(too_many * s.record.bytes, 0);
          for (size_t r = 0; r < too_many; ++r) {
            for (size_t f = 0; f < s.record.num_fields; ++f) {
              if (s.record.fields[f].type != FieldType::kBytes) {
                PokeField(&over, s.record, r, f, s.record.fields[f].min);
              }
            }
          }
          if (s.count_arg >= 0) {
            over.args[static_cast<size_t>(s.count_arg)] = too_many;
          }
          EXPECT_NE(ValidateStructure(s.dir, over, 0), Malform::kNone)
              << s.name << " over max_records";
        }
        // Every scalar record field, one bound violation at a time.
        for (size_t f = 0; f < s.record.num_fields; ++f) {
          const FieldSpec& field = s.record.fields[f];
          if (field.type == FieldType::kBytes) {
            continue;
          }
          uint64_t type_max = field.size >= 8 ? UINT64_MAX : (1ull << (8 * field.size)) - 1;
          if (field.max < type_max) {
            UchanMsg m = base;
            PokeField(&m, s.record, 0, f, field.max + 1);
            EXPECT_EQ(ValidateStructure(s.dir, m, 0), Malform::kFieldRange)
                << s.name << " field " << field.name << " over max";
          }
          if (field.min > 0) {
            UchanMsg m = base;
            PokeField(&m, s.record, 0, f, field.min - 1);
            EXPECT_EQ(ValidateStructure(s.dir, m, 0), Malform::kFieldRange)
                << s.name << " field " << field.name << " under min";
          }
        }
        // Sum cap: every record individually in bounds, total over the top.
        if (s.record.sum_field >= 0 && count >= 2) {
          UchanMsg m = base;
          const FieldSpec& field = s.record.fields[static_cast<size_t>(s.record.sum_field)];
          for (size_t r = 0; r < count; ++r) {
            PokeField(&m, s.record, r, static_cast<size_t>(s.record.sum_field), field.max);
          }
          EXPECT_EQ(ValidateStructure(s.dir, m, 0), Malform::kFieldRange)
              << s.name << " sum over cap";
        }
        break;
      }
    }

    // Fragment-list head: never empty, and counted toward the frame cap.
    if (s.head != FrameHead::kNone) {
      UchanMsg empty_head = base;
      SetHeadLength(s, 0, &empty_head);
      EXPECT_EQ(ValidateStructure(s.dir, empty_head, 0), Malform::kArgRange)
          << s.name << " zero-length head";
      // A head alone at the cap is legal; any tail on top of it is not.
      UchanMsg full_head = base;
      SetHeadLength(s, s.record.sum_max, &full_head);
      EXPECT_EQ(ValidateStructure(s.dir, full_head, 0), Malform::kFieldRange)
          << s.name << " head plus tail over cap";
      full_head.inline_data.clear();
      full_head.args[static_cast<size_t>(s.count_arg)] = 0;
      EXPECT_EQ(ValidateStructure(s.dir, full_head, 0), Malform::kNone)
          << s.name << " one-fragment frame at the cap";
      full_head.args[static_cast<size_t>(s.count_arg)] = 1;
      EXPECT_EQ(ValidateStructure(s.dir, full_head, 0), Malform::kCountMismatch)
          << s.name << " tail count without a tail";
    }
  }
}

TEST(WireSchema, UnknownOpcodeAndDirectionConfusionRejected) {
  UchanMsg msg;
  msg.opcode = 0xdead;
  EXPECT_EQ(ValidateStructure(Dir::kUp, msg, 0), Malform::kUnknownOpcode);
  EXPECT_EQ(ValidateStructure(Dir::kDown, msg, 0), Malform::kUnknownOpcode);
  // Opcode spaces overlap by direction, so direction is part of the lookup
  // key: kAudioUpWrite's numeric value has no down-direction schema, and a
  // message reflected back down the wrong way must read as unknown.
  UchanMsg write = ValidMessageFor(*FindSchema(Dir::kUp, kAudioUpWrite));
  EXPECT_EQ(ValidateStructure(Dir::kDown, write, 0), Malform::kUnknownOpcode);
}

// ---- codec round trips ------------------------------------------------------

TEST(WireCodec, XmitRoundTrip) {
  const int32_t ids[] = {7, 12, 3};
  const uint32_t lens[] = {1500, 900, 64};
  UchanMsg msg;
  EncodeXmit(/*queue=*/1, ids, lens, 3, &msg);
  EXPECT_EQ(msg.opcode, kEthUpXmit);
  EXPECT_EQ(ValidateStructure(Dir::kUp, msg, 1), Malform::kNone);
  EXPECT_EQ(msg.buffer_id, ids[0]);
  EXPECT_EQ(msg.buffer_len, lens[0]);
  EXPECT_EQ(msg.args[1], 2u);
  ASSERT_EQ(XmitFragCount(msg), 3u);
  for (size_t i = 0; i < 3; ++i) {
    XmitFrag frag = XmitFragAt(msg, i);
    EXPECT_EQ(frag.pool_id, ids[i]);
    EXPECT_EQ(frag.len, lens[i]);
  }
  // A one-fragment frame lives in the fixed fields alone.
  UchanMsg one;
  EncodeXmit(/*queue=*/0, ids, lens, 1, &one);
  EXPECT_TRUE(one.inline_data.empty());
  EXPECT_EQ(one.args[1], 0u);
  EXPECT_EQ(ValidateStructure(Dir::kUp, one, 0), Malform::kNone);
  ASSERT_EQ(XmitFragCount(one), 1u);
  EXPECT_EQ(XmitFragAt(one, 0).pool_id, 7);
  EXPECT_EQ(XmitFragAt(one, 0).len, 1500u);
}

TEST(WireCodec, NetifRxRoundTrip) {
  const DmaFrag frags[] = {{0x10000, 2048}, {0x23000, 2048}, {0x55000, 100}};
  UchanMsg msg;
  EncodeNetifRx(frags, &msg);
  EXPECT_EQ(msg.opcode, kEthDownNetifRx);
  EXPECT_EQ(ValidateStructure(Dir::kDown, msg, 2), Malform::kNone);
  EXPECT_EQ(msg.args[0], 0x10000u);
  EXPECT_EQ(msg.args[1], 2048u);
  EXPECT_EQ(msg.args[2], 2u);
  ASSERT_EQ(NetifRxFragCount(msg), 3u);
  for (size_t i = 0; i < 3; ++i) {
    DmaFrag frag = NetifRxFragAt(msg, i);
    EXPECT_EQ(frag.iova, frags[i].iova);
    EXPECT_EQ(frag.len, frags[i].len);
  }
  UchanMsg one;
  EncodeNetifRx(std::span<const DmaFrag>(frags, 1), &one);
  EXPECT_TRUE(one.inline_data.empty());
  EXPECT_EQ(one.args[2], 0u);
  EXPECT_EQ(ValidateStructure(Dir::kDown, one, 0), Malform::kNone);
  ASSERT_EQ(NetifRxFragCount(one), 1u);
  EXPECT_EQ(NetifRxFragAt(one, 0).iova, 0x10000u);
}

TEST(WireCodec, FreeBuffersRoundTripIncludingBatchOfOne) {
  const int32_t batch[] = {9, 0, 41};
  UchanMsg msg;
  EncodeFreeBuffers(batch, 3, &msg);
  EXPECT_EQ(ValidateStructure(Dir::kDown, msg, 0), Malform::kNone);
  EXPECT_EQ(msg.args[0], 3u);  // the count arg the validator checks
  ASSERT_EQ(FreeBufferPayloadCount(msg), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(DecodeFreeBufferId(msg, i), batch[i]);
  }
  // The unified layout has no special single-id form: a batch of one.
  UchanMsg one;
  int32_t id = 17;
  EncodeFreeBuffers(&id, 1, &one);
  EXPECT_EQ(ValidateStructure(Dir::kDown, one, 3), Malform::kNone);
  EXPECT_EQ(one.args[0], 1u);
  ASSERT_EQ(FreeBufferPayloadCount(one), 1u);
  EXPECT_EQ(DecodeFreeBufferId(one, 0), 17);
  // The legacy empty-payload single-id layout is gone from the protocol.
  UchanMsg legacy;
  legacy.opcode = kEthDownFreeBuffer;
  legacy.args[0] = 17;
  EXPECT_EQ(ValidateStructure(Dir::kDown, legacy, 0), Malform::kCountMismatch);
}

TEST(WireCodec, BitratesRoundTrip) {
  std::vector<uint32_t> rates = {1000, 2000, 5500, 11000, 54000};
  UchanMsg msg;
  EncodeBitrates(rates, &msg);
  EXPECT_EQ(ValidateStructure(Dir::kDown, msg, 0), Malform::kNone);
  EXPECT_EQ(DecodeBitrates(msg), rates);
  UchanMsg empty;
  EncodeBitrates({}, &empty);
  EXPECT_EQ(ValidateStructure(Dir::kDown, empty, 0), Malform::kNone);
  EXPECT_TRUE(DecodeBitrates(empty).empty());
}

TEST(WireCodec, ScanResultsRoundTripWithSsidTruncation) {
  std::vector<kern::ScanResult> results(2);
  results[0].bssid = {1, 2, 3, 4, 5, 6};
  results[0].ssid = "lab-net";
  results[0].channel = 11;
  results[0].signal_dbm = -42;
  results[1].bssid = {0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  results[1].ssid = std::string(40, 'x');  // over the wire limit
  results[1].channel = 153;
  results[1].signal_dbm = -80;
  std::vector<uint8_t> payload;
  EncodeScanResults(results, &payload);
  const MessageSchema* schema = FindSchema(Dir::kUp, kWifiUpScan);
  ASSERT_NE(schema, nullptr);
  UchanMsg reply;
  reply.inline_data = payload;
  EXPECT_EQ(ValidateReplyStructure(*schema, reply), Malform::kNone);
  std::vector<kern::ScanResult> decoded = DecodeScanResults(payload);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].bssid, results[0].bssid);
  EXPECT_EQ(decoded[0].ssid, "lab-net");
  EXPECT_EQ(decoded[0].channel, 11);
  EXPECT_EQ(decoded[0].signal_dbm, -42);
  EXPECT_EQ(decoded[1].ssid, std::string(31, 'x'));  // NUL-terminated at 31
  // A ragged reply payload is structurally malformed.
  reply.inline_data.pop_back();
  EXPECT_EQ(ValidateReplyStructure(*schema, reply), Malform::kPayloadSize);
  // An oversize result list is too.
  reply.inline_data.assign((kMaxScanRecords + 1) * kWifiScanRecordBytes, 0);
  EXPECT_EQ(ValidateReplyStructure(*schema, reply), Malform::kCountMismatch);
  // A schema without reply records refuses every reply, even an empty one.
  const MessageSchema* no_records = FindSchema(Dir::kUp, kWifiUpAssociate);
  ASSERT_NE(no_records, nullptr);
  reply.inline_data.clear();
  EXPECT_EQ(ValidateReplyStructure(*no_records, reply), Malform::kPayloadSize);
}

TEST(WireSchema, RejectStatsCountsPerMessageAndUnknown) {
  RejectStats stats;
  stats.Count(Dir::kDown, kEthDownNetifRx);
  stats.Count(Dir::kDown, kEthDownNetifRx);
  stats.Count(Dir::kUp, kEthUpXmit);
  stats.Count(Dir::kDown, 0xdead);
  EXPECT_EQ(stats.rejected(Dir::kDown, kEthDownNetifRx), 2u);
  EXPECT_EQ(stats.rejected(Dir::kUp, kEthUpXmit), 1u);
  EXPECT_EQ(stats.unknown_opcode(), 1u);
  EXPECT_EQ(stats.total(), 4u);
}

}  // namespace
}  // namespace sud::wire
