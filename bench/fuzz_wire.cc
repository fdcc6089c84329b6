// Schema-driven wire-protocol fuzzer, exit-gated for CI.
//
// Two properties, checked per seed:
//
//   1. Validator fidelity (pure): for every message in the wire-schema
//      registry, randomly generated schema-conforming messages are ALL
//      accepted, and every bounded mutation — truncated/oversized payloads,
//      count/payload mismatches, out-of-bounds fields, wrong-shard delivery —
//      is rejected. The generator and the mutator are both driven off the
//      registry table itself, so a new message is fuzzed the day it is added.
//
//   2. Live containment: malformed downcalls and upcalls fired at a running
//      SUD stack (real e1000e driver, two uchan shards) all land in the
//      structural rejection counters, put nothing on the wire and nothing
//      into the stack — and valid peer traffic afterwards flows untouched
//      (the validator rejects no legitimate message).
//
// Seed-deterministic: ./fuzz_wire [num_seeds] runs seeds 1..N (default 8)
// with a splitmix64 stream per seed. Writes BENCH_fuzz_wire.json; exits
// nonzero if any property fails.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/kern/net_limits.h"
#include "src/sud/wire_schema.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::NetBench;

constexpr int kRoundsPerSeed = 64;

struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  // Uniform in [lo, hi], clamped against overflow.
  uint64_t Range(uint64_t lo, uint64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    uint64_t span = hi - lo;
    return lo + (span == UINT64_MAX ? Next() : Below(span + 1));
  }
};

struct Tally {
  uint64_t valid_messages = 0;
  uint64_t valid_rejected = 0;  // gate: must stay 0
  uint64_t mut_payload = 0;
  uint64_t mut_count = 0;
  uint64_t mut_bounds = 0;
  uint64_t mut_shard = 0;
  uint64_t malformed_accepted = 0;  // gate: must stay 0
  uint64_t down_fired = 0;
  uint64_t down_rejected = 0;
  uint64_t up_fired = 0;
  uint64_t up_rejected = 0;
  uint64_t frames_leaked = 0;     // gate: must stay 0
  uint64_t stack_deliveries = 0;  // gate: must stay 0 (from malformed storms)
  uint64_t valid_sent = 0;
  uint64_t valid_delivered = 0;

  void Add(const Tally& o) {
    valid_messages += o.valid_messages;
    valid_rejected += o.valid_rejected;
    mut_payload += o.mut_payload;
    mut_count += o.mut_count;
    mut_bounds += o.mut_bounds;
    mut_shard += o.mut_shard;
    malformed_accepted += o.malformed_accepted;
    down_fired += o.down_fired;
    down_rejected += o.down_rejected;
    up_fired += o.up_fired;
    up_rejected += o.up_rejected;
    frames_leaked += o.frames_leaked;
    stack_deliveries += o.stack_deliveries;
    valid_sent += o.valid_sent;
    valid_delivered += o.valid_delivered;
  }
  bool Pass() const {
    return valid_rejected == 0 && malformed_accepted == 0 &&
           down_rejected == down_fired && up_rejected == up_fired && frames_leaked == 0 &&
           stack_deliveries == 0 && valid_delivered == valid_sent;
  }
};

void PokeField(UchanMsg* msg, const wire::RecordSpec& record, size_t r, size_t f,
               uint64_t value) {
  const wire::FieldSpec& field = record.fields[f];
  uint8_t* bytes = msg->inline_data.data() + r * record.bytes + field.offset;
  for (uint16_t b = 0; b < field.size; ++b) {
    bytes[b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

// A random message the schema certifies: every named arg in bounds, records
// populated within field bounds and under the sum cap.
UchanMsg RandomValid(const wire::MessageSchema& s, Rng& rng) {
  UchanMsg msg;
  msg.opcode = s.opcode;
  msg.droppable = s.droppable;
  for (size_t i = 0; i < s.args.size(); ++i) {
    if (s.args[i].name != nullptr) {
      msg.args[i] = rng.Range(0, std::min<uint64_t>(s.args[i].max, 1u << 20));
    }
  }
  if (s.carries_buffer) {
    msg.buffer_id = static_cast<int32_t>(rng.Below(128)) - 1;  // -1 (none) .. 126
    msg.buffer_len = static_cast<uint32_t>(
        rng.Range(0, std::min<uint64_t>(s.max_buffer_len, 4096)));
  }
  switch (s.payload) {
    case wire::PayloadKind::kNone:
      break;
    case wire::PayloadKind::kFixedBytes:
      msg.inline_data.assign(s.fixed_bytes, static_cast<uint8_t>(rng.Next()));
      break;
    case wire::PayloadKind::kRawBounded:
      msg.inline_data.assign(
          rng.Range(s.min_bytes, std::min<uint64_t>(s.max_bytes, 64)),
          static_cast<uint8_t>(rng.Next()));
      break;
    case wire::PayloadKind::kRecords: {
      size_t count =
          rng.Range(s.min_records, std::min<uint64_t>(s.max_records, 8));
      // A fragment list's head shares the frame-total budget with its tail.
      size_t shares = count + (s.head != wire::FrameHead::kNone ? 1 : 0);
      if (s.head != wire::FrameHead::kNone) {
        wire::SetHeadLength(s, rng.Range(1, std::max<uint64_t>(s.record.sum_max / shares, 1)),
                            &msg);
      }
      msg.inline_data.assign(count * s.record.bytes, 0);
      for (size_t r = 0; r < count; ++r) {
        for (size_t f = 0; f < s.record.num_fields; ++f) {
          const wire::FieldSpec& field = s.record.fields[f];
          if (field.type == wire::FieldType::kBytes) {
            for (uint16_t b = 0; b < field.size; ++b) {
              msg.inline_data[r * s.record.bytes + field.offset + b] =
                  static_cast<uint8_t>(rng.Next());
            }
            continue;
          }
          uint64_t hi = std::min<uint64_t>(field.max, field.min + 0xffff);
          if (static_cast<int8_t>(f) == s.record.sum_field) {
            hi = std::min<uint64_t>(hi, std::max<uint64_t>(s.record.sum_max / shares, 1));
          }
          PokeField(&msg, s.record, r, f, rng.Range(field.min, hi));
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

// Mutation class 1: payload no longer the shape the schema declares.
UchanMsg MutatePayload(const wire::MessageSchema& s, UchanMsg msg, Rng& rng) {
  switch (s.payload) {
    case wire::PayloadKind::kNone:
      msg.inline_data.assign(1 + rng.Below(8), 0x5a);
      break;
    case wire::PayloadKind::kFixedBytes:
      if (s.fixed_bytes > 0 && rng.Below(2) == 0) {
        msg.inline_data.pop_back();
      } else {
        msg.inline_data.push_back(0);
      }
      break;
    case wire::PayloadKind::kRawBounded:
      msg.inline_data.assign(s.max_bytes + 1 + rng.Below(16), 0x5a);
      break;
    case wire::PayloadKind::kRecords:
      // Ragged: not a whole number of records (adding when empty, else
      // shaving 1..stride-1 bytes — a whole record would be a count change).
      if (msg.inline_data.empty()) {
        msg.inline_data.assign(1 + rng.Below(s.record.bytes - 1), 0);
      } else {
        msg.inline_data.resize(msg.inline_data.size() - 1 - rng.Below(s.record.bytes - 1));
      }
      break;
  }
  return msg;
}

// Mutation class 2: the advertised record count lies about the payload.
UchanMsg MutateCount(const wire::MessageSchema& s, UchanMsg msg, Rng& rng) {
  msg.args[static_cast<size_t>(s.count_arg)] += 1 + rng.Below(5);
  return msg;
}

// Mutation class 3: one field — an arg slot, a buffer attachment, or a record
// scalar — pushed out of its declared bounds.
bool MutateBounds(const wire::MessageSchema& s, UchanMsg& msg, Rng& rng) {
  struct Choice {
    enum Kind {
      kDeadArg,
      kNamedArg,
      kForgedBuffer,
      kOversizeBuffer,
      kEmptyHead,
      kFieldHigh,
      kFieldLow
    };
    Kind kind;
    size_t a = 0, f = 0;
  };
  std::vector<Choice> choices;
  for (size_t a = 0; a < s.args.size(); ++a) {
    if (s.args[a].name == nullptr) {
      choices.push_back({Choice::kDeadArg, a});
    } else if (s.args[a].max < UINT64_MAX - 64) {
      choices.push_back({Choice::kNamedArg, a});
    }
  }
  if (!s.carries_buffer) {
    choices.push_back({Choice::kForgedBuffer});
  } else if (s.max_buffer_len < UINT32_MAX) {
    choices.push_back({Choice::kOversizeBuffer});
  }
  if (s.head != wire::FrameHead::kNone) {
    choices.push_back({Choice::kEmptyHead});
  }
  if (s.payload == wire::PayloadKind::kRecords && !msg.inline_data.empty()) {
    for (size_t f = 0; f < s.record.num_fields; ++f) {
      const wire::FieldSpec& field = s.record.fields[f];
      if (field.type == wire::FieldType::kBytes) {
        continue;
      }
      uint64_t type_max = field.size >= 8 ? UINT64_MAX : (1ull << (8 * field.size)) - 1;
      if (field.max < type_max) {
        choices.push_back({Choice::kFieldHigh, 0, f});
      }
      if (field.min > 0) {
        choices.push_back({Choice::kFieldLow, 0, f});
      }
    }
  }
  if (choices.empty()) {
    return false;
  }
  Choice c = choices[rng.Below(choices.size())];
  size_t count = s.record.bytes > 0 ? msg.inline_data.size() / s.record.bytes : 0;
  switch (c.kind) {
    case Choice::kDeadArg:
      msg.args[c.a] = 1 + rng.Below(1u << 16);
      break;
    case Choice::kNamedArg:
      msg.args[c.a] = s.args[c.a].max + 1 + rng.Below(64);
      break;
    case Choice::kForgedBuffer:
      if (rng.Below(2) == 0) {
        msg.buffer_id = static_cast<int32_t>(rng.Below(100));
      } else {
        msg.buffer_len = 1 + static_cast<uint32_t>(rng.Below(100));
      }
      break;
    case Choice::kOversizeBuffer:
      msg.buffer_len = s.max_buffer_len + 1;
      break;
    case Choice::kEmptyHead:
      wire::SetHeadLength(s, 0, &msg);
      break;
    case Choice::kFieldHigh:
      PokeField(&msg, s.record, rng.Below(count), c.f, s.record.fields[c.f].max + 1);
      break;
    case Choice::kFieldLow:
      PokeField(&msg, s.record, rng.Below(count), c.f, s.record.fields[c.f].min - 1);
      break;
  }
  return true;
}

// Property 1: the pure validator round-trip over the whole registry.
void FuzzValidator(Rng& rng, Tally& tally) {
  for (int round = 0; round < kRoundsPerSeed; ++round) {
    for (size_t i = 0; i < wire::SchemaCount(); ++i) {
      const wire::MessageSchema& s = wire::SchemaAt(i);
      uint16_t good_shard =
          s.lane == wire::Lane::kControl ? 0 : static_cast<uint16_t>(rng.Below(4));
      UchanMsg base = RandomValid(s, rng);
      ++tally.valid_messages;
      if (wire::ValidateStructure(s.dir, base, good_shard) != wire::Malform::kNone) {
        ++tally.valid_rejected;
        std::fprintf(stderr, "FUZZ: valid %s rejected\n", s.name);
      }

      UchanMsg mutated = MutatePayload(s, base, rng);
      ++tally.mut_payload;
      if (wire::ValidateStructure(s.dir, mutated, good_shard) == wire::Malform::kNone) {
        ++tally.malformed_accepted;
        std::fprintf(stderr, "FUZZ: payload mutation of %s accepted\n", s.name);
      }
      if (s.payload == wire::PayloadKind::kRecords && s.count_arg >= 0) {
        mutated = MutateCount(s, base, rng);
        ++tally.mut_count;
        if (wire::ValidateStructure(s.dir, mutated, good_shard) == wire::Malform::kNone) {
          ++tally.malformed_accepted;
          std::fprintf(stderr, "FUZZ: count mutation of %s accepted\n", s.name);
        }
      }
      mutated = base;
      if (MutateBounds(s, mutated, rng)) {
        ++tally.mut_bounds;
        if (wire::ValidateStructure(s.dir, mutated, good_shard) == wire::Malform::kNone) {
          ++tally.malformed_accepted;
          std::fprintf(stderr, "FUZZ: bounds mutation of %s accepted\n", s.name);
        }
      }
      if (s.lane == wire::Lane::kControl) {
        ++tally.mut_shard;
        uint16_t bad_shard = static_cast<uint16_t>(1 + rng.Below(3));
        if (wire::ValidateStructure(s.dir, base, bad_shard) == wire::Malform::kNone) {
          ++tally.malformed_accepted;
          std::fprintf(stderr, "FUZZ: wrong-shard %s accepted\n", s.name);
        }
      }
    }
  }
}

// Property 2: the storms below hit a LIVE stack through the real uchan.
void FuzzLiveBoundary(Rng& rng, Tally& tally) {
  NetBench::Options options;
  options.nic_queues = 2;
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    std::fprintf(stderr, "FUZZ: live stack failed to start\n");
    ++tally.down_fired;  // poisons the down_rejected gate
    return;
  }
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");

  // --- malformed downcall storm (driver -> kernel boundary) ---
  uint64_t rx_before = netdev->stats().rx_packets.load();
  uint64_t rejects_before = bench.ctx->wire_rejects().total();
  for (int round = 0; round < 5; ++round) {
    std::vector<std::pair<UchanMsg, uint16_t>> storm;
    auto forge = [&](uint16_t shard) -> UchanMsg& {
      storm.emplace_back(UchanMsg{}, shard);
      return storm.back().first;
    };
    {  // netif_rx length above the jumbo ceiling
      UchanMsg& m = forge(static_cast<uint16_t>(rng.Below(2)));
      m.opcode = kEthDownNetifRx;
      m.args[0] = rng.Next();
      m.args[1] = kern::kJumboMaxFrameBytes + 1 + rng.Below(100);
    }
    {  // ragged rx tail payload
      DmaFrag frags[3] = {{rng.Next(), 256}, {rng.Next(), 256}, {rng.Next(), 256}};
      UchanMsg& m = forge(static_cast<uint16_t>(rng.Below(2)));
      wire::EncodeNetifRx(frags, &m);
      m.inline_data.resize(m.inline_data.size() - 1 - rng.Below(11));
    }
    {  // per-fragment lengths fine, head plus tail over the reassembly cap
      uint32_t len = static_cast<uint32_t>(kern::kJumboMaxFrameBytes - rng.Below(100));
      DmaFrag frags[2] = {{rng.Next(), len}, {rng.Next(), len}};
      UchanMsg& m = forge(static_cast<uint16_t>(rng.Below(2)));
      wire::EncodeNetifRx(frags, &m);
    }
    {  // advertised tail count disagrees with the payload
      DmaFrag frags[3] = {{rng.Next(), 128}, {rng.Next(), 128}, {rng.Next(), 128}};
      UchanMsg& m = forge(static_cast<uint16_t>(rng.Below(2)));
      wire::EncodeNetifRx(frags, &m);
      m.args[2] = 3 + rng.Below(8);
    }
    {  // empty head fragment
      UchanMsg& m = forge(static_cast<uint16_t>(rng.Below(2)));
      m.opcode = kEthDownNetifRx;
      m.args[0] = rng.Next();
    }
    {  // free-buffer batch lying about its count (salvage path)
      int32_t ids[2] = {static_cast<int32_t>(900 + rng.Below(50)),
                        static_cast<int32_t>(960 + rng.Below(50))};
      UchanMsg& m = forge(static_cast<uint16_t>(rng.Below(2)));
      wire::EncodeFreeBuffers(ids, 2, &m);
      m.args[0] = 5 + rng.Below(8);
    }
    {  // control-lane message delivered on a data shard
      UchanMsg& m = forge(1);
      m.opcode = kEthDownSetCarrier;
      m.args[0] = 1;
    }
    {  // carrier flag out of range
      UchanMsg& m = forge(0);
      m.opcode = kEthDownSetCarrier;
      m.args[0] = 2 + rng.Below(16);
    }
    {  // dead args slot carrying data
      UchanMsg& m = forge(0);
      m.opcode = kEthDownSetCarrier;
      m.args[0] = 1;
      m.args[1 + rng.Below(5)] = 1 + rng.Below(1u << 20);
    }
    {  // register_netdev with a runt MAC payload
      UchanMsg& m = forge(0);
      m.opcode = kEthDownRegisterNetdev;
      m.args[0] = 1;
      m.args[1] = 1500;
      m.inline_data.assign(5, 0xaa);
    }
    {  // opcode no schema has ever heard of
      UchanMsg& m = forge(static_cast<uint16_t>(rng.Below(2)));
      m.opcode = 0xdead0 + static_cast<uint32_t>(rng.Below(16));
    }
    for (auto& [msg, shard] : storm) {
      ++tally.down_fired;
      (void)bench.ctx->ctl(shard).DowncallSync(msg);
    }
  }
  tally.down_rejected += bench.ctx->wire_rejects().total() - rejects_before;
  tally.stack_deliveries += netdev->stats().rx_packets.load() - rx_before;

  // --- malformed upcall storm (kernel -> driver boundary) ---
  uint64_t frames_before = bench.link.stats().frames[0].load();
  uint64_t up_rejects_before = bench.host->runtime()->wire_rejects().total();
  for (int round = 0; round < 5; ++round) {
    std::vector<std::pair<UchanMsg, uint16_t>> storm;
    uint16_t shard = static_cast<uint16_t>(rng.Below(2));
    {  // xmit whose fragments sum past the jumbo ceiling
      int32_t ids[6] = {0, 1, 2, 3, 4, 5};
      uint32_t lens[6];
      for (uint32_t& len : lens) {
        len = 2048;
      }
      UchanMsg m;
      wire::EncodeXmit(shard, ids, lens, 6, &m);
      storm.emplace_back(std::move(m), shard);
    }
    {  // xmit tail count/payload mismatch
      int32_t ids[2] = {0, 1};
      uint32_t lens[2] = {512, 512};
      UchanMsg m;
      wire::EncodeXmit(shard, ids, lens, 2, &m);
      m.args[1] += 1 + rng.Below(4);
      storm.emplace_back(std::move(m), shard);
    }
    {  // truncated xmit tail payload
      int32_t ids[3] = {0, 1, 2};
      uint32_t lens[3] = {512, 512, 512};
      UchanMsg m;
      wire::EncodeXmit(shard, ids, lens, 3, &m);
      m.inline_data.resize(m.inline_data.size() - 1 - rng.Below(7));
      storm.emplace_back(std::move(m), shard);
    }
    {  // single xmit with an oversize staged buffer claim
      UchanMsg m;
      m.opcode = kEthUpXmit;
      m.droppable = true;
      m.args[0] = shard;
      m.buffer_id = 0;
      m.buffer_len = static_cast<uint32_t>(kern::kJumboMaxFrameBytes + 1 + rng.Below(64));
      storm.emplace_back(std::move(m), shard);
    }
    {  // unknown upcall opcode
      UchanMsg m;
      m.opcode = 0xbeef0 + static_cast<uint32_t>(rng.Below(16));
      storm.emplace_back(std::move(m), shard);
    }
    for (auto& [msg, s] : storm) {
      ++tally.up_fired;
      (void)bench.ctx->ctl(s).SendAsync(std::move(msg));
    }
    bench.host->Pump();
  }
  bench.host->Pump();
  tally.up_rejected += bench.host->runtime()->wire_rejects().total() - up_rejects_before;
  tally.frames_leaked += bench.link.stats().frames[0].load() - frames_before;

  // --- after both storms, legitimate traffic must flow untouched ---
  uint64_t all_rejects_before =
      bench.ctx->wire_rejects().total() + bench.host->runtime()->wire_rejects().total();
  rx_before = netdev->stats().rx_packets.load();
  std::vector<uint8_t> payload(200, 0x33);
  constexpr int kValidFrames = 20;
  for (int i = 0; i < kValidFrames; ++i) {
    (void)bench.PeerSend(static_cast<uint16_t>(5000 + i), 80,
                         {payload.data(), payload.size()});
    bench.host->Pump();
  }
  bench.host->Pump();
  tally.valid_sent += kValidFrames;
  tally.valid_delivered += netdev->stats().rx_packets.load() - rx_before;
  uint64_t all_rejects_after =
      bench.ctx->wire_rejects().total() + bench.host->runtime()->wire_rejects().total();
  if (all_rejects_after != all_rejects_before) {
    uint64_t delta = all_rejects_after - all_rejects_before;
    tally.valid_rejected += delta;
    std::fprintf(stderr, "FUZZ: %llu valid live messages structurally rejected\n",
                 (unsigned long long)delta);
  }
}

void WriteJson(const Tally& t, int seeds, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"fuzz_wire\",\n");
  std::fprintf(out, "  \"seeds\": %d,\n  \"rounds_per_seed\": %d,\n", seeds, kRoundsPerSeed);
  std::fprintf(out, "  \"registry_messages\": %zu,\n", wire::SchemaCount());
  std::fprintf(out, "  \"valid_messages\": %llu,\n  \"valid_rejected\": %llu,\n",
               (unsigned long long)t.valid_messages, (unsigned long long)t.valid_rejected);
  std::fprintf(out,
               "  \"mutations\": {\"payload\": %llu, \"count_mismatch\": %llu, "
               "\"field_bounds\": %llu, \"wrong_shard\": %llu},\n",
               (unsigned long long)t.mut_payload, (unsigned long long)t.mut_count,
               (unsigned long long)t.mut_bounds, (unsigned long long)t.mut_shard);
  std::fprintf(out, "  \"malformed_accepted\": %llu,\n",
               (unsigned long long)t.malformed_accepted);
  std::fprintf(out,
               "  \"live\": {\"down_fired\": %llu, \"down_rejected\": %llu, "
               "\"up_fired\": %llu, \"up_rejected\": %llu, \"frames_leaked\": %llu, "
               "\"stack_deliveries\": %llu, \"valid_sent\": %llu, "
               "\"valid_delivered\": %llu},\n",
               (unsigned long long)t.down_fired, (unsigned long long)t.down_rejected,
               (unsigned long long)t.up_fired, (unsigned long long)t.up_rejected,
               (unsigned long long)t.frames_leaked, (unsigned long long)t.stack_deliveries,
               (unsigned long long)t.valid_sent, (unsigned long long)t.valid_delivered);
  std::fprintf(out, "  \"pass\": %s\n}\n", t.Pass() ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace sud

int main(int argc, char** argv) {
  sud::Logger::Get().set_min_level(sud::LogLevel::kError);
  int seeds = 8;
  if (argc > 1) {
    seeds = std::atoi(argv[1]);
    if (seeds < 1) {
      seeds = 1;
    }
  }
  sud::Tally total;
  std::printf("fuzz_wire: %d seed(s), %d rounds x %zu registry messages each\n\n", seeds,
              sud::kRoundsPerSeed, sud::wire::SchemaCount());
  std::printf("%-6s %10s %10s %10s %10s %10s %10s\n", "seed", "valid", "mutated", "down",
              "up", "leaked", "delivered");
  for (int seed = 1; seed <= seeds; ++seed) {
    sud::Tally tally;
    sud::Rng rng{0x50d00000ull + static_cast<uint64_t>(seed)};
    sud::FuzzValidator(rng, tally);
    sud::FuzzLiveBoundary(rng, tally);
    std::printf("%-6d %10llu %10llu %6llu/%-6llu %4llu/%-6llu %6llu %6llu/%llu\n", seed,
                (unsigned long long)tally.valid_messages,
                (unsigned long long)(tally.mut_payload + tally.mut_count + tally.mut_bounds +
                                     tally.mut_shard),
                (unsigned long long)tally.down_rejected, (unsigned long long)tally.down_fired,
                (unsigned long long)tally.up_rejected, (unsigned long long)tally.up_fired,
                (unsigned long long)tally.frames_leaked,
                (unsigned long long)tally.valid_delivered,
                (unsigned long long)tally.valid_sent);
    total.Add(tally);
  }
  bool pass = total.Pass();
  std::printf("\nfuzz_wire %s: %llu valid accepted (%llu wrongly rejected), "
              "%llu mutations (%llu wrongly accepted),\n",
              pass ? "PASS" : "FAIL", (unsigned long long)total.valid_messages,
              (unsigned long long)total.valid_rejected,
              (unsigned long long)(total.mut_payload + total.mut_count + total.mut_bounds +
                                   total.mut_shard),
              (unsigned long long)total.malformed_accepted);
  std::printf("live: %llu/%llu down + %llu/%llu up forgeries contained, %llu frames leaked, "
              "%llu/%llu valid frames delivered after the storms.\n",
              (unsigned long long)total.down_rejected, (unsigned long long)total.down_fired,
              (unsigned long long)total.up_rejected, (unsigned long long)total.up_fired,
              (unsigned long long)total.frames_leaked,
              (unsigned long long)total.valid_delivered, (unsigned long long)total.valid_sent);
  sud::WriteJson(total, seeds, "BENCH_fuzz_wire.json");
  return pass ? 0 : 1;
}
