#include "src/devices/ether_link.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "src/base/log.h"

namespace sud::devices {

namespace {
// A generator quitting on a wedged consumer must say WHICH queue stalled and
// where the flow stood — the breadcrumb that turns a silent CI shortfall
// into a diagnosis (which shard hung, how far the consumer got).
void LogPeerGaveUp(const char* mode, size_t flow, uint64_t sent, uint64_t budget,
                   uint64_t acked, bool paced) {
  SUD_LOG(kWarning) << "ether peer (" << mode << "): flow " << flow
                    << " gave up on a stalled consumer queue " << flow << " (sent " << sent
                    << " of " << budget << ", consumer acked "
                    << (paced ? std::to_string(acked) : std::string("unpaced")) << ")";
}
}  // namespace

void EtherLink::Attach(int side, EtherEndpoint* endpoint) {
  if (side == 0 || side == 1) {
    endpoints_[side] = endpoint;
  }
}

Status EtherLink::Transmit(int side, ConstByteSpan frame) {
  if (side != 0 && side != 1) {
    return Status(ErrorCode::kInvalidArgument, "bad link side");
  }
  EtherEndpoint* peer = endpoints_[1 - side];
  if (peer == nullptr) {
    ++stats_.dropped;
    return Status(ErrorCode::kUnavailable, "no peer attached");
  }
  if (frame.size() > kEthMaxFrame) {
    ++stats_.dropped;
    return Status(ErrorCode::kInvalidArgument, "oversize frame");
  }
  if (frame.size() < kEthMinFrame) {
    std::array<uint8_t, kEthMinFrame> padded{};
    std::copy(frame.begin(), frame.end(), padded.begin());
    peer->DeliverFrame(ConstByteSpan(padded.data(), padded.size()));
  } else {
    peer->DeliverFrame(frame);
  }
  // Counted AFTER delivery: a thread observing frames[side] advance may rely
  // on the frame being fully in the receiving endpoint (the RR serving loop
  // paces its pumps on exactly that).
  stats_.frames[side]++;
  stats_.bytes[side] += frame.size();
  return Status::Ok();
}

uint64_t EtherLink::FrameHash(ConstByteSpan frame) {
  // FNV-1a: cheap, deterministic, and good enough to catch any corrupted or
  // substituted frame in the determinism comparison.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t byte : frame) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void EtherLink::TransmitFromPeer(int side, PeerGen& gen) {
  ConstByteSpan frame(gen.flow.frame.data(), gen.flow.frame.size());
  if (Transmit(side, frame).ok()) {
    gen.stats.frames.Add();
    gen.stats.bytes.Add(frame.size());
    // The flow's frame never changes: the digest is hashed once at setup,
    // not per transmit (a per-frame pass over 1.5 KB would dominate the
    // generator itself).
    gen.stats.frame_hash.Add(gen.frame_digest);
  }
  ++gen.sent;
}

void EtherLink::StartPeers(std::vector<PeerFlow> flows, int side, uint64_t give_up_ms) {
  JoinPeers();  // a previous generation's threads must be gone first
  peers_.clear();
  peers_stop_.store(false, std::memory_order_relaxed);
  for (PeerFlow& flow : flows) {
    auto gen = std::make_unique<PeerGen>();
    gen->flow = std::move(flow);
    gen->frame_digest = FrameHash({gen->flow.frame.data(), gen->flow.frame.size()});
    gen->index = peers_.size();
    peers_.push_back(std::move(gen));
  }
  for (auto& gen_ptr : peers_) {
    PeerGen* gen = gen_ptr.get();
    gen->thread = std::thread([this, gen, side, give_up_ms]() {
      // Progress-based deadline: the clock only runs while window-blocked
      // with no consumer movement, so a slow-but-live SUT is never abandoned.
      // The rewind clock is separate — retransmitting into a dead consumer
      // must not postpone the give-up verdict, so only a frame beyond the
      // flow's high-water mark (never a resend) counts as progress.
      auto last_progress = std::chrono::steady_clock::now();
      auto last_rewind = last_progress;
      uint64_t last_acked = 0;
      uint64_t high_water = 0;
      // `cursor` is the flow position; a go-back-N rewind moves it backwards,
      // so the budget test runs on the cursor while stats.frames keeps
      // counting every (re)transmission.
      uint64_t& cursor = gen->sent;
      // Paced flows drain their tail: the budget isn't done until the
      // consumer acked it (or the give-up bound fired), otherwise a crash
      // that eats the final window is indistinguishable from success.
      auto budget_done = [&]() {
        if (cursor < gen->flow.count) {
          return false;
        }
        return gen->flow.acked == nullptr || last_acked >= gen->flow.count;
      };
      while (!budget_done() && !peers_stop_.load(std::memory_order_relaxed)) {
        if (gen->flow.acked != nullptr) {
          uint64_t acked = gen->flow.acked();
          if (acked != last_acked) {
            last_acked = acked;
            last_progress = std::chrono::steady_clock::now();
          }
          // Blocked while the window is full, and also while the budget is
          // spent but its tail unacked — the tail-flush stall needs the same
          // rewind/give-up machinery or an eaten final window spins forever.
          if (cursor >= acked + gen->flow.window || cursor >= gen->flow.count) {
            auto now = std::chrono::steady_clock::now();
            if (gen->flow.retransmit_on_stall_ms > 0 &&
                now - last_progress > std::chrono::milliseconds(gen->flow.retransmit_on_stall_ms) &&
                now - last_rewind > std::chrono::milliseconds(gen->flow.retransmit_on_stall_ms)) {
              // The unacked tail was eaten (driver restart tore down the
              // rings it sat in): resend it. Loss stays visible because the
              // retransmissions inflate stats.frames past the budget.
              cursor = acked;
              last_rewind = now;
              gen->stats.rewinds.Add();
              continue;
            }
            if (now - last_progress > std::chrono::milliseconds(give_up_ms)) {
              // Consumer wedged: leave the shortfall visible in stats, and
              // name the stalled queue with its last heartbeat counters.
              gen->stats.gave_up.store(true, std::memory_order_relaxed);
              LogPeerGaveUp("threaded", gen->index, cursor, gen->flow.count, last_acked,
                            true);
              return;
            }
            std::this_thread::yield();
            continue;
          }
        }
        TransmitFromPeer(side, *gen);
        if (cursor > high_water) {
          high_water = cursor;
          last_progress = std::chrono::steady_clock::now();
        }
      }
    });
  }
}

void EtherLink::AddRrGen(RrFlow flow) {
  auto gen = std::make_unique<PeerGen>();
  gen->flow.frame = std::move(flow.request);
  gen->flow.count = flow.transactions;
  gen->rr_replies = std::move(flow.replies);
  gen->frame_digest = FrameHash({gen->flow.frame.data(), gen->flow.frame.size()});
  gen->index = peers_.size();
  peers_.push_back(std::move(gen));
}

void EtherLink::StartRrPeers(std::vector<RrFlow> flows, int side, uint64_t give_up_ms) {
  JoinPeers();
  peers_.clear();
  peers_stop_.store(false, std::memory_order_relaxed);
  for (RrFlow& flow : flows) {
    AddRrGen(std::move(flow));
  }
  for (auto& gen_ptr : peers_) {
    PeerGen* gen = gen_ptr.get();
    gen->thread = std::thread([this, gen, side, give_up_ms]() {
      auto last_progress = std::chrono::steady_clock::now();
      while (gen->sent < gen->flow.count && !peers_stop_.load(std::memory_order_relaxed)) {
        TransmitFromPeer(side, *gen);
        // One transaction in flight: block until the server answered THIS
        // request before the next leaves. The reply clock only runs while
        // blocked, so a slow-but-live server is never abandoned.
        while (gen->rr_replies() < gen->sent &&
               !peers_stop_.load(std::memory_order_relaxed)) {
          if (std::chrono::steady_clock::now() - last_progress >
              std::chrono::milliseconds(give_up_ms)) {
            gen->stats.gave_up.store(true, std::memory_order_relaxed);
            LogPeerGaveUp("rr", gen->index, gen->sent, gen->flow.count, gen->rr_replies(),
                          true);
            return;
          }
          std::this_thread::yield();
        }
        last_progress = std::chrono::steady_clock::now();
      }
    });
  }
}

void EtherLink::RunRrPeersSerial(std::vector<RrFlow> flows, const std::function<void()>& serve,
                                 int side) {
  JoinPeers();
  peers_.clear();
  for (RrFlow& flow : flows) {
    AddRrGen(std::move(flow));
  }
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    bool all_done = true;
    for (auto& gen : peers_) {
      if (gen->sent >= gen->flow.count) {
        continue;
      }
      all_done = false;
      TransmitFromPeer(side, *gen);
      bool answered = true;
      while (gen->rr_replies() < gen->sent) {
        if (serve == nullptr || std::chrono::steady_clock::now() - last_progress >
                                    std::chrono::seconds(60)) {
          gen->stats.gave_up.store(true, std::memory_order_relaxed);
          LogPeerGaveUp("rr-serial", gen->index, gen->sent, gen->flow.count,
                        gen->rr_replies(), true);
          answered = false;
          break;
        }
        serve();
      }
      if (!answered) {
        return;  // a wedged server wedges every flow; leave the shortfall visible
      }
      last_progress = std::chrono::steady_clock::now();
    }
    if (all_done) {
      break;
    }
  }
}

void EtherLink::JoinPeers() {
  for (auto& gen : peers_) {
    if (gen->thread.joinable()) {
      gen->thread.join();
    }
  }
}

void EtherLink::StopPeers() {
  peers_stop_.store(true, std::memory_order_relaxed);
  JoinPeers();
  peers_stop_.store(false, std::memory_order_relaxed);
}

void EtherLink::RunPeersSerial(std::vector<PeerFlow> flows, const std::function<void()>& pump,
                               int side) {
  JoinPeers();
  peers_.clear();
  for (PeerFlow& flow : flows) {
    auto gen = std::make_unique<PeerGen>();
    gen->flow = std::move(flow);
    gen->frame_digest = FrameHash({gen->flow.frame.data(), gen->flow.frame.size()});
    gen->index = peers_.size();
    peers_.push_back(std::move(gen));
  }
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    bool all_done = true;
    bool any_sent = false;
    for (auto& gen : peers_) {
      if (gen->sent >= gen->flow.count) {
        continue;
      }
      all_done = false;
      uint64_t budget = gen->flow.count - gen->sent;
      if (gen->flow.acked != nullptr) {
        uint64_t acked = gen->flow.acked();
        uint64_t window_room =
            gen->sent < acked + gen->flow.window ? acked + gen->flow.window - gen->sent : 0;
        budget = std::min(budget, window_room);
      }
      for (uint64_t i = 0; i < budget; ++i) {
        TransmitFromPeer(side, *gen);
      }
      any_sent |= budget > 0;
    }
    if (all_done) {
      break;
    }
    if (any_sent) {
      last_progress = std::chrono::steady_clock::now();
    } else if (pump == nullptr || std::chrono::steady_clock::now() - last_progress >
                                      std::chrono::seconds(60)) {
      // Consumer wedged (or unpumpable): leave the shortfall visible, naming
      // every flow that still had budget and where its consumer stood.
      for (auto& gen : peers_) {
        if (gen->sent < gen->flow.count) {
          gen->stats.gave_up.store(true, std::memory_order_relaxed);
          bool paced = gen->flow.acked != nullptr;
          LogPeerGaveUp("serial", gen->index, gen->sent, gen->flow.count,
                        paced ? gen->flow.acked() : 0, paced);
        }
      }
      break;
    }
    if (pump != nullptr) {
      pump();
    }
  }
}

double EtherLink::WireTimeNs(uint64_t frames, uint64_t payload_bytes) {
  uint64_t wire_bytes = payload_bytes + frames * kEthWireOverhead;
  // Frames below the Ethernet minimum still occupy min-frame wire time; the
  // caller accounts for that by passing padded byte counts.
  return static_cast<double>(wire_bytes) * 8.0 / kGigabitPerSec * 1e9;
}

}  // namespace sud::devices
