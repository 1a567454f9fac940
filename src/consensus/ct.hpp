// Chandra-Toueg ♦S consensus (rotating coordinator), multi-instance.
//
// The algorithm of [2] as presented in §3.2.1 of the paper, with the
// pseudocode of Algorithm 2. Rounds rotate through coordinators; each
// round has four phases:
//
//   Phase 1  every process sends its (estimate, ts) to the round's
//            coordinator (skipped in round 1);
//   Phase 2  the coordinator gathers ⌈(n+1)/2⌉ estimates, selects one
//            with the largest timestamp as its proposal estimate_c, and
//            sends it to all (in round 1 it proposes its own estimate);
//   Phase 3  every process (the coordinator included — it receives its
//            own proposal through the loopback path) either receives the
//            proposal and replies ack/nack, or suspects the coordinator
//            (♦S) and replies nack;
//   Phase 4  the coordinator waits for ⌈(n+1)/2⌉ acks (→ R-broadcast a
//            DECIDE carrying estimate_c) or a single nack (→ next round).
//
// Requires f < n/2. DECIDE dissemination is reliable-broadcast by
// relay-on-first-receipt, so a decision survives the coordinator crashing
// mid-broadcast.
//
// The *indirect* adaptation (Algorithm 2) changes exactly one decision
// point: whether a process adopts the coordinator's proposal in Phase 3.
// That point is exposed as `CtConfig::accept_proposal`; when unset the
// behaviour is the original algorithm (always adopt + ack). Keeping the
// coordinator's proposal (estimate_c, per round) separate from its own
// estimate (estimate_p) — the subtlety §3.2.2 discusses — falls out of
// routing the coordinator's own adoption through Phase 3 like everyone
// else's.
//
// Crash-recovery (docs/PROTOCOL.md D6): a restarted incarnation lost
// every round message sent to it while it was down, and a live process
// is never suspected, so nothing else would tell it where an instance
// stands. Two rules keep rounds moving: its start-up announcement makes
// each peer re-send its current round's state (its estimate if the
// restarter coordinates that round, its proposal if the peer does), and
// a round is left once it can no longer decide — when its coordinator,
// or too many processes for a majority, have been heard from in later
// rounds (a coordinator only leaves a round once the round failed).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/consensus.hpp"
#include "fd/failure_detector.hpp"
#include "runtime/stack.hpp"

namespace ibc::consensus {

struct CtConfig {
  /// Phase-3 adoption test for the coordinator's proposal. Returning
  /// false sends a nack and leaves the local estimate untouched
  /// (Algorithm 2 lines 25-30). nullptr = original CT: always accept.
  std::function<bool(InstanceId, BytesView)> accept_proposal;
};

class CtConsensus final : public runtime::Layer, public Consensus {
 public:
  CtConsensus(runtime::Stack& stack, runtime::LayerId layer_id,
              fd::FailureDetector& detector, CtConfig config = {});

  void propose(InstanceId k, Bytes value) override;
  bool has_decided(InstanceId k) const override;

  /// Restart-amnesia floor (docs/PROTOCOL.md D6): this incarnation must
  /// not vote in any instance k <= floor — a previous incarnation may
  /// already have, and voting again with wiped round state could
  /// contradict it. Abstention is *announced* (at start and in reply to
  /// round messages for barred instances), because an abstainer that
  /// stays silent wedges the rounds it would coordinate: it is alive,
  /// so ♦S never suspects it, and without a proposal or a suspicion the
  /// other processes wait forever. Peers treat an announced abstention
  /// exactly like a suspicion of that coordinator for those instances.
  void set_participation_floor(InstanceId floor) { floor_ = floor; }

  void on_start() override;
  void on_message(ProcessId from, Reader& r) override;

  /// Current round of instance `k` (0 if not started) — test observability.
  std::uint32_t round_of(InstanceId k) const;

 private:
  struct RoundData {
    // Phase 2 (coordinator): estimates received for this round.
    std::unordered_map<ProcessId, std::pair<Bytes, std::uint32_t>> estimates;
    // The proposal this round's coordinator computed (coordinator only).
    std::optional<Bytes> estimate_c;
    // Phase 3: the proposal as received from the coordinator.
    std::optional<Bytes> proposal;
    // Phase 4 (coordinator): replies.
    std::unordered_set<ProcessId> acks;
    bool nacked = false;
  };

  enum class Wait : std::uint8_t {
    kNone,       // not participating (not proposed, or decided)
    kEstimates,  // coordinator in Phase 2
    kProposal,   // Phase 3
    kAcks,       // coordinator in Phase 4
  };

  struct Instance {
    bool proposed = false;
    bool decided = false;
    Bytes decision;
    Bytes estimate;
    std::uint32_t ts = 0;
    std::uint32_t round = 0;
    Wait wait = Wait::kNone;
    std::map<std::uint32_t, RoundData> rounds;
    /// [q]: highest round of q's round traffic received (sized lazily).
    std::vector<std::uint32_t> heard_round;
  };

  ProcessId coord_of(std::uint32_t round) const {
    return (round % ctx_.n()) + 1;
  }

  Instance& instance(InstanceId k) { return instances_[k]; }

  void enter_round(InstanceId k, Instance& inst, std::uint32_t r);
  void coordinator_try_phase2(InstanceId k, Instance& inst);
  void try_phase3(InstanceId k, Instance& inst);
  void phase3_reply(InstanceId k, Instance& inst, bool ack);
  /// Leaves the current round (deferred) for the next one.
  void advance_round(InstanceId k, Instance& inst);
  void coordinator_try_phase4(InstanceId k, Instance& inst);
  void decide_instance(InstanceId k, Instance& inst, BytesView value,
                       ProcessId relay_skip);
  void on_suspicion(ProcessId p);
  /// Re-sends to a restarted `p` what this process already sent for its
  /// current round of every open instance above p's floor.
  void resend_round_state(ProcessId p);
  /// Records that `from` has reached `round` in instance `k`.
  void note_round(InstanceId k, Instance& inst, ProcessId from,
                  std::uint32_t round);
  /// True iff the current round can no longer decide: its coordinator,
  /// or too many processes for a majority, are known to have left it.
  bool round_out_of_reach(const Instance& inst) const;

  void send_decide(InstanceId k, BytesView value, ProcessId skip);
  void send_abstain(ProcessId dst, std::uint8_t type);
  /// True iff `q` announced it abstains from instance `k`.
  bool abstains(ProcessId q, InstanceId k) const {
    return k <= abstain_floor_[q];
  }

  runtime::LayerContext ctx_;
  fd::FailureDetector& detector_;
  CtConfig config_;
  std::unordered_map<InstanceId, Instance> instances_;
  InstanceId floor_ = 0;  // own abstention floor (restart recovery)
  std::vector<InstanceId> abstain_floor_;  // [1..n] peers' announced floors
};

}  // namespace ibc::consensus
