// Seeded scenario fuzzing for atomic broadcast.
//
// A `Scenario` is one fully-specified hostile execution: a stack choice,
// group size, pipeline window W and batch size B, randomized client
// traffic, a crash/restart schedule, and a network `FaultPlan` —
// everything the deterministic simulator needs to replay the run
// bit-for-bit from a seed. `run_scenario` builds the cluster, drives the traffic, and runs
// the invariant oracle over the delivery logs:
//
//   safety (always):        uniform total order (prefix consistency),
//                           uniform integrity (exactly-once, only
//                           broadcast ids, payload intact);
//   liveness (lossless      validity, uniform agreement, and no
//   fault plans only):      permanently blocked ordering head.
//
// Lossy plans (kDrop / kPartitionDrop) break the quasi-reliable-channel
// assumption the protocol is specified under, so only safety is checked
// there — the interesting claim is that arbitrary message loss never
// corrupts the order, even though it may stall progress.
//
// On a failing scenario, `shrink_scenario` greedily removes schedule
// events (fault events and crashes, one at a time, re-running after
// each) until no single removal preserves the failure — the classic
// delta-debugging descent, cheap here because runs are milliseconds.
// Scenarios serialize to a line-oriented text file (`to_text` /
// `parse_scenario`) that `tools/scenario_fuzz --replay` accepts, and
// `replay_command` prints the one-liner to paste into a shell.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abcast/stack_builder.hpp"
#include "net/faults.hpp"
#include "runtime/cluster.hpp"

namespace ibc::fuzz {

/// The correct stack variants the fuzzer exercises (the §2.2 faulty
/// stack is excluded: it violates validity by design, which would drown
/// real findings). Indexed by `Scenario::stack`.
struct StackChoice {
  abcast::Variant variant;
  abcast::ConsensusAlgo algo;
  abcast::RbKind rb;
  const char* name;
};
const std::vector<StackChoice>& fuzz_stacks();

struct Scenario {
  std::uint64_t seed = 1;          // drives traffic + protocol randomness
  std::size_t stack = 0;           // index into fuzz_stacks()
  std::uint32_t n = 3;             // group size
  std::uint32_t pipeline = 1;      // ordering window W
  std::size_t batch_msgs = 1;      // batch size B
  std::uint32_t msgs_per_sender = 6;
  /// Window the per-sender traffic timers are spread over. Small windows
  /// make bursts: many undecided ids at once, concurrent consensus
  /// instances, real pipeline/batch contention.
  std::uint32_t traffic_window_ms = 300;
  std::vector<ClusterCrash> crashes;
  /// Crash-recovery schedule: a restarted process replays its durable
  /// store and catches up from its peers (MemDir recovery). Honored only
  /// on indirect-variant stacks — the recovery subsystem journals the
  /// decided *id* order, which the direct (kMsgs) variant doesn't have.
  std::vector<ClusterRestart> restarts;
  /// recovery::Config::snapshot_every for restart-bearing runs (0 =
  /// never snapshot): nonzero cadences make restarts load a snapshot
  /// and replay only the log tail after it.
  std::uint64_t snapshot_every = 0;
  net::FaultPlan faults;
  /// Host the scenario runs on. kSim (the default, and what
  /// generate_scenario emits) is the deterministic simulator; kTcp runs
  /// the same schedule against the loopback-TCP host's writev-boundary
  /// fault stage. Real sockets are not schedule-deterministic, so kTcp
  /// runs are safety-always + liveness-after-heal with a wall-clock
  /// bound (the quiesce limit) — determinism sweeps stay sim-only.
  runtime::HostKind host = runtime::HostKind::kSim;
  /// Fuzzer self-test only: build the stacks with the deliberate
  /// ordering-dedup bug so the oracle has something real to catch.
  bool inject_skip_dedup = false;

  /// Shrink granularity: the events the shrinker may remove.
  std::size_t schedule_events() const {
    return crashes.size() + restarts.size() + faults.events.size();
  }
};

/// One invariant violation found by the oracle.
struct Violation {
  std::string property;  // "total-order", "validity", ...
  std::string detail;
};

struct RunResult {
  std::vector<Violation> violations;
  /// Per-process delivered id sequences ([p-1]), for determinism checks.
  std::vector<std::vector<MessageId>> orders;
  ClusterStats stats;

  bool ok() const { return violations.empty(); }
};

/// Draws a random scenario from `seed`: stack × n ∈ [3,5] × W ∈ {1,8} ×
/// B ∈ {1,4}, a resilience-respecting crash schedule (about half the
/// crashes on indirect stacks gain a later restart, with a snapshot
/// cadence from {0, 1, 3, 16}), and 0–5 fault events across every
/// FaultKind. Same seed, same scenario.
Scenario generate_scenario(std::uint64_t seed);

/// Builds, runs, and checks one scenario. Deterministic: equal
/// scenarios produce equal results (including `orders`).
RunResult run_scenario(const Scenario& scenario);

/// Greedy shrink of a failing scenario: repeatedly drop the first fault
/// event / crash whose removal keeps the run failing, until a fixpoint.
/// Returns `scenario` unchanged if it doesn't fail. `runs`, if non-null,
/// receives the number of candidate re-runs spent.
Scenario shrink_scenario(const Scenario& scenario,
                         std::size_t* runs = nullptr);

/// Replayable text form (repro file body).
std::string to_text(const Scenario& scenario);
/// Inverse of `to_text`; nullopt on malformed input.
std::optional<Scenario> parse_scenario(std::string_view text);

/// One-line shell command that replays `scenario` via tools/scenario_fuzz.
std::string replay_command(const Scenario& scenario);

}  // namespace ibc::fuzz
