// Scenario-fuzzer suite: the ctest-resident smoke of the hostile-network
// adversary (ROADMAP item 5).
//
//   * Smoke: 200 generated adversary+crash schedules across stacks ×
//     W × B must satisfy the abcast invariant oracle.
//   * Determinism: the same seed + schedule yields bit-identical total
//     orders across independent runs, for every stack — replay
//     determinism survives the adversary layer.
//   * Self-test: a deliberately injected ordering bug (dedup disabled)
//     is caught by the oracle and shrunk to a tiny repro — evidence the
//     oracle and the shrinker detect real failures, not vacuous truths.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"
#include "harness.hpp"

namespace ibc::fuzz {
namespace {

/// Failure message payload: the full repro file plus the replay command,
/// so a red CI run is reproducible from the log alone.
std::string repro(const Scenario& s) {
  return "\n--- failing scenario ---\n" + to_text(s) + "--- replay ---\n" +
         replay_command(s);
}

std::string violations_text(const RunResult& result) {
  std::string out;
  for (const Violation& v : result.violations) {
    out += "\n  [" + v.property + "] " + v.detail;
  }
  return out;
}

/// The fuzz smoke, split into four ctest-parallel slices of 50 seeds
/// each (>= 200 schedules total, the CI floor).
class FuzzSmoke : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSmoke, GeneratedSchedulesSatisfyInvariants) {
  const std::uint64_t first = 1 + 50 * GetParam();
  for (std::uint64_t seed = first; seed < first + 50; ++seed) {
    SCOPED_TRACE(test::repro_hint(seed));
    const Scenario scenario = generate_scenario(seed);
    const RunResult result = run_scenario(scenario);
    ASSERT_TRUE(result.ok()) << violations_text(result) << repro(scenario);
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, FuzzSmoke,
                         ::testing::Range<std::uint64_t>(0, 4));

/// Replay determinism across the adversary layer: ~30 seeds × every
/// stack, two independent runs, bit-identical per-process orders.
class FuzzDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FuzzDeterminism, SameSeedAndScheduleSameTotalOrder) {
  const std::size_t stack = GetParam();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(test::repro_hint(seed));
    Scenario scenario = generate_scenario(seed);
    scenario.stack = stack;
    const RunResult a = run_scenario(scenario);
    const RunResult b = run_scenario(scenario);
    ASSERT_EQ(a.orders, b.orders)
        << "non-deterministic replay on stack "
        << fuzz_stacks()[stack].name << repro(scenario);
    ASSERT_EQ(a.violations.size(), b.violations.size()) << repro(scenario);
  }
}

INSTANTIATE_TEST_SUITE_P(Stacks, FuzzDeterminism,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto& info) {
                           return std::string(
                               fuzz_stacks()[info.param].name);
                         });

/// Adversary drops are observable through ClusterStats (the counter
/// split this PR introduced): a certain-drop plan strands messages and
/// the run reports them as fault drops, not crash drops.
TEST(FuzzOracle, LossyPlanChecksSafetyOnlyAndCountsFaultDrops) {
  Scenario scenario = generate_scenario(3);
  scenario.crashes.clear();
  scenario.faults.events.clear();
  net::FaultEvent drop;
  drop.kind = net::FaultKind::kDrop;
  drop.from = 0;
  drop.until = seconds(600);
  drop.src = 1;  // p1's outbound traffic all dies
  drop.prob = 1.0;
  scenario.faults.events.push_back(drop);
  const RunResult result = run_scenario(scenario);
  // Safety must hold even though p1 is effectively mute; liveness is
  // exempt for lossy plans, so no validity violations may be reported.
  ASSERT_TRUE(result.ok()) << violations_text(result) << repro(scenario);
  EXPECT_GT(result.stats.dropped_fault, 0u);
  EXPECT_EQ(result.stats.dropped_crash, 0u);
}

/// Tier-1 smoke of the TCP-host scenario mode: one fixed faulted
/// schedule — a healing partition plus an asymmetric link delay — runs
/// against real loopback sockets on every push. Lossless plan, so the
/// full oracle arms: safety always, liveness within the wall-clock
/// quiesce bound after the heal. The nightly job sweeps hundreds of
/// generated schedules through the same path with --tcp --safety-only.
TEST(FuzzTcpHost, FixedFaultedScheduleHoldsOnRealSockets) {
  Scenario s;
  s.seed = 7;
  s.stack = 0;  // the paper's indirect-CT + RB-flood stack
  s.n = 3;
  s.pipeline = 8;
  s.msgs_per_sender = 8;
  s.traffic_window_ms = 150;
  s.host = runtime::HostKind::kTcp;
  net::FaultEvent cut;
  cut.kind = net::FaultKind::kPartition;
  cut.from = milliseconds(30);
  cut.until = milliseconds(250);
  cut.group = 1u << 0;  // process 1 vs the rest
  s.faults.events.push_back(cut);
  net::FaultEvent delay;
  delay.kind = net::FaultKind::kDelay;
  delay.from = 0;
  delay.until = milliseconds(300);
  delay.src = 2;
  delay.dst = 3;
  delay.extra = milliseconds(5);
  s.faults.events.push_back(delay);

  const RunResult result = run_scenario(s);
  ASSERT_TRUE(result.ok()) << violations_text(result) << repro(s);
  // The writev-boundary fault stage really fired: partition holds and
  // link delays are both accounted as delayed frames.
  EXPECT_GT(result.stats.delayed_fault, 0u);
}

TEST(FuzzTcpHost, HostKeyRoundTripsAndStaysOffSimRepros) {
  // A kTcp scenario carries its host across the text round-trip...
  Scenario s = generate_scenario(5);
  s.host = runtime::HostKind::kTcp;
  const std::string text = to_text(s);
  EXPECT_NE(text.find("host tcp"), std::string::npos);
  const std::optional<Scenario> back = parse_scenario(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->host, runtime::HostKind::kTcp);

  // ...while sim scenarios serialize without the key at all, so repro
  // files written before the key existed stay byte-identical.
  const Scenario sim = generate_scenario(5);
  EXPECT_EQ(to_text(sim).find("host"), std::string::npos);
  const std::optional<Scenario> sim_back = parse_scenario(to_text(sim));
  ASSERT_TRUE(sim_back.has_value());
  EXPECT_EQ(sim_back->host, runtime::HostKind::kSim);
}

TEST(FuzzOracle, ScenarioTextRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario s = generate_scenario(seed);
    const std::optional<Scenario> back = parse_scenario(to_text(s));
    ASSERT_TRUE(back.has_value()) << to_text(s);
    EXPECT_EQ(back->seed, s.seed);
    EXPECT_EQ(back->stack, s.stack);
    EXPECT_EQ(back->n, s.n);
    EXPECT_EQ(back->pipeline, s.pipeline);
    EXPECT_EQ(back->batch_msgs, s.batch_msgs);
    EXPECT_EQ(back->msgs_per_sender, s.msgs_per_sender);
    EXPECT_EQ(back->traffic_window_ms, s.traffic_window_ms);
    EXPECT_EQ(back->inject_skip_dedup, s.inject_skip_dedup);
    EXPECT_EQ(back->snapshot_every, s.snapshot_every);
    ASSERT_EQ(back->crashes.size(), s.crashes.size());
    for (std::size_t i = 0; i < s.crashes.size(); ++i) {
      EXPECT_EQ(back->crashes[i].at, s.crashes[i].at);
      EXPECT_EQ(back->crashes[i].process, s.crashes[i].process);
    }
    ASSERT_EQ(back->restarts.size(), s.restarts.size());
    for (std::size_t i = 0; i < s.restarts.size(); ++i) {
      EXPECT_EQ(back->restarts[i].at, s.restarts[i].at);
      EXPECT_EQ(back->restarts[i].process, s.restarts[i].process);
    }
    ASSERT_EQ(back->faults.events.size(), s.faults.events.size());
    for (std::size_t i = 0; i < s.faults.events.size(); ++i) {
      EXPECT_EQ(net::to_text(back->faults.events[i]),
                net::to_text(s.faults.events[i]));
    }
  }
  EXPECT_FALSE(parse_scenario("not a scenario").has_value());
  EXPECT_FALSE(parse_scenario("scenario v1\nbogus 1\n").has_value());
}

/// Crash-recovery schedules: the generator emits `restart` events after
/// crashes on indirect stacks, and the oracle holds the restarted
/// process to the full bar — exactly-once redelivery across the restart
/// (its log already contains the pre-crash prefix; replay must not
/// re-emit it), the downtime gap filled by catch-up, and no blocked
/// ordering head at quiescence. Replay determinism must survive the
/// restart path too.
TEST(FuzzRestart, RestartBearingSchedulesRecoverExactlyOnce) {
  std::size_t with_restarts = 0;
  std::size_t snapshotted = 0;
  for (std::uint64_t seed = 1; seed <= 120 && with_restarts < 12; ++seed) {
    const Scenario scenario = generate_scenario(seed);
    if (scenario.restarts.empty()) continue;
    ++with_restarts;
    SCOPED_TRACE(test::repro_hint(seed));
    const RunResult result = run_scenario(scenario);
    ASSERT_TRUE(result.ok()) << violations_text(result) << repro(scenario);
    // Recovery actually engaged: the restarted incarnation journaled.
    EXPECT_GT(result.stats.log_appends, 0u) << repro(scenario);
    if (result.stats.snapshot_count > 0) ++snapshotted;
  }
  ASSERT_GE(with_restarts, 3u)
      << "the generator almost never emits restarts — restart coverage "
         "is vacuous";
  // Snapshot cadences are drawn too, so restore-from-snapshot runs
  // under the same oracle.
  EXPECT_GE(snapshotted, 1u) << "no restart schedule ever took a snapshot";
}

/// Shrunk repros of schedules that wedged CT rounds on a restart: the
/// restarted process lost round messages sent to its previous
/// incarnation — a round-1 proposal (seed 1889), the estimates for a
/// round it coordinates (seed 506), and both while a majority had moved
/// on (seed 4738). docs/PROTOCOL.md D6, "Lost round messages (CT)".
TEST(FuzzRestart, RestartedProcessRecoversLostRoundMessages) {
  const char* const repros[] = {
      "scenario v1\nseed 1889\nstack 5\nn 3\npipeline 1\nbatch 4\n"
      "msgs 5\nwindow 300\ncrash 142000000 3\nrestart 241000000 3\n",
      "scenario v1\nseed 506\nstack 5\nn 4\npipeline 1\nbatch 4\n"
      "msgs 7\nwindow 300\ncrash 89000000 4\nrestart 178000000 4\n",
      "scenario v1\nseed 4738\nstack 5\nn 5\npipeline 8\nbatch 1\n"
      "msgs 5\nwindow 300\ncrash 114000000 5\ncrash 39000000 4\n"
      "restart 187000000 4\n",
  };
  for (const char* text : repros) {
    const std::optional<Scenario> scenario = parse_scenario(text);
    ASSERT_TRUE(scenario.has_value()) << text;
    const RunResult result = run_scenario(*scenario);
    EXPECT_TRUE(result.ok()) << violations_text(result) << repro(*scenario);
  }
}

TEST(FuzzRestart, ReplayDeterminismHoldsForRestartSeeds) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 120 && checked < 5; ++seed) {
    const Scenario scenario = generate_scenario(seed);
    if (scenario.restarts.empty()) continue;
    ++checked;
    SCOPED_TRACE(test::repro_hint(seed));
    const RunResult a = run_scenario(scenario);
    const RunResult b = run_scenario(scenario);
    ASSERT_EQ(a.orders, b.orders)
        << "restart path is non-deterministic" << repro(scenario);
  }
  ASSERT_GE(checked, 1u);
}

/// The fuzzer's reason to exist: prove the oracle catches a real
/// protocol bug and the shrinker reduces it to a minimal repro. The
/// injected defect disables OrderingCore's apply-time dedup, so under a
/// pipelined window an id decided by two overlapping instances is
/// ordered twice and permanently blocks the delivery head — a liveness
/// violation the blocked-head/validity checks must flag.
TEST(FuzzSelfTest, InjectedDedupBugIsCaughtAndShrunkToMinimalRepro) {
  std::optional<Scenario> failing;
  for (std::uint64_t seed = 1; seed <= 80 && !failing.has_value(); ++seed) {
    Scenario s = generate_scenario(seed);
    // The bug needs an id-ordering stack and overlapping concurrent
    // instances: force a pipelined window, burst the traffic so many
    // ids are undecided at once, and drop lossy events (the liveness
    // oracle only arms on lossless plans).
    if (fuzz_stacks()[s.stack].variant == abcast::Variant::kMsgs) {
      s.stack = 0;  // the paper's indirect-CT stack
    }
    s.pipeline = 8;
    s.msgs_per_sender = 24;
    s.traffic_window_ms = 2;
    std::erase_if(s.faults.events,
                  [](const net::FaultEvent& e) { return e.lossy(); });
    s.inject_skip_dedup = true;
    if (!run_scenario(s).ok()) failing = s;
  }
  ASSERT_TRUE(failing.has_value())
      << "the injected dedup bug was never detected in 80 seeds — the "
         "oracle is vacuous or the bug hook is disconnected";

  // Control: the identical schedule without the bug must be clean.
  Scenario clean = *failing;
  clean.inject_skip_dedup = false;
  EXPECT_TRUE(run_scenario(clean).ok())
      << "scenario fails even without the injected bug" << repro(clean);

  // Shrink: every fault event / crash that is not needed to trigger the
  // bug must be removed; the bug itself needs none of them.
  std::size_t runs = 0;
  const Scenario minimal = shrink_scenario(*failing, &runs);
  EXPECT_LE(minimal.schedule_events(), 5u)
      << "shrinker left " << minimal.schedule_events() << " schedule events"
      << repro(minimal);
  EXPECT_FALSE(run_scenario(minimal).ok())
      << "shrunk scenario no longer fails" << repro(minimal);
  EXPECT_GE(runs, 1u);

  // The minimal repro must survive the text round-trip still failing —
  // that file is what CI uploads and --replay consumes.
  const std::optional<Scenario> parsed = parse_scenario(to_text(minimal));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->inject_skip_dedup);
  EXPECT_FALSE(run_scenario(*parsed).ok());
}

}  // namespace
}  // namespace ibc::fuzz
