// Tier-2: atomic broadcast across real OS processes.
//
// These suites fork one ibcd daemon per rank (multiprocess/fixture.hpp)
// and check the §2.1 contract where tier 1 cannot: across genuine
// process boundaries, with SIGKILL as the crash and a relaunch from the
// on-disk store as the recovery. The delivery oracle is the PR 7
// exactly-once/total-order one, adapted to a real kill:
//
//   * never-killed ranks must end with byte-identical delivery logs;
//   * a killed rank's first-incarnation log L1 must be a strict prefix
//     of the survivors' log R, its second-incarnation log L2 the
//     contiguous suffix of R, with L1 and L2 disjoint — pre-crash
//     deliveries are never repeated and the downtime gap is filled by
//     journal replay + peer catch-up;
//   * between L1 and L2 at most kMaxKillWindowLoss deliveries may be
//     missing from the union: the journal syncs the kDeliver record
//     BEFORE the daemon's subscriber writes the log line, so a SIGKILL
//     landing between the two loses observed lines (bounded by the
//     in-flight window) but can never fabricate, duplicate, or reorder
//     one.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "multiprocess/fixture.hpp"
#include "net/faults.hpp"
#include "net/tcp/tcp_process.hpp"

namespace ibc::test {
namespace {

/// Deliveries that may vanish between a synced kDeliver record and the
/// daemon's log write when SIGKILL lands in between. One delivery is
/// mid-callback at most, but a decided batch can apply several ids
/// back-to-back before the reactor returns to poll.
constexpr std::size_t kMaxKillWindowLoss = 32;

ProcessId origin_of(const std::string& line) {
  return static_cast<ProcessId>(std::stoul(line.substr(0, line.find(':'))));
}

std::size_t count_origin(const std::vector<std::string>& log,
                         ProcessId origin) {
  return static_cast<std::size_t>(
      std::count_if(log.begin(), log.end(), [origin](const std::string& l) {
        return origin_of(l) == origin;
      }));
}

std::size_t count_tagged(const std::vector<std::string>& log,
                         const std::string& tag) {
  const std::string needle = "." + tag + ".";
  return static_cast<std::size_t>(
      std::count_if(log.begin(), log.end(), [&](const std::string& l) {
        return l.find(needle) != std::string::npos;
      }));
}

void expect_exactly_once(const std::vector<std::string>& log,
                         const std::string& who) {
  std::set<std::string> seen;
  for (const std::string& line : log) {
    const std::string id = line.substr(0, line.find(' '));
    EXPECT_TRUE(seen.insert(id).second)
        << who << " delivered " << id << " twice";
  }
}

using MultiprocessTraffic = MultiprocessTest;

TEST_F(MultiprocessTraffic, ThreeRanksDeliverOneTotalOrder) {
  constexpr std::uint32_t kN = 3;
  constexpr int kSend = 30;
  IbcdOptions opts;
  opts.n = kN;
  opts.send = kSend;
  opts.interval_ms = 2;
  for (ProcessId rank = 1; rank <= kN; ++rank) spawn_rank(rank, opts);
  ASSERT_TRUE(barrier("ready", kN)) << "cluster never finished booting";

  const std::size_t expected = kN * static_cast<std::size_t>(kSend);
  ASSERT_TRUE(wait_until(
      [&] {
        for (ProcessId rank = 1; rank <= kN; ++rank)
          if (deliveries(rank).size() < expected) return false;
        return true;
      },
      seconds(60)))
      << "cluster never delivered the full load";

  stop_all();
  for (ProcessId rank = 1; rank <= kN; ++rank) expect_child_exit(rank);

  const std::vector<std::string> reference = deliveries(1);
  ASSERT_EQ(reference.size(), expected);
  expect_exactly_once(reference, "rank 1");
  for (ProcessId origin = 1; origin <= kN; ++origin) {
    EXPECT_EQ(count_origin(reference, origin),
              static_cast<std::size_t>(kSend));
  }
  for (ProcessId rank = 2; rank <= kN; ++rank) {
    EXPECT_EQ(deliveries(rank), reference)
        << "rank " << rank << " delivered a different total order";
  }
}

TEST_F(MultiprocessTraffic, FiveRanksDeliverOneTotalOrder) {
  constexpr std::uint32_t kN = 5;
  constexpr int kSend = 15;
  IbcdOptions opts;
  opts.n = kN;
  opts.send = kSend;
  opts.interval_ms = 2;
  for (ProcessId rank = 1; rank <= kN; ++rank) spawn_rank(rank, opts);
  ASSERT_TRUE(barrier("ready", kN)) << "cluster never finished booting";

  const std::size_t expected = kN * static_cast<std::size_t>(kSend);
  ASSERT_TRUE(wait_until(
      [&] {
        for (ProcessId rank = 1; rank <= kN; ++rank)
          if (deliveries(rank).size() < expected) return false;
        return true;
      },
      seconds(60)))
      << "cluster never delivered the full load";

  stop_all();
  for (ProcessId rank = 1; rank <= kN; ++rank) expect_child_exit(rank);

  const std::vector<std::string> reference = deliveries(1);
  ASSERT_EQ(reference.size(), expected);
  expect_exactly_once(reference, "rank 1");
  for (ProcessId origin = 1; origin <= kN; ++origin) {
    EXPECT_EQ(count_origin(reference, origin),
              static_cast<std::size_t>(kSend));
  }
  for (ProcessId rank = 2; rank <= kN; ++rank) {
    EXPECT_EQ(deliveries(rank), reference)
        << "rank " << rank << " delivered a different total order";
  }
}

using MultiprocessCrash = MultiprocessTest;

// The headline case: a rank is SIGKILLed while the cluster is under
// load, then relaunched as a brand-new OS process pointed at the same
// store directory. It must rejoin via journal replay + peer catch-up,
// resume broadcasting (its new frames must not collide with the dead
// incarnation's in any peer's dedup state), and the §2.1 oracle must
// hold across both incarnations.
TEST_F(MultiprocessCrash, SigkilledRankRejoinsFromItsStoreExactlyOnce) {
  constexpr std::uint32_t kN = 3;
  constexpr ProcessId kVictim = 3;
  constexpr int kSendFirst = 80;   // ~2s of load at 25ms per send
  constexpr int kSendSecond = 10;  // the relaunch broadcasts fresh load
  IbcdOptions opts;
  opts.n = kN;
  opts.send = kSendFirst;
  opts.interval_ms = 25;
  for (ProcessId rank = 1; rank <= kN; ++rank) spawn_rank(rank, opts);
  ASSERT_TRUE(barrier("ready", kN)) << "cluster never finished booting";

  // Let the victim get partway into the run, then kill it for real.
  ASSERT_TRUE(wait_until([&] { return deliveries(kVictim).size() >= 20; },
                         seconds(60)))
      << "cluster never got under way";
  sigkill_rank(kVictim);
  const std::vector<std::string> first = deliveries(kVictim);
  const std::size_t total = kN * static_cast<std::size_t>(kSendFirst);
  ASSERT_LT(first.size(), total)
      << "the kill landed after the load finished - not a mid-load crash";

  // Relaunch against the same store. No cleanup of any kind: whatever
  // the dead incarnation managed to sync is exactly what the new
  // process finds. The relaunch's payloads carry a tag so the oracle
  // can tell its fresh broadcasts from the dead incarnation's — they
  // must not be swallowed by any peer's duplicate-suppression state.
  IbcdOptions relaunch = opts;
  relaunch.send = kSendSecond;
  relaunch.tag = "inc1";
  spawn_rank(kVictim, relaunch);

  // The survivors' full load plus the relaunch's new broadcasts must
  // all come out; then drain and stop.
  ASSERT_TRUE(wait_until(
      [&] {
        const std::vector<std::string> log = deliveries(1);
        return count_origin(log, 1) == kSendFirst &&
               count_origin(log, 2) == kSendFirst &&
               count_tagged(log, "inc1") ==
                   static_cast<std::size_t>(kSendSecond);
      },
      seconds(90)))
      << "the relaunched rank's broadcasts never got ordered";
  stop_all();
  for (ProcessId rank = 1; rank <= kN; ++rank) expect_child_exit(rank);

  // Survivors agree with each other...
  const std::vector<std::string> reference = deliveries(1);
  EXPECT_EQ(deliveries(2), reference)
      << "the surviving ranks diverged";
  expect_exactly_once(reference, "rank 1");
  EXPECT_EQ(count_origin(reference, 1), static_cast<std::size_t>(kSendFirst));
  EXPECT_EQ(count_origin(reference, 2), static_cast<std::size_t>(kSendFirst));
  // Every one of the relaunch's tagged broadcasts was ordered exactly
  // once: the new incarnation's frames did not collide with the dead
  // one's in any peer's dedup table.
  EXPECT_EQ(count_tagged(reference, "inc1"),
            static_cast<std::size_t>(kSendSecond));

  // ...and the victim's two incarnations tile the reference order:
  // L1 a strict prefix, L2 the contiguous suffix, a bounded gap between.
  const std::vector<std::string> second = deliveries(kVictim, 1);
  ASSERT_LE(first.size(), reference.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), reference.begin()))
      << "pre-crash deliveries are not a prefix of the group order";
  ASSERT_LE(second.size(), reference.size());
  const std::size_t resume_at = reference.size() - second.size();
  EXPECT_TRUE(std::equal(second.begin(), second.end(),
                         reference.begin() +
                             static_cast<std::ptrdiff_t>(resume_at)))
      << "post-restart deliveries are not the suffix of the group order";
  EXPECT_GE(resume_at, first.size())
      << "the relaunch repeated a delivery the old incarnation made";
  EXPECT_LE(resume_at - first.size(), kMaxKillWindowLoss)
      << "the kill window swallowed more than the in-flight bound";
}

/// The L1/L2 tiling oracle for one killed-and-relaunched rank: its
/// first-incarnation log must be a prefix of the group order, its
/// second-incarnation log the contiguous suffix, with at most
/// kMaxKillWindowLoss deliveries swallowed by the kill window between
/// them (see the file comment).
void expect_incarnations_tile(const std::vector<std::string>& first,
                              const std::vector<std::string>& second,
                              const std::vector<std::string>& reference,
                              const std::string& who) {
  ASSERT_LE(first.size(), reference.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), reference.begin()))
      << who << ": pre-crash deliveries are not a prefix of the group order";
  ASSERT_LE(second.size(), reference.size());
  const std::size_t resume_at = reference.size() - second.size();
  EXPECT_TRUE(std::equal(second.begin(), second.end(),
                         reference.begin() +
                             static_cast<std::ptrdiff_t>(resume_at)))
      << who
      << ": post-restart deliveries are not the suffix of the group order";
  EXPECT_GE(resume_at, first.size())
      << who << ": the relaunch repeated a delivery the old incarnation made";
  EXPECT_LE(resume_at - first.size(), kMaxKillWindowLoss)
      << who << ": the kill window swallowed more than the in-flight bound";
}

// Crash storm, concurrent flavor: two of five ranks are SIGKILLed
// back-to-back (both kills inside a 50ms window) and relaunched
// *simultaneously*. The relaunches race each other through discovery —
// each one's first dial to the other reads the dead incarnation's stale
// port file, so this only converges because ibcd re-reads port.<q> on
// every bounded-backoff attempt. The simultaneous dials between the two
// relaunches also exercise the accept-side tie-break (lower rank's
// connection wins) under a genuine two-process race.
TEST_F(MultiprocessCrash, ConcurrentSigkillsBothRelaunchExactlyOnce) {
  constexpr std::uint32_t kN = 5;
  constexpr ProcessId kVictimA = 4;
  constexpr ProcessId kVictimB = 5;
  constexpr int kSendFirst = 40;  // ~1s of load at 25ms per send
  constexpr int kSendSecond = 6;
  IbcdOptions opts;
  opts.n = kN;
  opts.send = kSendFirst;
  opts.interval_ms = 25;
  for (ProcessId rank = 1; rank <= kN; ++rank) spawn_rank(rank, opts);
  ASSERT_TRUE(barrier("ready", kN)) << "cluster never finished booting";

  ASSERT_TRUE(wait_until([&] { return deliveries(1).size() >= 30; },
                         seconds(60)))
      << "cluster never got under way";

  // Both kills land essentially at once: two kill(2) syscalls
  // back-to-back, each victim reaped before the next call returns.
  const auto kills_begin = std::chrono::steady_clock::now();
  sigkill_rank(kVictimA);
  sigkill_rank(kVictimB);
  const auto kills_span = std::chrono::steady_clock::now() - kills_begin;
  EXPECT_LE(kills_span, std::chrono::milliseconds(50))
      << "the two SIGKILLs did not land inside the storm window";
  const std::vector<std::string> first_a = deliveries(kVictimA);
  const std::vector<std::string> first_b = deliveries(kVictimB);

  // Relaunch both immediately — no stagger, no cleanup. The majority
  // (ranks 1-3) held throughout, so the group kept ordering.
  IbcdOptions relaunch = opts;
  relaunch.send = kSendSecond;
  relaunch.tag = "r4b";
  spawn_rank(kVictimA, relaunch);
  relaunch.tag = "r5b";
  spawn_rank(kVictimB, relaunch);

  ASSERT_TRUE(wait_until(
      [&] {
        const std::vector<std::string> log = deliveries(1);
        return count_origin(log, 1) == kSendFirst &&
               count_origin(log, 2) == kSendFirst &&
               count_origin(log, 3) == kSendFirst &&
               count_tagged(log, "r4b") ==
                   static_cast<std::size_t>(kSendSecond) &&
               count_tagged(log, "r5b") ==
                   static_cast<std::size_t>(kSendSecond);
      },
      seconds(90)))
      << "the relaunched ranks' broadcasts never got ordered";
  stop_all();
  for (ProcessId rank = 1; rank <= kN; ++rank) expect_child_exit(rank);

  // Never-killed ranks end byte-identical; nothing is ever repeated.
  const std::vector<std::string> reference = deliveries(1);
  expect_exactly_once(reference, "rank 1");
  EXPECT_EQ(deliveries(2), reference) << "rank 2 diverged from rank 1";
  EXPECT_EQ(deliveries(3), reference) << "rank 3 diverged from rank 1";
  EXPECT_EQ(count_tagged(reference, "r4b"),
            static_cast<std::size_t>(kSendSecond));
  EXPECT_EQ(count_tagged(reference, "r5b"),
            static_cast<std::size_t>(kSendSecond));

  // Each victim's incarnations tile the group order independently.
  expect_incarnations_tile(first_a, deliveries(kVictimA, 1), reference,
                           "rank 4");
  expect_incarnations_tile(first_b, deliveries(kVictimB, 1), reference,
                           "rank 5");

  // The bounded-backoff redials are observable in the relaunch logs:
  // every successful dial reports its attempt count.
  const std::string log_a = rank_log(kVictimA, 1);
  const std::string log_b = rank_log(kVictimB, 1);
  EXPECT_NE(log_a.find("connected to rank"), std::string::npos)
      << "rank 4 relaunch log carries no dial diagnostics";
  EXPECT_NE(log_a.find("attempt"), std::string::npos);
  EXPECT_NE(log_b.find("connected to rank"), std::string::npos)
      << "rank 5 relaunch log carries no dial diagnostics";
  EXPECT_NE(log_b.find("attempt"), std::string::npos);
}

// Crash storm, staggered flavor, under an active adversary: the whole
// run executes with a fault plan armed on every rank (25% whole-frame
// duplication on every link, plus 3ms of extra latency into rank 2).
// Two ranks die mid-load and relaunch 300ms apart. Frame duplication
// must be absorbed by the stack's dedup exactly as it is on the
// simulator, and the recovery path must work while the adversary is
// still live — the plan never deactivates during the test.
TEST_F(MultiprocessCrash, StaggeredSigkillsUnderFaultPlanExactlyOnce) {
  constexpr std::uint32_t kN = 5;
  constexpr ProcessId kVictimA = 2;
  constexpr ProcessId kVictimB = 4;
  constexpr int kSendFirst = 40;
  constexpr int kSendSecond = 5;

  net::FaultPlan plan;
  {
    net::FaultEvent dup;
    dup.kind = net::FaultKind::kDuplicate;
    dup.from = 0;
    dup.until = Duration(120) * 1'000'000'000;  // the whole test
    dup.prob = 0.25;
    plan.events.push_back(dup);
    net::FaultEvent delay;
    delay.kind = net::FaultKind::kDelay;
    delay.from = 0;
    delay.until = Duration(120) * 1'000'000'000;
    delay.dst = 2;
    delay.extra = 3'000'000;  // 3ms into rank 2, every sender
    plan.events.push_back(delay);
  }

  IbcdOptions opts;
  opts.n = kN;
  opts.send = kSendFirst;
  opts.interval_ms = 25;
  opts.fault_plan = net::to_text(plan);
  for (ProcessId rank = 1; rank <= kN; ++rank) spawn_rank(rank, opts);
  ASSERT_TRUE(barrier("ready", kN)) << "cluster never finished booting";

  ASSERT_TRUE(wait_until([&] { return deliveries(1).size() >= 25; },
                         seconds(60)))
      << "cluster never got under way";
  sigkill_rank(kVictimA);
  sigkill_rank(kVictimB);
  const std::vector<std::string> first_a = deliveries(kVictimA);
  const std::vector<std::string> first_b = deliveries(kVictimB);

  // Staggered relaunch: the first victim is already redialing (and
  // being duplicated at) while the second is still down.
  IbcdOptions relaunch = opts;
  relaunch.send = kSendSecond;
  relaunch.tag = "r2b";
  spawn_rank(kVictimA, relaunch);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  relaunch.tag = "r4b";
  spawn_rank(kVictimB, relaunch);

  ASSERT_TRUE(wait_until(
      [&] {
        const std::vector<std::string> log = deliveries(1);
        return count_origin(log, 1) == kSendFirst &&
               count_origin(log, 3) == kSendFirst &&
               count_origin(log, 5) == kSendFirst &&
               count_tagged(log, "r2b") ==
                   static_cast<std::size_t>(kSendSecond) &&
               count_tagged(log, "r4b") ==
                   static_cast<std::size_t>(kSendSecond);
      },
      seconds(90)))
      << "the relaunched ranks' broadcasts never got ordered";
  stop_all();
  for (ProcessId rank = 1; rank <= kN; ++rank) expect_child_exit(rank);

  const std::vector<std::string> reference = deliveries(1);
  expect_exactly_once(reference, "rank 1");
  EXPECT_EQ(deliveries(3), reference) << "rank 3 diverged from rank 1";
  EXPECT_EQ(deliveries(5), reference) << "rank 5 diverged from rank 1";
  EXPECT_EQ(count_tagged(reference, "r2b"),
            static_cast<std::size_t>(kSendSecond));
  EXPECT_EQ(count_tagged(reference, "r4b"),
            static_cast<std::size_t>(kSendSecond));
  expect_incarnations_tile(first_a, deliveries(kVictimA, 1), reference,
                           "rank 2");
  expect_incarnations_tile(first_b, deliveries(kVictimB, 1), reference,
                           "rank 4");

  // The plan really was armed: the daemon logs it, and under prob 0.25
  // duplication some frame duplications must have been counted.
  EXPECT_NE(rank_log(1, 0).find("armed fault plan"), std::string::npos)
      << "rank 1 never armed the adversary";
}

// Satellite guard: every listener binds 127.0.0.1 port 0 and reports the
// kernel's choice, so concurrent clusters (ctest -j) can never collide
// on a hard-coded port.
TEST(TcpProcessPorts, KernelAssignsDistinctEphemeralPorts) {
  std::vector<std::optional<std::uint16_t>> ports(3);
  const net::tcp::PortBook book{
      [&](ProcessId rank, std::uint16_t port) { ports[rank] = port; },
      [&](ProcessId rank) { return ports[rank]; }};
  net::tcp::TcpProcess a(1, 2, book);
  net::tcp::TcpProcess b(2, 2, book);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  a.join_mesh(false, deadline);
  b.join_mesh(false, deadline);
  ASSERT_TRUE(ports[1].has_value() && ports[2].has_value());
  EXPECT_NE(*ports[1], 0);
  EXPECT_NE(*ports[2], 0);
  EXPECT_NE(*ports[1], *ports[2]);
}

}  // namespace
}  // namespace ibc::test
