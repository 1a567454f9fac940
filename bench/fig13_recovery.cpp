// Figure 13 (beyond the paper) — crash-recovery cost of the durable
// decided-order log (docs/ARCHITECTURE.md, "Durability & recovery";
// docs/PROTOCOL.md D6).
//
// Panels:
//   (a) recovery latency vs pre-crash log length × snapshot interval ×
//       store medium (simulator): a process journals `L` decided
//       messages, crashes, and restarts — replay wall-time, catch-up
//       volume, and the host-time from restart to full rejoin (delivery
//       log equal to an always-up peer's) are reported per
//       (L, snapshot_every, medium). Without snapshots replay is
//       O(total history); with them it is bounded by the snapshot
//       cadence — that is the claim this panel tracks. The medium axis
//       (kMem vs kFs) separates the journal's protocol cost from real
//       file I/O: replay_ms is wall-clock, so only there the medium
//       shows; host-time metrics must be medium-independent.
//   (b) throughput dip during rejoin (loopback TCP, wall-clock): under
//       sustained load, crash p3, restart it, and bucket an always-up
//       peer's delivery timeline — pre-crash rate, the dip around the
//       restart, and the post-rejoin rate. Post-rejoin must recover to
//       the pre-crash plateau (the acceptance bar is within 20%).
//
// Run with --smoke for the CI-sized variant (smaller grid and load, same
// code paths including real sockets for panel b).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "runtime/cluster.hpp"
#include "workload/load.hpp"
#include "workload/sweep.hpp"

namespace {

using namespace ibc;

/// A mkdtemp scratch directory for filesystem-backed (kFs) stores,
/// removed on scope exit so repeated points cannot see stale journals.
struct TmpStoreDir {
  TmpStoreDir() {
    std::string tmpl = "/tmp/ibc-fig13.XXXXXX";
    const char* got = ::mkdtemp(tmpl.data());
    if (got != nullptr) path = got;
  }
  ~TmpStoreDir() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

abcast::StackConfig recovery_stack() {
  abcast::StackConfig config;  // indirect CT + RB-flood over heartbeat FD
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);
  return config;
}

/// Broadcasts one message from every live process, `rounds` times, with
/// `pause` of host time between rounds.
void drive_rounds(Cluster& cluster, int rounds, Duration pause) {
  for (int i = 0; i < rounds; ++i) {
    for (ProcessId p = 1; p <= cluster.n(); ++p) {
      if (!cluster.host().crashed(p)) {
        cluster.node(p).abroadcast("m-" + std::to_string(p) + "-" +
                                   std::to_string(i));
      }
    }
    cluster.run_for(pause);
  }
}

struct RecoveryPoint {
  double replay_ms = 0.0;       // wall-clock replaying snapshot + log
  double rejoin_ms = 0.0;       // host-time from restart to full rejoin
  double catchup_ids = 0.0;     // decided ids fetched from peers
  double log_records = 0.0;     // journal appends over the whole run
  double snapshots = 0.0;
};

/// Panel (a) measurement: journal `pre_crash_rounds` of decided traffic,
/// crash p3, let the gap grow, restart, and time the rejoin.
RecoveryPoint measure_recovery(int pre_crash_rounds,
                               std::uint32_t snapshot_every,
                               recovery::Config::Medium medium,
                               std::uint64_t seed) {
  recovery::Config rec;
  rec.snapshot_every = snapshot_every;
  rec.medium = medium;
  TmpStoreDir tmp;  // only used (and required) for kFs
  if (medium == recovery::Config::Medium::kFs) {
    IBC_REQUIRE_MSG(!tmp.path.empty(), "mkdtemp failed for kFs store");
    rec.fs_path = tmp.path;
  }
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(seed)
                      .with_stack(recovery_stack())
                      .with_recovery(rec));
  drive_rounds(cluster, pre_crash_rounds, milliseconds(2));
  cluster.run_until_quiesced(milliseconds(100), seconds(30));
  cluster.crash(3);
  drive_rounds(cluster, /*rounds=*/50, milliseconds(2));  // downtime gap

  const TimePoint restarted_at = cluster.now();
  cluster.restart(3);
  // Rejoined = the restarted log has caught the always-up reference; the
  // tail of in-flight traffic makes exact equality a race, so poll until
  // the restarted process has every id the reference had at restart.
  const std::size_t reference = cluster.log(1).size();
  RecoveryPoint out;
  while (cluster.log(3).size() < reference &&
         cluster.now() - restarted_at < seconds(20)) {
    cluster.run_for(milliseconds(5));
  }
  out.rejoin_ms = to_ms(cluster.now() - restarted_at);
  cluster.run_until_quiesced(milliseconds(100), seconds(30));

  const ClusterStats stats = cluster.stats();
  IBC_ASSERT_MSG(stats.prefix_consistent, "recovery broke the total order");
  out.replay_ms = stats.replay_ms;
  out.catchup_ids = static_cast<double>(stats.catchup_ids_fetched);
  out.log_records = static_cast<double>(stats.log_appends);
  out.snapshots = static_cast<double>(stats.snapshot_count);
  return out;
}

struct DipResult {
  std::vector<double> bin_centers_ms;  // timeline x-axis
  std::vector<double> rate_per_bin;    // deliveries/s at the reference
  double pre_crash_rate = 0.0;
  double post_rejoin_rate = 0.0;
  double crash_ms = 0.0;
  double restart_ms = 0.0;
  double load_end_ms = 0.0;  // sources stop here; drain tail follows
  double realized_over_offered = 0.0;  // abroadcasts called / due
};

/// Panel (b): sustained load on loopback TCP, crash + restart p3, and
/// an always-up peer's delivery timeline bucketed into `bin` windows.
DipResult measure_dip(Duration phase, Duration bin, std::uint64_t seed) {
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(seed)
                      .on_tcp()
                      .with_stack(recovery_stack())
                      .with_recovery());
  // One message per millisecond from each live process, on its own
  // reactor, so no sender's pace depends on another process being
  // responsive: the timeline measures the cluster, not the driver.
  const TimePoint stop = cluster.now() + 4 * phase;
  workload::OpenLoop load(
      cluster, [](runtime::Env&) { return milliseconds(1); }, 8, stop);
  load.start();

  DipResult out;
  cluster.run_for(phase);
  out.crash_ms = to_ms(cluster.now());
  cluster.crash(3);
  cluster.run_for(phase);
  out.restart_ms = to_ms(cluster.now());
  cluster.restart(3);
  cluster.run_for(std::max<Duration>(stop - cluster.now(), 1));
  out.load_end_ms = to_ms(stop);
  cluster.run_until_quiesced(milliseconds(300), seconds(30));
  cluster.shutdown();

  const workload::LoadReport whole = load.report(0, stop, 2);
  IBC_ASSERT_MSG(whole.violation.empty(), whole.violation.c_str());
  out.realized_over_offered = static_cast<double>(whole.sent) /
                              static_cast<double>(whole.due);
  const std::vector<workload::ProcessRecord::Delivered>& log =
      load.record(1).delivered;
  IBC_ASSERT_MSG(!log.empty(), "reference process delivered nothing");
  const TimePoint end = log.back().at;
  const std::size_t bins = static_cast<std::size_t>(end / bin) + 1;
  std::vector<double> counts(bins, 0.0);
  for (const workload::ProcessRecord::Delivered& d : log) {
    counts[static_cast<std::size_t>(d.at / bin)] += 1.0;
  }
  const double bin_sec = to_sec(bin);
  double pre_sum = 0.0, post_sum = 0.0;
  int pre_n = 0, post_n = 0;
  for (std::size_t i = 0; i < bins; ++i) {
    const double center_ms = to_ms(bin) * (static_cast<double>(i) + 0.5);
    const double rate = counts[i] / bin_sec;
    out.bin_centers_ms.push_back(center_ms);
    out.rate_per_bin.push_back(rate);
    // Plateaus are selected by bin center so short smoke runs (few
    // bins, wall-clock jitter in the phase boundaries) still yield a
    // sample on each side. Pre-crash: centered before the crash.
    // Post-rejoin: centered at least one settle bin after the restart
    // and still inside the load window (after load_end the timeline is
    // drain tail, not throughput).
    if (center_ms <= out.crash_ms) {
      pre_sum += rate;
      ++pre_n;
    } else if (center_ms >= out.restart_ms + to_ms(bin) &&
               center_ms <= out.load_end_ms) {
      post_sum += rate;
      ++post_n;
    }
  }
  out.pre_crash_rate = pre_n > 0 ? pre_sum / pre_n : 0.0;
  out.post_rejoin_rate = post_n > 0 ? post_sum / post_n : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibc;
  const bool smoke = workload::parse_smoke_flag(argc, argv);
  workload::BenchReport report("fig13_recovery", argc, argv);
  report.meta("n", "3");
  report.meta("stack", abcast::describe(recovery_stack()));
  report.meta("panel_a_host", "sim");
  report.meta("panel_b_host", "tcp");

  // --- Panel (a): recovery latency vs log length × snapshot interval ×
  // store medium (one sub-table per medium, same grid).
  const std::vector<int> lengths =
      smoke ? std::vector<int>{50, 150} : std::vector<int>{200, 800, 3200};
  const std::vector<std::uint32_t> cadences =
      smoke ? std::vector<std::uint32_t>{0, 64}
            : std::vector<std::uint32_t>{0, 64, 512};
  const std::vector<recovery::Config::Medium> media = {
      recovery::Config::Medium::kMem, recovery::Config::Medium::kFs};

  std::vector<double> xs;
  xs.reserve(lengths.size());
  for (const int rounds : lengths) xs.push_back(3.0 * rounds);  // ~msgs
  double mem_replay_worst = 0.0, fs_replay_worst = 0.0;
  for (const recovery::Config::Medium medium : media) {
    const bool fs = medium == recovery::Config::Medium::kFs;
    std::vector<workload::Series> replay, rejoin, fetched;
    for (const std::uint32_t every : cadences) {
      const std::string tag =
          every == 0 ? "no snapshots" : "snap every " + std::to_string(every);
      workload::Series rp{"replay [ms], " + tag, {}};
      workload::Series rj{"rejoin [ms host], " + tag, {}};
      workload::Series cf{"catch-up ids, " + tag, {}};
      for (const int rounds : lengths) {
        const RecoveryPoint p = measure_recovery(rounds, every, medium, 13);
        rp.values.push_back(p.replay_ms);
        rj.values.push_back(p.rejoin_ms);
        cf.values.push_back(p.catchup_ids);
        (fs ? fs_replay_worst : mem_replay_worst) =
            std::max(fs ? fs_replay_worst : mem_replay_worst, p.replay_ms);
      }
      replay.push_back(std::move(rp));
      rejoin.push_back(std::move(rj));
      fetched.push_back(std::move(cf));
    }
    report.table(
        std::string("Figure 13a (store=") + (fs ? "fs" : "mem") +
            "): recovery latency vs pre-crash log length and snapshot "
            "interval, n=3, sim (replay is wall-clock; rejoin is host "
            "time from restart to full catch-up)",
        "msgs", xs, [&] {
          std::vector<workload::Series> all = replay;
          all.insert(all.end(), rejoin.begin(), rejoin.end());
          all.insert(all.end(), fetched.begin(), fetched.end());
          return all;
        }());
  }
  {
    char mbuf[128];
    std::snprintf(mbuf, sizeof mbuf,
                  "replay worst-case: mem %.2f ms, fs %.2f ms "
                  "(wall-clock; host-time metrics are medium-independent)",
                  mem_replay_worst, fs_replay_worst);
    report.note("store_medium_cost", mbuf);
  }

  // --- Panel (b): throughput dip during rejoin on loopback TCP,
  // repeated: wall-clock runs spread, so each value is a median.
  const Duration phase = smoke ? milliseconds(300) : milliseconds(800);
  const int repeats = smoke ? 1 : 5;
  std::vector<DipResult> dips;
  for (int i = 0; i < repeats; ++i)
    dips.push_back(measure_dip(phase, milliseconds(200), 21 + i));
  std::vector<double> crash, restart, pre, post, ratio, realized;
  std::size_t bins = dips.front().rate_per_bin.size();
  for (const DipResult& d : dips) {
    crash.push_back(d.crash_ms);
    restart.push_back(d.restart_ms);
    pre.push_back(d.pre_crash_rate);
    post.push_back(d.post_rejoin_rate);
    ratio.push_back(d.pre_crash_rate > 0
                        ? d.post_rejoin_rate / d.pre_crash_rate
                        : 0.0);
    realized.push_back(d.realized_over_offered);
    bins = std::min(bins, d.rate_per_bin.size());
  }
  workload::Series median{"deliveries/s at p1, median", {}};
  workload::Series low{"deliveries/s at p1, min", {}};
  workload::Series high{"deliveries/s at p1, max", {}};
  for (std::size_t i = 0; i < bins; ++i) {
    std::vector<double> rates;
    for (const DipResult& d : dips) rates.push_back(d.rate_per_bin[i]);
    workload::append_spread(rates, median, low, high);
  }
  std::vector<double> centers = dips.front().bin_centers_ms;
  centers.resize(bins);
  report.table(
      "Figure 13b: delivery rate at an always-up peer through crash and "
      "rejoin of p3, n=3, loopback TCP (200ms bins, wall-clock, " +
          std::to_string(repeats) + " runs)",
      "t [ms]", centers, {median, low, high});

  report.note("runs", "median [min, max] over " + std::to_string(repeats) +
                          " runs, seeds 21..");
  report.note("crash_at_ms", workload::format_spread(crash, "%.0f"));
  report.note("restart_at_ms", workload::format_spread(restart, "%.0f"));
  report.note("pre_crash_rate",
              workload::format_spread(pre, "%.0f") + " msg/s");
  report.note("post_rejoin_rate",
              workload::format_spread(post, "%.0f") + " msg/s");
  report.note("post_rejoin_over_pre_crash",
              workload::format_spread(ratio, "%.2f") +
                  " (acceptance bar: >= 0.80)");
  report.note("realized_over_offered",
              workload::format_spread(realized, "%.4f"));
  report.note("workload",
              "panel a: 3 senders, 1 msg each per 2ms sim round, quiesce, "
              "crash p3, 50 rounds of gap traffic, restart, poll to "
              "rejoin; panel b: workload::OpenLoop at a constant 1 ms gap "
              "(1000 msg/s per live process, due-time schedule), crash p3 "
              "after 1 phase, restart after 2, sources stop after 4");
  report.note("smoke", smoke ? "true" : "false");
  return report.finish();
}
