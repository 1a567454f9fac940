// Figure 10 (beyond the paper) — loopback-TCP transport throughput after
// the zero-copy multicast send path.
//
// fig9c exposed the gap this bench tracks: the protocol core sustains
// ~32k msg/s on the simulator, but loopback TCP was pinned near ~1.8k
// msg/s regardless of batch size B or pipeline window W — the transport,
// not the algorithm, was the bottleneck (one envelope encode + one
// buffer copy + one lock + one wake syscall + one write syscall *per
// frame per peer*). The rebuilt send path encodes a frame once, shares
// the ref-counted buffer across all n-1 peers, enqueues without lock or
// wake from the reactor thread, and flushes each peer's queue with one
// writev per reactor cycle (docs/ARCHITECTURE.md, "The TCP transport").
//
// Panels (open-loop Poisson via workload::run_experiment, the shared
// methodology of figs 1-9; all wall-clock on real sockets, indicative):
//   (a) sustained throughput per (B, W): the delivered rate of the
//       highest offered-load rung that drains within the straggler
//       tolerance, median and range over repeated ladder climbs;
//   (b) at the knee: frames per writev (the syscall-amortization
//       claim, observable, not asserted), wake syscalls per 1000
//       accepted sends (the fast-path claim: protocol sends never touch
//       the wake pipe) and the generator's lag behind its schedule.
// A note gives the realized/offered abroadcast rate over the rungs below
// each knee: near 1 unless the generator fell behind its schedule.
//
// Run with --smoke for the CI-sized variant (shorter phases, smaller
// grid — still real sockets; that is the point of the bench).
#include <cstdio>
#include <string>
#include <vector>

#include "workload/sweep.hpp"

namespace {

using namespace ibc;

constexpr std::size_t kPayloadBytes = 32;

abcast::StackConfig stack_for(std::size_t batch_msgs, std::uint32_t window) {
  abcast::StackConfig config = workload::indirect_ct(
      net::NetModel::setup1(), abcast::RbKind::kFloodN2);
  config.pipeline_depth = window;
  config.batch.max_msgs = batch_msgs;
  config.batch.max_delay = milliseconds(2);
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);
  return config;
}

workload::ExperimentConfig config_for(std::size_t batch_msgs,
                                      std::uint32_t window) {
  workload::ExperimentConfig cfg;
  cfg.n = 3;
  cfg.host = runtime::HostKind::kTcp;
  cfg.stack = stack_for(batch_msgs, window);
  cfg.payload_bytes = kPayloadBytes;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibc;
  const bool smoke = workload::parse_smoke_flag(argc, argv);
  workload::BenchReport report("fig10_transport", argc, argv);
  report.meta("host", "tcp");
  report.meta("n", "3");
  // B/W-neutral description — those knobs are the swept axes.
  report.meta("stack",
              abcast::describe(stack_for(/*batch_msgs=*/1, /*window=*/1)));
  report.meta("payload_bytes", std::to_string(kPayloadBytes));

  const std::vector<double> batches =
      smoke ? std::vector<double>{1, 4} : std::vector<double>{1, 4, 16};
  const std::vector<std::uint32_t> windows =
      smoke ? std::vector<std::uint32_t>{1} : std::vector<std::uint32_t>{1, 4};
  const std::vector<double> ladder =
      smoke ? std::vector<double>{300, 600}
            : std::vector<double>{8000, 16000, 32000, 64000, 128000,
                                  256000};

  workload::SweepOptions opt;
  opt.warmup = smoke ? milliseconds(200) : milliseconds(300);
  opt.measure = smoke ? milliseconds(500) : seconds(1);
  opt.drain = smoke ? milliseconds(800) : seconds(1);

  // Wall-clock points spread from run to run: each cell climbs the
  // ladder `repeats` times and reports the median and range.
  const int repeats = smoke ? 1 : 5;
  std::string capped;  // configs that never saturated within the ladder
  std::vector<std::vector<double>> rate_points;  // per (cell, rung)
  double baseline = 0.0;  // median sustained at (B=1, W=1)
  double best = 0.0;
  std::string best_label = "B=1,W=1";
  std::vector<workload::Series> tput_series;
  std::vector<workload::Series> efficiency;
  for (const std::uint32_t w : windows) {
    const std::string ws = ", W=" + std::to_string(w);
    workload::Series tput{"sustained tput [msg/s] median" + ws, {}};
    workload::Series lo{"sustained tput [msg/s] min" + ws, {}};
    workload::Series hi{"sustained tput [msg/s] max" + ws, {}};
    workload::Series fpw{"frames/writev at knee" + ws, {}};
    workload::Series wak{"wakeups/1k sends at knee" + ws, {}};
    workload::Series lag{"generator lag p99 [ms] at knee" + ws, {}};
    for (const double b : batches) {
      const std::string label = "B=" +
                                std::to_string(static_cast<int>(b)) +
                                ",W=" + std::to_string(w);
      const workload::Climbs climbs = workload::climb_repeated(
          config_for(static_cast<std::size_t>(b), w), ladder, opt, repeats);
      std::vector<double> runs, fpws, wakes, lags;
      for (const workload::ExperimentResult& r : climbs.knees) {
        runs.push_back(r.delivered_throughput);
        fpws.push_back(r.frames_per_writev_avg);
        wakes.push_back(r.messages_sent == 0
                            ? 0.0
                            : 1000.0 * static_cast<double>(r.wakeups) /
                                  static_cast<double>(r.messages_sent));
        lags.push_back(r.gen_lag_p99_ms);
      }
      if (climbs.capped) capped += (capped.empty() ? "" : "; ") + label;
      rate_points.insert(rate_points.end(),
                         climbs.realized_over_offered.begin(),
                         climbs.realized_over_offered.end());
      workload::append_spread(runs, tput, lo, hi);
      const double sustained = runs.empty() ? 0.0 : tput.values.back();
      if (b == 1 && w == 1) baseline = sustained;
      if (sustained > best) {
        best = sustained;
        best_label = label;
      }
      const auto median = [](const std::vector<double>& v) {
        return v.empty() ? workload::saturated_marker()
                         : workload::spread_of(v).median;
      };
      fpw.values.push_back(median(fpws));
      wak.values.push_back(median(wakes));
      lag.values.push_back(median(lags));
    }
    tput_series.insert(tput_series.end(), {tput, lo, hi});
    efficiency.insert(efficiency.end(), {fpw, wak, lag});
  }
  if (!capped.empty()) {
    // No silent caps: these points sustained the whole ladder in at
    // least one run, so their value is a lower bound, not the knee.
    report.note("tcp_ladder_capped", capped);
  }
  report.table(
      "Figure 10a: max sustained throughput vs batch size B and window W, "
      "n=3, loopback TCP (open-loop Poisson, wall-clock, median and range "
      "of " + std::to_string(repeats) + " runs)",
      "B", batches, tput_series);
  report.table(
      "Figure 10b: at the knee — frames per writev (syscall amortization), "
      "wakeups per 1000 sends (fast path) and generator lag p99 (medians)",
      "B", batches, efficiency);

  char buf[64];
  if (baseline > 0.0) {
    std::snprintf(buf, sizeof buf, "%.2fx at %s", best / baseline,
                  best_label.c_str());
    report.note("tcp_improvement_best_vs_B1W1", buf);
  }
  report.note("realized_over_offered_below_knee",
              workload::format_rate_check(rate_points));
  report.note("workload",
              "open-loop Poisson via workload::run_experiment on loopback "
              "TCP; sustained = delivered rate of the highest offered-load "
              "rung that drained within the 1% straggler tolerance; "
              "realized / offered = abroadcasts called / due in the "
              "window");
  report.note("smoke", smoke ? "true" : "false");
  return report.finish();
}
