// Figure 9 (beyond the paper) — ordering throughput vs batch size ×
// pipeline depth.
//
// PR 3 pipelined the ordering side (fig8); this bench measures what
// sender-side payload batching (`StackConfig::batch`, docs/PROTOCOL.md
// D5) buys on the *dissemination* side. On the CPU-calibrated Setup-1
// model the per-message costs are the paper's Java-era per-frame
// overheads: an unbatched abroadcast costs ~10 message handlings across
// the cluster (RB-flood at n=3) before consensus even sees its id. A
// batch of k messages costs the same per *frame*, so the saturation
// throughput scales with the achieved batch size — the same effect
// Ring Paxos exploits.
//
// Panels (all open-loop Poisson via workload::run_experiment — the
// shared methodology of figs 1-7):
//   (a) sim, Setup 1: max sustained throughput per (B, W) — the highest
//       rung of a geometric offered-load ladder that drains within the
//       straggler tolerance;
//   (b) sim, Setup 1: mean latency at a moderate fixed load — what the
//       batch delay costs when the system is *not* saturated.
// Batching on loopback TCP is fig10_transport's subject.
//
// Run with --smoke for the CI-sized variant.
#include <algorithm>
#include <string>
#include <vector>

#include "workload/sweep.hpp"

namespace {

using namespace ibc;

constexpr std::size_t kPayloadBytes = 32;

abcast::StackConfig stack_for(std::size_t batch_msgs, std::uint32_t window,
                              const net::NetModel& model) {
  abcast::StackConfig config =
      workload::indirect_ct(model, abcast::RbKind::kFloodN2);
  config.pipeline_depth = window;
  config.batch.max_msgs = batch_msgs;
  // 2 ms of extra sender-side latency buys batch formation at high load;
  // panel (b) shows what it costs when load is low.
  config.batch.max_delay = milliseconds(2);
  return config;
}

workload::ExperimentConfig config_for(std::size_t batch_msgs,
                                      std::uint32_t window) {
  workload::ExperimentConfig cfg;
  cfg.n = 3;
  cfg.model = net::NetModel::setup1();
  cfg.stack = stack_for(batch_msgs, window, cfg.model);
  cfg.payload_bytes = kPayloadBytes;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibc;
  const bool smoke = workload::parse_smoke_flag(argc, argv);
  workload::BenchReport report("fig9_batching", argc, argv);
  report.meta("host", "sim");
  report.meta("n", "3");
  report.meta("model", "setup1");
  report.meta("stack",
              abcast::describe(stack_for(/*batch_msgs=*/16, /*window=*/4,
                                         net::NetModel::setup1())));
  report.meta("payload_bytes", std::to_string(kPayloadBytes));

  const std::vector<double> batches =
      smoke ? std::vector<double>{1, 8} : std::vector<double>{1, 4, 16};
  const std::vector<std::uint32_t> windows =
      smoke ? std::vector<std::uint32_t>{1} : std::vector<std::uint32_t>{1, 4};
  const std::vector<double> ladder =
      smoke ? std::vector<double>{400, 1600}
            : std::vector<double>{500,  1000,  2000,  4000,
                                  8000, 16000, 32000};

  workload::SweepOptions opt;
  opt.warmup = smoke ? milliseconds(500) : seconds(1);
  opt.measure = smoke ? seconds(1) : seconds(4);
  opt.drain = smoke ? seconds(1) : seconds(3);

  // ------------------------------------------------- (a) sim saturation
  double baseline = 0.0;  // sustained at (B=1, W=1)
  double best = 0.0;
  std::string best_label = "B=1,W=1";
  std::string capped;  // configs that never saturated within the ladder
  std::vector<workload::Series> sustained_series;
  std::vector<workload::Series> batching_series;
  for (const std::uint32_t w : windows) {
    workload::Series tput{"sustained tput [msg/s], W=" + std::to_string(w),
                          {}};
    workload::Series mpb{"msgs/batch at knee, W=" + std::to_string(w), {}};
    for (const double b : batches) {
      const std::string label = "B=" +
                                std::to_string(static_cast<int>(b)) +
                                ",W=" + std::to_string(w);
      // The sustained throughput is the realized rate of the highest
      // rung that drained.
      const workload::Knee k = workload::climb_ladder(
          config_for(static_cast<std::size_t>(b), w), ladder, opt);
      const double sustained = k.at.achieved_throughput;
      tput.values.push_back(sustained);
      mpb.values.push_back(k.at.msgs_per_batch_avg);
      if (k.capped) capped += (capped.empty() ? "" : "; ") + label;
      if (b == 1 && w == 1) baseline = sustained;
      if (sustained > best) {
        best = sustained;
        best_label = label;
      }
    }
    sustained_series.push_back(std::move(tput));
    batching_series.push_back(std::move(mpb));
  }
  if (!capped.empty()) {
    // No silent caps: these points sustained the whole ladder, so their
    // reported value is a lower bound, not the knee.
    report.note("sim_ladder_capped", capped);
  }
  std::vector<workload::Series> panel_a = sustained_series;
  panel_a.insert(panel_a.end(), batching_series.begin(),
                 batching_series.end());
  report.table(
      "Figure 9a: max sustained throughput vs batch size B and window W, "
      "n=3, Setup 1 (sim, open-loop Poisson)",
      "B", batches, panel_a);

  if (baseline > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2fx at %s", best / baseline,
                  best_label.c_str());
    report.note("sim_improvement_best_vs_B1W1", buf);
  }

  // ---------------------------------------- (b) sim latency off the knee
  {
    const double moderate = smoke ? 300 : 800;  // msg/s, all configs drain
    std::vector<workload::Series> latency;
    for (const std::uint32_t w : windows) {
      workload::Series s{"mean latency [ms], W=" + std::to_string(w), {}};
      for (const double b : batches) {
        const workload::ExperimentResult r = workload::run_point(
            config_for(static_cast<std::size_t>(b), w), moderate, opt);
        s.values.push_back(workload::point_saturated(r, opt)
                               ? workload::saturated_marker()
                               : r.mean_latency_ms);
      }
      latency.push_back(std::move(s));
    }
    report.table(
        "Figure 9b: mean latency at a moderate load vs batch size "
        "(the cost of the 2 ms batch delay off-saturation), n=3, Setup 1",
        "B", batches, latency);
  }

  report.note("workload",
              "open-loop Poisson via workload::run_experiment; sustained = "
              "realized rate of the highest offered-load rung that drained "
              "within the 1% straggler tolerance");
  report.note("batch_max_delay", "2ms");
  report.note("smoke", smoke ? "true" : "false");
  return report.finish();
}
