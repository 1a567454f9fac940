// Figure 11 (beyond the paper) — dissemination topology: ring vs flood.
//
// RbFloodN2 is the paper's dissemination layer: the origin sends a frame
// to all n-1 peers and every receiver re-floods it, so each node pays
// n-1 payload sends per frame and the cluster pays O(n²) wire messages.
// RbRing (docs/PROTOCOL.md D7) forwards each frame only to the ring
// successor: 1 payload send per node, O(n) wire messages, at the price
// of O(n) hop latency and an FD-driven repair path. This bench measures
// the trade as n grows.
//
// Panels (open-loop Poisson via workload::run_experiment, the shared
// methodology of figs 1-10):
//   (a) sim, Setup 1: sustained throughput per (n, rb) — the realized
//       rate of the highest offered-load rung that drains within the
//       straggler tolerance. Flooding's per-node send CPU grows with n
//       (n-1 sends/frame × 60 µs) while the ring's stays flat, so the
//       curves separate as n grows;
//   (b) sim: the mechanism behind (a) — per-node payload sends per frame
//       (n-1 vs 1, observed, not asserted) and the ring's origin→deliver
//       hop-latency high water (the cost side of the trade);
//   (c) loopback TCP: the same sweep on real sockets (smaller n and
//       ladder; wall-clock, median and range of repeated runs).
//
// Run with --smoke for the CI-sized variant (sim n ∈ {3,5}, TCP n = 3,
// two-rung ladders, short phases).
#include <cstdio>
#include <string>
#include <vector>

#include "workload/sweep.hpp"

namespace {

using namespace ibc;

constexpr std::size_t kPayloadBytes = 32;

abcast::StackConfig stack_for(abcast::RbKind rb) {
  abcast::StackConfig config =
      workload::indirect_ct(net::NetModel::setup1(), rb);
  // fig10-style fast-path configuration: a modest ordering window and
  // sender batch so dissemination — not the W=1 ordering round-trip —
  // is the binding constraint.
  config.pipeline_depth = 4;
  config.batch.max_msgs = 8;
  config.batch.max_delay = milliseconds(2);
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);
  return config;
}

workload::ExperimentConfig config_for(std::uint32_t n,
                                      runtime::HostKind host,
                                      abcast::RbKind rb) {
  workload::ExperimentConfig cfg;
  cfg.n = n;
  cfg.host = host;
  cfg.model = net::NetModel::setup1();
  cfg.stack = stack_for(rb);
  cfg.payload_bytes = kPayloadBytes;
  return cfg;
}

std::string rb_name(abcast::RbKind rb) {
  return rb == abcast::RbKind::kRing ? "rb_ring" : "rb_flood";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibc;
  const bool smoke = workload::parse_smoke_flag(argc, argv);
  workload::BenchReport report("fig11_dissemination", argc, argv);
  report.meta("model", "setup1");
  report.meta("payload_bytes", std::to_string(kPayloadBytes));
  report.meta("stack_flood",
              abcast::describe(stack_for(abcast::RbKind::kFloodN2)));
  report.meta("stack_ring", abcast::describe(stack_for(abcast::RbKind::kRing)));

  const std::vector<abcast::RbKind> kinds = {abcast::RbKind::kFloodN2,
                                             abcast::RbKind::kRing};

  // ---- Panels (a)+(b): simulator.
  const std::vector<double> sim_ns =
      smoke ? std::vector<double>{3, 5} : std::vector<double>{3, 5, 9, 17};
  const std::vector<double> sim_ladder =
      smoke ? std::vector<double>{100, 200}
            : std::vector<double>{200, 400, 800,  1600,
                                  3200, 6400, 12800};
  workload::SweepOptions sim_opt;
  sim_opt.warmup = smoke ? milliseconds(300) : seconds(1);
  sim_opt.measure = smoke ? milliseconds(800) : seconds(2);
  sim_opt.drain = smoke ? seconds(1) : seconds(2);

  double flood_n9 = 0.0, ring_n9 = 0.0;
  std::string capped;
  std::vector<workload::Series> sim_tput;
  std::vector<workload::Series> sim_sends;
  std::vector<workload::Series> sim_hop;
  for (const abcast::RbKind rb : kinds) {
    workload::Series tput{"sustained tput [msg/s], " + rb_name(rb), {}};
    workload::Series sends{"per-node sends/frame, " + rb_name(rb), {}};
    workload::Series hop{"hop-latency high water [ms], " + rb_name(rb), {}};
    for (const double n : sim_ns) {
      const auto un = static_cast<std::uint32_t>(n);
      // Sustained: the delivered rate of the highest rung that drained.
      const workload::Knee k = workload::climb_ladder(
          config_for(un, runtime::HostKind::kSim, rb), sim_ladder, sim_opt);
      const double mark = workload::saturated_marker();
      tput.values.push_back(k.measured() ? k.at.delivered_throughput : mark);
      sends.values.push_back(k.measured() ? k.at.rb_sends_per_frame_max
                                        : mark);
      hop.values.push_back(k.measured() ? k.at.rb_hop_latency_max_ms : mark);
      if (k.capped)
        capped += (capped.empty() ? "" : "; ") + rb_name(rb) +
                  ",n=" + std::to_string(un) + ",sim";
      if (un == 9) (rb == abcast::RbKind::kRing ? ring_n9 : flood_n9) =
          k.at.delivered_throughput;
    }
    sim_tput.push_back(std::move(tput));
    sim_sends.push_back(std::move(sends));
    sim_hop.push_back(std::move(hop));
  }
  report.table(
      "Figure 11a: max sustained throughput vs group size n, flood vs ring "
      "dissemination, sim Setup 1 (open-loop Poisson)",
      "n", sim_ns, sim_tput);
  std::vector<workload::Series> mechanism = sim_sends;
  mechanism.insert(mechanism.end(), sim_hop.begin(), sim_hop.end());
  report.table(
      "Figure 11b: the mechanism — per-node payload sends per frame "
      "(n-1 flooding, 1 ring) and the ring's hop-latency high water",
      "n", sim_ns, mechanism);
  if (flood_n9 > 0.0 && ring_n9 > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2fx (%.0f vs %.0f msg/s)",
                  ring_n9 / flood_n9, ring_n9, flood_n9);
    report.note("sim_ring_vs_flood_n9", buf);
  }

  // ---- Panel (c): loopback TCP (wall-clock; keep it small).
  const std::vector<double> tcp_ns =
      smoke ? std::vector<double>{3} : std::vector<double>{3, 5, 9};
  const std::vector<double> tcp_ladder =
      smoke ? std::vector<double>{200, 400}
            : std::vector<double>{1000, 4000, 16000, 64000};
  workload::SweepOptions tcp_opt;
  tcp_opt.warmup = smoke ? milliseconds(200) : milliseconds(300);
  tcp_opt.measure = smoke ? milliseconds(500) : seconds(1);
  tcp_opt.drain = smoke ? milliseconds(800) : seconds(1);

  // Wall-clock points spread from run to run: each one climbs the
  // ladder `repeats` times and reports the median and range.
  const int repeats = smoke ? 1 : 5;
  std::vector<std::vector<double>> rate_points;  // per (curve, n, rung)
  std::vector<workload::Series> tcp_tput;
  for (const abcast::RbKind rb : kinds) {
    workload::Series tput{"sustained tput [msg/s] median, " + rb_name(rb),
                          {}};
    workload::Series lo{"sustained tput [msg/s] min, " + rb_name(rb), {}};
    workload::Series hi{"sustained tput [msg/s] max, " + rb_name(rb), {}};
    for (const double n : tcp_ns) {
      const auto un = static_cast<std::uint32_t>(n);
      const workload::Climbs climbs = workload::climb_repeated(
          config_for(un, runtime::HostKind::kTcp, rb), tcp_ladder, tcp_opt,
          repeats);
      std::vector<double> runs;
      for (const workload::ExperimentResult& r : climbs.knees)
        runs.push_back(r.delivered_throughput);
      if (climbs.capped)
        capped += (capped.empty() ? "" : "; ") + rb_name(rb) +
                  ",n=" + std::to_string(un) + ",tcp";
      rate_points.insert(rate_points.end(),
                         climbs.realized_over_offered.begin(),
                         climbs.realized_over_offered.end());
      workload::append_spread(runs, tput, lo, hi);
    }
    tcp_tput.insert(tcp_tput.end(), {tput, lo, hi});
  }
  report.table(
      "Figure 11c: max sustained throughput vs n, flood vs ring, loopback "
      "TCP (wall-clock, median and range of " + std::to_string(repeats) +
          " runs)",
      "n", tcp_ns, tcp_tput);
  report.note("tcp_realized_over_offered_below_knee",
              workload::format_rate_check(rate_points));

  if (!capped.empty()) {
    // No silent caps: these points sustained the whole ladder (on TCP,
    // in at least one run), so their value is a lower bound, not the
    // knee.
    report.note("ladder_capped", capped);
  }
  report.note("workload",
              "open-loop Poisson via workload::run_experiment; sustained = "
              "realized rate of the highest offered-load rung that drained "
              "within the 1% straggler tolerance; realized / offered = "
              "abroadcasts called / due in the window");
  report.note("smoke", smoke ? "true" : "false");
  return report.finish();
}
