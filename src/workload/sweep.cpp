#include "workload/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/assert.hpp"

namespace ibc::workload {

bool point_saturated(const ExperimentResult& result,
                     const SweepOptions& opt) {
  const double undelivered_frac =
      result.broadcasts_measured == 0
          ? 0.0
          : static_cast<double>(result.undelivered) /
                static_cast<double>(result.broadcasts_measured);
  return undelivered_frac > opt.straggler_tolerance;
}

ExperimentResult run_point(ExperimentConfig config, double rate,
                           const SweepOptions& opt) {
  config.throughput_msgs_per_sec = rate;
  config.warmup = opt.warmup;
  config.measure = opt.measure;
  config.drain = opt.drain;
  config.seed = opt.seed;
  ExperimentResult r = run_experiment(config);
  IBC_ASSERT_MSG(r.violation.empty(), r.violation.c_str());
  return r;
}

double latency_point(std::uint32_t n, const net::NetModel& model,
                     const abcast::StackConfig& stack,
                     std::size_t payload_bytes, double throughput,
                     const SweepOptions& opt) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.model = model;
  cfg.stack = stack;
  cfg.payload_bytes = payload_bytes;
  const ExperimentResult r = run_point(cfg, throughput, opt);
  if (point_saturated(r, opt)) return saturated_marker();
  return r.mean_latency_ms;
}

Knee climb_ladder(const ExperimentConfig& config,
                  const std::vector<double>& ladder,
                  const SweepOptions& opt) {
  Knee knee;
  for (const double rate : ladder) {
    ExperimentResult r = run_point(config, rate, opt);
    if (point_saturated(r, opt)) {
      knee.capped = false;
      break;
    }
    knee.realized_over_offered.push_back(r.achieved_throughput /
                                         r.offered_throughput);
    knee.at = std::move(r);
  }
  return knee;
}

Climbs climb_repeated(const ExperimentConfig& config,
                      const std::vector<double>& ladder,
                      const SweepOptions& opt, int repeats) {
  Climbs out;
  out.realized_over_offered.resize(ladder.size());
  for (int i = 0; i < repeats; ++i) {
    SweepOptions run_opt = opt;
    run_opt.seed = opt.seed + static_cast<std::uint64_t>(i);
    Knee k = climb_ladder(config, ladder, run_opt);
    out.capped = out.capped || k.capped;
    for (std::size_t r = 0; r < k.realized_over_offered.size(); ++r)
      out.realized_over_offered[r].push_back(k.realized_over_offered[r]);
    // A climb whose *first* rung saturated measured nothing.
    if (k.measured()) out.knees.push_back(std::move(k.at));
  }
  return out;
}

Spread spread_of(std::vector<double> runs) {
  IBC_REQUIRE(!runs.empty());
  std::sort(runs.begin(), runs.end());
  const std::size_t mid = runs.size() / 2;
  const double median = runs.size() % 2 == 1
                            ? runs[mid]
                            : (runs[mid - 1] + runs[mid]) / 2.0;
  return Spread{median, runs.front(), runs.back()};
}

void append_spread(const std::vector<double>& runs, Series& median,
                   Series& min, Series& max) {
  const Spread s = runs.empty() ? Spread{saturated_marker(),
                                         saturated_marker(),
                                         saturated_marker()}
                                : spread_of(runs);
  median.values.push_back(s.median);
  min.values.push_back(s.min);
  max.values.push_back(s.max);
}

std::string format_spread(const std::vector<double>& runs,
                          const char* format) {
  const Spread s = spread_of(runs);
  const std::string f =
      std::string(format) + " [" + format + ", " + format + "]";
  char buf[128];
  std::snprintf(buf, sizeof buf, f.c_str(), s.median, s.min, s.max);
  return buf;
}

std::string format_rate_check(
    const std::vector<std::vector<double>>& points) {
  std::vector<double> medians, runs;
  for (const std::vector<double>& point : points) {
    if (point.empty()) continue;
    medians.push_back(spread_of(point).median);
    runs.insert(runs.end(), point.begin(), point.end());
  }
  if (runs.empty()) return "no drained rung";
  const auto off = [](const std::vector<double>& v) {
    return std::count_if(v.begin(), v.end(), [](double x) {
      return std::abs(x - 1.0) > 0.01;
    });
  };
  const Spread m = spread_of(medians);
  const Spread r = spread_of(runs);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "per-point medians in [%.4f, %.4f], %td of %zu off by more "
                "than 1%%; single runs in [%.4f, %.4f], %td of %zu off by "
                "more than 1%%",
                m.min, m.max, off(medians), medians.size(), r.min, r.max,
                off(runs), runs.size());
  return buf;
}

bool parse_smoke_flag(int argc, char* const* argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  return false;
}

abcast::StackConfig indirect_ct(const net::NetModel& model,
                                abcast::RbKind rb) {
  abcast::StackConfig c;
  c.variant = abcast::Variant::kIndirect;
  c.algo = abcast::ConsensusAlgo::kCt;
  c.rb = rb;
  c.fd = abcast::FdKind::kHeartbeat;
  c.indirect.rcv_check_cost_per_id = model.rcv_check_cost_per_id;
  return c;
}

abcast::StackConfig msgs_ct(abcast::RbKind rb) {
  abcast::StackConfig c;
  c.variant = abcast::Variant::kMsgs;
  c.algo = abcast::ConsensusAlgo::kCt;
  c.rb = rb;
  c.fd = abcast::FdKind::kHeartbeat;
  return c;
}

abcast::StackConfig ids_plain_ct(abcast::RbKind rb) {
  abcast::StackConfig c;
  c.variant = abcast::Variant::kIdsPlain;
  c.algo = abcast::ConsensusAlgo::kCt;
  c.rb = rb;
  c.fd = abcast::FdKind::kHeartbeat;
  return c;
}

}  // namespace ibc::workload
