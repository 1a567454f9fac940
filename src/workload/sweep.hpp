// Shared plumbing for the figure-reproduction benches.
//
// Each bench binary regenerates one figure of the paper: it sweeps the
// figure's x-axis, runs one simulated experiment per (x, curve) point and
// prints a paper-style table (series.hpp). This header carries the pieces
// every bench shares — the standard stack configurations, the
// one-point-of-a-sweep runner over `run_experiment`, the offered-load
// ladder, the median and range of repeated wall-clock runs, and the
// common CLI flags — so each bench is only its sweep loop. Points whose
// run ends with undelivered messages beyond a small straggler allowance
// are reported as saturated ("sat."), mirroring where the paper's curves
// leave the plot.
#pragma once

#include <string>
#include <vector>

#include "workload/experiment.hpp"
#include "workload/series.hpp"

namespace ibc::workload {

struct SweepOptions {
  Duration warmup = seconds(2);
  Duration measure = seconds(8);
  Duration drain = seconds(4);
  std::uint64_t seed = 7;
  /// Fraction of measured broadcasts allowed to be still in flight after
  /// the drain before the point is declared saturated.
  double straggler_tolerance = 0.01;
};

/// True iff a point's run saturated: more than the straggler allowance
/// of its measured broadcasts was still undelivered after the drain.
bool point_saturated(const ExperimentResult& result,
                     const SweepOptions& opt);

/// Runs `config` at `rate` msgs/s with the phases and seed of `opt`, and
/// asserts the §2.1 checks before returning the result.
ExperimentResult run_point(ExperimentConfig config, double rate,
                           const SweepOptions& opt);

/// Runs one point; returns mean latency in ms, or NaN when saturated.
double latency_point(std::uint32_t n, const net::NetModel& model,
                     const abcast::StackConfig& stack,
                     std::size_t payload_bytes, double throughput,
                     const SweepOptions& opt = {});

/// One climb of an offered-load ladder (see `climb_ladder`).
struct Knee {
  ExperimentResult at;  // the highest rung that drained
  bool capped = true;   // no rung saturated: `at` is a lower bound
  /// Abroadcasts called / due in the window, per drained rung in ladder
  /// order: near 1 unless the generator fell behind its schedule.
  std::vector<double> realized_over_offered;

  bool measured() const { return !realized_over_offered.empty(); }
};

/// Runs `config` at each rung of `ladder` in turn until one saturates.
Knee climb_ladder(const ExperimentConfig& config,
                  const std::vector<double>& ladder,
                  const SweepOptions& opt);

/// Repeated climbs of one ladder (see `climb_repeated`).
struct Climbs {
  std::vector<ExperimentResult> knees;  // one per climb that drained a rung
  bool capped = false;  // some climb sustained the whole ladder
  /// Per rung, in ladder order: realized/offered of every climb that
  /// drained it.
  std::vector<std::vector<double>> realized_over_offered;
};

/// Climbs `ladder` `repeats` times, the i-th climb seeded opt.seed + i:
/// wall-clock points spread from run to run.
Climbs climb_repeated(const ExperimentConfig& config,
                      const std::vector<double>& ladder,
                      const SweepOptions& opt, int repeats);

/// Median and range of one point's repeated wall-clock runs.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Spread spread_of(std::vector<double> runs);

/// Appends the median, min and max of `runs` to the three series, or
/// the saturated marker to each when no run measured the point.
void append_spread(const std::vector<double>& runs, Series& median,
                   Series& min, Series& max);

/// Summarizes realized/offered ratios, one vector of repeated runs per
/// (curve, rung) point: the range of the per-point medians, then the
/// range of the single runs, each with how many are off by more than 1%.
std::string format_rate_check(const std::vector<std::vector<double>>& points);

/// "median [min, max]" of `runs`, each printed with `format` (printf).
std::string format_spread(const std::vector<double>& runs,
                          const char* format);

/// True when `--smoke` is among the arguments — the CI-sized variant of
/// a sweep (registered in ctest so the bench cannot bit-rot).
bool parse_smoke_flag(int argc, char* const* argv);

/// Standard stack configurations used across the figures. The rcv cost of
/// the indirect stacks is taken from the network model (it models the
/// same testbed's CPU).
abcast::StackConfig indirect_ct(const net::NetModel& model,
                                abcast::RbKind rb);

abcast::StackConfig msgs_ct(abcast::RbKind rb);

/// Plain consensus on ids. Faulty when rb is not kUniform (§2.2); the
/// Figure 3-4 comparison uses exactly that stack in failure-free runs.
abcast::StackConfig ids_plain_ct(abcast::RbKind rb);

}  // namespace ibc::workload
