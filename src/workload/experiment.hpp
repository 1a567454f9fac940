// End-to-end experiment driver: the paper's benchmark methodology (§4).
//
// One experiment = one cluster of n processes all running the same stack
// variant, a symmetric workload (every process abroadcasts at rate
// throughput/n, Poisson arrivals), a warmup phase, a measurement window,
// and a drain phase. The result carries the paper's latency metric plus
// network counters and protocol statistics.
//
// The same driver runs on either host (`ExperimentConfig::host`): on the
// simulator, time is decoupled from wall time — a 15-second Setup-1 run
// completes in milliseconds of real time, which is what makes sweeping
// whole figures practical; on the TCP host the identical code path
// measures real loopback sockets in wall-clock time (keep the phases
// short).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "abcast/stack_builder.hpp"
#include "net/netmodel.hpp"
#include "recovery/recovery.hpp"
#include "runtime/host.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ibc::workload {

struct CrashEvent {
  ProcessId process = kInvalidProcess;
  TimePoint at = 0;
};

/// Crash-recovery: `process` comes back at `at`, replays its durable
/// store, catches the gap up from its peers, and resumes generating
/// load at its restart time (see `OpenLoop::start`). Implies
/// recovery-enabled stacks (`ExperimentConfig::recovery`).
struct RestartEvent {
  ProcessId process = kInvalidProcess;
  TimePoint at = 0;
};

struct ExperimentConfig {
  std::uint32_t n = 3;
  /// Which host runs the scenario: the deterministic simulator (default)
  /// or loopback TCP sockets. The code path is identical.
  runtime::HostKind host = runtime::HostKind::kSim;
  net::NetModel model = net::NetModel::setup1();  // kSim only
  /// Full stack selection, including the ordering pipeline window
  /// (`stack.pipeline_depth`; 1 = the paper's sequential Algorithm 1)
  /// and sender-side payload batching (`stack.batch`; max_msgs = 1
  /// disables it).
  abcast::StackConfig stack = {};

  std::size_t payload_bytes = 1;
  double throughput_msgs_per_sec = 100.0;  // global abroadcast rate

  Duration warmup = seconds(2);
  Duration measure = seconds(10);
  Duration drain = seconds(3);

  std::uint64_t seed = 1;
  std::vector<CrashEvent> crashes;
  std::vector<RestartEvent> restarts;
  /// Durability knobs for restart-bearing experiments (segment size,
  /// snapshot cadence, sync discipline). Only read when `restarts` is
  /// non-empty.
  recovery::Config recovery;
};

struct ExperimentResult {
  // The paper's metric.
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  std::size_t samples = 0;

  std::size_t broadcasts_measured = 0;  // abroadcasts due in the window
  std::size_t undelivered = 0;          // not delivered by all alive procs
  /// First §2.1 violation (integrity, duplicate delivery, total order)
  /// over the whole run; empty when none (see `LoadReport`).
  std::string violation;
  bool saturated = false;  // undelivered > 0 after drain

  double offered_throughput = 0.0;   // abroadcasts/s due in the window
  double achieved_throughput = 0.0;  // abroadcasts/s called in the window
  double gen_lag_p99_ms = 0.0;       // call time − due time (0 on the sim)
  /// Messages from the window delivered by every alive process, per
  /// second of the window — the saturation metric: equals the realized
  /// offered rate while the stack keeps up, collapses when it cannot.
  double delivered_throughput = 0.0;

  // Network totals over the whole run (incl. warmup/drain).
  std::uint64_t messages_sent = 0;
  std::uint64_t wire_bytes_sent = 0;

  // Protocol counters summed over processes.
  std::uint64_t consensus_rounds = 0;
  std::uint64_t proposals_refused = 0;  // nack/⊥ caused by rcv

  // Ordering-pipeline counters (see ClusterStats; zero for kMsgs).
  std::uint64_t instances_completed = 0;  // max over processes
  std::size_t pipeline_high_water = 0;    // max over processes
  std::uint64_t ids_deduplicated = 0;     // summed over processes

  // Dissemination counters (see ClusterStats).
  std::uint64_t batches_sent = 0;
  double msgs_per_batch_avg = 0.0;
  std::uint64_t payload_bytes_copied = 0;
  std::uint64_t rb_frames = 0;
  std::uint64_t rb_wire_sends = 0;
  double rb_sends_per_frame_max = 0.0;  // n-1 flooding, 1 ring
  double rb_hop_latency_max_ms = 0.0;   // ring origin→deliver high water

  // Transport-efficiency counters (TCP host only; zero on the sim).
  std::uint64_t writev_calls = 0;
  std::uint64_t wakeups = 0;
  double frames_per_writev_avg = 0.0;

  // Durability / recovery counters (zero unless recovery is enabled;
  // see ClusterStats).
  std::uint64_t log_appends = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t snapshot_count = 0;
  std::uint64_t catchup_ids_fetched = 0;
  double replay_ms = 0.0;  // wall-clock spent replaying snapshot + log
};

/// Runs one experiment to completion and returns its measurements.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace ibc::workload
