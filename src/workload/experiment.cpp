#include "workload/experiment.hpp"

#include "runtime/cluster.hpp"
#include "util/assert.hpp"
#include "workload/load.hpp"

namespace ibc::workload {

ExperimentResult run_experiment(const ExperimentConfig& config) {
  IBC_REQUIRE(config.n >= 1);
  IBC_REQUIRE(config.throughput_msgs_per_sec > 0);

  // The load keeps its own per-process records, so the facade's
  // delivery log, which serializes TCP deliveries on one mutex, stays off.
  ClusterOptions options = ClusterOptions{}
                               .with_n(config.n)
                               .with_seed(config.seed)
                               .with_stack(config.stack)
                               .with_model(config.model)
                               .with_host(config.host)
                               .without_delivery_log();
  for (const CrashEvent& c : config.crashes)
    options.with_crash(c.at, c.process);
  if (!config.restarts.empty()) options.with_recovery(config.recovery);
  for (const RestartEvent& r : config.restarts)
    options.with_restart(r.at, r.process);

  Cluster cluster(options);

  const TimePoint measure_from = config.warmup;
  const TimePoint measure_to = config.warmup + config.measure;
  const TimePoint run_end = measure_to + config.drain;

  // Poisson arrivals at each process, drawn from its own rng.
  const double mean_gap_ns =
      1e9 / (config.throughput_msgs_per_sec / config.n);
  OpenLoop load(
      cluster,
      [mean_gap_ns](runtime::Env& env) {
        return static_cast<Duration>(env.rng().next_exponential(mean_gap_ns));
      },
      config.payload_bytes, measure_to);
  load.start();

  // Run generation + measurement + drain, bounded by host time (the
  // heartbeat failure detector keeps event queues busy forever, so
  // "until quiet" is the wrong bound here). Messages still undelivered
  // at run_end are reported as such (saturation — or, for the faulty
  // stack under a crash, a Validity violation).
  const Duration remaining = run_end - cluster.now();
  if (remaining > 0) cluster.run_for(remaining);

  // Quiesce before reading protocol state: on TCP this joins the
  // reactors, so the records and stacks can be read without races.
  cluster.shutdown();

  LoadReport load_report =
      load.report(measure_from, measure_to, cluster.host().alive_count());
  ExperimentResult res;
  Samples& latency = load_report.latency_ms;
  res.samples = latency.count();
  res.mean_latency_ms = latency.mean();
  res.p50_latency_ms = latency.quantile(0.50);
  res.p95_latency_ms = latency.quantile(0.95);
  res.max_latency_ms = latency.max();
  res.broadcasts_measured = load_report.due;
  res.undelivered = load_report.undelivered;
  res.violation = load_report.violation;
  res.saturated = res.undelivered > 0;
  const double window_s = to_sec(config.measure);
  if (config.measure > 0) {
    res.offered_throughput = static_cast<double>(load_report.due) / window_s;
    res.achieved_throughput =
        static_cast<double>(load_report.sent) / window_s;
    res.delivered_throughput =
        static_cast<double>(res.broadcasts_measured - res.undelivered) /
        window_s;
  }
  res.gen_lag_p99_ms = load_report.lag_p99_ms;
  const ClusterStats stats = cluster.stats();
  res.messages_sent = stats.messages_sent;
  res.wire_bytes_sent = stats.wire_bytes_sent;
  res.consensus_rounds = stats.consensus_rounds;
  res.proposals_refused = stats.proposals_refused;
  res.instances_completed = stats.instances_completed;
  res.pipeline_high_water = stats.pipeline_high_water;
  res.ids_deduplicated = stats.ids_deduplicated;
  res.batches_sent = stats.batches_sent;
  res.msgs_per_batch_avg = stats.msgs_per_batch_avg;
  res.payload_bytes_copied = stats.payload_bytes_copied;
  res.rb_frames = stats.rb_frames;
  res.rb_wire_sends = stats.rb_wire_sends;
  res.rb_sends_per_frame_max = stats.rb_sends_per_frame_max;
  res.rb_hop_latency_max_ms = stats.rb_hop_latency_max_ms;
  res.writev_calls = stats.writev_calls;
  res.wakeups = stats.wakeups;
  res.frames_per_writev_avg = stats.frames_per_writev_avg;
  res.log_appends = stats.log_appends;
  res.log_bytes = stats.log_bytes;
  res.fsyncs = stats.fsyncs;
  res.snapshot_count = stats.snapshot_count;
  res.catchup_ids_fetched = stats.catchup_ids_fetched;
  res.replay_ms = stats.replay_ms;
  return res;
}

}  // namespace ibc::workload
