#include "runtime/cluster.hpp"

#include <algorithm>
#include <utility>

#include "net/tcp/tcp_process.hpp"
#include "runtime/sim_cluster.hpp"
#include "util/assert.hpp"

namespace ibc {

namespace {

std::unique_ptr<runtime::Host> make_host(const ClusterOptions& options) {
  IBC_REQUIRE_MSG(options.n >= 1, "a cluster needs at least one process");
  switch (options.host) {
    case runtime::HostKind::kSim:
      return std::make_unique<runtime::SimCluster>(options.n, options.model,
                                                   options.seed);
    case runtime::HostKind::kTcp:
      return std::make_unique<net::tcp::TcpCluster>(options.n,
                                                    options.seed);
  }
  IBC_UNREACHABLE("unknown HostKind");
}

}  // namespace

Cluster::Cluster(const ClusterOptions& options)
    : host_(make_host(options)),
      stack_config_(options.effective_stack()),
      record_deliveries_(options.record_deliveries),
      recovery_enabled_(options.recovery_enabled),
      recovery_config_(options.recovery) {
  if (!options.faults.empty()) {
    // Same FaultPlan, two enforcement points: the simulator applies it
    // at the NIC exit, the TCP host at the writev boundary of each
    // reactor (pre-start here, so no cross-thread handoff is needed).
    if (net::SimNetwork* net = host_->sim_network(); net != nullptr) {
      net->set_fault_plan(options.faults);
    } else {
      auto* tcp = dynamic_cast<net::tcp::TcpCluster*>(host_.get());
      IBC_REQUIRE_MSG(tcp != nullptr,
                      "fault plans need a kSim or kTcp cluster host");
      tcp->set_fault_plan(options.faults);
    }
  }
  logs_.resize(options.n + 1);
  retired_recovery_.resize(options.n + 1);
  stores_.resize(options.n + 1);
  if (recovery_enabled_) {
    for (ProcessId p = 1; p <= options.n; ++p) stores_[p] = make_store(p);
  }
  nodes_.reserve(options.n);
  for (ProcessId p = 1; p <= options.n; ++p) {
    nodes_.push_back(Node(this, p,
                          std::make_unique<abcast::ProcessStack>(
                              *host_, p, stack_config_, stores_[p].get(),
                              recovery_config_)));
    // Built-in delivery recorder. Subscribed before the host starts, so
    // no callback can race the registration even on TCP. The Payload is
    // retained by reference — recording does not copy the bytes.
    if (record_deliveries_) subscribe_recorder(p);
  }

  host_->start();
  for (ProcessId p = 1; p <= options.n; ++p) {
    host_->run_on(p, [this, p] { nodes_[p - 1].stack_->start(); });
  }
  for (const ClusterCrash& crash : options.crashes) {
    host_->crash_at(crash.at, crash.process);
  }
  for (const ClusterRestart& restart : options.restarts) {
    restart_at(restart.at, restart.process);
  }
}

Cluster::~Cluster() { shutdown(); }

void Cluster::check_pid(ProcessId p) const {
  IBC_REQUIRE_MSG(p >= 1 && p <= host_->n(),
                  "process ids are 1-based: 1 <= p <= n");
}

Cluster::Node& Cluster::node(ProcessId p) {
  check_pid(p);
  return nodes_[p - 1];
}

void Cluster::subscribe_recorder(ProcessId p) {
  nodes_[p - 1].stack_->abcast().subscribe(
      [this, p](const MessageId& id, const Payload& payload) {
        const TimePoint at = host_->now();
        const std::scoped_lock lock(log_mu_);
        logs_[p].push_back(Delivery{id, payload, at});
      });
}

std::unique_ptr<store::Dir> Cluster::make_store(ProcessId p) const {
  switch (recovery_config_.medium) {
    case recovery::Config::Medium::kMem:
      return std::make_unique<store::MemDir>();
    case recovery::Config::Medium::kFs:
      IBC_REQUIRE_MSG(!recovery_config_.fs_path.empty(),
                      "Medium::kFs needs recovery::Config::fs_path");
      return std::make_unique<store::FsDir>(recovery_config_.fs_path +
                                            "/p" + std::to_string(p));
  }
  IBC_UNREACHABLE("unknown recovery::Medium");
}

void Cluster::restart(ProcessId p) {
  check_pid(p);
  IBC_REQUIRE_MSG(recovery_enabled_,
                  "restart needs ClusterOptions::with_recovery()");
  if (!host_->crashed(p)) return;  // schedule kept a restart, lost the crash

  host_->restart(p);
  // What a real crash loses: every byte appended after the last fsync.
  // Done lazily here (nothing appends between crash and restart, so the
  // effect is identical to dropping it at crash time).
  stores_[p]->drop_unsynced();

  {
    const std::scoped_lock lock(restart_mu_);
    Node& node = nodes_[p - 1];
    if (const recovery::RecoveryManager* rm =
            node.stack_->recovery_manager()) {
      retired_recovery_[p] += rm->counters();
    }
    node.subscriptions_.clear();  // they captured the dying stack
    node.stack_.reset();          // old incarnation dies before the new one
    node.stack_ = std::make_unique<abcast::ProcessStack>(
        *host_, p, stack_config_, stores_[p].get(), recovery_config_);
    if (record_deliveries_) subscribe_recorder(p);
    if (restart_listener_) restart_listener_(p);
  }

  host_->resume(p);
  host_->run_on(p, [this, p] {
    nodes_[p - 1].stack_->start();
    nodes_[p - 1].stack_->begin_catchup();
  });
}

void Cluster::restart_at(TimePoint t, ProcessId p) {
  check_pid(p);
  host_->run_at(t, [this, p] { restart(p); });
}

void Cluster::set_restart_listener(std::function<void(ProcessId)> fn) {
  const std::scoped_lock lock(restart_mu_);
  restart_listener_ = std::move(fn);
}

Duration Cluster::run_until_quiesced(Duration idle, Duration limit) {
  IBC_REQUIRE(idle > 0 && limit > 0);
  const Duration slice = std::max<Duration>(idle / 4, kMillisecond);
  Duration elapsed = 0;
  Duration quiet = 0;
  std::size_t last = total_deliveries();
  while (elapsed < limit && quiet < idle) {
    host_->run_for(slice);
    elapsed += slice;
    const std::size_t current = total_deliveries();
    if (current != last) {
      last = current;
      quiet = 0;
    } else {
      quiet += slice;
    }
  }
  return elapsed;
}

void Cluster::shutdown() { host_->shutdown(); }

std::vector<Cluster::Delivery> Cluster::log(ProcessId p) const {
  check_pid(p);
  const std::scoped_lock lock(log_mu_);
  return logs_[p];
}

bool Cluster::delivered(ProcessId p, const MessageId& id) const {
  check_pid(p);
  const std::scoped_lock lock(log_mu_);
  return std::any_of(logs_[p].begin(), logs_[p].end(),
                     [&id](const Delivery& d) { return d.id == id; });
}

bool Cluster::prefix_consistent() const {
  const std::scoped_lock lock(log_mu_);
  for (std::size_t a = 1; a < logs_.size(); ++a) {
    for (std::size_t b = a + 1; b < logs_.size(); ++b) {
      const auto& la = logs_[a];
      const auto& lb = logs_[b];
      const std::size_t common = std::min(la.size(), lb.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (!(la[i].id == lb[i].id)) return false;
      }
    }
  }
  return true;
}

std::size_t Cluster::total_deliveries() const {
  const std::scoped_lock lock(log_mu_);
  std::size_t total = 0;
  for (const auto& log : logs_) total += log.size();
  return total;
}

ClusterStats Cluster::stats() {
  ClusterStats stats;
  // Excludes a concurrent restart from swapping stacks mid-read.
  const std::scoped_lock restart_lock(restart_mu_);
  for (ProcessId p = 1; p <= n(); ++p) {
    consensus::Consensus::Stats engine{};
    std::uint64_t completed = 0;
    std::size_t high_water = 0;
    std::uint64_t deduped = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_msgs = 0;
    std::uint64_t copied = 0;
    std::uint64_t rb_frames = 0;
    std::uint64_t rb_sends = 0;
    std::uint64_t rb_hop_ns = 0;
    recovery::Counters rec = retired_recovery_[p];
    const auto read_stats = [this, p, &engine, &completed, &high_water,
                             &deduped, &batches, &batched_msgs, &copied,
                             &rb_frames, &rb_sends, &rb_hop_ns, &rec] {
      engine = nodes_[p - 1].stack_->consensus_stats();
      if (const core::OrderingCore* ord = nodes_[p - 1].stack_->ordering()) {
        completed = ord->instances_completed();
        high_water = ord->inflight_high_water();
        deduped = ord->ids_deduplicated();
      }
      if (const abcast::Batcher* b = nodes_[p - 1].stack_->batcher()) {
        batches = b->batches_sent();
        batched_msgs = b->msgs_sent();
      }
      const bcast::BroadcastService& rb = nodes_[p - 1].stack_->broadcast();
      copied = rb.payload_bytes_copied();
      rb_frames = rb.frames_handled();
      rb_sends = rb.wire_sends();
      rb_hop_ns = rb.hop_latency_max_ns();
      if (const recovery::RecoveryManager* rm =
              nodes_[p - 1].stack_->recovery_manager()) {
        rec += rm->counters();
      }
    };
    bool read = false;
    if (!host_->crashed(p)) {
      host_->run_on(p, [&read_stats, &read] {
        read_stats();
        read = true;
      });
    }
    if (!read && host_->crashed(p)) {
      // Crashed (run_on may have been abandoned by a concurrent crash):
      // a crashed-observed process executes no further code, so the
      // direct read is race-free.
      read_stats();
    }
    stats.consensus_rounds += engine.rounds_started;
    stats.proposals_refused += engine.proposals_refused;
    stats.instances_completed = std::max(stats.instances_completed, completed);
    stats.pipeline_high_water = std::max(stats.pipeline_high_water, high_water);
    stats.ids_deduplicated += deduped;
    stats.batches_sent += batches;
    stats.msgs_batched += batched_msgs;
    stats.payload_bytes_copied += copied;
    stats.rb_frames += rb_frames;
    stats.rb_wire_sends += rb_sends;
    if (rb_frames > 0) {
      stats.rb_sends_per_frame_max =
          std::max(stats.rb_sends_per_frame_max,
                   static_cast<double>(rb_sends) /
                       static_cast<double>(rb_frames));
    }
    stats.rb_hop_latency_max_ms =
        std::max(stats.rb_hop_latency_max_ms,
                 static_cast<double>(rb_hop_ns) / 1e6);
    stats.log_appends += rec.log_appends;
    stats.log_bytes += rec.log_bytes;
    stats.fsyncs += rec.fsyncs;
    stats.snapshot_count += rec.snapshot_count;
    stats.catchup_ids_fetched += rec.catchup_ids_fetched;
    stats.replay_ms += rec.replay_ms;
  }
  stats.msgs_per_batch_avg =
      stats.batches_sent == 0
          ? 0.0
          : static_cast<double>(stats.msgs_batched) /
                static_cast<double>(stats.batches_sent);
  const runtime::HostCounters wire = host_->counters();
  stats.messages_sent = wire.messages_sent;
  stats.wire_bytes_sent = wire.wire_bytes_sent;
  stats.writev_calls = wire.writev_calls;
  stats.wakeups = wire.wakeups;
  stats.dropped_crash = wire.dropped_crash;
  stats.dropped_fault = wire.dropped_fault;
  stats.duplicated_fault = wire.duplicated_fault;
  stats.delayed_fault = wire.delayed_fault;
  stats.frames_rejected = wire.frames_rejected;
  stats.frames_per_writev_avg =
      wire.writev_calls == 0
          ? 0.0
          : static_cast<double>(wire.frames_sent) /
                static_cast<double>(wire.writev_calls);
  {
    const std::scoped_lock lock(log_mu_);
    stats.deliveries.resize(logs_.size());
    for (std::size_t p = 1; p < logs_.size(); ++p) {
      stats.deliveries[p] = logs_[p].size();
      stats.total_deliveries += logs_[p].size();
    }
  }
  stats.prefix_consistent = prefix_consistent();
  return stats;
}

MessageId Cluster::Node::abroadcast(Bytes payload) {
  MessageId id{};
  cluster_->host_->run_on(
      id_, [this, &id, payload = std::move(payload)]() mutable {
        id = stack_->abcast().abroadcast(std::move(payload));
      });
  return id;
}

void Cluster::Node::on_deliver(DeliverFn fn) {
  // Hop onto the process's execution context: the subscriber list is
  // touched only by the thread that also fires deliveries.
  cluster_->host_->run_on(id_, [this, fn = std::move(fn)]() mutable {
    subscriptions_.push_back(
        stack_->abcast().subscribe_scoped(std::move(fn)));
  });
}

std::vector<Cluster::Delivery> Cluster::Node::log() const {
  return cluster_->log(id_);
}

runtime::Env& Cluster::Node::env() { return cluster_->host_->env(id_); }

}  // namespace ibc
