#include "fuzz/scenario.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "util/rng.hpp"

namespace ibc::fuzz {

namespace {

/// Deterministic payload for message i of sender p: self-describing, so
/// the integrity check can spot truncation or cross-wiring at a glance.
Bytes make_payload(ProcessId p, std::uint32_t i) {
  return bytes_of("m" + std::to_string(p) + "_" + std::to_string(i));
}

/// Crashes the scenario's stack tolerates at group size n (mirrors
/// abcast_property_test): MR's indirect variant needs a two-thirds
/// quorum, everything else a majority.
std::uint32_t max_crashes(const StackChoice& stack, std::uint32_t n) {
  if (stack.variant == abcast::Variant::kIndirect &&
      stack.algo == abcast::ConsensusAlgo::kMr) {
    return n - consensus::two_thirds_quorum(n);
  }
  return n - consensus::majority(n);
}

void check(std::vector<Violation>& out, bool ok, const char* property,
           std::string detail) {
  if (!ok) out.push_back(Violation{property, std::move(detail)});
}

}  // namespace

const std::vector<StackChoice>& fuzz_stacks() {
  static const std::vector<StackChoice> stacks = {
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kFloodN2, "IndirectCtFloodN2"},
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kFdBasedN, "IndirectCtFdN"},
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kMr,
       abcast::RbKind::kFloodN2, "IndirectMrFloodN2"},
      {abcast::Variant::kMsgs, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kFloodN2, "MsgsCtFloodN2"},
      {abcast::Variant::kIdsPlain, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kUniform, "UrbIdsCt"},
      // Appended last so pre-existing repro files' stack indices stay
      // valid. Ring dissemination + crash schedules exercises the
      // successor-skip/re-forward repair paths (PROTOCOL.md D7).
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kRing, "IndirectCtRing"},
  };
  return stacks;
}

Scenario generate_scenario(std::uint64_t seed) {
  // A dedicated stream: the scenario's *shape* must not perturb the
  // run's randomness (which derives from scenario.seed alone).
  Rng rng = Rng(seed).fork("scenario-shape");
  Scenario s;
  s.seed = seed;
  s.stack = rng.next_below(fuzz_stacks().size());
  s.n = 3 + static_cast<std::uint32_t>(rng.next_below(3));  // 3..5
  s.pipeline = rng.next_bool(0.5) ? 8 : 1;
  s.batch_msgs = rng.next_bool(0.5) ? 4 : 1;
  s.msgs_per_sender = 4 + static_cast<std::uint32_t>(rng.next_below(5));
  // A quarter of the corpus sends its traffic as a tight burst: that is
  // what fills the pipeline window with concurrent instances and makes
  // batches actually coalesce, instead of ids trickling one at a time.
  if (rng.next_bool(0.25)) {
    s.traffic_window_ms = 1 + static_cast<std::uint32_t>(rng.next_below(10));
    s.msgs_per_sender += 12;
  }

  // Crash schedule: tail processes at staggered times inside the
  // traffic window, never exceeding the stack's resilience.
  const std::uint32_t crashes = static_cast<std::uint32_t>(
      rng.next_below(max_crashes(fuzz_stacks()[s.stack], s.n) + 1));
  for (std::uint32_t i = 0; i < crashes; ++i) {
    const TimePoint at = milliseconds(rng.next_in(20, 300));
    s.crashes.push_back(ClusterCrash{at, s.n - i});
  }

  // Restart schedule: on indirect stacks (the only ones the recovery
  // subsystem journals for), about half the crashed processes come back
  // after a downtime gap and must rejoin via replay + catch-up. Drawn
  // from a separate stream so restart generation does not perturb the
  // crash/fault shape of pre-existing seeds.
  if (fuzz_stacks()[s.stack].variant == abcast::Variant::kIndirect) {
    Rng restart_rng = Rng(seed).fork("scenario-restarts");
    for (const ClusterCrash& crash : s.crashes) {
      if (!restart_rng.next_bool(0.5)) continue;
      const TimePoint back = crash.at + milliseconds(restart_rng.next_in(30, 200));
      s.restarts.push_back(ClusterRestart{back, crash.process});
    }
    // Drawn after the restarts so their times keep their old values.
    static constexpr std::uint64_t kSnapshotCadences[] = {0, 1, 3, 16};
    if (!s.restarts.empty()) {
      s.snapshot_every = kSnapshotCadences[restart_rng.next_below(4)];
    }
  }

  // Fault schedule: 0..5 events over the traffic window. Durations and
  // delays are capped well under the quiesce idle threshold so a
  // lossless plan can never be mistaken for a stalled run.
  const std::size_t faults = rng.next_below(6);
  for (std::size_t i = 0; i < faults; ++i) {
    net::FaultEvent e;
    e.from = milliseconds(rng.next_in(0, 250));
    e.until = e.from + milliseconds(rng.next_in(5, 150));
    switch (rng.next_below(6)) {
      case 0: e.kind = net::FaultKind::kPartition; break;
      case 1: e.kind = net::FaultKind::kPartitionDrop; break;
      case 2: e.kind = net::FaultKind::kDelay; break;
      case 3: e.kind = net::FaultKind::kDrop; break;
      case 4: e.kind = net::FaultKind::kDuplicate; break;
      default: e.kind = net::FaultKind::kReorder; break;
    }
    switch (e.kind) {
      case net::FaultKind::kPartition:
      case net::FaultKind::kPartitionDrop: {
        // A non-empty proper subset of {1..n} on side A.
        const std::uint32_t full = (1u << s.n) - 1;
        std::uint32_t group = 0;
        while (group == 0 || group == full) {
          group = static_cast<std::uint32_t>(rng.next_below(full + 1));
        }
        e.group = group;
        break;
      }
      case net::FaultKind::kDelay:
      case net::FaultKind::kReorder:
        // 0 = any endpoint; asymmetric by construction (one direction).
        e.src = static_cast<ProcessId>(rng.next_below(s.n + 1));
        e.dst = static_cast<ProcessId>(rng.next_below(s.n + 1));
        e.extra = milliseconds(rng.next_in(1, 60));
        break;
      case net::FaultKind::kDrop:
      case net::FaultKind::kDuplicate:
        e.src = static_cast<ProcessId>(rng.next_below(s.n + 1));
        e.dst = static_cast<ProcessId>(rng.next_below(s.n + 1));
        e.prob = 0.05 + 0.85 * rng.next_double();
        break;
    }
    s.faults.events.push_back(e);
  }
  return s;
}

RunResult run_scenario(const Scenario& scenario) {
  const StackChoice& choice = fuzz_stacks().at(scenario.stack);
  abcast::StackConfig cfg;
  cfg.variant = choice.variant;
  cfg.algo = choice.algo;
  cfg.rb = choice.rb;
  cfg.fd = abcast::FdKind::kHeartbeat;
  cfg.pipeline_depth = scenario.pipeline;
  cfg.batch.max_msgs = scenario.batch_msgs;
  cfg.bugs.skip_ordering_dedup = scenario.inject_skip_dedup;

  ClusterOptions options = ClusterOptions{}
                               .with_n(scenario.n)
                               .with_seed(scenario.seed)
                               .with_stack(cfg)
                               .with_host(scenario.host)
                               .with_faults(scenario.faults);
  options.crashes = scenario.crashes;
  // Restarts need the durable store, which only the indirect variant
  // journals into; on other stacks a restart-bearing scenario (e.g. the
  // determinism suite forcing every stack) degrades to crash-only.
  const bool recovery_on = !scenario.restarts.empty() &&
                           choice.variant == abcast::Variant::kIndirect;
  if (recovery_on) {
    recovery::Config rec;
    rec.snapshot_every = scenario.snapshot_every;
    options.with_recovery(rec);
    options.restarts = scenario.restarts;
  }
  Cluster cluster(options);

  // Randomized traffic over the scenario's window, paced through each
  // process's Env so crashed senders fall silent, exactly like the
  // property suite. Every abroadcast records its id and payload for the
  // integrity check. On the sim the arrival times come from each
  // process's own Env stream (bit-for-bit what this fuzzer has always
  // drawn); on TCP the reactors are already running, so drawing from
  // env.rng() here would race protocol code — a dedicated fork stands
  // in, and the `sent` map takes a mutex because the timers fire on n
  // reactor threads.
  const bool tcp = scenario.host == runtime::HostKind::kTcp;
  std::map<MessageId, std::pair<ProcessId, Bytes>> sent;
  std::mutex sent_mu;
  for (ProcessId p = 1; p <= scenario.n; ++p) {
    runtime::Env& env = cluster.env(p);
    abcast::ProcessStack& stack = cluster.node(p).stack();
    Rng traffic_rng = Rng(scenario.seed).fork("tcp-traffic", p);
    for (std::uint32_t i = 0; i < scenario.msgs_per_sender; ++i) {
      const Duration at = milliseconds(
          tcp ? traffic_rng.next_in(0, scenario.traffic_window_ms)
              : env.rng().next_in(0, scenario.traffic_window_ms));
      env.set_timer(at, [&sent, &sent_mu, &stack, p, i] {
        Bytes payload = make_payload(p, i);
        const MessageId id = stack.abcast().abroadcast(payload);
        const std::scoped_lock lock(sent_mu);
        sent.emplace(id, std::make_pair(p, std::move(payload)));
      });
    }
  }

  // Run out the schedule (traffic + the last fault window), then drain:
  // a run is quiesced when nothing A-delivers for a full second of sim
  // time — generous because failure-detector recovery after a healed
  // partition is delivery-silent. On TCP the same bound is wall clock:
  // the 45 s limit is the liveness oracle's "bounded time after heal".
  cluster.run_for(std::max<TimePoint>(milliseconds(400),
                                      scenario.faults.quiet_after()));
  cluster.run_until_quiesced(seconds(1), seconds(45));
  // Join the reactors before the oracle reads protocol state directly
  // (blocked_head below): a no-op on the sim, race-freedom on TCP.
  cluster.shutdown();

  RunResult result;
  result.stats = cluster.stats();
  result.orders.resize(scenario.n);
  std::vector<std::vector<Cluster::Delivery>> logs;
  logs.reserve(scenario.n);
  for (ProcessId p = 1; p <= scenario.n; ++p) {
    logs.push_back(cluster.log(p));
    for (const Cluster::Delivery& d : logs.back()) {
      result.orders[p - 1].push_back(d.id);
    }
  }

  // Two tiers of "faulty": `crashed` ever lost its volatile state
  // (exempt as a *sender* — a broadcast can die with the pre-crash
  // incarnation before reaching anyone); `down` never came back (exempt
  // as a *receiver* too). A restarted process is crashed-but-not-down:
  // after replay + catch-up it owes the full delivery sequence,
  // exactly once, just like a process that never failed.
  std::set<ProcessId> crashed;
  for (const ClusterCrash& c : scenario.crashes) crashed.insert(c.process);
  std::set<ProcessId> down = crashed;
  if (recovery_on) {
    for (const ClusterRestart& r : scenario.restarts) {
      TimePoint last_crash = 0;
      for (const ClusterCrash& c : scenario.crashes) {
        if (c.process == r.process) last_crash = std::max(last_crash, c.at);
      }
      if (r.at > last_crash) down.erase(r.process);
    }
  }
  std::vector<Violation>& v = result.violations;

  // --- Safety: uniform total order (prefix consistency).
  check(v, cluster.prefix_consistent(), "total-order",
        "delivery logs are not prefix-consistent");

  // --- Safety: uniform integrity (exactly-once, only broadcast ids,
  // payload intact).
  for (ProcessId p = 1; p <= scenario.n; ++p) {
    std::set<MessageId> seen;
    for (const Cluster::Delivery& d : logs[p - 1]) {
      check(v, seen.insert(d.id).second, "exactly-once",
            "p" + std::to_string(p) + " delivered " + to_string(d.id) +
                " twice");
      const auto it = sent.find(d.id);
      if (it == sent.end()) {
        check(v, false, "integrity",
              "p" + std::to_string(p) + " delivered never-broadcast id " +
                  to_string(d.id));
        continue;
      }
      check(v, bytes_equal(d.payload, BytesView(it->second.second)),
            "integrity",
            "p" + std::to_string(p) + " delivered " + to_string(d.id) +
                " with a corrupted payload");
    }
  }

  // Liveness-flavoured properties need every channel to be reliable:
  // a lossy plan may legitimately strand messages forever.
  if (!scenario.faults.lossless()) return result;

  // --- Uniform agreement: an id delivered by *any* process (even one
  // that crashed later) is delivered by every correct process.
  std::set<MessageId> delivered_somewhere;
  for (const auto& order : result.orders) {
    delivered_somewhere.insert(order.begin(), order.end());
  }
  for (const MessageId& id : delivered_somewhere) {
    for (ProcessId p = 1; p <= scenario.n; ++p) {
      if (down.contains(p)) continue;
      check(v, cluster.delivered(p, id), "agreement",
            "p" + std::to_string(p) + " missing " + to_string(id) +
                " which another process delivered");
    }
  }

  // --- Validity: a correct sender's message reaches every correct
  // process.
  for (const auto& [id, origin_payload] : sent) {
    if (crashed.contains(origin_payload.first)) continue;
    for (ProcessId p = 1; p <= scenario.n; ++p) {
      if (down.contains(p)) continue;
      check(v, cluster.delivered(p, id), "validity",
            "p" + std::to_string(p) + " never delivered " + to_string(id) +
                " from correct p" + std::to_string(origin_payload.first));
    }
  }

  // --- No permanently blocked ordering head: at quiescence on reliable
  // channels every ordered id's payload has arrived, so a stuck head is
  // a protocol bug (this is how the injected dedup bug and the paper's
  // §2.2 violation manifest).
  for (ProcessId p = 1; p <= scenario.n; ++p) {
    if (down.contains(p)) continue;
    if (const core::OrderingCore* ord = cluster.node(p).stack().ordering()) {
      const std::optional<MessageId> head = ord->blocked_head();
      check(v, !head.has_value(), "blocked-head",
            "p" + std::to_string(p) + " ordering head stuck at " +
                (head ? to_string(*head) : std::string("?")));
    }
  }
  return result;
}

Scenario shrink_scenario(const Scenario& scenario, std::size_t* runs) {
  std::size_t spent = 0;
  Scenario best = scenario;
  if (run_scenario(best).ok()) {
    if (runs != nullptr) *runs = 1;
    return best;  // nothing to shrink
  }
  ++spent;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < best.faults.events.size(); ++i) {
      Scenario candidate = best;
      candidate.faults.events.erase(
          candidate.faults.events.begin() + static_cast<std::ptrdiff_t>(i));
      ++spent;
      if (!run_scenario(candidate).ok()) {
        best = std::move(candidate);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    // Restarts before crashes: removing a crash while its restart stays
    // is harmless (a restart of a live process is a no-op), but trying
    // the restart first usually yields the smaller repro.
    for (std::size_t i = 0; i < best.restarts.size(); ++i) {
      Scenario candidate = best;
      candidate.restarts.erase(candidate.restarts.begin() +
                               static_cast<std::ptrdiff_t>(i));
      ++spent;
      if (!run_scenario(candidate).ok()) {
        best = std::move(candidate);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (std::size_t i = 0; i < best.crashes.size(); ++i) {
      Scenario candidate = best;
      candidate.crashes.erase(candidate.crashes.begin() +
                              static_cast<std::ptrdiff_t>(i));
      ++spent;
      if (!run_scenario(candidate).ok()) {
        best = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  if (runs != nullptr) *runs = spent;
  return best;
}

std::string to_text(const Scenario& scenario) {
  std::ostringstream out;
  out << "scenario v1\n";
  out << "seed " << scenario.seed << "\n";
  out << "stack " << scenario.stack << "  # "
      << fuzz_stacks().at(scenario.stack).name << "\n";
  out << "n " << scenario.n << "\n";
  out << "pipeline " << scenario.pipeline << "\n";
  out << "batch " << scenario.batch_msgs << "\n";
  out << "msgs " << scenario.msgs_per_sender << "\n";
  out << "window " << scenario.traffic_window_ms << "\n";
  // Emitted only for the non-default host, so repro files written
  // before the key existed (and the sim corpus) stay byte-identical.
  if (scenario.host == runtime::HostKind::kTcp) out << "host tcp\n";
  if (scenario.inject_skip_dedup) out << "bug skip_dedup\n";
  for (const ClusterCrash& c : scenario.crashes) {
    out << "crash " << c.at << " " << c.process << "\n";
  }
  for (const ClusterRestart& r : scenario.restarts) {
    out << "restart " << r.at << " " << r.process << "\n";
  }
  // Like "host": absent at the default, so older repro files round-trip.
  if (scenario.snapshot_every != 0) {
    out << "snapshot " << scenario.snapshot_every << "\n";
  }
  for (const net::FaultEvent& e : scenario.faults.events) {
    out << "fault " << net::to_text(e) << "\n";
  }
  return out.str();
}

std::optional<Scenario> parse_scenario(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line.rfind("scenario v1", 0) != 0) {
    return std::nullopt;
  }
  Scenario s;
  s.msgs_per_sender = 0;
  while (std::getline(in, line)) {
    // Strip trailing comments and blank lines.
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    if (key == "seed") {
      if (!(fields >> s.seed)) return std::nullopt;
    } else if (key == "stack") {
      if (!(fields >> s.stack) || s.stack >= fuzz_stacks().size()) {
        return std::nullopt;
      }
    } else if (key == "n") {
      if (!(fields >> s.n) || s.n < 1 || s.n > 32) return std::nullopt;
    } else if (key == "pipeline") {
      if (!(fields >> s.pipeline) || s.pipeline < 1) return std::nullopt;
    } else if (key == "batch") {
      if (!(fields >> s.batch_msgs) || s.batch_msgs < 1) return std::nullopt;
    } else if (key == "msgs") {
      if (!(fields >> s.msgs_per_sender)) return std::nullopt;
    } else if (key == "window") {
      if (!(fields >> s.traffic_window_ms) || s.traffic_window_ms < 1) {
        return std::nullopt;
      }
    } else if (key == "host") {
      std::string which;
      if (!(fields >> which)) return std::nullopt;
      if (which == "tcp") s.host = runtime::HostKind::kTcp;
      else if (which == "sim") s.host = runtime::HostKind::kSim;
      else return std::nullopt;
    } else if (key == "bug") {
      std::string which;
      if (!(fields >> which) || which != "skip_dedup") return std::nullopt;
      s.inject_skip_dedup = true;
    } else if (key == "crash") {
      ClusterCrash c;
      if (!(fields >> c.at >> c.process) || c.process < 1 ||
          c.process > s.n) {
        return std::nullopt;
      }
      s.crashes.push_back(c);
    } else if (key == "restart") {
      ClusterRestart r;
      if (!(fields >> r.at >> r.process) || r.process < 1 ||
          r.process > s.n) {
        return std::nullopt;
      }
      s.restarts.push_back(r);
    } else if (key == "snapshot") {
      if (!(fields >> s.snapshot_every)) return std::nullopt;
    } else if (key == "fault") {
      std::string rest;
      std::getline(fields, rest);
      const std::optional<net::FaultEvent> e = net::parse_fault_event(rest);
      if (!e) return std::nullopt;
      s.faults.events.push_back(*e);
    } else {
      return std::nullopt;  // unknown key: refuse to half-parse a repro
    }
  }
  if (s.msgs_per_sender == 0) return std::nullopt;
  return s;
}

std::string replay_command(const Scenario& scenario) {
  // The seed alone does NOT reproduce a shrunk scenario (shrinking edits
  // the schedule), so replay goes through the full text file.
  return "scenario_fuzz --replay <repro-file>   # file contents:\n" +
         to_text(scenario);
}

}  // namespace ibc::fuzz
