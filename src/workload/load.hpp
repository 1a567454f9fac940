// Open-loop load and its records: the paper's §4 workload, on any host.
//
// Every process abroadcasts on its own schedule of due times: the next
// message is due one gap after the previous *due time*, whatever the
// send cost, and a timer that fires late sends every message already
// due. A slow reactor therefore shows up as generator lag, never as a
// lower offered rate, and latency is measured from the due time.
//
// Each process records its own abroadcasts and A-deliveries, written
// only from its own execution context, so recording takes no lock.
// `merge_records` joins the records once the cluster has stopped:
// latencies, undelivered counts and the §2.1 safety checks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ibc::workload {

/// What one process did, in the order it did it, across incarnations,
/// and where its schedule stands. One cache line apart from its
/// neighbours: each record is written by its own reactor thread.
struct alignas(64) ProcessRecord {
  struct Sent {
    MessageId id;
    TimePoint due = 0;  // when the schedule wanted it sent
    TimePoint at = 0;   // when abroadcast was called
  };
  struct Delivered {
    MessageId id;
    TimePoint at = 0;
  };
  std::vector<Sent> sent;
  std::vector<Delivered> delivered;
  TimePoint next_due = 0;  // when the schedule's next message is due
};

/// The records of a run, merged over a window [from, to) of due times.
struct LoadReport {
  /// Due time to A-delivery, one sample per (message due in the window,
  /// delivering process) pair — the paper's averaging.
  Samples latency_ms;
  std::size_t due = 0;          // messages due in the window (and sent)
  std::size_t sent = 0;         // abroadcasts called in the window
  std::size_t undelivered = 0;  // due in the window, delivered < alive times
  double lag_p99_ms = 0.0;      // call time − due time, messages due in it
  /// First §2.1 violation over the whole run, empty when none: a
  /// delivery of a message never abroadcast, a message delivered twice
  /// by one process, or two delivery sequences that are not prefixes of
  /// one another.
  std::string violation;
};

/// Merges `records` (process p at [p - 1]) over the due-time window
/// [from, to); `alive` is how many processes must deliver a message for
/// it to count as delivered.
LoadReport merge_records(const std::vector<ProcessRecord>& records,
                         TimePoint from, TimePoint to, std::uint32_t alive);

/// One open-loop source per process of `cluster`, plus the records.
class OpenLoop {
 public:
  /// The next inter-arrival gap at a process; may draw from its Env.
  using GapFn = std::function<Duration(runtime::Env&)>;

  /// Every process abroadcasts `payload_bytes`-byte messages, each due
  /// `gap` (at least 1 ns) after the previous one, while the due time is
  /// before `stop_at`. The gap is drawn at each (re)start and after each
  /// abroadcast. Each wake-up sends what was due when it woke and
  /// re-arms, so a generator that falls behind still lets its reactor
  /// poll between bursts.
  OpenLoop(Cluster& cluster, GapFn gap, std::size_t payload_bytes,
           TimePoint stop_at);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Subscribes every record and starts every schedule at now. Takes
  /// over the cluster's restart listener: a restarted process
  /// re-subscribes and resumes its schedule at its restart time. The
  /// cluster must be shut down before this object dies.
  void start();

  /// Process p's record. Read only after `cluster.shutdown()`.
  const ProcessRecord& record(ProcessId p) const { return records_[p - 1]; }

  /// `merge_records` over every process. Only after `cluster.shutdown()`.
  LoadReport report(TimePoint from, TimePoint to,
                    std::uint32_t alive) const {
    return merge_records(records_, from, to, alive);
  }

 private:
  void subscribe(ProcessId p);
  void resume(ProcessId p);
  bool advance(ProcessId p, runtime::Env& env);
  void arm(ProcessId p, runtime::Env& env);
  void fire(ProcessId p);

  Cluster& cluster_;
  GapFn gap_;
  std::size_t payload_bytes_;
  TimePoint stop_at_;
  std::vector<ProcessRecord> records_;
};

}  // namespace ibc::workload
