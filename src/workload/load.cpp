#include "workload/load.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace ibc::workload {

LoadReport merge_records(const std::vector<ProcessRecord>& records,
                         TimePoint from, TimePoint to, std::uint32_t alive) {
  const auto in_window = [from, to](TimePoint t) {
    return t >= from && t < to;
  };
  struct Message {
    TimePoint due = 0;
    std::uint32_t deliveries = 0;
  };
  LoadReport out;
  Samples lag_ms;
  std::unordered_map<MessageId, Message> messages;
  for (const ProcessRecord& r : records) {
    for (const ProcessRecord::Sent& s : r.sent) {
      messages.emplace(s.id, Message{s.due, 0});
      if (in_window(s.at)) ++out.sent;
      if (!in_window(s.due)) continue;
      ++out.due;
      lag_ms.add(to_ms(s.at - s.due));
    }
  }
  out.lag_p99_ms = lag_ms.quantile(0.99);

  const auto fail = [&out](std::string why) {
    if (out.violation.empty()) out.violation = std::move(why);
  };
  const ProcessRecord* longest = nullptr;
  for (const ProcessRecord& r : records)
    if (longest == nullptr || r.delivered.size() > longest->delivered.size())
      longest = &r;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string process = "process " + std::to_string(i + 1);
    const std::vector<ProcessRecord::Delivered>& log = records[i].delivered;
    std::vector<MessageId> ids;
    ids.reserve(log.size());
    for (std::size_t k = 0; k < log.size(); ++k) {
      const ProcessRecord::Delivered& d = log[k];
      ids.push_back(d.id);
      if (!(d.id == longest->delivered[k].id))
        fail("total order: " + process + " delivered " + to_string(d.id) +
             " at position " + std::to_string(k) + ", another process " +
             to_string(longest->delivered[k].id));
      const auto it = messages.find(d.id);
      if (it == messages.end()) {
        fail("integrity: " + process + " delivered " + to_string(d.id) +
             ", which was never abroadcast");
        continue;
      }
      ++it->second.deliveries;
      if (in_window(it->second.due))
        out.latency_ms.add(to_ms(d.at - it->second.due));
    }
    std::sort(ids.begin(), ids.end());
    if (const auto dup = std::adjacent_find(ids.begin(), ids.end());
        dup != ids.end())
      fail("integrity: " + process + " delivered " + to_string(*dup) +
           " twice");
  }
  for (const auto& [id, m] : messages)
    if (in_window(m.due) && m.deliveries < alive) ++out.undelivered;
  return out;
}

OpenLoop::OpenLoop(Cluster& cluster, GapFn gap, std::size_t payload_bytes,
                   TimePoint stop_at)
    : cluster_(cluster),
      gap_(std::move(gap)),
      payload_bytes_(payload_bytes),
      stop_at_(stop_at),
      records_(cluster.n()) {}

void OpenLoop::start() {
  // Every process subscribes before any schedule starts, so each record
  // holds its process's whole delivery sequence.
  for (ProcessId p = 1; p <= cluster_.n(); ++p)
    cluster_.host().run_on(p, [this, p] { subscribe(p); });
  for (ProcessId p = 1; p <= cluster_.n(); ++p)
    cluster_.host().run_on(p, [this, p] { resume(p); });
  // A restart kills this wiring with the old incarnation: the
  // subscription died with its stack and the timer with the crash. The
  // listener runs before the new incarnation executes, so the catch-up
  // redeliveries of the downtime gap land in the record.
  cluster_.set_restart_listener([this](ProcessId p) {
    subscribe(p);
    resume(p);
  });
}

/// Runs on p's execution context, or while p is not executing.
void OpenLoop::subscribe(ProcessId p) {
  runtime::Env& env = cluster_.env(p);
  ProcessRecord& record = records_[p - 1];
  cluster_.node(p).stack().abcast().subscribe(
      [&record, &env](const MessageId& id, const Payload&) {
        record.delivered.push_back({id, env.now()});
      });
}

/// Starts p's schedule at now. Runs like `subscribe`.
void OpenLoop::resume(ProcessId p) {
  runtime::Env& env = cluster_.env(p);
  records_[p - 1].next_due = env.now();
  if (advance(p, env)) arm(p, env);
}

/// Moves p's due time one gap on; false once it reaches the stop time.
bool OpenLoop::advance(ProcessId p, runtime::Env& env) {
  TimePoint& due = records_[p - 1].next_due;
  due += std::max<Duration>(gap_(env), 1);
  return due < stop_at_;
}

/// A message already due is sent from deferred work, not a 0-delay
/// timer: the TCP reactor fires due timers back to back, but polls its
/// sockets before it runs the next deferred task.
void OpenLoop::arm(ProcessId p, runtime::Env& env) {
  const Duration wait = records_[p - 1].next_due - env.now();
  if (wait > 0)
    env.set_timer(wait, [this, p] { fire(p); });
  else
    env.defer([this, p] { fire(p); });
}

/// Sends every message due by the time the timer woke, then re-arms.
void OpenLoop::fire(ProcessId p) {
  runtime::Env& env = cluster_.env(p);
  ProcessRecord& record = records_[p - 1];
  const TimePoint woke = env.now();
  TimePoint at = woke;
  do {
    const MessageId id = cluster_.node(p).abcast().abroadcast(
        Bytes(payload_bytes_, static_cast<std::uint8_t>(0xA0 + p % 16)));
    record.sent.push_back({id, record.next_due, at});
    at = env.now();
    if (!advance(p, env)) return;
  } while (record.next_due <= woke);
  arm(p, env);
}

}  // namespace ibc::workload
