// Crash recovery: the journal implementation and the replay path.
//
// One `RecoveryManager` per process *incarnation*. It implements
// `core::OrderingJournal` over a `store::SegmentLog` (so the ordering
// core's write-ahead events land in durable segments with the sync
// discipline documented in core/journal.hpp), takes periodic snapshots
// to bound replay, and — on construction over a non-empty store —
// rebuilds the ordering state from snapshot + log.
//
// The manager also keeps the in-RAM serving side of peer catch-up: the
// per-instance decision history and the payload archive live processes
// answer a restarted peer from (recovery/catchup.hpp). Both die with
// the process — only the `Dir` survives a crash — and are rebuilt from
// replay (history) and ongoing traffic (archive).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/journal.hpp"
#include "core/ordering.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace ibc::recovery {

struct Config {
  /// Segment rotation threshold.
  std::uint64_t segment_bytes = 64 * 1024;
  /// Take a snapshot every this many appended ordering entries
  /// (0 = never snapshot; replay walks the whole log).
  std::uint64_t snapshot_every = 0;
  /// Strict: sync at every durability point in core/journal.hpp —
  /// exactly-once across restarts. Relaxed: only sequence reservations
  /// and snapshots sync (benchmarks the fsync cost; a crash may then
  /// lose the delivered watermark tail and redeliver on restart).
  bool strict_sync = true;

  enum class Medium : std::uint8_t { kMem, kFs };
  /// Storage backend the runtime builds per process: deterministic
  /// in-memory (default) or a real directory under `fs_path`.
  Medium medium = Medium::kMem;
  std::string fs_path;
};

/// Counters surfaced through ClusterStats / the experiment driver.
struct Counters {
  std::uint64_t log_appends = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t snapshot_count = 0;
  std::uint64_t catchup_ids_fetched = 0;
  double replay_ms = 0.0;

  Counters& operator+=(const Counters& o);
};

class RecoveryManager final : public core::OrderingJournal {
 public:
  /// Binds to `dir` and immediately recovers whatever it holds (an
  /// empty dir recovers to the initial state — first boot and restart
  /// share one path). The caller is responsible for having applied the
  /// crash model (`dir.drop_unsynced()`) beforehand on a restart.
  RecoveryManager(store::Dir& dir, const Config& config);

  /// State to load into a freshly built stack.
  struct Recovered {
    core::OrderingCore::Restored core;
    std::uint64_t reserved_seq = 0;
  };
  const Recovered& recovered() const { return recovered_; }

  /// Wires the state source for snapshots. Must be called (by the stack
  /// builder) before any journal event.
  void attach(const core::OrderingCore* core) { core_ = core; }

  // core::OrderingJournal
  void on_open_instance(consensus::InstanceId k) override;
  void on_decision_applied(consensus::InstanceId k,
                           const std::vector<MessageId>& appended) override;
  void on_deliver_batch(const MessageId& head,
                        const std::vector<Payload>& payloads) override;
  void commit_deliveries() override;
  void on_reserve_seqs(std::uint64_t reserved_up_to) override;

  // Catch-up serving side.
  /// Applied decisions this incarnation knows (replayed + live), by
  /// instance; values are the post-dedup appended entries.
  const std::map<consensus::InstanceId, std::vector<MessageId>>&
  decision_history() const {
    return history_;
  }
  /// Archived payloads of a delivered batch; null if unknown.
  const std::vector<Payload>* archived(const MessageId& id) const;
  /// Records payloads obtained via catch-up (so a later restarter can
  /// be served even before this process delivers them).
  void archive(const MessageId& id, std::vector<Payload> payloads);

  void count_catchup_ids(std::uint64_t n) {
    catchup_ids_fetched_ += n;
  }

  /// Invoked after every applied decision is journaled. The catch-up
  /// layer uses it to notice when a decision orders an id whose payload
  /// this process never received (possible only with restart amnesia:
  /// the payload's flood happened while the process was down, and
  /// nothing re-sends a completed flood) and re-arm its payload poll.
  void set_apply_listener(std::function<void()> fn) {
    apply_listener_ = std::move(fn);
  }

  Counters counters() const;
  /// The durable store this incarnation journals into.
  const store::Dir& dir() const { return dir_; }

 private:
  void replay();
  void take_snapshot();
  void append_record(BytesView body);

  store::Dir& dir_;
  Config config_;
  store::SegmentLog log_;
  const core::OrderingCore* core_ = nullptr;
  Recovered recovered_;
  std::map<consensus::InstanceId, std::vector<MessageId>> history_;
  std::unordered_map<MessageId, std::vector<Payload>> archive_;
  std::uint64_t reserved_seq_ = 0;
  std::uint64_t entries_since_snapshot_ = 0;
  std::uint32_t snapshot_index_ = 0;
  std::uint64_t snapshot_count_ = 0;
  std::uint64_t catchup_ids_fetched_ = 0;
  double replay_ms_ = 0.0;
  std::function<void()> apply_listener_;
};

}  // namespace ibc::recovery
