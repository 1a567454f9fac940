// The set of batch ids A-delivered — Algorithm 1's implicit `delivered`.
//
// Stored as per-origin runs of covered sequence numbers instead of one
// entry per id. A delivered batch headed by `o:s` with `c` constituents
// covers seqs [s, s+c-1] of origin o (batch constituents are consecutive,
// docs/PROTOCOL.md D5). Batches never overlap, and an origin never reuses
// a seq across incarnations (D6 seq reservation), so `contains(head)` is
// true exactly for the heads of delivered batches. Runs merge as the
// per-origin history fills in; gaps come only from seqs skipped by a
// restart's reservation and from batches whose origin crashed before
// disseminating them. The set therefore costs O(origins + gaps), not
// O(history) — which is what makes a recovery snapshot cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "util/bytes.hpp"
#include "util/types.hpp"

namespace ibc::core {

class DeliveredIds {
 public:
  /// Closed interval [lo, hi] of covered seqs of one origin.
  struct Run {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };
  /// Per origin: sorted, disjoint, non-adjacent runs (never empty).
  using Runs = std::map<ProcessId, std::vector<Run>>;

  /// Records the batch headed by `head` with `count` constituents as
  /// delivered: covers seqs [head.seq, head.seq + count - 1] (a count of
  /// 0 covers head.seq alone). Returns false, changing nothing, if the
  /// range overflows the seq space or overlaps a covered seq.
  bool insert(const MessageId& head, std::uint64_t count);

  /// True iff `id`'s seq is covered — for a batch head, iff that batch
  /// was delivered.
  bool contains(const MessageId& id) const;

  /// Batches inserted (ordering entries delivered), not seqs or runs.
  std::size_t size() const { return batches_; }
  bool empty() const { return batches_ == 0; }
  std::size_t run_count() const;
  const Runs& runs() const { return runs_; }

  /// `u64 batches, u32 origins, {u32 origin, u32 runs, {u64 lo, u64 hi}}`
  /// with origins ascending — canonical: equal sets encode equally.
  void serialize(Writer& w) const;
  /// Inverse of `serialize`; nullopt on truncation or a non-canonical
  /// encoding (unsorted origins or runs, overlapping or adjacent runs,
  /// lo > hi, an empty origin, or a batch count the runs cannot hold).
  static std::optional<DeliveredIds> deserialize(Reader& r);

  friend bool operator==(const DeliveredIds&, const DeliveredIds&) = default;

 private:
  Runs runs_;
  std::uint64_t batches_ = 0;
};

}  // namespace ibc::core
