#include "core/delivered_ids.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

namespace ibc::core {

namespace {

constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint64_t>::max();

/// First run starting above `seq` (a const or mutable run vector).
template <typename RunVector>
auto run_after(RunVector& runs, std::uint64_t seq) {
  return std::upper_bound(
      runs.begin(), runs.end(), seq,
      [](std::uint64_t s, const DeliveredIds::Run& r) { return s < r.lo; });
}

}  // namespace

bool DeliveredIds::insert(const MessageId& head, std::uint64_t count) {
  const std::uint64_t span = std::max<std::uint64_t>(count, 1) - 1;
  if (span > kMaxSeq - head.seq) return false;
  const Run added{head.seq, head.seq + span};
  std::vector<Run>& runs = runs_[head.origin];
  const auto next = run_after(runs, added.lo);
  const auto prev = next == runs.begin() ? runs.end() : std::prev(next);
  if ((prev != runs.end() && prev->hi >= added.lo) ||
      (next != runs.end() && next->lo <= added.hi)) {
    return false;
  }
  // Both neighbours lie strictly outside `added`, so the +1s cannot wrap.
  const bool join_prev = prev != runs.end() && prev->hi + 1 == added.lo;
  const bool join_next = next != runs.end() && added.hi + 1 == next->lo;
  if (join_prev && join_next) {
    prev->hi = next->hi;
    runs.erase(next);
  } else if (join_prev) {
    prev->hi = added.hi;
  } else if (join_next) {
    next->lo = added.lo;
  } else {
    runs.insert(next, added);
  }
  ++batches_;
  return true;
}

bool DeliveredIds::contains(const MessageId& id) const {
  const auto it = runs_.find(id.origin);
  if (it == runs_.end()) return false;
  const auto next = run_after(it->second, id.seq);
  return next != it->second.begin() && id.seq <= std::prev(next)->hi;
}

std::size_t DeliveredIds::run_count() const {
  std::size_t n = 0;
  for (const auto& [origin, runs] : runs_) n += runs.size();
  return n;
}

void DeliveredIds::serialize(Writer& w) const {
  w.u64(batches_);
  w.u32(static_cast<std::uint32_t>(runs_.size()));
  for (const auto& [origin, runs] : runs_) {
    w.u32(origin);
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const Run& run : runs) {
      w.u64(run.lo);
      w.u64(run.hi);
    }
  }
}

std::optional<DeliveredIds> DeliveredIds::deserialize(Reader& r) {
  if (r.remaining() < 12) return std::nullopt;
  DeliveredIds out;
  out.batches_ = r.u64();
  const std::uint32_t origins = r.u32();
  std::uint64_t run_total = 0;
  std::uint64_t seqs = 0;  // seqs covered, saturating
  for (std::uint32_t i = 0; i < origins; ++i) {
    if (r.remaining() < 8) return std::nullopt;
    const ProcessId origin = r.u32();
    const std::uint32_t count = r.u32();
    if (count == 0 || r.remaining() / 16 < count) return std::nullopt;
    if (!out.runs_.empty() && origin <= out.runs_.rbegin()->first) {
      return std::nullopt;
    }
    std::vector<Run>& runs = out.runs_[origin];
    runs.reserve(count);
    for (std::uint32_t j = 0; j < count; ++j) {
      Run run;
      run.lo = r.u64();
      run.hi = r.u64();
      if (run.lo > run.hi) return std::nullopt;
      // Sorted, disjoint and non-adjacent: a gap of at least one seq.
      if (!runs.empty() &&
          (runs.back().hi == kMaxSeq || run.lo <= runs.back().hi + 1)) {
        return std::nullopt;
      }
      const std::uint64_t width = run.hi - run.lo;  // seqs covered - 1
      seqs = width >= kMaxSeq - seqs ? kMaxSeq : seqs + width + 1;
      runs.push_back(run);
    }
    run_total += count;
  }
  // Every run holds at least one batch, and every batch at least one seq.
  if (out.batches_ < run_total || out.batches_ > seqs) return std::nullopt;
  return out;
}

}  // namespace ibc::core
