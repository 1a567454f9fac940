// Property tests for DeliveredIds, the per-origin seq-run form of
// Algorithm 1's delivered set, against std::set reference models. The
// ordering core's dedup and every recovery snapshot rest on it: a wrong
// `contains` re-delivers or drops a batch, and a decoder that trusts a
// non-canonical encoding would load garbage from disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/delivered_ids.hpp"
#include "store/snapshot.hpp"
#include "store/storage.hpp"
#include "util/rng.hpp"

namespace ibc::core {
namespace {

constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint64_t>::max();

struct Batch {
  MessageId head;
  std::uint64_t count;
};

/// Partitions each origin's seqs [1, ~total] into consecutive batches of
/// 1-16 messages, then shuffles all of them into one random delivery
/// order.
std::vector<Batch> random_history(Rng& rng, std::uint32_t origins,
                                  std::uint64_t per_origin) {
  std::vector<Batch> batches;
  for (ProcessId o = 1; o <= origins; ++o) {
    std::uint64_t seq = 1;
    while (seq <= per_origin) {
      const std::uint64_t count = 1 + rng.next_below(16);
      batches.push_back(Batch{MessageId{o, seq}, count});
      seq += count;
    }
  }
  for (std::size_t i = batches.size(); i > 1; --i) {
    std::swap(batches[i - 1], batches[rng.next_below(i)]);
  }
  return batches;
}

/// Maximal runs of consecutive seqs in a reference set of covered ids.
std::size_t reference_runs(const std::set<MessageId>& covered) {
  std::size_t runs = 0;
  const MessageId* prev = nullptr;
  for (const MessageId& id : covered) {
    if (prev == nullptr || prev->origin != id.origin ||
        prev->seq + 1 != id.seq) {
      ++runs;
    }
    prev = &id;
  }
  return runs;
}

Bytes serialized(const DeliveredIds& d) {
  Writer w;
  d.serialize(w);
  return w.take();
}

std::optional<DeliveredIds> reparse(BytesView bytes) {
  Reader r(bytes);
  std::optional<DeliveredIds> out = DeliveredIds::deserialize(r);
  if (out.has_value() && !r.done()) return std::nullopt;
  return out;
}

class DeliveredIdsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeliveredIdsRandom, MatchesReferenceWithGaps) {
  Rng rng(GetParam());
  const std::vector<Batch> batches = random_history(rng, 4, 300);
  DeliveredIds subject;
  std::set<MessageId> heads;    // delivered batch heads
  std::set<MessageId> covered;  // every seq of a delivered batch
  for (const Batch& b : batches) {
    // Deliberate gaps: about a fifth of the batches are never delivered
    // (an origin that crashed before disseminating, or seqs a restart
    // skipped).
    if (rng.next_bool(0.2)) continue;
    ASSERT_TRUE(subject.insert(b.head, b.count)) << to_string(b.head);
    heads.insert(b.head);
    for (std::uint64_t i = 0; i < b.count; ++i) {
      covered.insert(MessageId{b.head.origin, b.head.seq + i});
    }
    // Re-inserting a delivered batch, or one overlapping it, is refused
    // and leaves the set untouched.
    const Bytes before = serialized(subject);
    EXPECT_FALSE(subject.insert(b.head, b.count));
    EXPECT_FALSE(subject.insert(
        MessageId{b.head.origin, b.head.seq + b.count - 1}, 3));
    EXPECT_TRUE(bytes_equal(serialized(subject), before));
  }

  EXPECT_EQ(subject.size(), heads.size());
  EXPECT_EQ(subject.run_count(), reference_runs(covered));
  for (const Batch& b : batches) {
    EXPECT_EQ(subject.contains(b.head), heads.contains(b.head))
        << to_string(b.head);
  }
  for (ProcessId o = 0; o <= 5; ++o) {
    for (std::uint64_t seq = 0; seq <= 320; ++seq) {
      const MessageId id{o, seq};
      ASSERT_EQ(subject.contains(id), covered.contains(id)) << to_string(id);
    }
  }

  const Bytes bytes = serialized(subject);
  const std::optional<DeliveredIds> back = reparse(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, subject);
  EXPECT_TRUE(bytes_equal(serialized(*back), bytes));
}

TEST_P(DeliveredIdsRandom, DenseHistoryCollapsesToOneRunPerOrigin) {
  Rng rng(GetParam() + 100);
  const std::vector<Batch> batches = random_history(rng, 3, 500);
  DeliveredIds subject;
  std::uint64_t last[4] = {0, 0, 0, 0};
  for (const Batch& b : batches) {
    ASSERT_TRUE(subject.insert(b.head, b.count));
    last[b.head.origin] =
        std::max(last[b.head.origin], b.head.seq + b.count - 1);
  }
  EXPECT_EQ(subject.size(), batches.size());
  ASSERT_EQ(subject.run_count(), 3u);
  for (ProcessId o = 1; o <= 3; ++o) {
    EXPECT_EQ(subject.runs().at(o),
              (std::vector<DeliveredIds::Run>{{1, last[o]}}));
  }
  // The snapshot form is a handful of bytes regardless of history.
  EXPECT_EQ(serialized(subject).size(), 8u + 4u + 3u * (8u + 16u));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeliveredIdsRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(DeliveredIds, ZeroCountCoversHeadOnly) {
  DeliveredIds d;
  EXPECT_TRUE(d.insert(MessageId{1, 5}, 0));
  EXPECT_TRUE(d.contains(MessageId{1, 5}));
  EXPECT_FALSE(d.contains(MessageId{1, 6}));
  EXPECT_FALSE(d.contains(MessageId{1, 4}));
  EXPECT_EQ(d.size(), 1u);
}

TEST(DeliveredIds, SeqOverflowIsRefused) {
  DeliveredIds d;
  EXPECT_FALSE(d.insert(MessageId{1, kMaxSeq}, 2));
  EXPECT_FALSE(d.insert(MessageId{1, kMaxSeq - 3}, 5));
  EXPECT_TRUE(d.empty());
  EXPECT_TRUE(d.runs().empty()) << "a refused insert leaves no origin";
  EXPECT_TRUE(d.insert(MessageId{1, kMaxSeq - 3}, 4));
  EXPECT_TRUE(d.contains(MessageId{1, kMaxSeq}));
  EXPECT_FALSE(d.insert(MessageId{1, kMaxSeq}, 1));
  const std::optional<DeliveredIds> back = reparse(serialized(d));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

// ------------------------------------------------ non-canonical encodings

struct RunSpec {
  ProcessId origin;
  std::vector<DeliveredIds::Run> runs;
};

Bytes encode_runs(std::uint64_t batches, const std::vector<RunSpec>& spec) {
  Writer w;
  w.u64(batches);
  w.u32(static_cast<std::uint32_t>(spec.size()));
  for (const RunSpec& s : spec) {
    w.u32(s.origin);
    w.u32(static_cast<std::uint32_t>(s.runs.size()));
    for (const DeliveredIds::Run& r : s.runs) {
      w.u64(r.lo);
      w.u64(r.hi);
    }
  }
  return w.take();
}

/// A CRC-valid version-2 snapshot file around a delivered-set encoding,
/// so decode_snapshot's rejection is the body check, not the checksum.
Bytes snapshot_file_with(BytesView delivered) {
  Writer body;
  body.u8(2);
  for (int i = 0; i < 4; ++i) body.u64(1);
  body.u32(1);
  body.raw(delivered);
  body.u32(0);  // empty ordered backlog
  const Bytes bytes = body.take();
  Writer file;
  file.u32(static_cast<std::uint32_t>(bytes.size()));
  file.u32(store::crc32(bytes));
  file.raw(bytes);
  return file.take();
}

TEST(DeliveredIdsDecode, WellFormedSnapshotBodyDecodes) {
  // Control for the rejection cases below: the same framing around a
  // canonical encoding is accepted.
  const Bytes good = encode_runs(3, {{1, {{1, 4}, {9, 9}}}, {2, {{1, 1}}}});
  const std::optional<DeliveredIds> parsed = reparse(good);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->contains(MessageId{1, 9}));
  EXPECT_FALSE(parsed->contains(MessageId{1, 8}));
  const std::optional<store::Snapshot> snap =
      store::decode_snapshot(BytesView(snapshot_file_with(good)));
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->delivered, *parsed);
}

TEST(DeliveredIdsDecode, RejectsNonCanonicalRuns) {
  const std::vector<std::pair<const char*, Bytes>> cases = {
      {"overlapping", encode_runs(2, {{1, {{1, 5}, {5, 8}}}})},
      {"unsorted", encode_runs(2, {{1, {{10, 12}, {1, 3}}}})},
      {"adjacent", encode_runs(2, {{1, {{1, 3}, {4, 6}}}})},
      {"lo > hi", encode_runs(1, {{1, {{7, 3}}}})},
      {"run after seq max", encode_runs(2, {{1, {{5, kMaxSeq}, {1, 2}}}})},
      {"unsorted origins", encode_runs(2, {{2, {{1, 1}}}, {1, {{1, 1}}}})},
      {"duplicate origin", encode_runs(2, {{1, {{1, 1}}}, {1, {{5, 5}}}})},
      {"empty origin", encode_runs(0, {{1, {}}})},
      {"fewer batches than runs", encode_runs(1, {{1, {{1, 1}, {3, 3}}}})},
      {"more batches than seqs", encode_runs(4, {{1, {{1, 3}}}})},
  };
  for (const auto& [what, bytes] : cases) {
    EXPECT_FALSE(reparse(bytes).has_value()) << what;
    EXPECT_FALSE(
        store::decode_snapshot(BytesView(snapshot_file_with(bytes)))
            .has_value())
        << what;
  }
}

TEST(DeliveredIdsDecode, RejectsTruncation) {
  const Bytes good = encode_runs(3, {{1, {{1, 4}, {9, 9}}}, {2, {{1, 1}}}});
  for (std::size_t len = 0; len < good.size(); ++len) {
    const BytesView cut(good.data(), len);
    EXPECT_FALSE(reparse(cut).has_value()) << "length " << len;
    EXPECT_FALSE(
        store::decode_snapshot(BytesView(snapshot_file_with(cut)))
            .has_value())
        << "length " << len;
  }
  // A run count far larger than the bytes present.
  Writer liar;
  liar.u64(1);
  liar.u32(1);
  liar.u32(1);
  liar.u32(0xFFFFFFFFu);
  liar.u64(1);
  liar.u64(1);
  EXPECT_FALSE(reparse(liar.view()).has_value());
}

}  // namespace
}  // namespace ibc::core
