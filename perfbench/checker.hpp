// Output checker for the benchmark: the §2.1 properties over the
// per-process A-delivery logs a run recorded, checked after the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One A-delivery as a process logged it: the origin and generator index
/// decoded from the payload, and the sequence number of the MessageId the
/// stack delivered it under.
struct Delivered {
  std::uint32_t origin = 0;
  std::uint32_t index = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const Delivered&, const Delivered&) = default;
};

/// Checks, over `logs` (one per process, in delivery order):
///   integrity    every entry names a message its origin abroadcast
///                (`issued[origin][index]` holds the MessageId seq the
///                abroadcast returned, 0 if it never did) under that id,
///                and no process delivers a message twice;
///   total order  every pair of logs is prefix-consistent;
///   agreement    when `expect_agreement`, every log has the same length
///                (with prefix consistency: the same messages).
/// `issued` is indexed [origin][index] with slot 0 unused. Returns an
/// empty string when every property holds, else the first violation.
std::string check_logs(const std::vector<std::vector<Delivered>>& logs,
                       const std::vector<std::vector<std::uint64_t>>& issued,
                       bool expect_agreement);

/// Feeds `check_logs` a clean log set, a reordered log and a duplicated
/// delivery; returns an empty string when the first passes and both
/// faults are rejected, else what went wrong.
std::string self_test();

}  // namespace perfbench
