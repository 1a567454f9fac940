#include "checker.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

std::string check_logs(const std::vector<std::vector<Delivered>>& logs,
                       const std::vector<std::vector<std::uint64_t>>& issued,
                       bool expect_agreement) {
  for (std::size_t p = 0; p < logs.size(); ++p) {
    std::vector<std::vector<bool>> seen(issued.size());
    for (std::size_t o = 0; o < issued.size(); ++o)
      seen[o].assign(issued[o].size(), false);
    for (std::size_t i = 0; i < logs[p].size(); ++i) {
      const Delivered& d = logs[p][i];
      const std::string where = "process " + std::to_string(p + 1) +
                                " entry " + std::to_string(i) + " (" +
                                std::to_string(d.origin) + "#" +
                                std::to_string(d.index) + ")";
      if (d.origin == 0 || d.origin >= issued.size() ||
          d.index >= issued[d.origin].size() ||
          issued[d.origin][d.index] == 0)
        return "integrity: " + where + " was never abroadcast";
      if (issued[d.origin][d.index] != d.seq)
        return "integrity: " + where + " delivered under seq " +
               std::to_string(d.seq) + ", abroadcast as " +
               std::to_string(issued[d.origin][d.index]);
      if (seen[d.origin][d.index])
        return "integrity: " + where + " delivered twice";
      seen[d.origin][d.index] = true;
    }
  }
  for (std::size_t p = 0; p < logs.size(); ++p) {
    for (std::size_t q = p + 1; q < logs.size(); ++q) {
      const std::size_t common = std::min(logs[p].size(), logs[q].size());
      const auto [ip, iq] = std::mismatch(
          logs[p].begin(), logs[p].begin() + static_cast<long>(common),
          logs[q].begin());
      if (ip != logs[p].begin() + static_cast<long>(common))
        return "total order: processes " + std::to_string(p + 1) + " and " +
               std::to_string(q + 1) + " differ at position " +
               std::to_string(ip - logs[p].begin());
    }
  }
  if (expect_agreement) {
    for (std::size_t p = 1; p < logs.size(); ++p) {
      if (logs[p].size() != logs[0].size())
        return "agreement: process " + std::to_string(p + 1) +
               " delivered " + std::to_string(logs[p].size()) +
               " messages, process 1 delivered " +
               std::to_string(logs[0].size());
    }
  }
  return "";
}

std::string self_test() {
  // Three origins, two messages each, abroadcast under seqs 1 and 2.
  const std::vector<std::vector<std::uint64_t>> issued = {
      {}, {1, 2}, {1, 2}, {1, 2}};
  const std::vector<Delivered> order = {{1, 0, 1}, {2, 0, 1}, {3, 0, 1},
                                        {1, 1, 2}, {3, 1, 2}, {2, 1, 2}};
  std::vector<std::vector<Delivered>> logs(3, order);
  if (const std::string err = check_logs(logs, issued, true); !err.empty())
    return "clean logs rejected: " + err;

  auto reordered = logs;
  std::swap(reordered[1][2], reordered[1][3]);
  if (check_logs(reordered, issued, true).find("total order") != 0)
    return "reordered log not rejected as a total-order violation";

  // The duplicate is identical at every process, so only the integrity
  // rule can catch it.
  auto duplicated = logs;
  for (auto& log : duplicated) log.push_back(log[4]);
  if (check_logs(duplicated, issued, true).find("integrity") != 0)
    return "duplicated delivery not rejected as an integrity violation";
  return "";
}

}  // namespace perfbench
