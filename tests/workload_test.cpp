// Tests for the measurement harness: the open-loop load, the merge of
// its records, and the experiment driver's determinism and sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workload/experiment.hpp"
#include "workload/load.hpp"
#include "workload/series.hpp"

namespace ibc::workload {
namespace {

using Sent = ProcessRecord::Sent;
using Delivered = ProcessRecord::Delivered;

TEST(MergeRecords, AveragesOverAllDeliveries) {
  const MessageId id{1, 1};
  std::vector<ProcessRecord> records(2);
  records[0].sent = {Sent{id, milliseconds(100), milliseconds(100)}};
  records[0].delivered = {Delivered{id, milliseconds(101)}};
  records[1].delivered = {Delivered{id, milliseconds(103)}};
  LoadReport r = merge_records(records, 0, seconds(10), 2);
  EXPECT_EQ(r.latency_ms.count(), 2u);
  EXPECT_DOUBLE_EQ(r.latency_ms.mean(), 2.0);  // (1ms + 3ms) / 2
  EXPECT_EQ(r.violation, "");
}

TEST(MergeRecords, LatencyAndWindowCountFromTheDueTime) {
  // `inside` is due in the window but sent 1.5 s late, after it closed:
  // it is offered in the window, not sent in it, and its latency and
  // lag both count from the due time.
  const MessageId before{1, 1}, inside{1, 2}, after{1, 3};
  std::vector<ProcessRecord> records(1);
  records[0].sent = {Sent{before, milliseconds(500), milliseconds(500)},
                     Sent{inside, milliseconds(1500), milliseconds(3000)},
                     Sent{after, milliseconds(2500), milliseconds(3000)}};
  records[0].delivered = {Delivered{before, milliseconds(501)},
                          Delivered{inside, milliseconds(3001)},
                          Delivered{after, milliseconds(3001)}};
  LoadReport r = merge_records(records, seconds(1), seconds(2), 1);
  EXPECT_EQ(r.due, 1u);
  EXPECT_EQ(r.sent, 0u);
  ASSERT_EQ(r.latency_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(r.latency_ms.mean(), 1501.0);
  EXPECT_DOUBLE_EQ(r.lag_p99_ms, 1500.0);
}

TEST(MergeRecords, UndeliveredCountsIncompleteWindowMessages) {
  const MessageId a{1, 1}, b{1, 2};
  std::vector<ProcessRecord> records(3);
  records[0].sent = {Sent{a, seconds(1), seconds(1)},
                     Sent{b, seconds(2), seconds(2)}};
  records[0].delivered = {Delivered{a, seconds(3)}, Delivered{b, seconds(4)}};
  records[1].delivered = {Delivered{a, seconds(3)}};
  records[2].delivered = {Delivered{a, seconds(3)}};
  // b reached only one process; with one alive process, it is complete.
  EXPECT_EQ(merge_records(records, 0, seconds(10), 3).undelivered, 1u);
  EXPECT_EQ(merge_records(records, 0, seconds(10), 1).undelivered, 0u);
}

TEST(MergeRecords, RejectsEachSafetyViolation) {
  const MessageId a{1, 1}, b{2, 1};
  std::vector<ProcessRecord> records(2);
  records[0].sent = {Sent{a, 0, 0}};
  records[1].sent = {Sent{b, 0, 0}};
  records[0].delivered = {Delivered{a, 1}, Delivered{b, 2}};
  records[1].delivered = {Delivered{a, 1}};  // a prefix: fine
  EXPECT_EQ(merge_records(records, 0, seconds(10), 2).violation, "");

  auto reordered = records;
  reordered[1].delivered = {Delivered{b, 1}, Delivered{a, 2}};
  EXPECT_EQ(merge_records(reordered, 0, seconds(10), 2).violation.find(
                "total order"),
            0u);

  // The duplicate is identical at every process, so only the integrity
  // rule can catch it.
  auto duplicated = records;
  for (ProcessRecord& r : duplicated) {
    r.delivered = {Delivered{a, 1}, Delivered{b, 2}, Delivered{a, 3}};
  }
  EXPECT_EQ(merge_records(duplicated, 0, seconds(10), 2).violation,
            "integrity: process 1 delivered 1:1 twice");

  auto invented = records;
  invented[0].delivered.push_back(Delivered{MessageId{2, 7}, 3});
  EXPECT_EQ(merge_records(invented, 0, seconds(10), 2).violation,
            "integrity: process 1 delivered 2:7, which was never abroadcast");
}

TEST(OpenLoop, RestartResumesTheScheduleAtTheRestartTime) {
  // A 1 ms constant gap on the simulator: every message goes out at its
  // due time. p3 is down from 30.5 ms to 60.5 ms; its schedule resumes
  // one gap after the restart, and the restarted incarnation's
  // deliveries land in the same record.
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_recovery()
                      .with_crash(microseconds(30500), 3)
                      .with_restart(microseconds(60500), 3)
                      .without_delivery_log());
  OpenLoop load(
      cluster, [](runtime::Env&) { return milliseconds(1); }, 8,
      milliseconds(100));
  load.start();
  cluster.run_for(milliseconds(300));
  cluster.shutdown();

  const std::vector<ProcessRecord::Sent>& p1 = load.record(1).sent;
  ASSERT_EQ(p1.size(), 99u);  // due at 1, 2, ..., 99 ms
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].due, milliseconds(static_cast<std::int64_t>(i) + 1));
    EXPECT_EQ(p1[i].at, p1[i].due);
  }
  const std::vector<ProcessRecord::Sent>& p3 = load.record(3).sent;
  ASSERT_EQ(p3.size(), 30u + 39u);  // 1..30 ms, then 61.5..99.5 ms
  EXPECT_EQ(p3[29].due, milliseconds(30));
  EXPECT_EQ(p3[30].due, microseconds(61500));
  EXPECT_EQ(load.record(3).delivered.size(),
            load.record(1).delivered.size());

  LoadReport r = load.report(0, milliseconds(100), 3);
  EXPECT_EQ(r.violation, "");
  EXPECT_EQ(r.due, 99u + 99u + 69u);
  EXPECT_EQ(r.undelivered, 0u);
}

TEST(OpenLoop, LateTimersSendEverythingAlreadyDue) {
  // A 250 µs gap on loopback TCP: reactor timers fire up to a
  // millisecond late, so each firing must send every message due by
  // then. A chained timer (next send one gap after the last firing)
  // would send a fraction of the schedule.
  Cluster cluster(ClusterOptions{}.with_n(3).on_tcp());
  const TimePoint stop = cluster.now() + milliseconds(200);
  OpenLoop load(
      cluster, [](runtime::Env&) { return microseconds(250); }, 8, stop);
  load.start();
  // Until the schedule ran out and its messages were delivered: a
  // loaded (or sanitized) host may fall behind for a while.
  cluster.run_for(milliseconds(200));
  cluster.run_until_quiesced(milliseconds(100), seconds(20));
  cluster.shutdown();

  for (ProcessId p = 1; p <= 3; ++p) {
    const std::vector<ProcessRecord::Sent>& sent = load.record(p).sent;
    ASSERT_GE(sent.size(), 2u) << p;
    EXPECT_LE(stop - sent.back().due, microseconds(250)) << p;
    for (std::size_t i = 1; i < sent.size(); ++i) {
      ASSERT_EQ(sent[i].due - sent[i - 1].due, microseconds(250)) << p;
      ASSERT_GE(sent[i].at, sent[i].due) << p;
    }
  }
  EXPECT_EQ(load.report(0, stop, 3).violation, "");
}

TEST(Experiment, DeterministicForFixedSeed) {
  ExperimentConfig cfg;
  cfg.n = 3;
  cfg.stack.indirect.rcv_check_cost_per_id =
      cfg.model.rcv_check_cost_per_id;
  cfg.throughput_msgs_per_sec = 200;
  cfg.warmup = milliseconds(500);
  cfg.measure = seconds(2);
  cfg.drain = seconds(1);
  cfg.seed = 99;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.messages_sent, b.messages_sent);

  cfg.seed = 100;
  const ExperimentResult c = run_experiment(cfg);
  EXPECT_NE(a.mean_latency_ms, c.mean_latency_ms);
}

TEST(Experiment, HealthyRunDeliversEverything) {
  ExperimentConfig cfg;
  cfg.n = 3;
  cfg.stack.indirect.rcv_check_cost_per_id =
      cfg.model.rcv_check_cost_per_id;
  cfg.throughput_msgs_per_sec = 100;
  cfg.warmup = milliseconds(500);
  cfg.measure = seconds(2);
  cfg.drain = seconds(2);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.samples, 0u);
  EXPECT_EQ(r.undelivered, 0u);
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.violation, "");
  EXPECT_GT(r.mean_latency_ms, 0.5);  // sane for Setup 1
  EXPECT_LT(r.mean_latency_ms, 10.0);
  // Symmetric workload: achieved ≈ offered.
  EXPECT_NEAR(r.achieved_throughput, 100.0, 25.0);
}

TEST(Experiment, LatencyRisesWithThroughput) {
  auto run_at = [](double tput) {
    ExperimentConfig cfg;
    cfg.n = 5;
    cfg.stack.indirect.rcv_check_cost_per_id =
        cfg.model.rcv_check_cost_per_id;
    cfg.throughput_msgs_per_sec = tput;
    cfg.warmup = seconds(1);
    cfg.measure = seconds(4);
    cfg.drain = seconds(2);
    return run_experiment(cfg).mean_latency_ms;
  };
  EXPECT_LT(run_at(50), run_at(600));
}

TEST(Experiment, SameScenarioRunsOnBothHosts) {
  // The whole point of the Host abstraction: one config, one driver,
  // two transports. Keep the phases short — the TCP leg is wall-clock.
  ExperimentConfig cfg;
  cfg.n = 3;
  cfg.stack.heartbeat.initial_timeout = milliseconds(300);
  cfg.throughput_msgs_per_sec = 60;
  cfg.payload_bytes = 16;
  cfg.warmup = milliseconds(100);
  cfg.measure = milliseconds(500);
  cfg.drain = milliseconds(400);
  cfg.seed = 11;

  for (const runtime::HostKind host :
       {runtime::HostKind::kSim, runtime::HostKind::kTcp}) {
    cfg.host = host;
    const ExperimentResult r = run_experiment(cfg);
    const char* label = host == runtime::HostKind::kSim ? "sim" : "tcp";
    EXPECT_GT(r.samples, 0u) << label;
    EXPECT_EQ(r.violation, "") << label;
    EXPECT_EQ(r.undelivered, 0u) << label;
    EXPECT_GT(r.messages_sent, 0u) << label;
    EXPECT_GT(r.wire_bytes_sent, 0u) << label;
    EXPECT_GT(r.consensus_rounds, 0u) << label;
  }
}

TEST(Experiment, CrashDuringWarmupStillDelivers) {
  ExperimentConfig cfg;
  cfg.n = 5;
  cfg.stack.indirect.rcv_check_cost_per_id =
      cfg.model.rcv_check_cost_per_id;
  cfg.throughput_msgs_per_sec = 50;
  cfg.warmup = seconds(2);
  cfg.measure = seconds(3);
  cfg.drain = seconds(3);
  cfg.crashes.push_back({5, seconds(1)});
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.undelivered, 0u);
  EXPECT_EQ(r.violation, "");
}

TEST(Series, SaturatedMarkerIsNaN) {
  EXPECT_TRUE(std::isnan(saturated_marker()));
}

TEST(Series, PrintTableRuns) {
  // Smoke: formatting must handle values and NaN without crashing.
  print_table("test table", "x", {1, 2},
              {Series{"a", {1.25, saturated_marker()}},
               Series{"b", {0.5, 2.0}}});
}

TEST(BenchReport, EmptyReportIsValidJson) {
  const BenchReport report("empty");
  const std::string json = report.to_json();
  // The build-derived meta values vary per build; check the structure
  // and the auto-filled keys instead of a full golden string.
  EXPECT_EQ(json.find("{\n  \"bench\": \"empty\",\n  \"meta\": {"), 0u);
  for (const char* key : {"git_sha", "build_type", "sanitizers",
                          "compiler"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\": "),
              std::string::npos)
        << key;
  }
  EXPECT_NE(json.find("\"tables\": [],\n  \"notes\": {}\n}\n"),
            std::string::npos);
}

TEST(BenchReport, MetaEntriesOverridePerKey) {
  BenchReport report("meta");
  report.meta("host", "sim");
  report.meta("host", "tcp");
  report.meta("n", "3");
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("\"host\": \"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"host\": \"tcp\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": \"3\""), std::string::npos);
}

TEST(BenchReport, SerializesTablesNotesAndNulls) {
  BenchReport report("demo");
  report.record("t1", "x", {1, 2},
                {Series{"a", {1.5, saturated_marker()}}});
  report.note("key", "value");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"x_label\": \"x\""), std::string::npos);
  EXPECT_NE(json.find("\"values\": [1.5, null]"), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"value\""), std::string::npos);
}

TEST(BenchReport, EscapesSpecialCharacters) {
  BenchReport report("esc");
  report.note("quote\"back\\slash", "tab\tnewline\n");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"quote\\\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(json.find("\"tab\\tnewline\\n\""), std::string::npos);
}

TEST(BenchReport, ParsesJsonPathFromArgv) {
  const char* eq[] = {"bench", "--json=/tmp/a.json"};
  EXPECT_FALSE(
      BenchReport("b", 2, const_cast<char* const*>(eq)).quiet());
  const char* dash[] = {"bench", "--json=-"};
  EXPECT_TRUE(
      BenchReport("b", 2, const_cast<char* const*>(dash)).quiet());
  const char* split[] = {"bench", "--json", "-"};
  EXPECT_TRUE(
      BenchReport("b", 3, const_cast<char* const*>(split)).quiet());
  EXPECT_FALSE(BenchReport("b").quiet());
}

TEST(BenchReportDeathTest, DanglingJsonFlagExitsEarly) {
  const char* dangling[] = {"bench", "--json"};
  EXPECT_EXIT(BenchReport("b", 2, const_cast<char* const*>(dangling)),
              testing::ExitedWithCode(2), "--json requires a path");
  const char* flagged[] = {"bench", "--json", "--other"};
  EXPECT_EXIT(BenchReport("b", 3, const_cast<char* const*>(flagged)),
              testing::ExitedWithCode(2), "--json requires a path");
  const char* empty[] = {"bench", "--json="};
  EXPECT_EXIT(BenchReport("b", 2, const_cast<char* const*>(empty)),
              testing::ExitedWithCode(2), "--json= requires a path");
}

TEST(BenchReport, FinishWritesRequestedFile) {
  const std::string path =
      testing::TempDir() + "/ibc_bench_report_test.json";
  const std::string flag = "--json=" + path;
  const char* args[] = {"bench", flag.c_str()};
  BenchReport report("file_demo", 2, const_cast<char* const*>(args));
  report.record("t", "x", {1}, {Series{"s", {2.5}}});
  EXPECT_EQ(report.finish(), 0);
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), report.to_json());
  std::remove(path.c_str());
}

TEST(BenchReport, FinishReportsUnwritablePath) {
  const char* args[] = {"bench", "--json=/nonexistent-dir/x.json"};
  BenchReport report("bad_path", 2, const_cast<char* const*>(args));
  EXPECT_EQ(report.finish(), 1);
}

}  // namespace
}  // namespace ibc::workload
