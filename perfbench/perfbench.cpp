// perfbench — the repository benchmark.
//
// Runs one workload on a 3-process loopback-TCP `ibc::Cluster` (three
// reactor threads plus this mostly-sleeping driver thread), checks the
// outputs, and prints every metric by name and unit. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics of an untraced pass. --trace 1
// runs the untraced pass, then the same workload again with lifecycle
// stamps taken from outside the program (public subscribe hooks, the
// abroadcast call, sampled ordering state, host counters, reactor thread
// CPU), and prints the per-layer metrics plus the tracing overhead
// (traced minus untraced, per end-to-end metric). README.md beside this
// file says why each workload exists and which end-to-end metric each
// layer metric should move.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "runtime/cluster.hpp"

namespace perfbench {
namespace {

using namespace ibc;

constexpr std::uint32_t kN = 3;
/// Clusters built and timed on each side of a pass's window: set-up
/// times drift with the host, so `setup_s` samples it before and after.
/// The last cluster built before the window is the one measured.
constexpr int kSetups = 21;
/// Load runs this long before the window opens, so connections, caches
/// and allocator pools are warm when measurement starts.
constexpr Duration kWarmup = seconds(1);
/// Period of the traced run's ordering-state sampler on each reactor.
constexpr Duration kSampleEvery = milliseconds(5);
/// The window is cut into slices of this length. `adeliver_p50_ms` and
/// `cpu_us_per_msg` are medians over the slices' own values, so a stall
/// of the host that spans a few slices moves them little.
constexpr Duration kSlice = seconds(1);
/// Crash workload: p2 (the round-1 coordinator of every CT instance,
/// `(round % n) + 1`) dies kCrashAfter into each kCrashCycle of the
/// window and is restarted kDowntime later. Each cycle is an episode of
/// its own, on a fresh cluster: every snapshot copies the whole
/// delivered-id set, so on one long-lived cluster the cost per message
/// would grow with the window, and `--seconds` would pick the regime.
constexpr ProcessId kVictim = 2;
constexpr Duration kCrashCycle = seconds(10);
constexpr Duration kCrashAfter = seconds(2);
constexpr Duration kDowntime = seconds(2);
/// The realized abroadcast rate may differ from the offered one by this
/// share before the run is failed: beyond it the generator, not the
/// system, would set the load.
constexpr double kRateTolerance = 0.01;
constexpr Duration kDrainLimit = seconds(30);

struct Workload {
  const char* name;
  std::size_t payload_bytes;
  double rate;  // msgs/s offered in total, split evenly over processes
  std::uint32_t pipeline;
  std::size_t batch_msgs;
  Duration batch_delay;
  fd::HeartbeatConfig heartbeat;
  bool crash_restart;
};

// Why each workload exists: README.md, "Workloads".
const Workload kWorkloads[] = {
    {"paper_4k", 32, 4000.0, 1, 1, microseconds(500),
     {milliseconds(20), milliseconds(200), milliseconds(50)}, false},
    {"batched_1k", 1024, 24000.0, 4, 16, milliseconds(2),
     {milliseconds(20), milliseconds(200), milliseconds(50)}, false},
    {"ibcd_crash_restart", 32, 1000.0, 8, 1, microseconds(500),
     {milliseconds(25), milliseconds(500), milliseconds(250)}, true},
};

ClusterOptions cluster_options(const Workload& w, std::uint64_t seed) {
  abcast::StackConfig stack;  // indirect CT over RB-flood
  stack.heartbeat = w.heartbeat;
  ClusterOptions options;
  options.with_n(kN)
      .with_seed(seed)
      .with_stack(stack)
      .on_tcp()
      .without_delivery_log()
      .pipeline_depth(w.pipeline)
      .batch_max_msgs(w.batch_msgs)
      .batch_max_delay(w.batch_delay);
  if (w.crash_restart) {
    // ibcd's recovery settings, on the in-memory store: the file store's
    // fsync latency on a shared disk would measure the disk.
    recovery::Config rc;
    rc.snapshot_every = 64;
    rc.strict_sync = true;
    rc.medium = recovery::Config::Medium::kMem;
    options.with_recovery(rc);
  }
  return options;
}

// ---- payloads -------------------------------------------------------------
//
// u32 magic | u32 origin | u64 index | filler | u64 trailer. The trailer
// repeats origin and index, so a payload cut short, shifted or spliced
// from two messages fails the check without reading the filler.

constexpr std::uint32_t kMagic = 0x42434249;       // "IBCB"
constexpr std::uint32_t kProbeMagic = 0x45425250;  // "PRBE"

std::uint64_t trailer_of(std::uint32_t origin, std::uint64_t index) {
  return (index * 0x9e3779b97f4a7c15ULL) ^ origin;
}

Bytes make_payload(std::size_t size, std::uint32_t magic,
                   std::uint32_t origin, std::uint64_t index) {
  Bytes b(size, 0xA5);
  const std::uint64_t trailer = trailer_of(origin, index);
  std::memcpy(b.data(), &magic, 4);
  std::memcpy(b.data() + 4, &origin, 4);
  std::memcpy(b.data() + 8, &index, 8);
  std::memcpy(b.data() + size - 8, &trailer, 8);
  return b;
}

struct Decoded {
  std::uint32_t magic = 0;
  std::uint32_t origin = 0;
  std::uint64_t index = 0;
};

/// Header fields of a well-formed payload of `size` bytes, else nothing.
std::optional<Decoded> decode(BytesView v, std::size_t size) {
  if (v.size() != size) return std::nullopt;
  Decoded d;
  std::uint64_t trailer = 0;
  std::memcpy(&d.magic, v.data(), 4);
  std::memcpy(&d.origin, v.data() + 4, 4);
  std::memcpy(&d.index, v.data() + 8, 8);
  std::memcpy(&trailer, v.data() + size - 8, 8);
  if ((d.magic != kMagic && d.magic != kProbeMagic) ||
      trailer != trailer_of(d.origin, d.index))
    return std::nullopt;
  return d;
}

// ---- small statistics -----------------------------------------------------

/// Nearest-rank quantile; sorts `v`. Empty -> 0.
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ms(Duration d) { return to_ms(d); }

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;
};

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

/// Moves the calling thread to the next CPU it may run on, round robin,
/// then restores its affinity mask, so threads it starts later may still
/// run anywhere. The scheduler places new threads near their creator:
/// without the move, all set-ups of one process shared one placement,
/// and the median set-up time of one process was 2x that of another.
void move_to_next_cpu() {
  static cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  static int last = -1;
  for (int i = 1; i <= CPU_SETSIZE; ++i) {
    const int cpu = (last + i) % CPU_SETSIZE;
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    sched_setaffinity(0, sizeof allowed, &allowed);
    last = cpu;
    return;
  }
}

// ---- per-origin generator -------------------------------------------------

/// One process's open-loop source: a seeded Poisson schedule of absolute
/// due times, fired from a timer on that process's reactor. A timer that
/// fires late sends everything already due, so lateness shows as lag,
/// never as a lower offered rate. Written only by its reactor thread (or
/// by the driver while that reactor is stopped); read after shutdown.
struct Source {
  std::vector<Duration> due;        // offsets from `start`, ascending
  std::vector<TimePoint> sent;      // abroadcast call start, -1 = never
  std::vector<std::uint64_t> seq;   // MessageId seq returned, 0 = invalid
  std::vector<std::int64_t> call_ns;  // traced: abroadcast call duration
  TimePoint start = 0;
  std::size_t next = 0;
  std::size_t skipped = 0;   // due while the process was down
  std::atomic<std::uint64_t> issued{0};
  std::atomic<bool> finished{false};  // every due message handled
};

// ---- per-process recorder -------------------------------------------------

struct Suspicion {
  TimePoint at = 0;
  ProcessId process = 0;
  bool suspected = false;
};

/// Everything one process observes, in arrays sized before the run and
/// keyed by (origin, index): the delivery path takes no lock and never
/// allocates. Written only by that process's reactor thread.
struct Recorder {
  std::vector<std::vector<TimePoint>> adeliver;  // [origin][index], -1
  std::vector<std::vector<TimePoint>> rdeliver;  // traced only
  std::vector<Delivered> log;                    // capacity fixed up front
  std::uint64_t bad_payloads = 0;
  std::uint64_t overflow = 0;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> probe_seen{false};
  // Traced only.
  std::uint64_t own_frames = 0;  // own batch frames R-delivered in window
  std::uint64_t own_msgs = 0;    // messages in those frames
  double sum_unordered = 0;
  double sum_backlog = 0;
  double sum_inflight = 0;
  std::uint64_t samples = 0;
  std::array<Suspicion, 256> suspicions{};
  std::size_t suspicion_count = 0;
};

// ---- one pass -------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct PassResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;       // one per cluster built
  std::vector<double> slice_p50_ms;  // per slice of the window
  std::vector<double> slice_cpu_us;  // per slice: CPU per delivered msg
  std::uint64_t delivered = 0;
  double window_s = 0;
  std::vector<Metric> layers;
  std::vector<std::string> notes;  // human-readable extras
};

class Pass {
 public:
  Pass(const Workload& w, std::uint64_t seed, std::uint64_t episode,
       Duration window, bool traced)
      : w_(w), seed_(seed), episode_(episode), window_(window),
        traced_(traced) {}

  PassResult run();

 private:
  void build_schedules();
  void set_up(std::vector<double>& setup_s);
  double set_up_once();
  void attach(ProcessId p);
  void fire(ProcessId p);
  void arm_generator(ProcessId p, TimePoint now);
  void sample(ProcessId p);
  void on_restart(ProcessId p);
  void sleep_until(TimePoint t) const;
  bool drain();
  void evaluate(PassResult& out);

  Recorder& rec(ProcessId p) { return *recorders_[p]; }
  Source& src(ProcessId p) { return *sources_[p]; }
  void fail(PassResult& out, std::string why) {
    out.correct = false;
    out.errors.push_back(std::move(why));
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::uint64_t episode_;
  Duration window_;
  bool traced_;

  // Declared before the cluster: its reactors' timers point into these.
  std::vector<std::unique_ptr<Source>> sources_;      // [1..n]
  std::vector<std::unique_ptr<Recorder>> recorders_;  // [1..n]
  std::unique_ptr<Cluster> cluster_;

  // Measurement window, host time. Atomic: broadcast callbacks installed
  // during set-up read it on the reactors.
  std::atomic<TimePoint> w0_{0}, w1_{0};
  struct CrashCycle {
    TimePoint crash_at = 0;
    TimePoint restart_at = 0;
    TimePoint restart_done = 0;
  };
  std::vector<CrashCycle> cycles_;
  std::vector<Usage> slice_usage_;  // at each slice boundary of the window
  Usage usage0_, usage1_;
  runtime::HostCounters counters0_, counters1_;
  std::vector<double> thread_cpu0_, thread_cpu1_;
  bool drained_ = false;
};

void Pass::build_schedules() {
  const double mean_gap_ns = 1e9 * kN / w_.rate;
  const Rng root(seed_);
  sources_.resize(kN + 1);
  recorders_.resize(kN + 1);
  std::size_t total = 0;
  for (ProcessId p = 1; p <= kN; ++p) {
    Rng rng = root.fork("perfbench-source", episode_ * kN + p);
    auto s = std::make_unique<Source>();
    double t = 0;
    while (true) {
      t += rng.next_exponential(mean_gap_ns);
      if (t >= static_cast<double>(kWarmup + window_)) break;
      s->due.push_back(static_cast<Duration>(t));
    }
    s->sent.assign(s->due.size(), -1);
    s->seq.assign(s->due.size(), 0);
    if (traced_) s->call_ns.assign(s->due.size(), 0);
    total += s->due.size();
    sources_[p] = std::move(s);
  }
  for (ProcessId p = 1; p <= kN; ++p) {
    auto r = std::make_unique<Recorder>();
    r->adeliver.resize(kN + 1);
    if (traced_) r->rdeliver.resize(kN + 1);
    for (ProcessId o = 1; o <= kN; ++o) {
      r->adeliver[o].assign(sources_[o]->due.size(), -1);
      if (traced_) r->rdeliver[o].assign(sources_[o]->due.size(), -1);
    }
    r->log.reserve(total);
    recorders_[p] = std::move(r);
  }
}

/// Subscribes p's recorder (and, traced, the broadcast and failure
/// detector stamps). Runs on p's reactor, or while p is not executing.
void Pass::attach(ProcessId p) {
  abcast::ProcessStack& stack = cluster_->node(p).stack();
  runtime::Env& env = cluster_->env(p);
  Recorder* r = &rec(p);
  const std::size_t size = w_.payload_bytes;
  stack.abcast().subscribe(
      [r, &env, size](const MessageId& id, const Payload& payload) {
        const TimePoint at = env.now();
        const std::optional<Decoded> d = decode(payload, size);
        if (!d || d->origin != id.origin || d->origin < 1 || d->origin > kN) {
          ++r->bad_payloads;
          return;
        }
        if (d->magic == kProbeMagic) {
          r->probe_seen.store(true, std::memory_order_release);
          return;
        }
        std::vector<TimePoint>& slots = r->adeliver[d->origin];
        if (d->index >= slots.size()) {
          ++r->bad_payloads;
          return;
        }
        // A second delivery keeps the first time; the log entry it adds
        // is what the checker rejects.
        if (slots[d->index] < 0) slots[d->index] = at;
        if (r->log.size() < r->log.capacity()) {
          r->log.push_back(Delivered{d->origin,
                                     static_cast<std::uint32_t>(d->index),
                                     id.seq});
        } else {
          ++r->overflow;
        }
        r->delivered.fetch_add(1, std::memory_order_relaxed);
      });
  if (!traced_) return;
  stack.broadcast().subscribe([this, r, &env, p, size](ProcessId,
                                                       const Payload& frame) {
    const TimePoint at = env.now();
    const abcast::BatchView batch = abcast::parse_batch(frame);
    std::uint64_t msgs = 0;
    for (const Payload& payload : batch.payloads) {
      const std::optional<Decoded> d = decode(payload, size);
      if (!d || d->magic != kMagic || d->origin < 1 || d->origin > kN)
        continue;
      std::vector<TimePoint>& slots = r->rdeliver[d->origin];
      if (d->index < slots.size() && slots[d->index] < 0) slots[d->index] = at;
      ++msgs;
    }
    if (batch.first.origin == p && at >= w0_ && at < w1_ && msgs > 0) {
      ++r->own_frames;
      r->own_msgs += msgs;
    }
  });
  stack.failure_detector().subscribe([r, &env](ProcessId q, bool suspected) {
    if (r->suspicion_count < r->suspicions.size())
      r->suspicions[r->suspicion_count++] = Suspicion{env.now(), q, suspected};
  });
}

/// Builds the cluster kSetups times, replacing the previous one, and adds
/// each set-up time to `setup_s`. The last cluster stays up.
void Pass::set_up(std::vector<double>& setup_s) {
  for (int k = 0; k < kSetups; ++k) {
    cluster_.reset();
    for (ProcessId p = 1; p <= kN; ++p) {
      rec(p).probe_seen.store(false);
      rec(p).suspicion_count = 0;
    }
    move_to_next_cpu();
    const double s = set_up_once();
    if (s < 0) {
      std::fprintf(stderr,
                   "perfbench: set-up probe not delivered within 10 s\n");
      std::exit(1);
    }
    setup_s.push_back(s);
  }
}

double Pass::set_up_once() {
  const auto t0 = std::chrono::steady_clock::now();
  cluster_ = std::make_unique<Cluster>(cluster_options(w_, seed_));
  for (ProcessId p = 1; p <= kN; ++p)
    cluster_->host().run_on(p, [this, p] { attach(p); });
  cluster_->node(1).abroadcast(
      make_payload(w_.payload_bytes, kProbeMagic, 1, 0));
  const auto limit = t0 + std::chrono::seconds(10);
  for (ProcessId p = 1; p <= kN; ++p) {
    while (!rec(p).probe_seen.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > limit) return -1;
      std::this_thread::yield();
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void Pass::fire(ProcessId p) {
  Source& s = src(p);
  runtime::Env& env = cluster_->env(p);
  Cluster::Node& node = cluster_->node(p);
  TimePoint now = env.now();
  while (s.next < s.due.size() && s.start + s.due[s.next] <= now) {
    const std::size_t i = s.next++;
    s.sent[i] = now;
    const MessageId id = node.abroadcast(
        make_payload(w_.payload_bytes, kMagic, p, i));
    const TimePoint after = env.now();
    if (traced_) s.call_ns[i] = after - now;
    if (id.origin == p && id.seq != 0) {
      s.seq[i] = id.seq;
      s.issued.fetch_add(1, std::memory_order_relaxed);
    }
    now = after;
  }
  if (s.next < s.due.size()) {
    env.set_timer(std::max<Duration>(0, s.start + s.due[s.next] - now),
                  [this, p] { fire(p); });
  } else {
    s.finished.store(true, std::memory_order_release);
  }
}

/// Skips what fell due before `now` (not offered: the process was down)
/// and arms the first timer.
void Pass::arm_generator(ProcessId p, TimePoint now) {
  Source& s = src(p);
  const std::size_t first = s.next;
  while (s.next < s.due.size() && s.start + s.due[s.next] < now) ++s.next;
  s.skipped += s.next - first;
  if (s.next < s.due.size()) {
    cluster_->env(p).set_timer(
        std::max<Duration>(0, s.start + s.due[s.next] - now),
        [this, p] { fire(p); });
  } else {
    s.finished.store(true, std::memory_order_release);
  }
}

void Pass::sample(ProcessId p) {
  runtime::Env& env = cluster_->env(p);
  const TimePoint now = env.now();
  if (now >= w0_ && now < w1_) {
    const abcast::ProcessStack& stack = cluster_->node(p).stack();
    Recorder& r = rec(p);
    if (const core::OrderingCore* core = stack.ordering()) {
      r.sum_unordered += static_cast<double>(core->unordered().size());
      r.sum_backlog += static_cast<double>(core->ordered_backlog());
      r.sum_inflight += static_cast<double>(core->instances_in_flight());
      ++r.samples;
    }
  }
  if (now < w1_) env.set_timer(kSampleEvery, [this, p] { sample(p); });
}

/// Restart listener: the new incarnation is built but not yet running.
void Pass::on_restart(ProcessId p) {
  attach(p);
  const TimePoint now = cluster_->now();
  arm_generator(p, now);
  if (traced_)
    cluster_->env(p).set_timer(kSampleEvery, [this, p] { sample(p); });
}

void Pass::sleep_until(TimePoint t) const {
  const Duration d = t - cluster_->now();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Waits until every source has sent its whole schedule and every process
/// delivered every issued message, or until the counts stop moving for a
/// second (a crashed origin's last messages may be lost with it; the
/// validity check judges what is missing). False only when kDrainLimit
/// passes first.
bool Pass::drain() {
  const TimePoint deadline = cluster_->now() + kDrainLimit;
  std::uint64_t last_total = 0;
  TimePoint last_change = cluster_->now();
  while (cluster_->now() < deadline) {
    bool finished = true;
    std::uint64_t issued = 0;
    for (ProcessId p = 1; p <= kN; ++p) {
      finished = finished && src(p).finished.load(std::memory_order_acquire);
      issued += src(p).issued.load(std::memory_order_relaxed);
    }
    std::uint64_t total = 0;
    bool all = true;
    for (ProcessId p = 1; p <= kN; ++p) {
      const std::uint64_t d = rec(p).delivered.load(std::memory_order_relaxed);
      total += d;
      all = all && d >= issued;
    }
    if (finished && all) return true;
    if (total != last_total) {
      last_total = total;
      last_change = cluster_->now();
    } else if (finished && cluster_->now() - last_change > seconds(1)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

PassResult Pass::run() {
  PassResult out;
  build_schedules();

  set_up(out.setup_s);
  // Until the window closes, every callback fires for the measured
  // cluster only.
  if (w_.crash_restart)
    cluster_->set_restart_listener([this](ProcessId p) { on_restart(p); });

  const TimePoint start = cluster_->now() + milliseconds(20);
  w0_ = start + kWarmup;
  w1_ = w0_ + window_;
  for (ProcessId p = 1; p <= kN; ++p) {
    src(p).start = start;
    arm_generator(p, cluster_->now());
    if (traced_)
      cluster_->env(p).set_timer(kSampleEvery, [this, p] { sample(p); });
  }

  const auto read_thread_cpu = [this](std::vector<double>& into) {
    into.assign(kN + 1, -1);
    for (ProcessId p = 1; p <= kN; ++p)
      cluster_->host().run_on(p, [&into, p] { into[p] = thread_cpu_s(); });
  };
  // The driver's timeline: a CPU sample at every slice boundary and, on
  // the crash workload, the victim's crashes and restarts. A sample sorts
  // before an action due at the same time.
  enum class Act { kSample, kCrash, kRestart };
  std::vector<std::pair<TimePoint, Act>> timeline;
  const TimePoint w0 = w0_, w1 = w1_;
  for (TimePoint t = w0 + kSlice; t <= w1; t += kSlice)
    timeline.emplace_back(t, Act::kSample);
  if (w_.crash_restart) {
    for (TimePoint cycle = w0; cycle + kCrashAfter + kDowntime < w1;
         cycle += kCrashCycle) {
      timeline.emplace_back(cycle + kCrashAfter, Act::kCrash);
      timeline.emplace_back(cycle + kCrashAfter + kDowntime, Act::kRestart);
    }
  }
  std::sort(timeline.begin(), timeline.end());

  sleep_until(w0);
  slice_usage_.push_back(process_usage());
  counters0_ = cluster_->host().counters();
  if (traced_) read_thread_cpu(thread_cpu0_);
  for (const auto& [at, act] : timeline) {
    sleep_until(at);
    switch (act) {
      case Act::kSample:
        slice_usage_.push_back(process_usage());
        break;
      case Act::kCrash:
        cycles_.push_back(CrashCycle{cluster_->now(), 0, 0});
        cluster_->crash(kVictim);
        break;
      case Act::kRestart:
        cycles_.back().restart_at = cluster_->now();
        cluster_->restart(kVictim);
        cycles_.back().restart_done = cluster_->now();
        break;
    }
  }
  sleep_until(w1);
  usage0_ = slice_usage_.front();
  usage1_ = slice_usage_.back();
  counters1_ = cluster_->host().counters();
  if (traced_) read_thread_cpu(thread_cpu1_);

  drained_ = drain();
  cluster_->shutdown();
  evaluate(out);
  set_up(out.setup_s);
  cluster_.reset();
  return out;
}

void Pass::evaluate(PassResult& out) {
  const double window_s = to_sec(window_);
  const bool crash = w_.crash_restart;
  const auto in_window = [this](TimePoint t) { return t >= w0_ && t < w1_; };
  const auto was_down = [&](ProcessId p, TimePoint t) {
    for (const CrashCycle& c : cycles_)
      if (p == kVictim && t >= c.crash_at && t < c.restart_done) return true;
    return false;
  };
  // The victim's first crash at or after `t`, or +infinity.
  const auto next_crash = [&](TimePoint t) {
    for (const CrashCycle& c : cycles_)
      if (c.crash_at >= t) return c.crash_at;
    return kTimeInfinity;
  };
  const TimePoint last_crash = cycles_.empty() ? -1 : cycles_.back().crash_at;

  // --- correctness ----------------------------------------------------------
  std::vector<std::vector<Delivered>> logs;
  std::vector<std::vector<std::uint64_t>> issued(kN + 1);
  for (ProcessId o = 1; o <= kN; ++o) issued[o] = src(o).seq;
  for (ProcessId p = 1; p <= kN; ++p) {
    const Recorder& r = rec(p);
    logs.push_back(r.log);
    if (r.bad_payloads != 0)
      fail(out, "process " + std::to_string(p) + " delivered " +
                    std::to_string(r.bad_payloads) + " malformed payloads");
    if (r.overflow != 0)
      fail(out, "process " + std::to_string(p) + " delivered more messages "
                    "than were scheduled");
  }
  if (const std::string err = check_logs(logs, issued, true); !err.empty())
    fail(out, err);
  if (!drained_)
    fail(out, "deliveries still moving 30 s after the window closed");

  // --- per message ----------------------------------------------------------
  std::vector<double> latency_ms, lag_ms;
  const std::size_t slices = slice_usage_.size() - 1;
  std::vector<std::vector<double>> slice_latency_ms(slices);
  std::uint64_t offered = 0, realized = 0, delivered = 0, attempted = 0;
  std::uint64_t undelivered = 0, lost_at_crash = 0, invalid = 0;
  for (ProcessId o = 1; o <= kN; ++o) {
    const Source& s = src(o);
    for (std::size_t i = 0; i < s.due.size(); ++i) {
      const TimePoint due = s.start + s.due[i];
      if (in_window(s.sent[i])) ++realized;
      // Never sent: skipped while its origin was down, not offered.
      if (!in_window(due) || s.sent[i] < 0) continue;
      ++offered;
      ++attempted;
      if (s.seq[i] == 0) {
        ++invalid;
        continue;
      }
      bool any = false, all = true;
      TimePoint last = 0;
      for (ProcessId p = 1; p <= kN; ++p) {
        const TimePoint at = rec(p).adeliver[o][i];
        if (at >= 0) any = true;
        // p must deliver unless it was down at some point in the
        // message's life: due while it was down, or crashed before it
        // delivered.
        const bool required =
            p != kVictim ||
            (!was_down(p, due) &&
             (at >= 0 ? at < next_crash(due)
                      : next_crash(due) == kTimeInfinity));
        if (!required) continue;
        if (at < 0) {
          all = false;
        } else {
          last = std::max(last, at);
        }
      }
      lag_ms.push_back(ms(s.sent[i] - due));
      if (all) {
        ++delivered;
        latency_ms.push_back(ms(last - due));
        const auto k = static_cast<std::size_t>((due - w0_) / kSlice);
        if (k < slices) slice_latency_ms[k].push_back(latency_ms.back());
      } else if (o == kVictim && s.sent[i] < last_crash && !any) {
        ++lost_at_crash;  // lost with its crashed origin (§2.1 allows it)
      } else {
        ++undelivered;
      }
    }
  }
  // Validity and agreement over the whole run, warm-up included: after
  // the drain every message is delivered everywhere, unless its origin
  // crashed while it was in flight and no process delivered it.
  const auto validity = [&]() -> std::string {
    for (ProcessId o = 1; o <= kN; ++o) {
      const Source& s = src(o);
      for (std::size_t i = 0; i < s.due.size(); ++i) {
        if (s.seq[i] == 0) continue;
        ProcessId missing = 0;
        bool any = false;
        for (ProcessId p = 1; p <= kN; ++p) {
          if (rec(p).adeliver[o][i] < 0) {
            missing = p;
          } else {
            any = true;
          }
        }
        if (missing == 0 || (o == kVictim && s.sent[i] < last_crash && !any))
          continue;
        return "validity: " + std::to_string(o) + "#" + std::to_string(i) +
               " never delivered at process " + std::to_string(missing);
      }
    }
    return "";
  };
  if (const std::string err = validity(); !err.empty()) fail(out, err);
  const double offered_rate = static_cast<double>(offered) / window_s;
  const double realized_rate = static_cast<double>(realized) / window_s;
  if (offered == 0 ||
      std::abs(realized_rate - offered_rate) > kRateTolerance * offered_rate)
    fail(out, "realized rate " + std::to_string(realized_rate) +
                  " msg/s is more than 1% off the offered " +
                  std::to_string(offered_rate) + " msg/s");

  out.attempted = attempted;
  out.failed = undelivered + lost_at_crash + invalid;
  out.delivered = delivered;
  out.window_s = window_s;
  // A message is charged to the slice it fell due in; the CPU is what
  // the process spent in that slice.
  for (std::size_t k = 0; k < slices; ++k) {
    std::vector<double>& lat = slice_latency_ms[k];
    if (lat.empty()) continue;
    out.slice_p50_ms.push_back(quantile(lat, 0.50));
    const Usage& a = slice_usage_[k];
    const Usage& b = slice_usage_[k + 1];
    const double cpu_s = (b.user_s - a.user_s) + (b.sys_s - a.sys_s);
    out.slice_cpu_us.push_back(
        cpu_s * 1e6 / static_cast<double>(lat.size()));
  }
  const std::size_t samples = latency_ms.size();
  const double msgs = static_cast<double>(delivered);
  // The tail is printed, not bounded: it follows the host's steal time,
  // which moved p95 by 40% and p99 by 3x between runs (README.md).
  const double p50 = quantile(latency_ms, 0.50);
  const double p95 = quantile(latency_ms, 0.95);
  const double p99 = quantile(latency_ms, 0.99);
  const double p999 = quantile(latency_ms, 0.999);

  // --- crash and rejoin: means over the crash cycles ----------------------
  double outage_ms = 0, rejoin_s = 0, restart_call_ms = 0;
  const ProcessId survivor = kVictim == 1 ? 2 : 1;
  const std::vector<Delivered>& vlog = rec(kVictim).log;
  for (const CrashCycle& c : cycles_) {
    // Longest gap between A-deliveries at a survivor, from the crash to
    // the next crash or the end of the window.
    const TimePoint until =
        std::min<TimePoint>(next_crash(c.crash_at + 1), w1_);
    Duration worst = 0;
    for (ProcessId p = 1; p <= kN; ++p) {
      if (p == kVictim) continue;
      TimePoint prev = c.crash_at;
      Duration gap = 0;
      for (const Delivered& d : rec(p).log) {
        const TimePoint at = rec(p).adeliver[d.origin][d.index];
        if (at < c.crash_at || at >= until) continue;
        gap = std::max(gap, at - prev);
        prev = at;
      }
      worst = std::max({worst, gap, until - prev});
    }
    outage_ms += ms(worst);
    // Everything a survivor delivered before the restart, the victim must
    // have delivered too: the prefix of that length of its log.
    std::size_t before = 0;
    for (const Delivered& d : rec(survivor).log)
      if (rec(survivor).adeliver[d.origin][d.index] < c.restart_at) ++before;
    if (before > 0 && vlog.size() >= before) {
      const Delivered& d = vlog[before - 1];
      rejoin_s += std::max(
          0.0, to_sec(rec(kVictim).adeliver[d.origin][d.index] - c.restart_at));
    } else if (before > 0) {
      fail(out, "restarted process never caught up with the survivors");
    }
    restart_call_ms += ms(c.restart_done - c.restart_at);
  }
  if (!cycles_.empty()) {
    const double n = static_cast<double>(cycles_.size());
    outage_ms /= n;
    rejoin_s /= n;
    restart_call_ms /= n;
  }

  char buf[320];
  std::snprintf(buf, sizeof buf,
                "adeliver samples %zu (p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
                "p999 %.3f ms); "
                "offered %.1f msg/s, realized %.1f msg/s; attempted %llu, "
                "failed %llu "
                "(failed_frac %.6f, lost with crashed origin %llu)",
                samples, p50, p95, p99, p999, offered_rate, realized_rate,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(out.failed),
                ratio(static_cast<double>(out.failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(lost_at_crash));
  out.notes.emplace_back(buf);
  if (crash) {
    std::size_t skipped = 0;
    for (ProcessId o = 1; o <= kN; ++o) skipped += src(o).skipped;
    std::snprintf(buf, sizeof buf,
                  "%zu crash cycles: outage %.1f ms, rejoin %.3f s, restart "
                  "call %.1f ms (means); %zu messages not offered while "
                  "down",
                  cycles_.size(), outage_ms, rejoin_s, restart_call_ms,
                  skipped);
    out.notes.emplace_back(buf);
  }
  if (!traced_) return;

  // --- per layer (traced pass) ----------------------------------------------
  std::vector<double> call_us, batch_wait_ms, diss_f1_ms, diss_last_ms,
      order_ms;
  const std::size_t f = (kN - 1) / 2;
  for (ProcessId o = 1; o <= kN; ++o) {
    const Source& s = src(o);
    for (std::size_t i = 0; i < s.due.size(); ++i) {
      if (!in_window(s.start + s.due[i]) || s.seq[i] == 0) continue;
      call_us.push_back(static_cast<double>(s.call_ns[i]) / 1e3);
      const TimePoint origin_r = rec(o).rdeliver[o][i];
      if (origin_r >= 0) batch_wait_ms.push_back(ms(origin_r - s.sent[i]));
      std::vector<TimePoint> r_times;
      for (ProcessId p = 1; p <= kN; ++p) {
        const TimePoint r = rec(p).rdeliver[o][i];
        const TimePoint a = rec(p).adeliver[o][i];
        if (r >= 0) r_times.push_back(r);
        // The core's R-delivery handler runs before this benchmark's, so
        // a message ordered before its payload arrived is A-delivered
        // just before it is stamped R-delivered: clamp at 0.
        if (r >= 0 && a >= 0) order_ms.push_back(std::max(0.0, ms(a - r)));
      }
      // Measured from the first R-delivery anywhere, not the origin's:
      // the origin handles its own loopback copy a reactor cycle after
      // sending, often after a peer already delivered.
      if (r_times.size() == kN) {
        std::sort(r_times.begin(), r_times.end());
        diss_f1_ms.push_back(ms(r_times[f] - r_times[0]));
        diss_last_ms.push_back(ms(r_times[kN - 1] - r_times[0]));
      }
    }
  }

  const ClusterStats stats = cluster_->stats();
  double own_frames = 0, own_msgs = 0, sum_unordered = 0, sum_backlog = 0,
         sum_inflight = 0, sample_count = 0;
  double rounds = 0, refusals = 0, instances = 0, msgs_delivered = 0;
  double busy_max = 0, detect_ms = 0, false_suspicions = 0;
  for (ProcessId p = 1; p <= kN; ++p) {
    const Recorder& r = rec(p);
    own_frames += static_cast<double>(r.own_frames);
    own_msgs += static_cast<double>(r.own_msgs);
    sum_unordered += r.sum_unordered;
    sum_backlog += r.sum_backlog;
    sum_inflight += r.sum_inflight;
    sample_count += static_cast<double>(r.samples);
    for (std::size_t k = 0; k < r.suspicion_count; ++k) {
      const Suspicion& s = r.suspicions[k];
      if (s.suspected && !was_down(s.process, s.at)) ++false_suspicions;
    }
    if (crash && p == kVictim) continue;  // counters restarted with it
    const abcast::ProcessStack& stack = cluster_->node(p).stack();
    rounds += static_cast<double>(stack.consensus_stats().rounds_started);
    refusals += static_cast<double>(stack.consensus_stats().proposals_refused);
    if (const core::OrderingCore* core = stack.ordering()) {
      instances += static_cast<double>(core->instances_completed());
      msgs_delivered += static_cast<double>(core->msgs_delivered());
    }
    busy_max = std::max(busy_max, (thread_cpu1_[p] - thread_cpu0_[p]) /
                                      window_s);
  }
  // Detection: the crash to the last survivor's first suspicion of the
  // victim, averaged over the cycles.
  for (const CrashCycle& c : cycles_) {
    Duration slowest = 0;
    for (ProcessId p = 1; p <= kN; ++p) {
      if (p == kVictim) continue;
      const Recorder& r = rec(p);
      for (std::size_t k = 0; k < r.suspicion_count; ++k) {
        const Suspicion& s = r.suspicions[k];
        if (s.suspected && s.process == kVictim && s.at >= c.crash_at &&
            s.at < c.restart_done) {
          slowest = std::max(slowest, s.at - c.crash_at);
          break;
        }
      }
    }
    detect_ms += ms(slowest) / static_cast<double>(cycles_.size());
  }
  double all_issued = 0;
  for (ProcessId o = 1; o <= kN; ++o)
    all_issued += static_cast<double>(src(o).issued.load());
  const auto delta = [this](std::uint64_t runtime::HostCounters::*field) {
    return static_cast<double>(counters1_.*field - counters0_.*field);
  };
  const double writevs = delta(&runtime::HostCounters::writev_calls);
  out.layers = {
      {"gen.lag_p50_ms", "ms", quantile(lag_ms, 0.50)},
      {"gen.lag_p99_ms", "ms", quantile(lag_ms, 0.99)},
      {"abcast.call_us", "us", median(call_us)},
      {"abcast.batch_wait_ms", "ms", median(batch_wait_ms)},
      {"abcast.msgs_per_batch", "msg/frame", ratio(own_msgs, own_frames)},
      {"bcast.disseminate_f1_ms", "ms", median(diss_f1_ms)},
      {"bcast.disseminate_last_ms", "ms", median(diss_last_ms)},
      {"bcast.sends_per_frame", "send/frame",
       ratio(static_cast<double>(stats.rb_wire_sends),
             static_cast<double>(stats.rb_frames))},
      {"bcast.copied_bytes_per_msg", "B/msg",
       ratio(static_cast<double>(stats.payload_bytes_copied), all_issued)},
      {"core.order_ms", "ms", median(order_ms)},
      {"core.msgs_per_instance", "msg/inst", ratio(msgs_delivered, instances)},
      {"core.unordered_mean", "ids", ratio(sum_unordered, sample_count)},
      {"core.ordered_backlog_mean", "ids", ratio(sum_backlog, sample_count)},
      {"core.inflight_mean", "inst", ratio(sum_inflight, sample_count)},
      {"consensus.rounds_per_instance", "round/inst", ratio(rounds, instances)},
      {"consensus.refusals_per_instance", "nack/inst",
       ratio(refusals, instances)},
      {"net.writev_per_msg", "call/msg", ratio(writevs, msgs)},
      {"net.frames_per_writev", "frame/call",
       ratio(delta(&runtime::HostCounters::frames_sent), writevs)},
      {"net.wakeups_per_1k", "wake/1kmsg",
       ratio(1e3 * delta(&runtime::HostCounters::wakeups), msgs)},
      {"net.wire_bytes_per_msg", "B/msg",
       ratio(delta(&runtime::HostCounters::wire_bytes_sent), msgs)},
      {"cpu.user_us_per_msg", "us/msg",
       ratio((usage1_.user_s - usage0_.user_s) * 1e6, msgs)},
      {"cpu.sys_us_per_msg", "us/msg",
       ratio((usage1_.sys_s - usage0_.sys_s) * 1e6, msgs)},
      {"cpu.ctx_switches_per_msg", "switch/msg",
       ratio(usage1_.ctx_switches - usage0_.ctx_switches, msgs)},
      {"runtime.reactor_busy_max", "ratio", busy_max},
      {"fd.detect_ms", "ms", detect_ms},
      {"fd.false_suspicions", "count", false_suspicions},
      {"recovery.restart_call_ms", "ms", restart_call_ms},
      {"recovery.catchup_ids", "ids",
       static_cast<double>(stats.catchup_ids_fetched)},
      {"store.appends_per_msg", "rec/msg",
       ratio(static_cast<double>(stats.log_appends), all_issued)},
      {"store.syncs_per_msg", "sync/msg",
       ratio(static_cast<double>(stats.fsyncs), all_issued)},
      {"store.bytes_per_msg", "B/msg",
       ratio(static_cast<double>(stats.log_bytes), all_issued)},
      {"crash.outage_ms", "ms", outage_ms},
      {"crash.rejoin_s", "s", rejoin_s},
  };
}

// ---- output ---------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_block(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

// ---- episodes --------------------------------------------------------------

/// Every pass of one workload run, merged.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;  // traced: means over the episodes
};

/// Runs the workload's window as episodes, each a Pass on a fresh
/// cluster: one episode, or one per kCrashCycle on the crash workload.
/// The end-to-end metrics pool the episodes' set-ups and slices.
RunResult run_episodes(const Workload& w, std::uint64_t seed, long secs,
                       bool traced) {
  const long cycle_s = static_cast<long>(kCrashCycle / seconds(1));
  const long episodes = w.crash_restart ? std::max(1L, secs / cycle_s) : 1;
  RunResult out;
  std::vector<double> setup_s, slice_p50_ms, slice_cpu_us;
  std::uint64_t delivered = 0;
  double window_s = 0;
  for (long e = 0; e < episodes; ++e) {
    // Whole seconds per episode, the remainder spread over the first ones.
    const long len = secs / episodes + (e < secs % episodes ? 1 : 0);
    const PassResult r =
        Pass(w, seed, static_cast<std::uint64_t>(e), seconds(len), traced)
            .run();
    std::printf("  episode %ld: %ld s window, %s\n", e + 1, len,
                r.correct ? "checks passed" : "CHECKS FAILED");
    for (const std::string& note : r.notes)
      std::printf("    %s\n", note.c_str());
    for (const std::string& err : r.errors)
      std::printf("    CHECK FAILED: %s\n", err.c_str());
    out.correct = out.correct && r.correct;
    out.attempted += r.attempted;
    out.failed += r.failed;
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    slice_p50_ms.insert(slice_p50_ms.end(), r.slice_p50_ms.begin(),
                        r.slice_p50_ms.end());
    slice_cpu_us.insert(slice_cpu_us.end(), r.slice_cpu_us.begin(),
                        r.slice_cpu_us.end());
    delivered += r.delivered;
    window_s += r.window_s;
    if (out.layers.empty()) {
      out.layers = r.layers;
    } else {
      for (std::size_t i = 0; i < out.layers.size(); ++i)
        out.layers[i].value += r.layers[i].value;
    }
  }
  for (Metric& m : out.layers) m.value /= static_cast<double>(episodes);
  out.e2e = {
      {"setup_s", "s", median(setup_s)},
      {"adeliver_p50_ms", "ms", median(slice_p50_ms)},
      {"delivered_msgs_per_s", "msg/s",
       ratio(static_cast<double>(delivered), window_s)},
      {"cpu_us_per_msg", "us/msg", median(slice_cpu_us)},
  };
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<long> secs;
  std::optional<int> trace;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    try {
      if (key == "--workload") workload = val;
      else if (key == "--seed") seed = std::stoull(val);
      else if (key == "--seconds") secs = std::stol(val);
      else if (key == "--trace") trace = std::stoi(val);
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  // The checker must reject a reordered log and a duplicated delivery
  // before any run is trusted to it.
  if (const std::string err = self_test(); !err.empty()) {
    std::fprintf(stderr, "perfbench: checker self-test failed: %s\n",
                 err.c_str());
    return 1;
  }
  if (self_test_only) {
    std::printf("checker self-test passed\n");
    return 0;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads)
    if (workload == candidate.name) w = &candidate;
  if (w == nullptr || !seed || !secs || !trace || *secs < 1 || *secs > 600 ||
      (*trace != 0 && *trace != 1))
    return usage();
  if (w->crash_restart &&
      seconds(*secs) < kCrashAfter + kDowntime + seconds(2)) {
    std::fprintf(stderr, "perfbench: %s needs --seconds >= 6\n", w->name);
    return 2;
  }

  std::printf("workload %s  seed %llu  window %ld s  n=%u\n", w->name,
              static_cast<unsigned long long>(*seed), *secs, kN);
  std::printf("untraced\n");
  const RunResult plain = run_episodes(*w, *seed, *secs, false);
  print_block("end-to-end (untraced)", plain.e2e);
  if (*trace == 0) {
    print_result(plain.correct, plain.attempted, plain.failed, plain.e2e);
    return 0;
  }
  std::printf("traced\n");
  const RunResult traced = run_episodes(*w, *seed, *secs, true);
  print_block("end-to-end (traced)", traced.e2e);
  std::vector<Metric> layers = traced.layers;
  for (std::size_t i = 0; i < plain.e2e.size() && i < traced.e2e.size(); ++i) {
    layers.push_back({"overhead." + plain.e2e[i].name, plain.e2e[i].unit,
                      traced.e2e[i].value - plain.e2e[i].value});
  }
  print_block("per-layer (traced) and tracing overhead", layers);
  print_result(plain.correct && traced.correct,
               plain.attempted + traced.attempted,
               plain.failed + traced.failed, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
