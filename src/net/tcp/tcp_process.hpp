// The TCP hosts: one rank per OS process, or n ranks in one.
//
// `TcpProcess` hosts exactly ONE rank on a `TcpEnv`. The `ibcd` daemon
// (tools/ibcd.cpp) builds a `ProcessStack` on it, n daemons form a mesh
// of genuine inter-process TCP connections, and a SIGKILL is a genuine
// crash-stop fault (DSN'06 §2) — volatile state dies with the process,
// only the on-disk store survives. `TcpCluster` hosts n `TcpProcess`
// ranks inside one OS process (tests, benches, `ibc::Cluster`), so both
// run the same dial, handshake and restart code.
//
// Wiring protocol (TcpProcess::join_mesh):
//   1. Bind 127.0.0.1 port 0 (never a hard-coded port; `ctest -j` can
//      run many clusters concurrently) and publish the kernel-assigned
//      port in the group's PortBook: ibcd writes `port.<rank>` into a
//      shared scratch directory (publish_port: write a temp file, then
//      rename — readers never see a partial write), TcpCluster keeps a
//      table in memory.
//   2. First boot: rank p dials every q < p, sending a 4-byte hello
//      (p's rank) — each pair gets exactly one connection; the lower
//      rank's reactor accepts and identifies the dialer by the hello.
//      A *restarted* rank instead dials every peer that has a listener
//      (its old connections died with the old incarnation); each peer's
//      reactor accepts and replaces the dead slot. Dials back off and
//      re-read the peer's port on every attempt, and stop as soon as the
//      PortBook has no port for it.
//
// The barrier files (barrier_enter/barrier_await) use the same
// temp+rename publish, so a barrier entry is atomic and survives the
// entrant's crash — exactly what a relaunch-after-SIGKILL needs: the
// "ready" barrier it re-enters is already satisfied.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp/tcp_transport.hpp"
#include "runtime/host.hpp"

namespace ibc::net::tcp {

/// Where the ranks of one group find each other's listeners.
struct PortBook {
  /// Announces `rank`'s new listen port.
  std::function<void(ProcessId rank, std::uint16_t port)> publish;
  /// `rank`'s current listen port. nullopt means it has no listener (it
  /// is dead), and any dial to it stops.
  std::function<std::optional<std::uint16_t>(ProcessId rank)> lookup;
};

class TcpProcess final : public runtime::Host {
 public:
  /// One rank of an n-process group. The seed feeds this rank's RNG
  /// stream, so the same (seed, rank) pair draws the same stream in
  /// every host. Host time counts from `epoch_ns` on the steady clock:
  /// each ibcd rank starts its own, a TcpCluster's ranks share one.
  TcpProcess(ProcessId self, std::uint32_t n, PortBook ports,
             std::uint64_t seed = 1, TimePoint epoch_ns = steady_now_ns());
  ~TcpProcess() override;

  TcpProcess(const TcpProcess&) = delete;
  TcpProcess& operator=(const TcpProcess&) = delete;

  runtime::HostKind kind() const override { return runtime::HostKind::kTcp; }
  std::uint32_t n() const override { return n_; }

  /// Only this rank's env exists here; any other id is a wiring bug.
  TcpEnv& env(ProcessId p) override;

  TimePoint now() const override;

  /// One dial made by join_mesh.
  struct PeerDial {
    ProcessId peer = 0;
    int attempts = 0;
    bool connected = false;
  };

  /// Joins the mesh while the reactor is stopped: binds a fresh listener
  /// and publishes its port, then dials every lower rank (first boot) or
  /// every peer with a listener (`restarted`). First-boot dials retry
  /// until `deadline`; a restart gives each peer at most 3 s of it.
  std::vector<PeerDial> join_mesh(
      bool restarted, std::chrono::steady_clock::time_point deadline);

  /// First boot, once every rank has joined and before start(): accepts
  /// the higher ranks' dials, so each link is open in both directions
  /// before any stack sends.
  void accept_mesh();

  /// Launches the reactor thread. Build the stack (which installs the
  /// Env receive handler) before this.
  void start() override;

  /// Stops and joins the reactor. Idempotent.
  void shutdown() override;

  /// Waits `d` of wall-clock time while the reactor makes progress.
  std::size_t run_for(Duration d) override;

  /// Runs `fn` on the reactor thread and blocks until it completed;
  /// inline while no reactor runs (before start, after shutdown). Returns
  /// without running `fn` if the rank is (or crashes while we wait) dead.
  void run_on(ProcessId p, std::function<void()> fn) override;

  /// Crash-stop: stops the reactor and closes every socket; peers
  /// observe the reset and the failure detector takes over. Idempotent.
  void crash(ProcessId p) override;

  /// Restarts a crashed rank in place: the object, env, RNG stream and
  /// fault plan stay, the old incarnation's timers, queues and links go,
  /// and the rank rejoins the mesh as a restarted rank. Build the new
  /// stack on env(), then resume().
  void restart(ProcessId p) override;

  /// Starts the restarted rank's reactor thread.
  void resume(ProcessId p) override;

  // No scheduler above the rank here: TcpCluster owns the watchdogs, and
  // an ibcd rank dies by SIGKILL. Both are wiring bugs on this host.
  void crash_at(TimePoint t, ProcessId p) override;
  void run_at(TimePoint t, std::function<void()> fn) override;

  /// True from the moment crash() has joined the reactor until resume().
  /// Only this rank: remote liveness is the failure detector's job.
  bool crashed(ProcessId p) const override;
  std::uint32_t alive_count() const override { return n_; }

  runtime::HostCounters counters() const override;

  /// Arms the adversary fault program on this rank's outbound links
  /// (ibcd --fault-plan). Window times are relative to the moment of
  /// arming — each rank arms as it passes the ready barrier, so
  /// cross-rank window alignment is as tight as the barrier. Safe to
  /// call before or after start().
  void arm_fault_plan(const FaultPlan& plan);

  /// Test seam (tcp_test): writes raw bytes on the link to `dst`, on the
  /// reactor thread so the write serializes with the writev flush. Lets
  /// tests split a frame — header included — across TCP segments, or
  /// garble the stream, on a real connection.
  void write_raw_for_test(ProcessId dst, const Bytes& bytes);

  /// Test seam (tcp_test): tears down this end of the link to `dst` (dst
  /// observes a connection reset, as after a crash). Idempotent; the
  /// rest of the mesh is untouched.
  void close_link_for_test(ProcessId dst);

 private:
  enum class State { kIdle, kRunning, kStopping, kCrashed, kShutDown };

  void require_self(ProcessId p) const;

  const ProcessId self_;
  const std::uint32_t n_;
  const PortBook ports_;
  std::unique_ptr<TcpEnv> env_;

  mutable std::mutex state_mu_;
  State state_ = State::kIdle;
};

/// n ranks inside one OS process, each a TcpProcess with its own reactor.
/// The cluster keeps only what one rank cannot: the shared clock epoch
/// (benches compare env(p).now() across ranks, and fault windows count
/// from it), the in-memory port table, and the watchdogs that crash and
/// restart ranks on schedule.
///
/// Lifecycle:
///   TcpCluster cluster(n);          // mesh established, reactors idle
///   ...build one stack per process on cluster.env(p)...
///   cluster.start();                // reactors spin up
///   cluster.run_on(p, [&]{ stack.start(); });    // per-process start
///   ...cluster.post(p, ...) to broadcast, etc...
///   cluster.kill(p);                // optional: crash a process
///   ~TcpCluster                     // stops and joins all reactors
class TcpCluster final : public runtime::Host {
 public:
  /// Builds and wires the full loopback mesh; reactors stay idle until
  /// start().
  explicit TcpCluster(std::uint32_t n, std::uint64_t seed = 1);

  /// Stops and joins every reactor.
  ~TcpCluster() override;

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  std::uint32_t n() const override {
    return static_cast<std::uint32_t>(ranks_.size() - 1);
  }
  runtime::Env& env(ProcessId p) override { return rank(p).env(p); }
  TcpProcess& rank(ProcessId p);

  runtime::HostKind kind() const override {
    return runtime::HostKind::kTcp;
  }

  /// Nanoseconds since the cluster was constructed (all processes share
  /// the epoch).
  TimePoint now() const override;

  /// Launches the reactor threads. Build the protocol stacks (which call
  /// env().set_receive) before this.
  void start() override;

  /// Cancels pending scheduled crashes, then stops and joins every
  /// reactor. After this the stacks' state can be read without races.
  /// Idempotent.
  void shutdown() override;

  /// Waits `d` of wall-clock time while the reactors make progress.
  std::size_t run_for(Duration d) override;

  /// Enqueues `fn` on p's reactor thread (fire and forget).
  void post(ProcessId p, std::function<void()> fn);

  void run_on(ProcessId p, std::function<void()> fn) override {
    rank(p).run_on(p, std::move(fn));
  }

  /// Crashes p (TcpProcess::crash) after removing its port from the
  /// table, so no restarting rank dials its dead listener.
  void kill(ProcessId p);

  void crash(ProcessId p) override { kill(p); }

  /// Schedules a kill at absolute host time `t` on a watchdog thread.
  void crash_at(TimePoint t, ProcessId p) override;

  /// Restarts a killed p in place (TcpProcess::restart): it dials every
  /// rank in the port table, and the survivors accept on their reactors.
  /// Call resume(p) once the new stack is built.
  void restart(ProcessId p) override { rank(p).restart(p); }
  void resume(ProcessId p) override { rank(p).resume(p); }

  /// Runs `fn` at absolute host time `t` on a watchdog thread (the same
  /// mechanism as crash_at). Call from the controlling thread only —
  /// the watchdog list is not itself thread-safe.
  void run_at(TimePoint t, std::function<void()> fn) override;

  bool crashed(ProcessId p) const override;
  std::uint32_t alive_count() const override;

  runtime::HostCounters counters() const override;

  /// Arms the same fault program on every process's outbound fault
  /// stage, windows relative to the cluster epoch (construction time).
  /// The plan survives kill/restart — a restarted incarnation rejoins
  /// the same hostile wire, like the simulator. Call before start().
  void set_fault_plan(const FaultPlan& plan);

 private:
  const TimePoint epoch_ns_;

  mutable std::mutex ports_mu_;
  std::vector<std::optional<std::uint16_t>> ports_;  // [1..n]; none: dead

  std::vector<std::unique_ptr<TcpProcess>> ranks_;  // [1..n]

  // Pending crash_at watchdogs. Declared last: their jthread destructors
  // request stop and join before anything else is torn down.
  std::vector<std::jthread> watchdogs_;
};

// ---- File-based multi-process coordination -------------------------------
//
// All helpers operate on plain files in a shared scratch directory. The
// publish primitive is write-temp-then-rename, so readers only ever see
// complete files. Polling helpers sleep a few milliseconds between
// checks; timeouts make a hung peer a test failure, not a hang.

/// Atomically publishes `name` with `contents` into `dir`.
void publish_file(const std::string& dir, const std::string& name,
                  const std::string& contents);

/// True iff `dir/name` exists.
bool file_exists(const std::string& dir, const std::string& name);

/// Publishes this rank's TCP port as `port.<rank>`.
void publish_port(const std::string& dir, ProcessId rank,
                  std::uint16_t port);

/// Reads `port.<rank>`, polling until it is present and well-formed;
/// nullopt once `deadline` passes. ibcd's PortBook lookup: dials call it
/// on every attempt, so a relaunched rank's freshly re-published port is
/// picked up mid-retry instead of hammering the dead one.
std::optional<std::uint16_t> wait_for_port(
    const std::string& dir, ProcessId rank,
    std::chrono::steady_clock::time_point deadline);

/// Enters barrier `name` as `rank` by publishing `<name>.<rank>`.
/// Idempotent — a relaunched process re-enters a barrier it already
/// passed without disturbing it.
void barrier_enter(const std::string& dir, const std::string& name,
                   ProcessId rank);

/// Waits until all of `<name>.1` .. `<name>.n` exist. False on timeout.
bool barrier_await(const std::string& dir, const std::string& name,
                   std::uint32_t n, Duration timeout);

}  // namespace ibc::net::tcp
