#include "net/tcp/tcp_process.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/assert.hpp"

namespace ibc::net::tcp {

namespace {

constexpr auto kPollInterval = std::chrono::milliseconds(5);

/// How long a restarted rank keeps redialing one peer before it counts
/// that peer as dead (catch-up needs only a majority).
constexpr auto kRedialBudget = std::chrono::seconds(3);

}  // namespace

TcpProcess::TcpProcess(ProcessId self, std::uint32_t n, PortBook ports,
                       std::uint64_t seed, TimePoint epoch_ns)
    : self_(self), n_(n), ports_(std::move(ports)) {
  IBC_REQUIRE(n >= 1 && self >= 1 && self <= n);
  const Rng root(seed);
  env_ = std::make_unique<TcpEnv>(self, n, root.fork("tcp-process", self),
                                  epoch_ns);
}

TcpProcess::~TcpProcess() { shutdown(); }

void TcpProcess::require_self(ProcessId p) const {
  IBC_REQUIRE_MSG(p == self_, "TcpProcess only hosts its own rank");
}

TcpEnv& TcpProcess::env(ProcessId p) {
  require_self(p);
  return *env_;
}

TimePoint TcpProcess::now() const { return env_->now(); }

std::vector<TcpProcess::PeerDial> TcpProcess::join_mesh(
    bool restarted, std::chrono::steady_clock::time_point deadline) {
  auto [listener, port] = listen_loopback();
  env_->adopt_listener(std::move(listener));
  ports_.publish(self_, port);
  std::vector<PeerDial> dials;
  const ProcessId last = restarted ? n_ : self_ - 1;
  for (ProcessId q = 1; q <= last; ++q) {
    if (q == self_) continue;
    DialResult dial = dial_loopback_hello(
        [this, q] { return ports_.lookup(q); }, self_,
        restarted ? std::min(deadline, std::chrono::steady_clock::now() +
                                           kRedialBudget)
                  : deadline);
    dials.push_back(PeerDial{q, dial.attempts, dial.fd.valid()});
    if (dial.fd.valid()) env_->install_peer(q, std::move(dial.fd));
  }
  return dials;
}

void TcpProcess::accept_mesh() {
  // Every dial already sits in the listen backlog with its hello
  // written, so this normally completes in one pass.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (true) {
    env_->handle_accept();
    bool linked = true;
    for (ProcessId q = 1; q <= n_; ++q) {
      if (q != self_ && !env_->peers_[q].open) linked = false;
    }
    if (linked) return;
    IBC_REQUIRE_MSG(std::chrono::steady_clock::now() < deadline,
                    "first-boot mesh never completed");
    std::this_thread::yield();
  }
}

void TcpProcess::start() {
  const std::scoped_lock lock(state_mu_);
  IBC_REQUIRE_MSG(state_ == State::kIdle, "start() is one-shot");
  state_ = State::kRunning;
  env_->start_thread();
}

void TcpProcess::shutdown() {
  {
    const std::scoped_lock lock(state_mu_);
    if (state_ == State::kShutDown) return;
    state_ = State::kShutDown;
  }
  env_->request_stop();
}

std::size_t TcpProcess::run_for(Duration d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  return 0;
}

void TcpProcess::run_on(ProcessId p, std::function<void()> fn) {
  require_self(p);
  if (env_->on_reactor()) {
    fn();  // already on the reactor: deferring would deadlock
    return;
  }
  bool run_inline = false;
  {
    const std::scoped_lock lock(state_mu_);
    if (state_ == State::kStopping || state_ == State::kCrashed) return;
    run_inline = state_ != State::kRunning;
  }
  if (run_inline) {
    // No reactor running: inline execution is race-free.
    fn();
    return;
  }
  struct DoneGate {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
  };
  // Shared: if the rank dies before running the task, the closure (and
  // gate) must outlive this frame. The reactor runs `fn` while holding
  // gate->mu, so the abandon decision below is serialized against the
  // task: once we mark it abandoned, `fn` (whose captures may reference
  // this frame) can no longer start.
  auto gate = std::make_shared<DoneGate>();
  env_->defer([fn = std::move(fn), gate] {
    std::unique_lock lock(gate->mu);
    if (gate->abandoned) return;
    fn();
    gate->done = true;
    lock.unlock();
    gate->cv.notify_one();
  });
  std::unique_lock lock(gate->mu);
  while (!gate->done) {
    // Re-check liveness periodically: a concurrent crash() or
    // shutdown() stops the reactor and the task would otherwise never
    // complete.
    gate->cv.wait_for(lock, std::chrono::milliseconds(20));
    if (gate->done) break;
    const std::scoped_lock state_lock(state_mu_);
    if (state_ != State::kRunning) {
      gate->abandoned = true;
      return;
    }
  }
}

void TcpProcess::crash(ProcessId p) {
  require_self(p);
  {
    const std::scoped_lock lock(state_mu_);
    if (state_ != State::kIdle && state_ != State::kRunning) return;
    state_ = State::kStopping;  // serializes concurrent request_stop
  }
  env_->request_stop();
  // crashed() turns true only once the reactor is joined, so a rank
  // observed crashed executes no further code — direct reads of its
  // protocol state are race-free.
  const std::scoped_lock lock(state_mu_);
  state_ = State::kCrashed;
}

void TcpProcess::restart(ProcessId p) {
  require_self(p);
  {
    const std::scoped_lock lock(state_mu_);
    IBC_REQUIRE_MSG(state_ == State::kCrashed, "restart of a live rank");
  }
  env_->reset_for_restart();
  join_mesh(/*restarted=*/true, std::chrono::steady_clock::time_point::max());
}

void TcpProcess::resume(ProcessId p) {
  require_self(p);
  {
    const std::scoped_lock lock(state_mu_);
    IBC_REQUIRE_MSG(state_ == State::kCrashed, "resume without restart");
  }
  env_->start_thread();
  const std::scoped_lock lock(state_mu_);
  state_ = State::kRunning;
}

void TcpProcess::crash_at(TimePoint, ProcessId) {
  IBC_REQUIRE_MSG(false, "TcpProcess has no cross-rank scheduler");
}

void TcpProcess::run_at(TimePoint, std::function<void()>) {
  IBC_REQUIRE_MSG(false, "TcpProcess has no cross-rank scheduler");
}

bool TcpProcess::crashed(ProcessId p) const {
  IBC_REQUIRE_MSG(p == self_,
                  "TcpProcess cannot observe remote liveness; ask the FD");
  const std::scoped_lock lock(state_mu_);
  return state_ == State::kCrashed;
}

runtime::HostCounters TcpProcess::counters() const {
  runtime::HostCounters counters;
  env_->counters().add_to(counters);
  return counters;
}

void TcpProcess::arm_fault_plan(const FaultPlan& plan) {
  bool reactor_live;
  {
    const std::scoped_lock lock(state_mu_);
    reactor_live = state_ == State::kRunning;
  }
  if (!reactor_live) {
    env_->set_fault_plan(plan, env_->now());
    return;
  }
  // The reactor owns the fault stage; hand the installation to it.
  run_on(self_, [this, plan] { env_->set_fault_plan(plan, env_->now()); });
}

void TcpProcess::write_raw_for_test(ProcessId dst, const Bytes& bytes) {
  IBC_REQUIRE(dst >= 1 && dst <= n_ && dst != self_);
  // run_on blocks until the closure ran, so capturing `bytes` by
  // reference is safe and the test observes a completed write.
  run_on(self_, [this, dst, &bytes] {
    const TcpEnv::Peer& peer = env_->peers_[dst];
    IBC_REQUIRE_MSG(peer.open && !peer.has_backlog(),
                    "raw writes need an open, idle link");
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t wrote =
          ::send(peer.fd.get(), bytes.data() + off, bytes.size() - off,
                 MSG_NOSIGNAL);
      if (wrote < 0 &&
          (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        continue;  // test writes are tiny; spinning is fine
      }
      IBC_REQUIRE(wrote > 0);
      off += static_cast<std::size_t>(wrote);
    }
  });
}

void TcpProcess::close_link_for_test(ProcessId dst) {
  IBC_REQUIRE(dst >= 1 && dst <= n_ && dst != self_);
  run_on(self_, [this, dst] { env_->close_link(dst); });
}

// ---- TcpCluster ----------------------------------------------------------

TcpCluster::TcpCluster(std::uint32_t n, std::uint64_t seed)
    : epoch_ns_(steady_now_ns()), ports_(n + 1) {
  IBC_REQUIRE(n >= 1);
  const PortBook book{
      [this](ProcessId p, std::uint16_t port) {
        const std::scoped_lock lock(ports_mu_);
        ports_[p] = port;
      },
      [this](ProcessId p) {
        const std::scoped_lock lock(ports_mu_);
        return ports_[p];
      }};
  // Ranks join in order, so every lower rank already listens: each dial
  // lands in a listen backlog at once, and the mesh is wired
  // synchronously from this thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ranks_.push_back(nullptr);  // 1-based
  for (ProcessId p = 1; p <= n; ++p) {
    ranks_.push_back(
        std::make_unique<TcpProcess>(p, n, book, seed, epoch_ns_));
    for (const TcpProcess::PeerDial& dial :
         ranks_[p]->join_mesh(/*restarted=*/false, deadline)) {
      IBC_REQUIRE_MSG(dial.connected, "initial mesh dial failed");
    }
  }
  for (ProcessId p = 1; p <= n; ++p) ranks_[p]->accept_mesh();
}

TcpCluster::~TcpCluster() { shutdown(); }

TcpProcess& TcpCluster::rank(ProcessId p) {
  IBC_REQUIRE(p >= 1 && p <= n());
  return *ranks_[p];
}

TimePoint TcpCluster::now() const { return steady_now_ns() - epoch_ns_; }

void TcpCluster::start() {
  for (ProcessId p = 1; p <= n(); ++p) ranks_[p]->start();
}

void TcpCluster::shutdown() {
  // Joining the watchdogs first guarantees no concurrent kill() below.
  watchdogs_.clear();
  for (ProcessId p = 1; p <= n(); ++p) ranks_[p]->shutdown();
}

std::size_t TcpCluster::run_for(Duration d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  return 0;
}

void TcpCluster::post(ProcessId p, std::function<void()> fn) {
  env(p).defer(std::move(fn));
}

void TcpCluster::kill(ProcessId p) {
  TcpProcess& victim = rank(p);
  {
    const std::scoped_lock lock(ports_mu_);
    ports_[p].reset();
  }
  victim.crash(p);
}

void TcpCluster::crash_at(TimePoint t, ProcessId p) {
  IBC_REQUIRE(p >= 1 && p <= n());
  run_at(t, [this, p] { kill(p); });
}

void TcpCluster::run_at(TimePoint t, std::function<void()> fn) {
  watchdogs_.emplace_back(
      [this, t, fn = std::move(fn)](const std::stop_token& st) {
        std::mutex mu;
        std::condition_variable_any cv;
        std::unique_lock lock(mu);
        const Duration delay = t - now();
        if (delay > 0) {
          cv.wait_for(lock, st, std::chrono::nanoseconds(delay),
                      [] { return false; });
        }
        if (!st.stop_requested()) fn();
      });
}

bool TcpCluster::crashed(ProcessId p) const {
  return ranks_[p]->crashed(p);
}

std::uint32_t TcpCluster::alive_count() const {
  std::uint32_t alive = 0;
  for (ProcessId p = 1; p <= n(); ++p) {
    if (!ranks_[p]->crashed(p)) ++alive;
  }
  return alive;
}

runtime::HostCounters TcpCluster::counters() const {
  runtime::HostCounters total;
  for (ProcessId p = 1; p <= n(); ++p) {
    ranks_[p]->env(p).counters().add_to(total);
  }
  return total;
}

void TcpCluster::set_fault_plan(const FaultPlan& plan) {
  // Pre-start only (each env asserts its reactor is not running):
  // windows are relative to origin 0, the cluster epoch.
  for (ProcessId p = 1; p <= n(); ++p) {
    ranks_[p]->env(p).set_fault_plan(plan, 0);
  }
}

// ---- File-based multi-process coordination -------------------------------

void publish_file(const std::string& dir, const std::string& name,
                  const std::string& contents) {
  namespace fs = std::filesystem;
  const fs::path target = fs::path(dir) / name;
  const fs::path tmp = fs::path(dir) / (".tmp." + name);
  {
    std::ofstream out(tmp, std::ios::trunc);
    IBC_REQUIRE_MSG(out.good(), "cannot write into the scratch directory");
    out << contents;
  }
  // rename(2) is atomic within a filesystem: readers see the old state
  // or the complete new file, never a torn write.
  IBC_REQUIRE(std::rename(tmp.c_str(), target.c_str()) == 0);
}

bool file_exists(const std::string& dir, const std::string& name) {
  return std::filesystem::exists(std::filesystem::path(dir) / name);
}

void publish_port(const std::string& dir, ProcessId rank,
                  std::uint16_t port) {
  publish_file(dir, "port." + std::to_string(rank), std::to_string(port));
}

namespace {

std::optional<std::uint16_t> read_port(const std::string& dir,
                                       ProcessId rank) {
  namespace fs = std::filesystem;
  const fs::path file = fs::path(dir) / ("port." + std::to_string(rank));
  std::ifstream in(file);
  unsigned value = 0;
  if (in.good() && (in >> value) && value > 0 && value <= 0xffff) {
    return static_cast<std::uint16_t>(value);
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::uint16_t> wait_for_port(
    const std::string& dir, ProcessId rank,
    std::chrono::steady_clock::time_point deadline) {
  while (true) {
    if (const std::optional<std::uint16_t> port = read_port(dir, rank)) {
      return port;
    }
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(kPollInterval);
  }
}

void barrier_enter(const std::string& dir, const std::string& name,
                   ProcessId rank) {
  publish_file(dir, name + "." + std::to_string(rank), "1");
}

bool barrier_await(const std::string& dir, const std::string& name,
                   std::uint32_t n, Duration timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
  while (true) {
    bool all = true;
    for (ProcessId rank = 1; rank <= n; ++rank) {
      if (!file_exists(dir, name + "." + std::to_string(rank))) {
        all = false;
        break;
      }
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(kPollInterval);
  }
}

}  // namespace ibc::net::tcp
