// Link-fault stage for the real TCP transport.
//
// The simulator applies a `net::FaultPlan` the instant a message leaves
// the sender's NIC (SimNetwork::leave_nic). On the TCP host the
// equivalent boundary is the moment a frame would join a peer's writev
// queue: `LinkFaultStage::decide` is consulted there, on the reactor
// thread, and classifies each outbound frame as forward / drop / hold /
// delay — whole frames only, so the receiver's length-prefixed framing
// never sees a torn adversary cut.
//
// Semantics mirror the simulator pass for pass:
//   kPartition      hold the frame until the earliest heal among the
//                   cuts covering the link; the release re-runs the
//                   checkpoint (another cut may be active by then).
//   kPartitionDrop  / kDrop: discard (probabilistic for kDrop).
//   kDelay/kReorder extra latency, summed over matching events; the
//                   frame re-enters the queue after the delay, so later
//                   frames overtake it — on a real stream this IS
//                   reordering.
//   kDuplicate      at most one extra copy, taking the same extra delay.
//
// The plan's [from, until) windows are relative to `origin`: the epoch
// a TcpCluster's ranks share, or the arming instant of an ibcd rank.
// Randomness comes from a dedicated adversary stream, exactly like
// SimNetwork's fork: an empty plan means the stage does not exist and
// the clean send path is a single null-pointer check.
#pragma once

#include "net/faults.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ibc::net::tcp {

class LinkFaultStage {
 public:
  struct Decision {
    enum class Action {
      kForward,  // enqueue now
      kDrop,     // discard the frame
      kHold,     // park until `release`, then re-run the checkpoint
      kDelay,    // park until `release`, then enqueue without re-check
    };
    Action action = Action::kForward;
    TimePoint release = 0;   // absolute env time (kHold / kDelay only)
    bool duplicate = false;  // kForward / kDelay: enqueue a second copy
  };

  LinkFaultStage(FaultPlan plan, TimePoint origin, Rng adv_rng)
      : plan_(std::move(plan)), origin_(origin), rng_(adv_rng) {}

  /// Classifies one outbound frame on link src -> dst at env time `now`.
  Decision decide(ProcessId src, ProcessId dst, TimePoint now);

  const FaultPlan& plan() const { return plan_; }
  TimePoint origin() const { return origin_; }

 private:
  FaultPlan plan_;
  TimePoint origin_;
  Rng rng_;
};

}  // namespace ibc::net::tcp
