// Request/response helpers over the active-message transport.
//
// PendingCall wraps a continuation with exactly-once semantics plus an
// optional timeout: whichever of {reply, timeout} fires first wins, the loser
// becomes a no-op. Replication's hybrid fault model (§4.1) relies on this —
// the client commits on majority-after-timeout but a straggler's late reply
// must not double-complete the write.
#ifndef URSA_NET_RPC_H_
#define URSA_NET_RPC_H_

#include <functional>
#include <memory>
#include <utility>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace ursa::net {

class PendingCall {
  struct Key {
    explicit Key() = default;
  };

 public:
  using Callback = std::function<void(const Status&)>;

  // Only Start can name the key; public so make_shared can construct.
  PendingCall(Key, Callback done) : done_(std::move(done)) {}

  // Creates a pending call; if `timeout` > 0 and no reply arrives within it,
  // `done` fires with kTimedOut.
  static std::shared_ptr<PendingCall> Start(sim::Simulator* sim, Nanos timeout, Callback done) {
    auto call = std::make_shared<PendingCall>(Key{}, std::move(done));
    if (timeout > 0) {
      // The timeout holds a STRONG reference: a crashed server silently drops
      // the request, and if every other reference dies with the dropped
      // message the timeout must still fire to fail the call.
      call->timeout_event_ = sim->After(timeout, [call]() {
        call->Complete(TimedOut("rpc timeout"));
      });
      call->sim_ = sim;
      call->has_timeout_ = true;
    }
    return call;
  }

  // Completes the call (idempotent; later invocations are ignored).
  void Complete(const Status& status) {
    if (completed_) {
      return;
    }
    completed_ = true;
    if (has_timeout_) {
      sim_->Cancel(timeout_event_);
    }
    done_(status);
  }

  bool completed() const { return completed_; }

 private:
  Callback done_;
  bool completed_ = false;
  bool has_timeout_ = false;
  sim::Simulator* sim_ = nullptr;
  sim::EventId timeout_event_ = 0;
};

// Counts replies toward quorum/all-success decisions (§4.1 step 6):
// commits when all `total` replies succeed, or — after `Arm()`ed timeout —
// when at least `majority` have succeeded. Reports failure when success can
// no longer be reached.
class QuorumTracker {
 public:
  using Decision = std::function<void(const Status&, int successes, int failures)>;

  QuorumTracker(int total, int majority, Decision decision)
      : total_(total), majority_(majority), decision_(std::move(decision)) {}

  void RecordSuccess() {
    ++successes_;
    Evaluate(false);
  }
  void RecordFailure() {
    ++failures_;
    Evaluate(false);
  }
  // Invoked when the commit timeout expires: majority suffices from now on.
  void TimeoutExpired() {
    timed_out_ = true;
    Evaluate(true);
  }

  bool decided() const { return decided_; }
  int successes() const { return successes_; }
  int failures() const { return failures_; }

 private:
  void Evaluate(bool /*from_timeout*/) {
    if (decided_) {
      return;
    }
    if (successes_ == total_) {
      decided_ = true;
      decision_(OkStatus(), successes_, failures_);
    } else if (timed_out_ && successes_ >= majority_) {
      decided_ = true;
      decision_(OkStatus(), successes_, failures_);
    } else if (total_ - failures_ < majority_) {
      // Even if every outstanding reply succeeds, majority is unreachable.
      decided_ = true;
      decision_(Unavailable("replication quorum failed"), successes_, failures_);
    }
    // Otherwise wait: either more replies arrive, or the commit timeout
    // authorizes a majority commit (write-to-all first, §4.1).
  }

  int total_;
  int majority_;
  Decision decision_;
  int successes_ = 0;
  int failures_ = 0;
  bool timed_out_ = false;
  bool decided_ = false;
};

}  // namespace ursa::net

#endif  // URSA_NET_RPC_H_
