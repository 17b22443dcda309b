// Loop: a self-releasing handle for an asynchronous loop.
//
// Background work (piece copies, scrub sweeps, shard repairs, retry-until-
// healthy repairs, rolling upgrades) runs as a body that issues one step and
// arranges to run again once that step lands. The body receives its own
// handle as `again` and hands copies of it to the continuations it schedules
// (events, I/O callbacks, WhenReady waiters); it never captures itself. Only
// those pending copies keep the body and its captures alive, so the loop is
// freed when its last continuation runs without rescheduling, or is cancelled
// or dropped. A closure that captures the shared_ptr owning it is a reference
// cycle that never frees; this handle cannot form one.
#ifndef URSA_COMMON_LOOP_H_
#define URSA_COMMON_LOOP_H_

#include <functional>
#include <memory>
#include <utility>

namespace ursa {

class Loop {
 public:
  using Body = std::function<void(const Loop& again)>;

  // Wraps `body` without running it; the handle is the first continuation.
  explicit Loop(Body body) : body_(std::make_shared<Body>(std::move(body))) {}

  // Creates a loop and runs its first step now.
  static void Start(Body body) { Loop(std::move(body))(); }

  // Runs one step. The local copy keeps the body alive while it runs, even
  // when the continuation that called it is destroyed mid-step.
  void operator()() const {
    Loop self = *this;
    (*self.body_)(self);
  }

 private:
  std::shared_ptr<Body> body_;
};

}  // namespace ursa

#endif  // URSA_COMMON_LOOP_H_
