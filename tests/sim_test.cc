// Unit tests for the discrete-event simulator core.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/loop.h"
#include "src/common/rng.h"
#include "src/sim/event_queue.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace ursa::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&]() { fired.push_back(3); });
  q.Schedule(10, [&]() { fired.push_back(1); });
  q.Schedule(20, [&]() { fired.push_back(2); });
  while (!q.empty()) {
    Nanos when = 0;
    q.PopNext(&when)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&fired, i]() { fired.push_back(i); });
  }
  while (!q.empty()) {
    Nanos when = 0;
    q.PopNext(&when)();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(10, [&]() { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(10, [&]() { fired.push_back(1); });
  EventId id = q.Schedule(20, [&]() { fired.push_back(2); });
  q.Schedule(30, [&]() { fired.push_back(3); });
  q.Cancel(id);
  while (!q.empty()) {
    Nanos when = 0;
    q.PopNext(&when)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, SlotReuseDoesNotAliasIds) {
  // After a cancel frees a slot, a new event reuses it with a bumped
  // generation: the stale id must not cancel (or fire as) the new event.
  EventQueue q;
  bool old_fired = false;
  bool new_fired = false;
  EventId stale = q.Schedule(10, [&]() { old_fired = true; });
  EXPECT_TRUE(q.Cancel(stale));
  EventId fresh = q.Schedule(10, [&]() { new_fired = true; });
  EXPECT_FALSE(q.Cancel(stale));  // stale generation: must miss
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) {
    Nanos when = 0;
    q.PopNext(&when)();
  }
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
  EXPECT_FALSE(q.Cancel(fresh));  // already fired
}

TEST(EventQueueTest, CancelRescheduleStress) {
  // Deterministic stress over the tombstone path: random interleaving of
  // schedules, cancels, and pops, checked against a reference model keyed by
  // a unique payload per event.
  EventQueue q;
  uint64_t state = 0x853C49E6748FEA9Bull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::map<uint64_t, EventId> live;   // payload -> id
  std::set<uint64_t> fired;           // payloads observed firing
  std::set<uint64_t> expected_fired;  // payloads never cancelled
  std::vector<uint64_t> results;
  uint64_t payload_gen = 0;

  for (int step = 0; step < 20000; ++step) {
    uint64_t r = next() % 100;
    if (r < 55 || live.empty()) {
      uint64_t payload = ++payload_gen;
      Nanos when = static_cast<Nanos>(next() % 1000);
      live[payload] = q.Schedule(when, [payload, &fired]() { fired.insert(payload); });
    } else if (r < 80) {
      // Cancel a pseudo-random live event.
      auto it = live.begin();
      std::advance(it, static_cast<long>(next() % live.size()));
      EXPECT_TRUE(q.Cancel(it->second));
      EXPECT_FALSE(q.Cancel(it->second));  // double-cancel is a miss
      live.erase(it);
    } else if (!q.empty()) {
      Nanos when = 0;
      EventFn fn = q.PopNext(&when);
      fn();
      // Whichever payload just fired was live (not cancelled): retire it.
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (fired.count(it->first) && !expected_fired.count(it->first)) {
          expected_fired.insert(it->first);
          live.erase(it);
          break;
        }
      }
    }
    EXPECT_EQ(q.size(), live.size()) << "step " << step;
  }
  // Drain: everything still live fires exactly once; cancelled events never do.
  while (!q.empty()) {
    Nanos when = 0;
    q.PopNext(&when)();
  }
  for (const auto& [payload, id] : live) {
    EXPECT_TRUE(fired.count(payload)) << "live event " << payload << " lost";
  }
  EXPECT_EQ(fired.size(), expected_fired.size() + live.size());
}

TEST(EventQueueTest, MatchesOrderedModelThroughCancelStorms) {
  // Random schedule/cancel/pop mixes checked against a reference ordered
  // map on (when, seq): every pop must fire the model's minimum. Storms
  // schedule a burst of far-future timeouts and cancel them all, the way
  // completed RPCs cancel theirs; the bound on resident heap entries holds
  // after every operation only because the queue compacts tombstones.
  EventQueue q;
  Rng rng(20260);
  std::map<std::pair<Nanos, uint64_t>, EventId> model;  // (when, seq) -> id
  std::vector<std::pair<Nanos, uint64_t>> pending;      // for random cancels
  std::unordered_map<uint64_t, size_t> slot_of;         // seq -> index in pending
  uint64_t next_seq = 0;
  uint64_t fired_seq = UINT64_MAX;
  Nanos now = 0;

  auto schedule = [&](Nanos when) {
    const uint64_t seq = next_seq++;
    model[{when, seq}] = q.Schedule(when, [seq, &fired_seq]() { fired_seq = seq; });
    slot_of[seq] = pending.size();
    pending.emplace_back(when, seq);
  };
  auto forget = [&](const std::pair<Nanos, uint64_t>& key) {
    const size_t i = slot_of[key.second];
    pending[i] = pending.back();
    slot_of[pending[i].second] = i;
    pending.pop_back();
    slot_of.erase(key.second);
    model.erase(key);
  };
  auto cancel = [&](size_t i) {
    const std::pair<Nanos, uint64_t> key = pending[i];
    ASSERT_TRUE(q.Cancel(model.at(key)));
    EXPECT_FALSE(q.Cancel(model.at(key)));
    forget(key);
  };
  auto pop = [&]() {
    Nanos when = -1;
    q.PopNext(&when)();
    const std::pair<Nanos, uint64_t> expect = model.begin()->first;
    ASSERT_EQ(when, expect.first);
    ASSERT_EQ(fired_seq, expect.second);
    now = when;
    forget(expect);
  };

  size_t peak_resident = 0;
  for (int step = 0; step < 60000; ++step) {
    const uint64_t r = rng.Uniform(1000);
    if (r < 500 || model.empty()) {
      schedule(now + static_cast<Nanos>(rng.Uniform(2000)));  // frequent ties
    } else if (r < 740) {
      cancel(static_cast<size_t>(rng.Uniform(pending.size())));
    } else if (r < 995) {
      pop();
    } else {
      std::vector<uint64_t> storm;
      for (int i = 0; i < 400; ++i) {
        storm.push_back(next_seq);
        schedule(now + msec(800));
      }
      for (uint64_t seq : storm) {
        cancel(slot_of.at(seq));
      }
    }
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
    ASSERT_LE(q.resident(), 2 * q.size() + EventQueue::kCompactSlack) << "step " << step;
    peak_resident = std::max(peak_resident, q.resident());
  }
  EXPECT_GT(peak_resident, 400u);  // the storms did fill the heap
  while (!model.empty()) {
    pop();
    ASSERT_LE(q.resident(), 2 * q.size() + EventQueue::kCompactSlack);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SimulatorTest, ClockAdvances) {
  Simulator sim;
  Nanos seen = -1;
  sim.After(usec(5), [&]() { seen = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, usec(5));
  EXPECT_EQ(sim.Now(), usec(5));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) {
      sim.After(100, recurse);
    }
  };
  sim.After(0, recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 900);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.After(i * 100, [&]() { ++fired; });
  }
  sim.RunUntil(500);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 500);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(msec(5));
  EXPECT_EQ(sim.Now(), msec(5));
}

TEST(ResourceTest, SerializesOnSingleServer) {
  Simulator sim;
  Resource r(&sim, "disk", 1);
  std::vector<Nanos> completions;
  for (int i = 0; i < 3; ++i) {
    r.Submit(100, [&]() { completions.push_back(sim.Now()); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(completions, (std::vector<Nanos>{100, 200, 300}));
}

TEST(ResourceTest, ParallelServers) {
  Simulator sim;
  Resource r(&sim, "cpu", 4);
  std::vector<Nanos> completions;
  for (int i = 0; i < 4; ++i) {
    r.Submit(100, [&]() { completions.push_back(sim.Now()); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(completions, (std::vector<Nanos>(4, 100)));
}

TEST(ResourceTest, UtilizationAccounting) {
  Simulator sim;
  Resource r(&sim, "cpu", 2);
  r.Submit(usec(100), nullptr);
  r.Submit(usec(100), nullptr);
  sim.RunToCompletion();
  // Both servers busy for the whole 100 us window: utilization = 2.0 cores.
  EXPECT_EQ(r.busy_time(), 2 * usec(100));
  EXPECT_NEAR(r.Utilization(), 2.0, 1e-9);
  EXPECT_EQ(r.completed_jobs(), 2u);
}

TEST(ResourceTest, FifoOrder) {
  Simulator sim;
  Resource r(&sim, "q", 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    r.Submit(10, [&order, i]() { order.push_back(i); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, ResubmitFromCompletionContinues) {
  Simulator sim;
  Resource r(&sim, "loop", 1);
  int count = 0;
  std::function<void()> again = [&]() {
    if (++count < 5) {
      r.Submit(10, again);
    }
  };
  r.Submit(10, again);
  sim.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(ResourceTest, DestroyedResourceReleasesItsJobs) {
  // The resource owns the callbacks of its queued and in-service jobs: the
  // in-service job's event captures only an index into the resource.
  Simulator sim;
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  auto r = std::make_unique<Resource>(&sim, "disk", 1);
  r->Submit(100, [sentinel]() {});  // in service
  r->Submit(100, [sentinel]() {});  // queued behind it
  sentinel.reset();
  EXPECT_FALSE(watch.expired());
  r.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(ResourceTest, CompletedJobsReleaseTheirCallbacks) {
  Simulator sim;
  Resource r(&sim, "cpu", 2);
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    r.Submit(10, [sentinel, &ran]() { ++ran; });
  }
  sentinel.reset();
  sim.RunToCompletion();
  EXPECT_EQ(ran, 5);
  EXPECT_TRUE(watch.expired());
}

TEST(LoopTest, RunsUntilDoneThenReleasesItsCaptures) {
  Simulator sim;
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  int steps = 0;
  Loop::Start([&sim, &steps, sentinel](const Loop& again) {
    if (++steps < 4) {
      sim.After(10, again);
    }
  });
  sentinel.reset();
  EXPECT_EQ(steps, 1);
  EXPECT_FALSE(watch.expired());  // the pending event holds the loop
  sim.RunToCompletion();
  EXPECT_EQ(steps, 4);
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_TRUE(watch.expired());
}

TEST(LoopTest, AbandonedLoopIsReleasedWhenItsPendingEventIsCancelled) {
  Simulator sim;
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  EventId pending = 0;
  int steps = 0;
  Loop::Start([&sim, &pending, &steps, sentinel](const Loop& again) {
    ++steps;
    pending = sim.After(10, again);
  });
  sentinel.reset();
  sim.RunUntil(25);
  EXPECT_EQ(steps, 3);
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.Cancel(pending));
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(sim.idle());
}

TEST(LoopTest, UnstartedLoopRunsWhenScheduled) {
  Simulator sim;
  int steps = 0;
  Loop loop([&steps](const Loop&) { ++steps; });
  sim.After(5, std::move(loop));
  EXPECT_EQ(steps, 0);
  sim.RunToCompletion();
  EXPECT_EQ(steps, 1);
}

}  // namespace
}  // namespace ursa::sim
