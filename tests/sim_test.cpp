// Discrete-event simulation core tests: ordering, ties, cancellation,
// run_until semantics, FIFO lanes, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "sim/simulation.hpp"

namespace loki::sim {
namespace {

TEST(Simulation, ProcessesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&]() { order.push_back(3); });
  sim.schedule_at(1.0, [&]() { order.push_back(1); });
  sim.schedule_at(2.0, [&]() { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulation, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i]() { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, NowAdvancesToEventTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(7.5, [&]() { seen = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&]() {
    sim.schedule_after(1.5, [&]() { seen = sim.now(); });
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(Simulation, RunUntilStopsAndSetsNow) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&]() { ++fired; });
  sim.schedule_at(5.0, [&]() { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  int fired = 0;
  auto id = sim.schedule_at(1.0, [&]() { ++fired; });
  sim.schedule_at(2.0, [&]() { ++fired; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int fired = 0;
  auto id = sim.schedule_at(1.0, [&]() { ++fired; });
  sim.run_all();
  EXPECT_NO_THROW(sim.cancel(id));
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelInvalidIdIsNoop) {
  Simulation sim;
  EXPECT_NO_THROW(sim.cancel(Simulation::EventId{}));
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(5.0, []() {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(1.0, []() {}), loki::CheckFailure);
}

TEST(Simulation, EventsCanScheduleEarlierThanPending) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(10.0, [&]() { order.push_back(10); });
  sim.schedule_at(1.0, [&]() {
    order.push_back(1);
    sim.schedule_at(2.0, [&]() { order.push_back(2); });
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10}));
}

TEST(Simulation, PendingCount) {
  Simulation sim;
  auto a = sim.schedule_at(1.0, []() {});
  sim.schedule_at(2.0, []() {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(0.0, []() {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunUntilDoesNotFirePastEndOverCancelledHead) {
  // Regression: a cancelled entry at the queue head with t <= t_end must not
  // make run_until execute the *next* event when that event lies past t_end.
  Simulation sim;
  int fired_at_5 = 0;
  auto id = sim.schedule_at(1.0, []() {});
  sim.schedule_at(5.0, [&]() { ++fired_at_5; });
  sim.cancel(id);
  sim.run_until(3.0);
  EXPECT_EQ(fired_at_5, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(6.0);
  EXPECT_EQ(fired_at_5, 1);
}

TEST(Simulation, RunUntilPurgesCancelledHeads) {
  // Cancelled entries at or before t_end are dropped from the heap by
  // run_until even when no live event fires.
  Simulation sim;
  std::vector<Simulation::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_at(1.0 + i, []() {}));
  }
  for (const auto& id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_until(20.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.processed(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(Simulation, MassCancellationDoesNotAccumulateTombstones) {
  // A rearmed-timeout workload: schedule far-future events and cancel them
  // immediately. The heap must compact instead of growing without bound,
  // and live events must keep firing in order.
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1e6, [&]() { ++fired; });
  for (int i = 0; i < 10000; ++i) {
    auto id = sim.schedule_at(1e5 + i, []() {});
    sim.cancel(id);
    EXPECT_EQ(sim.pending(), 1u);
  }
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.processed(), 1u);
}

TEST(Simulation, RescheduleMovesEventWithoutCallbackChurn) {
  Simulation sim;
  std::vector<double> fired;
  const auto id = sim.schedule_at(1.0, [&]() { fired.push_back(sim.now()); });
  EXPECT_TRUE(sim.reschedule(id, 5.0));  // push the timer out
  sim.schedule_at(2.0, [&]() { fired.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 2.0);
  EXPECT_DOUBLE_EQ(fired[1], 5.0);  // fired at the new time, once
}

TEST(Simulation, RescheduleTiesAfterEventsAlreadyAtTargetTime) {
  // A rescheduled event is ordered as if freshly scheduled: it gets a new
  // sequence number, so it ties *after* events already sitting at `t`.
  Simulation sim;
  std::vector<int> order;
  const auto id = sim.schedule_at(1.0, [&]() { order.push_back(0); });
  sim.schedule_at(3.0, [&]() { order.push_back(1); });
  sim.reschedule(id, 3.0);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Simulation, RescheduleAfterFireOrCancelReturnsFalse) {
  Simulation sim;
  int fired = 0;
  const auto a = sim.schedule_at(1.0, [&]() { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.reschedule(a, 2.0));  // already fired
  sim.run_all();
  EXPECT_EQ(fired, 1);  // nothing re-armed

  const auto b = sim.schedule_at(3.0, [&]() { ++fired; });
  sim.cancel(b);
  EXPECT_FALSE(sim.reschedule(b, 4.0));  // already cancelled
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, RearmedTimerWorkloadStaysExact) {
  // The pattern reschedule() exists for: a timeout pushed out on every
  // "request" so it only fires when requests stop coming.
  Simulation sim;
  int timeouts = 0;
  const auto timer = sim.schedule_at(0.5, [&]() { ++timeouts; });
  for (int i = 1; i <= 100; ++i) {
    const double t = 0.01 * i;
    sim.schedule_at(t, [&sim, timer, t]() {
      EXPECT_TRUE(sim.reschedule(timer, t + 0.5));
    });
  }
  sim.run_all();
  EXPECT_EQ(timeouts, 1);
  EXPECT_NEAR(sim.now(), 1.5, 1e-9);  // last re-arm at t=1.0 fires at 1.5
}

TEST(Simulation, HeavySelfSchedulingIsStable) {
  // A self-rescheduling periodic event plus churn: counts must be exact.
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    if (ticks < 1000) sim.schedule_after(0.001, tick);
  };
  sim.schedule_at(0.0, tick);
  sim.run_all();
  EXPECT_EQ(ticks, 1000);
  EXPECT_NEAR(sim.now(), 0.999, 1e-9);
}

// ---------------------------------------------------------------------------
// FIFO lanes
// ---------------------------------------------------------------------------

TEST(SimulationLane, LaneAndHeapEventsAtEqualTimeFireInScheduleOrder) {
  Simulation sim;
  const auto lane = sim.add_lane("hop");
  std::vector<int> order;
  sim.push(lane, 1.0, [&]() { order.push_back(0); });
  sim.schedule_at(1.0, [&]() { order.push_back(1); });
  sim.push(lane, 1.0, [&]() { order.push_back(2); });
  sim.schedule_at(1.0, [&]() { order.push_back(3); });
  sim.schedule_at(0.5, [&]() { order.push_back(-1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
  EXPECT_EQ(sim.lane_stats(lane).fired, 2u);
  EXPECT_EQ(sim.lane_stats(lane).fallbacks, 0u);
  EXPECT_EQ(sim.lane_stats(lane).name, "hop");
}

TEST(SimulationLane, OutOfOrderPushFallsBackToTheHeapInOrder) {
  Simulation sim;
  const auto lane = sim.add_lane("hop");
  std::vector<double> fired;
  const auto record = [&]() { fired.push_back(sim.now()); };
  sim.push(lane, 3.0, record);
  sim.push(lane, 2.0, record);  // earlier than the lane's last push
  sim.push(lane, 3.0, record);  // still in order for the lane
  sim.schedule_at(2.5, record);
  EXPECT_EQ(sim.lane_stats(lane).fallbacks, 1u);
  EXPECT_EQ(sim.pending(), 4u);
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 2.5, 3.0, 3.0}));
  EXPECT_EQ(sim.lane_stats(lane).fired, 2u);  // the fallback fired off-lane
  EXPECT_EQ(sim.processed(), 4u);
}

TEST(SimulationLane, CallbackPushesOntoItsOwnLaneWhileTheRingGrows) {
  // Every callback pushes two more entries, so the ring grows (and moves
  // its entries) while a callback taken from it is running. The callback
  // owns a non-trivial capture that must survive the move.
  Simulation sim;
  const auto lane = sim.add_lane("pump");
  std::vector<std::string> fired;
  int next = 0;
  std::function<void(std::string)> spawn = [&](std::string tag) {
    sim.push(lane, sim.now() + 0.001, [&, tag]() {
      fired.push_back(tag);
      if (next < 200) {
        spawn("e" + std::to_string(++next));
        spawn("e" + std::to_string(++next));
      }
    });
  };
  spawn("root");
  sim.run_all();
  ASSERT_EQ(fired.size(), 201u);
  EXPECT_EQ(fired.front(), "root");
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], "e" + std::to_string(i));  // FIFO, breadth first
  }
  EXPECT_EQ(sim.lane_stats(lane).fired, 201u);
  EXPECT_EQ(sim.lane_stats(lane).fallbacks, 0u);
}

TEST(SimulationLane, RunUntilStopsBeforeALaneEventPastTheEnd) {
  Simulation sim;
  const auto lane = sim.add_lane("hop");
  int fired = 0;
  sim.push(lane, 1.0, [&]() { ++fired; });
  sim.push(lane, 5.0, [&]() { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(5.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationLane, PendingAndProcessedCountLaneEvents) {
  Simulation sim;
  const auto a = sim.add_lane("a");
  const auto b = sim.add_lane("b");
  sim.push(a, 1.0, []() {});
  sim.push(b, 2.0, []() {});
  sim.push_after(b, 2.0, []() {});
  sim.schedule_at(1.5, []() {});
  EXPECT_EQ(sim.num_lanes(), 2u);
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_EQ(sim.processed(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.processed(), 4u);
  EXPECT_EQ(sim.lane_stats(a).fired, 1u);
  EXPECT_EQ(sim.lane_stats(b).fired, 2u);
  EXPECT_FALSE(sim.step());
}

TEST(SimulationLane, LazilyRekeyedHeapRootOrdersAgainstALaneFront) {
  // reschedule() to a later time leaves the root's old key in the heap and
  // re-keys it only when it surfaces. That stale key must not let the
  // event fire ahead of a lane front it now follows.
  Simulation sim;
  const auto lane = sim.add_lane("hop");
  std::vector<int> order;
  const auto late = sim.schedule_at(1.0, [&]() { order.push_back(0); });
  ASSERT_TRUE(sim.reschedule(late, 3.0));  // deferred: the root still says 1
  sim.push(lane, 2.0, [&]() { order.push_back(1); });
  sim.push(lane, 3.0, [&]() { order.push_back(2); });  // ties after the rekey
  const auto tied = sim.schedule_at(1.0, [&]() { order.push_back(3); });
  sim.push(lane, 4.0, [&]() { order.push_back(4); });
  ASSERT_TRUE(sim.reschedule(tied, 4.0));  // ties after the lane push at 4
  sim.run_until(2.5);
  EXPECT_EQ(order, (std::vector<int>{1}));
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 4, 3}));
}

TEST(SimulationLane, RandomMixFiresInReferenceOrder) {
  // A seeded mix of heap schedules, in-order and out-of-order lane pushes,
  // cancels and reschedules (both directions), interleaved with run_until.
  // The reference is the specification: every live event fires in order of
  // (time, order of the schedule/push/reschedule call that set that time).
  Simulation sim;
  const Simulation::LaneId lanes[] = {sim.add_lane("a"), sim.add_lane("b")};
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };

  struct Ref {
    double t;
    std::uint64_t order;
    int tag;
    bool live;
    Simulation::EventId id;  // heap events only
  };
  std::vector<Ref> refs;
  std::vector<int> fired;
  std::uint64_t calls = 0;
  double lane_last[2] = {0.0, 0.0};
  std::uint64_t expected_fallbacks = 0;

  for (int round = 0; round < 60; ++round) {
    for (int op = 0; op < 40; ++op) {
      // Quarter-second grid: plenty of exact ties.
      const double t = sim.now() + 0.25 * static_cast<double>(pick(24));
      const int tag = static_cast<int>(refs.size());
      const auto cb = [&fired, tag]() { fired.push_back(tag); };
      const std::uint64_t kind = pick(10);
      if (kind < 3) {
        refs.push_back({t, calls++, tag, true, sim.schedule_at(t, cb)});
      } else if (kind < 7) {
        const std::size_t l = pick(2);
        // Mostly in order for the lane; sometimes behind it.
        const double lt = pick(4) == 0 ? t : std::max(t, lane_last[l]);
        if (lt < lane_last[l]) ++expected_fallbacks;
        lane_last[l] = std::max(lane_last[l], lt);
        sim.push(lanes[l], lt, cb);
        refs.push_back({lt, calls++, tag, true, {}});
      } else {
        // Cancel or reschedule a random live heap event, if any.
        std::vector<std::size_t> heap_live;
        for (std::size_t i = 0; i < refs.size(); ++i) {
          if (refs[i].live && refs[i].id.valid()) heap_live.push_back(i);
        }
        if (heap_live.empty()) continue;
        Ref& r = refs[heap_live[pick(heap_live.size())]];
        if (kind == 7) {
          sim.cancel(r.id);
          r.live = false;
        } else {
          ASSERT_TRUE(sim.reschedule(r.id, t));
          r.t = t;
          r.order = calls++;
        }
      }
    }
    const double t_end = sim.now() + 0.25 * static_cast<double>(pick(12));
    std::vector<Ref> due;
    for (Ref& r : refs) {
      if (r.live && r.t <= t_end) {
        due.push_back(r);
        r.live = false;
      }
    }
    std::sort(due.begin(), due.end(), [](const Ref& a, const Ref& b) {
      return std::tie(a.t, a.order) < std::tie(b.t, b.order);
    });
    fired.clear();
    sim.run_until(t_end);
    std::vector<int> want;
    for (const Ref& r : due) want.push_back(r.tag);
    ASSERT_EQ(fired, want) << "round " << round;
  }
  std::size_t live = 0;
  for (const Ref& r : refs) live += r.live ? 1 : 0;
  EXPECT_EQ(sim.pending(), live);
  EXPECT_EQ(sim.lane_stats(lanes[0]).fallbacks +
                sim.lane_stats(lanes[1]).fallbacks,
            expected_fallbacks);
  EXPECT_GT(expected_fallbacks, 0u);
}

}  // namespace
}  // namespace loki::sim
