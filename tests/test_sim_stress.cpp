// Randomized stress/property tests for the event kernel: heavy interleaving
// of scheduling, cancellation and re-entrant event creation must preserve
// the two kernel invariants — monotone fire times and FIFO tie-breaking —
// and the sorted arrival lane must fire exactly like its per-event
// reference.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace eas::sim {
namespace {

class SimStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimStressTest, FireTimesAreMonotoneUnderRandomChurn) {
  util::Rng rng(GetParam());
  Simulator sim;
  std::vector<double> fired_at;
  std::vector<EventHandle> handles;

  // Seed events.
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    handles.push_back(sim.schedule_at(t, [&fired_at, &sim] {
      fired_at.push_back(sim.now());
    }));
  }
  // Random cancellations.
  for (int i = 0; i < 60; ++i) {
    sim.cancel(handles[rng.next_below(handles.size())]);
  }
  // Re-entrant churn: some events spawn children and cancel peers.
  for (int i = 0; i < 50; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    sim.schedule_at(t, [&, i] {
      fired_at.push_back(sim.now());
      if (i % 3 == 0) {
        sim.schedule_in(rng.uniform(0.0, 10.0),
                        [&fired_at, &sim] { fired_at.push_back(sim.now()); });
      }
      if (i % 4 == 0 && !handles.empty()) {
        sim.cancel(handles[i % handles.size()]);
      }
    });
  }

  sim.run();
  for (std::size_t i = 1; i < fired_at.size(); ++i) {
    ASSERT_LE(fired_at[i - 1], fired_at[i]) << "at event " << i;
  }
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_P(SimStressTest, CancelledEventsNeverFireAndLiveOnesAlwaysDo) {
  util::Rng rng(GetParam() + 1000);
  Simulator sim;
  const int n = 300;
  std::vector<int> fired(n, 0);
  std::vector<EventHandle> handles;
  for (int i = 0; i < n; ++i) {
    handles.push_back(
        sim.schedule_at(rng.uniform(0.0, 50.0), [&fired, i] { ++fired[i]; }));
  }
  std::vector<bool> cancelled(n, false);
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.4)) cancelled[i] = sim.cancel(handles[i]);
  }
  sim.run();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(fired[i], cancelled[i] ? 0 : 1) << "event " << i;
  }
}

TEST_P(SimStressTest, FifoWithinIdenticalTimestamps) {
  util::Rng rng(GetParam() + 2000);
  Simulator sim;
  // A handful of distinct timestamps, many events each.
  const double times[] = {1.0, 2.0, 2.0, 3.5};
  std::vector<std::pair<double, int>> order;
  int seq = 0;
  for (int round = 0; round < 100; ++round) {
    const double t = times[rng.next_below(4)];
    const int my_seq = seq++;
    sim.schedule_at(t, [&order, t, my_seq] { order.push_back({t, my_seq}); });
  }
  sim.run();
  // Within each timestamp, sequence numbers must be increasing.
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i - 1].first == order[i].first) {
      EXPECT_LT(order[i - 1].second, order[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimStressTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// 100k-operation churn through the slot pool: schedule, cancel, and fire in
// random proportions while asserting after every phase that the indexed heap
// and the slot bookkeeping agree (queue_depth() counts heap entries,
// pending_count() counts live slots — a leaked tombstone or a double-freed
// slot breaks the equality).
TEST(SimStress, HeapAndSlotPoolStayInSyncOver100kOps) {
  util::Rng rng(0xea50123);
  Simulator sim;
  std::vector<EventHandle> live;
  std::size_t expected_pending = 0;
  std::size_t fired = 0;

  for (int op = 0; op < 100000; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.55 || live.empty()) {
      live.push_back(
          sim.schedule_in(rng.uniform(0.0, 10.0), [&fired] { ++fired; }));
      ++expected_pending;
    } else if (dice < 0.85) {
      // Cancel a random handle; it may already have been cancelled or fired,
      // in which case cancel() must report false and change nothing.
      const std::size_t pick = rng.next_below(live.size());
      if (sim.cancel(live[pick])) --expected_pending;
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::size_t before = sim.pending_count();
      if (sim.step()) --expected_pending;
      ASSERT_EQ(sim.pending_count(), before == 0 ? 0 : before - 1);
    }
    ASSERT_EQ(sim.queue_depth(), sim.pending_count()) << "op " << op;
    ASSERT_EQ(sim.pending_count(), expected_pending) << "op " << op;
  }
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.queue_depth(), 0u);
}

// Slot recycling mints a fresh generation, so a handle kept across a
// cancel/fire + re-schedule must be rejected instead of killing the new
// occupant of the slot.
TEST(SimStress, RecycledSlotRejectsStaleHandles) {
  Simulator sim;
  int first = 0, second = 0;

  // Recycle via cancel: h1's slot is freed, h2 reuses it.
  const EventHandle h1 = sim.schedule_at(1.0, [&first] { ++first; });
  ASSERT_TRUE(sim.cancel(h1));
  const EventHandle h2 = sim.schedule_at(2.0, [&second] { ++second; });
  EXPECT_FALSE(sim.cancel(h1)) << "stale handle cancelled the recycled slot";
  EXPECT_EQ(sim.pending_count(), 1u);

  // Recycle via fire: after h2 fires, h3 reuses the slot; both old handles
  // must still be dead.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(second, 1);
  const EventHandle h3 = sim.schedule_at(3.0, [&first] { ++first; });
  EXPECT_FALSE(sim.cancel(h1));
  EXPECT_FALSE(sim.cancel(h2));
  EXPECT_TRUE(sim.cancel(h3));
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(first, 0);

  // A default handle is never valid.
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(SimStress, DeepReentrantChainTerminates) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10000) sim.schedule_in(0.0, chain);
  };
  sim.schedule_at(0.0, chain);
  EXPECT_EQ(sim.run(), 10000u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // zero-delay chain stays at t=0
}

// --- Sorted arrival lane vs. its retained reference --------------------------
//
// schedule_lane must be observationally identical to one schedule_at per
// arrival in index order (how trace replay scheduled arrivals before the
// lane; kept here as the oracle). One random script drives two simulators
// in lockstep — one replays the arrivals through the lane, the other through
// per-event schedule_at — and after every step or run_until boundary the two
// must agree on the fire sequence, the clock, events_fired(),
// pending_count(), queue_depth() and next_event_time().

/// Non-decreasing arrival times on a 0.25 s grid starting at `start`, with
/// ~30% duplicates, so lane ties (with each other and with dynamic events
/// on the same grid) are common.
std::vector<double> lane_times(util::Rng& g, double start, std::size_t n) {
  std::vector<double> out;
  double t = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (!g.bernoulli(0.3)) t += 0.25 * static_cast<double>(1 + g.next_below(4));
    out.push_back(t);
  }
  return out;
}

/// One side of the differential run. Every random choice a callback makes
/// comes from `rng`, seeded identically on both sides, so the sides consume
/// it identically exactly as long as they fire identically.
struct LaneScript {
  LaneScript(std::uint64_t seed, bool through_lane)
      : rng(seed), use_lane(through_lane) {}

  util::Rng rng;
  bool use_lane;
  Simulator sim;
  std::vector<double> times;  // every installed arrival, all rounds
  std::size_t arrived = 0;    // arrivals fired = next lane index
  std::vector<std::pair<long, double>> fired;  // (id, time); dynamic ids < 0
  std::vector<EventHandle> dynamic;
  long next_dynamic = 0;
  int spawn_budget = 4000;

  void schedule_dynamic(double when) {
    const long id = next_dynamic++;
    dynamic.push_back(sim.schedule_at(when, [this, id] { on_dynamic(id); }));
  }

  /// Installs `more` as the next block of arrivals.
  void install(const std::vector<double>& more) {
    const std::size_t base = times.size();
    times.insert(times.end(), more.begin(), more.end());
    if (use_lane) {
      sim.schedule_lane(
          more.size(), [this, base](std::size_t i) { return times[base + i]; },
          [this, base](std::size_t i) { on_arrival(base + i); });
    } else {
      for (std::size_t i = 0; i < more.size(); ++i) {
        sim.schedule_at(times[base + i],
                        [this, i = base + i] { on_arrival(i); });
      }
    }
  }

  /// The random actions both kinds of callback take.
  void churn() {
    if (--spawn_budget < 0) return;
    const double dice = rng.next_double();
    if (dice < 0.25 && arrived < times.size()) {
      // Exactly the lane's next timestamp: the lane event holds the older
      // sequence number, so it must win the tie.
      schedule_dynamic(times[arrived]);
    } else if (dice < 0.4) {
      schedule_dynamic(sim.now());  // ties with duplicate arrival times
    } else if (dice < 0.6) {
      schedule_dynamic(sim.now() +
                       0.25 * static_cast<double>(rng.next_below(8)));
    }
    if (!dynamic.empty() && rng.bernoulli(0.3)) {
      const std::size_t pick = rng.next_below(dynamic.size());
      const bool was_pending = sim.pending(dynamic[pick]);
      EXPECT_EQ(sim.cancel(dynamic[pick]), was_pending);
      dynamic[pick] = dynamic.back();
      dynamic.pop_back();
    }
  }

  void on_arrival(std::size_t i) {
    ASSERT_EQ(i, arrived) << "arrivals fired out of index order";
    ASSERT_EQ(sim.now(), times[i]);
    ++arrived;
    fired.emplace_back(static_cast<long>(i), sim.now());
    churn();
  }

  void on_dynamic(long id) {
    fired.emplace_back(-1 - id, sim.now());
    churn();
  }
};

class LaneDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LaneDiffTest, LaneFiresExactlyLikePerEventScheduling) {
  const std::uint64_t seed = GetParam();
  util::Rng gen(seed * 7919 + 1);  // script shape: times, pre-lane events
  util::Rng pace(seed * 104729 + 3);  // step vs run_until, and targets
  LaneScript lane(seed, /*use_lane=*/true);
  LaneScript ref(seed, /*use_lane=*/false);
  std::size_t checked = 0;

  auto expect_same = [&](const char* where) {
    ASSERT_EQ(lane.fired.size(), ref.fired.size()) << where;
    for (; checked < lane.fired.size(); ++checked) {
      ASSERT_EQ(lane.fired[checked], ref.fired[checked])
          << where << ": fire #" << checked;
    }
    ASSERT_EQ(lane.sim.now(), ref.sim.now()) << where;
    ASSERT_EQ(lane.sim.events_fired(), ref.sim.events_fired()) << where;
    ASSERT_EQ(lane.sim.pending_count(), ref.sim.pending_count()) << where;
    ASSERT_EQ(lane.sim.queue_depth(), lane.sim.pending_count()) << where;
    ASSERT_EQ(lane.sim.next_event_time(), ref.sim.next_event_time())
        << where;
  };
  // Steps and run_until boundaries in random mix until `done` holds. Some
  // boundaries land exactly on the next event (lane head or heap top).
  auto drive = [&](auto done) {
    while (!done()) {
      const double dice = pace.next_double();
      if (dice < 0.5) {
        ASSERT_EQ(lane.sim.step(), ref.sim.step());
      } else {
        double until = lane.sim.now() + pace.uniform(0.0, 3.0);
        if (dice < 0.7 && lane.sim.pending_count() != 0) {
          until = lane.sim.next_event_time();
        }
        ASSERT_EQ(lane.sim.run_until(until), ref.sim.run_until(until));
      }
      expect_same("drive");
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  // Round 1: dynamic events before the lane, half of them exactly on an
  // arrival time (they hold older sequence numbers, so they win those ties).
  const std::vector<double> first = lane_times(gen, 0.0, 400);
  for (int k = 0; k < 40; ++k) {
    const double t = gen.bernoulli(0.5)
                         ? first[gen.next_below(first.size())]
                         : 0.25 * static_cast<double>(gen.next_below(200));
    lane.schedule_dynamic(t);
    ref.schedule_dynamic(t);
  }
  lane.install(first);
  ref.install(first);
  // Events scheduled after the install take sequence numbers after the
  // lane's whole block.
  for (int k = 0; k < 10; ++k) {
    const double t = first[gen.next_below(first.size())];
    lane.schedule_dynamic(t);
    ref.schedule_dynamic(t);
  }
  expect_same("install");
  drive([&] { return lane.arrived == lane.times.size(); });
  if (HasFatalFailure()) return;

  // Round 2: a second lane once the first has drained, with dynamic events
  // still pending, starting exactly at the current time.
  const std::vector<double> second = lane_times(gen, lane.sim.now(), 300);
  lane.install(second);
  ref.install(second);
  expect_same("second install");
  drive([&] { return lane.sim.pending_count() == 0; });
  if (HasFatalFailure()) return;
  EXPECT_EQ(ref.sim.pending_count(), 0u);
  EXPECT_EQ(lane.arrived, first.size() + second.size());
  EXPECT_GT(lane.next_dynamic, 100);  // the churn actually ran
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDiffTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// run() drains the lane and the heap in one merged (time, seq) order too,
// including equal-time arrivals and a zero-delay event scheduled from
// inside an arrival.
TEST(SimLane, RunMergesLaneAndHeapByTimeThenSequence) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&order] { order.push_back(100); });  // before lane
  const double times[] = {0.5, 1.0, 1.0, 2.0};
  sim.schedule_lane(
      4, [&times](std::size_t i) { return times[i]; },
      [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
        if (i == 1) sim.schedule_in(0.0, [&order] { order.push_back(101); });
      });
  sim.schedule_at(1.0, [&order] { order.push_back(102); });  // after lane
  EXPECT_EQ(sim.pending_count(), 6u);
  EXPECT_EQ(sim.next_event_time(), 0.5);
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2, 102, 101, 3}));
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
}

}  // namespace
}  // namespace eas::sim
