// Allocation-freedom tests for the event kernel. The slot-pool simulator
// promises zero heap allocations per steady-state schedule/fire (and
// schedule/cancel) cycle for callbacks that fit InlineCallback's 48-byte
// buffer; this binary replaces global operator new with a counting shim and
// asserts the promise literally.
//
// The shim (support/counting_new.cpp) is linked into this dedicated test
// binary so the rest of the suite is unaffected.
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace_recorder.hpp"
#include "sim/simulator.hpp"
#include "support/counting_new.hpp"

namespace eas::sim {
namespace {

using testing::allocations_during;

TEST(SimulatorAllocation, SteadyStateScheduleFireIsAllocationFree) {
  Simulator sim;
  double acc = 0.0;

  // Warm-up: grow the slot pool, callback chunk, and heap to their
  // steady-state high-water marks, then drain.
  for (int i = 0; i < 512; ++i) {
    sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
  }
  sim.run();

  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 512; ++i) {
        sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
      }
      sim.run();
    }
  });
  EXPECT_EQ(n, 0u) << "schedule/fire cycles allocated";
  EXPECT_NE(acc, 0.0);  // keep the callbacks observable
}

TEST(SimulatorAllocation, SteadyStateScheduleCancelIsAllocationFree) {
  Simulator sim;
  double acc = 0.0;
  std::vector<EventHandle> handles;
  handles.reserve(512);

  for (int i = 0; i < 512; ++i) {
    handles.push_back(sim.schedule_in(1.0 + i, [&acc, i] { acc += i; }));
  }
  for (const EventHandle& h : handles) ASSERT_TRUE(sim.cancel(h));

  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 100; ++round) {
      handles.clear();
      for (int i = 0; i < 512; ++i) {
        handles.push_back(sim.schedule_in(1.0 + i, [&acc, i] { acc += i; }));
      }
      for (const EventHandle& h : handles) sim.cancel(h);
    }
  });
  EXPECT_EQ(n, 0u) << "schedule/cancel cycles allocated";
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorAllocation, FiringLaneEventsIsAllocationFree) {
  // The sorted arrival lane allocates once, when its time array grows at
  // install; firing its events — each scheduling a follow-up through the
  // warm slot pool, like a disk completion — allocates nothing, and a
  // second lane of no more events reuses the array's capacity.
  Simulator sim;
  double acc = 0.0;
  for (int i = 0; i < 512; ++i) {
    sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
  }
  sim.run();

  constexpr std::size_t kArrivals = 4096;
  double start = sim.now();
  auto time_of = [&start](std::size_t i) {
    return start + 1e-3 * static_cast<double>(i / 2);  // pairs tie
  };
  auto on_arrival = [&sim, &acc](std::size_t i) {
    sim.schedule_in(5e-3, [&acc, i] { acc += static_cast<double>(i); });
  };
  sim.schedule_lane(kArrivals, time_of, on_arrival);
  EXPECT_EQ(allocations_during([&] { sim.run(); }), 0u)
      << "firing lane events allocated";

  start = sim.now();
  const std::uint64_t n = allocations_during([&] {
    sim.schedule_lane(kArrivals, time_of, on_arrival);
    sim.run();
  });
  EXPECT_EQ(n, 0u) << "a second lane of the same size allocated";
  EXPECT_EQ(sim.events_fired(), 512u + 4u * kArrivals);
}

TEST(SimulatorAllocation, TracingCompiledInButOffAddsNoAllocations) {
  // The observability hooks ride the simulator as a nullable pointer; with
  // no recorder attached (the default) every EAS_OBS site is one untaken
  // branch and the steady-state zero-allocation promise must hold verbatim.
  Simulator sim;
  ASSERT_EQ(sim.recorder(), nullptr);
  double acc = 0.0;
  for (int i = 0; i < 512; ++i) {
    sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
  }
  sim.run();

  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 512; ++i) {
        sim.schedule_in(1e-3 * (i % 64), [&acc, i] { acc += i; });
      }
      sim.run();
    }
  });
  EXPECT_EQ(n, 0u) << "tracing-off schedule/fire cycles allocated";
}

TEST(SimulatorAllocation, RecordingIntoAWarmRingIsAllocationFree) {
  // With tracing *on*, the ring is preallocated at construction; recording
  // through the EAS_OBS macro must never touch the heap, even after the
  // ring wraps.
  obs::TraceRecorder rec({.enabled = true, .capacity = 256});
  Simulator sim;
  sim.set_recorder(&rec);

  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < 4096; ++i) {
      EAS_OBS(sim.recorder(),
              record(1e-3 * i, obs::Ev::kQueue,
                     static_cast<std::uint64_t>(i), 3, 7));
    }
  });
  EXPECT_EQ(n, 0u) << "warm-ring recording allocated";
#if !defined(EASCHED_NO_OBS)
  EXPECT_EQ(rec.recorded(), 4096u);
  EXPECT_EQ(rec.dropped(), 4096u - 256u);
#endif
}

TEST(SimulatorAllocation, OversizedCallbacksStillWorkButMayAllocate) {
  // Callbacks beyond the 48-byte inline buffer take the heap fallback —
  // documented, not forbidden. This test pins the *functional* behaviour so
  // the fallback path keeps coverage in the allocation-counting binary.
  Simulator sim;
  struct Big {
    double pad[8];  // 64 bytes: exceeds kInlineSize
  };
  Big big{{1, 2, 3, 4, 5, 6, 7, 8}};
  double sum = 0.0;
  sim.schedule_at(1.0, [big, &sum] {
    for (double v : big.pad) sum += v;
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_DOUBLE_EQ(sum, 36.0);
}

}  // namespace
}  // namespace eas::sim
