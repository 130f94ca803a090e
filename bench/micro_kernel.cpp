// Micro-benchmarks: event kernel and disk entity hot paths, with and
// without the trace recorder attached (the tracing-off numbers are the ones
// the ≤2% observability overhead budget is judged against).
#include <benchmark/benchmark.h>

#include <vector>

#include "disk/disk.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/simulator.hpp"

using namespace eas;

namespace {

void BM_ScheduleAndFire(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t a = 0, b = 0, c = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(static_cast<double>(i % 64),
                      [&a, &b, &c, i] { a += i + b + c; });
    }
    benchmark::DoNotOptimize(sim.run());
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleAndFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_ScheduleCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(4096);
    std::uint64_t a = 0, b = 0, c = 0;
    for (int i = 0; i < 4096; ++i) {
      handles.push_back(
          sim.schedule_at(1.0 + i, [&a, &b, &c, i] { a += b + c + i; }));
    }
    for (auto& h : handles) sim.cancel(h);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ScheduleCancel);

// Trace replay in the storage system's pattern: time-sorted arrivals, each
// scheduling a service completion and re-arming its disk's spin-down timer
// (cancel + schedule), so the heap holds only a few dozen dynamic events.
// BM_TraceReplay feeds the arrivals through the sorted arrival lane;
// BM_TraceReplayPerEvent is the reference: one schedule_at per arrival,
// which puts every arrival in the heap up front.
struct ReplayFixture {
  static constexpr std::size_t kDisks = 16;
  std::vector<double> times;
  std::vector<std::uint32_t> disk_of;

  explicit ReplayFixture(std::size_t n) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift: fixed, cheap
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += static_cast<double>(next() % 1000) * 1e-4;  // mean 50 ms gap
      times.push_back(t);
      disk_of.push_back(static_cast<std::uint32_t>(next() % kDisks));
    }
  }
};

struct ReplayState {
  sim::Simulator& sim;
  const ReplayFixture& fx;
  std::vector<sim::EventHandle> timers =
      std::vector<sim::EventHandle>(ReplayFixture::kDisks);
  std::uint64_t served = 0;
  std::uint64_t spin_downs = 0;

  void arrive(std::size_t i) {
    const std::uint32_t d = fx.disk_of[i];
    sim.schedule_in(0.008, [this] { ++served; });
    sim.cancel(timers[d]);
    timers[d] = sim.schedule_in(0.5, [this] { ++spin_downs; });
  }
};

void BM_TraceReplay(benchmark::State& state) {
  const ReplayFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::Simulator sim;
    ReplayState rs{sim, fx};
    sim.schedule_lane(
        fx.times.size(), [&fx](std::size_t i) { return fx.times[i]; },
        [&rs](std::size_t i) { rs.arrive(i); });
    benchmark::DoNotOptimize(sim.run());
    benchmark::DoNotOptimize(rs.spin_downs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TraceReplay)->Arg(70000);

void BM_TraceReplayPerEvent(benchmark::State& state) {
  const ReplayFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::Simulator sim;
    ReplayState rs{sim, fx};
    for (std::size_t i = 0; i < fx.times.size(); ++i) {
      sim.schedule_at(fx.times[i], [&rs, i] { rs.arrive(i); });
    }
    benchmark::DoNotOptimize(sim.run());
    benchmark::DoNotOptimize(rs.spin_downs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TraceReplayPerEvent)->Arg(70000);

void BM_DiskServiceLoop(benchmark::State& state) {
  // Submit-serve-complete cycles on one idle disk (no power transitions).
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    disk::Disk d(0, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
                 disk::DiskState::Idle);
    for (std::size_t i = 0; i < n; ++i) {
      disk::Request r;
      r.id = i;
      r.data = 0;
      d.submit(r);
    }
    sim.run();
    benchmark::DoNotOptimize(d.stats().requests_served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DiskServiceLoop)->Arg(1 << 10)->Arg(1 << 14);

void BM_DiskSpinCycle(benchmark::State& state) {
  // Full standby -> spin-up -> serve -> idle -> spin-down cycles.
  for (auto _ : state) {
    sim::Simulator sim;
    disk::Disk d(0, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
                 disk::DiskState::Standby);
    for (int i = 0; i < 64; ++i) {
      sim.schedule_at(100.0 * i, [&d, i] {
        disk::Request r;
        r.id = static_cast<RequestId>(i);
        d.submit(r);
      });
      sim.schedule_at(100.0 * i + 50.0, [&d] {
        if (d.state() == disk::DiskState::Idle) d.spin_down();
      });
    }
    sim.run();
    benchmark::DoNotOptimize(d.stats().spin_ups);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DiskSpinCycle);

void BM_DiskServiceLoopTraced(benchmark::State& state) {
  // BM_DiskServiceLoop with a recorder attached: the delta against the
  // untraced run is the cost of the EAS_OBS sites actually firing (queue +
  // service begin/end per request) into a warm preallocated ring.
  const auto n = static_cast<std::size_t>(state.range(0));
  obs::TraceRecorder rec({.enabled = true, .capacity = 1u << 12});
  for (auto _ : state) {
    sim::Simulator sim;
    sim.set_recorder(&rec);
    disk::Disk d(0, sim, disk::DiskPowerParams{}, disk::DiskPerfParams{},
                 disk::DiskState::Idle);
    for (std::size_t i = 0; i < n; ++i) {
      disk::Request r;
      r.id = i;
      r.data = 0;
      d.submit(r);
    }
    sim.run();
    benchmark::DoNotOptimize(d.stats().requests_served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DiskServiceLoopTraced)->Arg(1 << 10)->Arg(1 << 14);

void BM_TraceRecord(benchmark::State& state) {
  // Raw ring append throughput, wrap included: the per-site ceiling every
  // instrumented hot path pays when its category is enabled.
  obs::TraceRecorder rec({.enabled = true, .capacity = 1u << 16});
  std::uint64_t i = 0;
  for (auto _ : state) {
    rec.record(static_cast<double>(i), obs::Ev::kQueue, i, 3, 7);
    ++i;
    benchmark::DoNotOptimize(rec.recorded());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecord);

}  // namespace

BENCHMARK_MAIN();
