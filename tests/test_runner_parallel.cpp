// The SweepRunner's core contracts: bit-identical results regardless of
// thread count, registry round-trip against hand-built scheduler stacks
// (the former bench run_* free functions), failure propagation and
// cancellation, shared-input caching, and the builder/name-table APIs.
// These tests carry the sweep-smoke ctest label and run under the tsan
// preset.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/basic_schedulers.hpp"
#include "core/cost_scheduler.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/wsc_scheduler.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/emit.hpp"
#include "runner/sweep.hpp"
#include "util/check.hpp"

namespace eas {
namespace {

// Small enough to keep the suite fast, large enough that the schedulers make
// non-trivial decisions (spin-ups, queueing, batching).
constexpr std::size_t kRequests = 2000;

runner::ExperimentParams small_params(unsigned rf = 3) {
  return runner::ExperimentBuilder(runner::Workload::kCello)
      .requests(kRequests)
      .replication(rf)
      .build();
}

void expect_identical(const storage::RunResult& a, const storage::RunResult& b,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.horizon, b.horizon);  // bitwise, not approximate
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.requests_waited_spinup, b.requests_waited_spinup);
  EXPECT_EQ(a.total_energy(), b.total_energy());
  EXPECT_EQ(a.total_spin_ups(), b.total_spin_ups());
  EXPECT_EQ(a.total_spin_downs(), b.total_spin_downs());
  EXPECT_EQ(a.response_times.count(), b.response_times.count());
  if (!a.response_times.empty() && !b.response_times.empty()) {
    EXPECT_EQ(a.response_times.mean(), b.response_times.mean());
    EXPECT_EQ(a.response_times.sorted(), b.response_times.sorted());
  }
  ASSERT_EQ(a.disk_stats.size(), b.disk_stats.size());
  for (std::size_t d = 0; d < a.disk_stats.size(); ++d) {
    EXPECT_EQ(a.disk_stats[d].seconds_in_state, b.disk_stats[d].seconds_in_state);
    EXPECT_EQ(a.disk_stats[d].joules_in_state, b.disk_stats[d].joules_in_state);
    EXPECT_EQ(a.disk_stats[d].spin_ups, b.disk_stats[d].spin_ups);
    EXPECT_EQ(a.disk_stats[d].spin_downs, b.disk_stats[d].spin_downs);
    EXPECT_EQ(a.disk_stats[d].requests_served, b.disk_stats[d].requests_served);
  }
}

// --- determinism across thread counts --------------------------------------

TEST(SweepRunnerParallel, BitIdenticalAcrossThreadCounts) {
  const auto base = small_params();
  const std::vector<std::string> schedulers = {"random", "static", "heuristic",
                                               "wsc", "mwis"};
  const auto grid = [&] {
    return runner::product_grid(
        base, schedulers, {"1", "2", "3"},
        [](const runner::ExperimentParams& b, const std::string& tag) {
          return runner::ExperimentBuilder(b)
              .replication(static_cast<unsigned>(std::stoul(tag)))
              .build();
        });
  };

  // Serial reference, straight through run_cell with no pool involved.
  std::vector<storage::RunResult> reference;
  {
    auto cells = grid();
    for (const auto& cell : cells) {
      const auto trace = runner::make_shared_workload(cell.params);
      const auto placement = runner::make_shared_placement(cell.params);
      reference.push_back(run_cell(runner::SchedulerRegistry::global(),
                                   cell.scheduler, cell.params, *trace,
                                   *placement));
    }
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    runner::SweepOptions opts;
    opts.threads = threads;
    const auto results = runner::SweepRunner(opts).run(grid());
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status, runner::CellStatus::kOk);
      EXPECT_EQ(results[i].index, i);
      EXPECT_GE(results[i].wall_seconds, 0.0);
      expect_identical(results[i].result, reference[i],
                       results[i].spec.scheduler + "/rf" +
                           results[i].spec.tag + " @" +
                           std::to_string(threads) + " threads");
    }
  }
}

// --- dispatch order --------------------------------------------------------

// Longest-first dispatch: offline (MWIS) cells start first, by replication
// factor descending, ties in submission order; every other cell — including
// names the registry does not know — follows in submission order. Results
// still come back in submission order.
TEST(SweepRunnerDispatch, OfflineCellsStartFirstByReplicationDescending) {
  struct Submitted {
    const char* scheduler;
    unsigned rf;
  };
  const std::vector<Submitted> grid = {
      {"random", 5}, {"mwis", 2},      {"static", 1},    {"mwis", 5},
      {"custom", 5}, {"mwis", 1},      {"heuristic", 3}, {"mwis", 2},
      {"wsc", 4},    {"always-on", 2}, {"mwis", 4}};
  std::vector<std::size_t> started;
  std::vector<runner::CellSpec> cells;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    runner::CellSpec cell;
    cell.scheduler = grid[i].scheduler;
    cell.params = runner::ExperimentBuilder(runner::Workload::kCello)
                      .requests(10)
                      .disks(8)
                      .replication(grid[i].rf)
                      .build();
    cell.tag = std::to_string(i);
    cell.run = [&started, i](const runner::ExperimentParams& cp,
                             const trace::Trace&,
                             const placement::PlacementMap&) {
      started.push_back(i);
      storage::RunResult r;
      r.total_requests = cp.num_requests;
      return r;
    };
    cells.push_back(std::move(cell));
  }

  runner::SweepOptions opts;
  opts.threads = 1;
  const auto results = runner::SweepRunner(opts).run(cells);
  EXPECT_EQ(started,
            (std::vector<std::size_t>{3, 10, 1, 7, 5, 0, 2, 4, 6, 8, 9}));
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].spec.tag, std::to_string(i));
    EXPECT_EQ(results[i].status, runner::CellStatus::kOk);
  }
}

// --- kernel regression golden ----------------------------------------------
//
// End-to-end outputs recorded from the pre-rewrite event kernel (hash-map
// handle registry + std::function callbacks + lazily-cleaned binary heap)
// on this exact cell. The slot-pool/indexed-heap kernel must reproduce them
// bit-for-bit: the rewrite changes the heap's internal layout but not the
// (time, seq) total order, so any drift here is an ordering bug, not noise.
TEST(KernelGolden, SlotPoolKernelMatchesPreRewriteResults) {
  const auto p = small_params();  // cello, 2000 requests, rf=3
  const auto trace = runner::make_shared_workload(p);
  const auto placement = runner::make_shared_placement(p);
  const auto& reg = runner::SchedulerRegistry::global();

  const auto wsc = run_cell(reg, "wsc", p, *trace, *placement);
  EXPECT_EQ(wsc.total_energy(), 130283.2136638177);
  EXPECT_EQ(wsc.total_spin_ups(), 181u);
  EXPECT_EQ(wsc.requests_waited_spinup, 325u);
  EXPECT_EQ(wsc.response_times.mean(), 1.5632743452818472);

  const auto heuristic = run_cell(reg, "heuristic", p, *trace, *placement);
  EXPECT_EQ(heuristic.total_energy(), 131751.42789423512);
  EXPECT_EQ(heuristic.total_spin_ups(), 181u);
  EXPECT_EQ(heuristic.requests_waited_spinup, 301u);
  EXPECT_EQ(heuristic.response_times.mean(), 1.3938358852147847);
}

TEST(SweepRunnerParallel, SharedInputsAreCachedAcrossCells) {
  const auto base = small_params();
  auto cells = runner::product_grid(base, {"static", "random"}, {"x"}, nullptr);
  runner::SweepOptions opts;
  opts.threads = 2;
  const auto results = runner::SweepRunner(opts).run(std::move(cells));
  ASSERT_EQ(results.size(), 2u);
  // Same workload/seed/requests and same placement key ⇒ literally the same
  // immutable objects, not copies.
  EXPECT_EQ(results[0].spec.trace.get(), results[1].spec.trace.get());
  EXPECT_EQ(results[0].spec.placement.get(), results[1].spec.placement.get());
  EXPECT_NE(results[0].spec.trace.get(), nullptr);
}

// --- registry round-trip against the former run_* free functions -----------

TEST(SchedulerRegistry, MatchesHandBuiltSchedulerStacks) {
  const auto p = small_params(2);
  const auto trace =
      runner::make_workload(p.workload, p.trace_seed, p.num_requests);
  const auto placement = runner::make_placement(p);
  const auto config = runner::system_config_for(p);
  const auto& reg = runner::SchedulerRegistry::global();

  expect_identical(run_cell(reg, "always-on", p, trace, placement),
                   storage::run_always_on(config, placement, trace),
                   "always-on");
  {
    core::RandomScheduler sched(p.trace_seed ^ 0x5eedULL);
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "random", p, trace, placement),
                     storage::run_online(config, placement, trace, sched,
                                         policy),
                     "random");
  }
  {
    core::StaticScheduler sched;
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "static", p, trace, placement),
                     storage::run_online(config, placement, trace, sched,
                                         policy),
                     "static");
  }
  {
    core::CostFunctionScheduler sched(p.cost);
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "heuristic", p, trace, placement),
                     storage::run_online(config, placement, trace, sched,
                                         policy),
                     "heuristic");
  }
  {
    core::WscBatchScheduler sched(p.batch_interval, p.cost);
    power::FixedThresholdPolicy policy;
    expect_identical(run_cell(reg, "wsc", p, trace, placement),
                     storage::run_batch(config, placement, trace, sched,
                                        policy),
                     "wsc");
  }
  {
    core::MwisOptions opts;
    opts.algorithm = core::MwisOptions::Algorithm::kGwmin;
    opts.graph.successor_horizon = p.mwis_horizon;
    opts.refine_passes = p.mwis_refine_passes;
    core::MwisOfflineScheduler sched(opts);
    const auto assignment = sched.schedule(trace, placement, config.power);
    expect_identical(run_cell(reg, "mwis", p, trace, placement),
                     storage::run_offline(config, placement, trace, assignment,
                                          sched.name()),
                     "mwis");
  }
}

TEST(SchedulerRegistry, RosterOrderAndLookup) {
  const auto& reg = runner::SchedulerRegistry::global();
  const std::vector<std::string> expected = {"always-on", "random", "static",
                                             "heuristic", "wsc", "mwis"};
  EXPECT_EQ(reg.names(), expected);
  EXPECT_TRUE(reg.contains("wsc"));
  EXPECT_FALSE(reg.contains("nonsense"));
  EXPECT_THROW(reg.at("nonsense"), InvariantError);
}

TEST(SchedulerRegistry, RejectsDuplicateAndMalformedSpecs) {
  auto reg = runner::SchedulerRegistry::paper_roster();
  runner::SchedulerSpec dup;
  dup.name = "static";
  dup.make = [](const runner::ExperimentParams&,
                const placement::PlacementMap&) {
    return runner::SchedulerBundle{};
  };
  EXPECT_THROW(reg.add(dup), InvariantError);
  runner::SchedulerSpec unnamed = dup;
  unnamed.name.clear();
  EXPECT_THROW(reg.add(unnamed), InvariantError);
  runner::SchedulerSpec no_factory;
  no_factory.name = "hollow";
  EXPECT_THROW(reg.add(no_factory), InvariantError);
}

TEST(SchedulerRegistry, AcceptsBenchLocalExtensions) {
  auto reg = runner::SchedulerRegistry::paper_roster();
  runner::SchedulerSpec eager;
  eager.name = "heuristic-eager";
  eager.model = runner::ExecutionModel::kOnline;
  eager.make = [](const runner::ExperimentParams& p,
                  const placement::PlacementMap&) {
    runner::SchedulerBundle b;
    b.online = std::make_unique<core::CostFunctionScheduler>(p.cost);
    b.policy = std::make_unique<power::FixedThresholdPolicy>(1.0);
    return b;
  };
  reg.add(std::move(eager));
  EXPECT_EQ(reg.size(), 7u);

  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(300)
                     .disks(12)
                     .replication(2)
                     .build();
  const auto trace =
      runner::make_workload(p.workload, p.trace_seed, p.num_requests);
  const auto placement = runner::make_placement(p);
  const auto r = run_cell(reg, "heuristic-eager", p, trace, placement);
  EXPECT_EQ(r.total_requests, p.num_requests);
}

// --- failure propagation and cancellation -----------------------------------

std::vector<runner::CellSpec> failing_grid(std::size_t n,
                                           std::size_t failing_index) {
  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(10)
                     .disks(4)
                     .replication(1)
                     .build();
  std::vector<runner::CellSpec> cells;
  for (std::size_t i = 0; i < n; ++i) {
    runner::CellSpec cell;
    cell.params = p;
    cell.tag = std::to_string(i);
    if (i == failing_index) {
      cell.run = [](const runner::ExperimentParams&, const trace::Trace&,
                    const placement::PlacementMap&) -> storage::RunResult {
        throw std::runtime_error("cell exploded");
      };
    } else {
      cell.run = [](const runner::ExperimentParams& cp, const trace::Trace&,
                    const placement::PlacementMap&) {
        storage::RunResult r;
        r.scheduler_name = "stub";
        r.total_requests = cp.num_requests;
        return r;
      };
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

TEST(SweepRunnerFailure, FirstFailureCancelsRemainingCells) {
  runner::SweepOptions opts;
  opts.threads = 1;  // deterministic ordering: cell 0 fails before 1..3 start
  opts.rethrow_failure = false;
  const auto results = runner::SweepRunner(opts).run(failing_grid(4, 0));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, runner::CellStatus::kFailed);
  EXPECT_NE(results[0].error.find("cell exploded"), std::string::npos);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, runner::CellStatus::kSkipped);
  }
}

TEST(SweepRunnerFailure, RethrowsFirstFailureByDefault) {
  runner::SweepOptions opts;
  opts.threads = 2;
  EXPECT_THROW(runner::SweepRunner(opts).run(failing_grid(3, 1)),
               std::runtime_error);
}

TEST(SweepRunnerFailure, MisdeclaredGridFailsBeforeRunning) {
  auto cells = failing_grid(2, 99);  // no failing run hooks...
  cells[1].run = nullptr;
  cells[1].scheduler = "no-such-scheduler";  // ...but an unknown registry row
  runner::SweepOptions opts;
  opts.threads = 1;
  EXPECT_THROW(runner::SweepRunner(opts).run(std::move(cells)),
               InvariantError);
}

TEST(SweepRunner, EmptyGridIsANoOp) {
  EXPECT_TRUE(runner::SweepRunner().run({}).empty());
}

// --- find_cell / builder / name-table edges ---------------------------------

TEST(SweepRunner, FindCellThrowsOnUnknownKey) {
  runner::SweepOptions opts;
  opts.threads = 1;
  opts.rethrow_failure = false;
  const auto results = runner::SweepRunner(opts).run(failing_grid(2, 99));
  EXPECT_EQ(&runner::find_cell(results, "1", "").spec.tag, &results[1].spec.tag);
  EXPECT_THROW(runner::find_cell(results, "7", ""), InvariantError);
}

TEST(ExperimentBuilder, ValidatesOnBuild) {
  EXPECT_THROW(runner::ExperimentBuilder().requests(0).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().replication(0).build(),
               InvariantError);
  EXPECT_THROW(
      runner::ExperimentBuilder().disks(4).replication(5).build(),
      InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().zipf_z(1.5).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().batch_interval(0.0).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().alpha(-0.1).build(),
               InvariantError);
  EXPECT_THROW(runner::ExperimentBuilder().mwis(0, 1).build(),
               InvariantError);
  const auto p = runner::ExperimentBuilder(runner::Workload::kFinancial)
                     .replication(5)
                     .zipf_z(0.0)
                     .build();
  EXPECT_EQ(p.workload, runner::Workload::kFinancial);
  EXPECT_EQ(p.replication_factor, 5u);
}

// --- merged metrics and trace determinism -----------------------------------
//
// Each cell owns a thread-confined MetricRegistry and TraceRecorder;
// merged_metrics and write_chrome_trace fold them in cell-index order after
// the sweep. Both exports must therefore be bit-identical no matter how many
// workers executed the grid.
TEST(SweepRunnerParallel, MergedMetricsAreIdenticalAcrossThreadCounts) {
  const auto base = runner::ExperimentBuilder(runner::Workload::kCello)
                        .requests(kRequests)
                        .trace({.categories = obs::cat_bit(obs::Cat::kPower),
                                .capacity = 1u << 12})
                        .metrics()
                        .build();
  const auto grid = [&] {
    return runner::product_grid(
        base, {"static", "heuristic", "wsc"}, {"1", "3"},
        [](const runner::ExperimentParams& b, const std::string& tag) {
          return runner::ExperimentBuilder(b)
              .replication(static_cast<unsigned>(std::stoul(tag)))
              .build();
        });
  };

  std::string reference;
  std::string reference_trace;
  for (std::size_t threads : {1u, 2u, 8u}) {
    runner::SweepOptions opts;
    opts.threads = threads;
    const auto results = runner::SweepRunner(opts).run(grid());
    for (const auto& cell : results) {
      ASSERT_EQ(cell.status, runner::CellStatus::kOk);
      ASSERT_NE(cell.result.metrics, nullptr);
      ASSERT_NE(cell.result.trace_recorder, nullptr);
    }
    const std::string json = runner::merged_metrics(results).to_json();
    std::ostringstream trace;
    runner::write_chrome_trace(trace, results);
    if (reference.empty()) {
      reference = json;
      reference_trace = trace.str();
      EXPECT_NE(reference_trace.find("\"name\":\"standby\""),
                std::string::npos);
      // The fold saw every cell: six cells of kRequests completions each.
      std::ostringstream expect_completed;
      expect_completed << "\"requests_completed\":{\"kind\":\"counter\","
                       << "\"value\":" << 6 * kRequests << "}";
      EXPECT_NE(json.find(expect_completed.str()), std::string::npos) << json;
    } else {
      EXPECT_EQ(json, reference) << threads << " threads";
      EXPECT_EQ(trace.str(), reference_trace) << threads << " threads";
    }
  }
}

// The merged Chrome trace holds one process per OK traced cell: pid is the
// cell index and the process is named "<tag>/<scheduler>". Untraced and
// failed cells contribute nothing, to the trace or to the merged metrics.
TEST(SweepRunnerParallel, ChromeTraceMergesOnlyOkTracedCells) {
  const auto untraced = runner::ExperimentBuilder(runner::Workload::kCello)
                            .requests(300)
                            .disks(12)
                            .build();
  const auto traced = runner::ExperimentBuilder(untraced)
                          .trace({.categories = obs::cat_bit(obs::Cat::kPower),
                                  .capacity = 1u << 10})
                          .build();
  auto cell = [](const char* sched, const runner::ExperimentParams& p,
                 const char* tag) {
    runner::CellSpec c;
    c.scheduler = sched;
    c.params = p;
    c.tag = tag;
    return c;
  };
  std::vector<runner::CellSpec> cells = {cell("static", traced, "a"),
                                         cell("heuristic", untraced, "b"),
                                         cell("wsc", traced, "c"),
                                         cell("static", traced, "d")};
  cells[3].run = [](const runner::ExperimentParams&, const trace::Trace&,
                    const placement::PlacementMap&) -> storage::RunResult {
    throw std::runtime_error("cell exploded");
  };
  runner::SweepOptions opts;
  opts.threads = 1;  // the failing cell is claimed last
  opts.rethrow_failure = false;
  const auto results = runner::SweepRunner(opts).run(std::move(cells));
  ASSERT_EQ(results[0].status, runner::CellStatus::kOk);
  ASSERT_EQ(results[1].status, runner::CellStatus::kOk);
  ASSERT_EQ(results[2].status, runner::CellStatus::kOk);
  ASSERT_EQ(results[3].status, runner::CellStatus::kFailed);

  std::ostringstream os;
  runner::write_chrome_trace(os, results);
  const std::string trace = os.str();
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  auto process_meta = [](int pid, const char* name) {
    return "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
           name + "\"}}";
  };
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(count("\"process_name\""), 2u);
  EXPECT_EQ(count(process_meta(0, "a/static")), 1u);
  EXPECT_EQ(count(process_meta(2, "c/wsc")), 1u);
  EXPECT_GT(count("\"pid\":0,"), 2u);
  EXPECT_GT(count("\"pid\":2,"), 2u);
  EXPECT_EQ(count("\"pid\":1,"), 0u);
  EXPECT_EQ(count("\"pid\":3,"), 0u);
  EXPECT_EQ(trace.back(), '\n');
  // No cell enabled metrics, so the merged registry is empty.
  EXPECT_EQ(runner::merged_metrics(results).to_json(), "{}");
}

TEST(WorkloadNames, RoundTripThroughTheCanonicalTable) {
  for (const auto w : runner::kAllWorkloads) {
    const auto back = runner::workload_from_string(runner::to_string(w));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, w);
  }
  EXPECT_FALSE(runner::workload_from_string("tpc-c").has_value());
}

// Values that are not all decimal digits, or are zero, read as unset.
// strtoull would wrap "-3" and " -3" to 2^64-3 and read "3x" as 3.
constexpr const char* kUnparseable[] = {"0",  "-3", " -3",     "+3",
                                        "3x", " 3", "garbage", ""};

TEST(ThreadsFromEnv, ParsesAndClampsEAS_THREADS) {
  ::unsetenv("EAS_THREADS");
  const std::size_t fallback = runner::threads_from_env();
  EXPECT_GE(fallback, 1u);
  ::setenv("EAS_THREADS", "3", 1);
  EXPECT_EQ(runner::threads_from_env(), 3u);
  for (const char* value : kUnparseable) {
    ::setenv("EAS_THREADS", value, 1);
    EXPECT_EQ(runner::threads_from_env(), fallback) << '"' << value << '"';
  }
  ::unsetenv("EAS_THREADS");
}

TEST(RequestsFromEnv, ParsesEAS_REQUESTSAndFallsBackOnJunk) {
  ::setenv("EAS_REQUESTS", "5000", 1);
  EXPECT_EQ(runner::requests_from_env(70000), 5000u);
  for (const char* value : kUnparseable) {
    ::setenv("EAS_REQUESTS", value, 1);
    EXPECT_EQ(runner::requests_from_env(70000), 70000u)
        << '"' << value << '"';
  }
  ::unsetenv("EAS_REQUESTS");
  EXPECT_EQ(runner::requests_from_env(70000), 70000u);
}

}  // namespace
}  // namespace eas
