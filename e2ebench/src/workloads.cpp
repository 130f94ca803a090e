#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "trace/synthetic.hpp"

namespace e2e {

using namespace eas;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kPaperRequests = 70000;  // §4.1 trace length
constexpr unsigned kMaxReplication = 5;

/// Every trace is the calibrated instance (generator seed 1), the stand-in
/// for the one fixed trace prefix the paper evaluates. A different trace
/// seed draws a different number of Cello bursts and so a different
/// workload (about 13% more or fewer spin-ups), not a repeat of this one.
constexpr std::uint64_t kTraceSeed = 1;

/// The benchmark seed draws the data placement, a random layout in the
/// paper too. Seed 1 gives placement seed 42, the paper configuration's
/// default, so the default run reproduces the Fig 6 cells exactly.
std::uint64_t placement_seed(std::uint64_t seed) { return seed + 41; }

runner::ExperimentParams paper_params(runner::Workload w, std::uint64_t seed,
                                      unsigned rf) {
  return runner::ExperimentBuilder(w)
      .trace_seed(kTraceSeed)
      .placement_seed(placement_seed(seed))
      .requests(kPaperRequests)
      .replication(rf)
      .build();
}

/// Times one input build into `acc`.
template <typename F>
auto timed(double& acc, F&& build) {
  const auto t0 = Clock::now();
  auto out = build();
  acc += seconds_since(t0);
  return out;
}

/// The disk holding the median amount of data (lower id on ties). Fault
/// scenarios fail it, so the failed disk plays the same role under every
/// placement seed; with Zipf-skewed originals a fixed disk id may hold 1%
/// or 15% of the data depending on the seed.
DiskId typical_disk(const placement::PlacementMap& pl) {
  const auto counts = pl.per_disk_data_counts();
  std::vector<DiskId> order(counts.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = static_cast<DiskId>(k);
  }
  const auto mid =
      order.begin() + static_cast<std::ptrdiff_t>(order.size() / 2);
  std::nth_element(order.begin(), mid, order.end(), [&](DiskId a, DiskId b) {
    return counts[a] != counts[b] ? counts[a] < counts[b] : a < b;
  });
  return *mid;
}

/// Runs an offline (MWIS) cell the way runner::run_cell does, and also
/// validates the assignment against the trace and placement before it is
/// simulated.
storage::RunResult run_offline_validated(
    const runner::ExperimentParams& p, const trace::Trace& trace,
    const placement::PlacementMap& placement) {
  const auto config = runner::system_config_for(p);
  auto bundle =
      runner::SchedulerRegistry::global().at("mwis").make(p, placement);
  const auto assignment =
      bundle.offline->schedule(trace, placement, config.power);
  assignment.validate(trace, placement);
  return storage::run_offline(config, placement, trace, assignment,
                              bundle.offline->name());
}

runner::CellSpec make_cell(std::string scheduler, runner::ExperimentParams p,
                           std::string tag,
                           std::shared_ptr<const trace::Trace> trace,
                           std::shared_ptr<const placement::PlacementMap> pl) {
  runner::CellSpec c;
  c.scheduler = std::move(scheduler);
  c.params = std::move(p);
  c.tag = std::move(tag);
  c.trace = std::move(trace);
  c.placement = std::move(pl);
  if (c.scheduler == "mwis") c.run = run_offline_validated;
  return c;
}

/// Fig 6: the five scheduler rows at rf 1..5 on the Cello-like trace.
Inputs paper_grid(std::uint64_t seed) {
  Inputs in;
  in.threads = 2;
  const auto base = paper_params(runner::Workload::kCello, seed, 1);
  const auto trace = timed(in.trace_gen_s,
                           [&] { return runner::make_shared_workload(base); });
  for (unsigned rf = 1; rf <= kMaxReplication; ++rf) {
    const auto p = paper_params(runner::Workload::kCello, seed, rf);
    const auto pl = timed(in.placement_build_s,
                          [&] { return runner::make_shared_placement(p); });
    for (const char* s : {"random", "static", "heuristic", "wsc", "mwis"}) {
      in.cells.push_back(make_cell(s, p, std::to_string(rf), trace, pl));
    }
  }
  return in;
}

/// Every online and batch row at rf 1..5 on both paper traces; no MWIS.
Inputs online_fleet(std::uint64_t seed) {
  Inputs in;
  in.threads = 1;
  std::vector<std::shared_ptr<const placement::PlacementMap>> placements;
  for (unsigned rf = 1; rf <= kMaxReplication; ++rf) {
    // The placement does not depend on the workload, so both traces share it.
    const auto p = paper_params(runner::Workload::kCello, seed, rf);
    placements.push_back(timed(in.placement_build_s, [&] {
      return runner::make_shared_placement(p);
    }));
  }
  for (const runner::Workload w : runner::kAllWorkloads) {
    const auto trace = timed(in.trace_gen_s, [&] {
      return runner::make_shared_workload(paper_params(w, seed, 1));
    });
    for (unsigned rf = 1; rf <= kMaxReplication; ++rf) {
      const auto p = paper_params(w, seed, rf);
      for (const char* s :
           {"always-on", "random", "static", "heuristic", "wsc"}) {
        in.cells.push_back(make_cell(
            s, p, std::string(runner::to_string(w)) + "/" + std::to_string(rf),
            trace, placements[rf - 1]));
      }
    }
  }
  return in;
}

/// Cache, fault and reliability tiers on read/write traffic, plus the
/// overloaded 12-disk transient-fault twin.
Inputs tiers_rw(std::uint64_t seed) {
  Inputs in;
  in.threads = 1;

  // 180 disks, rf 3, 30% writes, heuristic + 2CPM under a cache tier.
  const auto base = paper_params(runner::Workload::kCello, seed, 3);
  const auto rw_trace = timed(in.trace_gen_s, [&] {
    trace::SyntheticTraceConfig tc = trace::cello_like_config(kTraceSeed);
    tc.num_requests = kPaperRequests;
    tc.write_fraction = 0.3;
    return std::make_shared<const trace::Trace>(
        trace::make_synthetic_trace(tc));
  });
  const auto rw_placement = timed(in.placement_build_s, [&] {
    return runner::make_shared_placement(base);
  });

  cache::CacheConfig cc;
  cc.capacity_blocks = 1024;       // 512 MiB read cache
  cc.dirty_capacity_blocks = 256;  // 128 MiB write-back buffer
  const auto cached = runner::ExperimentBuilder(base).cache(cc).build();
  // A typical disk dies a tenth into the trace and its replacement comes
  // online at half: failover, degraded routing and rebuild traffic all run.
  const double span = rw_trace->duration();
  const auto failing =
      runner::ExperimentBuilder(cached)
          .fail_disk_at(typical_disk(*rw_placement), 0.1 * span, 0.4 * span)
          .build();
  // Deadlines and hedges sized above the 10 s spin-up, so a cold replica
  // is raced rather than abandoned outright.
  reliability::ReliabilityConfig slow;
  slow.deadline_seconds = 15.0;
  slow.max_attempts = 3;
  slow.hedge_delay_seconds = 2.0;
  slow.max_queue_depth = 64;
  slow.seed = seed;
  const auto guarded =
      runner::ExperimentBuilder(failing).reliability(slow).build();
  in.cells.push_back(make_cell("heuristic", cached, "rw/cache", rw_trace,
                               rw_placement));
  in.cells.push_back(make_cell("heuristic", failing, "rw/cache+fault",
                               rw_trace, rw_placement));
  in.cells.push_back(make_cell("heuristic", guarded, "rw/cache+fault+rel",
                               rw_trace, rw_placement));

  // 12 disks offered ~2x their service rate (Poisson, 2400 req/s) with a
  // typical disk out for a second; spun-up start so the 0.25 s deadline
  // measures overload, not spin-up.
  const auto ol_fleet = runner::ExperimentBuilder(base)
                            .requests(20000)
                            .disks(12)
                            .initial_state(disk::DiskState::Idle)
                            .build();
  const auto ol_trace = timed(in.trace_gen_s, [&] {
    trace::SyntheticTraceConfig tc = trace::cello_like_config(kTraceSeed);
    tc.num_requests = ol_fleet.num_requests;
    tc.mean_rate = 2400.0;
    tc.burst_rate_multiplier = 1.0;
    return std::make_shared<const trace::Trace>(
        trace::make_synthetic_trace(tc));
  });
  const auto ol_placement = timed(in.placement_build_s, [&] {
    return runner::make_shared_placement(ol_fleet);
  });
  const auto overload = runner::ExperimentBuilder(ol_fleet)
                            .fail_disk_at(typical_disk(*ol_placement), 0.5, 1.0)
                            .build();
  reliability::ReliabilityConfig fast;
  fast.deadline_seconds = 0.25;
  fast.max_attempts = 3;
  fast.hedge_delay_seconds = 0.05;
  fast.max_queue_depth = 64;
  fast.seed = seed;
  in.cells.push_back(make_cell("heuristic", overload, "overload/off",
                               ol_trace, ol_placement));
  const auto guarded_overload =
      runner::ExperimentBuilder(overload).reliability(fast).build();
  in.cells.push_back(make_cell("heuristic", guarded_overload, "overload/rel",
                               ol_trace, ol_placement));
  return in;
}

}  // namespace

const char* to_string(WorkloadId w) {
  switch (w) {
    case WorkloadId::kPaperGrid: return "paper_grid";
    case WorkloadId::kOnlineFleet: return "online_fleet";
    case WorkloadId::kTiersRw: return "tiers_rw";
  }
  return "?";
}

std::optional<WorkloadId> workload_from_string(std::string_view name) {
  for (const WorkloadId w : {WorkloadId::kPaperGrid, WorkloadId::kOnlineFleet,
                             WorkloadId::kTiersRw}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

std::uint64_t Inputs::offered_requests() const {
  std::uint64_t n = 0;
  for (const auto& c : cells) n += c.trace->size();
  return n;
}

Inputs make_inputs(WorkloadId w, std::uint64_t seed) {
  switch (w) {
    case WorkloadId::kPaperGrid: return paper_grid(seed);
    case WorkloadId::kOnlineFleet: return online_fleet(seed);
    case WorkloadId::kTiersRw: return tiers_rw(seed);
  }
  return {};
}

}  // namespace e2e
