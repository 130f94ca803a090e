// Tests for the MWIS scheduler's seed selection (solver pipeline vs
// densest-pile greedy vs best-of-both) and its diagnostics.
#include <gtest/gtest.h>

#include "core/mwis_scheduler.hpp"
#include "core/offline_eval.hpp"
#include "paper_example.hpp"
#include "placement/placement.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace eas::core {
namespace {

using testing::example_offline_trace;
using testing::example_placement;
using testing::example_power;

struct Scenario {
  placement::PlacementMap placement;
  trace::Trace trace;
  disk::DiskPowerParams power;
};

Scenario medium_scenario(std::uint64_t seed) {
  placement::ZipfPlacementConfig pcfg;
  pcfg.num_disks = 20;
  pcfg.num_data = 400;
  pcfg.replication_factor = 3;
  pcfg.seed = seed;

  trace::SyntheticTraceConfig tcfg;
  tcfg.num_requests = 2000;
  tcfg.num_data = 400;
  tcfg.mean_rate = 8.0;
  tcfg.seed = seed;

  disk::DiskPowerParams power;  // production Barracuda model
  return Scenario{placement::make_zipf_placement(pcfg),
                  trace::make_synthetic_trace(tcfg), power};
}

double energy_of(const Scenario& s, const OfflineAssignment& a) {
  return evaluate_offline(s.trace, a, s.placement.num_disks(), s.power)
      .total_energy();
}

TEST(MwisSeeds, AllSeedModesProduceValidAssignments) {
  const auto s = medium_scenario(3);
  for (auto seed : {MwisOptions::Seed::kSolverOnly,
                    MwisOptions::Seed::kPileOnly, MwisOptions::Seed::kBest}) {
    MwisOptions opts;
    opts.seed = seed;
    opts.graph.successor_horizon = 2;
    MwisOfflineScheduler sched(opts);
    const auto a = sched.schedule(s.trace, s.placement, s.power);
    a.validate(s.trace, s.placement);  // throws on violation
  }
}

TEST(MwisSeeds, BestIsNoWorseThanEitherSeedAlone) {
  const auto s = medium_scenario(7);
  auto run = [&](MwisOptions::Seed seed) {
    MwisOptions opts;
    opts.seed = seed;
    opts.graph.successor_horizon = 2;
    opts.refine_passes = 3;
    MwisOfflineScheduler sched(opts);
    return energy_of(s, sched.schedule(s.trace, s.placement, s.power));
  };
  const double best = run(MwisOptions::Seed::kBest);
  EXPECT_LE(best, run(MwisOptions::Seed::kSolverOnly) + 1e-6);
  EXPECT_LE(best, run(MwisOptions::Seed::kPileOnly) + 1e-6);
}

TEST(MwisSeeds, DiagnosticsReportWinningSeed) {
  const auto s = medium_scenario(11);
  MwisOptions opts;
  opts.seed = MwisOptions::Seed::kPileOnly;
  MwisOfflineScheduler pile_only(opts);
  pile_only.schedule(s.trace, s.placement, s.power);
  EXPECT_TRUE(pile_only.last_used_pile_seed());

  opts.seed = MwisOptions::Seed::kSolverOnly;
  opts.graph.successor_horizon = 2;
  MwisOfflineScheduler solver_only(opts);
  solver_only.schedule(s.trace, s.placement, s.power);
  EXPECT_FALSE(solver_only.last_used_pile_seed());
  EXPECT_GT(solver_only.last_graph_nodes(), 0u);
  EXPECT_GT(solver_only.last_selected_count(), 0u);
  EXPECT_GT(solver_only.last_selected_saving(), 0.0);
}

TEST(MwisSeeds, PileOnlySkipsGraphConstruction) {
  const auto s = medium_scenario(13);
  MwisOptions opts;
  opts.seed = MwisOptions::Seed::kPileOnly;
  MwisOfflineScheduler sched(opts);
  sched.schedule(s.trace, s.placement, s.power);
  EXPECT_EQ(sched.last_graph_nodes(), 0u);
  EXPECT_EQ(sched.last_graph_edges(), 0u);
}

/// Every mode and solver returns the forced assignment, with no graph.
void expect_forced_assignment(const trace::Trace& trace,
                              const placement::PlacementMap& placement,
                              const disk::DiskPowerParams& power) {
  for (auto algorithm :
       {MwisOptions::Algorithm::kGwmin, MwisOptions::Algorithm::kGwmin2,
        MwisOptions::Algorithm::kExact}) {
    for (auto seed : {MwisOptions::Seed::kSolverOnly,
                      MwisOptions::Seed::kPileOnly, MwisOptions::Seed::kBest}) {
      MwisOptions opts;
      opts.algorithm = algorithm;
      opts.seed = seed;
      MwisOfflineScheduler sched(opts);
      const auto a = sched.schedule(trace, placement, power);
      ASSERT_EQ(a.disk_of_request.size(), trace.size());
      for (std::size_t r = 0; r < trace.size(); ++r) {
        EXPECT_EQ(a.disk_of_request[r], placement.original(trace[r].data))
            << "request " << r;
      }
      EXPECT_EQ(sched.last_graph_nodes(), 0u);
      EXPECT_EQ(sched.last_graph_edges(), 0u);
      EXPECT_EQ(sched.last_selected_count(), 0u);
      EXPECT_EQ(sched.last_selected_saving(), 0.0);
      EXPECT_FALSE(sched.last_used_pile_seed());
    }
  }
}

TEST(MwisSeeds, SingleReplicaPlacementReturnsTheForcedAssignment) {
  // 2000 requests at rf=1 make thousands of saving nodes: far past the
  // exact solver's vertex limit, which the forced path never reaches.
  placement::ZipfPlacementConfig pcfg;
  pcfg.num_disks = 20;
  pcfg.num_data = 400;
  pcfg.replication_factor = 1;
  pcfg.seed = 19;
  trace::SyntheticTraceConfig tcfg;
  tcfg.num_requests = 2000;
  tcfg.num_data = 400;
  tcfg.mean_rate = 8.0;
  tcfg.seed = 19;
  expect_forced_assignment(trace::make_synthetic_trace(tcfg),
                           placement::make_zipf_placement(pcfg),
                           disk::DiskPowerParams{});
}

TEST(MwisSeeds, MixedPlacementWithSingleReplicaRequestsIsForced) {
  // In the §2.3 placement b1 lives on d1 only; a trace that requests only
  // b1 is forced although other items have replicas.
  std::vector<trace::TraceRecord> recs;
  for (int t = 0; t < 8; ++t) {
    recs.push_back({static_cast<double>(t), 0, 4096, true});
  }
  const auto placement = example_placement();
  ASSERT_GT(placement.replication_factor(1), 1u);
  expect_forced_assignment(trace::Trace(std::move(recs)), placement,
                           example_power());
}

TEST(MwisSeeds, RefinementOnlyHelps) {
  const auto s = medium_scenario(17);
  auto run = [&](std::size_t passes) {
    MwisOptions opts;
    opts.graph.successor_horizon = 2;
    opts.refine_passes = passes;
    MwisOfflineScheduler sched(opts);
    return energy_of(s, sched.schedule(s.trace, s.placement, s.power));
  };
  const double raw = run(0);
  const double refined = run(4);
  EXPECT_LE(refined, raw + 1e-6);
}

TEST(MwisSeeds, PaperExampleSeedModeOutcomes) {
  // On the §2.3 instance the solver seed (exact MWIS) reaches the global
  // optimum (19 J). The pile greedy lands on schedule B (23 J) — a local
  // optimum refinement cannot leave — which is precisely why kBest keeps
  // the solver seed here.
  auto run = [&](MwisOptions::Seed seed) {
    MwisOptions opts;
    opts.seed = seed;
    opts.algorithm = MwisOptions::Algorithm::kExact;
    opts.graph.successor_horizon = 2;
    MwisOfflineScheduler sched(opts);
    const auto a = sched.schedule(example_offline_trace(), example_placement(),
                                  example_power());
    return evaluate_offline(example_offline_trace(), a, 4, example_power())
        .total_energy();
  };
  EXPECT_DOUBLE_EQ(run(MwisOptions::Seed::kSolverOnly), 19.0);
  EXPECT_DOUBLE_EQ(run(MwisOptions::Seed::kPileOnly), 23.0);
  EXPECT_DOUBLE_EQ(run(MwisOptions::Seed::kBest), 19.0);
}

}  // namespace
}  // namespace eas::core
