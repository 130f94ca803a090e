// Micro-benchmarks: combinatorial kernels (set cover, explicit-graph
// construction, conflict-graph construction and GWMIN, offline refinement,
// Zipf sampling).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

#include "core/conflict_graph.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/refine.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "runner/experiment.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

using namespace eas;

namespace {

graph::SetCoverInstance random_cover(std::size_t elements, std::size_t sets,
                                     double density, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::SetCoverInstance inst;
  inst.num_elements = elements;
  inst.sets.resize(sets);
  for (auto& s : inst.sets) {
    s.weight = rng.uniform(0.5, 10.0);
    for (std::size_t e = 0; e < elements; ++e) {
      if (rng.bernoulli(density)) s.elements.push_back(e);
    }
  }
  // One universal set guarantees feasibility.
  inst.sets.push_back({100.0, {}});
  for (std::size_t e = 0; e < elements; ++e) {
    inst.sets.back().elements.push_back(e);
  }
  return inst;
}

void BM_GreedySetCover(benchmark::State& state) {
  const auto inst = random_cover(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(0)) / 2,
                                 0.05, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::greedy_weighted_set_cover(inst));
  }
}
BENCHMARK(BM_GreedySetCover)->Arg(64)->Arg(512)->Arg(4096);

/// CSR construction from a pre-generated edge list: items/sec should stay
/// flat as n grows (linear counting-sort build — the old representation's
/// per-insertion O(deg) duplicate probe made this superlinear).
void BM_WeightedGraphBuild(benchmark::State& state) {
  util::Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights;
  for (std::size_t v = 0; v < n; ++v) weights.push_back(rng.uniform(1, 10));
  // ~4n distinct edges sampled directly (a density sweep would be O(n^2)).
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t e = 0; e < 4 * n; ++e) {
    const auto u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (u < v) edges.emplace_back(u, v);
    if (v < u) edges.emplace_back(v, u);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (auto _ : state) {
    graph::WeightedGraphBuilder b(weights);
    for (const auto& [u, v] : edges) b.add_edge(u, v);
    benchmark::DoNotOptimize(b.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_WeightedGraphBuild)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ConflictGraphBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  trace::SyntheticTraceConfig tc;
  tc.num_requests = n;
  tc.num_data = static_cast<DataId>(n / 2);
  tc.mean_rate = 35.0;
  const auto t = trace::make_synthetic_trace(tc);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 60;
  pc.num_data = static_cast<DataId>(n / 2);
  pc.replication_factor = 3;
  const auto placement = placement::make_zipf_placement(pc);
  const disk::DiskPowerParams power;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_conflict_graph(t, placement, power, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConflictGraphBuild)->Arg(2000)->Arg(10000);

void BM_SolveGwminConflict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  trace::SyntheticTraceConfig tc;
  tc.num_requests = n;
  tc.num_data = static_cast<DataId>(n / 2);
  tc.mean_rate = 35.0;
  const auto t = trace::make_synthetic_trace(tc);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 60;
  pc.num_data = static_cast<DataId>(n / 2);
  pc.replication_factor = 3;
  const auto placement = placement::make_zipf_placement(pc);
  const auto g =
      core::build_conflict_graph(t, placement, disk::DiskPowerParams{}, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_gwmin(g));
  }
}
BENCHMARK(BM_SolveGwminConflict)->Arg(2000)->Arg(10000);

/// The instance of BM_SolveGwminConflict through the implicit-neighbourhood
/// path. One iteration is nodes -> selection: the bucket fill, the degree
/// pass and the select loop. The CSR bench starts from a built graph; the
/// implicit graph has no edges to build ahead of time.
void BM_SolveGwminImplicit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  trace::SyntheticTraceConfig tc;
  tc.num_requests = n;
  tc.num_data = static_cast<DataId>(n / 2);
  tc.mean_rate = 35.0;
  const auto t = trace::make_synthetic_trace(tc);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 60;
  pc.num_data = static_cast<DataId>(n / 2);
  pc.replication_factor = 3;
  const auto placement = placement::make_zipf_placement(pc);
  core::ConflictGraphWorkspace gws;
  core::ImplicitConflictGraph g;
  core::build_implicit_conflict_graph(t, placement, disk::DiskPowerParams{},
                                      {}, gws, g);
  core::GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  for (auto _ : state) {
    core::build_buckets(g, t.size(), gws);
    core::solve_gwmin_implicit(g, ws, selected);
    benchmark::DoNotOptimize(selected.data());
  }
}
BENCHMARK(BM_SolveGwminImplicit)->Arg(2000)->Arg(10000);

/// Local-search refinement of the densest-pile seed on a fixed 20k-request
/// Cello-like trace over the paper's 180-disk Zipf placement, at the
/// replication factor given as the argument. One iteration refines a fresh
/// copy of the seed for the paper cells' pass budget.
void BM_RefineOffline(benchmark::State& state) {
  runner::ExperimentParams p;
  p.num_requests = 20000;
  p.replication_factor = static_cast<unsigned>(state.range(0));
  const auto t = runner::make_workload(p.workload, p.trace_seed,
                                       p.num_requests);
  const auto placement = runner::make_placement(p);
  const auto power = runner::system_config_for(p).power;
  core::MwisOptions o;
  o.seed = core::MwisOptions::Seed::kPileOnly;
  o.refine_passes = 0;
  const core::OfflineAssignment seed =
      core::MwisOfflineScheduler(o).schedule(t, placement, power);
  for (auto _ : state) {
    core::OfflineAssignment a = seed;
    benchmark::DoNotOptimize(core::refine_offline_assignment(
        a, t, placement, power, p.mwis_refine_passes));
    benchmark::DoNotOptimize(a.disk_of_request.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_RefineOffline)->Arg(2)->Arg(5);

void BM_ZipfSample(benchmark::State& state) {
  util::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.9);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(180)->Arg(32768);

}  // namespace

BENCHMARK_MAIN();
