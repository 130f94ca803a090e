// Differential suite for the heap-driven solvers.
//
// core::solve_gwmin (GWMIN and GWMIN2 over the CSR conflict graph) and the
// lazy-heap set cover each promise to reproduce a linear-scan specification
// *exactly*, because the scheduling pipeline's determinism gates (sweep
// fingerprints, emitter goldens) pin the historical outputs. solve_gwmin is
// replayed against an in-test replica of its historical semantics: a full
// argmax scan per round in which the higher node id wins equal scores. The
// inputs are 200 seeded random graphs (continuous and quantised weights),
// synthetic offline batches, and tie-heavy inputs on which most rounds are
// decided by the tie-break alone: unit-weight random graphs, path, cycle,
// star, clique and isolated shapes, and the equal-gap trace. A 10k-node
// smoke (which the ASan preset re-runs) checks the independence contract
// and the GWMIN weight guarantee at scale.
//
// It also links the counting operator new shim (support/counting_new.cpp)
// to pin the zero-allocation contract of warm-workspace solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/conflict_graph.hpp"
#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"
#include "placement/placement.hpp"
#include "reference/solver_reference.hpp"
#include "support/counting_new.hpp"
#include "support/gwmin_inputs.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace eas {
namespace {

using testing::allocations_during;

/// A ConflictGraph over the given node weights and undirected edges (the
/// builder validates the edge list).
core::ConflictGraph conflict_graph(
    std::vector<double> weights,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  graph::WeightedGraphBuilder b(std::move(weights));
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return testing::conflict_graph_of(b.build());
}

bool is_independent(const core::ConflictGraph& g,
                    const std::vector<std::uint32_t>& selected) {
  return g.to_weighted_graph().is_independent(
      std::vector<std::size_t>(selected.begin(), selected.end()));
}

enum class WeightMode {
  kContinuous,  // uniform doubles: ties essentially impossible
  kQuantised,   // weights from {1, 2, 4}: score ties common
  kUnit,        // all 1.0: maximally tie-heavy
};

core::ConflictGraph random_graph(std::size_t n, double density,
                                 WeightMode mode, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> weights;
  for (std::size_t v = 0; v < n; ++v) {
    switch (mode) {
      case WeightMode::kContinuous:
        weights.push_back(rng.uniform(0.1, 10.0));
        break;
      case WeightMode::kQuantised:
        weights.push_back(
            static_cast<double>(1 << rng.uniform_int(0, 2)));
        break;
      case WeightMode::kUnit:
        weights.push_back(1.0);
        break;
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.bernoulli(density)) edges.emplace_back(u, v);
    }
  }
  return conflict_graph(std::move(weights), edges);
}

// --- conflict-graph solve_gwmin vs linear-scan replica ----------------------

/// In-test replica of core::solve_gwmin's *historical* semantics: a full
/// linear argmax per round over (score, node id) with the HIGHER id winning
/// ties (the order a lazy max-heap of std::pair<double, uint32_t> pops),
/// degrees decremented per kill, and — critically — GWMIN2 neighbourhood
/// weights maintained by incremental subtraction in doomed-major CSR-minor
/// order, so floating-point rounding matches the production solver bit for
/// bit.
std::vector<std::uint32_t> solve_gwmin_replica(const core::ConflictGraph& g,
                                               bool use_gwmin2) {
  const std::size_t n = g.size();
  std::vector<char> alive(n, 1);
  std::vector<std::uint32_t> degree(n);
  std::vector<double> nbr_weight(n, 0.0);
  for (std::uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.degree(v));
    if (use_gwmin2) {
      for (std::uint32_t u : g.neighbors(v)) nbr_weight[v] += g.nodes[u].weight;
    }
  }
  auto score = [&](std::uint32_t v) {
    if (use_gwmin2) {
      const double denom = g.nodes[v].weight + nbr_weight[v];
      return denom == 0.0 ? 1.0 : g.nodes[v].weight / denom;
    }
    return g.nodes[v].weight / static_cast<double>(degree[v] + 1);
  };

  std::vector<std::uint32_t> selected;
  std::size_t remaining = n;
  while (remaining > 0) {
    bool found = false;
    double best_score = 0.0;
    std::uint32_t best = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const double s = score(v);
      // >= keeps the later (higher) index on exact ties.
      if (!found || s >= best_score) {
        found = true;
        best_score = s;
        best = v;
      }
    }
    selected.push_back(best);
    std::vector<std::uint32_t> doomed{best};
    alive[best] = 0;
    --remaining;
    for (std::uint32_t u : g.neighbors(best)) {
      if (alive[u]) {
        alive[u] = 0;
        --remaining;
        doomed.push_back(u);
      }
    }
    for (std::uint32_t u : doomed) {
      for (std::uint32_t w : g.neighbors(u)) {
        if (!alive[w]) continue;
        --degree[w];
        if (use_gwmin2) nbr_weight[w] -= g.nodes[u].weight;
      }
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

void expect_matches_replica(const core::ConflictGraph& g,
                            const std::string& what) {
  for (bool gw2 : {false, true}) {
    EXPECT_EQ(core::solve_gwmin(g, gw2), solve_gwmin_replica(g, gw2))
        << what << " gwmin2=" << gw2;
  }
}

class GwminDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GwminDiffTest, HeapMatchesReferenceScanExactly) {
  const std::uint64_t seed = GetParam();
  // Two graphs per seed (continuous + tie-heavy quantised weights) times
  // 100 seeds = the 200-graph differential sweep; size and density vary
  // with the seed so the family covers sparse chains through near-cliques.
  const std::size_t n = 4 + static_cast<std::size_t>(seed % 61);
  const double density =
      0.02 + 0.96 * static_cast<double>(seed % 17) / 16.0;
  for (WeightMode mode : {WeightMode::kContinuous, WeightMode::kQuantised}) {
    expect_matches_replica(random_graph(n, density, mode, seed),
                           "seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GwminDiffTest,
                         ::testing::Range<std::uint64_t>(1, 101));

core::ConflictGraph synthetic_conflict_graph(std::size_t requests,
                                             std::uint64_t seed) {
  trace::SyntheticTraceConfig tc;
  tc.num_requests = requests;
  tc.num_data = static_cast<DataId>(requests / 2);
  tc.mean_rate = 30.0;
  tc.seed = seed;
  const auto t = trace::make_synthetic_trace(tc);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 24;
  pc.num_data = static_cast<DataId>(requests / 2);
  pc.replication_factor = 3;
  pc.seed = seed + 1;
  const auto placement = placement::make_zipf_placement(pc);
  return core::build_conflict_graph(t, placement, disk::DiskPowerParams{},
                                    {});
}

TEST(SolveGwminDiff, MatchesLinearScanReplicaOnSyntheticBatches) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const auto g = synthetic_conflict_graph(600, seed);
    ASSERT_GT(g.size(), 0u) << "seed " << seed;
    expect_matches_replica(g, "synthetic seed " + std::to_string(seed));
  }
}

TEST(GwminDiff, AdversarialTieFamilies) {
  // Tie-heavy inputs: with equal weights nearly every round is a tie, so
  // any deviation from the higher-index rule changes the answer.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_matches_replica(random_graph(32, 0.2, WeightMode::kUnit, seed),
                           "unit seed " + std::to_string(seed));
  }
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t v = 0; v + 1 < 24; ++v) edges.emplace_back(v, v + 1);
  expect_matches_replica(conflict_graph(std::vector<double>(24, 1.0), edges),
                         "path");
  edges.clear();
  for (std::size_t v = 0; v < 16; ++v) edges.emplace_back(v, (v + 1) % 16);
  expect_matches_replica(conflict_graph(std::vector<double>(16, 2.0), edges),
                         "cycle");
  // Star plus isolated zero-weight nodes (GWMIN2's denom == 0 branch).
  edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  expect_matches_replica(
      conflict_graph({1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0}, edges), "star");
  edges.clear();
  for (std::size_t u = 0; u < 12; ++u) {
    for (std::size_t v = u + 1; v < 12; ++v) edges.emplace_back(u, v);
  }
  expect_matches_replica(conflict_graph(std::vector<double>(12, 3.0), edges),
                         "clique");
  expect_matches_replica(conflict_graph(std::vector<double>(9, 1.0), {}),
                         "isolated");

  const auto in = testing::equal_gap_instance();
  const auto g = core::build_conflict_graph(in.trace, in.placement,
                                            disk::DiskPowerParams{}, {});
  std::set<double> weights;
  for (const auto& node : g.nodes) weights.insert(node.weight);
  ASSERT_GT(g.size(), 500u);
  EXPECT_LE(weights.size(), 11u);  // one X per grid multiple in the window
  expect_matches_replica(g, "equal-gap trace");
}

TEST(GwminDiff, WorkspaceReuseAcrossDifferentGraphsIsClean) {
  // A workspace warmed on a large graph must not leak stale heap positions,
  // degrees, neighbourhood weights or epoch marks into a later, smaller
  // solve.
  core::GwminWorkspace ws;
  std::vector<std::uint32_t> out;
  const auto big = random_graph(60, 0.3, WeightMode::kQuantised, 7);
  const auto small = random_graph(9, 0.5, WeightMode::kUnit, 8);
  for (int round = 0; round < 3; ++round) {
    for (bool gw2 : {false, true}) {
      core::solve_gwmin(big, gw2, ws, out);
      EXPECT_EQ(out, solve_gwmin_replica(big, gw2)) << "big " << gw2;
      core::solve_gwmin(small, gw2, ws, out);
      EXPECT_EQ(out, solve_gwmin_replica(small, gw2)) << "small " << gw2;
    }
  }
}

TEST(GwminDiff, TenThousandNodeSmoke) {
  // Scale smoke (re-run under ASan by the sanitize preset): solve a 10k
  // node graph with both greedies and check the independence contract and
  // the GWMIN weight guarantee.
  const std::size_t n = 10000;
  util::Rng rng(42);
  std::vector<double> weights;
  for (std::size_t v = 0; v < n; ++v) weights.push_back(rng.uniform(0.5, 10));
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t e = 0; e < 4 * n; ++e) {
    auto u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto v = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const auto g = conflict_graph(std::move(weights), edges);
  double bound = 0.0;
  for (std::uint32_t v = 0; v < n; ++v) {
    bound += g.nodes[v].weight / static_cast<double>(g.degree(v) + 1);
  }
  const auto sel = core::solve_gwmin(g);
  EXPECT_TRUE(is_independent(g, sel));
  double total = 0.0;
  for (const std::uint32_t v : sel) total += g.nodes[v].weight;
  EXPECT_GE(total, bound - 1e-9);
  EXPECT_TRUE(is_independent(g, core::solve_gwmin(g, true)));
}

TEST(Gwmin, SolutionsAreAlwaysIndependent) {
  std::vector<std::pair<std::size_t, std::size_t>> path;
  for (std::size_t v = 0; v + 1 < 9; ++v) path.emplace_back(v, v + 1);
  const auto g = conflict_graph({5, 4, 3, 2, 1, 2, 3, 4, 5}, path);
  EXPECT_EQ(core::solve_gwmin(g), (std::vector<std::uint32_t>{0, 2, 4, 6, 8}));
  EXPECT_TRUE(is_independent(g, core::solve_gwmin(g, true)));
}

TEST(Gwmin, TakesTheHeavyIsolatedVertexFirst) {
  const auto g = conflict_graph({100.0, 1.0, 1.0}, {{1, 2}});
  // The tie between the two light nodes goes to the higher id.
  EXPECT_EQ(core::solve_gwmin(g), (std::vector<std::uint32_t>{0, 2}));
}

TEST(Gwmin2, HandlesZeroWeightGraphs) {
  const auto g = conflict_graph({0.0, 0.0}, {{0, 1}});
  EXPECT_EQ(core::solve_gwmin(g, true), (std::vector<std::uint32_t>{1}));
}

// --- set cover: lazy heap vs reference scan ---------------------------------

graph::SetCoverInstance random_cover(std::size_t elements, std::size_t sets,
                                     double density, bool tie_heavy,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  graph::SetCoverInstance inst;
  inst.num_elements = elements;
  inst.sets.resize(sets);
  for (auto& s : inst.sets) {
    // Tie-heavy instances quantise weights and set sizes so many sets share
    // the exact (ratio, fresh) key and selection hinges on the index rule.
    s.weight = tie_heavy ? static_cast<double>(rng.uniform_int(0, 2))
                         : rng.uniform(0.5, 10.0);
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

class SetCoverDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetCoverDiffTest, HeapMatchesReferenceScanExactly) {
  const std::uint64_t seed = GetParam();
  const std::size_t elements = 8 + (seed % 40);
  const std::size_t sets = 4 + (seed % 23);
  const double density = 0.05 + 0.5 * static_cast<double>(seed % 7) / 6.0;
  for (bool tie_heavy : {false, true}) {
    const auto inst =
        random_cover(elements, sets, density, tie_heavy, seed);
    const auto fast = graph::greedy_weighted_set_cover(inst);
    const auto ref = graph::greedy_weighted_set_cover_reference(inst);
    EXPECT_EQ(fast.chosen_sets, ref.chosen_sets)
        << "seed " << seed << " tie_heavy " << tie_heavy;
    EXPECT_EQ(fast.total_weight, ref.total_weight)
        << "seed " << seed << " tie_heavy " << tie_heavy;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetCoverDiffTest,
                         ::testing::Range<std::uint64_t>(1, 31));

// --- zero-allocation contracts ----------------------------------------------

TEST(SolverAllocation, WarmConflictSolveIsAllocationFree) {
  const auto g = synthetic_conflict_graph(400, 21);
  ASSERT_GT(g.size(), 0u);
  core::GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  core::solve_gwmin(g, false, ws, selected);
  core::solve_gwmin(g, true, ws, selected);
  EXPECT_EQ(
      allocations_during([&] { core::solve_gwmin(g, false, ws, selected); }),
      0u);
  EXPECT_EQ(
      allocations_during([&] { core::solve_gwmin(g, true, ws, selected); }),
      0u);
}

TEST(SolverAllocation, WarmImplicitBuildAndSolveAreAllocationFree) {
  trace::SyntheticTraceConfig tc;
  tc.num_requests = 400;
  tc.num_data = 200;
  tc.mean_rate = 30.0;
  tc.seed = 21;
  const auto t = trace::make_synthetic_trace(tc);
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 24;
  pc.num_data = 200;
  pc.replication_factor = 3;
  pc.seed = 22;
  const auto placement = placement::make_zipf_placement(pc);
  const disk::DiskPowerParams power;
  core::ConflictGraphWorkspace gws;
  core::ImplicitConflictGraph g;
  core::GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  const auto build = [&] {
    core::build_implicit_conflict_graph(t, placement, power, {}, gws, g);
  };
  build();
  core::solve_gwmin_implicit(g, ws, selected);
  g.selection_weight(selected);
  ASSERT_GT(g.size(), 0u);
  EXPECT_EQ(allocations_during(build), 0u);
  EXPECT_EQ(allocations_during(
                [&] { core::solve_gwmin_implicit(g, ws, selected); }),
            0u);
  EXPECT_EQ(allocations_during([&] { g.selection_weight(selected); }), 0u);
}

}  // namespace
}  // namespace eas
