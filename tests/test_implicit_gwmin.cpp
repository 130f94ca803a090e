// Differential suite for the implicit-neighbourhood GWMIN.
//
// core::solve_gwmin_implicit never stores the conflict graph's edges: a
// node's neighbours are the conflicting members of its two requests'
// buckets. It promises the selection the CSR pair build_conflict_graph +
// solve_gwmin(g, false) makes — the same nodes, the same degree for every
// node, the same selected set and a bit-identical selected saving. This
// binary checks that on 300 seeded random instances (1–12 disks, 1–5
// replicas, mixed replication factors, runs of duplicate timestamps,
// horizons 1–4, both power models) and the tie-heavy equal-gap trace with
// one set of reused workspaces, and on the five Cello-like paper cells at a
// reduced request count. The random sweep must contain both node-pair
// shapes the implicit rule treats specially: the same (i,j) on two disks
// (counted from bucket i only) and two successors of one request on the
// same disk (a conflict although the disks agree).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/conflict_graph.hpp"
#include "core/mwis_scheduler.hpp"
#include "disk/params.hpp"
#include "placement/placement.hpp"
#include "runner/experiment.hpp"
#include "support/gwmin_inputs.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace eas::core {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Reused across every instance, so buffer reuse is under test too.
struct Workspaces {
  ConflictGraphWorkspace graph;
  GwminWorkspace gwmin;
  ImplicitConflictGraph implicit;
  std::vector<std::uint32_t> selected;
  std::vector<std::uint32_t> degree;
};

/// Node pairs of the two shapes the implicit rule handles specially.
struct Shapes {
  std::size_t twins = 0;           // same (i,j), different disks
  std::size_t same_disk_succ = 0;  // same i, same disk, different j
};

Shapes count_shapes(const ConflictGraph& g) {
  Shapes s;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    for (std::uint32_t u : g.neighbors(v)) {
      if (u < v) continue;
      const SavingNode& a = g.nodes[v];
      const SavingNode& b = g.nodes[u];
      if (a.i == b.i && a.j == b.j) ++s.twins;
      if (a.i == b.i && a.k == b.k) ++s.same_disk_succ;
    }
  }
  return s;
}

/// Builds both graphs and solves both; every observable must agree.
Shapes expect_identical(const trace::Trace& trace,
                        const placement::PlacementMap& placement,
                        const disk::DiskPowerParams& power,
                        std::size_t horizon, Workspaces& ws,
                        const std::string& what) {
  ConflictGraphOptions options;
  options.successor_horizon = horizon;
  const ConflictGraph csr =
      build_conflict_graph(trace, placement, power, options);
  const auto expected = solve_gwmin(csr);

  build_implicit_conflict_graph(trace, placement, power, options, ws.graph,
                                ws.implicit);
  const ImplicitConflictGraph& g = ws.implicit;
  EXPECT_EQ(g.size(), csr.size()) << what;
  EXPECT_EQ(g.num_requests(), trace.size()) << what;
  for (std::uint32_t v = 0; v < std::min(g.size(), csr.size()); ++v) {
    const SavingNode& a = g.nodes[v];
    const SavingNode& b = csr.nodes[v];
    EXPECT_TRUE(a.i == b.i && a.j == b.j && a.k == b.k &&
                bits_of(a.weight) == bits_of(b.weight))
        << what << ": node " << v;
  }

  const std::size_t edges = implicit_degrees(g, ws.degree);
  EXPECT_EQ(edges, csr.num_edges()) << what;
  std::size_t degree_sum = 0;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    degree_sum += ws.degree[v];
    EXPECT_EQ(ws.degree[v], csr.degree(v)) << what << ": degree of " << v;
  }
  EXPECT_EQ(degree_sum / 2, csr.num_edges()) << what;

  EXPECT_EQ(solve_gwmin_implicit(ws.implicit, ws.gwmin, ws.selected),
            csr.num_edges())
      << what;
  EXPECT_EQ(ws.selected, expected) << what;
  EXPECT_EQ(bits_of(ws.implicit.selection_weight(ws.selected)),
            bits_of(csr.selection_weight(expected)))
      << what;

  // The solve permuted the buckets; a second solve must not notice.
  const std::vector<std::uint32_t> first = ws.selected;
  solve_gwmin_implicit(ws.implicit, ws.gwmin, ws.selected);
  EXPECT_EQ(ws.selected, first) << what << " (second solve)";
  return count_shapes(csr);
}

struct Instance {
  trace::Trace trace;
  placement::PlacementMap placement;
};

/// Random instance: `disks` disks, up to `rf` distinct replicas per data
/// item (exactly `rf` unless `mixed_rf`), few data items so requests repeat
/// (the same (i,j) then lands on every shared replica), inter-arrival gaps
/// spread around the saving window, and runs of duplicate timestamps.
Instance random_instance(util::Rng& rng, DiskId disks, unsigned rf,
                         bool mixed_rf, const disk::DiskPowerParams& power) {
  const auto num_data = static_cast<DataId>(1 + rng.next_below(24));
  std::vector<std::vector<DiskId>> locations(num_data);
  std::vector<DiskId> perm(disks);
  for (auto& locs : locations) {
    std::iota(perm.begin(), perm.end(), DiskId{0});
    for (DiskId i = disks; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
    const auto copies = mixed_rf ? 1 + rng.next_below(rf) : rf;
    locs.assign(perm.begin(), perm.begin() + static_cast<long>(copies));
  }
  const double window = std::max(power.saving_window_seconds(), 1.0);
  const std::size_t n = 1 + rng.next_below(160);
  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.bernoulli(0.25)) t += rng.uniform(0.0, 1.5) * window;
    recs.push_back(
        {t, static_cast<DataId>(rng.next_below(num_data)), 4096, true});
  }
  return {trace::Trace(std::move(recs)),
          placement::PlacementMap(disks, std::move(locations))};
}

TEST(ImplicitGwminDiff, MatchesCsrOnRandomInstances) {
  util::Rng rng(0x1a9e1c);
  const disk::DiskPowerParams powers[] = {disk::example_power_params(),
                                          disk::DiskPowerParams{}};
  Workspaces ws;
  Shapes total;
  std::size_t nodes = 0;
  for (int i = 0; i < 300; ++i) {
    const auto disks = static_cast<DiskId>(1 + rng.next_below(12));
    const auto rf = static_cast<unsigned>(
        1 + rng.next_below(std::min<DiskId>(disks, 5)));
    const std::size_t horizon = 1 + rng.next_below(4);
    const disk::DiskPowerParams& power = powers[i % 2];
    const Instance in =
        random_instance(rng, disks, rf, /*mixed_rf=*/i % 4 == 3, power);
    const std::string what = "instance " + std::to_string(i) + " (" +
                             std::to_string(disks) + " disks, rf " +
                             std::to_string(rf) + ", horizon " +
                             std::to_string(horizon) + ")";
    const Shapes s = expect_identical(in.trace, in.placement, power, horizon,
                                      ws, what);
    total.twins += s.twins;
    total.same_disk_succ += s.same_disk_succ;
    nodes += ws.implicit.size();
  }
  // Most of the equal-gap trace's weights tie, so only the (score, id) total
  // order keeps the two neighbour visit orders from diverging.
  const auto eq = testing::equal_gap_instance();
  expect_identical(eq.trace, eq.placement, disk::DiskPowerParams{}, 2, ws,
                   "equal-gap trace");
  // The sweep must exercise both special shapes, and real graphs.
  EXPECT_GT(total.twins, 500u);
  EXPECT_GT(total.same_disk_succ, 500u);
  EXPECT_GT(nodes, 10000u);
}

TEST(ImplicitGwminDiff, MatchesCsrOnCelloPaperCells) {
  Workspaces ws;
  for (unsigned rf = 1; rf <= 5; ++rf) {
    runner::ExperimentParams p;
    p.num_requests = 3000;
    p.replication_factor = rf;
    const auto trace = runner::make_workload(p.workload, p.trace_seed,
                                             p.num_requests);
    const auto placement = runner::make_placement(p);
    const auto power = runner::system_config_for(p).power;
    expect_identical(trace, placement, power, p.mwis_horizon, ws,
                     "cello rf " + std::to_string(rf));
    EXPECT_GT(ws.implicit.size(), 0u) << "rf " << rf;
  }
}

TEST(ImplicitGwminDiff, SchedulerDiagnosticsMatchTheCsrGraph) {
  runner::ExperimentParams p;
  p.num_requests = 3000;
  p.replication_factor = 3;
  const auto trace = runner::make_workload(p.workload, p.trace_seed,
                                           p.num_requests);
  const auto placement = runner::make_placement(p);
  const auto power = runner::system_config_for(p).power;
  MwisOptions o;
  o.seed = MwisOptions::Seed::kSolverOnly;
  o.graph.successor_horizon = p.mwis_horizon;
  MwisOfflineScheduler sched(o);
  sched.schedule(trace, placement, power);

  const ConflictGraph csr =
      build_conflict_graph(trace, placement, power, o.graph);
  const auto selected = solve_gwmin(csr);
  EXPECT_EQ(sched.last_graph_nodes(), csr.size());
  EXPECT_EQ(sched.last_graph_edges(), csr.num_edges());
  EXPECT_EQ(sched.last_selected_count(), selected.size());
  EXPECT_EQ(bits_of(sched.last_selected_saving()),
            bits_of(csr.selection_weight(selected)));
}

}  // namespace
}  // namespace eas::core
