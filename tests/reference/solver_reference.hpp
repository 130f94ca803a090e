// Linear-scan reference solvers: the executable specifications that the
// heap-driven gwmin/gwmin2 and the lazy-heap set cover in eas_graph are
// differentially tested against (test_graph_diff). Test-only: they are
// compiled into the test binary, never into the shipped library.
#pragma once

#include "graph/mwis.hpp"
#include "graph/set_cover.hpp"

namespace eas::graph {

/// The original linear-scan greedies, retained verbatim. O(n·k): rescans
/// every survivor per selection; the first strictly-better vertex wins, so
/// equal scores keep the lowest index.
MwisSolution gwmin_reference(const WeightedGraph& g);
MwisSolution gwmin2_reference(const WeightedGraph& g);

/// The original per-round linear scan: min (ratio, -fresh, set index) each
/// round. O(rounds · sets · set size).
SetCoverSolution greedy_weighted_set_cover_reference(
    const SetCoverInstance& instance);

}  // namespace eas::graph
