// Linear-scan reference set cover: the executable specification that the
// lazy-heap set cover in eas_graph is differentially tested against
// (test_graph_diff). Test-only: it is compiled into the test binary, never
// into the shipped library.
#pragma once

#include "graph/set_cover.hpp"

namespace eas::graph {

/// The original per-round linear scan: min (ratio, -fresh, set index) each
/// round. O(rounds · sets · set size).
SetCoverSolution greedy_weighted_set_cover_reference(
    const SetCoverInstance& instance);

}  // namespace eas::graph
