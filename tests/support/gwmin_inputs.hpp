// Inputs for the GWMIN tests (test_graph_diff, test_implicit_gwmin,
// test_mwis): hand-built conflict graphs and a tie-heavy offline instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/conflict_graph.hpp"
#include "graph/mwis.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace eas::testing {

/// A ConflictGraph with g's weights and CSR rows. Only the weights and the
/// rows matter to core::solve_gwmin, so the X(i,j,k) labels stay default.
inline core::ConflictGraph conflict_graph_of(const graph::WeightedGraph& g) {
  core::ConflictGraph c;
  c.adj_offsets.push_back(0);
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    core::SavingNode node;
    node.weight = g.weight(v);
    c.nodes.push_back(node);
    for (const std::uint32_t u : g.neighbors(v)) c.adj_data.push_back(u);
    c.adj_offsets.push_back(c.adj_data.size());
  }
  return c;
}

struct EqualGapInstance {
  trace::Trace trace;
  placement::PlacementMap placement;
};

/// 600 reads 4 s apart over 60 data items, Zipf-placed on 24 disks at rf 3.
/// The grid step is a power of two, so every successor gap t_j - t_i is an
/// exact multiple of it and X(i,j,k) takes one bit-equal value per multiple:
/// under the default power model (saving window ~46 s) at most eleven
/// distinct weights, and the selection order hinges on the heap's index
/// tie-break.
inline EqualGapInstance equal_gap_instance() {
  constexpr DataId kData = 60;
  util::Rng rng(7);
  std::vector<trace::TraceRecord> recs;
  for (std::size_t i = 0; i < 600; ++i) {
    recs.push_back({4.0 * static_cast<double>(i),
                    static_cast<DataId>(rng.next_below(kData)), 4096, true});
  }
  placement::ZipfPlacementConfig pc;
  pc.num_disks = 24;
  pc.num_data = kData;
  pc.replication_factor = 3;
  pc.seed = 8;
  return {trace::Trace(std::move(recs)), placement::make_zipf_placement(pc)};
}

}  // namespace eas::testing
