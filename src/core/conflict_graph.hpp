// Conflict-graph construction for offline scheduling (§3.1.2, Fig 4).
//
// Step 1 creates a node for every energy-saving opportunity X(i,j,k) > 0:
// request i scheduled on disk k with request j as its successor, both of
// whose data live on k (Eq. 4), with j arriving inside the saving window
// (Eq. 3). Step 2 adds an edge between nodes that cannot coexist in a valid
// schedule:
//   * energy-constraint: same first request i (a request has one successor);
//   * schedule-constraint: the nodes share a request but name different
//     disks (a request is served by exactly one disk).
//
// Scale control: the paper's formulation enumerates *all* co-located pairs
// (i,j); on a 70k-request trace that is quadratic in burst length. Because
// X(i,j,k) strictly decreases as the gap grows, far successors are strictly
// worse choices, so we enumerate only the next `successor_horizon`
// co-located requests per (request, disk). horizon=1 keeps the densest
// chain; the Fig 4 instance needs horizon >= 2 to contain every node the
// paper draws. This is a documented approximation knob of the *candidate
// set*, not of the solver.
//
// Two representations share Step 1 and the per-request node buckets:
//   * ConflictGraph stores Step 2's edges as CSR. It feeds GWMIN2 (whose
//     neighbourhood sums depend on CSR row order), the exact solver, and
//     the tests and probes that inspect edges.
//   * ImplicitConflictGraph stores no edges: a node's neighbours are the
//     conflicting members of its two requests' buckets. It feeds
//     solve_gwmin_implicit, the default MwisOfflineScheduler path, and is
//     tested against the CSR pair in test_implicit_gwmin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "disk/params.hpp"
#include "graph/indexed_heap.hpp"
#include "graph/mwis.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"
#include "util/epoch_marker.hpp"
#include "util/ids.hpp"

namespace eas::core {

/// One energy-saving opportunity X(i,j,k).
struct SavingNode {
  std::uint32_t i = 0;  ///< earlier request (trace index)
  std::uint32_t j = 0;  ///< candidate successor (trace index), t_j >= t_i
  DiskId k = kInvalidDisk;
  double weight = 0.0;  ///< X(i,j,k) > 0
};

struct ConflictGraphOptions {
  /// Candidate successors considered per (request, disk); >= 1.
  std::size_t successor_horizon = 2;
};

/// The §3.1.2 graph. Adjacency is stored in CSR form (offsets + flat
/// neighbour array) because production instances reach tens of millions of
/// edges, where per-vertex vectors and hashed dedup dominate runtime.
struct ConflictGraph {
  std::vector<SavingNode> nodes;
  /// CSR: neighbours of v are adj_data[adj_offsets[v] .. adj_offsets[v+1]).
  std::vector<std::size_t> adj_offsets;
  std::vector<std::uint32_t> adj_data;

  std::size_t size() const { return nodes.size(); }
  std::size_t num_edges() const { return adj_data.size() / 2; }

  /// Neighbours of node v.
  std::span<const std::uint32_t> neighbors(std::uint32_t v) const {
    return {adj_data.data() + adj_offsets[v],
            adj_offsets[v + 1] - adj_offsets[v]};
  }
  std::size_t degree(std::uint32_t v) const {
    return adj_offsets[v + 1] - adj_offsets[v];
  }

  /// Total weight of a node subset; also verifies independence + validity
  /// invariants under EAS_CHECK (used by tests and the scheduler).
  double selection_weight(const std::vector<std::uint32_t>& selected) const;

  /// Materialises an explicit graph::WeightedGraph (small instances only —
  /// tests, exact solves, ablations).
  graph::WeightedGraph to_weighted_graph() const;
};

/// One member of a request's node bucket. Node v = (i, j, k) sits in the
/// buckets of both its requests; carrying i and k inline lets a bucket scan
/// test conflicts without touching the node array.
struct BucketEntry {
  std::uint32_t v = 0;
  std::uint32_t i = 0;
  DiskId k = kInvalidDisk;
};

/// Reusable scratch for both builds: a sweep builds one graph per cell, and
/// the per-disk request lists, per-request node buckets, and counting-sort
/// cursors dominate its transient allocations. All are flat arrays filled
/// by counting sort; keeping one workspace alive across cells reuses them
/// at their high-water capacity.
struct ConflictGraphWorkspace {
  /// Requests whose data disk k stores, in trace order:
  /// disk_requests[disk_offsets[k] .. disk_offsets[k+1]).
  std::vector<std::size_t> disk_offsets;
  std::vector<std::uint32_t> disk_requests;
  /// Per-request node buckets (CSR build only; the implicit graph owns its
  /// own): members of request r are
  /// bucket[bucket_offsets[r] .. bucket_offsets[r+1]), in node-id order.
  std::vector<std::size_t> bucket_offsets;
  std::vector<BucketEntry> bucket;
  std::vector<std::size_t> cursor;
  /// Node count of the previous build — the reservation estimate for the
  /// next one (cells in a sweep are similar-sized).
  std::size_t last_node_count = 0;
};

ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options = {});

/// As above, reusing `ws` buffers across calls.
ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options,
                                   ConflictGraphWorkspace& ws);

/// Reusable scratch for solve_gwmin and solve_gwmin_implicit (the indexed
/// selection heap, incremental degrees, neighbourhood weights, and the
/// per-selection doomed list). Liveness is the heap's membership set — no
/// separate alive array.
struct GwminWorkspace {
  graph::IndexedScoreHeap heap;
  std::vector<std::uint32_t> degree;
  /// nodes[v].weight copied dense: the select loop indexes weights at
  /// random, and an 8-byte-stride array stays cache-resident where the
  /// 24-byte SavingNode array does not. Same doubles, same rounding.
  std::vector<double> weight;
  std::vector<double> nbr_weight;
  std::vector<std::uint32_t> doomed;
  /// Survivors adjacent to this round's kills, deduplicated — each gets one
  /// heap re-key with its final post-round score.
  util::EpochMarker touched;
  std::vector<std::uint32_t> touch_list;
  /// solve_gwmin_implicit only: live members at the front of each bucket.
  std::vector<std::uint32_t> live;
};

/// Scalable GWMIN/GWMIN2 over a ConflictGraph: indexed max-heap keyed by
/// (score, node id), degrees and neighbourhood weights maintained
/// incrementally, O((V+E) log V) with no tombstone traffic. Selection order
/// (including the higher-id tie-break the historical lazy pair-heap had) is
/// pinned by the sweep fingerprints and test_graph_diff.
/// Returns selected node ids.
std::vector<std::uint32_t> solve_gwmin(const ConflictGraph& g,
                                       bool use_gwmin2 = false);

/// As above, reusing `ws` buffers across calls and writing into `selected`:
/// with a warmed workspace and a reused `selected` buffer, a solve performs
/// no heap allocation at all (pinned by the counting-allocator test in
/// test_graph_diff).
void solve_gwmin(const ConflictGraph& g, bool use_gwmin2, GwminWorkspace& ws,
                 std::vector<std::uint32_t>& selected);

/// The §3.1.2 graph with its edges left implicit: Step 1's nodes (numbered
/// as in build_conflict_graph) plus one bucket per request. Bucket r holds
/// bucket[bucket_offsets[r] .. bucket_offsets[r+1]), every node with i == r
/// or j == r, in no particular order. Two nodes are adjacent iff they share
/// a bucket and either have the same first request i or name different
/// disks — exactly ConflictGraph's edges, none of which are stored. At
/// rf=5 on the paper's Cello cell that is 2 bucket entries per node instead
/// of ~66 CSR entries.
struct ImplicitConflictGraph {
  std::vector<SavingNode> nodes;
  std::vector<std::size_t> bucket_offsets;
  std::vector<BucketEntry> bucket;

  std::size_t size() const { return nodes.size(); }
  std::size_t num_requests() const {
    return bucket_offsets.empty() ? 0 : bucket_offsets.size() - 1;
  }

  /// Total weight of a node subset. Always verifies (EAS_REQUIRE) that the
  /// subset is independent, straight from the conflict rule: no node twice,
  /// no two nodes with the same first request, and every request the subset
  /// touches named on one disk only.
  double selection_weight(const std::vector<std::uint32_t>& selected) const;
};

/// Step 1 plus the buckets, reusing `g`'s and `ws`'s buffers: with both
/// warm, a build performs no heap allocation.
void build_implicit_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options,
                                   ConflictGraphWorkspace& ws,
                                   ImplicitConflictGraph& g);

/// The second half of that build: refills g's buckets from g.nodes, whose
/// requests must be < num_requests.
void build_buckets(ImplicitConflictGraph& g, std::size_t num_requests,
                   ConflictGraphWorkspace& ws);

/// The degree of every node in the implicit graph, the same integers the
/// CSR build's adj_offsets encode. Returns the edge count (sum of degrees
/// over 2).
std::size_t implicit_degrees(const ImplicitConflictGraph& g,
                             std::vector<std::uint32_t>& degree);

/// GWMIN (score w/(deg+1), highest id first among equal scores) over the
/// implicit graph. Selects exactly the set solve_gwmin(g, false) selects on
/// the CSR graph of the same instance: degrees are the same integers and
/// the pop order is a total order, so the order in which neighbours are
/// visited cannot matter. Permutes the members of each bucket (it moves
/// dead nodes behind the live ones). With a warm workspace and `selected`
/// buffer it performs no heap allocation. Returns the number of edges.
std::size_t solve_gwmin_implicit(ImplicitConflictGraph& g, GwminWorkspace& ws,
                                 std::vector<std::uint32_t>& selected);

}  // namespace eas::core
