#include "core/conflict_graph.hpp"

#include <algorithm>

#include "core/energy_model.hpp"
#include "util/check.hpp"
#include "util/epoch_marker.hpp"

namespace eas::core {

double ConflictGraph::selection_weight(
    const std::vector<std::uint32_t>& selected) const {
  thread_local util::EpochMarker in;
  in.begin(nodes.size());
  double total = 0.0;
  for (std::uint32_t v : selected) {
    EAS_REQUIRE_MSG(v < nodes.size(), "selected node out of range");
    EAS_REQUIRE_MSG(!in.marked(v), "node " << v << " selected twice");
    in.mark(v);
    total += nodes[v].weight;
  }
  for (std::uint32_t v : selected) {
    for (std::uint32_t u : neighbors(v)) {
      EAS_REQUIRE_MSG(!in.marked(u),
                      "selection is not independent: " << v << " ~ " << u);
    }
  }
  return total;
}

double ImplicitConflictGraph::selection_weight(
    const std::vector<std::uint32_t>& selected) const {
  // Two nodes conflict iff they share a request and either have the same
  // first request or name different disks. So a subset is independent iff
  // each request is some selected node's first request at most once, and
  // every selected node naming a request names the same disk for it.
  struct Scratch {
    util::EpochMarker in, first_taken, named;
    std::vector<std::uint32_t> first_owner, name_owner;
  };
  thread_local Scratch s;
  const std::size_t requests = num_requests();
  s.in.begin(nodes.size());
  s.first_taken.begin(requests);
  s.named.begin(requests);
  if (s.first_owner.size() < requests) {
    s.first_owner.resize(requests);
    s.name_owner.resize(requests);
  }
  double total = 0.0;
  for (std::uint32_t v : selected) {
    EAS_REQUIRE_MSG(v < nodes.size(), "selected node out of range");
    EAS_REQUIRE_MSG(!s.in.marked(v), "node " << v << " selected twice");
    s.in.mark(v);
    const SavingNode& n = nodes[v];
    EAS_REQUIRE_MSG(!s.first_taken.marked(n.i),
                    "selection is not independent: " << v << " ~ "
                                                     << s.first_owner[n.i]);
    s.first_taken.mark(n.i);
    s.first_owner[n.i] = v;
    for (std::uint32_t r : {n.i, n.j}) {
      if (!s.named.marked(r)) {
        s.named.mark(r);
        s.name_owner[r] = v;
        continue;
      }
      EAS_REQUIRE_MSG(nodes[s.name_owner[r]].k == n.k,
                      "selection is not independent: " << v << " ~ "
                                                       << s.name_owner[r]);
    }
    total += n.weight;
  }
  return total;
}

graph::WeightedGraph ConflictGraph::to_weighted_graph() const {
  // Hand the existing CSR straight to the graph layer — no per-vertex
  // vector round-trip, no re-insertion of m edges through a builder. The
  // WeightedGraph constructor audits the structure in bulk under
  // EASCHED_AUDIT.
  std::vector<double> weights;
  weights.reserve(nodes.size());
  for (const auto& n : nodes) weights.push_back(n.weight);
  return graph::WeightedGraph(std::move(weights), adj_offsets, adj_data);
}

namespace {

/// Invokes `fn(u, v)` exactly once per conflicting node pair. Conflicts are
/// found through per-request buckets; a pair sharing *both* endpoints (the
/// same (i,j) on two disks) appears in two buckets and is emitted only from
/// bucket i, so no hashed dedup is needed.
template <typename Fn>
void for_each_conflict(const ConflictGraph& g,
                       const std::vector<std::size_t>& offsets,
                       const std::vector<BucketEntry>& bucket, Fn fn) {
  for (std::uint32_t r = 0; r + 1 < offsets.size(); ++r) {
    const std::size_t end = offsets[r + 1];
    for (std::size_t a = offsets[r]; a < end; ++a) {
      const SavingNode& u = g.nodes[bucket[a].v];
      for (std::size_t b = a + 1; b < end; ++b) {
        const SavingNode& v = g.nodes[bucket[b].v];
        if (u.i != v.i && u.k == v.k) continue;  // compatible
        if (u.i == v.i && u.j == v.j && u.j == r) continue;  // seen at bucket i
        fn(bucket[a].v, bucket[b].v);
      }
    }
  }
}

/// Step 1: nodes for every in-window candidate pair within the horizon,
/// disk-major, each disk's requests in trace order.
void build_saving_nodes(const trace::Trace& trace,
                        const placement::PlacementMap& placement,
                        const disk::DiskPowerParams& power,
                        const ConflictGraphOptions& options,
                        ConflictGraphWorkspace& ws,
                        std::vector<SavingNode>& nodes) {
  EAS_REQUIRE_MSG(options.successor_horizon >= 1, "horizon must be >= 1");

  // Per-disk time-ordered lists of requests whose data lives there, by
  // counting sort (the trace is time-sorted, so each list is too).
  const DiskId disks = placement.num_disks();
  auto& offsets = ws.disk_offsets;
  offsets.assign(disks + 1, 0);
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    for (DiskId k : placement.locations(trace[i].data)) ++offsets[k + 1];
  }
  for (DiskId k = 0; k < disks; ++k) offsets[k + 1] += offsets[k];
  ws.disk_requests.resize(offsets[disks]);
  ws.cursor.assign(offsets.begin(), offsets.end() - 1);
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    for (DiskId k : placement.locations(trace[i].data)) {
      ws.disk_requests[ws.cursor[k]++] = i;
    }
  }

  // The node count is data-dependent, so the workspace remembers the last
  // call's count as the reservation estimate: repeated builds over
  // similar-sized cells (the sweep and scheduler hot path) size the vector
  // in one allocation instead of a geometric growth chain. (A counting
  // pre-pass and the total_entries * horizon bound were both measurably
  // slower: the former re-walks every candidate pair, the latter cold-faults
  // megabytes it never uses.)
  nodes.clear();
  nodes.reserve(ws.last_node_count);
  const double window = power.saving_window_seconds();
  for (DiskId k = 0; k < disks; ++k) {
    const std::uint32_t* list = ws.disk_requests.data() + offsets[k];
    const std::size_t len = offsets[k + 1] - offsets[k];
    for (std::size_t p = 0; p < len; ++p) {
      const std::uint32_t i = list[p];
      for (std::size_t h = 1; h <= options.successor_horizon && p + h < len;
           ++h) {
        const std::uint32_t j = list[p + h];
        const double dt = trace[j].time - trace[i].time;
        if (dt >= window) break;  // later candidates are even farther
        const double w =
            pairwise_energy_saving(trace[i].time, trace[j].time, power);
        if (w > 0.0) nodes.push_back(SavingNode{i, j, k, w});
      }
    }
  }
  ws.last_node_count = nodes.size();
}

/// Per-request node buckets by counting sort. Nodes are placed in id order,
/// so each bucket lists its members in ascending id order (the CSR build's
/// row order depends on it).
void fill_buckets(const std::vector<SavingNode>& nodes,
                  std::size_t num_requests, std::vector<std::size_t>& cursor,
                  std::vector<std::size_t>& offsets,
                  std::vector<BucketEntry>& bucket) {
  EAS_REQUIRE_MSG(nodes.size() < (std::size_t{1} << 32),
                  "conflict graph exceeds 2^32 nodes");
  offsets.assign(num_requests + 1, 0);
  for (const SavingNode& n : nodes) {
    ++offsets[n.i + 1];
    ++offsets[n.j + 1];
  }
  for (std::size_t r = 0; r < num_requests; ++r) offsets[r + 1] += offsets[r];
  bucket.resize(offsets[num_requests]);
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (std::uint32_t v = 0; v < nodes.size(); ++v) {
    const SavingNode& n = nodes[v];
    const BucketEntry e{v, n.i, n.k};
    bucket[cursor[n.i]++] = e;
    bucket[cursor[n.j]++] = e;
  }
}

}  // namespace

ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options) {
  ConflictGraphWorkspace ws;
  return build_conflict_graph(trace, placement, power, options, ws);
}

ConflictGraph build_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options,
                                   ConflictGraphWorkspace& ws) {
  ConflictGraph g;
  build_saving_nodes(trace, placement, power, options, ws, g.nodes);

  // Step 2: CSR adjacency in two passes over the conflict pairs — count
  // degrees, then place. Each conflicting pair is visited exactly once.
  fill_buckets(g.nodes, trace.size(), ws.cursor, ws.bucket_offsets,
               ws.bucket);
  g.adj_offsets.assign(g.nodes.size() + 1, 0);
  for_each_conflict(g, ws.bucket_offsets, ws.bucket,
                    [&](std::uint32_t u, std::uint32_t v) {
                      ++g.adj_offsets[u + 1];
                      ++g.adj_offsets[v + 1];
                    });
  for (std::size_t v = 0; v < g.nodes.size(); ++v) {
    g.adj_offsets[v + 1] += g.adj_offsets[v];
  }
  g.adj_data.resize(g.adj_offsets.back());
  ws.cursor.assign(g.adj_offsets.begin(), g.adj_offsets.end() - 1);
  auto& cursor = ws.cursor;
  for_each_conflict(g, ws.bucket_offsets, ws.bucket,
                    [&](std::uint32_t u, std::uint32_t v) {
                      g.adj_data[cursor[u]++] = v;
                      g.adj_data[cursor[v]++] = u;
                    });
  return g;
}

void build_implicit_conflict_graph(const trace::Trace& trace,
                                   const placement::PlacementMap& placement,
                                   const disk::DiskPowerParams& power,
                                   const ConflictGraphOptions& options,
                                   ConflictGraphWorkspace& ws,
                                   ImplicitConflictGraph& g) {
  build_saving_nodes(trace, placement, power, options, ws, g.nodes);
  build_buckets(g, trace.size(), ws);
}

void build_buckets(ImplicitConflictGraph& g, std::size_t num_requests,
                   ConflictGraphWorkspace& ws) {
  fill_buckets(g.nodes, num_requests, ws.cursor, g.bucket_offsets, g.bucket);
}

namespace {

/// Hot selection loop ([[hotpath]]: no allocation, no throw). Pops the
/// (score, highest-id) maximum — the exact order the historical lazy
/// pair-heap produced, since a live node's freshest entry always dominated
/// its stale ones — deletes its closed neighbourhood from the heap, then
/// re-keys each survivor adjacent to a kill. Heap membership doubles as the
/// alive set; the two-phase kill keeps the historical update order: all of
/// N[v] leaves the heap before any survivor is re-scored, and degree /
/// nbr_weight decrements land in the same doomed-major, CSR-minor order as
/// before, so every score is the bit-identical double.
void gwmin_select_loop(const ConflictGraph& g, bool use_gwmin2,
                       GwminWorkspace& ws,
                       std::vector<std::uint32_t>& selected) {
  auto& heap = ws.heap;
  auto& doomed = ws.doomed;
  auto& degree = ws.degree;
  const auto& weight = ws.weight;
  auto& nbr_weight = ws.nbr_weight;
  auto& touch_list = ws.touch_list;
  while (!heap.empty()) {
    const auto top = heap.top();
    heap.pop_top();
    selected.push_back(top.v);

    doomed.clear();
    doomed.push_back(top.v);
    for (const std::uint32_t u : g.neighbors(top.v)) {
      if (heap.contains(u)) {
        heap.remove(u);
        doomed.push_back(u);
      }
    }
    // Apply every degree / nbr_weight decrement first (same doomed-major,
    // CSR-minor order as always — the nbr_weight rounding sequence is
    // pinned), then re-key each touched survivor once with its final
    // post-round score. A survivor adjacent to several kills would
    // otherwise pay one sift-up per kill for intermediate keys nothing
    // ever reads.
    ws.touched.begin(g.size());
    touch_list.clear();
    for (const std::uint32_t u : doomed) {
      const double uw = weight[u];
      for (const std::uint32_t w : g.neighbors(u)) {
        if (!heap.contains(w)) continue;
        --degree[w];
        if (use_gwmin2) nbr_weight[w] -= uw;
        if (!ws.touched.marked(w)) {
          ws.touched.mark(w);
          touch_list.push_back(w);
        }
      }
    }
    for (const std::uint32_t w : touch_list) {
      double s;
      if (use_gwmin2) {
        const double denom = weight[w] + nbr_weight[w];
        s = denom == 0.0 ? 1.0 : weight[w] / denom;
      } else {
        s = weight[w] / static_cast<double>(degree[w] + 1);
      }
      heap.increase(w, s);
    }
  }
}

}  // namespace

std::vector<std::uint32_t> solve_gwmin(const ConflictGraph& g,
                                       bool use_gwmin2) {
  GwminWorkspace ws;
  std::vector<std::uint32_t> selected;
  solve_gwmin(g, use_gwmin2, ws, selected);
  return selected;
}

void solve_gwmin(const ConflictGraph& g, bool use_gwmin2, GwminWorkspace& ws,
                 std::vector<std::uint32_t>& selected) {
  selected.clear();
  const auto n = static_cast<std::uint32_t>(g.size());
  ws.degree.resize(n);
  ws.weight.resize(n);
  auto& degree = ws.degree;
  auto& weight = ws.weight;
  auto& nbr_weight = ws.nbr_weight;
  for (std::uint32_t v = 0; v < n; ++v) weight[v] = g.nodes[v].weight;
  if (use_gwmin2) nbr_weight.assign(n, 0.0);
  std::size_t max_deg = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.degree(v));
    max_deg = std::max(max_deg, g.degree(v));
    if (use_gwmin2) {
      for (std::uint32_t u : g.neighbors(v)) nbr_weight[v] += weight[u];
    }
  }
  ws.doomed.clear();
  ws.doomed.reserve(max_deg + 1);

  ws.heap.assign(n, [&](std::uint32_t v) {
    if (use_gwmin2) {
      const double denom = weight[v] + nbr_weight[v];
      return denom == 0.0 ? 1.0 : weight[v] / denom;
    }
    return weight[v] / static_cast<double>(degree[v] + 1);
  });

  gwmin_select_loop(g, use_gwmin2, ws, selected);
  std::sort(selected.begin(), selected.end());
}

namespace {

// Implicit adjacency. Node n's neighbours are the conflicting members of
// bucket n.i and bucket n.j. A twin of n (the same (i,j) on another disk)
// sits in both buckets; like for_each_conflict, it is counted from bucket
// n.i only.

/// Does member `e` of bucket n.i conflict with n? (True for n itself.)
bool conflicts_at_first(const BucketEntry& e, const SavingNode& n) {
  return e.i == n.i || e.k != n.k;
}

/// Does member `e` of bucket n.j conflict with n?
bool conflicts_at_second(const BucketEntry& e, const SavingNode& n) {
  return e.i != n.i && e.k != n.k;
}

/// Visits the live members of bucket r on behalf of node n, calling `fn(w)`
/// for each that conflicts with n (kFirst: r == n.i, else r == n.j). Members
/// that have left the heap are swapped behind the live ones on the way, so
/// later scans of r skip them.
template <bool kFirst, typename Fn>
void scan_bucket(ImplicitConflictGraph& g, GwminWorkspace& ws,
                 std::uint32_t r, const SavingNode& n, Fn fn) {
  BucketEntry* b = g.bucket.data() + g.bucket_offsets[r];
  std::uint32_t live = ws.live[r];
  for (std::uint32_t p = 0; p < live;) {
    const BucketEntry e = b[p];
    if (!ws.heap.contains(e.v)) {
      b[p] = b[--live];
      b[live] = e;
      continue;
    }
    if (kFirst ? conflicts_at_first(e, n) : conflicts_at_second(e, n)) {
      fn(e.v);
    }
    ++p;
  }
  ws.live[r] = live;
}

/// Hot selection loop of solve_gwmin_implicit ([[hotpath]]: no allocation,
/// no throw). The same rounds as gwmin_select_loop in GWMIN mode: pop the
/// (score, highest-id) maximum, delete its closed neighbourhood, decrement
/// each survivor's degree once per dead neighbour, then re-key each touched
/// survivor once with its final score.
void implicit_select_loop(ImplicitConflictGraph& g, GwminWorkspace& ws,
                          std::vector<std::uint32_t>& selected) {
  auto& heap = ws.heap;
  auto& doomed = ws.doomed;
  auto& degree = ws.degree;
  const auto& weight = ws.weight;
  auto& touch_list = ws.touch_list;
  while (!heap.empty()) {
    const auto top = heap.top();
    heap.pop_top();
    selected.push_back(top.v);

    doomed.clear();
    doomed.push_back(top.v);
    const SavingNode& n = g.nodes[top.v];
    const auto kill = [&](std::uint32_t u) {
      heap.remove(u);
      doomed.push_back(u);
    };
    scan_bucket<true>(g, ws, n.i, n, kill);
    scan_bucket<false>(g, ws, n.j, n, kill);

    ws.touched.begin(g.size());
    touch_list.clear();
    const auto touch = [&](std::uint32_t w) {
      --degree[w];
      if (!ws.touched.marked(w)) {
        ws.touched.mark(w);
        touch_list.push_back(w);
      }
    };
    for (const std::uint32_t u : doomed) {
      const SavingNode& d = g.nodes[u];
      scan_bucket<true>(g, ws, d.i, d, touch);
      scan_bucket<false>(g, ws, d.j, d, touch);
    }
    for (const std::uint32_t w : touch_list) {
      heap.increase(w, weight[w] / static_cast<double>(degree[w] + 1));
    }
  }
}

}  // namespace

// One pair sweep per bucket with the rule of conflicts_at_first/second:
// members a, b of bucket r conflict there iff they have different first
// requests and different disks, or both have first request r. Twins share
// a first request that is not r in bucket j, so they count once.
std::size_t implicit_degrees(const ImplicitConflictGraph& g,
                             std::vector<std::uint32_t>& degree) {
  degree.assign(g.size(), 0);
  std::size_t edges = 0;
  for (std::uint32_t r = 0; r < g.num_requests(); ++r) {
    const std::size_t end = g.bucket_offsets[r + 1];
    for (std::size_t p = g.bucket_offsets[r]; p < end; ++p) {
      const BucketEntry& a = g.bucket[p];
      for (std::size_t q = p + 1; q < end; ++q) {
        const BucketEntry& b = g.bucket[q];
        if (a.i == b.i ? a.i == r : a.k != b.k) {
          ++degree[a.v];
          ++degree[b.v];
          ++edges;
        }
      }
    }
  }
  return edges;
}

std::size_t solve_gwmin_implicit(ImplicitConflictGraph& g, GwminWorkspace& ws,
                                 std::vector<std::uint32_t>& selected) {
  selected.clear();
  const auto n = static_cast<std::uint32_t>(g.size());
  const std::size_t edges = implicit_degrees(g, ws.degree);
  const auto& degree = ws.degree;
  ws.weight.resize(n);
  std::uint32_t max_deg = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    ws.weight[v] = g.nodes[v].weight;
    max_deg = std::max(max_deg, degree[v]);
  }
  ws.live.resize(g.num_requests());
  for (std::size_t r = 0; r < g.num_requests(); ++r) {
    ws.live[r] = static_cast<std::uint32_t>(g.bucket_offsets[r + 1] -
                                            g.bucket_offsets[r]);
  }
  ws.doomed.clear();
  ws.doomed.reserve(std::size_t{max_deg} + 1);

  const auto& weight = ws.weight;
  ws.heap.assign(n, [&](std::uint32_t v) {
    return weight[v] / static_cast<double>(degree[v] + 1);
  });

  implicit_select_loop(g, ws, selected);
  std::sort(selected.begin(), selected.end());
  return edges;
}

}  // namespace eas::core
