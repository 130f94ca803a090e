#include "solver_reference.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace eas::graph {

namespace {

/// Shared greedy skeleton of the *reference* solvers: `score(v, alive,
/// alive_degree)` ranks surviving vertices by a full linear rescan; the best
/// one joins the solution and N[v] is deleted. O(n·k). Retained verbatim as
/// the executable specification the heap solvers are differentially tested
/// against (the heap's tie-break contract is "exactly what this scan does":
/// first strictly-better vertex wins, so equal scores keep the lowest
/// index).
template <typename ScoreFn>
MwisSolution greedy_mwis(const WeightedGraph& g, ScoreFn score) {
  const std::size_t n = g.size();
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> alive_degree(n);
  for (std::size_t v = 0; v < n; ++v) alive_degree[v] = g.degree(v);
  std::size_t remaining = n;

  MwisSolution sol;
  while (remaining > 0) {
    double best_score = -1.0;
    std::size_t best = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const double s = score(v, alive, alive_degree);
      if (s > best_score) {
        best_score = s;
        best = v;
      }
    }
    EAS_DCHECK(best < n);
    sol.vertices.push_back(best);
    sol.total_weight += g.weight(best);

    // Delete the closed neighbourhood N[best].
    auto kill = [&](std::size_t v) {
      if (!alive[v]) return;
      alive[v] = false;
      --remaining;
      for (std::uint32_t u : g.neighbors(v)) {
        if (alive[u]) --alive_degree[u];
      }
    };
    kill(best);
    for (std::uint32_t u : g.neighbors(best)) kill(u);
  }
  std::sort(sol.vertices.begin(), sol.vertices.end());
  if constexpr (audit_enabled()) check_independent(g, sol.vertices);
  return sol;
}

}  // namespace

MwisSolution gwmin_reference(const WeightedGraph& g) {
  return greedy_mwis(g, [&g](std::size_t v, const std::vector<bool>&,
                             const std::vector<std::size_t>& alive_degree) {
    return g.weight(v) / static_cast<double>(alive_degree[v] + 1);
  });
}

MwisSolution gwmin2_reference(const WeightedGraph& g) {
  return greedy_mwis(
      g, [&g](std::size_t v, const std::vector<bool>& alive,
              const std::vector<std::size_t>&) {
        double nbr = 0.0;
        for (std::uint32_t u : g.neighbors(v)) {
          if (alive[u]) nbr += g.weight(u);
        }
        const double denom = g.weight(v) + nbr;
        // An isolated zero-weight vertex is harmless to take: score 1.
        return denom == 0.0 ? 1.0 : g.weight(v) / denom;
      });
}

SetCoverSolution greedy_weighted_set_cover_reference(
    const SetCoverInstance& instance) {
  instance.validate();
  EAS_REQUIRE_MSG(instance.feasible(), "set cover instance is infeasible");

  std::vector<char> covered(instance.num_elements, 0);
  std::size_t remaining = instance.num_elements;
  SetCoverSolution sol;

  // Full scan per round: lexicographic minimum of (ratio, -fresh, set),
  // realised by "first strictly better set wins" so equal keys keep the
  // lowest index — the order the lazy heap must reproduce exactly.
  while (remaining > 0) {
    std::size_t best = instance.sets.size();
    double best_ratio = 0.0;
    std::size_t best_fresh = 0;
    for (std::size_t s = 0; s < instance.sets.size(); ++s) {
      std::size_t fresh = 0;
      for (std::size_t e : instance.sets[s].elements) {
        if (!covered[e]) ++fresh;
      }
      if (fresh == 0) continue;
      const double ratio =
          instance.sets[s].weight / static_cast<double>(fresh);
      if (best == instance.sets.size() || ratio < best_ratio ||
          (ratio == best_ratio && fresh > best_fresh)) {
        best = s;
        best_ratio = ratio;
        best_fresh = fresh;
      }
    }
    EAS_CHECK_MSG(best < instance.sets.size(),
                  "greedy stalled with " << remaining << " uncovered");
    sol.chosen_sets.push_back(best);
    sol.total_weight += instance.sets[best].weight;
    for (std::size_t e : instance.sets[best].elements) {
      if (!covered[e]) {
        covered[e] = 1;
        --remaining;
      }
    }
  }
  if constexpr (audit_enabled()) check_cover(sol, instance);
  return sol;
}

}  // namespace eas::graph
