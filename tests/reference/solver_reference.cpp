#include "solver_reference.hpp"

#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace eas::graph {

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
