// Local-search refinement of offline assignments.
//
// §5.1 of the paper notes that "WSC and MWIS could achieve even lower energy
// by using more sophisticated set cover and independent set algorithms".
// This pass is that sophistication for the offline side: a hill-climb that
// repeatedly moves single requests between replica locations whenever the
// move lowers the schedule's Lemma-1 energy.
//
// Why single-request deltas are exact: under the offline evaluator, total
// energy equals the sum of per-request consumptions plus standby floor —
// each used disk's initial spin-up is exactly offset by the final request's
// ceiling charge — so moving one request only perturbs the consumptions of
// its old/new disk neighbours. Each disk's candidate requests sit in a
// static trace-order array with an occupancy bitset, so finding those
// neighbours is a word scan and evaluating a request costs
// O(replication factor · occupancy words scanned).
#pragma once

#include "core/scheduler.hpp"

namespace eas::core {

struct RefineStats {
  std::size_t passes = 0;
  std::size_t moves = 0;       ///< single-request relocations
  std::size_t pair_moves = 0;  ///< adjacent-pair relocations
  double energy_delta = 0.0;   ///< total (negative = improvement)
};

/// Greedily reassigns requests to lower-energy replica locations, sweeping
/// the trace in time order until a pass makes no move or `max_passes` is
/// reached. Each pass combines single-request moves with adjacent-pair
/// moves: relocating two consecutive requests of one disk together escapes
/// the plateaus where the first single move alone is energy-neutral (e.g.
/// migrating an isolated saving pair onto an otherwise-unused replica).
/// The assignment is modified in place and stays valid.
RefineStats refine_offline_assignment(OfflineAssignment& assignment,
                                      const trace::Trace& trace,
                                      const placement::PlacementMap& placement,
                                      const disk::DiskPowerParams& power,
                                      std::size_t max_passes = 3);

}  // namespace eas::core
