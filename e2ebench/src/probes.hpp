// Per-layer timing for the traced run. Timing decorators wrap the
// scheduler and power policy a registry spec builds, the storage::run_*
// call is timed around them, and offline (MWIS) cells additionally time
// the core stage functions one by one. None of this touches a simulated
// value: the traced run's result digest must equal the untraced run's. A
// traced offline cell throws (and so fails) when its assignment is invalid
// or kBest did not keep the cheaper of the two single-seed schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/sweep.hpp"

namespace e2e {

/// Host time and work counts for one traced cell; folded over cells with
/// operator+=. Times are seconds unless named otherwise.
struct LayerStats {
  double storage_run_s = 0.0;  ///< inside storage::run_* (or run_cell)
  std::uint64_t storage_requests = 0;
  double pick_s = 0.0;  ///< OnlineScheduler::pick
  std::uint64_t picks = 0;
  double assign_s = 0.0;  ///< BatchScheduler::assign
  std::uint64_t batches = 0;
  double hook_s = 0.0;  ///< PowerPolicy callbacks
  std::uint64_t hook_calls = 0;

  // Offline (MWIS) cells.
  std::uint64_t pile_wins = 0;
  double mwis_schedule_s = 0.0;  ///< MwisOfflineScheduler::schedule, kBest
  double discarded_s = 0.0;      ///< the seed kBest threw away
  double graph_build_s = 0.0;
  double gwmin_s = 0.0;
  double refine_s = 0.0;        ///< both seeds, as kBest refines them
  double offline_eval_s = 0.0;  ///< the two seed evaluations kBest makes
  std::uint64_t graph_nodes = 0;  ///< largest graph over cells
  std::uint64_t graph_edges = 0;  ///< largest graph over cells
  double graph_mib = 0.0;         ///< largest graph over cells
  std::uint64_t gwmin_selected = 0;
  std::uint64_t refine_moves = 0;

  LayerStats& operator+=(const LayerStats& o);
};

/// Returns `cells` with every cell rerouted through the traced path. Cell
/// i writes only stats[i], so the copies may run on any worker; `stats`
/// must hold one entry per cell and outlive the sweep.
std::vector<eas::runner::CellSpec> traced_cells(
    const std::vector<eas::runner::CellSpec>& cells,
    std::vector<LayerStats>& stats);

}  // namespace e2e
