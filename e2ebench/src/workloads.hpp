// The benchmark's three workloads and the set-up that generates their
// inputs from a seed. Each workload is a fixed list of sweep cells that
// share immutable traces and placements; the library sees only those
// generated inputs, never the seed that made them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "runner/sweep.hpp"

namespace e2e {

enum class WorkloadId { kPaperGrid, kOnlineFleet, kTiersRw };

const char* to_string(WorkloadId w);
std::optional<WorkloadId> workload_from_string(std::string_view name);

/// What set-up produces: every cell with its trace and placement attached,
/// the worker count the workload runs on, and the host time set-up took.
struct Inputs {
  std::vector<eas::runner::CellSpec> cells;
  std::size_t threads = 1;
  double trace_gen_s = 0.0;
  double placement_build_s = 0.0;

  /// Simulated requests offered to one pass over the cells.
  std::uint64_t offered_requests() const;
};

/// Generates the traces and placements for workload `w` from `seed` and
/// declares its cells. The same seed always gives the same inputs.
Inputs make_inputs(WorkloadId w, std::uint64_t seed);

}  // namespace e2e
