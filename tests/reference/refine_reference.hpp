// The original std::set refinement: one red-black tree of (time, request)
// keys per disk, with predecessor/successor found by tree search. Retained
// as the executable specification that the flat-array
// core::refine_offline_assignment is differentially tested against
// (test_refine_diff). Test-only: never compiled into the shipped library.
#pragma once

#include "core/refine.hpp"

namespace eas::core {

/// Same contract as refine_offline_assignment: same moves in the same
/// order, same RefineStats, bit for bit.
RefineStats refine_offline_assignment_reference(
    OfflineAssignment& assignment, const trace::Trace& trace,
    const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power, std::size_t max_passes = 3);

}  // namespace eas::core
