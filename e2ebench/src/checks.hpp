// Output checks run on every cell result, and the result digest that lets
// two builds (or the traced and untraced runs) be compared bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace e2e {

/// Appends one message per broken invariant of a finished cell: the cell
/// failed; a request was not accounted exactly once (served + shed +
/// abandoned + unavailable == trace size); a disk's state seconds do not
/// sum to the horizon; or a disk's joules differ from power × seconds.
void check_cell(const eas::runner::CellResult& cell,
                std::vector<std::string>& errors);

/// FNV-1a over every cell's RunResult::to_json(true), in cell order.
std::uint64_t result_digest(const std::vector<eas::runner::CellResult>& cells);

}  // namespace e2e
