#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace e2e {

using namespace eas;

namespace {

/// Relative tolerance for sums of per-interval floating-point terms.
constexpr double kRelTol = 1e-9;

bool close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max({1.0, std::abs(a), std::abs(b)});
}

double watts(const disk::DiskPowerParams& p, int state) {
  switch (static_cast<disk::DiskState>(state)) {
    case disk::DiskState::Standby: return p.standby_watts;
    case disk::DiskState::SpinningUp: return p.spinup_watts;
    case disk::DiskState::Idle: return p.idle_watts;
    case disk::DiskState::Active: return p.active_watts;
    case disk::DiskState::SpinningDown: return p.spindown_watts;
  }
  return 0.0;
}

}  // namespace

void check_cell(const runner::CellResult& cell,
                std::vector<std::string>& errors) {
  const std::string where = "cell " + std::to_string(cell.index) + " (" +
                            cell.spec.scheduler + " " + cell.spec.tag + "): ";
  if (cell.status != runner::CellStatus::kOk) {
    errors.push_back(where + (cell.status == runner::CellStatus::kFailed
                                  ? "failed: " + cell.error
                                  : std::string("skipped")));
    return;
  }
  const storage::RunResult& r = cell.result;

  const std::uint64_t accounted = r.total_requests +
                                  r.reliability_stats.shed +
                                  r.reliability_stats.abandoned +
                                  r.fault_stats.unavailable_requests;
  if (accounted != cell.spec.trace->size()) {
    std::ostringstream os;
    os << where << "served " << r.total_requests << " + shed "
       << r.reliability_stats.shed << " + abandoned "
       << r.reliability_stats.abandoned << " + unavailable "
       << r.fault_stats.unavailable_requests
       << " != " << cell.spec.trace->size()
       << " requests";
    errors.push_back(os.str());
  }

  const auto power = runner::system_config_for(cell.spec.params).power;
  for (std::size_t k = 0; k < r.disk_stats.size(); ++k) {
    const disk::DiskStats& d = r.disk_stats[k];
    if (!close(d.total_seconds(), r.horizon)) {
      std::ostringstream os;
      os.precision(17);
      os << where << "disk " << k << " state seconds " << d.total_seconds()
         << " != horizon " << r.horizon;
      errors.push_back(os.str());
    }
    for (int s = 0; s < disk::kNumDiskStates; ++s) {
      const double expect = watts(power, s) * d.seconds_in_state[s];
      if (!close(d.joules_in_state[s], expect)) {
        std::ostringstream os;
        os.precision(17);
        os << where << "disk " << k << " "
           << disk::to_string(static_cast<disk::DiskState>(s)) << " joules "
           << d.joules_in_state[s] << " != power x seconds " << expect;
        errors.push_back(os.str());
      }
    }
  }
}

std::uint64_t result_digest(const std::vector<runner::CellResult>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& c : cells) {
    for (const unsigned char ch : c.result.to_json(/*include_disks=*/true)) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace e2e
