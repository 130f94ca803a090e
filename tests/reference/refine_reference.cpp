#include "refine_reference.hpp"

#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/energy_model.hpp"
#include "util/check.hpp"

namespace eas::core {

namespace {

/// (time, request index): a strict total order even under timestamp ties.
using Key = std::pair<double, std::uint32_t>;

/// Lemma-1 consumption between a request at `ti` and its successor at `tj`;
/// tj = +inf denotes "no successor" and yields the ceiling.
double cons(double ti, double tj, const disk::DiskPowerParams& p) {
  return pairwise_energy_consumption(ti, tj, p);
}

}  // namespace

RefineStats refine_offline_assignment_reference(
    OfflineAssignment& assignment, const trace::Trace& trace,
    const placement::PlacementMap& placement,
    const disk::DiskPowerParams& power, std::size_t max_passes) {
  assignment.validate(trace, placement);
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<std::set<Key>> on_disk(placement.num_disks());
  for (std::uint32_t r = 0; r < trace.size(); ++r) {
    on_disk[assignment.disk_of_request[r]].insert({trace[r].time, r});
  }

  // Consumption of the gap around an iterator position, treating missing
  // neighbours as "no successor" / "no predecessor".
  auto succ_time = [&](const std::set<Key>& s,
                       std::set<Key>::iterator it) {
    auto nx = std::next(it);
    return nx == s.end() ? inf : nx->first;
  };

  RefineStats stats;

  // Adjacent-pair move: relocate request r (at t1) together with the disk's
  // immediately following request s (at t2) onto a destination disk that
  // stores both and has no element inside (t1, t2). The shared cons(t1,t2)
  // term cancels between removal and insertion.
  auto try_pair_move = [&](std::uint32_t r) -> bool {
    const double t1 = trace[r].time;
    const DiskId from = assignment.disk_of_request[r];
    auto& src = on_disk[from];
    const auto it = src.find({t1, r});
    EAS_DCHECK(it != src.end());
    const auto it_s = std::next(it);
    if (it_s == src.end()) return false;
    const auto [t2, s] = *it_s;

    // Source-side delta (minus the cancelling cons(t1, t2) term).
    const double t_q = succ_time(src, it_s);
    double delta_remove = -cons(t2, t_q, power);
    if (it != src.begin()) {
      const double t_p = std::prev(it)->first;
      delta_remove += cons(t_p, t_q, power) - cons(t_p, t1, power);
    }

    double best_delta = -1e-9;
    DiskId best_disk = from;
    for (DiskId k : placement.locations(trace[r].data)) {
      if (k == from || !placement.stores(trace[s].data, k)) continue;
      auto& dst = on_disk[k];
      const auto pos1 = dst.lower_bound({t1, r});
      // Require the destination gap to be empty so both insertions stay
      // adjacent and the delta stays closed-form.
      if (pos1 != dst.end() && pos1->first < t2) continue;
      const double t_next = pos1 == dst.end() ? inf : pos1->first;
      double delta_insert = cons(t2, t_next, power);
      if (pos1 != dst.begin()) {
        const double t_p = std::prev(pos1)->first;
        delta_insert += cons(t_p, t1, power) - cons(t_p, t_next, power);
      }
      const double delta = delta_remove + delta_insert;
      if (delta < best_delta) {
        best_delta = delta;
        best_disk = k;
      }
    }
    if (best_disk == from) return false;
    src.erase(src.find({t2, s}));
    src.erase(src.find({t1, r}));
    on_disk[best_disk].insert({t1, r});
    on_disk[best_disk].insert({t2, s});
    assignment.disk_of_request[r] = best_disk;
    assignment.disk_of_request[s] = best_disk;
    stats.energy_delta += best_delta;
    return true;
  };

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    std::size_t moves_this_pass = 0;
    for (std::uint32_t r = 0; r < trace.size(); ++r) {
      if (try_pair_move(r)) {
        ++stats.pair_moves;
        ++moves_this_pass;
      }
    }
    for (std::uint32_t r = 0; r < trace.size(); ++r) {
      const double t = trace[r].time;
      const auto& locs = placement.locations(trace[r].data);
      if (locs.size() < 2) continue;
      const DiskId from = assignment.disk_of_request[r];
      auto& src = on_disk[from];
      const auto it = src.find({t, r});
      EAS_DCHECK(it != src.end());

      // Cost change on the source disk if r leaves.
      const double t_next_src = succ_time(src, it);
      double delta_remove = -cons(t, t_next_src, power);
      if (it != src.begin()) {
        const double t_prev = std::prev(it)->first;
        delta_remove +=
            cons(t_prev, t_next_src, power) - cons(t_prev, t, power);
      }

      double best_delta = -1e-9;  // strict improvement only
      DiskId best_disk = from;
      for (DiskId k : locs) {
        if (k == from) continue;
        auto& dst = on_disk[k];
        const auto pos = dst.lower_bound({t, r});
        const double t_next = pos == dst.end() ? inf : pos->first;
        double delta_insert = cons(t, t_next, power);
        if (pos != dst.begin()) {
          const double t_prev = std::prev(pos)->first;
          delta_insert +=
              cons(t_prev, t, power) - cons(t_prev, t_next, power);
        }
        const double delta = delta_remove + delta_insert;
        if (delta < best_delta) {
          best_delta = delta;
          best_disk = k;
        }
      }
      if (best_disk != from) {
        src.erase(it);
        on_disk[best_disk].insert({t, r});
        assignment.disk_of_request[r] = best_disk;
        ++moves_this_pass;
        stats.energy_delta += best_delta;
      }
    }
    ++stats.passes;
    stats.moves += moves_this_pass;
    if (moves_this_pass == 0) break;
  }
  assignment.validate(trace, placement);
  return stats;
}

}  // namespace eas::core
