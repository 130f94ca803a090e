#include "core/refine.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/energy_model.hpp"
#include "util/check.hpp"

namespace eas::core {

namespace {

/// Lemma-1 consumption between a request at `ti` and its successor at `tj`;
/// tj = +inf denotes "no successor" and yields the ceiling.
double cons(double ti, double tj, const disk::DiskPowerParams& p) {
  return pairwise_energy_consumption(ti, tj, p);
}

/// The refinement's working schedule on static arrays. Placement is fixed,
/// so each disk's candidates — every request whose data it stores — form a
/// static lane in trace order, which is (time, request index) order because
/// the trace is time-sorted. The current assignment is one occupancy bit per
/// lane slot: predecessor/successor queries are word scans and moves are
/// bit flips. Lanes are padded to whole 64-bit words, so no word holds slots
/// of two disks.
class DiskLanes {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  DiskLanes(const OfflineAssignment& assignment, const trace::Trace& trace,
            const placement::PlacementMap& placement)
      : word_begin_(placement.num_disks() + 1, 0),
        first_slot_(trace.size() + 1, 0) {
    const std::size_t n = trace.size();
    std::vector<std::size_t> fill(placement.num_disks(), 0);
    for (std::size_t r = 0; r < n; ++r) {
      const auto& locs = placement.locations(trace[r].data);
      first_slot_[r + 1] = first_slot_[r] + locs.size();
      for (DiskId k : locs) ++fill[k];
    }
    for (DiskId k = 0; k < placement.num_disks(); ++k) {
      word_begin_[k + 1] = word_begin_[k] + (fill[k] + 63) / 64;
      fill[k] = word_begin_[k] * 64;
    }
    const std::size_t slots = word_begin_.back() * 64;
    EAS_REQUIRE_MSG(slots < kNone, "refinement lanes need " << slots
                                       << " slots; the limit is " << kNone);
    time_.resize(slots);
    request_.resize(slots);
    occupied_.assign(word_begin_.back(), 0);
    slot_.resize(first_slot_.back());
    for (std::size_t r = 0; r < n; ++r) {
      const auto& locs = placement.locations(trace[r].data);
      for (std::size_t j = 0; j < locs.size(); ++j) {
        const std::size_t g = fill[locs[j]]++;
        time_[g] = trace[r].time;
        request_[g] = static_cast<std::uint32_t>(r);
        slot_[first_slot_[r] + j] = static_cast<std::uint32_t>(g);
        if (locs[j] == assignment.disk_of_request[r]) set(g);
      }
    }
  }

  /// Slot of request r's copy on its j-th replica location.
  std::uint32_t slot(std::uint32_t r, std::size_t j) const {
    return slot_[first_slot_[r] + j];
  }
  double time(std::uint32_t g) const { return time_[g]; }
  std::uint32_t request(std::uint32_t g) const { return request_[g]; }

  /// Nearest occupied slot of disk k before / after slot g (g itself
  /// excluded), or kNone.
  std::uint32_t prev(DiskId k, std::uint32_t g) const {
    std::size_t w = g / 64;
    std::uint64_t bits =
        occupied_[w] & ((std::uint64_t{1} << (g % 64)) - 1);
    while (bits == 0) {
      if (w == word_begin_[k]) return kNone;
      bits = occupied_[--w];
    }
    return static_cast<std::uint32_t>(w * 64 + 63 -
                                      std::countl_zero(bits));
  }
  std::uint32_t next(DiskId k, std::uint32_t g) const {
    std::size_t w = g / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{1} << (g % 64));
    while (bits == 0) {
      if (++w == word_begin_[k + 1]) return kNone;
      bits = occupied_[w];
    }
    return static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
  }

  void set(std::size_t g) {
    occupied_[g / 64] |= std::uint64_t{1} << (g % 64);
  }
  void clear(std::size_t g) {
    occupied_[g / 64] &= ~(std::uint64_t{1} << (g % 64));
  }

 private:
  /// Disk k's lane is words [word_begin_[k], word_begin_[k + 1]) of
  /// `occupied_`, i.e. 64 slots per word.
  std::vector<std::size_t> word_begin_;
  std::vector<double> time_;             ///< per slot
  std::vector<std::uint32_t> request_;   ///< per slot
  std::vector<std::uint64_t> occupied_;  ///< one bit per slot
  /// Request r's slots, one per replica location in placement order, are
  /// slot_[first_slot_[r] .. first_slot_[r + 1]).
  std::vector<std::size_t> first_slot_;
  std::vector<std::uint32_t> slot_;
};

/// Index of disk k in `locs`, or locs.size() when k does not store it.
std::size_t replica_index(const std::vector<DiskId>& locs, DiskId k) {
  std::size_t j = 0;
  while (j < locs.size() && locs[j] != k) ++j;
  return j;
}

}  // namespace

RefineStats refine_offline_assignment(OfflineAssignment& assignment,
                                      const trace::Trace& trace,
                                      const placement::PlacementMap& placement,
                                      const disk::DiskPowerParams& power,
                                      std::size_t max_passes) {
  assignment.validate(trace, placement);
  const double inf = std::numeric_limits<double>::infinity();
  constexpr std::uint32_t kNone = DiskLanes::kNone;

  DiskLanes lanes(assignment, trace, placement);
  auto time_or_inf = [&](std::uint32_t g) {
    return g == kNone ? inf : lanes.time(g);
  };

  RefineStats stats;

  // Adjacent-pair move: relocate request r (at t1) together with the disk's
  // immediately following request s (at t2) onto a destination disk that
  // stores both and has no element inside (t1, t2). The shared cons(t1,t2)
  // term cancels between removal and insertion.
  auto try_pair_move = [&](std::uint32_t r) -> bool {
    const auto& locs = placement.locations(trace[r].data);
    if (locs.size() < 2) return false;
    const double t1 = trace[r].time;
    const DiskId from = assignment.disk_of_request[r];
    const std::uint32_t g1 = lanes.slot(r, replica_index(locs, from));
    const std::uint32_t g2 = lanes.next(from, g1);
    if (g2 == kNone) return false;
    const double t2 = lanes.time(g2);
    const std::uint32_t s = lanes.request(g2);
    const auto& locs_s = placement.locations(trace[s].data);

    // Source-side delta (minus the cancelling cons(t1, t2) term).
    const double t_q = time_or_inf(lanes.next(from, g2));
    double delta_remove = -cons(t2, t_q, power);
    if (const std::uint32_t p = lanes.prev(from, g1); p != kNone) {
      const double t_p = lanes.time(p);
      delta_remove += cons(t_p, t_q, power) - cons(t_p, t1, power);
    }

    double best_delta = -1e-9;
    DiskId best_disk = from;
    std::uint32_t best_g1 = 0;
    std::uint32_t best_g2 = 0;
    for (std::size_t j = 0; j < locs.size(); ++j) {
      const DiskId k = locs[j];
      if (k == from) continue;
      const std::size_t js = replica_index(locs_s, k);
      if (js == locs_s.size()) continue;
      const std::uint32_t q1 = lanes.slot(r, j);
      const std::uint32_t pos1 = lanes.next(k, q1);
      // Require the destination gap to be empty so both insertions stay
      // adjacent and the delta stays closed-form.
      if (pos1 != kNone && lanes.time(pos1) < t2) continue;
      const double t_next = time_or_inf(pos1);
      double delta_insert = cons(t2, t_next, power);
      if (const std::uint32_t p = lanes.prev(k, q1); p != kNone) {
        const double t_p = lanes.time(p);
        delta_insert += cons(t_p, t1, power) - cons(t_p, t_next, power);
      }
      const double delta = delta_remove + delta_insert;
      if (delta < best_delta) {
        best_delta = delta;
        best_disk = k;
        best_g1 = q1;
        best_g2 = lanes.slot(s, js);
      }
    }
    if (best_disk == from) return false;
    lanes.clear(g1);
    lanes.clear(g2);
    lanes.set(best_g1);
    lanes.set(best_g2);
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
      const std::uint32_t g = lanes.slot(r, replica_index(locs, from));

      // Cost change on the source disk if r leaves.
      const double t_next_src = time_or_inf(lanes.next(from, g));
      double delta_remove = -cons(t, t_next_src, power);
      if (const std::uint32_t p = lanes.prev(from, g); p != kNone) {
        const double t_prev = lanes.time(p);
        delta_remove +=
            cons(t_prev, t_next_src, power) - cons(t_prev, t, power);
      }

      double best_delta = -1e-9;  // strict improvement only
      DiskId best_disk = from;
      std::uint32_t best_g = 0;
      for (std::size_t j = 0; j < locs.size(); ++j) {
        const DiskId k = locs[j];
        if (k == from) continue;
        const std::uint32_t q = lanes.slot(r, j);
        const double t_next = time_or_inf(lanes.next(k, q));
        double delta_insert = cons(t, t_next, power);
        if (const std::uint32_t p = lanes.prev(k, q); p != kNone) {
          const double t_prev = lanes.time(p);
          delta_insert +=
              cons(t_prev, t, power) - cons(t_prev, t_next, power);
        }
        const double delta = delta_remove + delta_insert;
        if (delta < best_delta) {
          best_delta = delta;
          best_disk = k;
          best_g = q;
        }
      }
      if (best_disk != from) {
        lanes.clear(g);
        lanes.set(best_g);
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
