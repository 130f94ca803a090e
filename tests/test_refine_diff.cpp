// Differential suite for the flat-array refinement.
//
// core::refine_offline_assignment keeps each disk's candidate requests in a
// static trace-order lane with an occupancy bitset. It promises to make
// exactly the moves the retained std::set implementation
// (tests/reference/refine_reference.cpp) makes, in the same order, so the
// resulting assignment and every RefineStats field — the accumulated
// energy delta included, bit for bit — are identical. This binary checks
// that on 240 seeded random instances (1–12 disks, 1–5 replicas, duplicate
// timestamps, both power models, 0–8 passes, pile / solver / random
// starting assignments) and on the five Cello-like paper cells at a
// reduced request count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/mwis_scheduler.hpp"
#include "core/refine.hpp"
#include "disk/params.hpp"
#include "placement/placement.hpp"
#include "reference/refine_reference.hpp"
#include "runner/experiment.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace eas::core {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Runs both implementations from the same start; returns the flat one's
/// stats so callers can tally how much work the instance exercised.
RefineStats expect_identical(const OfflineAssignment& start,
                             const trace::Trace& trace,
                             const placement::PlacementMap& placement,
                             const disk::DiskPowerParams& power,
                             std::size_t passes, const std::string& what) {
  OfflineAssignment flat = start;
  OfflineAssignment ref = start;
  const RefineStats fs =
      refine_offline_assignment(flat, trace, placement, power, passes);
  const RefineStats rs = refine_offline_assignment_reference(
      ref, trace, placement, power, passes);
  EXPECT_EQ(flat.disk_of_request, ref.disk_of_request) << what;
  EXPECT_EQ(fs.passes, rs.passes) << what;
  EXPECT_EQ(fs.moves, rs.moves) << what;
  EXPECT_EQ(fs.pair_moves, rs.pair_moves) << what;
  EXPECT_EQ(bits_of(fs.energy_delta), bits_of(rs.energy_delta))
      << what << ": " << fs.energy_delta << " vs " << rs.energy_delta;
  return fs;
}

/// An unrefined MWIS seed (kPileOnly or kSolverOnly) for the instance.
OfflineAssignment mwis_seed(MwisOptions::Seed seed, const trace::Trace& trace,
                            const placement::PlacementMap& placement,
                            const disk::DiskPowerParams& power) {
  MwisOptions o;
  o.seed = seed;
  o.refine_passes = 0;
  MwisOfflineScheduler sched(o);
  return sched.schedule(trace, placement, power);
}

struct Instance {
  trace::Trace trace;
  placement::PlacementMap placement;
};

/// Random instance: `disks` disks, up to `rf` distinct replicas per data
/// item (exactly `rf` unless `mixed_rf`), inter-arrival gaps spread around
/// the power model's saving window, and runs of duplicate timestamps.
Instance random_instance(util::Rng& rng, DiskId disks, unsigned rf,
                         bool mixed_rf, const disk::DiskPowerParams& power) {
  const auto num_data = static_cast<DataId>(1 + rng.next_below(24));
  std::vector<std::vector<DiskId>> locations(num_data);
  std::vector<DiskId> perm(disks);
  for (auto& locs : locations) {
    std::iota(perm.begin(), perm.end(), DiskId{0});
    for (DiskId i = disks; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
    const auto copies = mixed_rf ? 1 + rng.next_below(rf) : rf;
    locs.assign(perm.begin(), perm.begin() + static_cast<long>(copies));
  }
  const double window = std::max(power.saving_window_seconds(), 1.0);
  const std::size_t n = 1 + rng.next_below(160);
  std::vector<trace::TraceRecord> recs;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.bernoulli(0.25)) t += rng.uniform(0.0, 1.5) * window;
    recs.push_back(
        {t, static_cast<DataId>(rng.next_below(num_data)), 4096, true});
  }
  return {trace::Trace(std::move(recs)),
          placement::PlacementMap(disks, std::move(locations))};
}

TEST(RefineDiff, MatchesReferenceOnRandomInstances) {
  util::Rng rng(0x7e71e5);
  const disk::DiskPowerParams powers[] = {disk::example_power_params(),
                                          disk::DiskPowerParams{}};
  std::size_t moves = 0;
  std::size_t pair_moves = 0;
  for (int i = 0; i < 240; ++i) {
    const auto disks = static_cast<DiskId>(1 + rng.next_below(12));
    const auto rf = static_cast<unsigned>(
        1 + rng.next_below(std::min<DiskId>(disks, 5)));
    const disk::DiskPowerParams& power = powers[i % 2];
    const Instance in =
        random_instance(rng, disks, rf, /*mixed_rf=*/i % 5 == 4, power);
    const std::size_t passes = rng.next_below(9);

    OfflineAssignment random_start;
    for (const auto& rec : in.trace.records()) {
      const auto& locs = in.placement.locations(rec.data);
      random_start.disk_of_request.push_back(
          locs[rng.next_below(locs.size())]);
    }
    const std::string what = "instance " + std::to_string(i) + " (" +
                             std::to_string(disks) + " disks, rf " +
                             std::to_string(rf) + ", " +
                             std::to_string(passes) + " passes)";
    for (const auto& [label, start] :
         {std::pair{"random", random_start},
          std::pair{"pile", mwis_seed(MwisOptions::Seed::kPileOnly, in.trace,
                                      in.placement, power)},
          std::pair{"solver", mwis_seed(MwisOptions::Seed::kSolverOnly,
                                        in.trace, in.placement, power)}}) {
      const RefineStats s = expect_identical(start, in.trace, in.placement,
                                             power, passes,
                                             what + " from " + label);
      moves += s.moves;
      pair_moves += s.pair_moves;
    }
  }
  // The sweep must actually exercise both move kinds.
  EXPECT_GT(moves, 1000u);
  EXPECT_GT(pair_moves, 50u);
}

TEST(RefineDiff, MatchesReferenceOnCelloPaperCells) {
  for (unsigned rf = 1; rf <= 5; ++rf) {
    runner::ExperimentParams p;
    p.num_requests = 3000;
    p.replication_factor = rf;
    const auto trace = runner::make_workload(p.workload, p.trace_seed,
                                             p.num_requests);
    const auto placement = runner::make_placement(p);
    const auto power = runner::system_config_for(p).power;
    for (const auto seed :
         {MwisOptions::Seed::kPileOnly, MwisOptions::Seed::kSolverOnly}) {
      const OfflineAssignment start =
          mwis_seed(seed, trace, placement, power);
      const RefineStats s =
          expect_identical(start, trace, placement, power,
                           p.mwis_refine_passes,
                           "cello rf " + std::to_string(rf) +
                               (seed == MwisOptions::Seed::kPileOnly
                                    ? " pile"
                                    : " solver"));
      if (rf > 1) {
        EXPECT_GT(s.moves, 0u) << "rf " << rf;
      }
    }
  }
}

}  // namespace
}  // namespace eas::core
