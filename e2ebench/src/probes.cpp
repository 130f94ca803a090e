#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/conflict_graph.hpp"
#include "core/mwis_scheduler.hpp"
#include "core/offline_eval.hpp"
#include "core/refine.hpp"

namespace e2e {

using namespace eas;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `f`, adding its host time to `acc`, and returns its result.
template <typename F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  auto out = f();
  acc += seconds_since(t0);
  return out;
}

class TimedOnline final : public core::OnlineScheduler {
 public:
  TimedOnline(core::OnlineScheduler& inner, LayerStats& s)
      : inner_(inner), s_(s) {}
  std::string name() const override { return inner_.name(); }
  DiskId pick(const disk::Request& r, const core::SystemView& view) override {
    ++s_.picks;
    return timed(s_.pick_s, [&] { return inner_.pick(r, view); });
  }

 private:
  core::OnlineScheduler& inner_;
  LayerStats& s_;
};

class TimedBatch final : public core::BatchScheduler {
 public:
  TimedBatch(core::BatchScheduler& inner, LayerStats& s)
      : inner_(inner), s_(s) {}
  std::string name() const override { return inner_.name(); }
  double batch_interval_seconds() const override {
    return inner_.batch_interval_seconds();
  }
  std::vector<DiskId> assign(const std::vector<disk::Request>& batch,
                             const core::SystemView& view) override {
    ++s_.batches;
    return timed(s_.assign_s, [&] { return inner_.assign(batch, view); });
  }

 private:
  core::BatchScheduler& inner_;
  LayerStats& s_;
};

/// Forwards every hook and probe to the wrapped policy, timing the hooks
/// the storage system calls.
class TimedPolicy final : public power::PowerPolicy {
 public:
  TimedPolicy(power::PowerPolicy& inner, LayerStats& s)
      : inner_(inner), s_(s) {}
  std::string name() const override { return inner_.name(); }
  void set_failure_view(const fault::FailureView* fv) override {
    inner_.set_failure_view(fv);
  }
  void set_destage_probe(DestageProbe probe) override {
    inner_.set_destage_probe(std::move(probe));
  }
  void set_hedge_probe(HedgeProbe probe) override {
    inner_.set_hedge_probe(std::move(probe));
  }
  void on_run_start(sim::Simulator& sim,
                    const std::vector<disk::Disk*>& disks) override {
    hook([&] { inner_.on_run_start(sim, disks); });
  }
  void on_disk_idle(sim::Simulator& sim, disk::Disk& d) override {
    hook([&] { inner_.on_disk_idle(sim, d); });
  }
  void on_disk_activity(sim::Simulator& sim, disk::Disk& d) override {
    hook([&] { inner_.on_disk_activity(sim, d); });
  }

 private:
  template <typename F>
  void hook(F&& f) {
    ++s_.hook_calls;
    const auto t0 = Clock::now();
    f();
    s_.hook_s += seconds_since(t0);
  }

  power::PowerPolicy& inner_;
  LayerStats& s_;
};

void fail(const std::string& what) { throw std::runtime_error(what); }

/// The options the registry's "mwis" row builds (runner/registry.cpp); the
/// kBest agreement check below fails if the two drift apart.
core::MwisOptions registry_mwis_options(const runner::ExperimentParams& p) {
  core::MwisOptions o;
  o.algorithm = core::MwisOptions::Algorithm::kGwmin;
  o.graph.successor_horizon = p.mwis_horizon;
  o.refine_passes = p.mwis_refine_passes;
  return o;
}

storage::RunResult traced_offline(const runner::SchedulerSpec& spec,
                                  const runner::ExperimentParams& p,
                                  const trace::Trace& trace,
                                  const placement::PlacementMap& pl,
                                  LayerStats& s) {
  const auto config = runner::system_config_for(p);
  const auto& power = config.power;
  const core::MwisOptions base = registry_mwis_options(p);

  // Stage functions of the solver seed, each on its own.
  {
    const core::ConflictGraph g = timed(s.graph_build_s, [&] {
      return core::build_conflict_graph(trace, pl, power, base.graph);
    });
    const auto selected =
        timed(s.gwmin_s, [&] { return core::solve_gwmin(g); });
    s.gwmin_selected += selected.size();
    s.graph_nodes = std::max<std::uint64_t>(s.graph_nodes, g.size());
    s.graph_edges = std::max<std::uint64_t>(s.graph_edges, g.num_edges());
    const double bytes =
        static_cast<double>(g.nodes.size() * sizeof(core::SavingNode) +
                            g.adj_offsets.size() * sizeof(std::size_t) +
                            g.adj_data.size() * sizeof(std::uint32_t));
    s.graph_mib = std::max(s.graph_mib, bytes / (1024.0 * 1024.0));
  }

  // The cell's own schedule, exactly as the untraced run makes it.
  auto bundle = spec.make(p, pl);
  const core::OfflineAssignment best = timed(s.mwis_schedule_s, [&] {
    return bundle.offline->schedule(trace, pl, power);
  });

  // Each seed alone: the unrefined seed, then refinement, then the Lemma-1
  // evaluation kBest compares — the same calls kBest makes, split apart.
  struct SeedRun {
    core::OfflineAssignment a;
    double seconds = 0.0;
    double energy = 0.0;
  };
  auto run_seed = [&](core::MwisOptions::Seed seed) {
    SeedRun r;
    core::MwisOptions o = base;
    o.seed = seed;
    o.refine_passes = 0;
    core::MwisOfflineScheduler sched(o);
    r.a = timed(r.seconds, [&] { return sched.schedule(trace, pl, power); });
    if (base.refine_passes > 0) {
      double refine = 0.0;
      const auto rs = timed(refine, [&] {
        return core::refine_offline_assignment(r.a, trace, pl, power,
                                               base.refine_passes);
      });
      r.seconds += refine;
      s.refine_s += refine;
      s.refine_moves += rs.moves + rs.pair_moves;
    }
    r.a.validate(trace, pl);
    double eval = 0.0;
    r.energy = timed(eval, [&] {
      return core::evaluate_offline(trace, r.a, pl.num_disks(), power)
          .total_energy();
    });
    r.seconds += eval;
    s.offline_eval_s += eval;
    return r;
  };
  const SeedRun solver = run_seed(core::MwisOptions::Seed::kSolverOnly);
  const SeedRun pile = run_seed(core::MwisOptions::Seed::kPileOnly);

  // kBest keeps the pile seed only when it is strictly cheaper.
  const bool pile_won = pile.energy < solver.energy;
  s.pile_wins += pile_won ? 1 : 0;
  s.discarded_s += pile_won ? solver.seconds : pile.seconds;
  best.validate(trace, pl);
  const double best_energy =
      core::evaluate_offline(trace, best, pl.num_disks(), power)
          .total_energy();
  if (best_energy != std::min(solver.energy, pile.energy) ||
      best.disk_of_request !=
          (pile_won ? pile.a : solver.a).disk_of_request) {
    std::ostringstream os;
    os.precision(17);
    os << "kBest assignment (Lemma-1 energy " << best_energy
       << " J) is not the cheaper single-seed run (solver " << solver.energy
       << " J, pile " << pile.energy << " J)";
    fail(os.str());
  }

  return timed(s.storage_run_s, [&] {
    return storage::run_offline(config, pl, trace, best,
                                bundle.offline->name());
  });
}

storage::RunResult run_traced(const runner::SchedulerSpec& spec,
                              const runner::ExperimentParams& p,
                              const trace::Trace& trace,
                              const placement::PlacementMap& pl,
                              LayerStats& s) {
  s.storage_requests += trace.size();
  const auto config = runner::system_config_for(p);
  switch (spec.model) {
    case runner::ExecutionModel::kAlwaysOn:
      // run_always_on builds its own scheduler and policy; nothing to wrap.
      return timed(s.storage_run_s,
                   [&] { return runner::run_cell(spec, p, trace, pl); });
    case runner::ExecutionModel::kOnline: {
      auto bundle = spec.make(p, pl);
      TimedOnline sched(*bundle.online, s);
      TimedPolicy policy(*bundle.policy, s);
      return timed(s.storage_run_s, [&] {
        return storage::run_online(config, pl, trace, sched, policy);
      });
    }
    case runner::ExecutionModel::kBatch: {
      auto bundle = spec.make(p, pl);
      TimedBatch sched(*bundle.batch, s);
      TimedPolicy policy(*bundle.policy, s);
      return timed(s.storage_run_s, [&] {
        return storage::run_batch(config, pl, trace, sched, policy);
      });
    }
    case runner::ExecutionModel::kOffline:
      return traced_offline(spec, p, trace, pl, s);
  }
  fail("unknown execution model for " + spec.name);
  return {};
}

}  // namespace

LayerStats& LayerStats::operator+=(const LayerStats& o) {
  storage_run_s += o.storage_run_s;
  storage_requests += o.storage_requests;
  pick_s += o.pick_s;
  picks += o.picks;
  assign_s += o.assign_s;
  batches += o.batches;
  hook_s += o.hook_s;
  hook_calls += o.hook_calls;
  pile_wins += o.pile_wins;
  mwis_schedule_s += o.mwis_schedule_s;
  discarded_s += o.discarded_s;
  graph_build_s += o.graph_build_s;
  gwmin_s += o.gwmin_s;
  refine_s += o.refine_s;
  offline_eval_s += o.offline_eval_s;
  graph_nodes = std::max(graph_nodes, o.graph_nodes);
  graph_edges = std::max(graph_edges, o.graph_edges);
  graph_mib = std::max(graph_mib, o.graph_mib);
  gwmin_selected += o.gwmin_selected;
  refine_moves += o.refine_moves;
  return *this;
}

std::vector<runner::CellSpec> traced_cells(
    const std::vector<runner::CellSpec>& cells,
    std::vector<LayerStats>& stats) {
  std::vector<runner::CellSpec> out = cells;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const runner::SchedulerSpec& spec =
        runner::SchedulerRegistry::global().at(out[i].scheduler);
    LayerStats& s = stats.at(i);
    out[i].run = [&spec, &s](const runner::ExperimentParams& p,
                             const trace::Trace& trace,
                             const placement::PlacementMap& pl) {
      return run_traced(spec, p, trace, pl, s);
    };
  }
  return out;
}

}  // namespace e2e
