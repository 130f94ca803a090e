// End-to-end benchmark driver: one named workload from one seed.
//
//   e2ebench --workload <paper_grid|online_fleet|tiers_rw> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Set-up (trace generation and placement builds) runs several times and
// reports its median. The timed phase then runs the workload's whole cell
// list through runner::SweepRunner, pass after pass, until --seconds have
// elapsed (at least one pass), and reports medians over passes. Every pass
// is checked (see checks.hpp) and must reproduce the first pass's result
// digest. With --trace 1 half the budget runs untraced and one traced pass
// follows; the traced pass must reproduce the untraced digest, and its
// extra wall time is reported as the tracing overhead.
//
// Metrics named sim_* are simulated time or outcomes of the modelled
// system: they repeat exactly for a fixed seed. All others are host time or
// host memory. The last line of stdout is one JSON object.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "checks.hpp"
#include "probes.hpp"
#include "runner/emit.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

using namespace eas;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up is short next to the timed phase, so it is repeated and its
/// median reported.
constexpr int kSetupRepeats = 11;

struct Args {
  e2e::WorkloadId workload = e2e::WorkloadId::kPaperGrid;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

template <typename T>
bool parse_number(std::string_view s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view val = argv[i + 1];
    if (flag == "--workload") {
      const auto w = e2e::workload_from_string(val);
      if (!w) return false;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      // Negative seeds are accepted and reinterpreted as unsigned.
      std::int64_t signed_seed = 0;
      if (parse_number(val, a.seed)) continue;
      if (!parse_number(val, signed_seed)) return false;
      a.seed = static_cast<std::uint64_t>(signed_seed);
    } else if (flag == "--seconds") {
      if (!parse_number(val, a.seconds) || !(a.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One timed pass over the workload's cells.
struct Pass {
  std::vector<runner::CellResult> results;
  double wall_s = 0.0;  ///< sweep + result rendering
  double emit_s = 0.0;  ///< result rendering alone
  double cell_s_sum = 0.0;
  double cell_s_max = 0.0;
};

Pass run_pass(const std::vector<runner::CellSpec>& cells,
              std::size_t threads) {
  Pass p;
  const auto t0 = Clock::now();
  runner::SweepOptions opts;
  opts.threads = threads;
  opts.rethrow_failure = false;
  p.results = runner::SweepRunner(opts).run(cells);
  const auto t1 = Clock::now();
  std::ostringstream rendered;
  runner::emit_cells(rendered, p.results, runner::EmitFormat::kJson);
  p.emit_s = seconds_since(t1);
  p.wall_s = seconds_since(t0);
  for (const auto& c : p.results) {
    p.cell_s_sum += c.wall_seconds;
    p.cell_s_max = std::max(p.cell_s_max, c.wall_seconds);
  }
  return p;
}

/// Checks every cell of a pass, counting cell runs and failed ones, and
/// returns the pass's result digest.
std::uint64_t check_pass(const Pass& p, std::vector<std::string>& errors,
                         std::uint64_t& attempted, std::uint64_t& failed) {
  for (const auto& c : p.results) {
    const std::size_t before = errors.size();
    e2e::check_cell(c, errors);
    failed += errors.size() > before ? 1 : 0;
  }
  attempted += p.results.size();
  return e2e::result_digest(p.results);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Simulated outcomes and modelled per-layer counters of one pass.
struct Outcomes {
  double energy_norm = 0.0;
  double spin_ups = 0.0;
  double resp_p50 = 0.0;
  double resp_p999 = 0.0;
  std::size_t resp_samples = 0;
  double served_frac = 0.0;

  double standby_frac = 0.0;
  double waited_spinup_frac = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_piggyback_frac = 0.0;
  double cache_destaged_blocks = 0.0;
  double retries = 0.0;
  double deadline_misses = 0.0;
  double hedge_win_frac = 0.0;
  double shed = 0.0;
  double failovers = 0.0;
  double unavailable = 0.0;
  double rebuild_mib = 0.0;
};

Outcomes outcomes(const std::vector<runner::CellResult>& results) {
  Outcomes o;
  stats::SampleStore resp;
  std::uint64_t served = 0, offered = 0, waited = 0;
  std::uint64_t lookups = 0, hits = 0, batches = 0, piggyback = 0;
  std::uint64_t hedges = 0, hedge_wins = 0;
  double standby_s = 0.0, disk_s = 0.0;
  for (const auto& c : results) {
    const storage::RunResult& r = c.result;
    const auto power = runner::system_config_for(c.spec.params).power;
    o.energy_norm += r.normalized_energy(power);
    o.spin_ups += static_cast<double>(r.total_spin_ups());
    resp += r.response_times;
    served += r.total_requests;
    offered += c.spec.trace->size();
    waited += r.requests_waited_spinup;
    for (const auto& d : r.disk_stats) {
      standby_s += d.seconds(disk::DiskState::Standby);
      disk_s += d.total_seconds();
    }
    const auto& cs = r.cache_stats;
    lookups += cs.lookups;
    hits += cs.hits_clean + cs.hits_dirty;
    batches += cs.destage_batches;
    piggyback += cs.destage_piggyback;
    o.cache_destaged_blocks += static_cast<double>(cs.destaged_blocks);
    const auto& rs = r.reliability_stats;
    o.retries += static_cast<double>(rs.retries);
    o.deadline_misses += static_cast<double>(rs.deadline_misses);
    o.shed += static_cast<double>(rs.shed);
    hedges += rs.hedges_issued;
    hedge_wins += rs.hedge_wins;
    const auto& fs = r.fault_stats;
    o.failovers += static_cast<double>(fs.failovers);
    o.unavailable += static_cast<double>(fs.unavailable_requests);
    o.rebuild_mib += static_cast<double>(fs.rebuild_bytes) / (1024.0 * 1024.0);
  }
  o.energy_norm /=
      static_cast<double>(std::max<std::size_t>(1, results.size()));
  o.resp_samples = resp.count();
  if (!resp.empty()) {
    o.resp_p50 = resp.median();
    o.resp_p999 = resp.quantile(0.999);
  }
  o.served_frac =
      ratio(static_cast<double>(served), static_cast<double>(offered));
  o.standby_frac = ratio(standby_s, disk_s);
  o.waited_spinup_frac =
      ratio(static_cast<double>(waited), static_cast<double>(served));
  o.cache_hit_ratio =
      ratio(static_cast<double>(hits), static_cast<double>(lookups));
  o.cache_piggyback_frac =
      ratio(static_cast<double>(piggyback), static_cast<double>(batches));
  o.hedge_win_frac =
      ratio(static_cast<double>(hedge_wins), static_cast<double>(hedges));
  return o;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: e2ebench --workload paper_grid|online_fleet|tiers_rw"
                 " [--seed N] [--seconds S] [--trace 0|1]\n";
    return 2;
  }
  const char* workload = e2e::to_string(args.workload);
  std::vector<std::string> errors;

  // --- set-up -------------------------------------------------------------
  std::vector<double> setup_s, trace_gen_s, placement_s;
  e2e::Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    in = e2e::make_inputs(args.workload, args.seed);
    setup_s.push_back(seconds_since(t0));
    trace_gen_s.push_back(in.trace_gen_s);
    placement_s.push_back(in.placement_build_s);
  }
  const std::uint64_t offered = in.offered_requests();

  // --- timed passes -------------------------------------------------------
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  std::vector<double> wall_s, emit_s, cell_max_s, busy_frac;
  std::uint64_t attempted = 0, failed = 0, digest = 0;
  Outcomes sim;
  const auto timed_start = Clock::now();
  do {
    Pass p = run_pass(in.cells, in.threads);
    wall_s.push_back(p.wall_s);
    emit_s.push_back(p.emit_s);
    cell_max_s.push_back(p.cell_s_max);
    busy_frac.push_back(
        p.cell_s_sum / (static_cast<double>(in.threads) * p.wall_s));
    const std::size_t before = errors.size();
    const std::uint64_t d = check_pass(p, errors, attempted, failed);
    if (wall_s.size() == 1) {
      digest = d;
      sim = outcomes(p.results);
    } else if (d != digest) {
      errors.push_back("pass " + std::to_string(wall_s.size()) +
                       " result digest " + hex(d) + " != first pass " +
                       hex(digest));
    }
    if (errors.size() > before) break;
  } while (seconds_since(timed_start) < budget);
  const double wall = median(wall_s);
  const double rss = peak_rss_mib();

  // --- traced pass --------------------------------------------------------
  e2e::LayerStats layers;
  double traced_wall = 0.0;
  if (args.trace && errors.empty()) {
    std::vector<e2e::LayerStats> per_cell(in.cells.size());
    const Pass p = run_pass(e2e::traced_cells(in.cells, per_cell), in.threads);
    traced_wall = p.wall_s;
    const std::uint64_t d = check_pass(p, errors, attempted, failed);
    std::cout << "# traced digest " << hex(d) << "\n";
    if (d != digest) {
      errors.push_back("traced result digest " + hex(d) +
                       " != untraced " + hex(digest));
    }
    for (const auto& s : per_cell) layers += s;
  }

  // --- report -------------------------------------------------------------
  std::vector<Metric> metrics;
  auto add = [&](std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  if (!args.trace) {
    add("wall_s", wall, "s");
    add("setup_s", median(setup_s), "s");
    add("sim_req_per_s", ratio(count(offered), wall), "req/s");
    add("peak_rss_mib", rss, "MiB");
    add("sim_energy_norm", sim.energy_norm, "ratio");
    add("sim_spin_ups", sim.spin_ups, "count");
    add("sim_resp_p50_s", sim.resp_p50, "sim_s");
    add("sim_resp_p999_s", sim.resp_p999, "sim_s");
    add("sim_served_frac", sim.served_frac, "ratio");
  } else {
    const e2e::LayerStats& l = layers;
    const double scheduler_s = l.pick_s + l.assign_s + l.hook_s;
    add("trace.gen_s", median(trace_gen_s), "s");
    add("placement.build_s", median(placement_s), "s");
    add("runner.cell_s_max", median(cell_max_s), "s");
    add("runner.pool_busy_frac", median(busy_frac), "ratio");
    add("runner.emit_s", median(emit_s), "s");
    add("core.mwis_schedule_s", l.mwis_schedule_s, "s");
    add("core.graph_build_s", l.graph_build_s, "s");
    add("core.gwmin_s", l.gwmin_s, "s");
    add("core.refine_s", l.refine_s, "s");
    add("core.offline_eval_s", l.offline_eval_s, "s");
    add("core.graph_nodes", count(l.graph_nodes), "count");
    add("core.graph_edges", count(l.graph_edges), "count");
    add("core.graph_mib", l.graph_mib, "MiB");
    add("core.gwmin_selected", count(l.gwmin_selected), "count");
    add("core.refine_moves", count(l.refine_moves), "count");
    add("core.mwis_pile_wins", count(l.pile_wins), "count");
    add("core.mwis_discarded_frac", ratio(l.discarded_s, l.mwis_schedule_s),
        "ratio");
    add("core.pick_ns", 1e9 * ratio(l.pick_s, count(l.picks)), "ns");
    add("core.picks", count(l.picks), "count");
    add("core.wsc_assign_us", 1e6 * ratio(l.assign_s, count(l.batches)), "us");
    add("core.wsc_batches", count(l.batches), "count");
    add("power.hook_ns", 1e9 * ratio(l.hook_s, count(l.hook_calls)), "ns");
    add("power.hook_calls", count(l.hook_calls), "count");
    add("storage.run_s", l.storage_run_s, "s");
    add("storage.self_ns_per_req",
        1e9 * ratio(l.storage_run_s - scheduler_s, count(l.storage_requests)),
        "ns");
    add("disk.standby_frac", sim.standby_frac, "ratio");
    add("disk.waited_spinup_frac", sim.waited_spinup_frac, "ratio");
    add("cache.hit_ratio", sim.cache_hit_ratio, "ratio");
    add("cache.piggyback_frac", sim.cache_piggyback_frac, "ratio");
    add("cache.destaged_blocks", sim.cache_destaged_blocks, "count");
    add("reliability.retries", sim.retries, "count");
    add("reliability.deadline_misses", sim.deadline_misses, "count");
    add("reliability.hedge_win_frac", sim.hedge_win_frac, "ratio");
    add("reliability.shed", sim.shed, "count");
    add("fault.failovers", sim.failovers, "count");
    add("fault.unavailable", sim.unavailable, "count");
    add("fault.rebuild_mib", sim.rebuild_mib, "MiB");
    add("tracing.overhead_s", traced_wall - wall, "s");
  }

  std::cout << "# workload " << workload << " seed=" << args.seed
            << " cells=" << in.cells.size() << " threads=" << in.threads
            << " requests/pass=" << offered << " passes=" << wall_s.size()
            << "\n";
  std::cout << "# result digest " << hex(digest) << "\n";
  std::cout << "# sim_resp samples " << sim.resp_samples << "\n";
  for (const auto& m : metrics) {
    std::cout << "# " << m.name << " = " << util::json_number(m.value) << ' '
              << m.unit << "\n";
  }
  for (const auto& e : errors) std::cerr << "check failed: " << e << "\n";

  std::ostringstream line;
  util::JsonWriter w(line);
  w.begin_object();
  w.field("correct", errors.empty());
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << line.str() << std::endl;
  return errors.empty() ? 0 : 1;
}
