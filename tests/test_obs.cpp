// Observability layer: the trace recorder's ring/category/export semantics,
// the metric registry's deterministic merge, and the acceptance check that a
// recorded trace of the paper's example workload replays each disk's
// power-state timeline exactly as the energy accounting saw it.
//
// These tests carry the obs-smoke ctest label.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/basic_schedulers.hpp"
#include "disk/disk.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace_recorder.hpp"
#include "paper_example.hpp"
#include "power/fixed_threshold.hpp"
#include "runner/experiment.hpp"
#include "runner/registry.hpp"
#include "storage/storage_system.hpp"
#include "trace/synthetic.hpp"
#include "util/check.hpp"

namespace eas {
namespace {

// --- vocabulary -------------------------------------------------------------

// obs sits *below* disk in the layering, so it carries its own copy of the
// power-state name table; this pin is what keeps the two from drifting.
TEST(ObsVocabulary, PowerStateNamesMatchDiskToString) {
  for (int s = 0; s < disk::kNumDiskStates; ++s) {
    EXPECT_STREQ(obs::power_state_name(static_cast<std::uint32_t>(s)),
                 disk::to_string(static_cast<disk::DiskState>(s)))
        << "state " << s;
  }
  EXPECT_STREQ(obs::power_state_name(99), "?");
}

TEST(ObsVocabulary, EveryEventHasANameAndACategory) {
  for (int e = 0; e <= static_cast<int>(obs::Ev::kDestageDone); ++e) {
    const auto ev = static_cast<obs::Ev>(e);
    EXPECT_STRNE(to_string(ev), "?") << "event " << e;
    const obs::Cat cat = obs::category_of(ev);
    EXPECT_STRNE(to_string(cat), "?") << "event " << e;
    EXPECT_NE(obs::cat_bit(cat) & obs::kAllCategories, 0u);
  }
}

TEST(ObsVocabulary, ConfigValidation) {
  obs::TraceConfig off;  // disabled configs are never checked
  off.capacity = 0;
  EXPECT_NO_THROW(off.validate());

  obs::TraceConfig on;
  on.enabled = true;
  EXPECT_NO_THROW(on.validate());
  on.capacity = 0;
  EXPECT_THROW(on.validate(), InvariantError);
  on.capacity = 16;
  on.categories = 0;
  EXPECT_THROW(on.validate(), InvariantError);
  on.categories = obs::kAllCategories + 1;
  EXPECT_THROW(on.validate(), InvariantError);

  obs::ObsConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.validate());
  cfg.metrics = true;
  EXPECT_TRUE(cfg.enabled());
  cfg.trace.enabled = true;
  cfg.trace.capacity = 0;
  EXPECT_THROW(cfg.validate(), InvariantError);
}

// --- ring buffer ------------------------------------------------------------

TEST(TraceRing, KeepsNewestEventsAndCountsDrops) {
  obs::TraceRecorder rec({.enabled = true, .capacity = 4});
  for (int i = 0; i < 6; ++i) {
    rec.record(static_cast<double>(i), obs::Ev::kArrive,
               static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  // Surviving events are the newest four, in chronological order.
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(rec.event(i).id, i + 2);
    EXPECT_EQ(rec.event(i).time, static_cast<double>(i + 2));
  }
}

TEST(TraceRing, CategoryMaskDropsUnwantedEventsForFree) {
  obs::TraceRecorder rec(
      {.enabled = true, .categories = obs::cat_bit(obs::Cat::kPower),
       .capacity = 16});
  rec.request_event(0.0, obs::Ev::kArrive, 1, 0);
  rec.power_transition(1.0, 0, 0, 1);
  rec.batch_formed(2.0, 0, 5);
  // Masked events are not recorded *and* not counted as drops.
  EXPECT_EQ(rec.recorded(), 1u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.event(0).ev, obs::Ev::kPowerTransition);
  EXPECT_TRUE(rec.wants(obs::Cat::kPower));
  EXPECT_FALSE(rec.wants(obs::Cat::kRequest));
}

TEST(TraceRing, EasObsMacroIsNullSafe) {
  obs::TraceRecorder* none = nullptr;
  EAS_OBS(none, record(0.0, obs::Ev::kArrive, 1));  // must not crash

  obs::TraceRecorder rec({.enabled = true, .capacity = 8});
  obs::TraceRecorder* some = &rec;
  EAS_OBS(some, record(1.0, obs::Ev::kArrive, 7));
#if defined(EASCHED_NO_OBS)
  EXPECT_EQ(rec.recorded(), 0u);
#else
  EXPECT_EQ(rec.recorded(), 1u);
  EXPECT_EQ(rec.event(0).id, 7u);
#endif
}

TEST(TraceRing, EventIsThirtyTwoBytes) {
  EXPECT_EQ(sizeof(obs::TraceEvent), 32u);
}

// --- Chrome export ----------------------------------------------------------

// Golden for a tiny hand-driven timeline. Pinning the exact bytes keeps the
// export schema-stable: Perfetto tolerates a lot, but diffs against recorded
// traces should only ever show intentional changes.
TEST(TraceChrome, GoldenTinyTimeline) {
  obs::TraceRecorder rec({.enabled = true, .capacity = 16});
  rec.power_transition(0.5, /*disk=*/0, /*from=*/0, /*to=*/1);  // standby→up
  rec.power_transition(1.5, 0, 1, 2);                           // up→idle
  std::ostringstream os;
  rec.export_chrome_json(os, /*horizon=*/2.0);
  EXPECT_EQ(
      os.str(),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"easched run\"}},"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"system\"}},"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"disk 0\"}},"
      // Timestamps are microseconds through util::json_number's shortest
      // round-trip form, hence the scientific spellings.
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"dur\":5e+05,"
      "\"cat\":\"power\",\"name\":\"standby\"},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":5e+05,\"dur\":1e+06,"
      "\"cat\":\"power\",\"name\":\"spin-up\"},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1500000,\"dur\":5e+05,"
      "\"cat\":\"power\",\"name\":\"idle\"}"
      "]}\n");
}

TEST(TraceChrome, ServiceSpansAndInstantsLandOnTheDiskTrack) {
  obs::TraceRecorder rec({.enabled = true, .capacity = 16});
  rec.request_event(0.0, obs::Ev::kArrive, 1, 42);
  rec.request_event(0.0, obs::Ev::kQueue, 1, 3, 1);
  rec.request_event(0.1, obs::Ev::kServiceBegin, 1, 3);
  rec.request_event(0.2, obs::Ev::kServiceEnd, 1, 3);
  std::ostringstream os;
  rec.export_chrome_json(os, 0.2);
  const std::string json = os.str();
  // Arrive is a system-track instant; the rest ride on disk 3's track (tid 4).
  EXPECT_NE(json.find("{\"ph\":\"i\",\"pid\":0,\"tid\":0,"), std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"B\",\"pid\":0,\"tid\":4,"), std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"E\",\"pid\":0,\"tid\":4,"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"req 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"disk 3\""), std::string::npos);
}

// --- metric registry --------------------------------------------------------

TEST(Metrics, RegistrationHandsBackStablePointers) {
  obs::MetricRegistry reg;
  std::uint64_t* c = reg.counter("served");
  double* g = reg.gauge("energy");
  stats::SummaryStats* s = reg.summary("depth");
  stats::Histogram* h = reg.histogram("resp", 1e-3, 10.0);
  // Registering more entries must not invalidate earlier pointers.
  for (int i = 0; i < 64; ++i) {
    reg.counter("extra_" + std::to_string(i));
  }
  *c = 7;
  *g = 1.25;
  s->add(3.0);
  h->add(0.5);
  EXPECT_EQ(reg.find("served")->counter, 7u);
  EXPECT_EQ(reg.find("energy")->gauge, 1.25);
  EXPECT_EQ(reg.find("depth")->summary.count(), 1u);
  EXPECT_EQ(reg.find("resp")->histogram.total_count(), 1u);
  EXPECT_EQ(reg.find("missing"), nullptr);
  // Re-registration is find-or-create...
  EXPECT_EQ(reg.counter("served"), c);
  // ...but a kind clash is a programming error.
  EXPECT_THROW(reg.gauge("served"), InvariantError);
}

TEST(Metrics, MergeFoldsShardsInCallOrder) {
  obs::MetricRegistry a;
  obs::MetricRegistry b;
  *a.counter("served") = 10;
  *b.counter("served") = 32;
  *a.gauge("energy") = 1.0;
  *b.gauge("energy") = 2.0;
  a.summary("depth")->add(1.0);
  b.summary("depth")->add(3.0);
  a.histogram("resp", 1e-3, 10.0)->add(0.1);
  b.histogram("resp", 1e-3, 10.0)->add(0.2);
  *b.counter("only_in_b") = 5;

  a.merge(b);
  EXPECT_EQ(a.find("served")->counter, 42u);
  EXPECT_EQ(a.find("energy")->gauge, 2.0);  // gauges: last shard wins
  EXPECT_EQ(a.find("depth")->summary.count(), 2u);
  EXPECT_EQ(a.find("depth")->summary.mean(), 2.0);
  EXPECT_EQ(a.find("resp")->histogram.total_count(), 2u);
  ASSERT_NE(a.find("only_in_b"), nullptr);  // appended, binning cloned
  EXPECT_EQ(a.find("only_in_b")->counter, 5u);
  // Mismatched histogram binning cannot be merged silently.
  obs::MetricRegistry c;
  c.histogram("resp", 1e-3, 10.0, 5);
  EXPECT_THROW(a.merge(c), InvariantError);
}

TEST(Metrics, ToJsonFollowsRegistrationOrder) {
  obs::MetricRegistry reg;
  *reg.counter("z_first") = 1;
  *reg.gauge("a_second") = 0.5;
  const std::string json = reg.to_json();
  EXPECT_EQ(json,
            "{\"z_first\":{\"kind\":\"counter\",\"value\":1},"
            "\"a_second\":{\"kind\":\"gauge\",\"value\":0.5}}");
}

// --- end-to-end: the paper example under full instrumentation ---------------

storage::SystemConfig traced_config() {
  storage::SystemConfig cfg;
  cfg.power.idle_watts = 10.0;
  cfg.power.active_watts = 12.0;
  cfg.power.standby_watts = 1.0;
  cfg.power.spinup_watts = 20.0;
  cfg.power.spindown_watts = 10.0;
  cfg.power.spinup_seconds = 6.0;
  cfg.power.spindown_seconds = 4.0;
  cfg.obs.trace.enabled = true;
  cfg.obs.trace.capacity = 1u << 12;
  cfg.obs.metrics = true;
  return cfg;
}

storage::RunResult traced_run(const storage::SystemConfig& cfg) {
  core::StaticScheduler sched;
  power::FixedThresholdPolicy policy(2.0);  // aggressive: forces spin cycling
  return storage::run_online(cfg, testing::example_placement(),
                             testing::example_offline_trace(), sched, policy);
}

// The acceptance criterion: replaying the recorded power-transition events
// against the run's horizon must reconstruct every disk's seconds-in-state
// exactly as DiskStats (the EnergyMeter's view) accounted them, and the
// spin-up / spin-down transition counts must match the disk counters.
TEST(PaperExampleTrace, PowerTimelineReplayMatchesEnergyAccounting) {
  const auto cfg = traced_config();
  const auto r = traced_run(cfg);
  ASSERT_NE(r.trace_recorder, nullptr);
  const obs::TraceRecorder& rec = *r.trace_recorder;
  ASSERT_EQ(rec.dropped(), 0u) << "ring too small for the example workload";

  const std::size_t disks = r.disk_stats.size();
  std::vector<std::array<double, disk::kNumDiskStates>> seconds(
      disks, std::array<double, disk::kNumDiskStates>{});
  std::vector<std::uint32_t> state(
      disks, static_cast<std::uint32_t>(cfg.initial_state));
  std::vector<double> since(disks, 0.0);
  std::vector<std::uint64_t> ups(disks, 0), downs(disks, 0);

  for (std::size_t i = 0; i < rec.size(); ++i) {
    const obs::TraceEvent& e = rec.event(i);
    if (e.ev != obs::Ev::kPowerTransition) continue;
    const auto d = static_cast<std::size_t>(e.id);
    ASSERT_LT(d, disks);
    // The transition's "from" field must chain with the replayed state.
    ASSERT_EQ(e.b, state[d]) << "broken transition chain on disk " << d;
    seconds[d][state[d]] += e.time - since[d];
    state[d] = e.c;
    since[d] = e.time;
    if (e.c == static_cast<std::uint16_t>(disk::DiskState::SpinningUp)) {
      ++ups[d];
    }
    if (e.c == static_cast<std::uint16_t>(disk::DiskState::SpinningDown)) {
      ++downs[d];
    }
  }
  for (std::size_t d = 0; d < disks; ++d) {
    seconds[d][state[d]] += r.horizon - since[d];
    for (int s = 0; s < disk::kNumDiskStates; ++s) {
      EXPECT_NEAR(seconds[d][s], r.disk_stats[d].seconds_in_state[s], 1e-9)
          << "disk " << d << " state " << disk::to_string(
                 static_cast<disk::DiskState>(s));
    }
    EXPECT_EQ(ups[d], r.disk_stats[d].spin_ups) << "disk " << d;
    EXPECT_EQ(downs[d], r.disk_stats[d].spin_downs) << "disk " << d;
  }

  // Every foreground request leaves a complete lifecycle in the trace.
  std::size_t completes = 0;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    if (rec.event(i).ev == obs::Ev::kComplete) ++completes;
  }
  EXPECT_EQ(completes, r.total_requests);
}

TEST(PaperExampleTrace, MetricsMatchRunResultAggregates) {
  const auto cfg = traced_config();
  const auto r = traced_run(cfg);
  ASSERT_NE(r.metrics, nullptr);
  const obs::MetricRegistry& m = *r.metrics;
  EXPECT_EQ(m.find("requests_completed")->counter, r.total_requests);
  EXPECT_EQ(m.find("requests_waited_spinup")->counter,
            r.requests_waited_spinup);
  EXPECT_EQ(m.find("spin_ups")->counter, r.total_spin_ups());
  EXPECT_EQ(m.find("spin_downs")->counter, r.total_spin_downs());
  EXPECT_EQ(m.find("total_energy_joules")->gauge, r.total_energy());
  EXPECT_EQ(m.find("response_seconds")->histogram.total_count(), r.total_requests);
  for (int s = 0; s < disk::kNumDiskStates; ++s) {
    const auto* entry = m.find(std::string("disk_seconds_") +
                               disk::to_string(static_cast<disk::DiskState>(s)));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->summary.count(), r.disk_stats.size());
  }
  // Fault machinery never engaged in this run.
  EXPECT_EQ(m.find("failovers")->counter, 0u);
  EXPECT_EQ(m.find("unavailable_requests")->counter, 0u);
}

// The registry is filled from the run's own counters at finish(), so every
// tier counter must project its RunResult field exactly. One batch (WSC) run
// with the cache, a fail-stop disk and the reliability tier all engaged.
TEST(TieredRunMetrics, EveryTierCounterProjectsItsRunResultField) {
  trace::SyntheticTraceConfig tc = trace::cello_like_config(1);
  tc.num_requests = 4000;
  tc.write_fraction = 0.3;
  tc.mean_rate = 600.0;  // enough load to back queues up past the deadline
  const trace::Trace trace = trace::make_synthetic_trace(tc);
  cache::CacheConfig cc;
  cc.capacity_blocks = 128;
  cc.dirty_capacity_blocks = 32;
  reliability::ReliabilityConfig rc;
  rc.deadline_seconds = 0.04;  // shorter than a full bounded queue
  rc.hedge_delay_seconds = 0.015;
  rc.max_queue_depth = 8;
  const auto p = runner::ExperimentBuilder(runner::Workload::kCello)
                     .requests(trace.size())
                     .disks(12)
                     .replication(2)
                     .initial_state(disk::DiskState::Idle)
                     .cache(cc)
                     .fail_disk_at(3, 0.2 * trace.duration())
                     .reliability(rc)
                     .metrics()
                     .build();
  const auto placement = runner::make_shared_placement(p);
  const auto r = runner::run_cell(runner::SchedulerRegistry::global(), "wsc",
                                  p, trace, *placement);
  ASSERT_NE(r.metrics, nullptr);
  const obs::MetricRegistry& m = *r.metrics;
  const auto counter = [&m](const char* name) {
    const obs::Metric* e = m.find(name);
    EXPECT_NE(e, nullptr) << name;
    return e != nullptr ? e->counter : ~std::uint64_t{0};
  };
  const cache::CacheStats& cs = r.cache_stats;
  EXPECT_EQ(counter("cache_hits"), cs.hits_clean + cs.hits_dirty);
  EXPECT_EQ(counter("cache_misses"), cs.misses);
  EXPECT_EQ(counter("cache_writes_buffered"), cs.writes_buffered);
  EXPECT_EQ(counter("destage_batches"), cs.destage_batches);
  EXPECT_EQ(counter("destaged_blocks"), cs.destaged_blocks);
  EXPECT_EQ(counter("failovers"), r.fault_stats.failovers);
  EXPECT_EQ(counter("unavailable_requests"),
            r.fault_stats.unavailable_requests);
  const reliability::ReliabilityStats& rs = r.reliability_stats;
  EXPECT_EQ(counter("deadline_misses"), rs.deadline_misses);
  EXPECT_EQ(counter("retries"), rs.retries);
  EXPECT_EQ(counter("hedges_issued"), rs.hedges_issued);
  EXPECT_EQ(counter("hedge_wins"), rs.hedge_wins);
  EXPECT_EQ(counter("shed_requests"), rs.shed);
  EXPECT_EQ(counter("abandoned_requests"), rs.abandoned);
  EXPECT_EQ(counter("requests_completed"), r.total_requests);
  // Every batch adds one batch_size sample.
  EXPECT_EQ(counter("batches_formed"), m.find("batch_size")->summary.count());
  EXPECT_EQ(m.find("response_seconds")->histogram.total_count(),
            r.response_times.count());
  // The run must actually exercise each tier for the check to mean much.
  for (const std::uint64_t engaged :
       {cs.hits_clean + cs.hits_dirty, cs.destaged_blocks,
        r.fault_stats.failovers, rs.deadline_misses, rs.hedges_issued,
        rs.shed}) {
    EXPECT_GT(engaged, 0u) << r.to_json();
  }
}

// Observability must be a pure observer: switching it on cannot perturb the
// simulation. The serialized result (which never includes obs artifacts) has
// to come out byte-identical with and without the recorder and registry.
TEST(PaperExampleTrace, InstrumentationDoesNotPerturbTheRun) {
  auto plain_cfg = traced_config();
  plain_cfg.obs = obs::ObsConfig{};
  const auto plain = traced_run(plain_cfg);
  EXPECT_EQ(plain.trace_recorder, nullptr);
  EXPECT_EQ(plain.metrics, nullptr);

  const auto traced = traced_run(traced_config());
  EXPECT_EQ(plain.to_json(/*include_disks=*/true),
            traced.to_json(/*include_disks=*/true));
}

// The recorded trace itself is a pure function of the run: two identical
// runs record bit-identical events.
TEST(PaperExampleTrace, TraceIsReproducible) {
  const auto a = traced_run(traced_config());
  const auto b = traced_run(traced_config());
  const obs::TraceRecorder& ra = *a.trace_recorder;
  const obs::TraceRecorder& rb = *b.trace_recorder;
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_EQ(ra.dropped(), rb.dropped());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(std::memcmp(&ra.event(i), &rb.event(i), sizeof(obs::TraceEvent)),
              0)
        << "event " << i;
  }
}

}  // namespace
}  // namespace eas
