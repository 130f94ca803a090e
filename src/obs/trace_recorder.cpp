#include "obs/trace_recorder.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace eas::obs {

const char* to_string(Cat c) {
  switch (c) {
    case Cat::kRequest:
      return "request";
    case Cat::kPower:
      return "power";
    case Cat::kBatch:
      return "batch";
    case Cat::kRebuild:
      return "rebuild";
    case Cat::kPolicy:
      return "policy";
    case Cat::kFault:
      return "fault";
    case Cat::kCache:
      return "cache";
    case Cat::kReliability:
      return "reliability";
  }
  return "?";
}

const char* to_string(Ev e) {
  switch (e) {
    case Ev::kArrive:
      return "arrive";
    case Ev::kQueue:
      return "queue";
    case Ev::kDispatch:
      return "dispatch";
    case Ev::kServiceBegin:
      return "service-begin";
    case Ev::kServiceEnd:
      return "service-end";
    case Ev::kComplete:
      return "complete";
    case Ev::kPowerTransition:
      return "power-transition";
    case Ev::kBatchFormed:
      return "batch-formed";
    case Ev::kRebuildRead:
      return "rebuild-read";
    case Ev::kRebuildWrite:
      return "rebuild-write";
    case Ev::kRebuildDone:
      return "rebuild-done";
    case Ev::kDiskDown:
      return "disk-down";
    case Ev::kDiskBack:
      return "disk-back";
    case Ev::kPolicyArm:
      return "policy-arm";
    case Ev::kPolicyCancel:
      return "policy-cancel";
    case Ev::kCacheHit:
      return "cache-hit";
    case Ev::kCacheMiss:
      return "cache-miss";
    case Ev::kWriteBuffered:
      return "write-buffered";
    case Ev::kDestageBegin:
      return "destage-begin";
    case Ev::kDestageDone:
      return "destage-done";
    case Ev::kDeadlineMiss:
      return "deadline-miss";
    case Ev::kRetry:
      return "retry";
    case Ev::kHedgeIssue:
      return "hedge-issue";
    case Ev::kHedgeWin:
      return "hedge-win";
    case Ev::kShed:
      return "shed";
    case Ev::kAbandon:
      return "abandon";
  }
  return "?";
}

Cat category_of(Ev e) {
  switch (e) {
    case Ev::kArrive:
    case Ev::kQueue:
    case Ev::kDispatch:
    case Ev::kServiceBegin:
    case Ev::kServiceEnd:
    case Ev::kComplete:
      return Cat::kRequest;
    case Ev::kPowerTransition:
      return Cat::kPower;
    case Ev::kBatchFormed:
      return Cat::kBatch;
    case Ev::kRebuildRead:
    case Ev::kRebuildWrite:
    case Ev::kRebuildDone:
      return Cat::kRebuild;
    case Ev::kDiskDown:
    case Ev::kDiskBack:
      return Cat::kFault;
    case Ev::kPolicyArm:
    case Ev::kPolicyCancel:
      return Cat::kPolicy;
    case Ev::kCacheHit:
    case Ev::kCacheMiss:
    case Ev::kWriteBuffered:
    case Ev::kDestageBegin:
    case Ev::kDestageDone:
      return Cat::kCache;
    case Ev::kDeadlineMiss:
    case Ev::kRetry:
    case Ev::kHedgeIssue:
    case Ev::kHedgeWin:
    case Ev::kShed:
    case Ev::kAbandon:
      return Cat::kReliability;
  }
  return Cat::kRequest;
}

const char* power_state_name(std::uint32_t s) {
  // Mirrors disk::to_string(DiskState); pinned by ObsVocabulary tests so the
  // two tables cannot drift apart.
  switch (s) {
    case 0:
      return "standby";
    case 1:
      return "spin-up";
    case 2:
      return "idle";
    case 3:
      return "active";
    case 4:
      return "spin-down";
  }
  return "?";
}

void TraceConfig::validate() const {
  if (!enabled) return;
  EAS_REQUIRE_MSG(capacity > 0, "trace ring capacity must be positive");
  EAS_REQUIRE_MSG(categories != 0, "trace category mask is empty");
  EAS_REQUIRE_MSG((categories & ~kAllCategories) == 0,
                  "unknown bits in trace category mask: " << categories);
}

TraceRecorder::TraceRecorder(TraceConfig config)
    : config_(config), capacity_(config.capacity) {
  TraceConfig checked = config_;
  checked.enabled = true;  // a recorder only exists when tracing is wanted
  checked.validate();
  ring_.resize(static_cast<std::size_t>(capacity_));
}

namespace {

/// Microsecond timestamp for the Chrome "ts" field, emitted with the same
/// shortest-round-trip formatter the result JSON uses.
std::string chrome_ts(double seconds) {
  return util::json_number(seconds * 1e6);
}

void emit_meta(util::JsonWriter& w, int pid, int tid, const char* what,
               const std::string& name) {
  w.begin_object();
  w.field("ph", "M");
  w.field("pid", pid);
  w.field("tid", tid);
  w.field("name", what);
  w.key("args");
  w.begin_object();
  w.field("name", name);
  w.end_object();
  w.end_object();
}

void emit_instant(util::JsonWriter& w, int pid, int tid, const TraceEvent& e) {
  w.begin_object();
  w.field("ph", "i");
  w.field("pid", pid);
  w.field("tid", tid);
  w.field("s", "t");
  w.key("ts");
  w.raw(chrome_ts(e.time));
  w.field("cat", to_string(e.cat));
  w.field("name", to_string(e.ev));
  w.key("args");
  w.begin_object();
  w.field("id", e.id);
  w.field("a", e.a);
  w.field("b", e.b);
  w.field("c", e.c);
  w.end_object();
  w.end_object();
}

void emit_span(util::JsonWriter& w, int pid, int tid, const char* ph,
               const TraceEvent& e) {
  w.begin_object();
  w.field("ph", ph);
  w.field("pid", pid);
  w.field("tid", tid);
  w.key("ts");
  w.raw(chrome_ts(e.time));
  w.field("cat", to_string(e.cat));
  std::ostringstream name;
  name << "req " << e.id;
  w.field("name", name.str());
  if (ph[0] == 'B') {
    w.key("args");
    w.begin_object();
    w.field("id", e.id);
    w.field("disk", e.a);
    w.end_object();
  }
  w.end_object();
}

/// Complete-event ("X") power-state slice on the disk's track.
void emit_state_slice(util::JsonWriter& w, int pid, int tid, double begin,
                      double end, std::uint32_t state) {
  if (end < begin) end = begin;
  w.begin_object();
  w.field("ph", "X");
  w.field("pid", pid);
  w.field("tid", tid);
  w.key("ts");
  w.raw(chrome_ts(begin));
  w.key("dur");
  w.raw(util::json_number((end - begin) * 1e6));
  w.field("cat", "power");
  w.field("name", power_state_name(state));
  w.end_object();
}

}  // namespace

void TraceRecorder::append_chrome_events(util::JsonWriter& w, int pid,
                                         const std::string& process_name,
                                         double horizon) const {
  // Track layout inside one process (= one run / sweep cell):
  //   tid 0           system-wide instants (arrivals, batches, faults, ...)
  //   tid 1 + disk    per-disk track: power-state slices + service spans
  emit_meta(w, pid, 0, "process_name", process_name);
  emit_meta(w, pid, 0, "thread_name", "system");

  const std::size_t n = size();
  double last_time = 0.0;

  // Per-disk open power-state slice: state + since. Disks are discovered
  // lazily from the events themselves (first transition names the disk).
  struct OpenSlice {
    std::uint32_t disk = 0;
    std::uint32_t state = 0;
    double since = 0.0;
  };
  std::vector<OpenSlice> open;
  auto slice_for = [&open](std::uint32_t disk) -> OpenSlice* {
    for (OpenSlice& s : open) {
      if (s.disk == disk) return &s;
    }
    return nullptr;
  };

  std::vector<std::uint32_t> named_disks;
  auto disk_tid = [&](std::uint64_t disk) {
    const auto d = static_cast<std::uint32_t>(disk);
    if (std::find(named_disks.begin(), named_disks.end(), d) ==
        named_disks.end()) {
      named_disks.push_back(d);
      std::ostringstream name;
      name << "disk " << d;
      emit_meta(w, pid, static_cast<int>(1 + d), "thread_name", name.str());
    }
    return static_cast<int>(1 + d);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = event(i);
    last_time = std::max(last_time, e.time);
    switch (e.ev) {
      case Ev::kPowerTransition: {
        const auto disk = static_cast<std::uint32_t>(e.id);
        const int tid = disk_tid(e.id);
        if (OpenSlice* s = slice_for(disk)) {
          emit_state_slice(w, pid, tid, s->since, e.time, s->state);
          s->state = e.c;
          s->since = e.time;
        } else {
          // First transition for this disk: its prior state (e.b) has been
          // in effect since t=0 unless the trace started mid-run.
          if (dropped() == 0) {
            emit_state_slice(w, pid, tid, 0.0, e.time, e.b);
          }
          open.push_back(OpenSlice{disk, e.c, e.time});
        }
        break;
      }
      case Ev::kServiceBegin:
        emit_span(w, pid, disk_tid(e.a), "B", e);
        break;
      case Ev::kServiceEnd:
        emit_span(w, pid, disk_tid(e.a), "E", e);
        break;
      case Ev::kQueue:
      case Ev::kDispatch:
      case Ev::kComplete:
      case Ev::kDeadlineMiss:
      case Ev::kRetry:
      case Ev::kHedgeIssue:
      case Ev::kHedgeWin:
      case Ev::kShed:
      case Ev::kAbandon:
        emit_instant(w, pid, disk_tid(e.a), e);
        break;
      case Ev::kPolicyArm:
      case Ev::kPolicyCancel:
      case Ev::kDiskDown:
      case Ev::kDiskBack:
      case Ev::kDestageBegin:
      case Ev::kDestageDone:
        emit_instant(w, pid, disk_tid(e.id), e);
        break;
      default:
        emit_instant(w, pid, 0, e);
        break;
    }
  }

  // Close the still-open power-state slices at the horizon so per-state
  // durations in the viewer sum to the run's accounted time.
  const double end = std::max(horizon, last_time);
  for (const OpenSlice& s : open) {
    emit_state_slice(w, pid, static_cast<int>(1 + s.disk), s.since, end,
                     s.state);
  }
}

void TraceRecorder::export_chrome_json(std::ostream& os,
                                       double horizon) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  append_chrome_events(w, 0, "easched run", horizon);
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace eas::obs
