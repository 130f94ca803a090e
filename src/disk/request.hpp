// I/O request records exchanged between scheduler, disks and metrics.
#pragma once

#include "sim/simulator.hpp"
#include "util/ids.hpp"

namespace eas::disk {

/// Who issued a request. Foreground requests come from the trace; the other
/// origins are copies and traffic the storage system synthesizes itself.
enum class Origin : std::uint8_t {
  kForeground = 0,  ///< a trace request
  kHedge = 1,       ///< second copy of a foreground read; shares its id
  kRebuild = 2,     ///< re-replication read or write; id is the rebuild epoch
  kDestage = 3,     ///< write-back of a dirty cache block
};

/// A read request for one data block (the paper: ~512 KB file block).
struct Request {
  RequestId id = 0;
  DataId data = kInvalidData;
  /// Rebuild traffic only: the disk being re-replicated onto.
  DiskId target = kInvalidDisk;
  unsigned long size_bytes = 512 * 1024;
  /// Direction. Disks serve both identically (the paper's service model is
  /// symmetric); the cache tier branches on it — reads probe the block
  /// cache, writes may be absorbed by the write-back buffer.
  bool is_read = true;
  /// Rebuild and destage traffic competes for disk time like any request
  /// but is excluded from the foreground response-time and availability
  /// metrics. An id is unique only within its origin.
  Origin origin = Origin::kForeground;
  /// When the request entered the storage system.
  sim::SimTime arrival_time = 0.0;
  /// When the scheduler dispatched it to a disk (>= arrival under batching).
  sim::SimTime dispatch_time = 0.0;
};

/// Completion record emitted by a disk.
struct Completion {
  Request request;
  DiskId disk = kInvalidDisk;
  sim::SimTime service_start = 0.0;  ///< transfer began
  sim::SimTime completion_time = 0.0;
  bool waited_for_spinup = false;  ///< any part of the wait was spin-up/down

  /// End-to-end response time as the paper measures it: completion minus
  /// system arrival (includes batching queue delay and spin-up delay).
  double response_seconds() const { return completion_time - request.arrival_time; }
};

}  // namespace eas::disk
