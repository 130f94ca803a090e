// Counting replacement of the global allocation functions, for the test
// binaries that pin a zero-allocation contract literally (test_sim_alloc,
// test_cache, test_graph_diff). counting_new.cpp replaces operator new and
// delete for the whole program it is linked into, so it is compiled into
// exactly those binaries and no other.
//
// Every replaced new (plain and array, throwing and nothrow) allocates
// through one counted malloc and every replaced delete (plain and array,
// unsized, sized and nothrow) releases through free, so no block reaches a
// deallocator of another allocator. Only allocations are counted.
#pragma once

#include <cstdint>

namespace eas::testing {

/// Allocations made through the replaced operator new since start-up.
std::uint64_t allocation_count();

/// Allocations observed while running `body`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = allocation_count();
  body();
  return allocation_count() - before;
}

}  // namespace eas::testing
