#include "counting_new.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* counted_or_throw(std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc{};
}

}  // namespace

std::uint64_t eas::testing::allocation_count() {
  return g_news.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) { return counted_or_throw(n); }
void* operator new[](std::size_t n) { return counted_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
