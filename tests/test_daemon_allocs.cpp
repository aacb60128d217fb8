// The daemon plane's steady state allocates nothing.
//
// An idle grid runs only the resource controller of §4.1: monitor samples,
// Group Manager reports and echo rounds, Site Manager leader echoes and the
// Application Controllers' load-check sweep.  With typed messages whose
// payloads travel inline, and echo bookkeeping that keeps its storage, none
// of that touches the heap once the grid is warm.  This binary replaces the
// global operator new with a counting one to prove it.
//
// The replacements stay out of line: inlined, GCC sees malloc() memory reach
// operator delete and reports -Wmismatched-new-delete.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "vdce/environment.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vdce {
namespace {

TEST(DaemonAllocations, IdleGridAllocatesNothingAfterWarmUp) {
  ScaleSpec spec;
  spec.grid.sites = 4;
  spec.grid.hosts_per_site = 16;
  auto env = VdceEnvironment::make_scale_environment(spec);
  ASSERT_TRUE(env.has_value()) << env.error().message;
  VdceEnvironment& grid = **env;

  // Warm-up: every daemon has fired, every host has reported once, and the
  // engine's arena and heap have reached their steady size.
  grid.run_for(30.0);
  const std::uint64_t sent_before = grid.fabric().stats().sent;

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  grid.run_for(120.0);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  // The window did real work: about a message per host per second.
  EXPECT_GT(grid.fabric().stats().sent, sent_before + 64 * 100);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace vdce
