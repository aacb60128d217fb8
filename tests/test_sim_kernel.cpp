// The zero-allocation event kernel (sim/task.hpp, sim/engine.hpp):
//
//   * steady-state schedule/fire/cancel touches the allocator zero times
//     (proven with a counting replacement operator new),
//   * generation-checked handles stay safe no-ops across a million
//     slot-recycling schedule/cancel cycles, after their event fired, and
//     after the engine itself has been destroyed,
//   * and the calendar queue's firing order is *identical* to both the
//     frozen legacy kernel (sim/legacy_engine.hpp) and the in-engine
//     binary-heap reference mode, under randomized operation scripts that
//     stress ties, cancellations, timers, bursts, and sparse horizons.
//
// The environment-level trace differential (chaos / tenancy / 200-case
// scale corpus) lives in test_sim_kernel_differential.cpp (tier2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "sim/engine.hpp"
#include "sim/legacy_engine.hpp"

// ---- global allocation counter ---------------------------------------------
// Counts every heap allocation in the test binary so the steady-state test
// can assert the kernel's schedule/fire/cancel path allocates nothing.  The
// replacements stay out of line: inlined, GCC sees malloc() memory reach
// operator delete and reports -Wmismatched-new-delete.
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

// ---- Task: the SBO callable ------------------------------------------------

TEST(SimTask, InlineStorageInvokesAndMoves) {
  int hits = 0;
  sim::Task t([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(t));
  t();
  EXPECT_EQ(hits, 1);

  sim::Task moved = std::move(t);
  EXPECT_FALSE(static_cast<bool>(t));
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(SimTask, FatCapturesNearTheInlineBudgetNeverAllocate) {
  struct Fat {
    double payload[14];  // 112 bytes; +8 for &seen stays inside the budget
  };
  Fat fat{};
  fat.payload[0] = 42.0;
  double seen = 0.0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    sim::Task t([fat, &seen] { seen = fat.payload[0]; });
    sim::Task moved = std::move(t);
    moved();
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "constructing/moving/invoking/destroying a Task must not allocate";
  EXPECT_EQ(seen, 42.0);
}

TEST(SimTask, DestroysCapturedStateExactlyOnce) {
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    Probe(Probe&& other) noexcept : counter(other.counter) {
      other.counter = nullptr;
    }
    ~Probe() {
      if (counter) ++*counter;
    }
  };
  int destroyed = 0;
  {
    sim::Task t([p = Probe(&destroyed)] { (void)p; });
    sim::Task moved = std::move(t);
    moved();  // invoking does not destroy the closure
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

// ---- zero-allocation steady state ------------------------------------------
//
// The daemon-like steady state: a fixed population of periodic timers, each
// tick scheduling a one-shot follow-up and cancelling every other one.  The
// workload is strictly periodic, so once the arena, the timer list, and the
// calendar buckets are warm, the measured window repeats the exact occupancy
// pattern of the warm-up — and must not touch the allocator at all.

struct SteadyState {
  sim::Engine* engine = nullptr;
  std::uint64_t ticks = 0;
  std::uint64_t cancels = 0;
  sim::EventHandle last;
};

void steady_tick(SteadyState* s, double period) {
  ++s->ticks;
  // Schedule a follow-up half a period out; cancel every other one.  The
  // cancelled event stays queued (frozen kernel semantics) and is recycled
  // when its time comes up — exercising the cancel path every tick.
  sim::EventHandle h =
      s->engine->schedule(period * 0.5, [s] { ++s->ticks; });
  if (s->ticks % 2 == 0) {
    h.cancel();
    ++s->cancels;
  }
  s->last = h;
}

TEST(SimKernelAlloc, SteadyStateScheduleFireCancelIsAllocationFree) {
  sim::Engine engine;
  engine.reserve_events(4096);
  SteadyState state;
  state.engine = &engine;

  constexpr int kTimers = 96;
  const double periods[] = {0.25, 0.5, 1.0, 2.0};
  for (int i = 0; i < kTimers; ++i) {
    const double period = periods[i % 4];
    engine.every(period, [s = &state, period] { steady_tick(s, period); });
  }

  // Warm-up: several full rotations of the slowest period so arena slots,
  // timer slots, and every calendar bucket reach their plateau capacity.
  engine.run_until(64.0);
  const std::uint64_t warm_ticks = state.ticks;
  ASSERT_GT(warm_ticks, 10000u);
  const std::size_t warm_capacity = engine.arena_capacity();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  engine.run_until(192.0);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/fire/cancel must not allocate";
  EXPECT_GT(state.ticks, warm_ticks * 2) << "the measured window did run";
  EXPECT_GT(state.cancels, 0u);
  EXPECT_EQ(engine.arena_capacity(), warm_capacity)
      << "the arena must not grow in the steady state";
}

// ---- generation-checked handles --------------------------------------------

TEST(SimKernelHandles, CancelAndPendingAfterFireAreNoOps) {
  sim::Engine engine;
  int fired = 0;
  sim::EventHandle h = engine.schedule(1.0, [&fired] { ++fired; });
  EXPECT_TRUE(h.pending());
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // after fire: no-op
  h.cancel();  // repeated: still a no-op
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(engine.total_fired(), 1u);
}

TEST(SimKernelHandles, StaleHandleDoesNotCancelTheSlotsNewOccupant) {
  sim::Engine engine;
  int first = 0, second = 0;
  sim::EventHandle old = engine.schedule(1.0, [&first] { ++first; });
  old.cancel();
  engine.run();  // pops the cancelled entry: the slot joins the free list
  ASSERT_EQ(engine.arena_live(), 0u);
  // The next schedule recycles that slot under a bumped generation.
  sim::EventHandle fresh = engine.schedule(1.0, [&second] { ++second; });
  EXPECT_FALSE(old.pending());
  old.cancel();  // generation miss: must NOT kill `fresh`
  EXPECT_TRUE(fresh.pending());
  engine.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(SimKernelHandles, MillionScheduleCancelCyclesRecycleSlots) {
  sim::Engine engine;
  int fired = 0;
  sim::EventHandle first = engine.schedule(1.0, [&fired] { ++fired; });
  first.cancel();
  // A million schedule/cancel cycles in batches of 1024: draining between
  // batches pops the cancelled entries and recycles their slots, so each
  // slot is reused ~1000 times with a bumped generation every round.  The
  // arena must stay bounded by the batch size, and `first` (plus every
  // sampled stale handle) must stay dead no matter how often its slot is
  // reincarnated.
  for (int i = 0; i < 1'000'000; ++i) {
    sim::EventHandle h = engine.schedule(1.0, [&fired] { ++fired; });
    h.cancel();
    EXPECT_FALSE(h.pending());
    if ((i & 1023) == 1023) {
      engine.run_until(engine.now() + 2.0);
      if ((i & 0xffff) == 0xffff) EXPECT_FALSE(first.pending());
    }
  }
  engine.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.total_scheduled(), 1'000'001u);
  EXPECT_EQ(engine.arena_live(), 0u);
  EXPECT_LE(engine.arena_capacity(), 2048u)
      << "slot recycling must bound the arena by the in-flight count";
  first.cancel();  // still a safe no-op a million generations later
}

TEST(SimKernelHandles, HandlesOutliveTheEngine) {
  sim::EventHandle event;
  sim::TimerHandle timer;
  int fired = 0;
  {
    auto engine = std::make_unique<sim::Engine>();
    event = engine->schedule(5.0, [&fired] { ++fired; });
    timer = engine->every(1.0, [&fired] { ++fired; });
    EXPECT_TRUE(event.pending());
    EXPECT_TRUE(timer.active());
  }
  // The engine is gone; the anchor is nulled, so every operation degrades
  // to a safe no-op instead of touching freed memory.
  EXPECT_FALSE(event.pending());
  EXPECT_FALSE(timer.active());
  event.cancel();
  timer.cancel();
  EXPECT_EQ(fired, 0);
}

TEST(SimKernelHandles, DefaultConstructedHandlesAreInert) {
  sim::EventHandle event;
  sim::TimerHandle timer;
  EXPECT_FALSE(event.pending());
  EXPECT_FALSE(timer.active());
  event.cancel();
  timer.cancel();
}

// ---- timers -----------------------------------------------------------------

TEST(SimKernelTimers, OptionalInitialDelayDefaultsToOneFullPeriod) {
  sim::Engine engine;
  std::vector<double> fire_times;
  engine.every(2.0, [&] { fire_times.push_back(engine.now()); });
  engine.run_until(7.0);
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], 2.0);
  EXPECT_EQ(fire_times[1], 4.0);
  EXPECT_EQ(fire_times[2], 6.0);
}

TEST(SimKernelTimers, ExplicitInitialDelayOverridesThePeriod) {
  sim::Engine engine;
  std::vector<double> fire_times;
  engine.every(2.0, [&] { fire_times.push_back(engine.now()); }, 0.25);
  engine.run_until(5.0);
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], 0.25);
  EXPECT_EQ(fire_times[1], 2.25);
  EXPECT_EQ(fire_times[2], 4.25);
}

TEST(SimKernelTimers, ZeroInitialDelayFiresImmediately) {
  sim::Engine engine;
  int ticks = 0;
  sim::TimerHandle t = engine.every(1.0, [&ticks] { ++ticks; }, 0.0);
  engine.run_steps(1);
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(engine.now(), 0.0);
  t.cancel();
  engine.run_until(3.0);
  EXPECT_EQ(ticks, 1);
}

TEST(SimKernelTimers, TimerSlotIsRecycledAfterStop) {
  sim::Engine engine;
  for (int round = 0; round < 64; ++round) {
    int ticks = 0;
    sim::TimerHandle t = engine.every(0.5, [&ticks] { ++ticks; });
    engine.run_until(engine.now() + 2.0);
    t.cancel();
    engine.run_until(engine.now() + 2.0);  // pending tick drains
    EXPECT_EQ(ticks, 4) << "round " << round;
  }
  // All 64 timers reused a tiny pool of recycled timer slots.
  EXPECT_LE(engine.timer_capacity(), 4u);
}

// ---- firing-order differential: calendar vs heap vs legacy ------------------
//
// A randomized operation script applied identically to (a) the production
// calendar-queue engine, (b) the same engine in binary-heap-reference mode,
// and (c) the frozen pre-redesign LegacyEngine.  Every callback appends
// "<id>@<time>" to a log; the three logs must be byte-identical.  Times are
// drawn on a coarse lattice so ties are common and the (time, seq)
// tiebreak — the property the calendar queue must preserve exactly — is
// stressed hard.

struct ScriptOp {
  enum Kind { kOneShot, kCancelled, kCancelAt, kTimer, kTimerStopAt } kind;
  double at = 0.0;      ///< schedule time (offset) or timer period
  double arg = 0.0;     ///< cancel time / timer stop time / initial delay
  int target = -1;      ///< for kCancelAt / kTimerStopAt: victim op index
};

std::vector<ScriptOp> make_script(std::uint64_t seed, std::size_t ops,
                                  double lattice, double horizon) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, horizon);
  auto snap = [&](double t) {
    return lattice > 0.0 ? std::floor(t / lattice) * lattice : t;
  };
  std::vector<ScriptOp> script;
  std::vector<int> one_shots, timers;
  for (std::size_t i = 0; i < ops; ++i) {
    ScriptOp op;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
      case 3:
        op.kind = ScriptOp::kOneShot;
        op.at = snap(uniform(rng));
        one_shots.push_back(static_cast<int>(script.size()));
        break;
      case 4:
        op.kind = ScriptOp::kCancelled;  // cancelled before the run starts
        op.at = snap(uniform(rng));
        break;
      case 5:
        if (one_shots.empty()) continue;
        op.kind = ScriptOp::kCancelAt;
        op.at = snap(uniform(rng));
        op.target = one_shots[rng() % one_shots.size()];
        break;
      case 6:
        op.kind = ScriptOp::kTimer;
        op.at = snap(uniform(rng)) / 8.0 + (lattice > 0.0 ? lattice : 0.01);
        op.arg = rng() % 2 == 0 ? -1.0 : snap(uniform(rng)) / 4.0;
        timers.push_back(static_cast<int>(script.size()));
        break;
      default:
        if (timers.empty()) continue;
        op.kind = ScriptOp::kTimerStopAt;
        op.at = snap(uniform(rng));
        op.target = timers[rng() % timers.size()];
        break;
    }
    script.push_back(op);
  }
  return script;
}

/// Replay `script` on any engine type with schedule/every/run and
/// EventHandle-style cancel(); returns the firing log.
template <typename EngineT, typename EventHandleT, typename TimerHandleT>
std::string replay_script(EngineT& engine, const std::vector<ScriptOp>& script,
                          double horizon) {
  std::string log;
  auto fire = [&log, &engine](int id) {
    log += std::to_string(id);
    log += '@';
    log += common::format_double(engine.now(), 9);
    log += '\n';
  };
  std::vector<EventHandleT> events(script.size());
  std::vector<TimerHandleT> timers(script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    const ScriptOp& op = script[i];
    const int id = static_cast<int>(i);
    switch (op.kind) {
      case ScriptOp::kOneShot:
        events[i] = engine.schedule(op.at, [fire, id] { fire(id); });
        break;
      case ScriptOp::kCancelled:
        events[i] = engine.schedule(op.at, [fire, id] { fire(id); });
        events[i].cancel();
        break;
      case ScriptOp::kCancelAt:
        engine.schedule(op.at, [&events, t = op.target] {
          events[static_cast<std::size_t>(t)].cancel();
        });
        break;
      case ScriptOp::kTimer:
        if (op.arg < 0.0) {
          timers[i] = engine.every(op.at, [fire, id] { fire(id); });
        } else {
          timers[i] = engine.every(op.at, [fire, id] { fire(id); }, op.arg);
        }
        break;
      case ScriptOp::kTimerStopAt:
        engine.schedule(op.at, [&timers, t = op.target] {
          timers[static_cast<std::size_t>(t)].cancel();
        });
        break;
    }
  }
  engine.run_until(horizon);
  return log;
}

void expect_kernels_agree(std::uint64_t seed, std::size_t ops, double lattice,
                          double horizon) {
  const std::vector<ScriptOp> script =
      make_script(seed, ops, lattice, horizon);
  ASSERT_FALSE(script.empty());

  sim::Engine calendar(sim::QueueKind::kCalendar);
  sim::Engine heap(sim::QueueKind::kBinaryHeapReference);
  sim::legacy::LegacyEngine legacy;

  const std::string a =
      replay_script<sim::Engine, sim::EventHandle, sim::TimerHandle>(
          calendar, script, horizon);
  const std::string b =
      replay_script<sim::Engine, sim::EventHandle, sim::TimerHandle>(
          heap, script, horizon);
  const std::string c =
      replay_script<sim::legacy::LegacyEngine, sim::legacy::LegacyEventHandle,
                    sim::legacy::LegacyTimerHandle>(legacy, script, horizon);

  ASSERT_FALSE(a.empty()) << "seed " << seed << ": nothing fired";
  EXPECT_EQ(a, b) << "seed " << seed << ": calendar vs binary-heap reference";
  EXPECT_EQ(a, c) << "seed " << seed << ": calendar vs frozen legacy kernel";
  EXPECT_EQ(calendar.now(), legacy.now());
  EXPECT_EQ(calendar.total_fired(), heap.total_fired());
}

class KernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelFuzz, TiedLatticeScriptFiresIdenticallyOnAllThreeKernels) {
  // Coarse lattice (0.125) over a 40 s horizon: dense, heavily tied.
  expect_kernels_agree(GetParam(), 1500, 0.125, 40.0);
}

TEST_P(KernelFuzz, ContinuousTimesAlsoAgree) {
  // No lattice: continuous timestamps, ties only from identical draws.
  expect_kernels_agree(GetParam() * 7919 + 1, 1200, 0.0, 25.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(KernelFuzzEdges, SingleInstantBurstPreservesSubmissionOrder) {
  // Everything at t=0: pure seq-order test, and the calendar's worst tie
  // case (one bucket holds the whole population).
  sim::Engine calendar(sim::QueueKind::kCalendar);
  sim::Engine heap(sim::QueueKind::kBinaryHeapReference);
  for (sim::Engine* engine : {&calendar, &heap}) {
    std::string log;
    for (int i = 0; i < 2000; ++i) {
      engine->schedule(0.0, [&log, i] { log += std::to_string(i) + ","; });
    }
    engine->run();
    std::string expected;
    for (int i = 0; i < 2000; ++i) expected += std::to_string(i) + ",";
    EXPECT_EQ(log, expected);
  }
}

TEST(KernelFuzzEdges, SparseHorizonExercisesTheCalendarFallback) {
  // A handful of events spread across nine decades of simulated time: the
  // window scan gives up and the sparse fallback (min over bucket tops)
  // must still produce the exact order.
  expect_kernels_agree(99, 200, 0.0, 1e9);
}

TEST(KernelFuzzEdges, DrainAndRefillKeepsOrderAcrossResizes) {
  // Grow to thousands, drain to near-zero, grow again: crosses the
  // calendar's resize thresholds in both directions repeatedly.
  sim::Engine calendar(sim::QueueKind::kCalendar);
  sim::legacy::LegacyEngine legacy;
  std::string a, b;
  auto drive = [](auto& engine, std::string& log) {
    std::mt19937_64 rng(4242);
    std::uniform_real_distribution<double> jitter(0.0, 4.0);
    for (int wave = 0; wave < 6; ++wave) {
      const double base = engine.now();
      for (int i = 0; i < 3000; ++i) {
        const int id = wave * 3000 + i;
        engine.schedule(jitter(rng), [&log, id, &engine] {
          log += std::to_string(id) + "@" +
                 common::format_double(engine.now(), 9) + "\n";
        });
      }
      engine.run_until(base + 8.0);  // full drain between waves
    }
  };
  drive(calendar, a);
  drive(legacy, b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---- throughput / arena accounting ------------------------------------------

TEST(SimKernelAccounting, WallClockAndArenaGaugesAreSane) {
  sim::Engine engine;
  EXPECT_EQ(engine.events_per_sec(), 0.0);
  EXPECT_EQ(engine.arena_high_water(), 0u);
  for (int i = 0; i < 1000; ++i) {
    engine.schedule(static_cast<double>(i) * 0.001, [] {});
  }
  EXPECT_EQ(engine.arena_live(), 1000u);
  EXPECT_GE(engine.arena_capacity(), 1000u);
  engine.run();
  EXPECT_EQ(engine.arena_live(), 0u);
  EXPECT_EQ(engine.arena_high_water(), 1000u);
  EXPECT_GT(engine.wall_seconds_in_run(), 0.0);
  EXPECT_GT(engine.events_per_sec(), 0.0);
}

}  // namespace
}  // namespace vdce
