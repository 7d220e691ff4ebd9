// Deep-recursion + backtracking stress for the allocation-free resolution
// loop: naive reverse of a 500-element list, between/3 fan-outs, and
// repeated Solve calls on one Machine. Verifies (a) answers stay correct
// across reuse, (b) the goal-node pool and trail reach a fixed capacity
// (storage is recycled, not leaked), and (c) the steady-state solve loop
// performs zero heap allocations once warm, via a counting global
// operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "engine/database.h"
#include "engine/machine.h"
#include "reader/parser.h"
#include "term/store.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting global allocator. Only the count is instrumented; allocation
// behavior is unchanged. The deletes stay out of line: inlined, g++ 12
// pairs their free() with the `new` expressions of callers and reports a
// mismatched deallocation (-Wmismatched-new-delete) that is not there.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace prore {
namespace {

using engine::Metrics;

class EngineStressTest : public ::testing::Test {
 protected:
  void Load(const std::string& source) {
    auto parsed = reader::ParseProgramText(&store_, source);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    auto db = engine::Database::Build(&store_, *parsed);
    ASSERT_TRUE(db.ok()) << db.status().message();
    db_ = std::move(*db);
    machine_.emplace(&store_, &db_);
  }

  term::TermRef ParseGoal(const std::string& text) {
    auto q = reader::ParseQueryText(&store_, text + ".");
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q->term;
  }

  term::TermStore store_;
  engine::Database db_;
  std::optional<engine::Machine> machine_;
};

std::string NumberList(int n, bool descending) {
  std::string out = "[";
  for (int i = 0; i < n; ++i) {
    if (i) out += ",";
    out += std::to_string(descending ? n - 1 - i : i);
  }
  return out + "]";
}

TEST_F(EngineStressTest, NaiveReverse500RecyclesAcrossSolveCalls) {
  Load(R"(
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
  )");
  // nrev( [0..499], R ), R == [499..0] — deep recursion, ~125k head
  // unifications per run.
  const std::string goal_text =
      "nrev(" + NumberList(500, false) + ", R), R == " +
      NumberList(500, true);
  term::TermRef goal = ParseGoal(goal_text);

  Metrics first;
  for (int run = 0; run < 5; ++run) {
    auto m = machine_->Solve(goal);
    ASSERT_TRUE(m.ok()) << m.status().message();
    EXPECT_EQ(m->solutions, 1u) << "run " << run;
    if (run == 0) {
      first = *m;
    } else {
      // Reusing the machine must not change what gets computed.
      EXPECT_EQ(m->TotalCalls(), first.TotalCalls()) << "run " << run;
      EXPECT_EQ(m->head_unifications, first.head_unifications)
          << "run " << run;
    }
  }

  // Pool/trail storage is recycled: capacities stop growing after warm-up.
  size_t pool_cap = machine_->GoalNodePoolCapacity();
  size_t trail_cap = machine_->TrailCapacity();
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto m = machine_->Solve(goal);
  uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(machine_->GoalNodePoolCapacity(), pool_cap);
  EXPECT_EQ(machine_->TrailCapacity(), trail_cap);
  // The warmed steady-state loop allocates nothing at all.
  EXPECT_EQ(after - before, 0u);
}

TEST_F(EngineStressTest, BetweenFanOutBacktracksAllocationFree) {
  Load("pick(X) :- between(1, 2000, X), 0 is X mod 499.");
  term::TermRef all = ParseGoal("pick(X), fail");
  term::TermRef some = ParseGoal("between(1, 1000, X), X >= 998");

  for (int run = 0; run < 3; ++run) {
    auto m1 = machine_->Solve(all);
    ASSERT_TRUE(m1.ok());
    EXPECT_EQ(m1->solutions, 0u);  // failure-driven: 4 matches all retried
    auto m2 = machine_->Solve(some);
    ASSERT_TRUE(m2.ok());
    EXPECT_EQ(m2->solutions, 3u);
  }

  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto m1 = machine_->Solve(all);
  auto m2 = machine_->Solve(some);
  uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->solutions, 3u);
  EXPECT_EQ(after - before, 0u);
}

TEST_F(EngineStressTest, BudgetExhaustionThenReuse) {
  // A Machine that trips a resource budget must stay fully usable: the
  // unwind restores the trail/goal pool, and the next Solve re-arms the
  // budget from scratch.
  Load(R"(
    loop :- loop.
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
  )");
  engine::SolveOptions opts;
  opts.max_calls = 2000;
  opts.max_depth = 5000;
  engine::Machine bounded(&store_, &db_, opts);

  term::TermRef runaway = ParseGoal("loop");
  term::TermRef work = ParseGoal("nrev(" + NumberList(30, false) + ", R)");

  for (int run = 0; run < 5; ++run) {
    auto bad = bounded.Solve(runaway);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kResourceExhausted);
    auto good = bounded.Solve(work);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_EQ(good->solutions, 1u);
  }

  // The zero-allocation property survives exhaustion: after a budget trip
  // (whose error *reporting* may allocate strings), a warm clean solve
  // still allocates nothing.
  auto bad = bounded.Solve(runaway);
  ASSERT_FALSE(bad.ok());
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto good = bounded.Solve(work);
  uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->solutions, 1u);
  EXPECT_EQ(after - before, 0u);
}

TEST_F(EngineStressTest, CatchThrowChurnIsStable) {
  // Exception unwinding through deep goal stacks, repeated on one machine:
  // every cycle throws from depth ~200, catches at the top, and checks the
  // machine still answers plain queries.
  Load(R"(
    dig(0) :- throw(bottom).
    dig(N) :- N > 0, M is N - 1, dig(M).
    p(1). p(2).
  )");
  term::TermRef guarded = ParseGoal("catch(dig(200), bottom, true)");
  term::TermRef plain = ParseGoal("p(X)");
  for (int run = 0; run < 50; ++run) {
    auto m = machine_->Solve(guarded);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_EQ(m->solutions, 1u);
    auto m2 = machine_->Solve(plain);
    ASSERT_TRUE(m2.ok());
    EXPECT_EQ(m2->solutions, 2u);
  }
}

TEST_F(EngineStressTest, DeepBacktrackingKeepsTrailConsistent) {
  // member/2 over a 400-element list inside a conjunction that fails until
  // the last element: every retry must fully unwind the previous binding.
  Load("last_is(L, X) :- member(X, L), X == 399.");
  term::TermRef goal =
      ParseGoal("last_is(" + NumberList(400, false) + ", X)");
  for (int run = 0; run < 3; ++run) {
    auto m = machine_->Solve(goal);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->solutions, 1u);
    EXPECT_GE(m->backtracks, 399u);
  }
}

}  // namespace
}  // namespace prore
