// Seeded chaos harness for the cancellation/deadline/OOM substrate: each
// scenario (= seed) derives a deterministic per-job fault mix (ChaosPlan)
// — injected allocation failures, mid-solve cancellations, budget trips,
// pre-expired deadlines, pre-cancelled tokens, worker delays — and fires
// it at a fleet of snapshot-backed machines on real threads, asserting
//   (a) nothing crashes and no exception escapes a worker,
//   (b) every injected failure surfaces as its classified, catchable
//       error (canceled / resource_error(...) / fault_injected),
//   (c) every machine answers correctly again after every injection, and
//   (d) deterministic channels replay bit-identically per seed.
// The pipeline section runs the same contexts through GuardedPipeline:
// a cancelled or deadline-expired run must ship the identity program,
// never a partial one. Scenario count defaults to 500; override with
// PRORE_CHAOS_SCENARIOS (CI smoke uses 200 under sanitizers). On a
// violated expectation the offending program is dumped via the proshrink
// repro dumper so CI can archive it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "core/pipeline.h"
#include "engine/fault.h"
#include "engine/machine.h"
#include "engine/snapshot.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"
#include "testing/shrinker.h"

namespace prore::engine {
namespace {

// Enough counted calls (~100) and heap allocation that every injection
// point of ChaosPlan (< 64 calls, < 200 cells) can land mid-solve.
const char kProgram[] = R"(
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
parent(tom, bob).
parent(bob, ann).
grand(X, Z) :- parent(X, Y), parent(Y, Z).
)";

const char kWorkQuery[] = "nrev([1,2,3,4,5,6,7,8,9,10,11,12], R).";
const char kControlQuery[] = "grand(tom, Z).";

size_t ScenarioCount() {
  if (const char* env = std::getenv("PRORE_CHAOS_SCENARIOS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 500;
}

/// One job's observable outcome, canonicalized for replay comparison.
/// Wall-clock-only channels (delay) do not appear, by construction.
struct JobOutcome {
  prore::StatusCode code = prore::StatusCode::kOk;
  std::string ball;     ///< thrown term text, "" when ok
  std::string answers;  ///< ";"-joined canonical answers, "" on error

  std::string Render() const {
    std::ostringstream os;
    os << StatusCodeName(code) << "|" << ball << "|" << answers;
    return os.str();
  }
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto p = reader::ParseProgramText(&store_, kProgram);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    auto snap = ProgramSnapshot::Compile(store_, *p);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    snapshot_ = std::move(snap).value();
  }

  /// Runs one job's plan on a fresh snapshot machine and returns what
  /// happened. The machine is then reused for the control query, which is
  /// this harness's reusability gate: EXPECT failures inside mark the test.
  JobOutcome RunJob(const ChaosPlan::JobPlan& plan) {
    CancellationSource cancel;
    FaultInjector injector;
    injector.throw_at_call = plan.throw_at_call;
    injector.exhaust_at_call = plan.exhaust_at_call;
    injector.cancel_at_call = plan.cancel_at_call;
    injector.delay_at_call = plan.delay_at_call;
    injector.delay_micros = plan.delay_micros;
    if (plan.cancel_at_call != 0) {
      injector.on_cancel = [&cancel] { cancel.RequestCancel("chaos"); };
    }

    SolveOptions opts;
    opts.exec.token = cancel.token();
    if (plan.pre_expired_deadline) opts.exec.deadline = Deadline::AfterMs(0);
    opts.fault = &injector;
    Machine machine(snapshot_, opts);
    if (plan.pre_cancelled) cancel.RequestCancel("pre-cancelled");

    JobOutcome outcome;
    {
      auto q = reader::ParseQueryText(&machine.store(), kWorkQuery);
      EXPECT_TRUE(q.ok());
      if (!q.ok()) return outcome;
      // Armed only now: the injection must land inside the guarded solve
      // loop, not in query parsing (which allocates from the same store).
      if (plan.fail_alloc_at != 0) {
        machine.store().FailAllocAfter(plan.fail_alloc_at);
      }
      auto r = machine.SolveToStrings(q->term, q->term);
      if (r.ok()) {
        std::ostringstream os;
        for (const std::string& a : *r) os << a << ";";
        outcome.answers = os.str();
      } else {
        outcome.code = r.status().code();
        auto error = PrologErrorFromStatus(r.status());
        if (error.has_value()) outcome.ball = error->ball;
        // Whatever fired must be one of the injected identities — an
        // unexpected error class means the substrate misrouted a fault.
        EXPECT_TRUE(outcome.code == prore::StatusCode::kCancelled ||
                    outcome.code == prore::StatusCode::kResourceExhausted ||
                    outcome.code == prore::StatusCode::kPrologThrow)
            << r.status().ToString();
      }
      // A clean run can only happen when no error channel was armed or its
      // injection point was past the end of the query's work.
      if (plan.cancel_at_call == 0 && !plan.pre_cancelled &&
          !plan.pre_expired_deadline && plan.throw_at_call == 0 &&
          plan.exhaust_at_call == 0 && plan.fail_alloc_at == 0) {
        EXPECT_EQ(outcome.code, prore::StatusCode::kOk)
            << "clean control job failed: " << outcome.ball;
      }
    }

    // Reusability after EVERY injection: disarm everything and the same
    // machine must answer the control query correctly.
    machine.set_exec_context(ExecContext{});
    machine.store().FailAllocAfter(0);
    injector.Reset();
    injector.throw_at_call = injector.exhaust_at_call = 0;
    injector.cancel_at_call = injector.delay_at_call = 0;
    auto cq = reader::ParseQueryText(&machine.store(), kControlQuery);
    EXPECT_TRUE(cq.ok());
    if (cq.ok()) {
      auto cr = machine.SolveToStrings(cq->term, cq->term);
      EXPECT_TRUE(cr.ok()) << "machine not reusable: "
                           << cr.status().ToString();
      if (cr.ok()) {
        EXPECT_EQ(cr->size(), 1u) << "machine answered wrongly after fault";
      }
    }
    return outcome;
  }

  /// Everything one seed observed, for replay comparison.
  std::string RunSeedSingleThreaded(uint64_t seed, size_t jobs) {
    ChaosPlan chaos;
    chaos.seed = seed;
    std::ostringstream os;
    for (size_t j = 0; j < jobs; ++j) {
      os << RunJob(chaos.ForJob(j)).Render() << "\n";
    }
    return os.str();
  }

  term::TermStore store_;  ///< outlives the snapshot compiled from it
  std::shared_ptr<const ProgramSnapshot> snapshot_;
};

TEST_F(ChaosTest, SeededScenariosCrossThreadNoCrashAndReusable) {
  // The cross-thread gauntlet: every scenario fires its jobs concurrently.
  // Smaller scenario share here (they cost threads); the single-threaded
  // replay test below covers the full count.
  const size_t scenarios = std::max<size_t>(1, ScenarioCount() / 4);
  constexpr size_t kJobs = 4;
  for (size_t s = 0; s < scenarios; ++s) {
    ChaosPlan chaos;
    chaos.seed = 0x9e3779b9ull * (s + 1);
    std::vector<std::thread> threads;
    threads.reserve(kJobs);
    for (size_t j = 0; j < kJobs; ++j) {
      const ChaosPlan::JobPlan plan = chaos.ForJob(j);
      threads.emplace_back([this, plan] { (void)RunJob(plan); });
    }
    for (std::thread& t : threads) t.join();
    if (::testing::Test::HasFailure()) {
      // Archive the scenario for CI before bailing out of the loop.
      auto path = prore::testing::DumpRepro(
          "chaos", kProgram,
          "chaos scenario failed: seed=" + std::to_string(chaos.seed) +
              " jobs=" + std::to_string(kJobs) + " query=" + kWorkQuery);
      if (path.ok()) {
        std::fprintf(stderr, "chaos: repro artifact at %s\n", path->c_str());
      }
      FAIL() << "scenario " << s << " (seed " << chaos.seed << ") failed";
    }
  }
}

TEST_F(ChaosTest, DeterministicChannelsReplayBitIdentically) {
  const size_t scenarios = ScenarioCount();
  constexpr size_t kJobs = 3;
  for (size_t s = 0; s < scenarios; ++s) {
    const uint64_t seed = 0xc0ffee ^ (static_cast<uint64_t>(s) << 8);
    const std::string first = RunSeedSingleThreaded(seed, kJobs);
    const std::string second = RunSeedSingleThreaded(seed, kJobs);
    ASSERT_EQ(first, second) << "seed " << seed << " did not replay";
    if (::testing::Test::HasFailure()) {
      FAIL() << "scenario " << s << " (seed " << seed << ") failed";
    }
  }
}

TEST_F(ChaosTest, InjectedOutcomesCarryTheirClassifiedIdentities) {
  // Pin each channel's identity explicitly (the sweep above only checks
  // membership in the legal set): cancel -> canceled ball, pre-expired
  // deadline -> deadline_exceeded, exhaust -> resource_error, throw ->
  // fault_injected, alloc -> resource_error(memory).
  ChaosPlan::JobPlan plan;
  plan.cancel_at_call = 5;
  JobOutcome o = RunJob(plan);
  EXPECT_EQ(o.code, prore::StatusCode::kCancelled);
  EXPECT_NE(o.ball.find("canceled"), std::string::npos) << o.ball;

  plan = {};
  plan.pre_expired_deadline = true;
  o = RunJob(plan);
  EXPECT_EQ(o.code, prore::StatusCode::kResourceExhausted);
  EXPECT_NE(o.ball.find("deadline_exceeded"), std::string::npos) << o.ball;

  plan = {};
  plan.pre_cancelled = true;
  o = RunJob(plan);
  EXPECT_EQ(o.code, prore::StatusCode::kCancelled);

  plan = {};
  plan.exhaust_at_call = 7;
  o = RunJob(plan);
  EXPECT_EQ(o.code, prore::StatusCode::kResourceExhausted);
  EXPECT_NE(o.ball.find("resource_error"), std::string::npos) << o.ball;

  plan = {};
  plan.throw_at_call = 7;
  o = RunJob(plan);
  EXPECT_EQ(o.code, prore::StatusCode::kPrologThrow);
  EXPECT_NE(o.ball.find("fault_injected"), std::string::npos) << o.ball;

  plan = {};
  plan.fail_alloc_at = 40;
  o = RunJob(plan);
  EXPECT_EQ(o.code, prore::StatusCode::kResourceExhausted);
  EXPECT_NE(o.ball.find("resource_error(memory)"), std::string::npos)
      << o.ball;
}

TEST_F(ChaosTest, HeapExhaustionIsCatchableAndMachineRecovers) {
  // The cell-limit OOM path (distinct from the counted FailAllocAfter
  // channel): the limit is hit mid-solve, surfaces as a catchable
  // resource_error(memory), and the engine's headroom re-arm leaves the
  // machine able to answer again once the limit is lifted.
  Machine machine(snapshot_);
  machine.store().SetCellLimit(machine.store().NumCells() + 64);
  auto q = reader::ParseQueryText(&machine.store(), kWorkQuery);
  ASSERT_TRUE(q.ok());
  auto r = machine.Solve(q->term);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), prore::StatusCode::kResourceExhausted);
  auto error = PrologErrorFromStatus(r.status());
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->ball.find("resource_error(memory)"), std::string::npos)
      << error->ball;

  machine.store().SetCellLimit(0);
  auto cq = reader::ParseQueryText(&machine.store(), kControlQuery);
  ASSERT_TRUE(cq.ok());
  auto cr = machine.SolveToStrings(cq->term, cq->term);
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  EXPECT_EQ(cr->size(), 1u);
}

}  // namespace
}  // namespace prore::engine

// ----------------------------------------------------------------- pipeline

namespace prore::core {
namespace {

const char kPipelineProgram[] = R"(
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
edge(a, b).
edge(b, c).
edge(c, d).
)";

struct PipelineChaosFixture {
  term::TermStore store;
  reader::Program program;

  PipelineChaosFixture() {
    auto p = reader::ParseProgramText(&store, kPipelineProgram);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    if (p.ok()) program = std::move(p).value();
  }

  std::string RunAndWrite(const PipelineOptions& options,
                          PipelineReport* report) {
    term::TermStore run_store;
    auto p = reader::ParseProgramText(&run_store, kPipelineProgram);
    EXPECT_TRUE(p.ok());
    GuardedPipeline pipeline(&run_store, options);
    auto result = pipeline.Run(*p);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return "";
    *report = result->report;
    return reader::WriteProgram(run_store, result->program);
  }
};

TEST(ChaosPipelineTest, CancelledRunShipsIdentityNeverPartial) {
  PipelineChaosFixture fx;
  prore::CancellationSource cancel;
  cancel.RequestCancel("operator abort");

  PipelineReport identity_report;
  PipelineOptions cancelled;
  cancelled.exec.token = cancel.token();
  const std::string cancelled_out = fx.RunAndWrite(cancelled, &identity_report);
  EXPECT_FALSE(identity_report.global_trigger.empty());

  // The cancelled run's output is exactly the untransformed program text.
  term::TermStore ref_store;
  auto ref = reader::ParseProgramText(&ref_store, kPipelineProgram);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(cancelled_out, reader::WriteProgram(ref_store, *ref));
}

TEST(ChaosPipelineTest, ExpiredDeadlineShipsIdentityAcrossJobCounts) {
  PipelineChaosFixture fx;
  for (size_t jobs : {size_t{0}, size_t{1}, size_t{3}}) {
    PipelineReport report;
    PipelineOptions options;
    options.jobs = jobs;
    options.exec.deadline = prore::Deadline::AfterMs(0);
    const std::string out = fx.RunAndWrite(options, &report);
    EXPECT_FALSE(out.empty());
    EXPECT_TRUE(report.degraded()) << "jobs=" << jobs;
    // Complete: every predicate of the original is still present.
    EXPECT_NE(out.find("path"), std::string::npos);
    EXPECT_NE(out.find("edge"), std::string::npos);
  }
}

TEST(ChaosPipelineTest, JobsNOutputBitIdenticalWithContextLayerArmed) {
  // The cancellation layer being threaded through the pipeline's waves
  // must not perturb determinism: a live (never-fired) token and a far
  // deadline produce byte-identical output across jobs counts.
  PipelineChaosFixture fx;
  prore::CancellationSource live;
  std::string reference;
  for (size_t jobs : {size_t{1}, size_t{2}, size_t{4}}) {
    PipelineReport report;
    PipelineOptions options;
    options.jobs = jobs;
    options.exec.token = live.token();
    options.exec.deadline = prore::Deadline::AfterMs(600'000);
    const std::string out = fx.RunAndWrite(options, &report);
    EXPECT_FALSE(report.degraded()) << "jobs=" << jobs;
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(out, reference) << "jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace prore::core
