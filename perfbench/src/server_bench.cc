#include "src/server_bench.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "common/frame_io.h"
#include "common/json.h"
#include "core/pipeline.h"
#include "lint/lint.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "src/gen.h"
#include "src/trace.h"

namespace perfbench {

namespace {

using prore::JsonValue;

uint64_t Fnv(const std::string& s, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t HashAnswers(std::vector<std::string> answers) {
  std::sort(answers.begin(), answers.end());
  uint64_t h = Fnv(std::to_string(answers.size()));
  for (const std::string& a : answers) h = Fnv(a + "\n", h);
  return h;
}

/// An error reply: anything but "ok", and for a solve also "failed" (no
/// answers), which is a correct outcome.
bool IsError(const ServerRecord& r) {
  return r.status != "ok" && !(r.op == "solve" && r.status == "failed");
}

prore::FrameIoOptions IoOptions() {
  prore::FrameIoOptions io;
  io.max_frame_bytes = 64u << 20;
  io.idle_timeout_ms = 120'000;
  io.frame_timeout_ms = 120'000;
  return io;
}

int Connect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The op mix, one deck of 19 slots dealt per 20 requests: 14 solve, 2
/// reorder of an unedited session (cache hits), 1 edit (a load of an
/// edited variant and then a reorder of it: the write path, a cache miss
/// on the dirty cone), 1 lint, 1 ping or stats. So the mix is 70% solve,
/// 15% reorder (two thirds hits), 5% load, 5% lint, 5% ping/stats.
enum Slot : size_t { kSolve, kReorder, kEdit, kLint, kControl };
const std::vector<size_t> kOpDeck = {
    kSolve, kSolve, kSolve, kSolve, kSolve,   kSolve, kSolve,
    kSolve, kSolve, kSolve, kSolve, kSolve,   kSolve, kSolve,
    kReorder, kReorder, kEdit, kLint, kControl};

/// Next item from a shuffled deck of `items`, refilled when empty, so that
/// every pass through the deck uses each item once.
size_t Deal(std::vector<size_t>* deck, const std::vector<size_t>& items,
            Rng* rng) {
  if (deck->empty()) {
    *deck = items;
    for (size_t i = deck->size(); i > 1; --i) {
      std::swap((*deck)[i - 1], (*deck)[rng->Below(i)]);
    }
  }
  const size_t item = deck->back();
  deck->pop_back();
  return item;
}

}  // namespace

/// One connection: sends a request and collects its replies.
struct ServerBench::Client {
  int fd = -1;
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
  /// Final reply of `req`; answer frames go to *answers. Empty object on
  /// an I/O failure.
  JsonValue Call(const JsonValue& req, std::vector<std::string>* answers) {
    const prore::FrameIoOptions io = IoOptions();
    if (!prore::WriteFrame(fd, req.Dump(), io).ok()) return JsonValue();
    while (true) {
      prore::FrameReadResult frame = prore::ReadFrame(fd, io);
      if (frame.event != prore::FrameEvent::kFrame) return JsonValue();
      auto reply = JsonValue::Parse(frame.payload);
      if (!reply.ok()) return JsonValue();
      if (reply->GetString("status") != "answer") return std::move(*reply);
      if (answers != nullptr) answers->push_back(reply->GetString("answer"));
    }
  }
};

ServerBench::ServerBench(const WorkloadSpec& spec, size_t workers,
                         size_t clients, std::string socket_path)
    : spec_(spec),
      workers_(workers),
      clients_(clients),
      socket_path_(std::move(socket_path)),
      edit_variant_(clients, 0),
      edit_loads_(clients, 0) {}

ServerBench::~ServerBench() { Stop(); }

void ServerBench::Stop() {
  if (server_ == nullptr) return;
  server_->Shutdown("benchmark done");
  server_->Wait();
  server_.reset();
  ::unlink(socket_path_.c_str());
}

bool ServerBench::Start(std::string* why) {
  ::unlink(socket_path_.c_str());
  prore::server::ServerOptions opts;
  opts.socket_path = socket_path_;
  opts.workers = workers_;
  opts.max_queue = std::max<size_t>(64, clients_ * 2);
  opts.pipeline.jobs = 1;  // prored's default
  // prored --cache-entries sized so every workload's groups fit; with the
  // default 1024 a 1000-predicate program evicts its own entries.
  opts.cache_entries = 1u << 16;
  server_ = std::make_unique<prore::server::Server>(opts);
  if (prore::Status st = server_->Start(); !st.ok()) {
    *why = "server start: " + st.ToString();
    server_.reset();
    return false;
  }
  Client c;
  c.fd = Connect(socket_path_);
  if (c.fd < 0) {
    *why = "cannot connect to " + socket_path_;
    return false;
  }
  auto load = [&](const std::string& session, const std::string& source) {
    JsonValue req = JsonValue::Object();
    req.Set("op", JsonValue::String("load"));
    req.Set("session", JsonValue::String(session));
    req.Set("program", JsonValue::String(source));
    JsonValue reply = c.Call(req, nullptr);
    if (reply.GetString("status") != "ok") {
      *why = "load " + session + ": " + reply.Dump();
      return false;
    }
    return true;
  };
  for (size_t i = 0; i < spec_.served.size(); ++i) {
    if (!load("p" + std::to_string(i), spec_.served[i].source)) return false;
  }
  for (size_t i = 0; i < clients_; ++i) {
    if (!load("edit" + std::to_string(i),
              spec_.served[spec_.edit_base].source)) {
      return false;
    }
  }
  return true;
}

bool ServerBench::Warm(std::string* why) {
  Client c;
  c.fd = Connect(socket_path_);
  std::vector<std::string> sessions;
  for (size_t i = 0; i < spec_.served.size(); ++i) {
    sessions.push_back("p" + std::to_string(i));
  }
  for (const std::string& session : sessions) {
    JsonValue req = JsonValue::Object();
    req.Set("op", JsonValue::String("reorder"));
    req.Set("session", JsonValue::String(session));
    JsonValue reply = c.Call(req, nullptr);
    if (reply.GetString("status") != "ok") {
      *why = "warm-up reorder " + session + ": " + reply.Dump();
      return false;
    }
  }
  return true;
}

ServerPhaseResult ServerBench::Run(double seconds, uint64_t seed) {
  ServerPhaseResult result;
  auto stats = [&](Client* c) {
    JsonValue req = JsonValue::Object();
    req.Set("op", JsonValue::String("stats"));
    JsonValue reply = c->Call(req, nullptr);
    const JsonValue* st = reply.Find("stats");
    const JsonValue* cache = st != nullptr ? st->Find("cache") : nullptr;
    std::map<std::string, double> out = {
        {"hits", 0}, {"misses", 0}, {"invalidations", 0}, {"shed", 0}};
    if (cache != nullptr) {
      for (const char* k : {"hits", "misses", "invalidations"}) {
        out[k] = cache->GetNumber(k);
      }
      out["shed"] = st->GetNumber("shed");
    }
    return out;
  };
  Client control;
  control.fd = Connect(socket_path_);
  const auto before = stats(&control);
  // The server's CPU time over the phase: the process's, less what the
  // client threads (framing, hashing replies) spent themselves.
  std::vector<int64_t> client_cpu_ns(clients_, 0);
  const int64_t process_cpu_start = ProcessCpuNs();

  // Targets: solves go to sessions with queries, reorders and lints to
  // any served session. Every choice is dealt from a shuffled deck rather
  // than drawn independently, so every stretch of requests has the mix's
  // exact proportions and run-to-run spread stays small.
  std::vector<size_t> queried, targets;
  for (size_t i = 0; i < spec_.served.size(); ++i) {
    if (!spec_.served[i].queries.empty()) queried.push_back(i);
    targets.push_back(i);
  }
  std::vector<std::vector<size_t>> query_items(spec_.served.size());
  for (size_t i = 0; i < spec_.served.size(); ++i) {
    for (size_t q = 0; q < spec_.served[i].queries.size(); ++q) {
      query_items[i].push_back(q);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  const auto stop = start + std::chrono::duration<double>(seconds);
  std::vector<std::vector<ServerRecord>> per_client(clients_);
  std::vector<std::thread> threads;
  for (size_t ci = 0; ci < clients_; ++ci) {
    threads.emplace_back([&, ci] {
      Client c;
      c.fd = Connect(socket_path_);
      Rng rng(seed * 0x9e3779b97f4a7c15ull + ci + 1);
      const std::string edit = "edit" + std::to_string(ci);
      // The edit session keeps its content across runs.
      uint64_t& variant = edit_variant_[ci];
      uint64_t& loads = edit_loads_[ci];
      int64_t request = static_cast<int64_t>(ci + 1) << 40;
      std::vector<size_t> deck, solve_deck, reorder_deck, lint_deck;
      std::vector<std::vector<size_t>> query_decks(spec_.served.size());
      uint64_t controls = 0;
      // One request; `session` empty for ping and stats.
      auto call = [&](ServerRecord rec, JsonValue req,
                      const std::string& session) {
        req.Set("op", JsonValue::String(rec.op));
        if (!session.empty()) req.Set("session", JsonValue::String(session));
        req.Set("id", JsonValue::Number(static_cast<double>(++request)));
        std::vector<std::string> answers;
        JsonValue reply;
        {
          Span span("server.request", request);
          reply = c.Call(req, rec.op == "solve" ? &answers : nullptr);
          rec.ms = span.ElapsedMs();
          span.Count(rec.op.c_str(), 1);
        }
        rec.done_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        rec.status = reply.GetString("status", "io_error");
        if (rec.op == "solve") {
          rec.hash = HashAnswers(std::move(answers));
        } else if (rec.op == "reorder") {
          const std::string text = reply.GetString("program");
          rec.hash = Fnv(text);
          rec.canonical_hash = Fnv(CanonicalVars(text));
          const JsonValue* d = reply.Find("degraded");
          rec.degraded = d != nullptr && d->is_bool() && d->bool_value();
          if (rec.degraded) rec.report = reply.GetString("report");
        } else if (rec.op == "lint") {
          rec.errors = reply.GetNumber("errors");
          rec.warnings = reply.GetNumber("warnings");
        }
        per_client[ci].push_back(std::move(rec));
      };
      const int64_t cpu_start = ThreadCpuNs();
      while (std::chrono::steady_clock::now() < stop) {
        ServerRecord rec;
        JsonValue req = JsonValue::Object();
        switch (Deal(&deck, kOpDeck, &rng)) {
          case kSolve: {
            rec.op = "solve";
            rec.served = static_cast<int>(Deal(&solve_deck, queried, &rng));
            rec.query = Deal(&query_decks[rec.served],
                             query_items[rec.served], &rng);
            req.Set("query", JsonValue::String(
                                 spec_.served[rec.served].queries[rec.query]));
            const std::string session = "p" + std::to_string(rec.served);
            call(std::move(rec), std::move(req), session);
            break;
          }
          case kReorder: {
            rec.op = "reorder";
            rec.served = static_cast<int>(Deal(&reorder_deck, targets, &rng));
            const std::string session = "p" + std::to_string(rec.served);
            call(std::move(rec), std::move(req), session);
            break;
          }
          case kLint: {
            rec.op = "lint";
            rec.served = static_cast<int>(Deal(&lint_deck, targets, &rng));
            const std::string session = "p" + std::to_string(rec.served);
            call(std::move(rec), std::move(req), session);
            break;
          }
          case kEdit: {
            rec.op = "load";
            variant = ++loads + (ci + 1) * 1'000'000;  // distinct per client
            rec.variant = variant;
            req.Set("program",
                    JsonValue::String(EditedVariant(
                        spec_.served[spec_.edit_base].source, variant)));
            call(std::move(rec), std::move(req), edit);
            ServerRecord reorder;
            reorder.op = "reorder";
            reorder.variant = variant;
            call(std::move(reorder), JsonValue::Object(), edit);
            break;
          }
          default: {
            rec.op = controls++ % 2 == 0 ? "ping" : "stats";
            call(std::move(rec), std::move(req), "");
            break;
          }
        }
      }
      client_cpu_ns[ci] = ThreadCpuNs() - cpu_start;
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t server_cpu_ns = ProcessCpuNs() - process_cpu_start;
  for (int64_t ns : client_cpu_ns) server_cpu_ns -= ns;
  result.server_cpu_s = server_cpu_ns / 1e9;
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  const auto after = stats(&control);
  result.cache_hits = static_cast<uint64_t>(after.at("hits") - before.at("hits"));
  result.cache_misses =
      static_cast<uint64_t>(after.at("misses") - before.at("misses"));
  result.cache_invalidations = static_cast<uint64_t>(
      after.at("invalidations") - before.at("invalidations"));
  result.shed = static_cast<uint64_t>(after.at("shed") - before.at("shed"));

  // Throughput per whole second of the phase; its median ignores a
  // second in which the host stalled the benchmark.
  result.window_rps.assign(static_cast<size_t>(result.seconds), 0.0);
  for (std::vector<ServerRecord>& recs : per_client) {
    for (ServerRecord& r : recs) {
      const size_t window = static_cast<size_t>(r.done_s);
      if (window < result.window_rps.size()) ++result.window_rps[window];
      ++result.completed;
      result.latency_ms[r.op].push_back(r.ms);
      if (IsError(r)) {
        ++result.errors;
        ++result.failed;
      }
      if (r.op == "reorder" && r.served >= 0) {
        auto& [sum, n] = result.served_reorder_ms[r.served];
        sum += r.ms;
        ++n;
      }
      result.records.push_back(std::move(r));
    }
  }
  return result;
}

std::string ServerOptionsReorder(const std::string& source,
                                 prore::core::AnalysisCache* cache) {
  prore::term::TermStore store;
  auto program = prore::reader::ParseProgramText(&store, source);
  if (!program.ok()) return "";
  prore::core::PipelineOptions po;
  po.jobs = 1;
  po.cache = cache;
  po.cache_salt = 1;
  prore::core::GuardedPipeline pipeline(&store, po);
  auto result = pipeline.Run(*program);
  if (!result.ok()) return "";
  return prore::reader::WriteProgram(store, result->program);
}

void ServerBench::Verify(const std::map<std::string, ProgramBaseline>& known,
                         ServerPhaseResult* result,
                         std::vector<std::string>* problems) {
  auto fail = [&](std::string why) {
    ++result->failed;
    if (problems->size() < 8) problems->push_back("problem: " + why);
  };
  const std::string& base = spec_.served[spec_.edit_base].source;

  // Reorder references: served programs, the unedited edit base, and a
  // sample of edited variants (each costs one in-process pipeline run).
  // Hashes of a reference text: exact, and up to variable names.
  using Ref = std::pair<uint64_t, uint64_t>;
  auto ref_of = [](const std::string& text) {
    return Ref(Fnv(text), Fnv(CanonicalVars(text)));
  };
  std::map<int, Ref> served_text;
  auto served_ref = [&](int i) {
    auto it = served_text.find(i);
    if (it != served_text.end()) return it->second;
    const Input& in = spec_.served[i];
    auto k = known.find(in.name);
    return served_text[i] = ref_of(k != known.end()
                                       ? k->second.text_j1
                                       : ServerOptionsReorder(in.source));
  };
  std::set<uint64_t> variants;
  for (const ServerRecord& r : result->records) {
    if (r.op == "reorder" && r.served < 0 && r.variant != 0) {
      variants.insert(r.variant);
    }
  }
  // Each sampled variant costs one in-process pipeline run: sample evenly
  // across the run, at most three, and stop after two seconds.
  std::map<uint64_t, Ref> variant_text;
  const size_t kSampled = 3;
  const size_t step = std::max<size_t>(1, variants.size() / kSampled);
  const auto t0 = std::chrono::steady_clock::now();
  size_t idx = 0;
  for (uint64_t v : variants) {
    if (variant_text.size() >= kSampled ||
        std::chrono::steady_clock::now() - t0 > std::chrono::seconds(2)) {
      break;
    }
    if (idx++ % step == 0) {
      variant_text[v] = ref_of(ServerOptionsReorder(EditedVariant(base, v)));
    }
  }

  // Solve references: every distinct query asked, run on the original
  // program, one machine per session.
  std::map<int, std::vector<size_t>> asked;
  for (const ServerRecord& r : result->records) {
    if (r.op == "solve") asked[r.served].push_back(r.query);
  }
  std::map<std::pair<int, size_t>, QueryOutcome> solve_ref;
  for (auto& [served, queries] : asked) {
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
    std::vector<std::string> texts;
    for (size_t q : queries) texts.push_back(spec_.served[served].queries[q]);
    std::vector<QueryOutcome> outcomes =
        RunQueries(CompileSource(spec_.served[served].source), texts);
    for (size_t i = 0; i < queries.size(); ++i) {
      solve_ref[{served, queries[i]}] = std::move(outcomes[i]);
    }
  }
  std::map<int, std::pair<double, double>> lint_ref;

  for (const ServerRecord& r : result->records) {
    if (IsError(r)) continue;  // already counted as failed
    if (r.op == "solve") {
      const QueryOutcome& ref = solve_ref.at({r.served, r.query});
      const std::string expect = ref.answers.empty() ? "failed" : "ok";
      if (!ref.error.empty() || r.status != expect ||
          r.hash != HashAnswers(ref.answers)) {
        fail("server solve differs on " +
             spec_.served[r.served].queries[r.query]);
      }
    } else if (r.op == "reorder") {
      // A degraded reply is still a correct program (the pipeline fell back
      // for some predicates and says so); it is counted, not failed, and
      // the first one is noted.
      if (r.degraded) {
        if (result->degraded_replies++ == 0 && problems->size() < 8) {
          problems->push_back(
              "note: degraded reorder on " +
              (r.served >= 0 ? spec_.served[r.served].name
                             : "edit variant " + std::to_string(r.variant)) +
              ": " + r.report.substr(0, 300));
        }
      }
      Ref want;
      if (r.served >= 0) {
        want = served_ref(r.served);
      } else if (r.variant == 0) {
        want = served_ref(static_cast<int>(spec_.edit_base));
      } else {
        auto it = variant_text.find(r.variant);
        if (it == variant_text.end()) continue;  // not sampled
        want = it->second;
      }
      // Cache hits re-read stored text, so generated variable names may
      // differ from a cold run (counted); anything else is a failure.
      if (r.hash != want.first) ++result->reorder_text_diffs;
      if (r.canonical_hash != want.second) {
        fail("server reorder text != in-process pipeline on " +
             (r.served >= 0 ? spec_.served[r.served].name
                            : "edit variant " + std::to_string(r.variant)));
      }
    } else if (r.op == "lint") {
      auto it = lint_ref.find(r.served);
      if (it == lint_ref.end()) {
        prore::term::TermStore store;
        auto program = prore::reader::ParseProgramText(
            &store, spec_.served[r.served].source);
        double errors = -1, warnings = -1;
        if (program.ok()) {
          auto diags = prore::lint::Linter().Run(store, *program);
          if (diags.ok()) {
            errors = warnings = 0;
            for (const prore::lint::Diagnostic& d : *diags) {
              if (d.severity == prore::lint::Severity::kError) ++errors;
              if (d.severity == prore::lint::Severity::kWarning) ++warnings;
            }
          }
        }
        it = lint_ref.emplace(r.served, std::make_pair(errors, warnings)).first;
      }
      if (r.errors != it->second.first || r.warnings != it->second.second) {
        fail("server lint counts differ");
      }
    }
  }
}

}  // namespace perfbench
