// End-to-end tests of the prored server (src/server/): the framed JSON
// protocol over a real Unix socket, session lifecycle, answer streaming,
// admission shedding under load, cross-connection cancellation, deadline
// budgets, graceful drain, and the content-hash analysis cache's three
// load-bearing properties — dirty-cone-only recompute, bit-identical warm
// replies, and corrupt-entry detection via the PL10x re-validation.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/frame_io.h"
#include "common/str_util.h"
#include "common/json.h"
#include "server/server.h"

namespace prore::server {
namespace {

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return StrFormat("/tmp/prored_test_%d_%d.sock", ::getpid(),
                   counter.fetch_add(1));
}

ServerOptions BaseOptions() {
  ServerOptions o;
  o.socket_path = UniqueSocketPath();
  o.workers = 2;
  o.default_deadline_ms = 30'000;
  o.idle_timeout_ms = 20'000;
  o.io_timeout_ms = 10'000;
  o.pipeline.jobs = 1;
  return o;
}

/// A framed-protocol client against a running test server. Every read is
/// bounded, so a wedged server fails the test instead of hanging it.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    struct sockaddr_un addr;
    ::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    ::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    io_.idle_timeout_ms = 15'000;
    io_.frame_timeout_ms = 15'000;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void CloseNow() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& payload) {
    return WriteFrame(fd_, payload, io_).ok();
  }

  /// One reply frame, parsed; a null JsonValue means closed/timeout.
  JsonValue Recv() {
    FrameReadResult r = ReadFrame(fd_, io_);
    if (r.event != FrameEvent::kFrame) return JsonValue();
    auto parsed = JsonValue::Parse(r.payload);
    return parsed.ok() ? *parsed : JsonValue();
  }

  JsonValue Call(const std::string& payload) {
    if (!Send(payload)) return JsonValue();
    return Recv();
  }

 private:
  int fd_ = -1;
  FrameIoOptions io_;
};

constexpr const char* kAppendProgram =
    "app([],L,L).\n"
    "app([H|T],L,[H|R]) :- app(T,L,R).\n"
    "main(X) :- app(X,[c],[a,b,c]).\n";

std::string LoadRequest(const std::string& program,
                        const std::string& session = "default") {
  JsonValue req = JsonValue::Object();
  req.Set("op", JsonValue::String("load"));
  req.Set("session", JsonValue::String(session));
  req.Set("program", JsonValue::String(program));
  return req.Dump();
}

TEST(ServerTest, PingLoadLintRoundTrip) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_TRUE(c.connected());

  JsonValue pong = c.Call(R"x({"op":"ping","id":1})x");
  EXPECT_EQ(pong.GetString("status"), "ok");
  EXPECT_EQ(pong.GetNumber("id"), 1);

  JsonValue loaded = c.Call(LoadRequest(kAppendProgram));
  EXPECT_EQ(loaded.GetString("status"), "ok");
  EXPECT_EQ(loaded.GetNumber("preds"), 2);
  EXPECT_EQ(loaded.GetNumber("clauses"), 3);

  JsonValue lint = c.Call(R"x({"op":"lint"})x");
  EXPECT_EQ(lint.GetString("status"), "ok");
  ASSERT_NE(lint.Find("diagnostics"), nullptr);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, SolveStreamsAnswersThenSummary) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_TRUE(c.connected());
  ASSERT_EQ(c.Call(LoadRequest(kAppendProgram)).GetString("status"), "ok");

  ASSERT_TRUE(c.Send(R"x({"op":"solve","query":"app(X,Y,[a,b])","id":7})x"));
  std::vector<std::string> answers;
  JsonValue final_reply;
  for (int i = 0; i < 10; ++i) {
    JsonValue r = c.Recv();
    ASSERT_FALSE(r.is_null()) << "stream ended early";
    if (r.GetString("status") == "answer") {
      answers.push_back(r.GetString("answer"));
      continue;
    }
    final_reply = r;
    break;
  }
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0], "X = [], Y = [a,b]");
  EXPECT_EQ(answers[2], "X = [a,b], Y = []");
  EXPECT_EQ(final_reply.GetString("status"), "ok");
  EXPECT_EQ(final_reply.GetNumber("answers"), 3);
  EXPECT_EQ(final_reply.GetNumber("id"), 7);

  // A failing query: no answer frames, final status "failed".
  JsonValue failed = c.Call(R"x({"op":"solve","query":"app([z],[z],[a])"})x");
  EXPECT_EQ(failed.GetString("status"), "failed");
  EXPECT_EQ(failed.GetNumber("answers"), 0);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, SessionsAreIsolatedAndUnloadable) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());

  ASSERT_EQ(c.Call(LoadRequest("a(1).\n", "one")).GetString("status"), "ok");
  ASSERT_EQ(c.Call(LoadRequest("b(2).\n", "two")).GetString("status"), "ok");

  JsonValue r1 = c.Call(R"x({"op":"solve","session":"one","query":"a(X)"})x");
  EXPECT_EQ(r1.GetString("status"), "answer");
  EXPECT_EQ(r1.GetString("answer"), "X = 1");
  c.Recv();  // final summary

  // Session "two" does not know a/1: its solve throws existence_error.
  JsonValue r2 = c.Call(R"x({"op":"solve","session":"two","query":"a(X)"})x");
  EXPECT_NE(r2.GetString("status"), "answer");

  EXPECT_EQ(c.Call(R"x({"op":"unload","session":"one"})x").GetString("status"),
            "ok");
  EXPECT_EQ(c.Call(R"x({"op":"solve","session":"one","query":"a(X)"})x")
                .GetString("status"),
            "not_found");
  EXPECT_EQ(c.Call(R"x({"op":"unload","session":"one"})x").GetString("status"),
            "not_found");

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, SessionCapAndCellLimitAreEnforced) {
  ServerOptions o = BaseOptions();
  o.max_sessions = 1;
  o.session_cell_limit = 4096;
  Server server(o);
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());

  ASSERT_EQ(c.Call(LoadRequest("a(1).\n", "one")).GetString("status"), "ok");
  // A second named session is over the cap...
  EXPECT_EQ(c.Call(LoadRequest("b(2).\n", "two")).GetString("status"),
            "resource_exhausted");
  // ...but replacing the existing one is fine.
  EXPECT_EQ(c.Call(LoadRequest("c(3).\n", "one")).GetString("status"), "ok");

  // A program that cannot fit in 4096 cells fails structurally, without
  // hurting the resident session.
  std::string big;
  for (int i = 0; i < 2000; ++i) big += StrFormat("p(%d,f(%d,%d)).\n", i, i, i);
  EXPECT_EQ(c.Call(LoadRequest(big, "one")).GetString("status"),
            "resource_exhausted");
  JsonValue still = c.Call(R"x({"op":"solve","session":"one","query":"c(X)"})x");
  EXPECT_EQ(still.GetString("status"), "answer");
  c.Recv();

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, MalformedPayloadsGetStructuredErrorsAndConnectionSurvives) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());

  EXPECT_EQ(c.Call("{\"op\":").GetString("status"), "bad_request");
  EXPECT_EQ(c.Call("[1,2,3]").GetString("status"), "bad_request");
  EXPECT_EQ(c.Call(R"x({"op":"no_such_op"})x").GetString("status"),
            "bad_request");
  EXPECT_EQ(c.Call(R"x({"op":"solve","query":"a(X)"})x").GetString("status"),
            "not_found");
  EXPECT_EQ(c.Call(R"x({"op":"load"})x").GetString("status"), "bad_request");
  // After all that abuse, the same connection still works.
  EXPECT_EQ(c.Call(R"x({"op":"ping"})x").GetString("status"), "ok");

  JsonValue stats = c.Call(R"x({"op":"stats"})x");
  const JsonValue* s = stats.Find("stats");
  ASSERT_NE(s, nullptr);
  EXPECT_GE(s->GetNumber("protocol_errors"), 3);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, OversizedFrameIsRejectedBeforePayloadRead) {
  ServerOptions o = BaseOptions();
  o.max_frame_bytes = 1024;
  Server server(o);
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());

  // Declare a 16 MiB frame; send no payload. The server must reject on
  // the prefix alone and close.
  char prefix[4] = {0x01, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(c.fd(), prefix, 4, MSG_NOSIGNAL), 4);
  JsonValue r = c.Recv();
  EXPECT_EQ(r.GetString("status"), "bad_request");
  EXPECT_TRUE(c.Recv().is_null());  // connection closed after the reply

  Client c2(server.socket_path());
  EXPECT_EQ(c2.Call(R"x({"op":"ping"})x").GetString("status"), "ok");

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, SlowFrameTimesOutWithoutWedgingTheServer) {
  ServerOptions o = BaseOptions();
  o.io_timeout_ms = 200;  // slowloris bound under test
  Server server(o);
  ASSERT_TRUE(server.Start().ok());

  Client slow(server.socket_path());
  // Start a frame, then stall: only 2 of the declared 20 bytes arrive.
  char partial[6] = {0, 0, 0, 20, '{', '"'};
  ASSERT_EQ(::send(slow.fd(), partial, 6, MSG_NOSIGNAL), 6);
  JsonValue r = slow.Recv();
  EXPECT_EQ(r.GetString("status"), "bad_request");

  Client fine(server.socket_path());
  EXPECT_EQ(fine.Call(R"x({"op":"ping"})x").GetString("status"), "ok");

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, AdmissionShedsAndCancelRelievesAcrossConnections) {
  ServerOptions o = BaseOptions();
  o.workers = 1;
  o.max_queue = 1;
  o.default_deadline_ms = 60'000;
  Server server(o);
  ASSERT_TRUE(server.Start().ok());

  Client a(server.socket_path());
  ASSERT_EQ(a.Call(LoadRequest("loop(X) :- loop(X).\n")).GetString("status"),
            "ok");

  // Occupy the only admission slot with a divergent solve.
  ASSERT_TRUE(a.Send(R"x({"op":"solve","query":"loop(0)","id":"busy"})x"));

  // Wait until the server reports it in flight.
  Client probe(server.socket_path());
  for (int i = 0; i < 200; ++i) {
    JsonValue st = probe.Call(R"x({"op":"stats"})x");
    if (st.Find("stats")->GetNumber("inflight") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // A second heavy request is shed immediately with a structured status —
  // and control-plane ops keep working under overload.
  Client b(server.socket_path());
  JsonValue shed = b.Call(R"x({"op":"reorder"})x");
  EXPECT_EQ(shed.GetString("status"), "overloaded");
  EXPECT_EQ(probe.Call(R"x({"op":"ping"})x").GetString("status"), "ok");

  // Cancel the hog from a different connection; its own connection gets
  // the canceled reply and the admission slot frees up.
  JsonValue cancelled = b.Call(R"x({"op":"cancel","target":"busy"})x");
  EXPECT_EQ(cancelled.GetString("status"), "ok");
  ASSERT_NE(cancelled.Find("cancelled"), nullptr);
  EXPECT_TRUE(cancelled.Find("cancelled")->bool_value());

  JsonValue done = a.Recv();
  EXPECT_EQ(done.GetString("status"), "canceled");

  JsonValue stats = probe.Call(R"x({"op":"stats"})x");
  EXPECT_GE(stats.Find("stats")->GetNumber("shed"), 1);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, ClientBudgetTightensServerDeadline) {
  ServerOptions o = BaseOptions();
  o.default_deadline_ms = 60'000;
  Server server(o);
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest("loop(X) :- loop(X).\n")).GetString("status"),
            "ok");

  auto start = std::chrono::steady_clock::now();
  JsonValue r = c.Call(R"x({"op":"solve","query":"loop(0)","budget_ms":100})x");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(r.GetString("status"), "deadline_exceeded");
  // The client's 100 ms budget must have won over the server's 60 s.
  EXPECT_LT(elapsed, 10'000);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, MidSolveDisconnectLeavesServerHealthy) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    Client c(server.socket_path());
    ASSERT_EQ(
        c.Call(LoadRequest("nat(z).\nnat(s(N)) :- nat(N).\n"))
            .GetString("status"),
        "ok");
    // Infinite answer stream; read two answers and vanish mid-stream.
    ASSERT_TRUE(c.Send(R"x({"op":"solve","query":"nat(N)"})x"));
    EXPECT_EQ(c.Recv().GetString("status"), "answer");
    EXPECT_EQ(c.Recv().GetString("status"), "answer");
    c.CloseNow();
  }
  // The search must stop (callback false on write failure) and the server
  // keep serving. Poll stats until the in-flight count drains.
  Client probe(server.socket_path());
  ASSERT_TRUE(probe.connected());
  bool drained = false;
  for (int i = 0; i < 500; ++i) {
    JsonValue st = probe.Call(R"x({"op":"stats"})x");
    if (st.Find("stats") != nullptr &&
        st.Find("stats")->GetNumber("inflight") == 0) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained);
  EXPECT_EQ(probe.Call(R"x({"op":"ping"})x").GetString("status"), "ok");

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, TcpListenerOnEphemeralPort) {
  ServerOptions o = BaseOptions();
  o.socket_path.clear();
  o.tcp_port = 0;
  Server server(o);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.tcp_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  FrameIoOptions io;
  io.idle_timeout_ms = 10'000;
  io.frame_timeout_ms = 10'000;
  ASSERT_TRUE(WriteFrame(fd, R"x({"op":"ping"})x", io).ok());
  FrameReadResult r = ReadFrame(fd, io);
  ASSERT_EQ(r.event, FrameEvent::kFrame);
  EXPECT_NE(r.payload.find("\"ok\""), std::string::npos);
  ::close(fd);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, GracefulDrainCancelsInFlightAndJoinsEverything) {
  ServerOptions o = BaseOptions();
  o.default_deadline_ms = 60'000;
  Server server(o);
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest("loop(X) :- loop(X).\n")).GetString("status"),
            "ok");
  ASSERT_TRUE(c.Send(R"x({"op":"solve","query":"loop(0)","id":"drain"})x"));

  // Give the solve a moment to start, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto start = std::chrono::steady_clock::now();
  server.Shutdown("test drain");
  server.Wait();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  // The divergent solve had 60 s of deadline left; drain must not wait
  // for it — the root cancellation reaches into the engine.
  EXPECT_LT(elapsed, 10'000);

  // The in-flight request got a structured reply before the close.
  JsonValue r = c.Recv();
  EXPECT_EQ(r.GetString("status"), "canceled");

  // New connections are refused once the listener is gone.
  Client late(server.socket_path());
  EXPECT_FALSE(late.connected());
}

TEST(ServerTest, ShutdownOpDrainsLikeSigterm) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  EXPECT_EQ(c.Call(R"x({"op":"shutdown"})x").GetString("status"), "ok");
  server.Wait();  // must return: the op triggered the same drain path
  EXPECT_TRUE(server.shutting_down());
}

// ---- Analysis cache ------------------------------------------------------

/// Two leaf predicates plus one caller: three dependency groups, so edits
/// can dirty one cone while the others replay from cache.
constexpr const char* kThreeGroupProgram =
    "fruit(apple).\nfruit(plum).\n"
    "color(apple,green).\ncolor(plum,blue).\n"
    "pick(F,C) :- fruit(F), color(F,C).\n";

double CacheStat(Client& c, const char* field) {
  JsonValue st = c.Call(R"x({"op":"stats"})x");
  const JsonValue* stats = st.Find("stats");
  if (stats == nullptr) return -1;
  const JsonValue* cache = stats->Find("cache");
  return cache == nullptr ? -1 : cache->GetNumber(field);
}

TEST(ServerTest, CacheWarmReplayIsBitIdentical) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest(kThreeGroupProgram)).GetString("status"),
            "ok");

  JsonValue cold = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(cold.GetString("status"), "ok");
  double hits_before = CacheStat(c, "hits");

  JsonValue warm = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(warm.GetString("status"), "ok");
  EXPECT_GT(CacheStat(c, "hits"), hits_before);

  // The whole point of the rendered-text cache: a warm reply is
  // byte-for-byte the cold reply, program and report both.
  EXPECT_EQ(cold.GetString("program"), warm.GetString("program"));
  EXPECT_EQ(cold.GetString("report"), warm.GetString("report"));

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, CacheRecomputesOnlyTheDirtyCone) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest(kThreeGroupProgram)).GetString("status"),
            "ok");
  ASSERT_EQ(c.Call(R"x({"op":"reorder"})x").GetString("status"), "ok");
  double ins_cold = CacheStat(c, "insertions");
  ASSERT_GE(ins_cold, 3);  // one clean entry per dependency group

  // Edit ONLY color/2. Its own group and its caller pick/2 (whose cone
  // contains color/2) must recompute; fruit/1 must replay from cache.
  std::string edited =
      "fruit(apple).\nfruit(plum).\n"
      "color(apple,red).\ncolor(plum,blue).\n"
      "pick(F,C) :- fruit(F), color(F,C).\n";
  double hits_before = CacheStat(c, "hits");
  ASSERT_EQ(c.Call(LoadRequest(edited)).GetString("status"), "ok");
  ASSERT_EQ(c.Call(R"x({"op":"reorder"})x").GetString("status"), "ok");
  double hits_after = CacheStat(c, "hits");
  double ins_after = CacheStat(c, "insertions");

  // Exactly one group (fruit/1) replayed; two groups were dirty and were
  // recomputed + re-inserted.
  EXPECT_EQ(hits_after - hits_before, 1);
  EXPECT_EQ(ins_after - ins_cold, 2);

  server.Shutdown();
  server.Wait();
}

double Stat(Client& c, const char* field) {
  JsonValue st = c.Call(R"x({"op":"stats"})x");
  const JsonValue* stats = st.Find("stats");
  return stats == nullptr ? -1 : stats->GetNumber(field);
}

// A second reorder of an unedited session: the program-level entry gives
// every group's key, every group is adopted, and neither mode inference
// nor absint runs — yet the reply is the cold reply to the byte.
TEST(ServerTest, UneditedReorderAdoptsEveryGroupWithoutAnalysis) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest(kThreeGroupProgram)).GetString("status"),
            "ok");
  JsonValue cold = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(cold.GetString("status"), "ok");
  EXPECT_EQ(Stat(c, "reorder_analyses"), 1);
  const double hits = CacheStat(c, "hits");
  const double program_hits = CacheStat(c, "program_hits");

  JsonValue warm = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(warm.GetString("status"), "ok");
  EXPECT_EQ(warm.Dump(), cold.Dump());
  EXPECT_EQ(CacheStat(c, "program_hits") - program_hits, 1);
  EXPECT_EQ(CacheStat(c, "hits") - hits, 3);
  EXPECT_EQ(Stat(c, "reorder_analyses"), 1);  // the warm reorder ran none
  EXPECT_EQ(CacheStat(c, "invalidations"), 0);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, CorruptCacheEntryIsDetectedAndRecomputed) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest(kThreeGroupProgram)).GetString("status"),
            "ok");
  JsonValue cold = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(cold.GetString("status"), "ok");

  // Corrupt every resident entry in place: the PL10x re-validation on the
  // next lookup must reject them all and recompute — never serve garbage.
  auto& cache = server.cache();
  std::vector<uint64_t> keys = cache.KeysForTest();
  ASSERT_GE(keys.size(), 3u);
  for (uint64_t k : keys) {
    ASSERT_TRUE(cache.CorruptForTest(k, [](core::GroupCacheEntry* e) {
      e->program_text = "intruder(42).\n";
    }));
  }
  double inval_before = cache.stats().invalidations;

  JsonValue warm = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(warm.GetString("status"), "ok");
  EXPECT_EQ(warm.GetString("program"), cold.GetString("program"));
  EXPECT_EQ(warm.GetString("report"), cold.GetString("report"));
  EXPECT_GE(cache.stats().invalidations, inval_before + 3);

  server.Shutdown();
  server.Wait();
}

/// kThreeGroupProgram with an anonymous variable in pick/1. The cached text
/// names it `_G<n>`, so the hit only survives re-validation because PL101
/// compares clauses up to renaming of singleton variables.
constexpr const char* kAnonThreeGroupProgram =
    "fruit(apple).\nfruit(plum).\n"
    "color(apple,green).\ncolor(plum,blue).\n"
    "pick(F) :- fruit(F), color(F,_).\n";

TEST(ServerTest, CacheKeepsHitsOfClausesWithAnonymousVariables) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest(kAnonThreeGroupProgram)).GetString("status"),
            "ok");
  JsonValue cold = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(cold.GetString("status"), "ok");
  ASSERT_NE(cold.GetString("program").find("_G"), std::string::npos);
  double ins_cold = CacheStat(c, "insertions");
  ASSERT_GE(ins_cold, 3);

  double hits_before = CacheStat(c, "hits");
  JsonValue warm = c.Call(R"x({"op":"reorder"})x");
  EXPECT_EQ(warm.Dump(), cold.Dump());
  EXPECT_EQ(CacheStat(c, "hits") - hits_before, 3);
  EXPECT_EQ(CacheStat(c, "invalidations"), 0);
  EXPECT_EQ(CacheStat(c, "insertions"), ins_cold);

  // The dirty cone of an edit to color/2 is color/2 and pick/1, exactly
  // as in CacheRecomputesOnlyTheDirtyCone.
  std::string edited =
      "fruit(apple).\nfruit(plum).\n"
      "color(apple,red).\ncolor(plum,blue).\n"
      "pick(F) :- fruit(F), color(F,_).\n";
  hits_before = CacheStat(c, "hits");
  ASSERT_EQ(c.Call(LoadRequest(edited)).GetString("status"), "ok");
  ASSERT_EQ(c.Call(R"x({"op":"reorder"})x").GetString("status"), "ok");
  EXPECT_EQ(CacheStat(c, "hits") - hits_before, 1);
  EXPECT_EQ(CacheStat(c, "insertions") - ins_cold, 2);
  EXPECT_EQ(CacheStat(c, "invalidations"), 0);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, CacheEntryWithASplitSharedVariableIsInvalidated) {
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Client c(server.socket_path());
  ASSERT_EQ(c.Call(LoadRequest(kThreeGroupProgram)).GetString("status"),
            "ok");
  JsonValue cold = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(cold.GetString("status"), "ok");

  // pick/2's entry: C links the head to color/2 (called through its
  // specialized version); give the goal its own variable instead. Both
  // are then singletons, and the clause means something else.
  auto& cache = server.cache();
  size_t corrupted = 0;
  for (uint64_t k : cache.KeysForTest()) {
    ASSERT_TRUE(cache.CorruptForTest(k, [&corrupted](core::GroupCacheEntry* e) {
      const std::string from = "color_uu(F,C)";
      for (size_t at = e->program_text.find(from); at != std::string::npos;
           at = e->program_text.find(from, at)) {
        e->program_text.replace(at, from.size(), "color_uu(F,C2)");
        ++corrupted;
      }
    }));
  }
  ASSERT_GE(corrupted, 1u);
  double inval_before = cache.stats().invalidations;

  JsonValue warm = c.Call(R"x({"op":"reorder"})x");
  ASSERT_EQ(warm.GetString("status"), "ok");
  EXPECT_EQ(warm.GetString("program"), cold.GetString("program"));
  EXPECT_EQ(warm.GetString("report"), cold.GetString("report"));
  EXPECT_EQ(cache.stats().invalidations, inval_before + 1);

  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace prore::server
