#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "analysis/content_hash.h"
#include "common/str_util.h"
#include "lint/lint.h"
#include "reader/parser.h"
#include "reader/writer.h"

namespace prore::server {

namespace {

/// Wire status for a failed Status: the coarse taxonomy clients branch on.
const char* WireStatus(const prore::Status& st) {
  switch (st.code()) {
    case prore::StatusCode::kOk:
      return "ok";
    case prore::StatusCode::kCancelled:
      return "canceled";
    case prore::StatusCode::kParseError:
      return "parse_error";
    case prore::StatusCode::kInvalidArgument:
      return "bad_request";
    case prore::StatusCode::kResourceExhausted:
      // The engine's uncaught-ball term is the whole rendered exception,
      // error(resource_error(deadline_exceeded),deadline) — match the
      // payload inside it, not the exact string.
      return st.error_term().find("resource_error(deadline_exceeded)") !=
                     std::string::npos
                 ? "deadline_exceeded"
                 : "resource_exhausted";
    default:
      return "internal_error";
  }
}

/// Reply envelope: echoes the request's id (verbatim) and op so clients
/// can correlate replies on a pipelined connection.
JsonValue MakeReply(const JsonValue& req, const char* status) {
  JsonValue r = JsonValue::Object();
  const JsonValue* id = req.Find("id");
  if (id != nullptr) r.Set("id", *id);
  std::string op = req.GetString("op");
  if (!op.empty()) r.Set("op", JsonValue::String(std::move(op)));
  r.Set("status", JsonValue::String(status));
  return r;
}

JsonValue ErrorReply(const JsonValue& req, const char* status,
                     std::string message) {
  JsonValue r = MakeReply(req, status);
  r.Set("error", JsonValue::String(std::move(message)));
  return r;
}

JsonValue StatusReply(const JsonValue& req, const prore::Status& st) {
  return ErrorReply(req, WireStatus(st), st.ToString());
}

/// Clamps a JSON number to a uint64 budget; non-numbers and negatives
/// yield `fallback`.
uint64_t BudgetField(const JsonValue& req, std::string_view key,
                     uint64_t fallback) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr || !v->is_number() || v->number_value() < 0) {
    return fallback;
  }
  return static_cast<uint64_t>(v->number_value());
}

/// Request budgets only tighten server budgets (0 = server default).
uint64_t TightenBudget(uint64_t server, uint64_t request) {
  if (request == 0) return server;
  if (server == 0) return request;
  return std::min(server, request);
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_entries) {}

Server::~Server() {
  if (started_.load()) {
    Shutdown("server destroyed");
    Wait();
  }
  CloseFd(&wake_pipe_[0]);
  CloseFd(&wake_pipe_[1]);
}

prore::Status Server::Start() {
  if (options_.socket_path.empty() && options_.tcp_port < 0) {
    return prore::Status::InvalidArgument(
        "server needs a unix socket path or a TCP port");
  }
  if (::pipe(wake_pipe_) != 0) {
    return prore::Status::Internal(
        StrFormat("pipe: %s", ::strerror(errno)));
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  if (!options_.socket_path.empty()) {
    struct sockaddr_un addr;
    ::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      return prore::Status::InvalidArgument(
          StrFormat("socket path too long (%zu bytes, max %zu)",
                    options_.socket_path.size(), sizeof(addr.sun_path) - 1));
    }
    ::memcpy(addr.sun_path, options_.socket_path.c_str(),
             options_.socket_path.size());
    listen_unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_unix_fd_ < 0) {
      return prore::Status::Internal(
          StrFormat("socket: %s", ::strerror(errno)));
    }
    // A previous run that died hard leaves its socket file behind; a
    // fresh bind is the recovery.
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_unix_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_unix_fd_, 128) != 0) {
      prore::Status st = prore::Status::Internal(StrFormat(
          "bind %s: %s", options_.socket_path.c_str(), ::strerror(errno)));
      CloseFd(&listen_unix_fd_);
      return st;
    }
  }

  if (options_.tcp_port >= 0) {
    listen_tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_tcp_fd_ < 0) {
      CloseFd(&listen_unix_fd_);
      return prore::Status::Internal(
          StrFormat("socket: %s", ::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(listen_tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    ::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_tcp_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_tcp_fd_, 128) != 0) {
      prore::Status st = prore::Status::Internal(
          StrFormat("bind 127.0.0.1:%d: %s", options_.tcp_port,
                    ::strerror(errno)));
      CloseFd(&listen_unix_fd_);
      CloseFd(&listen_tcp_fd_);
      return st;
    }
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_tcp_fd_,
                      reinterpret_cast<struct sockaddr*>(&bound),
                      &len) == 0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }

  // Null cancel token on purpose: a pool that drops queued tasks on
  // cancellation would strand the connection threads waiting on their
  // request latches. Instead every admitted task runs, immediately sees
  // its cancelled ExecContext, and returns a structured "canceled" reply.
  pool_ = std::make_unique<prore::ThreadPool>(options_.workers);
  started_.store(true);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return prore::Status::OK();
}

void Server::Shutdown(std::string reason) {
  bool expected = false;
  if (shutdown_.compare_exchange_strong(expected, true)) {
    root_cancel_.RequestCancel(std::move(reason));
  }
  NotifyShutdownAsync();
}

void Server::NotifyShutdownAsync() {
  shutdown_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    char b = 'x';
    // Best-effort, async-signal-safe; the pipe being full is fine (the
    // accept thread is already due to wake).
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  while (true) {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      threads.swap(conn_threads_);
    }
    if (threads.empty()) break;
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  if (pool_ != nullptr) pool_->Wait();
}

void Server::AcceptLoop() {
  while (!shutting_down()) {
    struct pollfd pfds[3];
    nfds_t n = 0;
    pfds[n].fd = wake_pipe_[0];
    pfds[n].events = POLLIN;
    pfds[n].revents = 0;
    ++n;
    int unix_slot = -1, tcp_slot = -1;
    if (listen_unix_fd_ >= 0) {
      unix_slot = static_cast<int>(n);
      pfds[n].fd = listen_unix_fd_;
      pfds[n].events = POLLIN;
      pfds[n].revents = 0;
      ++n;
    }
    if (listen_tcp_fd_ >= 0) {
      tcp_slot = static_cast<int>(n);
      pfds[n].fd = listen_tcp_fd_;
      pfds[n].events = POLLIN;
      pfds[n].revents = 0;
      ++n;
    }
    int rc = ::poll(pfds, n, 100);
    if (rc < 0 && errno != EINTR) break;
    if (shutting_down()) break;
    if (rc <= 0) continue;

    for (int slot : {unix_slot, tcp_slot}) {
      if (slot < 0 || (pfds[slot].revents & POLLIN) == 0) continue;
      int fd = ::accept4(pfds[slot].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      SetNonBlocking(fd);
      stat_connections_.fetch_add(1, std::memory_order_relaxed);
      if (active_conns_.load(std::memory_order_acquire) >=
          options_.max_connections) {
        // Over the connection cap: one structured frame, then close —
        // the client learns why instead of seeing a silent RST.
        FrameIoOptions io;
        io.frame_timeout_ms = 1000;
        JsonValue r = JsonValue::Object();
        r.Set("status", JsonValue::String("overloaded"));
        r.Set("error", JsonValue::String("connection limit reached"));
        (void)WriteFrame(fd, r.Dump(), io);
        ::close(fd);
        stat_shed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      active_conns_.fetch_add(1, std::memory_order_acq_rel);
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
    }
  }

  // Drain, phase 1: no new connections, no new cancellable work.
  if (!shutdown_.load()) shutdown_.store(true);
  root_cancel_.RequestCancel("server shutting down");
  CloseFd(&listen_unix_fd_);
  CloseFd(&listen_tcp_fd_);
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

void Server::HandleConnection(int fd) {
  FrameIoOptions io;
  io.max_frame_bytes = options_.max_frame_bytes;
  io.idle_timeout_ms = options_.idle_timeout_ms;
  io.frame_timeout_ms = options_.io_timeout_ms;
  io.cancel = root_cancel_.token();

  // Writes are time-bounded but NOT cancel-bounded: the drain contract is
  // that a reply in progress finishes its frame, and the reply carrying
  // "canceled" to the client necessarily happens after the root token has
  // fired. A stalled peer still can't wedge the drain — frame_timeout_ms
  // caps the write.
  FrameIoOptions write_io = io;
  write_io.cancel = CancellationToken();

  // One writer lock per connection: the connection thread writes final
  // replies, a worker thread streams solve answers — never interleaved
  // mid-frame.
  std::mutex write_mu;
  auto write_frame = [&](const std::string& payload) -> prore::Status {
    std::lock_guard<std::mutex> lock(write_mu);
    return WriteFrame(fd, payload, write_io);
  };
  auto best_effort_reply = [&](const char* status, const std::string& why) {
    JsonValue r = JsonValue::Object();
    r.Set("status", JsonValue::String(status));
    if (!why.empty()) r.Set("error", JsonValue::String(why));
    (void)write_frame(r.Dump());
  };

  bool open = true;
  while (open) {
    FrameReadResult frame = ReadFrame(fd, io);
    switch (frame.event) {
      case FrameEvent::kFrame: {
        stat_frames_.fetch_add(1, std::memory_order_relaxed);
        auto parsed = JsonValue::Parse(frame.payload);
        std::string reply;
        bool close_conn = false;
        if (!parsed.ok() || !parsed->is_object()) {
          // Framing is intact, so the connection can survive a bad
          // payload: structured error, keep reading.
          stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          JsonValue err = JsonValue::Object();
          err.Set("status", JsonValue::String("bad_request"));
          err.Set("error",
                  JsonValue::String(
                      parsed.ok() ? "request must be a JSON object"
                                  : parsed.status().ToString()));
          reply = err.Dump();
        } else {
          reply = HandleRequest(*parsed, write_frame, &close_conn);
        }
        if (!reply.empty() && !write_frame(reply).ok()) open = false;
        if (close_conn) open = false;
        break;
      }
      case FrameEvent::kEof:
        open = false;
        break;
      case FrameEvent::kOversized:
        // The declared payload was never read; resync is impossible.
        stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        best_effort_reply("bad_request", "oversized frame: " + frame.detail);
        open = false;
        break;
      case FrameEvent::kTruncated:
      case FrameEvent::kError:
        stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        open = false;
        break;
      case FrameEvent::kTimeout:
        // Idle or slowloris: tell the peer, then reclaim the thread.
        best_effort_reply("bad_request", "connection timed out");
        open = false;
        break;
      case FrameEvent::kCancelled:
        best_effort_reply("shutting_down", root_cancel_.token().reason());
        open = false;
        break;
    }
  }
  ::close(fd);
  active_conns_.fetch_sub(1, std::memory_order_acq_rel);
}

bool Server::AdmitAndRun(const std::function<void()>& work) {
  // Admission is a single fetch_add race: the queue bound counts running
  // plus waiting heavy requests. Over the line, the request is shed
  // before consuming a pool slot — predictable latency for the admitted.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_queue) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto latch = std::make_shared<Latch>();
  pool_->Submit([&work, latch] {
    work();
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->done = true;
    latch->cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->cv.wait(lock, [&latch] { return latch->done; });
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

std::string Server::HandleRequest(
    const JsonValue& req,
    const std::function<prore::Status(const std::string&)>& write_frame,
    bool* close_conn) {
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string op = req.GetString("op");

  // Control-plane ops run inline on the connection thread so they keep
  // working when the worker pool is saturated — cancel in particular
  // exists to relieve overload, so it must not queue behind it.
  if (op == "ping") {
    stat_completed_.fetch_add(1, std::memory_order_relaxed);
    return MakeReply(req, "ok").Dump();
  }
  if (op == "stats") {
    stat_completed_.fetch_add(1, std::memory_order_relaxed);
    return DoStats(req).Dump();
  }
  if (op == "cancel") {
    stat_completed_.fetch_add(1, std::memory_order_relaxed);
    return DoCancel(req).Dump();
  }
  if (shutting_down()) {
    return ErrorReply(req, "shutting_down", root_cancel_.token().reason())
        .Dump();
  }
  if (op == "shutdown") {
    *close_conn = true;
    NotifyShutdownAsync();
    stat_completed_.fetch_add(1, std::memory_order_relaxed);
    return MakeReply(req, "ok").Dump();
  }
  if (op == "unload") {
    return DoUnload(req).Dump();
  }

  const bool heavy =
      op == "load" || op == "reorder" || op == "lint" || op == "solve";
  if (!heavy) {
    stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(req, "bad_request", "unknown op \"" + op + "\"").Dump();
  }

  // Per-request scope: child of the root (SIGTERM cancels everything),
  // plus the earliest-wins deadline of server default and client budget.
  auto req_cancel =
      std::make_shared<prore::CancellationSource>(root_cancel_.token());
  prore::ExecContext ctx;
  ctx.token = req_cancel->token();
  if (options_.default_deadline_ms != 0) {
    ctx.deadline = prore::Deadline::AfterMs(options_.default_deadline_ms);
  }
  uint64_t budget_ms = BudgetField(req, "budget_ms", 0);
  if (budget_ms != 0) {
    ctx = ctx.WithDeadline(prore::Deadline::AfterMs(budget_ms));
  }

  // Requests that carry an id are cancellable from any connection:
  // {"op":"cancel","target":<id>}. The id's rendered JSON is the key, so
  // string and numeric ids both work.
  std::string reg_key;
  if (const JsonValue* id = req.Find("id"); id != nullptr) {
    reg_key = id->Dump();
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_by_id_[reg_key] = req_cancel;
  }

  JsonValue reply;
  bool client_gone = false;
  const bool admitted = AdmitAndRun([&] {
    try {
      if (op == "load") {
        reply = DoLoad(req, ctx);
      } else if (op == "reorder") {
        reply = DoReorder(req, ctx);
#if defined(__GLIBC__)
        // A reorder frees its per-group stores into this worker's malloc
        // arena, which keeps them: hand the pages back, or the footprint
        // grows with the request rate.
        malloc_trim(0);
#endif
      } else if (op == "lint") {
        reply = DoLint(req, ctx);
      } else {
        reply = DoSolve(req, ctx, write_frame, &client_gone);
      }
    } catch (const std::exception& e) {
      reply = ErrorReply(req, "internal_error",
                         StrFormat("uncaught exception: %s", e.what()));
    } catch (...) {
      reply = ErrorReply(req, "internal_error", "uncaught exception");
    }
  });

  if (!reg_key.empty()) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_by_id_.find(reg_key);
    if (it != inflight_by_id_.end() && it->second == req_cancel) {
      inflight_by_id_.erase(it);
    }
  }

  if (!admitted) {
    stat_shed_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply(req, "overloaded",
                      StrFormat("admission queue full (%zu in flight)",
                                options_.max_queue))
        .Dump();
  }
  if (req_cancel->Cancelled()) {
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  stat_completed_.fetch_add(1, std::memory_order_relaxed);
  if (client_gone) {
    // The peer vanished mid-stream; there is nobody to reply to.
    *close_conn = true;
    return std::string();
  }
  return reply.Dump();
}

std::shared_ptr<Server::Session> Server::FindSession(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

JsonValue Server::DoLoad(const JsonValue& req, const prore::ExecContext& ctx) {
  if (prore::Status st = ctx.Check(); !st.ok()) return StatusReply(req, st);
  const JsonValue* program = req.Find("program");
  if (program == nullptr || !program->is_string()) {
    return ErrorReply(req, "bad_request", "load needs a \"program\" string");
  }
  const std::string session = req.GetString("session", "default");

  auto s = std::make_shared<Session>();
  s->source = program->string_value();
  try {
    term::TermStore store;
    store.SetCellLimit(options_.session_cell_limit);
    auto parsed = reader::ParseProgramText(&store, s->source);
    if (!parsed.ok()) return StatusReply(req, parsed.status());
    auto snapshot = engine::ProgramSnapshot::Compile(store, *parsed);
    if (!snapshot.ok()) return StatusReply(req, snapshot.status());
    s->snapshot = std::move(*snapshot);
    s->preds = parsed->NumPreds();
    s->clauses = parsed->NumClauses();
    if (const JsonValue* prof = req.Find("profile"); prof != nullptr) {
      if (!prof->is_string()) {
        return ErrorReply(req, "bad_request",
                          "\"profile\" must be a profile JSON string");
      }
      auto data = profile::FromJson(prof->string_value());
      if (!data.ok()) {
        return ErrorReply(req, "bad_request",
                          "profile: " + data.status().ToString());
      }
      // Request-supplied profiles are validated strictly: a profile that
      // names predicates this program lacks is a client mix-up worth a
      // hard error, not a silent fallback.
      if (prore::Status st =
              profile::ValidateAgainstProgram(store, *parsed, *data);
          !st.ok()) {
        return ErrorReply(req, "bad_request",
                          "profile: " + st.ToString());
      }
      s->profile =
          std::make_shared<const profile::ProfileData>(std::move(*data));
    } else if (options_.default_profile != nullptr) {
      s->profile = options_.default_profile;
    }
  } catch (const term::AllocError&) {
    return ErrorReply(
        req, "resource_exhausted",
        StrFormat("program exceeds the session cell limit (%zu cells)",
                  options_.session_cell_limit));
  }

  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end() &&
        sessions_.size() >= options_.max_sessions) {
      return ErrorReply(req, "resource_exhausted",
                        StrFormat("session limit reached (%zu)",
                                  options_.max_sessions));
    }
    sessions_[session] = std::move(s);
  }
  JsonValue r = MakeReply(req, "ok");
  r.Set("session", JsonValue::String(session));
  auto loaded = FindSession(session);
  r.Set("preds", JsonValue::Number(static_cast<double>(loaded->preds)));
  r.Set("clauses", JsonValue::Number(static_cast<double>(loaded->clauses)));
  r.Set("profile", JsonValue::Bool(loaded->profile != nullptr));
  return r;
}

JsonValue Server::DoUnload(const JsonValue& req) {
  const std::string session = req.GetString("session", "default");
  size_t erased;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    erased = sessions_.erase(session);
  }
  if (erased == 0) {
    return ErrorReply(req, "not_found",
                      "no session named \"" + session + "\"");
  }
  stat_completed_.fetch_add(1, std::memory_order_relaxed);
  return MakeReply(req, "ok");
}

JsonValue Server::DoReorder(const JsonValue& req,
                            const prore::ExecContext& ctx) {
  auto session = FindSession(req.GetString("session", "default"));
  if (session == nullptr) {
    return ErrorReply(req, "not_found",
                      "load a program into the session first");
  }

  core::PipelineOptions po = options_.pipeline;
  po.exec = ctx;
  po.unfold = req.GetBool("unfold", po.unfold);
  po.factor = req.GetBool("factor", po.factor);
  po.reorder.absint = req.GetBool("absint", po.reorder.absint);
  double jobs = req.GetNumber("jobs", static_cast<double>(
                                          po.jobs == 0 ? 1 : po.jobs));
  po.jobs = static_cast<size_t>(std::clamp(jobs, 0.0, 64.0));
  if (req.GetBool("cache", true)) {
    po.cache = &cache_;
    // Entries are only valid under the exact option set that produced
    // them; fingerprint everything that changes the transform's output.
    uint64_t salt = analysis::HashMix(0x70726f726564u, 1);  // format v1
    auto fold = [&salt](bool b) { salt = analysis::HashMix(salt, b); };
    fold(po.unfold);
    fold(po.factor);
    fold(po.reorder.absint);
    fold(po.reorder.specialize_modes);
    fold(po.reorder.reorder_clauses);
    fold(po.reorder.reorder_goals);
    fold(po.reorder.runtime_guards);
    fold(po.reorder.goal_search.warren_heuristic);
    // A profile changes the cost model's inputs, hence the output: cache
    // entries are only shareable between requests seeing the same profile
    // bytes (or none).
    if (session->profile != nullptr) {
      salt = analysis::HashMix(salt, profile::Fingerprint(*session->profile));
    }
    po.cache_salt = salt;
  }

  term::TermStore store;
  store.SetCellLimit(options_.session_cell_limit);
  try {
    auto program = reader::ParseProgramText(&store, session->source);
    if (!program.ok()) return StatusReply(req, program.status());
    // Symbols are per-store, so the empirical view must be rebuilt against
    // this request's fresh store; stale/under-sampled predicates fall back
    // to the static model inside BuildEmpirical.
    cost::EmpiricalProfile empirical;
    JsonValue profile_report;
    if (session->profile != nullptr) {
      auto applied = profile::BuildEmpirical(&store, *program,
                                             *session->profile,
                                             profile::ApplyOptions(),
                                             &empirical);
      if (!applied.ok()) return StatusReply(req, applied.status());
      po.reorder.profile = &empirical;
      profile_report = JsonValue::Object();
      profile_report.Set("applied", JsonValue::Number(
                                        static_cast<double>(applied->applied)));
      profile_report.Set("stale", JsonValue::Number(
                                      static_cast<double>(applied->stale)));
      profile_report.Set(
          "low_samples",
          JsonValue::Number(static_cast<double>(applied->low_samples)));
      profile_report.Set("unknown", JsonValue::Number(
                                        static_cast<double>(applied->unknown)));
    }
    core::GuardedPipeline pipeline(&store, std::move(po));
    auto result = pipeline.Run(*program);
    if (!result.ok()) return StatusReply(req, result.status());
    stat_reorder_analyses_.fetch_add(result->report.analysis_runs,
                                     std::memory_order_relaxed);

    JsonValue r = MakeReply(req, "ok");
    r.Set("program",
          JsonValue::String(reader::WriteProgram(store, result->program)));
    r.Set("degraded", JsonValue::Bool(result->report.degraded()));
    // The rendered report is byte-stable and cache-blind (cache counters
    // are deliberately not part of ToJson): a warm reply is bit-identical
    // to the cold reply for the same program and options.
    r.Set("report", JsonValue::String(result->report.ToJson()));
    if (session->profile != nullptr) {
      r.Set("profile", std::move(profile_report));
    }
    return r;
  } catch (const term::AllocError&) {
    return ErrorReply(
        req, "resource_exhausted",
        StrFormat("reorder exceeded the session cell limit (%zu cells)",
                  options_.session_cell_limit));
  }
}

JsonValue Server::DoLint(const JsonValue& req, const prore::ExecContext& ctx) {
  if (prore::Status st = ctx.Check(); !st.ok()) return StatusReply(req, st);
  auto session = FindSession(req.GetString("session", "default"));
  if (session == nullptr) {
    return ErrorReply(req, "not_found",
                      "load a program into the session first");
  }
  term::TermStore store;
  store.SetCellLimit(options_.session_cell_limit);
  try {
    auto program = reader::ParseProgramText(&store, session->source);
    if (!program.ok()) return StatusReply(req, program.status());
    lint::Linter linter;
    auto diags = linter.Run(store, *program);
    if (!diags.ok()) return StatusReply(req, diags.status());

    JsonValue r = MakeReply(req, "ok");
    JsonValue list = JsonValue::Array();
    size_t errors = 0, warnings = 0;
    for (const lint::Diagnostic& d : *diags) {
      JsonValue item = JsonValue::Object();
      item.Set("code", JsonValue::String(d.code));
      item.Set("severity", JsonValue::String(lint::SeverityName(d.severity)));
      item.Set("pred", JsonValue::String(d.pred));
      item.Set("message", JsonValue::String(d.message));
      list.push_back(std::move(item));
      if (d.severity == lint::Severity::kError) ++errors;
      if (d.severity == lint::Severity::kWarning) ++warnings;
    }
    r.Set("diagnostics", std::move(list));
    r.Set("errors", JsonValue::Number(static_cast<double>(errors)));
    r.Set("warnings", JsonValue::Number(static_cast<double>(warnings)));
    return r;
  } catch (const term::AllocError&) {
    return ErrorReply(req, "resource_exhausted",
                      "lint exceeded the session cell limit");
  }
}

JsonValue Server::DoSolve(
    const JsonValue& req, const prore::ExecContext& ctx,
    const std::function<prore::Status(const std::string&)>& write_frame,
    bool* client_gone) {
  auto session = FindSession(req.GetString("session", "default"));
  if (session == nullptr) {
    return ErrorReply(req, "not_found",
                      "load a program into the session first");
  }
  const JsonValue* query = req.Find("query");
  if (query == nullptr || !query->is_string()) {
    return ErrorReply(req, "bad_request", "solve needs a \"query\" string");
  }

  engine::SolveOptions so = options_.solve;
  so.exec = ctx;
  so.max_calls = TightenBudget(so.max_calls,
                               BudgetField(req, "max_calls", 0));
  so.timeout_ms = TightenBudget(so.timeout_ms,
                                BudgetField(req, "timeout_ms", 0));
  so.max_depth = TightenBudget(so.max_depth,
                               BudgetField(req, "max_depth", 0));
  so.max_heap_cells = TightenBudget(so.max_heap_cells,
                                    BudgetField(req, "max_heap_cells", 0));
  uint64_t max_solutions = BudgetField(req, "max_solutions", 0);
  if (max_solutions != 0) {
    so.max_solutions = std::min(so.max_solutions, max_solutions);
  }

  engine::Machine machine(session->snapshot, so);
  auto parsed =
      reader::ParseQueryText(&machine.store(), query->string_value() + ".");
  if (!parsed.ok()) return StatusReply(req, parsed.status());

  // Answers stream one frame each, ahead of the final summary, so a
  // million-solution query never materializes a million-answer reply.
  uint64_t count = 0;
  auto on_solution = [&]() -> bool {
    ++count;
    stat_answers_.fetch_add(1, std::memory_order_relaxed);
    std::string bindings;
    for (const auto& [name, var] : parsed->var_names) {
      if (!bindings.empty()) bindings += ", ";
      bindings += name + " = " + reader::WriteTerm(machine.store(), var);
    }
    if (bindings.empty()) bindings = "true";
    JsonValue a = MakeReply(req, "answer");
    a.Set("answer", JsonValue::String(std::move(bindings)));
    a.Set("n", JsonValue::Number(static_cast<double>(count)));
    if (!write_frame(a.Dump()).ok()) {
      // Peer went away mid-stream: stop the search; its results have no
      // audience. The machine (and its private heap) die with this call.
      *client_gone = true;
      return false;
    }
    return true;
  };

  auto metrics = machine.Solve(parsed->term, on_solution);
  if (*client_gone) return JsonValue();
  if (!metrics.ok()) {
    JsonValue r = StatusReply(req, metrics.status());
    if (auto perr = engine::PrologErrorFromStatus(metrics.status());
        perr.has_value()) {
      r.Set("ball", JsonValue::String(perr->ball));
    }
    return r;
  }
  JsonValue r = MakeReply(req, count > 0 ? "ok" : "failed");
  r.Set("answers", JsonValue::Number(static_cast<double>(count)));
  r.Set("calls",
        JsonValue::Number(static_cast<double>(metrics->TotalCalls())));
  return r;
}

JsonValue Server::DoStats(const JsonValue& req) {
  ServerStatsSnapshot s = Stats();
  JsonValue r = MakeReply(req, "ok");
  JsonValue st = JsonValue::Object();
  auto num = [](uint64_t v) {
    return JsonValue::Number(static_cast<double>(v));
  };
  st.Set("connections", num(s.connections));
  st.Set("frames", num(s.frames));
  st.Set("requests", num(s.requests));
  st.Set("completed", num(s.completed));
  st.Set("shed", num(s.shed));
  st.Set("cancelled", num(s.cancelled));
  st.Set("protocol_errors", num(s.protocol_errors));
  st.Set("answers_streamed", num(s.answers_streamed));
  st.Set("sessions", num(s.sessions));
  st.Set("inflight", num(s.inflight));
  JsonValue cache = JsonValue::Object();
  cache.Set("hits", num(s.cache.hits));
  cache.Set("misses", num(s.cache.misses));
  cache.Set("insertions", num(s.cache.insertions));
  cache.Set("invalidations", num(s.cache.invalidations));
  cache.Set("evictions", num(s.cache.evictions));
  cache.Set("entries", num(s.cache.entries));
  cache.Set("program_hits", num(s.cache.program_hits));
  st.Set("cache", std::move(cache));
  st.Set("reorder_analyses", num(s.reorder_analyses));
  r.Set("stats", std::move(st));
  return r;
}

JsonValue Server::DoCancel(const JsonValue& req) {
  const JsonValue* target = req.Find("target");
  if (target == nullptr) {
    return ErrorReply(req, "bad_request", "cancel needs a \"target\" id");
  }
  std::shared_ptr<prore::CancellationSource> source;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_by_id_.find(target->Dump());
    if (it != inflight_by_id_.end()) source = it->second;
  }
  JsonValue r = MakeReply(req, "ok");
  if (source != nullptr) {
    source->RequestCancel("cancelled by client request");
    r.Set("cancelled", JsonValue::Bool(true));
  } else {
    r.Set("cancelled", JsonValue::Bool(false));
  }
  return r;
}

ServerStatsSnapshot Server::Stats() const {
  ServerStatsSnapshot s;
  s.connections = stat_connections_.load(std::memory_order_relaxed);
  s.frames = stat_frames_.load(std::memory_order_relaxed);
  s.requests = stat_requests_.load(std::memory_order_relaxed);
  s.completed = stat_completed_.load(std::memory_order_relaxed);
  s.shed = stat_shed_.load(std::memory_order_relaxed);
  s.cancelled = stat_cancelled_.load(std::memory_order_relaxed);
  s.protocol_errors = stat_protocol_errors_.load(std::memory_order_relaxed);
  s.answers_streamed = stat_answers_.load(std::memory_order_relaxed);
  s.reorder_analyses =
      stat_reorder_analyses_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.sessions = sessions_.size();
  }
  s.cache = cache_.stats();
  return s;
}

}  // namespace prore::server
