#ifndef PRORE_SERVER_SERVER_H_
#define PRORE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/frame_io.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/analysis_cache.h"
#include "core/pipeline.h"
#include "engine/machine.h"
#include "profile/profile.h"
#include "common/json.h"

namespace prore::server {

/// prored's configuration. Every knob has an overload-survival rationale:
/// the server's contract is that no client behavior — malformed frames,
/// floods, slow writers, mid-request disconnects — crashes the process or
/// wedges another client's request; misbehavior costs the misbehaving
/// connection a structured error or a close, nothing more.
struct ServerOptions {
  /// Unix-domain socket path. Empty = TCP only.
  std::string socket_path;
  /// TCP listen port on 127.0.0.1; -1 = no TCP, 0 = ephemeral (the bound
  /// port is reported by Server::tcp_port()).
  int tcp_port = -1;
  /// Worker threads executing heavy requests (reorder/lint/solve/load).
  /// 0 = run them inline on the connection thread (tests).
  size_t workers = 0;
  /// Admission cap: heavy requests running + queued. A request arriving
  /// past the cap is shed immediately with {"status":"overloaded"} —
  /// bounded latency for everyone admitted beats unbounded queueing.
  size_t max_queue = 64;
  /// Simultaneous connections; excess connections get one overloaded
  /// frame and a close.
  size_t max_connections = 256;
  /// Default per-request deadline; the client's budget_ms composes
  /// earliest-wins. 0 = none.
  uint64_t default_deadline_ms = 30'000;
  size_t max_frame_bytes = 8u << 20;
  /// Connection idle limit (time to the next request's first byte).
  uint64_t idle_timeout_ms = 300'000;
  /// Per-frame I/O budget once a frame starts — the slowloris bound.
  uint64_t io_timeout_ms = 10'000;
  /// Term-store cell cap per session (parse + compile); exceeding it
  /// fails the load with resource_exhausted. 0 = uncapped.
  size_t session_cell_limit = 16u << 20;
  size_t max_sessions = 64;
  /// Analysis-cache capacity (per-dependency-group entries).
  size_t cache_entries = 1024;
  /// Base transform options; per-request fields (unfold/factor/absint/
  /// jobs) may be overridden by the request.
  core::PipelineOptions pipeline;
  /// Base solve budgets; per-request fields compose (budgets only
  /// tighten: a request cannot exceed the server's max_calls et al).
  engine::SolveOptions solve;
  /// Default execution profile (prored --profile-in). Attached to every
  /// session loaded without its own "profile" field, WITHOUT the strict
  /// membership validation applied to request-supplied profiles: a
  /// shared default legitimately covers predicates a given session lacks,
  /// and the reorder-time staleness check drops what does not match.
  std::shared_ptr<const profile::ProfileData> default_profile;
};

/// One consistent snapshot of the server's counters ({"op":"stats"}).
struct ServerStatsSnapshot {
  uint64_t connections = 0;
  uint64_t frames = 0;
  uint64_t requests = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t cancelled = 0;
  uint64_t protocol_errors = 0;  ///< bad JSON, oversized/truncated frames
  uint64_t answers_streamed = 0;
  /// Whole-program analysis set-ups run by reorders (0 for a reorder whose
  /// every group the analysis cache's program-level entry adopted).
  uint64_t reorder_analyses = 0;
  size_t sessions = 0;
  size_t inflight = 0;
  core::AnalysisCache::Stats cache;
};

/// The reorder/lint/query daemon behind `prored`. Speaks the
/// length-prefixed JSON protocol of common/frame_io.h: one JSON object per
/// frame in, one or more JSON objects per frame out ({"status":"answer"}
/// frames stream ahead of a solve's final reply). One thread per
/// connection does framing and parsing; heavy requests are admitted
/// against max_queue and executed on a shared worker pool, each under an
/// ExecContext combining the server's default deadline with the client's
/// budget (earliest wins) and a per-request CancellationSource that
/// {"op":"cancel"} (any connection) or SIGTERM can fire.
///
/// Shutdown([reason]) drains gracefully: stop accepting, fail new
/// requests with shutting_down, cancel in-flight work through the root
/// CancellationSource, and join every thread — replies in progress finish
/// their frame; nothing is killed mid-write.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread.
  prore::Status Start();

  /// Initiates graceful drain (idempotent). Safe from any thread, but NOT
  /// from a signal handler — handlers use NotifyShutdownAsync().
  void Shutdown(std::string reason = "shutdown requested");

  /// Async-signal-safe shutdown trigger: wakes the accept thread, which
  /// performs the actual Shutdown. The only calls made are write(2) on a
  /// pre-opened pipe and an atomic store.
  void NotifyShutdownAsync();

  /// Blocks until the server has fully drained (accept thread and every
  /// connection thread joined, worker pool quiesced).
  void Wait();

  bool shutting_down() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// The bound TCP port (after Start with tcp_port >= 0), else -1.
  int tcp_port() const { return bound_tcp_port_; }
  const std::string& socket_path() const { return options_.socket_path; }

  ServerStatsSnapshot Stats() const;
  core::AnalysisCache& cache() { return cache_; }

 private:
  struct Session {
    std::string source;
    std::shared_ptr<const engine::ProgramSnapshot> snapshot;
    size_t preds = 0;
    size_t clauses = 0;
    /// Execution profile attached at load ("profile" field or the server
    /// default); reorder rebuilds the empirical cost inputs from it
    /// against each request's fresh store. Null = static model only.
    std::shared_ptr<const profile::ProfileData> profile;
  };

  void AcceptLoop();
  void HandleConnection(int fd);

  /// Dispatches one parsed request. Returns the final reply (already
  /// dumped); streaming ops write their intermediate frames through
  /// `write_frame`. Sets *close_conn to end the connection after the
  /// reply.
  std::string HandleRequest(const JsonValue& req,
                            const std::function<prore::Status(
                                const std::string&)>& write_frame,
                            bool* close_conn);

  /// Admission + execution: runs `work` on the pool (or inline when
  /// workers == 0) if under max_queue; false = shed, work not run.
  bool AdmitAndRun(const std::function<void()>& work);

  JsonValue DoLoad(const JsonValue& req, const prore::ExecContext& ctx);
  JsonValue DoUnload(const JsonValue& req);
  JsonValue DoReorder(const JsonValue& req, const prore::ExecContext& ctx);
  JsonValue DoLint(const JsonValue& req, const prore::ExecContext& ctx);
  JsonValue DoSolve(const JsonValue& req, const prore::ExecContext& ctx,
                    const std::function<prore::Status(const std::string&)>&
                        write_frame,
                    bool* client_gone);
  JsonValue DoStats(const JsonValue& req);
  JsonValue DoCancel(const JsonValue& req);

  std::shared_ptr<Session> FindSession(const std::string& name);

  ServerOptions options_;
  core::AnalysisCache cache_;
  prore::CancellationSource root_cancel_;
  std::unique_ptr<prore::ThreadPool> pool_;

  int listen_unix_fd_ = -1;
  int listen_tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> started_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::atomic<size_t> active_conns_{0};

  mutable std::mutex sessions_mu_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;

  /// In-flight requests by client-chosen id, for {"op":"cancel"}.
  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<prore::CancellationSource>>
      inflight_by_id_;

  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> stat_connections_{0};
  std::atomic<uint64_t> stat_frames_{0};
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_completed_{0};
  std::atomic<uint64_t> stat_shed_{0};
  std::atomic<uint64_t> stat_cancelled_{0};
  std::atomic<uint64_t> stat_protocol_errors_{0};
  std::atomic<uint64_t> stat_answers_{0};
  std::atomic<uint64_t> stat_reorder_analyses_{0};
};

}  // namespace prore::server

#endif  // PRORE_SERVER_SERVER_H_
