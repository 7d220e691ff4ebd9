// The prored side of the benchmark: an in-process server::Server on a Unix
// socket, driven as a closed loop by a few client connections from this
// process, with every reply recorded for checking afterwards.
#ifndef PERFBENCH_SERVER_BENCH_H_
#define PERFBENCH_SERVER_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/server.h"
#include "src/inputs.h"

namespace perfbench {

/// One reply of the closed loop, kept for ServerBench::Verify.
struct ServerRecord {
  std::string op;
  int served = -1;        ///< served index; -1 = the client's edit session
  uint64_t variant = 0;   ///< edit session content (0 = unedited base)
  size_t query = 0;
  std::string status;
  uint64_t hash = 0;      ///< answers (solve) or program text (reorder)
  uint64_t canonical_hash = 0;  ///< reorder: text up to variable names
  bool degraded = false;
  std::string report;  ///< reorder: the pipeline report, when degraded
  double errors = 0, warnings = 0;  ///< lint
  double ms = 0;
  double done_s = 0;  ///< when the reply completed, since the phase began
};

/// Latencies (ms) by op, plus what the clients saw.
struct ServerPhaseResult {
  std::vector<ServerRecord> records;
  std::map<std::string, std::vector<double>> latency_ms;
  double seconds = 0;
  /// Replies completed in each whole second of the phase.
  std::vector<double> window_rps;
  /// CPU time the server spent in the phase (all its threads; time the
  /// hypervisor gave to other guests is not counted).
  double server_cpu_s = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;    ///< error replies and wrong answers
  uint64_t errors = 0;    ///< replies with an error status
  uint64_t shed = 0;      ///< "overloaded" replies
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  /// Checked reorder replies whose text matched the in-process reference
  /// only up to variable names.
  uint64_t reorder_text_diffs = 0;
  /// Reorder replies that reported a degraded (partly unoptimised) program.
  uint64_t degraded_replies = 0;
  /// Sum of reorder latencies on the served (unedited) sessions, by
  /// served index, and the number of such replies.
  std::map<size_t, std::pair<double, uint64_t>> served_reorder_ms;
};

class ServerBench {
 public:
  ServerBench(const WorkloadSpec& spec, size_t workers, size_t clients,
              std::string socket_path);
  ~ServerBench();
  ServerBench(const ServerBench&) = delete;
  ServerBench& operator=(const ServerBench&) = delete;

  /// Starts the server and loads the served sessions plus one edit
  /// session per client. False (with *why) on any failure.
  bool Start(std::string* why);
  /// Reorders every session once so the cache holds the unedited groups.
  bool Warm(std::string* why);
  /// The closed loop for `seconds`; `seed` drives the op mix.
  ServerPhaseResult Run(double seconds, uint64_t seed);
  /// Checks every reply in `result` against in-process references: answer
  /// multisets of solves against the original program, reorder texts
  /// against GuardedPipeline at the server's options (a sample of the
  /// edited variants), lint counts against lint::Linter. Adds to
  /// result->failed.
  void Verify(const std::map<std::string, ProgramBaseline>& known,
              ServerPhaseResult* result, std::vector<std::string>* problems);
  void Stop();

 private:
  struct Client;

  const WorkloadSpec& spec_;
  size_t workers_;
  size_t clients_;
  std::string socket_path_;
  std::unique_ptr<prore::server::Server> server_;
  /// Per client: the variant its edit session holds, and loads so far.
  std::vector<uint64_t> edit_variant_;
  std::vector<uint64_t> edit_loads_;
};

/// In-process reorder at prored's options (jobs=1, optionally with an
/// analysis cache): the text a `reorder` reply must carry.
std::string ServerOptionsReorder(const std::string& source,
                                 prore::core::AnalysisCache* cache = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_BENCH_H_
