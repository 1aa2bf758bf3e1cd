// Child processes of the benchmark: the real srrad daemon (spawned on a
// Unix socket, reaped with wait4 so its peak RSS is measured) and one-shot
// srra runs. Paths are relative to the working directory, which the
// benchmark sets to its per-run scratch directory inside the checkout.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/client.h"

namespace perfbench {

/// How a reaped child ended.
struct ChildExit {
  int status = -1;          ///< raw wait status
  bool killed = false;      ///< SIGKILLed by us after its deadline
  double max_rss_mb = 0;    ///< ru_maxrss
  bool ok() const;          ///< exited normally with code 0, not killed
};

/// fork + execv of argv[0]; stdout and stderr go to `log_path` (stdout to
/// `stdout_path` when given). `fault_plan` becomes SRRA_FAULT_PLAN
/// (inherited plans are removed otherwise). Throws srra::Error on failure.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path,
            const std::string& stdout_path = "", const std::string& fault_plan = "");

/// wait4 with a deadline; SIGKILLs and reaps the child past it.
ChildExit reap(pid_t pid, int timeout_ms);

/// Runs argv to completion (stdout to `stdout_path`), bounded by timeout_ms.
ChildExit run_child(const std::vector<std::string>& argv, const std::string& stdout_path,
                    const std::string& log_path, int timeout_ms);

/// Daemon flags a workload runs srrad with.
struct DaemonFlags {
  int jobs = 2;
  std::int64_t memory_max_entries = 0;  ///< 0 = srrad default
  std::int64_t store_max_entries = 0;   ///< 0 = srrad default
  std::string fault_plan;               ///< SRRA_FAULT_PLAN for the daemon

  std::vector<std::string> args() const;  ///< as passed after --socket/--store
};

/// One srrad child on `<tag>.sock` with store `<tag>.store`.
class Daemon {
 public:
  /// Spawns and blocks until the socket accepts connections (throws after
  /// ~10 s without).
  Daemon(const std::string& tag, const DaemonFlags& flags);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// A fresh client connection with the benchmark's deadlines.
  srra::service::Client connect(const srra::service::ClientOptions& options) const;
  /// Sends op:"shutdown", reaps the process (killing it if it will not
  /// exit) and removes its store directory.
  ChildExit stop();

 private:
  std::string tag_;
  std::string socket_;
  pid_t pid_ = -1;
};

/// Recursively removes `path` (no error when absent).
void remove_tree(const std::string& path);

}  // namespace perfbench
