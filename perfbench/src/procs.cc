#include "procs.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "support/error.h"
#include "support/str.h"
#include "util.h"

namespace perfbench {

bool ChildExit::ok() const {
  return !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path,
            const std::string& stdout_path, const std::string& fault_plan) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  srra::check(pid >= 0, "fork failed");
  if (pid == 0) {
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int out = stdout_path.empty()
                        ? log
                        : open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = open("/dev/null", O_RDONLY);
    if (log < 0 || out < 0 || in < 0) _exit(127);
    dup2(in, 0);
    dup2(out, 1);
    dup2(log, 2);
    if (fault_plan.empty()) {
      unsetenv("SRRA_FAULT_PLAN");
    } else {
      setenv("SRRA_FAULT_PLAN", fault_plan.c_str(), 1);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

ChildExit reap(pid_t pid, int timeout_ms) {
  ChildExit exit;
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  struct rusage usage {};
  for (;;) {
    const pid_t done = wait4(pid, &exit.status, WNOHANG, &usage);
    if (done == pid) break;
    if (done < 0) return exit;
    if (now_ns() > deadline) {
      kill(pid, SIGKILL);
      wait4(pid, &exit.status, 0, &usage);
      exit.killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  exit.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return exit;
}

ChildExit run_child(const std::vector<std::string>& argv, const std::string& stdout_path,
                    const std::string& log_path, int timeout_ms) {
  return reap(spawn(argv, log_path, stdout_path), timeout_ms);
}

std::vector<std::string> DaemonFlags::args() const {
  std::vector<std::string> out = {srra::cat("--jobs=", jobs)};
  if (memory_max_entries > 0) {
    out.push_back(srra::cat("--memory-max-entries=", memory_max_entries));
  }
  if (store_max_entries > 0) {
    out.push_back(srra::cat("--store-max-entries=", store_max_entries));
  }
  return out;
}

Daemon::Daemon(const std::string& tag, const DaemonFlags& flags)
    : tag_(tag), socket_(tag + ".sock") {
  remove_tree(tag_ + ".store");
  std::filesystem::remove(socket_);
  std::vector<std::string> argv = {SRRA_BENCH_SRRAD, "--socket=" + socket_,
                                   "--store=" + tag_ + ".store"};
  for (std::string& a : flags.args()) argv.push_back(std::move(a));
  pid_ = spawn(argv, tag_ + ".log", "", flags.fault_plan);
  srra::service::ClientOptions probe;
  probe.connect_timeout_ms = 100;
  const std::int64_t deadline = now_ns() + std::int64_t{10} * 1000000000;
  for (;;) {
    try {
      srra::service::Client::connect_unix(socket_, probe);
      return;
    } catch (const srra::Error&) {
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      srra::fail(srra::cat("srrad exited during start-up; see ", tag_, ".log"));
    }
    if (now_ns() > deadline) {
      reap(pid_, 0);
      pid_ = -1;
      srra::fail("srrad did not accept connections within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) stop();
}

srra::service::Client Daemon::connect(const srra::service::ClientOptions& options) const {
  return srra::service::Client::connect_unix(socket_, options);
}

ChildExit Daemon::stop() {
  ChildExit exit;
  if (pid_ <= 0) return exit;
  try {
    srra::service::ClientOptions options;
    options.connect_timeout_ms = 1000;
    options.io_timeout_ms = 2000;
    connect(options).roundtrip("{\"op\": \"shutdown\"}");
  } catch (const srra::Error&) {
    // A daemon that cannot take the request is killed at the deadline.
  }
  exit = reap(pid_, 5000);
  pid_ = -1;
  remove_tree(tag_ + ".store");
  std::filesystem::remove(socket_);
  return exit;
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
