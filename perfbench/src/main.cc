// srra_bench: the benchmark's load generator and traced replayer.
//
//   srra_bench --workload=warm_hits --seed=1 --seconds=10 --trace=0 --work=DIR
//
// Runs one workload in the scratch directory DIR (created, and removed
// afterwards) and prints the result document as the last stdout line:
// end-to-end metrics with --trace=0, per-layer metrics with --trace=1.
// Self-test flags: --setups=N, --io-timeout-ms=N, --daemon-fault-plan=P,
// --client-fault-plan=P; --trace-out=PATH writes the traced run's spans;
// --list-dse-spaces=1 prints dse_sweep's seeded spaces ("tiles unroll" per
// line) and exits.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "procs.h"
#include "support/error.h"
#include "support/str.h"

namespace {

const char kUsage[] =
    "usage: srra_bench --workload=NAME --seed=N --seconds=S --trace=0|1 --work=DIR\n"
    "                  [--setups=N] [--io-timeout-ms=N] [--trace-out=PATH]\n"
    "                  [--daemon-fault-plan=PLAN] [--client-fault-plan=PLAN]\n";

long long parse_number(const std::string& text, const char* flag) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  srra::check(!text.empty() && *end == '\0' && value >= 0,
              srra::cat("bad ", flag, " value: ", text));
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string work;
  bool trace = false;
  bool list_spaces = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      srra::check(arg.rfind("--", 0) == 0 && eq != std::string::npos,
                  "bad argument: " + arg);
      const std::string flag = arg.substr(0, eq);
      const std::string value = arg.substr(eq + 1);
      if (flag == "--workload") {
        options.workload = perfbench::parse_workload(value);
      } else if (flag == "--seed") {
        options.seed = static_cast<std::uint64_t>(parse_number(value, "--seed"));
      } else if (flag == "--seconds") {
        options.seconds = static_cast<double>(parse_number(value, "--seconds"));
      } else if (flag == "--trace") {
        trace = parse_number(value, "--trace") != 0;
      } else if (flag == "--work") {
        work = value;
      } else if (flag == "--setups") {
        options.setups = static_cast<int>(parse_number(value, "--setups"));
      } else if (flag == "--io-timeout-ms") {
        options.io_timeout_ms = static_cast<int>(parse_number(value, "--io-timeout-ms"));
      } else if (flag == "--trace-out") {
        options.trace_out = std::filesystem::absolute(value).string();
      } else if (flag == "--list-dse-spaces") {
        list_spaces = parse_number(value, "--list-dse-spaces") != 0;
      } else if (flag == "--daemon-fault-plan") {
        options.daemon_fault_plan = value;
      } else if (flag == "--client-fault-plan") {
        options.client_fault_plan = value;
      } else {
        srra::fail("unknown flag " + flag);
      }
    }
    if (list_spaces) {
      for (const perfbench::DseSpace& space : perfbench::dse_spaces(options.seed)) {
        std::cout << space.tiles << ' ' << space.unroll << '\n';
      }
      return 0;
    }
    srra::check(!work.empty() && options.seconds >= 1 && options.setups >= 1,
                "--work is required; --seconds and --setups must be >= 1");
  } catch (const srra::Error& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  }

  int code = 0;
  try {
    perfbench::remove_tree(work);
    std::filesystem::create_directories(work);
    srra::check(chdir(work.c_str()) == 0, "cannot enter " + work);
    const perfbench::Result result =
        trace ? perfbench::run_trace(options) : perfbench::run_load(options);
    for (const std::string& note : result.notes) std::cerr << "check failed: " << note << "\n";
    std::cout << result.to_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = 1;
  }
  if (chdir("..") == 0) perfbench::remove_tree(work);
  return code;
}
