// Entry points of the benchmark's two modes (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>

#include "service/client.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

/// Closed-loop client connections of the service workloads, each a toolchain
/// worker blocking on its answer. One: srrad's serve loop answers a batch
/// only when all of it is done, and two closed-loop connections fell into
/// shared batches for 97% of their answers on warm_hits and for 0-44% on
/// cold_mix, varying by run. On cold_mix that doubled the spread over seeds
/// and gained no throughput.
inline constexpr int kConnections = 1;

struct RunOptions {
  Workload workload = Workload::kWarmHits;
  std::uint64_t seed = 1;
  double seconds = 10;
  int setups = 5;       ///< set-ups per run; setup_s is their median
  int io_timeout_ms = 5000;
  std::string daemon_fault_plan;  ///< SRRA_FAULT_PLAN of the daemon (self-test)
  std::string client_fault_plan;  ///< fault plan of the generator (self-test)
  std::string trace_out;          ///< span dump path (traced run)

  srra::service::ClientOptions client_options() const;
};

/// The timed run over the real srrad / srra binaries: end-to-end metrics.
Result run_load(const RunOptions& options);
/// The traced in-process replay of the same inputs: per-layer metrics.
Result run_trace(const RunOptions& options);

}  // namespace perfbench
