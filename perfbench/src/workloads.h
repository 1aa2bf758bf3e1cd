// The three seeded workloads. Everything a run sends — setup frames, the
// timed stream, the post-window verification set, the srra command lines —
// is a pure function of (workload, seed), so the load run and the traced
// replay see the same inputs.
//
//   warm_hits  hot set (builtin kernels x {fr,pr,cpa,ls} x 4 budgets, 8
//              frontier queries, ~20% inline-DSL texts) pre-filled, then a
//              Zipf stream over it: every window request is a memory hit.
//   cold_mix   fresh daemon, every window request a distinct key: variants
//              of dse::enumerate_space (interchange, tiles, unroll) x
//              {fr,pr,cpa,ks,ls} x budgets 8..128 x fetch on/off, ~10%
//              frontier queries.
//   dse_sweep  `srra pareto --kernel=all --algos=paper --interchange
//              --tiles=<seeded> --unroll=<seeded> --budgets=8:128
//              --prune=stats --jobs=4` child processes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dse/space.h"
#include "procs.h"
#include "support/rng.h"

namespace perfbench {

enum class Workload { kWarmHits, kColdMix, kDseSweep };

/// Parses a workload name; throws srra::Error on an unknown one.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload workload);

/// One generated allocation query.
struct Query {
  std::string kernel;      ///< builtin name or inline DSL text
  std::string transforms;  ///< canonical encoding, "" = none
  std::string algorithm;   ///< registry spelling
  bool frontier = false;
  std::int64_t budget = 64;
  std::string budgets;     ///< frontier-mode axis spec
  bool fetch = true;

  /// The request frame payload (no id, so equal keys give equal bytes).
  std::string frame() const;
};

/// A service workload: daemon flags, the setup frames, the timed stream
/// and the post-window verification set.
class ServiceWorkload {
 public:
  static std::unique_ptr<ServiceWorkload> make(Workload workload, std::uint64_t seed);
  virtual ~ServiceWorkload() = default;

  Workload kind() const { return kind_; }
  const DaemonFlags& flags() const { return flags_; }
  /// Frames sent once during setup (all distinct keys).
  const std::vector<std::string>& prefill() const { return prefill_; }
  /// The next frame of connection `conn`'s stream; `rng` is that
  /// connection's generator. Thread-safe.
  virtual std::string next(int conn, srra::Rng& rng) = 0;

 protected:
  Workload kind_ = Workload::kWarmHits;
  DaemonFlags flags_;
  std::vector<std::string> prefill_;
};

/// The fixed (seed-independent) verification set answered after every
/// service window: builtin kernels x {fr,pr,cpa} x budgets {16,32,64,128},
/// fetch on. It contains the paper anchors (example and FIR at budget 64).
std::vector<Query> quality_queries();

/// Paper anchors checked on quality_queries() answers.
struct Anchor {
  const char* kernel;
  const char* algorithm;
  const char* member;   ///< design-point member checked
  const char* expected; ///< its raw JSON text
};
const std::vector<Anchor>& paper_anchors();

/// One dse_sweep design space: all builtin kernels, the paper's
/// allocators, interchange, budgets 8:128, and the given tile sizes and
/// unroll factors.
struct DseSpace {
  std::string tiles;   ///< --tiles list, e.g. "3,8,13"
  std::string unroll;  ///< --unroll list, e.g. "2,4"

  /// `srra pareto ... --prune=stats` arguments (binary excluded).
  std::vector<std::string> args(const std::string& format) const;
  /// The same space as an in-process AxisSpec.
  srra::dse::AxisSpec axes() const;
};

/// dse_sweep's timed spaces: five seeded subsets of tiles 2..16 (together
/// covering it once) with seeded subsets of unroll {2,4}.
std::vector<DseSpace> dse_spaces(std::uint64_t seed);
/// The fixed reference space: its Pareto points give dse_sweep's quality
/// metrics and its report is checked against an in-process evaluation.
DseSpace dse_reference_space();

/// Per-connection stream generator seed.
std::uint64_t stream_seed(std::uint64_t seed, Workload workload, int conn);
/// Per-connection seed of the load run's answer sampler (separate from the
/// stream, so the traced run draws the same frames).
std::uint64_t sample_seed(std::uint64_t seed, Workload workload, int conn);

}  // namespace perfbench
