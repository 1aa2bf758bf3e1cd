#include "workloads.h"

#include <algorithm>
#include <atomic>

#include "dse/space.h"
#include "kernels/kernels.h"
#include "support/error.h"
#include "support/json.h"
#include "support/str.h"

namespace perfbench {

namespace {

constexpr const char* kBuiltins[] = {"example", "fir", "dec_fir", "mat",   "imi",
                                     "pat",     "bic", "conv2d",  "matvec"};
constexpr std::int64_t kMinBudget = 8;
constexpr std::int64_t kMaxBudget = 128;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  srra::Rng rng(a * 0x9e3779b97f4a7c15ULL + b);
  return rng.next();
}

template <typename T>
void shuffle(std::vector<T>& items, srra::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

std::vector<srra::dse::SpaceKernel> builtin_space_kernels() {
  std::vector<srra::dse::SpaceKernel> out;
  out.push_back({"example", srra::kernels::paper_example()});
  for (srra::kernels::NamedKernel& nk : srra::kernels::all_kernels()) {
    out.push_back({nk.name, std::move(nk.kernel)});
  }
  return out;
}

// Zipf sampler over ranks 0..n-1 with weight 1/(rank+1), the skew of the
// repository's own bench_service_multi stream.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(srra::Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Popularity order of a Zipf universe: classes of similar-cost frames, in a
// fixed class order, dealt round robin (rank r belongs to class r mod n while
// every class still has members). The seed shuffles the members of each
// class, so which keys are hot is seeded while the cost mix at every
// popularity level is not — a seed cannot put all the expensive keys at the
// head of the distribution.
std::vector<std::string> stratified(std::vector<std::vector<std::string>> classes,
                                    srra::Rng& rng) {
  std::vector<std::string> ranked;
  std::size_t longest = 0;
  for (std::vector<std::string>& c : classes) {
    shuffle(c, rng);
    longest = std::max(longest, c.size());
  }
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::vector<std::string>& c : classes) {
      if (i < c.size()) ranked.push_back(std::move(c[i]));
    }
  }
  return ranked;
}

// Zipf stream over the pre-filled hot set, most popular first.
class WarmHits : public ServiceWorkload {
 public:
  explicit WarmHits(std::vector<std::string> ranked) : zipf_(ranked.size()) {
    kind_ = Workload::kWarmHits;
    prefill_ = std::move(ranked);
  }
  std::string next(int, srra::Rng& rng) override { return prefill_[zipf_.draw(rng)]; }

 private:
  Zipf zipf_;
};

// Classes per builtin kernel: its 16 name-addressed budget queries
// ({fr,pr,cpa,ls} x 4 seeded budgets), its 4 inline-DSL queries (the same
// kernel sent as source text, so request sizes vary), and one class of 8
// frontier queries.
std::unique_ptr<ServiceWorkload> make_warm_hits(std::uint64_t seed) {
  srra::Rng rng(mix(seed, 1));
  const char* algos[] = {"fr", "pr", "cpa", "ls"};
  std::vector<std::int64_t> budgets;
  while (budgets.size() < 4) {
    const std::int64_t b = rng.uniform(kMinBudget, kMaxBudget);
    if (std::find(budgets.begin(), budgets.end(), b) == budgets.end()) budgets.push_back(b);
  }
  std::vector<std::vector<std::string>> named, inline_dsl;
  std::vector<std::string> frontier;
  for (const char* kernel : kBuiltins) {
    named.emplace_back();
    inline_dsl.emplace_back();
    for (const char* algo : algos) {
      Query q;
      q.kernel = kernel;
      q.algorithm = algo;
      for (const std::int64_t b : budgets) {
        q.budget = b;
        named.back().push_back(q.frame());
      }
      q.kernel = srra::kernels::kernel_source(kernel);
      q.budget = rng.uniform(kMinBudget, kMaxBudget);
      inline_dsl.back().push_back(q.frame());
    }
  }
  for (int i = 0; i < 8; ++i) {
    Query q;
    q.kernel = kBuiltins[rng.uniform(0, 8)];
    q.algorithm = algos[i % 4];
    q.frontier = true;
    q.budgets = srra::cat(8 * (1 + i / 4), ":128");
    frontier.push_back(q.frame());
  }
  std::vector<std::vector<std::string>> classes = std::move(named);
  for (std::vector<std::string>& c : inline_dsl) classes.push_back(std::move(c));
  classes.push_back(std::move(frontier));
  return std::make_unique<WarmHits>(stratified(std::move(classes), rng));
}

// Every request a distinct key: the i-th request of the run (shared counter
// across connections) is decoded from a seeded permutation of the
// budget-query or frontier-query universe. The universe is every
// single-nest transformed variant of the builtin kernels (interchange, tiles
// 2..16, unroll {2,4}); the seed draws the order. Set-up computes 360
// queries on the source variants, which the window never asks for.
class ColdMix : public ServiceWorkload {
 public:
  explicit ColdMix(std::uint64_t seed) {
    kind_ = Workload::kColdMix;
    flags_.memory_max_entries = 1 << 20;
    flags_.store_max_entries = 1 << 20;
    srra::Rng rng(mix(seed, 2));
    srra::dse::AxisSpec axes;
    axes.kernels = builtin_space_kernels();
    axes.transforms.interchange = true;
    for (std::int64_t t = 2; t <= 16; ++t) axes.transforms.tile_sizes.push_back(t);
    axes.transforms.unroll_factors = {2, 4};
    const srra::dse::EnumeratedSpace space = srra::dse::enumerate_space(std::move(axes));
    for (const srra::dse::Variant& v : space.variants) {
      // srrad takes single nests only: peeled variants would be rejected.
      if (!v.epilogues.empty() || v.transforms.empty()) continue;
      variants_.push_back({v.kernel_name, v.encoding});
    }
    for (const char* kernel : kBuiltins) {
      for (const char* algo : {"fr", "pr", "cpa", "ks", "ls"}) {
        for (const std::int64_t b : {16, 32, 64, 128}) {
          for (const bool fetch : {true, false}) {
            Query q;
            q.kernel = kernel;
            q.algorithm = algo;
            q.budget = b;
            q.fetch = fetch;
            prefill_.push_back(q.frame());
          }
        }
      }
    }
    budget_keys_ = static_cast<std::uint64_t>(variants_.size()) * 5 *
                   static_cast<std::uint64_t>(kMaxBudget - kMinBudget + 1) * 2;
    frontier_keys_ = static_cast<std::uint64_t>(variants_.size()) * 5 * 2 * 4;
    budget_perm_ = make_perm(budget_keys_, rng);
    frontier_perm_ = make_perm(frontier_keys_, rng);
  }

  std::string next(int, srra::Rng&) override {
    const std::uint64_t i = counter_.fetch_add(1);
    Query q;
    std::uint64_t x;
    if (i % 10 == 9) {
      x = frontier_perm_.apply(i / 10 % frontier_keys_);
      static const char* specs[] = {"8:128", "8:64", "16:128", "32:128"};
      q.frontier = true;
      q.budgets = specs[x % 4];
      x /= 4;
    } else {
      x = budget_perm_.apply((i - i / 10) % budget_keys_);
      q.budget = kMinBudget + static_cast<std::int64_t>(x % (kMaxBudget - kMinBudget + 1));
      x /= kMaxBudget - kMinBudget + 1;
    }
    q.fetch = x % 2 == 0;
    x /= 2;
    static const char* algos[] = {"fr", "pr", "cpa", "ks", "ls"};
    q.algorithm = algos[x % 5];
    x /= 5;
    const auto& [kernel, transforms] = variants_[x];
    q.kernel = kernel;
    q.transforms = transforms;
    return q.frame();
  }

 private:
  // A seeded pseudo-random permutation of [0, n): a 4-round Feistel
  // network over the smallest even bit width covering n, cycle-walked back
  // into range. Consecutive indices land on unrelated keys.
  struct Perm {
    std::uint64_t n = 1;
    int half_bits = 1;
    std::uint64_t keys[4] = {};

    std::uint64_t apply(std::uint64_t x) const {
      do {
        x = encrypt(x);
      } while (x >= n);
      return x;
    }
    std::uint64_t encrypt(std::uint64_t x) const {
      const std::uint64_t mask = (std::uint64_t{1} << half_bits) - 1;
      std::uint64_t left = x >> half_bits, right = x & mask;
      for (const std::uint64_t key : keys) {
        const std::uint64_t next = left ^ (mix(key, right) & mask);
        left = right;
        right = next;
      }
      return (left << half_bits) | right;
    }
  };
  static Perm make_perm(std::uint64_t n, srra::Rng& rng) {
    Perm p;
    p.n = n;
    while ((std::uint64_t{1} << (2 * p.half_bits)) < n) ++p.half_bits;
    for (std::uint64_t& key : p.keys) key = rng.next();
    return p;
  }

  std::vector<std::pair<std::string, std::string>> variants_;
  std::uint64_t budget_keys_ = 1;
  std::uint64_t frontier_keys_ = 1;
  Perm budget_perm_;
  Perm frontier_perm_;
  std::atomic<std::uint64_t> counter_{0};
};

}  // namespace

Workload parse_workload(const std::string& name) {
  for (const Workload w : {Workload::kWarmHits, Workload::kColdMix, Workload::kDseSweep}) {
    if (name == workload_name(w)) return w;
  }
  srra::fail(srra::cat("unknown workload '", name,
                       "' (want warm_hits, cold_mix or dse_sweep)"));
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kWarmHits: return "warm_hits";
    case Workload::kColdMix: return "cold_mix";
    case Workload::kDseSweep: return "dse_sweep";
  }
  return "?";
}

std::string Query::frame() const {
  std::string out = "{\"op\": \"query\", \"kernel\": \"" + srra::json_escape(kernel) + "\"";
  if (!transforms.empty()) out += ", \"transforms\": \"" + srra::json_escape(transforms) + "\"";
  out += ", \"algorithm\": \"" + algorithm + "\"";
  if (frontier) {
    out += ", \"mode\": \"frontier\", \"budgets\": \"" + budgets + "\"";
  } else {
    out += ", \"budget\": " + std::to_string(budget);
  }
  out += fetch ? ", \"fetch\": true}" : ", \"fetch\": false}";
  return out;
}

std::unique_ptr<ServiceWorkload> ServiceWorkload::make(Workload workload,
                                                       std::uint64_t seed) {
  switch (workload) {
    case Workload::kWarmHits: return make_warm_hits(seed);
    case Workload::kColdMix: return std::make_unique<ColdMix>(seed);
    case Workload::kDseSweep: break;
  }
  srra::fail("dse_sweep is not a service workload");
}

std::vector<Query> quality_queries() {
  std::vector<Query> out;
  for (const char* kernel : kBuiltins) {
    for (const char* algo : {"fr", "pr", "cpa"}) {
      for (const std::int64_t b : {16, 32, 64, 128}) {
        Query q;
        q.kernel = kernel;
        q.algorithm = algo;
        q.budget = b;
        out.push_back(q);
      }
    }
  }
  return out;
}

const std::vector<Anchor>& paper_anchors() {
  // Figure 2(c): Tmem per outer iteration of the worked example at budget
  // 64; Table 1: the FIR rows (register distribution and cycles).
  static const std::vector<Anchor> anchors = {
      {"example", "fr", "mem_cycles_per_outer", "1800"},
      {"example", "pr", "mem_cycles_per_outer", "1560"},
      {"example", "cpa", "mem_cycles_per_outer", "1184"},
      {"fir", "fr", "distribution", "\"1/32/1\""},
      {"fir", "fr", "exec_cycles", "163840"},
      {"fir", "pr", "distribution", "\"1/32/31\""},
      {"fir", "pr", "exec_cycles", "133119"},
      {"fir", "cpa", "distribution", "\"1/32/31\""},
      {"fir", "cpa", "exec_cycles", "133119"},
  };
  return anchors;
}

std::vector<std::string> DseSpace::args(const std::string& format) const {
  return {"pareto",          "--kernel=all",       "--algos=paper",   "--interchange",
          "--tiles=" + tiles, "--unroll=" + unroll, "--budgets=8:128", "--prune=stats",
          "--jobs=4",         "--format=" + format};
}

srra::dse::AxisSpec DseSpace::axes() const {
  srra::dse::AxisSpec axes;
  axes.kernels = builtin_space_kernels();
  axes.algorithms = srra::paper_variants();
  axes.budgets = srra::dse::parse_budget_spec("8:128");
  axes.transforms.interchange = true;
  axes.transforms.tile_sizes = srra::dse::parse_size_list(tiles, "--tiles");
  axes.transforms.unroll_factors = srra::dse::parse_size_list(unroll, "--unroll");
  return axes;
}

std::vector<DseSpace> dse_spaces(std::uint64_t seed) {
  // Tile sizes 2..16 in three cost bands (per-candidate cost grows with the
  // tile size); each space takes one seeded size from every band, so one
  // round over the five spaces covers 2..16 exactly once and the spaces
  // cost about the same per candidate.
  srra::Rng rng(mix(seed, 4));
  std::vector<std::vector<std::int64_t>> bands(3);
  for (std::int64_t t = 2; t <= 16; ++t) bands[static_cast<std::size_t>((t - 2) / 5)].push_back(t);
  for (std::vector<std::int64_t>& band : bands) shuffle(band, rng);
  std::vector<std::string> unroll = {"2", "4", "2,4", "2,4", "2"};
  shuffle(unroll, rng);
  std::vector<DseSpace> out;
  for (std::size_t i = 0; i < 5; ++i) {
    out.push_back({srra::cat(bands[0][i], ",", bands[1][i], ",", bands[2][i]), unroll[i]});
  }
  return out;
}

DseSpace dse_reference_space() { return {"4,8", "2"}; }

std::uint64_t stream_seed(std::uint64_t seed, Workload workload, int conn) {
  return mix(mix(seed, static_cast<std::uint64_t>(workload) + 16),
             static_cast<std::uint64_t>(conn));
}

std::uint64_t sample_seed(std::uint64_t seed, Workload workload, int conn) {
  return mix(stream_seed(seed, workload, conn), 5);
}

}  // namespace perfbench
