// The timed run: seeded frames from one closed-loop generator process
// against a real srrad child (service workloads), or real `srra pareto`
// children (dse_sweep). Every answer is checked; every failed operation is
// counted.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "dse/explore.h"
#include "dse/prune.h"
#include "dse/report.h"
#include "replay.h"
#include "support/error.h"
#include "support/faultio.h"
#include "support/str.h"

namespace perfbench {

srra::service::ClientOptions RunOptions::client_options() const {
  srra::service::ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = io_timeout_ms;
  options.retries = 1;
  options.backoff_ms = 5;
  options.backoff_seed = seed;
  return options;
}

namespace {

// One closed-loop connection: a toolchain worker blocking on each answer.
// Transport errors and deadline misses surface as exceptions after the
// client's own retries; the connection is then replaced.
class Worker {
 public:
  Worker(const Daemon& daemon, const RunOptions& options)
      : daemon_(daemon), options_(options.client_options()) {}
  ~Worker() { retire(); }

  /// One operation; false (with `error`) when it failed in transport.
  bool roundtrip(const std::string& frame, std::string& response, std::string& error) {
    try {
      if (!client_) client_ = std::make_unique<srra::service::Client>(daemon_.connect(options_));
      response = client_->roundtrip(frame);
      return true;
    } catch (const srra::Error& e) {
      error = e.what();
      retire();
      return false;
    }
  }
  std::int64_t retries() const {
    return retired_retries_ + (client_ ? client_->retries_used() : 0);
  }

 private:
  void retire() {
    if (client_) retired_retries_ += client_->retries_used();
    client_.reset();
  }

  const Daemon& daemon_;
  srra::service::ClientOptions options_;
  std::unique_ptr<srra::service::Client> client_;
  std::int64_t retired_retries_ = 0;
};

using Sample = std::vector<std::pair<std::string, std::string>>;  ///< (frame, response)

// Shared answer bookkeeping: operation counts, the first answer seen per
// frame (later answers must carry the same "query" bytes, hit or miss, on
// this daemon or an earlier set-up's), and samples for the in-process
// byte-for-byte check, one per phase so the window's answers are checked
// whatever the set-up kept.
struct Ledger {
  static constexpr std::size_t kSampleCap = 32;  ///< per phase

  std::mutex mu;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
  std::vector<std::string> notes;
  std::unordered_map<std::string, std::string> first_query;  ///< frame -> bytes
  Sample setup_sample, window_sample;

  void note(const std::string& what) {
    if (notes.size() < 8) notes.push_back(what);
  }

  /// Counts one operation; returns true when it succeeded and its answer
  /// passed the checks. A passing answer is kept in `sample` (if any) while
  /// it has room.
  bool record(const std::string& frame, bool transported, const std::string& response,
              const std::string& error, Sample* sample) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!transported) {
      ++failed;
      note("transport: " + error);
      return false;
    }
    if (member_raw(response, "ok") != "true") {
      ++failed;
      note("ok:false: " + std::string(member_string(response, "error")));
      return false;
    }
    const std::string_view query = member_raw(response, "query");
    const auto it = first_query.find(frame);
    if (it == first_query.end()) first_query.emplace(frame, std::string(query));
    if (query.empty() || (it != first_query.end() && it->second != query)) {
      ++failed;
      ++wrong;
      note("answer differs from the first answer for the same frame: " + frame);
      return false;
    }
    if (sample != nullptr && sample->size() < kSampleCap) sample->emplace_back(frame, response);
    return true;
  }
};

// Runs `frames` over `workers`, frame i on worker i % n, each worker a
// thread; with `sample` set, every 16th answer goes into it for the
// in-process check.
void run_frames(std::vector<std::unique_ptr<Worker>>& workers,
                const std::vector<std::string>& frames, Ledger& ledger, Sample* sample) {
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    threads.emplace_back([&, w] {
      std::string response, error;
      for (std::size_t i = w; i < frames.size(); i += workers.size()) {
        const bool ok = workers[w]->roundtrip(frames[i], response, error);
        ledger.record(frames[i], ok, response, error, i % 16 == 0 ? sample : nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// The timed window. Completed requests are cut, in completion order, into
// slices of kSliceNs; throughput and latency percentiles are taken per slice
// and reported as the median over slices, so a burst of outside
// interference moves a few slices, not the result. On a shared 4-core VM a
// fixed CPU loop ran from 0.7x to 1.3x its median speed across 5-second
// stretches; medians over slices were steadier across seeds than the best or
// the best-quartile slice. The tail percentile is p90: the p99 of one seed
// swung between 2.1 and 5.3 ms with hypervisor pauses, which a benchmark
// bound cannot tell from a regression.
constexpr std::int64_t kSliceNs = 500000000;

struct WindowStats {
  std::int64_t ok = 0;
  std::int64_t misses = 0;  ///< answers that were not cache hits
  std::size_t slices = 0;
  double req_per_s = 0;
  double p50_us = 0;
  double p90_us = 0;
};

WindowStats run_window(std::vector<std::unique_ptr<Worker>>& workers,
                       ServiceWorkload& workload, const RunOptions& options,
                       Ledger& ledger) {
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(options.seconds * 1e9);
  // Per worker: (completion time, latency us) of every successful request.
  std::vector<std::vector<std::pair<std::int64_t, double>>> done(workers.size());
  std::vector<std::int64_t> misses(workers.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    threads.emplace_back([&, w] {
      srra::Rng rng(stream_seed(options.seed, options.workload, static_cast<int>(w)));
      srra::Rng sampler(sample_seed(options.seed, options.workload, static_cast<int>(w)));
      std::string response, error;
      done[w].reserve(1 << 16);
      for (std::int64_t t0 = now_ns(); t0 < deadline; t0 = now_ns()) {
        const std::string frame = workload.next(static_cast<int>(w), rng);
        const bool transported = workers[w]->roundtrip(frame, response, error);
        const std::int64_t t1 = now_ns();
        Sample* keep = sampler.uniform(0, 255) == 0 ? &ledger.window_sample : nullptr;
        if (ledger.record(frame, transported, response, error, keep)) {
          done[w].emplace_back(t1, static_cast<double>(t1 - t0) / 1e3);
          const std::string_view cache = member_raw(response, "cache");
          if (member_string(cache, "status") != "hit") ++misses[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  WindowStats total;
  std::vector<std::pair<std::int64_t, double>> all;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    all.insert(all.end(), done[w].begin(), done[w].end());
    total.misses += misses[w];
  }
  std::sort(all.begin(), all.end());
  total.ok = static_cast<std::int64_t>(all.size());
  std::vector<double> rate, p50, p90;
  std::int64_t slice_start = start;
  for (std::size_t first = 0; first < all.size();) {
    std::size_t last = first;
    while (last < all.size() && all[last].first - slice_start < kSliceNs) ++last;
    if (last == first) {  // nothing completed in this slice
      slice_start += kSliceNs;
      continue;
    }
    // A short last slice is dropped unless it is the only one.
    if (last == all.size() && all[last - 1].first - slice_start < kSliceNs / 2 && !rate.empty()) {
      break;
    }
    std::vector<double> latency;
    for (std::size_t i = first; i < last; ++i) latency.push_back(all[i].second);
    const std::int64_t slice_end = all[last - 1].first;
    rate.push_back(static_cast<double>(last - first) * 1e9 /
                   static_cast<double>(std::max<std::int64_t>(1, slice_end - slice_start)));
    p50.push_back(quantile(latency, 0.5));
    p90.push_back(quantile(latency, 0.9));
    slice_start = slice_end;
    first = last;
  }
  total.slices = rate.size();
  total.req_per_s = median(rate);
  total.p50_us = median(p50);
  total.p90_us = median(p90);
  return total;
}

// Quality and anchors over the verification answers; returns the geomeans
// of exec cycles and registers over the feasible design points.
std::pair<double, double> quality_of(const std::vector<Query>& queries,
                                     const std::vector<std::string>& responses,
                                     Result& result) {
  std::vector<double> cycles, regs;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string_view point = member_raw(member_raw(responses[i], "query"), "point");
    if (point.empty()) continue;  // infeasible budget
    cycles.push_back(static_cast<double>(member_int(point, "exec_cycles")));
    regs.push_back(static_cast<double>(member_int(point, "registers")));
    for (const Anchor& a : paper_anchors()) {
      if (queries[i].kernel == a.kernel && queries[i].algorithm == a.algorithm &&
          queries[i].budget == 64 && member_raw(point, a.member) != a.expected) {
        result.fail_check(srra::cat("paper anchor ", a.kernel, "/", a.algorithm, " ",
                                    a.member, " = ", member_raw(point, a.member),
                                    ", want ", a.expected));
      }
    }
  }
  for (const Anchor& a : paper_anchors()) {
    bool seen = false;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      seen |= queries[i].kernel == a.kernel && queries[i].algorithm == a.algorithm &&
              queries[i].budget == 64 &&
              !member_raw(member_raw(responses[i], "query"), "point").empty();
    }
    if (!seen) result.fail_check(srra::cat("paper anchor ", a.kernel, "/", a.algorithm,
                                           " not answered"));
  }
  return {geomean(cycles), geomean(regs)};
}

Result run_service(const RunOptions& options) {
  std::unique_ptr<ServiceWorkload> workload =
      ServiceWorkload::make(options.workload, options.seed);
  DaemonFlags flags = workload->flags();
  flags.fault_plan = options.daemon_fault_plan;
  Ledger ledger;
  Result result;

  // Set-up, several times over fresh daemons and stores: spawn -> socket
  // ready -> pre-fill done. The last daemon serves the window.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Worker>> workers;
  for (int s = 0; s < options.setups; ++s) {
    workers.clear();
    if (daemon) daemon->stop();
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(srra::cat("d", s), flags);
    for (int c = 0; c < kConnections; ++c) {
      workers.push_back(std::make_unique<Worker>(*daemon, options));
    }
    run_frames(workers, workload->prefill(), ledger, s == 0 ? &ledger.setup_sample : nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const double probe_before_ms = host_probe_ms();
  const WindowStats window = run_window(workers, *workload, options, ledger);
  const double probe_after_ms = host_probe_ms();

  // Verification set, after the window so speed cannot change it.
  const std::vector<Query> queries = quality_queries();
  std::vector<std::string> frames, responses(queries.size());
  for (const Query& q : queries) frames.push_back(q.frame());
  {
    std::string error;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const bool ok = workers[0]->roundtrip(frames[i], responses[i], error);
      ledger.record(frames[i], ok, responses[i], error, nullptr);
    }
  }
  std::int64_t retries = 0;
  for (const auto& w : workers) retries += w->retries();
  workers.clear();
  const ChildExit exit = daemon->stop();

  const auto [cycles, regs] = quality_of(queries, responses, result);
  // A seeded sample of answers (pre-fill, window, verification) against an
  // in-process evaluate_query + query_payload, enveloped the same way.
  Replayer verifier(flags, "", nullptr);
  Sample checks = ledger.setup_sample;
  checks.insert(checks.end(), ledger.window_sample.begin(), ledger.window_sample.end());
  for (std::size_t i = 0; i < frames.size(); i += 4) checks.emplace_back(frames[i], responses[i]);
  for (const auto& [frame, response] : checks) {
    if (member_raw(response, "ok") != "true") continue;  // counted as failed already
    const std::string status(member_string(member_raw(response, "cache"), "status"));
    if (verifier.expected(frame, status) != response) {
      ++ledger.wrong;
      result.fail_check("answer differs from the in-process evaluation: " + frame);
    }
  }
  if (ledger.wrong > 0) result.fail_check(srra::cat(ledger.wrong, " wrong answers"));
  if (!exit.ok()) result.fail_check("srrad did not shut down cleanly");

  for (const std::string& n : ledger.notes) std::cerr << "note: " << n << "\n";
  std::cerr << "window: " << window.ok << " ok in " << window.slices << " slices, "
            << window.misses << " non-hits, "
            << retries << " client retries, " << checks.size() << " in-process checks ("
            << ledger.window_sample.size() << " from the window)\n"
            << "host: probe loop " << probe_before_ms << " ms before the window, "
            << probe_after_ms << " ms after\n";
  result.attempted = ledger.attempted;
  result.failed = ledger.failed;
  result.add("setup_s", median(setup_s), "s");
  result.add("req_per_s", window.req_per_s, "1/s");
  result.add("p50_us", window.p50_us, "us");
  result.add("p90_us", window.p90_us, "us");
  result.add("peak_rss_mb", exit.max_rss_mb, "MB");
  result.add("design_cycles_geomean", cycles, "cycles");
  result.add("design_regs_geomean", regs, "count");
  result.add("candidates_per_s", window.req_per_s, "1/s");
  return result;
}

// ------------------------------------------------------------------ dse_sweep

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Splits a `srra pareto --prune=stats` output into its stats line and the
// report that follows it; false when the stats line is missing or its
// counts do not add up.
bool split_stats(const std::string& output, std::int64_t& generated, std::string& report) {
  long long g = 0, p = 0, e = 0;
  if (std::sscanf(output.c_str(), "Prune: generated %lld, pruned %lld (%*[^)]), evaluated %lld",
                  &g, &p, &e) != 3 ||
      g != p + e) {
    return false;
  }
  const std::size_t body = output.find("\n\n");
  if (body == std::string::npos) return false;
  generated = g;
  report = output.substr(body + 2);
  return true;
}

// CSV fields of one line (RFC 4180 quoting, no embedded newlines).
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> out(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        out.back() += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        out.back() += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

Result run_dse(const RunOptions& options) {
  Result result;
  const std::string srra = SRRA_BENCH_SRRA;
  const int timeout_ms = 60000;

  // Set-up: the fixed reference sweep, several times; its Pareto points are
  // the quality axes and its report is checked in-process below.
  const DseSpace reference = dse_reference_space();
  std::vector<std::string> argv = {srra};
  for (std::string& a : reference.args("csv")) argv.push_back(std::move(a));
  std::vector<double> setup_s;
  std::string reference_output;
  double peak_rss = 0;
  for (int s = 0; s < options.setups; ++s) {
    const std::int64_t t0 = now_ns();
    const ChildExit exit = run_child(argv, "reference.csv", "reference.log", timeout_ms);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    ++result.attempted;
    const std::string output = slurp("reference.csv");
    if (!exit.ok() || (s > 0 && output != reference_output)) {
      ++result.failed;
      result.fail_check("reference sweep failed or differs between runs");
    }
    if (s == 0) reference_output = output;
    peak_rss = std::max(peak_rss, exit.max_rss_mb);
  }

  // Window: whole rounds over the seeded spaces, one child at a time, until
  // the window has passed — every run covers the same tile sizes.
  const std::vector<DseSpace> spaces = dse_spaces(options.seed);
  std::vector<std::string> first_output(spaces.size());
  std::vector<double> round_us, round_candidates;
  std::vector<double> sweep_us_per_candidate;
  const double probe_before_ms = host_probe_ms();
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (int round = 0; round == 0 || now_ns() < deadline; ++round) {
    round_us.push_back(0);
    round_candidates.push_back(0);
    for (std::size_t k = 0; k < spaces.size(); ++k) {
      std::vector<std::string> sweep = {srra};
      for (std::string& a : spaces[k].args("text")) sweep.push_back(std::move(a));
      const std::int64_t t0 = now_ns();
      const ChildExit exit = run_child(sweep, "sweep.txt", "sweep.log", timeout_ms);
      const std::int64_t t1 = now_ns();
      ++result.attempted;
      const std::string output = slurp("sweep.txt");
      std::int64_t generated = 0;
      std::string report;
      const bool same = first_output[k].empty() || first_output[k] == output;
      if (!exit.ok() || !split_stats(output, generated, report) || !same) {
        ++result.failed;
        if (!same) result.fail_check("sweep output differs between runs of one space");
        continue;
      }
      if (first_output[k].empty()) first_output[k] = output;
      round_us.back() += static_cast<double>(t1 - t0) / 1e3;
      round_candidates.back() += static_cast<double>(generated);
      sweep_us_per_candidate.push_back(static_cast<double>(t1 - t0) / 1e3 /
                                       static_cast<double>(std::max<std::int64_t>(1, generated)));
      peak_rss = std::max(peak_rss, exit.max_rss_mb);
    }
  }
  const double probe_after_ms = host_probe_ms();

  // The reference report must equal an in-process guided exploration of
  // the same space, byte for byte.
  std::int64_t generated = 0;
  std::string report;
  if (!split_stats(reference_output, generated, report)) {
    result.fail_check("reference sweep printed no valid prune stats");
  } else {
    srra::dse::ExploreOptions explore_options;
    explore_options.jobs = 4;
    std::ostringstream expected;
    srra::dse::write_pareto_report(
        expected, srra::dse::explore_guided(reference.axes(), explore_options),
        srra::dse::Format::kCsv);
    if (expected.str() != report) {
      result.fail_check("reference sweep differs from the in-process exploration");
    }
  }
  std::vector<double> cycles, regs;
  std::istringstream lines(report);
  for (std::string line; std::getline(lines, line);) {
    const std::vector<std::string> f = csv_fields(line);
    // section,kernel,order,fetch,algorithm,budget,registers,mem_cycles,exec_cycles,...
    if (f.size() < 9 || f[0] != "registers_vs_cycles") continue;
    regs.push_back(std::stod(f[6]));
    cycles.push_back(std::stod(f[8]));
  }
  if (cycles.empty()) result.fail_check("reference sweep has no Pareto points");

  // A dse_sweep request is one generated candidate. Throughput is the
  // median round's (a round covers every tile size, so runs with different
  // seeds compare); latency is each sweep's wall time per candidate, p50 and
  // p90 over the window's sweeps.
  std::vector<double> round_rate;
  double candidates = 0;
  for (std::size_t r = 0; r < round_us.size(); ++r) {
    if (round_candidates[r] <= 0) continue;
    round_rate.push_back(round_candidates[r] * 1e6 / round_us[r]);
    candidates += round_candidates[r];
  }
  std::cerr << "window: " << sweep_us_per_candidate.size() << " sweeps in " << round_us.size()
            << " rounds, " << candidates << " candidates\n"
            << "host: probe loop " << probe_before_ms << " ms before the window, "
            << probe_after_ms << " ms after\n";
  const double candidates_per_s = median(round_rate);
  result.add("setup_s", median(setup_s), "s");
  result.add("req_per_s", candidates_per_s, "1/s");
  result.add("p50_us", quantile(sweep_us_per_candidate, 0.5), "us");
  result.add("p90_us", quantile(sweep_us_per_candidate, 0.9), "us");
  result.add("peak_rss_mb", peak_rss, "MB");
  result.add("design_cycles_geomean", geomean(cycles), "cycles");
  result.add("design_regs_geomean", geomean(regs), "count");
  result.add("candidates_per_s", candidates_per_s, "1/s");
  return result;
}

}  // namespace

Result run_load(const RunOptions& options) {
  if (!options.client_fault_plan.empty()) srra::faultio::install_plan(options.client_fault_plan);
  return options.workload == Workload::kDseSweep ? run_dse(options) : run_service(options);
}

}  // namespace perfbench
