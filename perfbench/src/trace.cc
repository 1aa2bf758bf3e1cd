// The traced run: the workload's generated inputs replayed in-process with
// a span around every call into a layer's public functions (replay.h), next
// to Server::handle on the same frames, and over a real srrad socket for
// the client-side share. Per-layer numbers are p50 microseconds per call
// unless the metric name says otherwise.
#include <iostream>
#include <map>
#include <sstream>

#include "bench.h"
#include "dse/explore.h"
#include "dse/pareto.h"
#include "dse/prune.h"
#include "dse/report.h"
#include "replay.h"
#include "service/server.h"
#include "support/error.h"
#include "support/str.h"

namespace perfbench {

namespace {

// The layers, by span-name prefix, whose self time is reported.
const char* const kLayers[] = {"service.client", "service.proto", "support.json",
                               "service.server", "service.store", "ir",
                               "analysis",       "core",          "sched",
                               "hw",             "driver",        "dse"};

bool has_prefix(const std::string& name, const std::string& prefix) {
  return name == prefix ||
         (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
          name[prefix.size()] == '.');
}

std::string layer_of(const std::string& name) {
  std::string best;
  for (const char* layer : kLayers) {
    if (has_prefix(name, layer) && std::string(layer).size() > best.size()) best = layer;
  }
  return best;
}

// Span statistics of one traced run.
class SpanStats {
 public:
  explicit SpanStats(const Tracer& tracer) : tracer_(tracer) {
    const auto& spans = tracer.spans();
    children_.assign(spans.size(), 0);
    for (const Tracer::Span& s : spans) {
      if (s.parent >= 0) children_[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }

  const std::string& name(const Tracer::Span& s) const {
    return tracer_.names()[static_cast<std::size_t>(s.name)];
  }
  std::int64_t self_ns(std::size_t i) const {
    const Tracer::Span& s = tracer_.spans()[i];
    return s.end - s.start - children_[i];
  }
  std::int64_t children_ns(std::size_t i) const { return children_[i]; }

  /// Durations (us) of spans named `prefix` or `prefix.*`.
  std::vector<double> durations_us(const std::string& prefix) const {
    std::vector<double> out;
    for (const Tracer::Span& s : tracer_.spans()) {
      if (has_prefix(name(s), prefix)) out.push_back(static_cast<double>(s.end - s.start) / 1e3);
    }
    return out;
  }
  double p50_us(const std::string& prefix) const { return median(durations_us(prefix)); }

  /// Self time per layer over the trees rooted at spans named `root`, plus
  /// the total root time.
  std::map<std::string, double> layer_self_ns(const std::string& root, double& total_ns) const {
    std::map<std::string, double> out;
    const auto& spans = tracer_.spans();
    std::vector<char> inside(spans.size(), 0);
    total_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      inside[i] = s.parent >= 0 ? inside[static_cast<std::size_t>(s.parent)]
                                : static_cast<char>(name(s) == root);
      if (!inside[i]) continue;
      if (s.parent < 0) total_ns += static_cast<double>(s.end - s.start);
      out[layer_of(name(s))] += static_cast<double>(self_ns(i));
    }
    return out;
  }

 private:
  const Tracer& tracer_;
  std::vector<std::int64_t> children_;
};

// Per-layer metrics in their fixed order; unmeasured ones stay 0 (a layer
// the workload bypasses).
struct LayerMetrics {
  std::vector<Metric> metrics;
  void set(const std::string& name, double value) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    srra::fail("unknown per-layer metric " + name);
  }
};

LayerMetrics layer_metric_table() {
  LayerMetrics t;
  const auto add = [&](const char* name, const char* unit) { t.metrics.push_back({name, 0, unit}); };
  add("service.client.roundtrip_us", "us");
  add("service.client.wait_us", "us");
  add("service.client.retries", "count");
  add("service.server.handle_us", "us");
  add("service.server.hit_ratio", "ratio");
  add("service.server.computed", "count");
  add("service.server.coalesced", "count");
  add("service.proto.parse_request_us", "us");
  add("service.proto.cache_key_us", "us");
  add("service.proto.make_query_response_us", "us");
  add("service.proto.query_payload_us", "us");
  add("support.json.parse_json_us", "us");
  add("ir.builtin_kernel_us", "us");
  add("ir.parse_kernel_us", "us");
  add("ir.transform_us", "us");
  add("ir.structural_hash_us", "us");
  add("analysis.refmodel_build_us", "us");
  add("core.allocate_us", "us");
  for (const char* a : {"fr", "pr", "cpa", "ks", "ls"}) {
    t.metrics.push_back({srra::cat("core.allocate.", a, "_us"), 0, "us"});
  }
  add("core.frontier_us", "us");
  add("core.validate_us", "us");
  add("sched.estimate_cycles_us", "us");
  add("sched.estimate_cycles.IMI_us", "us");
  add("sched.estimate_cycles.BIC_us", "us");
  add("hw.estimate_hw_us", "us");
  add("driver.evaluate_us", "us");
  add("service.store.get_us", "us");
  add("service.store.get_p99_us", "us");
  add("service.store.put_us", "us");
  add("service.store.put_p99_us", "us");
  add("service.store.write_failures", "count");
  add("dse.explore_guided_ms", "ms");
  add("dse.exhaustive_ms", "ms");
  add("dse.pareto_ms", "ms");
  add("dse.report_ms", "ms");
  add("dse.candidates_generated", "count");
  add("dse.candidates_pruned", "count");
  add("dse.prune_ratio", "ratio");
  add("dse.points_evaluated", "count");
  for (const char* layer : kLayers) {
    t.metrics.push_back({srra::cat(layer, ".self_pct"), 0, "%"});
  }
  add("trace.overhead_pct", "%");
  add("trace.handle_accounted_pct", "%");
  add("trace.requests", "count");
  return t;
}

void set_self_shares(LayerMetrics& out, const std::map<std::string, double>& self,
                     double total_ns) {
  if (total_ns <= 0) return;
  for (const auto& [layer, ns] : self) {
    if (!layer.empty()) out.set(layer + ".self_pct", 100.0 * ns / total_ns);
  }
}

srra::service::ServerOptions server_options(const DaemonFlags& flags, const std::string& dir) {
  srra::service::ServerOptions options;
  options.jobs = flags.jobs;
  options.store_dir = dir;
  if (flags.memory_max_entries > 0) options.memory_max_entries = flags.memory_max_entries;
  if (flags.store_max_entries > 0) options.store_max_entries = flags.store_max_entries;
  return options;
}

void trace_service(const RunOptions& options, Result& result, LayerMetrics& out) {
  std::unique_ptr<ServiceWorkload> workload =
      ServiceWorkload::make(options.workload, options.seed);
  const DaemonFlags& flags = workload->flags();
  const std::int64_t budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);

  remove_tree("handle.store");
  remove_tree("replay.store");
  srra::service::Server server(server_options(flags, "handle.store"));
  Tracer tracer;
  Replayer replayer(flags, "replay.store", &tracer);
  const auto status_of = [](const std::string& response) {
    return std::string(member_string(member_raw(response, "cache"), "status"));
  };

  // Same set-up as the load run, one frame at a time, untraced.
  for (const std::string& frame : workload->prefill()) {
    ++result.attempted;
    const std::string answer = server.handle(frame);
    if (answer != replayer.replay(frame, status_of(answer))) {
      ++result.failed;
      result.fail_check("replay differs from Server::handle in set-up: " + frame);
    }
  }
  const srra::service::ServerStats before = server.stats();
  const std::int64_t write_failures_before = server.store().write_failures();

  // The window stream, connections interleaved. Each frame goes through
  // Server::handle, then through the replay with the cache status
  // Server::handle answered it with, so both run in the same stretch of
  // machine speed.
  std::vector<srra::Rng> rngs;
  for (int c = 0; c < kConnections; ++c) {
    rngs.emplace_back(stream_seed(options.seed, options.workload, c));
  }
  std::vector<std::string> frames, statuses, composed;
  std::vector<double> handle_us;
  tracer.enabled = true;
  const std::int64_t start = now_ns();
  for (std::int64_t i = 0; i < 20000 && now_ns() - start < budget_ns * 6 / 10; ++i) {
    const int conn = static_cast<int>(i % kConnections);
    frames.push_back(workload->next(conn, rngs[static_cast<std::size_t>(conn)]));
    tracer.request = i;
    std::string answer;
    {
      auto s = tracer.span("service.server.handle");
      const std::int64_t t0 = now_ns();
      answer = server.handle(frames.back());
      handle_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    statuses.push_back(status_of(answer));
    composed.push_back(replayer.replay(frames.back(), statuses.back()));
    {
      auto s = tracer.span("support.json.parse_json");
      srra::parse_json(frames.back());
    }
    {
      auto s = tracer.span("support.json.parse_json");
      srra::parse_json(replayer.last_payload());
    }
    ++result.attempted;
    if (composed.back() != answer) {
      ++result.failed;
      result.fail_check("replay differs from Server::handle: " + frames.back());
    }
  }
  const srra::service::ServerStats after = server.stats();
  tracer.enabled = false;
  const double queries = static_cast<double>(after.queries - before.queries);
  out.set("service.server.hit_ratio",
          queries > 0 ? static_cast<double>(after.hits - before.hits) / queries : 0);
  out.set("service.server.computed", static_cast<double>(after.computed - before.computed));
  out.set("service.server.coalesced", static_cast<double>(after.coalesced - before.coalesced));
  out.set("service.store.write_failures",
          static_cast<double>(server.store().write_failures() - write_failures_before));

  // Span overhead: the first window frames replayed again with their cache
  // statuses, in rounds alternating untraced and traced (a separate tracer,
  // so these spans do not enter the per-layer numbers).
  {
    Tracer probe;
    probe.enabled = true;
    const std::size_t n = std::min<std::size_t>(frames.size(), 32);
    std::vector<double> plain, traced;
    for (int round = 0; round < 9; ++round) {
      for (Tracer* t : {static_cast<Tracer*>(nullptr), &probe}) {
        replayer.set_tracer(t);
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < n; ++i) replayer.replay(frames[i], statuses[i]);
        (t == nullptr ? plain : traced).push_back(static_cast<double>(now_ns() - t0));
      }
    }
    replayer.set_tracer(&tracer);
    const double base = median(plain);
    out.set("trace.overhead_pct", base > 0 ? 100.0 * (median(traced) - base) / base : 0);
  }

  // The real daemon: same flags, same set-up, the window frames replayed
  // over one connection. Its answers must equal the composed ones byte for
  // byte (same frames in the same order reach the same cache states).
  {
    Daemon daemon("trace", flags);
    srra::service::Client client = daemon.connect(options.client_options());
    for (const std::string& frame : workload->prefill()) client.roundtrip(frame);
    // The client-side share is taken over the answers served from cache, so
    // compute-time noise between the two processes does not enter it.
    std::vector<double> roundtrip_us, wait_us;
    double roundtrip_total = 0, wait_total = 0;
    tracer.enabled = true;
    const std::int64_t socket_start = now_ns();
    for (std::size_t i = 0; i < frames.size() && now_ns() - socket_start < budget_ns * 3 / 10;
         ++i) {
      tracer.request = static_cast<std::int64_t>(i);
      std::string response;
      ++result.attempted;
      try {
        auto s = tracer.span("service.client.roundtrip");
        response = client.roundtrip(frames[i]);
      } catch (const srra::Error& e) {
        ++result.failed;
        std::cerr << "note: transport: " << e.what() << "\n";
        break;
      }
      const Tracer::Span& span = tracer.spans().back();
      const double us = static_cast<double>(span.end - span.start) / 1e3;
      if (response != composed[i]) {
        ++result.failed;
        result.fail_check("replay differs from the daemon's answer: " + frames[i]);
      }
      roundtrip_us.push_back(us);
      if (member_string(member_raw(response, "cache"), "status") == "hit") {
        wait_us.push_back(us - handle_us[i]);
        roundtrip_total += us;
        wait_total += us - handle_us[i];
      }
    }
    tracer.enabled = false;
    out.set("service.client.roundtrip_us", median(roundtrip_us));
    out.set("service.client.wait_us", median(wait_us));
    out.set("service.client.retries", client.retries_used());
    if (roundtrip_total > 0) out.set("service.client.self_pct", 100.0 * wait_total / roundtrip_total);
    daemon.stop();
  }

  // Per-layer numbers.
  const SpanStats stats(tracer);
  for (Metric& m : out.metrics) {
    const std::string& name = m.name;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0 &&
        name.find("_p99_") == std::string::npos && !has_prefix(name, "service.client") &&
        !has_prefix(name, "dse")) {
      m.value = stats.p50_us(name.substr(0, name.size() - 3));
    }
  }
  out.set("service.store.get_p99_us", quantile(stats.durations_us("service.store.get"), 0.99));
  out.set("service.store.put_p99_us", quantile(stats.durations_us("service.store.put"), 0.99));

  double total_ns = 0;
  std::map<std::string, double> self = stats.layer_self_ns("service.server.request", total_ns);
  double json_ns = 0;
  for (const double us : stats.durations_us("support.json")) json_ns += us * 1e3;
  self["support.json"] = json_ns;
  set_self_shares(out, self, total_ns);

  // Share of Server::handle the named layers account for: the summed
  // children of the composed request roots over the summed handle spans.
  double accounted_ns = 0, handle_ns = 0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (s.parent >= 0) continue;
    if (stats.name(s) == "service.server.request") accounted_ns += static_cast<double>(stats.children_ns(i));
    if (stats.name(s) == "service.server.handle") handle_ns += static_cast<double>(s.end - s.start);
  }
  out.set("trace.handle_accounted_pct", handle_ns > 0 ? 100.0 * accounted_ns / handle_ns : 0);
  out.set("trace.requests", static_cast<double>(frames.size()));
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
  remove_tree("handle.store");
}

void trace_dse(const RunOptions& options, Result& result, LayerMetrics& out) {
  const std::vector<DseSpace> spaces = dse_spaces(options.seed);
  srra::dse::ExploreOptions explore_options;
  explore_options.jobs = 4;
  Tracer tracer;
  tracer.enabled = true;
  double generated = 0, pruned = 0, evaluated_points = 0;
  const std::int64_t start = now_ns();
  std::int64_t i = 0;
  for (; i == 0 || now_ns() - start < static_cast<std::int64_t>(options.seconds * 1e9); ++i) {
    const DseSpace& space = spaces[static_cast<std::size_t>(i) % spaces.size()];
    tracer.request = i;
    auto root = tracer.span("dse.sweep");
    std::unique_ptr<srra::dse::ExploreResult> guided, exhaustive;
    {
      auto s = tracer.span("dse.explore_guided");
      guided = std::make_unique<srra::dse::ExploreResult>(
          srra::dse::explore_guided(space.axes(), explore_options));
    }
    {
      auto s = tracer.span("dse.exhaustive");
      exhaustive = std::make_unique<srra::dse::ExploreResult>(
          srra::dse::explore(srra::dse::enumerate_space(space.axes()), explore_options));
    }
    ++result.attempted;
    {
      auto s = tracer.span("dse.pareto");
      for (const std::string& kernel : srra::dse::kernel_names(*guided)) {
        const srra::dse::Frontier g = srra::dse::registers_vs_cycles(*guided, kernel);
        const srra::dse::Frontier e = srra::dse::registers_vs_cycles(*exhaustive, kernel);
        // Pruning must not change the frontier's coordinates.
        bool same = g.points.size() == e.points.size();
        for (std::size_t p = 0; same && p < g.points.size(); ++p) {
          const auto& a = guided->results[static_cast<std::size_t>(g.points[p])].design;
          const auto& b = exhaustive->results[static_cast<std::size_t>(e.points[p])].design;
          same = a.allocation.total() == b.allocation.total() &&
                 a.cycles.exec_cycles == b.cycles.exec_cycles;
        }
        if (!same) {
          ++result.failed;
          result.fail_check(srra::cat("guided frontier differs from exhaustive for ", kernel,
                                      " (tiles ", space.tiles, ", unroll ", space.unroll, ")"));
        }
        srra::dse::slices_vs_time(*guided, kernel);
      }
      srra::dse::best_per_budget(*guided);
    }
    {
      auto s = tracer.span("dse.report");
      std::ostringstream report;
      srra::dse::write_pareto_report(report, *guided, srra::dse::Format::kText);
    }
    const srra::dse::SpaceStats& st = guided->space.stats;
    generated += static_cast<double>(st.variants_generated);
    pruned += static_cast<double>(st.variants_pruned);
    evaluated_points += static_cast<double>(guided->results.size());
  }
  const double sweeps = static_cast<double>(i);
  const SpanStats stats(tracer);
  out.set("dse.explore_guided_ms", stats.p50_us("dse.explore_guided") / 1e3);
  out.set("dse.exhaustive_ms", stats.p50_us("dse.exhaustive") / 1e3);
  out.set("dse.pareto_ms", stats.p50_us("dse.pareto") / 1e3);
  out.set("dse.report_ms", stats.p50_us("dse.report") / 1e3);
  out.set("dse.candidates_generated", generated / sweeps);
  out.set("dse.candidates_pruned", pruned / sweeps);
  out.set("dse.prune_ratio", generated > 0 ? pruned / generated : 0);
  out.set("dse.points_evaluated", evaluated_points / sweeps);
  double total_ns = 0;
  const std::map<std::string, double> self = stats.layer_self_ns("dse.sweep", total_ns);
  set_self_shares(out, self, total_ns);
  out.set("trace.requests", sweeps);
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
}

}  // namespace

Result run_trace(const RunOptions& options) {
  Result result;
  LayerMetrics layers = layer_metric_table();
  if (options.workload == Workload::kDseSweep) {
    trace_dse(options, result, layers);
  } else {
    trace_service(options, result, layers);
  }
  result.metrics = std::move(layers.metrics);
  return result;
}

}  // namespace perfbench
