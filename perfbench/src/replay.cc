#include "replay.h"

#include <algorithm>
#include <cctype>
#include <fstream>

#include "analysis/model.h"
#include "core/frontier.h"
#include "driver/pipeline.h"
#include "dse/space.h"
#include "ir/parser.h"
#include "kernels/kernels.h"
#include "service/server.h"
#include "support/error.h"
#include "support/str.h"
#include "util.h"

namespace perfbench {

using srra::service::Request;

// ------------------------------------------------------------------ Tracer

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end = now_ns();
  tracer_->open_.pop_back();
}

Tracer::Scope Tracer::span(const std::string& name) {
  if (!enabled) return Scope(this, -1);
  auto [it, inserted] = ids_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  Span s;
  s.name = it->second;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  s.start = now_ns();
  spans_.push_back(s);
  return Scope(this, index);
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# request parent start_ns end_ns name\n";
  for (const Span& s : spans_) {
    out << s.request << ' ' << s.parent << ' ' << s.start << ' ' << s.end << ' '
        << names_[static_cast<std::size_t>(s.name)] << '\n';
  }
}

// ---------------------------------------------------------------- Replayer

namespace {

// srrad's builtin-name spelling rules: lower-case, '-' folded to '_',
// "mmt" aliased to "mat".
std::string canon_name(const std::string& name) {
  std::string key;
  for (const char c : name) {
    key += c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return key == "mmt" ? "mat" : key;
}

std::string algo_tag(srra::Algorithm algorithm) {
  switch (algorithm) {
    case srra::Algorithm::kFrRa: return "fr";
    case srra::Algorithm::kPrRa: return "pr";
    case srra::Algorithm::kCpaRa: return "cpa";
    case srra::Algorithm::kKnapsack: return "ks";
    case srra::Algorithm::kLinearScan: return "ls";
    case srra::Algorithm::kOptimalDp: return "dp";
    case srra::Algorithm::kBnbOptimal: return "bb";
    case srra::Algorithm::kFeasibility: return "feasibility";
  }
  return "other";
}

}  // namespace

struct Replayer::Keyed {
  Request request;
  const Variant* variant = nullptr;
  srra::Algorithm algorithm = srra::Algorithm::kCpaRa;
  std::vector<std::int64_t> budgets;
  std::string key;
};

Replayer::Replayer(const DaemonFlags& flags, const std::string& store_dir, Tracer* tracer)
    : tracer_(tracer != nullptr ? tracer : &disabled_),
      store_(std::make_unique<srra::service::ResultStore>(
          store_dir, flags.store_max_entries > 0
                         ? flags.store_max_entries
                         : srra::service::ServerOptions{}.store_max_entries)) {}

Replayer::~Replayer() = default;

const Replayer::Variant& Replayer::resolve(const std::string& kernel_field,
                                           const std::string& transforms) {
  const std::string memo_key = srra::cat(kernel_field, '\x1f', transforms);
  const auto it = variants_.find(memo_key);
  if (it != variants_.end()) return *it->second;

  auto variant = std::make_unique<Variant>();
  srra::Kernel base;
  if (kernel_field.find('{') != std::string::npos) {
    auto s = tracer_->span("ir.parse_kernel");
    base = srra::parse_kernel(kernel_field);
    variant->display_name = base.name();
  } else {
    auto s = tracer_->span("ir.builtin_kernel");
    const std::string key = canon_name(kernel_field);
    bool found = false;
    if (key == "example") {
      base = srra::kernels::paper_example();
      variant->display_name = "example";
      found = true;
    } else {
      for (srra::kernels::NamedKernel& nk : srra::kernels::all_kernels()) {
        if (canon_name(nk.name) == key) {
          base = std::move(nk.kernel);
          variant->display_name = nk.name;
          found = true;
          break;
        }
      }
    }
    srra::check(found, srra::cat("unknown kernel '", kernel_field, "'"));
  }
  if (!srra::trim(transforms).empty()) {
    auto s = tracer_->span("ir.transform");
    const std::vector<srra::LoopTransform> sequence = srra::parse_transforms(transforms);
    const srra::span<const srra::LoopTransform> view(sequence.data(), sequence.size());
    variant->kernel = srra::transform_for_pipeline(base, view);
    variant->transforms = srra::to_string(view);
  } else {
    variant->kernel = std::move(base);
  }
  {
    auto s = tracer_->span("ir.structural_hash");
    variant->hash = srra::structural_hash(variant->kernel);
  }
  const Variant& ref = *variant;
  variants_.emplace(memo_key, std::move(variant));
  return ref;
}

Replayer::Keyed Replayer::key_request(const std::string& frame) {
  Keyed keyed;
  {
    auto s = tracer_->span("service.proto.parse_request");
    keyed.request = srra::service::parse_request(frame);
  }
  srra::check(keyed.request.op == srra::service::RequestOp::kQuery &&
                  keyed.request.key.empty(),
              "the replay handles resolved queries only");
  keyed.variant = &resolve(keyed.request.kernel, keyed.request.transforms);
  keyed.algorithm = srra::parse_algorithm(keyed.request.algorithm);
  Request canonical = keyed.request;
  canonical.transforms = keyed.variant->transforms;
  canonical.algorithm = srra::algorithm_name(keyed.algorithm);
  if (keyed.request.frontier) {
    keyed.budgets = srra::dse::parse_budget_spec(keyed.request.budgets);
    std::string joined;
    for (const std::int64_t b : keyed.budgets) {
      if (!joined.empty()) joined += ',';
      joined += std::to_string(b);
    }
    canonical.budgets = joined;
  }
  auto s = tracer_->span("service.proto.cache_key");
  keyed.key = srra::service::cache_key(keyed.variant->hash, keyed.variant->display_name,
                                       canonical);
  return keyed;
}

std::string Replayer::compute(const Keyed& keyed) {
  const Variant& variant = *keyed.variant;
  std::unique_ptr<srra::RefModel> model;
  {
    auto s = tracer_->span("analysis.refmodel_build");
    model = std::make_unique<srra::RefModel>(variant.kernel.clone());
  }
  srra::service::QueryReport report;
  {
    auto s = tracer_->span("driver.evaluate");
    report.kernel_name = variant.display_name;
    report.transforms = variant.transforms;
    report.kernel_hash = variant.hash;
    report.algorithm = srra::algorithm_name(keyed.algorithm);
    report.fetch = keyed.request.fetch;
    report.frontier = keyed.request.frontier;
    report.outer_trip = model->kernel().loop(0).trip_count();
    srra::PipelineOptions options;
    options.cycles.concurrent_operand_fetch = keyed.request.fetch;
    const std::string sched_span = "sched.estimate_cycles." + variant.display_name;
    // evaluate_design, one layer call per span.
    const auto evaluate = [&](srra::Allocation allocation,
                              const srra::PipelineOptions& point_options) {
      srra::DesignPoint point;
      point.algorithm = keyed.algorithm;
      point.allocation = std::move(allocation);
      {
        auto v = tracer_->span("core.validate");
        point.allocation.validate(*model);
      }
      {
        auto c = tracer_->span(sched_span);
        point.cycles = srra::estimate_cycles(*model, point.allocation, point_options.cycles);
      }
      {
        auto h = tracer_->span("hw.estimate_hw");
        point.hw = srra::estimate_hw(*model, point.allocation, point_options.device,
                                     point_options.area, point_options.clock);
      }
      return point;
    };
    if (!keyed.request.frontier) {
      report.budget = keyed.request.budget;
      options.budget = keyed.request.budget;
      try {
        srra::Allocation allocation;
        {
          auto a = tracer_->span("core.allocate." + algo_tag(keyed.algorithm));
          allocation = srra::allocate(keyed.algorithm, *model, options.budget);
        }
        report.points.emplace_back(options.budget, evaluate(std::move(allocation), options));
      } catch (const srra::Error& e) {
        report.feasible = false;
        report.error = e.what();
      }
    } else {
      // run_budget_sweep for one algorithm: one frontier, sliced per budget.
      std::int64_t max_budget = -1;
      for (const std::int64_t b : keyed.budgets) {
        if (b >= model->group_count()) max_budget = std::max(max_budget, b);
      }
      if (max_budget >= 0) {
        srra::AllocationFrontier frontier;
        {
          auto f = tracer_->span("core.frontier." + algo_tag(keyed.algorithm));
          frontier = srra::allocate_frontier(keyed.algorithm, *model, max_budget);
        }
        for (const std::int64_t b : keyed.budgets) {
          if (b < model->group_count()) continue;
          srra::PipelineOptions point_options = options;
          point_options.budget = b;
          srra::DesignPoint design = evaluate(frontier.at(b), point_options);
          const std::int64_t budget = design.allocation.budget;
          report.points.emplace_back(budget, std::move(design));
        }
      }
    }
  }
  auto s = tracer_->span("service.proto.query_payload");
  return srra::service::query_payload(report);
}

std::string Replayer::replay(const std::string& frame, const std::string& status) {
  auto root = tracer_->span("service.server.request");
  Keyed keyed;
  try {
    keyed = key_request(frame);
  } catch (const srra::Error& e) {
    return srra::service::make_error_response("", e.what());
  }
  srra::service::ResponseMeta meta;
  meta.key = keyed.key;
  meta.cache_status = status;
  if (status == "hit") {
    const auto it = payloads_.find(keyed.key);
    if (it == payloads_.end()) return "";  // never composed: no answer to compare
    last_payload_ = it->second;
  } else {
    // srrad looked in its store before computing. The replay's store sees
    // the same misses and puts (not srrad's store hits), with unit cost, so
    // its contents approximate srrad's; it exists to time the calls.
    if (store_->enabled()) {
      auto s = tracer_->span("service.store.get");
      store_->get(keyed.key);
    }
    try {
      last_payload_ = compute(keyed);
    } catch (const srra::Error& e) {
      return srra::service::make_error_response("", e.what());
    }
    if (store_->enabled()) {
      auto s = tracer_->span("service.store.put");
      store_->put(keyed.key, last_payload_);
    }
    payloads_[keyed.key] = last_payload_;
  }
  auto s = tracer_->span("service.proto.make_query_response");
  return srra::service::make_query_response(meta, last_payload_);
}

std::string Replayer::expected(const std::string& frame, const std::string& status) {
  const Keyed keyed = key_request(frame);
  srra::service::QueryInput input;
  input.kernel_name = keyed.variant->display_name;
  input.transforms = keyed.variant->transforms;
  input.kernel_hash = keyed.variant->hash;
  input.algorithm = keyed.algorithm;
  input.fetch = keyed.request.fetch;
  input.frontier = keyed.request.frontier;
  input.budget = keyed.request.budget;
  input.budgets = keyed.budgets;
  const srra::RefModel model(keyed.variant->kernel.clone());
  srra::service::ResponseMeta meta;
  meta.key = keyed.key;
  meta.cache_status = status;
  return srra::service::make_query_response(
      meta, srra::service::query_payload(srra::service::evaluate_query(model, input)));
}

}  // namespace perfbench
