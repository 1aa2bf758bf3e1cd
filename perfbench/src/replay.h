// In-process replay of the layer calls srrad makes for one request, each
// call under a span. The real Server::handle decides every cache outcome;
// the replay takes that outcome from its response and makes only the calls
// that outcome needs:
//
//   service.server.request                     (root)
//    ├ service.proto.parse_request              every request
//    ├ ir.builtin_kernel | ir.parse_kernel      first use of a variant
//    ├ ir.transform, ir.structural_hash
//    ├ service.proto.cache_key                  every request
//    ├ service.store.get                        misses only
//    ├ analysis.refmodel_build                  misses only
//    ├ driver.evaluate
//    │  ├ core.allocate.<algo> | core.frontier.<algo>
//    │  ├ core.validate
//    │  ├ sched.estimate_cycles.<kernel>
//    │  └ hw.estimate_hw
//    ├ service.proto.query_payload
//    ├ service.store.put
//    └ service.proto.make_query_response        every request
//
// driver.evaluate composes service::evaluate_query from the layer calls it
// makes, so each can carry a span; the composed responses are checked byte
// for byte against Server::handle and the real daemon, which proves the
// replay does the same work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/kernel.h"
#include "procs.h"
#include "service/proto.h"
#include "service/store.h"

namespace perfbench {

/// In-memory span recorder: spans are appended while running and written
/// out once at the end. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    int name = 0;        ///< index into names()
    std::int64_t start = 0, end = 0;  ///< now_ns()
    int parent = -1;     ///< index into spans(), -1 = root
    std::int64_t request = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  bool enabled = false;
  std::int64_t request = -1;  ///< request id stamped on new spans

  Scope span(const std::string& name);
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  /// Writes "request parent start_ns end_ns name" lines.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
};

/// The replayed request path (see the file comment).
class Replayer {
 public:
  /// `store_dir` empty = no persistent layer. `tracer` null = untraced.
  Replayer(const DaemonFlags& flags, const std::string& store_dir, Tracer* tracer);
  ~Replayer();

  /// The layer calls srrad made for `frame`, which it answered with cache
  /// status `status` ("hit" or "miss"); returns the composed response. A
  /// hit is served from the payloads this replayer composed earlier.
  std::string replay(const std::string& frame, const std::string& status);
  /// Spans go to `tracer` from now on (null = untraced).
  void set_tracer(Tracer* tracer) { tracer_ = tracer != nullptr ? tracer : &disabled_; }
  /// The payload of the last replayed query (for JSON probes).
  const std::string& last_payload() const { return last_payload_; }
  /// `frame` evaluated from scratch by service::evaluate_query +
  /// query_payload, enveloped with the given cache status: the expected
  /// bytes of any srrad answer with that status.
  std::string expected(const std::string& frame, const std::string& status);

 private:
  struct Variant {
    std::string display_name;
    std::string transforms;
    std::uint64_t hash = 0;
    srra::Kernel kernel;
  };
  struct Keyed;  // parsed + resolved + keyed request

  const Variant& resolve(const std::string& kernel_field, const std::string& transforms);
  Keyed key_request(const std::string& frame);
  std::string compute(const Keyed& keyed);

  Tracer* tracer_;
  Tracer disabled_;
  std::unique_ptr<srra::service::ResultStore> store_;
  /// Memoized for the whole run (srrad trims its memo past 512 variants
  /// and then resolves again; those repeats are not in the ir spans).
  std::unordered_map<std::string, std::unique_ptr<Variant>> variants_;
  std::unordered_map<std::string, std::string> payloads_;  ///< key -> composed payload
  std::string last_payload_;
};

}  // namespace perfbench
