// The eviction policy of both srrad cache layers (DESIGN.md §15), stated
// once: the server's in-memory payload cache and the ResultStore's index
// both evict scan_victim's pick. The victim is the entry with the lowest
// cost_score, then the least recently used, then the oldest arrival seq,
// then the smallest key — so a frontier or BB-RA result (~100x the
// recompute cost of one single-budget point) outlives cheap entries of the
// same size. The scan runs only on an insert at capacity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>

namespace srra::service {

/// One cache entry's eviction fields.
struct CostMeta {
  std::int64_t bytes = 0;     ///< stored payload bytes
  std::int64_t cost = 1;      ///< recompute cost estimate, abstract units
  std::int64_t seq = 0;       ///< arrival sequence number
  std::int64_t last_use = 0;  ///< process-local LRU tick (not persisted)
};

/// Estimated recompute cost per stored byte; higher is more worth keeping.
inline double cost_score(std::int64_t cost, std::int64_t bytes) {
  return static_cast<double>(cost) / static_cast<double>(std::max<std::int64_t>(1, bytes));
}

/// The victim in `rows`, a non-empty map from key to CostMeta (or a type
/// derived from it), and whether cost singled it out: true when its score
/// is below the best score in `rows`, false when every score ties and
/// recency or arrival picked it.
template <typename Map>
std::pair<typename Map::const_iterator, bool> scan_victim(const Map& rows) {
  auto victim = rows.begin();
  double max_score = cost_score(victim->second.cost, victim->second.bytes);
  for (auto it = rows.begin(); it != rows.end(); ++it) {
    const CostMeta& e = it->second;
    const CostMeta& v = victim->second;
    const double score = cost_score(e.cost, e.bytes);
    const double victim_score = cost_score(v.cost, v.bytes);
    max_score = std::max(max_score, score);
    if (score < victim_score ||
        (score == victim_score && std::tie(e.last_use, e.seq, it->first) <
                                      std::tie(v.last_use, v.seq, victim->first))) {
      victim = it;
    }
  }
  return {victim, cost_score(victim->second.cost, victim->second.bytes) < max_score};
}

}  // namespace srra::service
