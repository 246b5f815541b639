#include "serve/metrics.h"

#include <cstdio>

namespace osum::serve {

std::string FormatMetricsReport(const Metrics& m) {
  char buf[256];
  std::string out;
  auto append = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  append("queries %llu | hits %llu (%llu negative), misses %llu, "
         "coalesced %llu | entries %llu (~%llu bytes), evictions %llu\n",
         static_cast<unsigned long long>(m.queries),
         static_cast<unsigned long long>(m.cache.hits),
         static_cast<unsigned long long>(m.cache.negative_hits),
         static_cast<unsigned long long>(m.cache.misses),
         static_cast<unsigned long long>(m.cache.coalesced_waits),
         static_cast<unsigned long long>(m.cache.entries),
         static_cast<unsigned long long>(m.cache.approx_bytes),
         static_cast<unsigned long long>(m.cache.evictions));
  append("policy: admission rejects %llu (%llu tracked)\n",
         static_cast<unsigned long long>(m.cache.admission_rejects),
         static_cast<unsigned long long>(m.cache.tracked_sightings));
  append("overload: sheds %llu at admission + %llu at dequeue, "
         "%llu misses pending\n",
         static_cast<unsigned long long>(m.sheds_at_admission),
         static_cast<unsigned long long>(m.sheds_at_dequeue),
         static_cast<unsigned long long>(m.pending_misses));
  append("partials: hits %llu, misses %llu, inserts %llu "
         "(%llu discarded), evictions %llu | entries %llu (~%llu bytes)\n",
         static_cast<unsigned long long>(m.partials.hits),
         static_cast<unsigned long long>(m.partials.misses),
         static_cast<unsigned long long>(m.partials.inserts),
         static_cast<unsigned long long>(m.partials.discarded_inserts),
         static_cast<unsigned long long>(m.partials.evictions),
         static_cast<unsigned long long>(m.partials.entries),
         static_cast<unsigned long long>(m.partials.approx_bytes));
  append("joins: hits %llu, misses %llu (%llu admitted), discarded %llu, "
         "evictions %llu, entries %llu (~%llu bytes)\n",
         static_cast<unsigned long long>(m.joins.hits),
         static_cast<unsigned long long>(m.joins.misses),
         static_cast<unsigned long long>(m.joins.admitted),
         static_cast<unsigned long long>(m.joins.discarded_inserts),
         static_cast<unsigned long long>(m.joins.evictions),
         static_cast<unsigned long long>(m.joins.entries),
         static_cast<unsigned long long>(m.joins.approx_bytes));
  auto line = [&](const char* label, const util::Summary& s) {
    if (s.count() == 0) {
      append("  %-12s (no samples)\n", label);
    } else {
      append("  %-12s p50 %.1f us, p99 %.1f us, max %.1f us\n", label,
             s.Percentile(50.0), s.Percentile(99.0), s.Max());
    }
  };
  line("latency", m.latency_us);
  line("  hits", m.hit_latency_us);
  line("  neg hits", m.negative_hit_latency_us);
  line("  misses", m.miss_latency_us);
  return out;
}

}  // namespace osum::serve
