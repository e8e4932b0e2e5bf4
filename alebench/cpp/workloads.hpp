// The benchmark's workloads. Each builds its structure, loads it through
// the library's public calls under the installed policy, measures, checks
// the outputs, and returns an Outcome.
#pragma once

#include <string>

#include "bench.hpp"

namespace alebench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  unsigned threads = 1;
  /// Interleave traced and untraced segments and record spans.
  bool traced = false;
  /// Trace every segment (a layer probe inside another workload's traced
  /// run); implies traced.
  bool trace_all = false;
  std::string trace_file;  // where spans are written; empty = nowhere
  bool append_spans = false;
};

/// hashmap_read (writes = false) and hashmap_write (writes = true).
Outcome run_hashmap(const RunConfig& cfg, bool writes);

struct SvcShape {
  std::uint64_t keys = 1u << 20;
  double rate_per_s = 500000;  // the fixed-rate phase's offered load
};

/// The KvService workload: a saturated phase, then a fixed-rate phase,
/// each cfg.seconds / 2 long.
Outcome run_svc(const RunConfig& cfg, const SvcShape& shape);

}  // namespace alebench
