// alebench: the ALE benchmark binary. Runs one workload and prints, as the
// last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones of a traced run. A failed
// output check prints the failures on stderr and exits 1.
//
//   alebench --workload hashmap_read|hashmap_write|svc --seed N
//            --seconds S --trace 0|1 [--policy SPEC] [--trace-file PATH]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>

#include "htm/config.hpp"
#include "policy/adaptive_policy.hpp"
#include "policy/install.hpp"
#include "probes.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "alebench measures optimized builds only; build it without sanitizers"
#endif

namespace {

using namespace alebench;

int usage(const char* why) {
  std::fprintf(stderr,
               "alebench: %s\nusage: alebench --workload hashmap_read|"
               "hashmap_write|svc --seed N --seconds S --trace 0|1 "
               "[--policy SPEC] [--trace-file PATH]\n",
               why);
  return 2;
}

/// The per-layer metrics every traced run reports.
const char* const kPerLayer[] = {
    "policy.converge_execs", "policy.relearns",
    "core.elide_ns", "core.attempts_per_exec", "core.lock_exec_share",
    "core.lock_wait_ns", "core.swopt_fails_per_kexec",
    "htm.commit_ratio", "htm.conflict_aborts_per_kexec",
    "htm.capacity_aborts_per_kexec", "htm.locked_aborts_per_kexec",
    "htm.tx_read_ns", "htm.tx_write_ns", "htm.tx_write_ns_all_threads",
    "sync.lock_ns", "sync.parks_per_kop",
    "stats.exec_count_error",
    "hashmap.get_ns", "hashmap.insert_ns", "hashmap.remove_ns",
    "kvdb.get_ns", "kvdb.set_ns", "kvdb.scan_ns",
    "svc.enqueue_ns", "svc.drain_ns_per_req", "svc.batch_ops_mean",
    "svc.latency_p99_us", "svc.latency_p999_us", "svc.generator_lag_us",
    "trace.overhead"};

const char* const kEndToEnd[] = {"throughput_ops_s", "latency_p50_us",
                                 "setup_s", "loaded_rss_mb"};

bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

/// Fills the per-layer metrics `m` lacks that start with one of `prefixes`
/// from `probe`, and folds the probe's counts and checks into `out`.
void take_from(Outcome& out, Outcome&& probe,
               std::initializer_list<const char*> prefixes) {
  for (auto& [name, metric] : probe.per_layer) {
    for (const char* p : prefixes) {
      if (starts_with(name, p) && out.per_layer.count(name) == 0) {
        out.per_layer[name] = metric;
      }
    }
  }
  out.attempted += probe.attempted;
  out.failed += probe.failed;
  for (auto& f : probe.check_failures) out.check_failures.push_back("probe: " + f);
}

void print_result(const Outcome& out, bool traced, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const Metrics& m = traced ? out.per_layer : out.end_to_end;
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  process_clock();  // set-up time is measured from here

  std::string workload, policy = "adaptive", trace_file;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") { seed = std::strtoull(v, nullptr, 10); have_seed = true; }
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--policy") policy = v;
    else if (a == "--trace-file") trace_file = v;
    else return usage(("unknown flag " + a).c_str());
  }
  const bool hashmap = workload == "hashmap_read" || workload == "hashmap_write";
  if (!hashmap && workload != "svc") return usage("unknown workload");
  if (!have_seed || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  if (policy == "adaptive") {
    auto p = std::make_unique<ale::AdaptivePolicy>();
    set_adaptive_policy(p.get());
    ale::set_global_policy(std::move(p));
  } else if (auto p = ale::make_policy(policy)) {
    ale::set_global_policy(std::move(p));
  } else {
    return usage("unknown policy");
  }

  RunConfig cfg;
  cfg.seed = seed;
  cfg.seconds = seconds;
  cfg.threads = online_workers();
  cfg.traced = trace == 1;
  cfg.trace_file = trace_file;
  std::printf("# run: workers=%u policy=%s htm-backend=%s htm-profile=%s "
              "build=%s\n",
              cfg.threads, ale::global_policy().name(),
              ale::htm::to_string(ale::htm::config().backend),
              ale::htm::config().profile.name, ALEBENCH_BUILD_TYPE);

  Outcome out = hashmap ? run_hashmap(cfg, workload == "hashmap_write")
                        : run_svc(cfg, SvcShape{});

  if (cfg.traced) {
    progress("layer probes");
    const MicroProbes p = run_micro_probes(cfg.threads);
    out.per_layer["core.elide_ns"] = {p.elide_ns, "ns"};
    out.per_layer["sync.lock_ns"] = {p.lock_ns, "ns"};
    out.per_layer["htm.tx_read_ns"] = {p.tx_read_ns, "ns"};
    out.per_layer["htm.tx_write_ns"] = {p.tx_write_ns, "ns"};
    out.per_layer["htm.tx_write_ns_all_threads"] = {p.tx_write_ns_all_threads,
                                                    "ns"};
    // Layers this workload does not exercise are measured by a short,
    // fully traced run of the workload that does.
    RunConfig probe = cfg;
    probe.traced = false;
    probe.trace_all = true;
    probe.append_spans = true;
    if (out.per_layer.count("hashmap.insert_ns") == 0 ||
        out.per_layer.count("hashmap.get_ns") == 0) {
      probe.seconds = 0.5;
      take_from(out, run_hashmap(probe, true), {"hashmap."});
    }
    if (out.per_layer.count("svc.enqueue_ns") == 0) {
      probe.seconds = 1.0;
      take_from(out, run_svc(probe, SvcShape{.keys = 1u << 16}),
                {"svc.", "kvdb."});
    }
  }

  // Every metric must be present and finite; only the listed ones print.
  Metrics& m = cfg.traced ? out.per_layer : out.end_to_end;
  std::set<std::string> expected;
  if (cfg.traced) {
    for (const char* name : kPerLayer) expected.insert(name);
  } else {
    for (const char* name : kEndToEnd) expected.insert(name);
  }
  for (const std::string& name : expected) {
    const auto it = m.find(name);
    out.check(it != m.end() && std::isfinite(it->second.value),
              "metric " + name + " missing or not finite");
  }
  for (auto it = m.begin(); it != m.end();) {
    it = expected.count(it->first) != 0 && std::isfinite(it->second.value)
             ? std::next(it)
             : m.erase(it);
  }

  progress("done");
  const bool correct = out.check_failures.empty();
  for (const std::string& f : out.check_failures) {
    std::fprintf(stderr, "alebench: check failed: %s\n", f.c_str());
  }
  std::fflush(stderr);
  print_result(out, cfg.traced, correct);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
