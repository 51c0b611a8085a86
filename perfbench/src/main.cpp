// perfbench driver: runs one workload for --seconds, checks its outputs
// and prints one JSON result line last on stdout.  perfbench/run.py builds
// this binary, gives it a fresh run directory and stamps the result.
//
//   perfbench_driver --workload mc_paper --seed 7 --seconds 10 --trace 0
//       --run-dir .bench_build/perfbench/runs/x --bin-dir .bench_build/perfbench/repcheck
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void set_end_to_end(Report& report, double setup_s, double peak_rss_mb, double work_per_s,
                    std::uint64_t attempted, std::uint64_t failed) {
  report.set("setup_s", setup_s, "s");
  report.set("peak_rss_mb", peak_rss_mb, "MB");
  report.set("work_per_s", work_per_s, "1/s");
  const Ratio errors{static_cast<double>(failed), static_cast<double>(attempted)};
  report.set("ok_ratio", 1.0 - errors.value(), "ratio");
}

double trace_overhead(double untraced_rate, double traced_rate) {
  return untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0;
}

namespace {

// Per-layer metrics a workload does not produce read 0 in its traced run.
constexpr const char* kWorkloadLayerMetrics[][2] = {
    {"replicates_per_s", "1/s"},
    {"error_ratio", "ratio"},
    {"two_level_rps", "1/s"},
    {"restart_on_failure_rps", "1/s"},
    {"shared_pfs_rps", "1/s"},
    {"renewal_rps", "1/s"},
    {"trace_rps", "1/s"},
    {"shards_per_s", "1/s"},
    {"warm_rerun_s", "s"},
    {"advise_p50_us", "us"},
    {"advise_p99_us", "us"},
    {"validated_p99_ms", "ms"},
    {"advise_max_qps", "1/s"},
    {"failures.draws", "count"},
    {"core.mc_pool_busy_frac", "ratio"},
    {"core.stalled_runs", "count"},
    {"campaign.evaluator_frac", "ratio"},
    {"campaign.plan_s", "s"},
    {"campaign.cache_load_s", "s"},
    {"campaign.shards_cached_ratio", "ratio"},
    {"campaign.quarantined", "count"},
    {"fleet.leases_granted", "count"},
    {"fleet.shards_requeued", "count"},
    {"fleet.heartbeats", "count"},
    {"fleet.fenced_commits", "count"},
    {"fleet.overhead_per_shard_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.hit_ratio", "ratio"},
    {"serve.batch_mean", "count"},
    {"serve.coalesced", "count"},
    {"serve.shed", "count"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_frac", "ratio"},
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--run-dir") o.run_dir = value;
    else if (flag == "--bin-dir") o.bin_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.run_dir.empty()) throw std::invalid_argument("--run-dir is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse(argc, argv);
    std::filesystem::create_directories(options.run_dir);
    Report report;
    if (options.trace) {
      for (const auto& [name, unit] : kWorkloadLayerMetrics) report.set(name, 0.0, unit);
    }
    if (options.workload == "mc_paper") run_mc_paper(options, report);
    else if (options.workload == "mc_engines") run_mc_engines(options, report);
    else if (options.workload == "fleet_fine_shards") run_fleet_fine_shards(options, report);
    else if (options.workload == "advisord_mix") run_advisord_mix(options, report);
    else throw std::invalid_argument("unknown workload '" + options.workload + "'");
    if (options.trace) run_layer_probes(options, report);
    std::printf("%s\n", report.render_result().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
