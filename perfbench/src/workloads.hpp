// The four perfbench workloads and the per-layer probes of traced runs.
//
// Every workload measures for Options::seconds, checks its outputs, and
// sets the end-to-end metrics (untraced runs) or its share of the
// per-layer metrics (traced runs).  See perfbench/README.md for why each
// workload exists and which layer metric should move which end-to-end one.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Cold CampaignRunner sweeps at paper scale (N = 200,000).
void run_mc_paper(const Options& options, Report& report);
/// The engines and failure laws the campaign evaluator cannot reach.
void run_mc_engines(const Options& options, Report& report);
/// repcheck_fleet --workers 3 over many tiny shards, cold then warm.
void run_fleet_fine_shards(const Options& options, Report& report);
/// Open-loop request ladder against repcheck_advisord.
void run_advisord_mix(const Options& options, Report& report);

/// Per-layer probes shared by every traced run: each times one layer's
/// public functions on generated inputs of the workloads' shapes.
void run_layer_probes(const Options& options, Report& report);
/// Per-run times of the non-periodic engines on mc_engines' configs.
void probe_engine_runs(const Options& options, Report& report);

/// Sets every end-to-end metric.  `work_per_s` is the workload's headline
/// rate; ok_ratio is 1 - failed / attempted (base: operations attempted).
void set_end_to_end(Report& report, double setup_s, double peak_rss_mb, double work_per_s,
                    std::uint64_t attempted, std::uint64_t failed);

/// 1 - traced / untraced headline rate: the cost of the traced run's
/// wrappers (may read slightly negative from noise).
[[nodiscard]] double trace_overhead(double untraced_rate, double traced_rate);

}  // namespace perfbench
