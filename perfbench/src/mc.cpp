// mc_paper and mc_engines: the Monte-Carlo workloads.
//
// mc_paper is the paper's own experiment on the user path: cold
// CampaignRunner sweeps through campaign::standard_evaluator() at
// N = 200,000 on a pool of nproc threads, with an on-disk cache and
// journal in a fresh directory per sweep.  mc_engines drives the engines
// and failure laws that evaluator cannot reach, each group sized to a
// similar share of the wall time.
#include <algorithm>
#include <cstdio>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/simulate.hpp"
#include "congestion/shared_pfs.hpp"
#include "core/restart_on_failure.hpp"
#include "core/two_level.hpp"
#include "failures/exponential_source.hpp"
#include "failures/renewal_source.hpp"
#include "failures/trace_source.hpp"
#include "model/multilevel.hpp"
#include "model/overhead.hpp"
#include "model/periods.hpp"
#include "model/units.hpp"
#include "prng/distributions.hpp"
#include "prng/xoshiro.hpp"
#include "traces/scaling.hpp"
#include "traces/synthetic.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace repcheck;

namespace {

// ---------------------------------------------------------------- mc_paper

struct PaperShape {
  std::int64_t procs = 200000;
  std::int64_t periods = 100;
  std::int64_t runs = 192;
  std::int64_t shard_size = 48;  ///< a few large shards per point
};

PaperShape paper_shape(const Options& options) {
  PaperShape shape;
  if (options.smoke) {
    shape.procs = 2000;
    shape.periods = 10;
    shape.runs = 8;
    shape.shard_size = 4;
  }
  return shape;
}

/// Restart, no-restart and no-replication at {0.25, 1, 3} x their period
/// (T_opt^rs for the replicated strategies, Young/Daly for
/// no-replication), C in {60, 600} s, mu in {2, 5, 10} y.  The seed is
/// the campaign's master seed, so it changes every failure stream but not
/// the amount of work.
campaign::SweepSpec paper_spec(const PaperShape& shape) {
  campaign::SweepSpec spec;
  spec.name = "mc_paper";
  spec.base = {{"procs", shape.procs},
               {"periods", shape.periods},
               {"runs", shape.runs},
               {"period_rule", std::string("fixed")}};
  const auto n = static_cast<std::uint64_t>(shape.procs);
  std::vector<campaign::SweepPoint> points;  // one overlay set: no grid axes
  for (const double mtbf_years : {2.0, 5.0, 10.0}) {
    const double mu = model::years(mtbf_years);
    for (const double c : {60.0, 600.0}) {
      for (const char* strategy : {"restart", "no-restart", "no-replication"}) {
        const bool replicated = std::string(strategy) != "no-replication";
        const double t = replicated ? model::t_opt_rs(c, n / 2, mu)
                                    : model::young_daly_period_parallel(c, mu, n);
        for (const double mult : {0.25, 1.0, 3.0}) {
          // No-replication at 3x Young/Daly with C = 600 s and mu = 2 y
          // needs thousands of attempts per period: a stall, not a sample.
          if (!replicated && mult > 1.0 && c > 100.0 && mtbf_years < 3.0) continue;
          campaign::SweepPoint point;
          point.set("mtbf_years", mtbf_years);
          point.set("c", c);
          point.set("strategy", std::string(strategy));
          point.set("period", mult * t);
          point.set("mult", mult);
          points.push_back(std::move(point));
        }
      }
    }
  }
  spec.overlays.push_back(std::move(points));
  return spec;
}

struct SweepRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;        ///< CPU time of this process over the sweep
  double ref_rate = 0.0;     ///< replicates per reference CPU-second
  double setup_s = 0.0;      ///< sweep start -> first evaluator call
  double plan_s = 0.0;       ///< run() entry -> first evaluator call
  double evaluator_s = 0.0;  ///< sum of thread CPU time inside simulate (traced)
  std::uint64_t replicates = 0;
  std::uint64_t hash = 0;
  std::uint64_t stalled = 0;
  double draws = 0.0;
  campaign::CampaignResult result;
};

enum class SweepMode {
  kPlain,
  kTimed,      ///< a thread-CPU timer around every evaluator call
  kSetupOnly,  ///< drained at the first evaluator call: only set-up is wanted
};

SweepRun run_sweep(const campaign::SweepSpec& spec, const PaperShape& shape,
                   const fs::path& dir, util::ThreadPool* pool, std::uint64_t seed,
                   SweepMode mode, bool on_disk = true) {
  SweepRun out;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  if (on_disk) fs::create_directories(dir);
  const bool timed = mode == SweepMode::kTimed;
  std::atomic<bool> started{false}, stop{false};
  Clock::time_point first_call{};
  std::atomic<std::uint64_t> busy_ns{0};
  const auto base = campaign::standard_evaluator();
  campaign::PointEvaluator evaluator;
  evaluator.runs_for = base.runs_for;
  // CPU time, not wall time: the calling thread helps the pool, so more
  // threads than cores can be inside simulate at once.
  evaluator.simulate = [&](const campaign::SweepPoint& point, std::uint64_t begin,
                           std::uint64_t end, std::uint64_t point_seed) {
    if (!started.exchange(true)) {
      first_call = Clock::now();
      if (mode == SweepMode::kSetupOnly) stop = true;
    }
    const double cpu0 = timed ? thread_cpu_seconds() : 0.0;
    auto summary = base.simulate(point, begin, end, point_seed);
    if (timed) {
      busy_ns.fetch_add(static_cast<std::uint64_t>((thread_cpu_seconds() - cpu0) * 1e9));
    }
    return summary;
  };
  campaign::RunnerOptions ro;
  ro.master_seed = seed;
  ro.shard_size = static_cast<std::uint64_t>(shape.shard_size);
  ro.cache_dir = on_disk ? (dir / "cache").string() : std::string();
  ro.journal_path = on_disk ? (dir / "campaign.journal").string() : std::string();
  ro.pool = pool;
  ro.progress = false;
  ro.max_retries = 0;
  ro.stop = &stop;
  campaign::CampaignRunner runner(spec, evaluator, ro);
  const auto t_run = Clock::now();
  out.result = runner.run();
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.setup_s = std::chrono::duration<double>(first_call - t0).count();
  out.plan_s = std::chrono::duration<double>(first_call - t_run).count();
  out.evaluator_s = static_cast<double>(busy_ns.load()) * 1e-9;
  if (mode == SweepMode::kSetupOnly) return out;  // drained points have no summary
  std::uint64_t h = fnv1a("mc_paper");
  for (const auto& p : out.result.points) {
    out.replicates += p.summary.runs + p.summary.stalled_runs;
    out.stalled += p.summary.stalled_runs;
    out.draws += p.summary.failures_seen.sum();
    h = fnv1a(p.key, h);
    h = fnv1a(summary_text(p.summary), h);
  }
  out.hash = h;
  return out;
}

}  // namespace

/// The pool for the mc workloads: the thread that calls parallel_for
/// helps drain it, so nproc - 1 workers keep nproc threads busy without
/// oversubscribing the cores.
std::size_t pool_size() { return std::max(1u, load_threads() - 1); }

void run_mc_paper(const Options& options, Report& report) {
  const auto shape = paper_shape(options);
  const auto spec = paper_spec(shape);
  util::ThreadPool pool(pool_size());
  const fs::path root = fs::path(options.run_dir) / "mc_paper";
  const auto& points = spec.overlays.front();
  const unsigned threads = load_threads();
  Report::note("mc_paper: " + std::to_string(points.size()) + " points x " +
               std::to_string(shape.runs) + " runs at N=" + std::to_string(shape.procs) +
               ", " + std::to_string(threads) + " threads");

  // Untraced sweeps; a traced run alternates them with timed sweeps (a
  // CPU timer around every evaluator call), so host drift hits both alike.
  // A host-speed probe follows every sweep; each sweep's CPU time is
  // scaled by the mean of the probes on either side of it.
  std::vector<double> rates, ref_rates, traced_ref_rates, speeds, setups, busy, plans;
  std::vector<SweepRun> sweeps;
  std::uint64_t attempted = 0, failed = 0, quarantined = 0;
  double draws = 0.0;
  const auto phase0 = Clock::now();
  int index = 0;
  double last_speed = host_speed(threads);
  const auto sweep_once = [&](SweepMode mode) {
    const auto dir = root / ("s" + std::to_string(index++));
    auto sweep = run_sweep(spec, shape, dir, &pool, options.seed, mode);
    const double speed = host_speed(threads);
    speeds.push_back(speed);
    sweep.ref_rate = reference_rate(static_cast<double>(sweep.replicates), sweep.cpu_s,
                                    0.5 * (last_speed + speed));
    last_speed = speed;
    fs::remove_all(dir);
    attempted += sweep.result.points.size();
    failed += sweep.result.stats.failed_points + sweep.result.stats.incomplete_points;
    quarantined += sweep.result.stats.quarantined_records;
    return sweep;
  };
  // Set-up: serial sweeps on fresh directories, each drained at its first
  // evaluator call, ten after every sweep, in reference seconds at the
  // host speed probed after that sweep.  Serial, because a pooled sweep
  // adds a worker's wake-up; spread over the run, because the host's speed
  // drifts within seconds.
  const auto probe_setup = [&] {
    const auto dir = (root / "p") += std::to_string(index++);
    const auto probe = run_sweep(spec, shape, dir, nullptr, options.seed, SweepMode::kSetupOnly);
    setups.push_back(reference_seconds(probe.setup_s, last_speed));
    fs::remove_all(dir);
  };
  do {
    auto sweep = sweep_once(SweepMode::kPlain);
    if (!sweeps.empty()) {  // the first sweep warms the pool's arenas: not timed
      rates.push_back(static_cast<double>(sweep.replicates) / sweep.wall_s);
      ref_rates.push_back(sweep.ref_rate);
    }
    sweeps.push_back(std::move(sweep));
    if (options.trace && sweeps.size() > 1) {
      auto timed = sweep_once(SweepMode::kTimed);
      traced_ref_rates.push_back(timed.ref_rate);
      busy.push_back(timed.evaluator_s / (timed.wall_s * static_cast<double>(threads)));
      plans.push_back(timed.plan_s);
      draws = timed.draws;
      sweeps.push_back(std::move(timed));
    }
    for (int i = 0; i < 10; ++i) probe_setup();
  } while (seconds_since(phase0) < options.seconds || rates.size() < 3);

  // Output checks: every sweep bit-identical; a serial subset matches.
  bool same = true;
  for (const auto& s : sweeps) same = same && s.hash == sweeps.front().hash;
  report.check(same, "mc_paper: " + std::to_string(sweeps.size()) +
                         " pooled sweeps hash identically");
  const auto& ref = sweeps.front().result;
  report.check(ref.ok() && ref.stats.quarantined_records == 0,
               "mc_paper: every point ok, nothing quarantined");
  std::uint64_t stalled = 0;
  for (const auto& s : sweeps) stalled += s.stalled;
  report.check(stalled == 0, "mc_paper: no stalled replicate");
  {
    campaign::SweepSpec subset = spec;
    subset.overlays.front().clear();
    for (std::size_t i = 0; i < points.size(); i += 7) subset.overlays.front().push_back(points[i]);
    const auto serial = run_sweep(subset, shape, {}, nullptr, options.seed, SweepMode::kPlain, false);
    bool match = serial.result.ok();
    for (const auto& p : serial.result.points) {
      const auto* pooled = ref.find(p.point);
      match = match && pooled != nullptr &&
              summary_text(pooled->summary) == summary_text(p.summary);
    }
    attempted += serial.result.points.size();
    report.check(match, "mc_paper: " + std::to_string(subset.overlays.front().size()) +
                            " points match a serial (pool = nullptr) run bit for bit");
  }
  // Restart points: mean overhead within 10% + 4 standard errors of the
  // first-order model (model::overhead_restart); at 3 x T_opt^rs the
  // model itself drifts by several percent.
  {
    std::size_t checked = 0, off = 0;
    double worst = 0.0;  // |sim - model| in units of the allowed distance
    for (const auto& p : ref.points) {
      if (p.point.get_string("strategy") != "restart") continue;
      const double c = p.point.get_double("c");
      const double t = p.point.get_double("period");
      const double mu = model::years(p.point.get_double("mtbf_years"));
      const double predicted =
          model::overhead_restart(c, t, static_cast<std::uint64_t>(shape.procs / 2), mu);
      const double allowed = 0.1 * predicted + 4.0 * p.summary.overhead.sem();
      const double dist = std::abs(campaign::overhead_mean(p.summary) - predicted) / allowed;
      worst = std::max(worst, dist);
      ++checked;
      if (!(dist <= 1.0)) ++off;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "mc_paper: %zu restart points within 10%% + 4 sem of "
                  "model::overhead_restart (worst at %.2f of that)", checked, worst);
    if (!options.smoke) report.check(off == 0, line);
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "mc_paper: %.1f replicates/s, %.1f per reference CPU-second, host speed %.4g/s",
                median(rates), median(ref_rates), median(speeds));
  Report::note(line);

  // The headline is replicates per reference CPU-second (see host_speed).
  // On a shared VM the wall-clock rate of a busy 4-thread pool follows the
  // neighbours' load (the middle half of ten runs spread 17-26% of the
  // median), and the rate per CPU-second of this process moved with it
  // one for one.  Scaled to the host speed measured beside each sweep, ten
  // runs spread about 3%.  The wall rate is replicates_per_s in the
  // traced run, and pool utilisation core.mc_pool_busy_frac.
  report.attempt(attempted, failed);
  const double ref_rate = median(ref_rates);
  if (!options.trace) {
    set_end_to_end(report, median(setups), self_peak_rss_mb(), ref_rate, attempted, failed);
    return;
  }

  report.set("replicates_per_s", median(rates), "1/s");
  report.set("error_ratio", Ratio{static_cast<double>(failed), static_cast<double>(attempted)}.value(),
             "ratio");
  report.set("failures.draws", std::round(draws), "count");
  report.set("core.mc_pool_busy_frac", median(busy), "ratio");
  report.set("core.stalled_runs", static_cast<double>(stalled), "count");
  // The evaluator is the pool's only work here, so the two shares coincide.
  report.set("campaign.evaluator_frac", median(busy), "ratio");
  report.set("campaign.plan_s", median(plans), "s");
  report.set("campaign.quarantined", static_cast<double>(quarantined), "count");
  report.set("trace.overhead_frac", trace_overhead(ref_rate, median(traced_ref_rates)), "ratio");
}

// -------------------------------------------------------------- mc_engines

namespace {

struct EngineShape {
  std::uint64_t paper_n = 200000;  ///< two-level, restart-on-failure, trace
  std::uint64_t pfs_app_n = 50000;  ///< per application, 4 applications
  std::uint64_t renewal_n = 20000;
  double work_periods = 20.0;       ///< fixed-work engines: work = periods x T
  std::uint64_t periods = 50;       ///< periodic engine groups
  // Replicates per round, sized for similar wall shares per group.
  std::uint64_t two_level_runs = 2816;
  std::uint64_t rof_runs = 7488;
  std::uint64_t pfs_runs = 2240;
  std::uint64_t renewal_runs = 160;
  std::uint64_t trace_runs = 1280;
};

EngineShape engine_shape(const Options& options) {
  EngineShape shape;
  if (options.smoke) {
    shape.paper_n = 2000;
    shape.pfs_app_n = 500;
    shape.renewal_n = 200;
    shape.two_level_runs = shape.rof_runs = shape.pfs_runs = 8;
    shape.renewal_runs = shape.trace_runs = 8;
    shape.periods = 10;
    shape.work_periods = 5.0;
  }
  return shape;
}

constexpr double kMuYears = 5.0;
constexpr double kC = 60.0;

/// One group's round: replicates run and an order-independent-of-schedule
/// hash of what they produced.
struct GroupRound {
  double seconds = 0.0;
  std::uint64_t replicates = 0;
  std::uint64_t hash = 0;
  double mean_overhead = 0.0;
  std::uint64_t stalled = 0;
  double draws = 0.0;
};

class EngineGroups {
 public:
  /// Builds every group's configuration, the LANL#2-like trace schedule
  /// and one source of each kind: the workload's set-up.
  EngineGroups(const EngineShape& shape, std::uint64_t seed, util::ThreadPool* pool)
      : shape_(shape),
        seed_(seed),
        pool_(pool),
        mu_(model::years(kMuYears)),
        t_paper_(model::t_opt_rs(kC, shape.paper_n / 2, mu_)),
        weibull_(0.7, mu_ / std::tgamma(1.0 + 1.0 / 0.7)),
        two_level_(platform::Platform::fully_replicated(shape.paper_n),
                   model::TwoLevelCosts{kC, 600.0, 600.0, 0.0}, t_paper_, 4),
        pfs_(pfs_apps(shape, seed, mu_)) {
    fixed_work_.mode = sim::RunSpec::Mode::kFixedWork;
    fixed_work_.total_work_time = shape.work_periods * t_paper_;

    rof_.platform = platform::Platform::fully_replicated(shape.paper_n);
    rof_.cost = platform::CostModel::uniform(kC, 1.0);
    rof_.strategy = sim::StrategySpec::restart_on_failure();
    rof_.spec = fixed_work_;

    auto trace = traces::make_lanl2_like(seed);
    const auto n_groups =
        traces::GroupedTraceSchedule::groups_for_target(trace, shape.paper_n, mu_);
    // The schedule needs whole groups, and the platform whole pairs.
    const std::uint64_t trace_n = shape.paper_n / (2 * n_groups) * (2 * n_groups);
    trace_schedule_.emplace(std::move(trace), trace_n, n_groups);
    trace_config_ = periodic_config(trace_n);
    renewal_config_ = periodic_config(shape.renewal_n);

    failures::TraceFailureSource trace_source(*trace_schedule_, seed);
    failures::RenewalFailureSource renewal(shape_.renewal_n, weibull_sampler(), seed);
    failures::ExponentialFailureSource exp_source(shape_.paper_n, mu_, seed);
    sink(trace_source.next().time + renewal.next().time + exp_source.next().time);
  }

  GroupRound two_level() const {
    return per_replicate(shape_.two_level_runs, "two_level", [&](std::uint64_t i) {
      return two_level_run(i);
    });
  }
  GroupRound shared_pfs() const {
    return per_replicate(shape_.pfs_runs, "shared_pfs", [&](std::uint64_t i) {
      return shared_pfs_run(i);
    });
  }
  GroupRound restart_on_failure() const {
    return monte_carlo(rof_, shape_.rof_runs, "restart_on_failure", paper_source());
  }
  GroupRound renewal() const {
    const auto n = shape_.renewal_n;
    auto sampler = weibull_sampler();
    return monte_carlo(renewal_config_, shape_.renewal_runs, "renewal", [n, sampler] {
      return std::unique_ptr<failures::FailureSource>(
          std::make_unique<failures::RenewalFailureSource>(n, sampler));
    });
  }
  GroupRound trace() const {
    const auto* schedule = &*trace_schedule_;
    return monte_carlo(trace_config_, shape_.trace_runs, "trace", [schedule] {
      return std::unique_ptr<failures::FailureSource>(
          std::make_unique<failures::TraceFailureSource>(*schedule));
    });
  }

  /// Median microseconds of one serial run of each non-periodic engine.
  void probe_single_runs(Report& report) const {
    const auto time_runs = [](auto&& run_one) {
      std::vector<double> us;
      for (std::uint64_t i = 0; i < 15; ++i) {
        const auto t0 = Clock::now();
        sink(run_one(i).makespan);
        us.push_back(seconds_since(t0) * 1e6);
      }
      return median(us);
    };
    report.set("core.two_level_run_us", time_runs([&](std::uint64_t i) { return two_level_run(i); }),
               "us");
    report.set("core.shared_pfs_run_us",
               time_runs([&](std::uint64_t i) { return shared_pfs_run(i); }), "us");
    const sim::RestartOnFailureEngine rof(rof_.platform, rof_.cost);
    sim::SimArena arena;
    failures::ExponentialFailureSource source(shape_.paper_n, mu_);
    report.set("core.rof_run_us", time_runs([&](std::uint64_t i) {
                 return rof.run(source, fixed_work_, sim::derive_run_seed(seed_, i), &arena);
               }),
               "us");
  }

  [[nodiscard]] double rof_model_overhead() const {
    return model::overhead_restart_on_failure(kC, shape_.paper_n, mu_);
  }

 private:
  static std::vector<congestion::AppConfig> pfs_apps(const EngineShape& shape, std::uint64_t seed,
                                                     double mu) {
    const double t = model::t_opt_rs(kC, shape.pfs_app_n / 2, mu);
    prng::Xoshiro256pp offsets(seed ^ 0x706673ull);
    std::vector<congestion::AppConfig> apps;
    for (int a = 0; a < 4; ++a) {
      congestion::AppConfig app;
      app.platform = platform::Platform::fully_replicated(shape.pfs_app_n);
      app.cost = platform::CostModel::uniform(kC, 1.0);
      app.strategy = sim::StrategySpec::restart(t);
      app.total_work_time = shape.work_periods * t;
      // Staggered arrivals (see congestion::AppConfig::initial_offset).
      app.initial_offset = (0.05 + 0.95 * offsets.uniform01()) * t;
      apps.push_back(app);
    }
    return apps;
  }

  [[nodiscard]] failures::InterArrivalSampler weibull_sampler() const {
    return [law = weibull_](prng::Xoshiro256pp& rng) { return law(rng); };
  }

  [[nodiscard]] sim::SourceFactory paper_source() const {
    return [n = shape_.paper_n, mu = mu_] {
      return std::unique_ptr<failures::FailureSource>(
          std::make_unique<failures::ExponentialFailureSource>(n, mu));
    };
  }

  sim::SimConfig periodic_config(std::uint64_t n) const {
    sim::SimConfig config;
    config.platform = platform::Platform::fully_replicated(n);
    config.cost = platform::CostModel::uniform(kC, 1.0);
    config.strategy = sim::StrategySpec::restart(model::t_opt_rs(kC, n / 2, mu_));
    config.spec.mode = sim::RunSpec::Mode::kFixedPeriods;
    config.spec.n_periods = shape_.periods;
    return config;
  }

  sim::RunResult two_level_run(std::uint64_t i) const {
    failures::ExponentialFailureSource source(shape_.paper_n, mu_);
    return two_level_.run(source, fixed_work_, sim::derive_run_seed(seed_, i));
  }

  /// One shared-PFS fleet run, folded into one record for the hash.
  sim::RunResult shared_pfs_run(std::uint64_t i) const {
    const congestion::AppSourceFactory factory = [n = shape_.pfs_app_n, mu = mu_](std::size_t) {
      return std::unique_ptr<failures::FailureSource>(
          std::make_unique<failures::ExponentialFailureSource>(n, mu));
    };
    const auto fleet = pfs_.run(factory, sim::derive_run_seed(seed_, i));
    sim::RunResult merged;
    for (const auto& app : fleet.apps) {
      merged.makespan += app.run.makespan;
      merged.useful_time += app.run.useful_time;
      merged.n_failures += app.run.n_failures;
      merged.n_fatal += app.run.n_fatal;
      merged.n_checkpoints += app.run.n_checkpoints;
      merged.time_checkpointing += app.run.time_checkpointing;
      merged.progress_stalled = merged.progress_stalled || app.run.progress_stalled;
    }
    return merged;
  }

  GroupRound monte_carlo(const sim::SimConfig& config, std::uint64_t runs, const char* name,
                         const sim::SourceFactory& factory) const {
    GroupRound round;
    const auto t0 = Clock::now();
    const auto summary = sim::run_monte_carlo(config, factory, runs, seed_, pool_);
    round.seconds = seconds_since(t0);
    round.replicates = runs;
    round.hash = fnv1a(summary_text(summary), fnv1a(name));
    round.mean_overhead = summary.overhead.count() > 0 ? summary.overhead.mean() : NAN;
    round.stalled = summary.stalled_runs;
    round.draws = summary.failures_seen.sum();
    return round;
  }

  template <typename RunOne>
  GroupRound per_replicate(std::uint64_t runs, const char* name, RunOne&& run_one) const {
    GroupRound round;
    std::vector<sim::RunResult> results(runs);
    const auto t0 = Clock::now();
    pool_->parallel_for(runs, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) results[i] = run_one(i);
    });
    round.seconds = seconds_since(t0);
    round.replicates = runs;
    std::uint64_t h = fnv1a(name);
    double overhead = 0.0;
    for (const auto& r : results) {
      h = hash_run(r, h);
      overhead += r.overhead();
      round.stalled += r.progress_stalled ? 1 : 0;
      round.draws += static_cast<double>(r.n_failures);
    }
    round.hash = h;
    round.mean_overhead = overhead / static_cast<double>(runs);
    return round;
  }

  EngineShape shape_;
  std::uint64_t seed_;
  util::ThreadPool* pool_;
  double mu_;
  double t_paper_;
  prng::WeibullSampler weibull_;
  sim::TwoLevelEngine two_level_;
  congestion::SharedPfsSimulator pfs_;
  sim::RunSpec fixed_work_;
  sim::SimConfig rof_, renewal_config_, trace_config_;
  std::optional<traces::GroupedTraceSchedule> trace_schedule_;
};

constexpr const char* kGroupNames[] = {"two_level", "restart_on_failure", "shared_pfs",
                                       "renewal", "trace"};
constexpr std::size_t kGroups = 5;

std::array<GroupRound, kGroups> run_round(const EngineGroups& groups) {
  return {groups.two_level(), groups.restart_on_failure(), groups.shared_pfs(),
          groups.renewal(), groups.trace()};
}

}  // namespace

void run_mc_engines(const Options& options, Report& report) {
  const auto shape = engine_shape(options);
  util::ThreadPool pool(pool_size());
  const unsigned threads = load_threads();

  // Set-up: trace generation, scheduling and source construction, several
  // times, in reference seconds at the host speed probed around them; the
  // last instance drives the rounds.
  std::vector<double> setups;
  std::unique_ptr<EngineGroups> groups;
  const double speed0 = host_speed(threads);
  for (int i = 0; i < 51; ++i) {
    const auto t0 = Clock::now();
    groups = std::make_unique<EngineGroups>(shape, options.seed, &pool);
    setups.push_back(seconds_since(t0));
  }
  double last_speed = host_speed(threads);
  for (auto& s : setups) s = reference_seconds(s, 0.5 * (speed0 + last_speed));

  // A traced run alternates untraced and traced rounds.  Both run the same
  // code (the per-group timers run in every round), so trace.overhead_frac
  // here shows what host drift remains after alternating.  As on
  // mc_paper, a host-speed probe follows every round.
  std::vector<std::array<GroupRound, kGroups>> rounds;
  std::vector<double> rates, ref_rates, busy, traced_ref_rates, speeds;
  std::array<std::vector<double>, kGroups> group_rates;
  double draws = 0.0;
  const auto timed_round = [&] {
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    rounds.push_back(run_round(*groups));
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_seconds() - cpu0;
    std::uint64_t replicates = 0;
    draws = 0.0;
    for (std::size_t g = 0; g < kGroups; ++g) {
      const auto& group = rounds.back()[g];
      replicates += group.replicates;
      draws += group.draws;
      if (rounds.size() > 1) {
        group_rates[g].push_back(static_cast<double>(group.replicates) / group.seconds);
      }
    }
    busy.push_back(cpu / (wall * static_cast<double>(threads)));
    const double speed = host_speed(threads);
    speeds.push_back(speed);
    const double around = 0.5 * (last_speed + speed);
    last_speed = speed;
    return std::pair{static_cast<double>(replicates) / wall,
                     reference_rate(static_cast<double>(replicates), cpu, around)};
  };
  const auto phase0 = Clock::now();
  timed_round();  // warms the pool's arenas: not timed
  busy.clear();
  do {
    const auto [rate, ref_rate] = timed_round();
    rates.push_back(rate);
    ref_rates.push_back(ref_rate);
    if (options.trace) traced_ref_rates.push_back(timed_round().second);
  } while (seconds_since(phase0) < options.seconds || rates.size() < 3);

  std::uint64_t attempted = 0, failed = 0, stalled = 0;
  bool same = true;
  for (const auto& round : rounds) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      attempted += round[g].replicates;
      stalled += round[g].stalled;
      same = same && round[g].hash == rounds.front()[g].hash;
    }
  }
  failed = stalled;
  report.check(same, "mc_engines: " + std::to_string(rounds.size()) +
                         " rounds of 5 groups hash identically");
  report.check(stalled == 0, "mc_engines: no stalled replicate");
  bool finite = true;
  for (const auto& g : rounds.front()) finite = finite && std::isfinite(g.mean_overhead);
  report.check(finite, "mc_engines: every group reports a finite mean overhead");
  {
    const double sim = rounds.front()[1].mean_overhead;
    const double predicted = groups->rof_model_overhead();
    const double rel = std::abs(sim / predicted - 1.0);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "mc_engines: restart-on-failure overhead %.4g within 25%% of "
                  "model::overhead_restart_on_failure %.4g", sim, predicted);
    if (!options.smoke) report.check(rel <= 0.25, line);
  }
  std::string shares = "mc_engines: wall share per group";
  for (std::size_t g = 0; g < kGroups; ++g) {
    double s = 0.0, total = 0.0;
    for (const auto& round : rounds) {
      s += round[g].seconds;
      for (const auto& x : round) total += x.seconds;
    }
    char part[64];
    std::snprintf(part, sizeof(part), " %s=%.2f", kGroupNames[g], s / total);
    shares += part;
  }
  Report::note(shares);
  char line[160];
  std::snprintf(line, sizeof(line),
                "mc_engines: %.1f replicates/s, %.1f per reference CPU-second, host speed %.4g/s",
                median(rates), median(ref_rates), median(speeds));
  Report::note(line);

  // The headline is replicates per reference CPU-second, as on mc_paper:
  // on a shared VM the wall-clock rate swings with the neighbours' load
  // (23k to 30k replicates/s across one set of ten runs), and the rate
  // per CPU-second follows the host's speed.  Pool utilisation is
  // core.mc_pool_busy_frac in the traced run.
  report.attempt(attempted, failed);
  const double ref_rate = median(ref_rates);
  if (!options.trace) {
    set_end_to_end(report, median(setups), self_peak_rss_mb(), ref_rate, attempted, failed);
    return;
  }
  report.set("replicates_per_s", median(rates), "1/s");
  report.set("error_ratio", Ratio{static_cast<double>(failed), static_cast<double>(attempted)}.value(),
             "ratio");
  for (std::size_t g = 0; g < kGroups; ++g) {
    report.set(std::string(kGroupNames[g]) + "_rps", median(group_rates[g]), "1/s");
  }
  report.set("failures.draws", std::round(draws), "count");
  report.set("core.mc_pool_busy_frac", median(busy), "ratio");
  report.set("core.stalled_runs", static_cast<double>(stalled), "count");
  report.set("trace.overhead_frac", trace_overhead(ref_rate, median(traced_ref_rates)), "ratio");
}

void probe_engine_runs(const Options& options, Report& report) {
  EngineGroups(engine_shape(options), options.seed, nullptr).probe_single_runs(report);
}

}  // namespace perfbench
