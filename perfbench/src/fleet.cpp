// fleet_fine_shards: repcheck_fleet --workers 3 over many tiny shards.
//
// Simulation is negligible here (N = 200, 20 periods, 5 replicates per
// shard), so per-shard lease, wire and commit cost and the cache/journal
// appends dominate: the reverse of mc_paper.  Each iteration runs a cold
// sweep into a fresh directory, then a warm rerun of the same spec on the
// filled stores, which reads them instead of writing them.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/simulate.hpp"
#include "fleet/wire.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace repcheck;

namespace {

constexpr int kWorkers = 3;

struct FleetShape {
  std::vector<std::int64_t> c = {60, 120, 240, 480};
  std::vector<std::int64_t> mtbf_years = {1, 2, 5, 10, 20};
  std::int64_t procs = 200;
  std::int64_t runs = 640;
  std::int64_t periods = 20;
  std::int64_t shard_size = 5;

  [[nodiscard]] std::uint64_t points() const { return c.size() * mtbf_years.size(); }
  [[nodiscard]] std::uint64_t shards() const {
    return points() * static_cast<std::uint64_t>(runs / shard_size);
  }
  /// The repcheck_fleet --grid and --set arguments.
  [[nodiscard]] std::string grid() const { return "c=" + join(c) + ";mtbf_years=" + join(mtbf_years); }
  [[nodiscard]] std::string set() const {
    return "procs=" + std::to_string(procs) + ";runs=" + std::to_string(runs) +
           ";periods=" + std::to_string(periods);
  }
  /// The same sweep for in-process runs.
  [[nodiscard]] campaign::SweepSpec spec() const {
    campaign::SweepSpec spec;
    spec.name = "fleet";
    spec.base = {{"procs", procs}, {"runs", runs}, {"periods", periods}};
    spec.axes.push_back({"c", {c.begin(), c.end()}});
    spec.axes.push_back({"mtbf_years", {mtbf_years.begin(), mtbf_years.end()}});
    return spec;
  }

 private:
  static std::string join(const std::vector<std::int64_t>& values) {
    std::string out;
    for (const auto v : values) {
      if (!out.empty()) out += ',';
      out += std::to_string(v);
    }
    return out;
  }
};

FleetShape fleet_shape(const Options& options) {
  FleetShape shape;
  if (options.smoke) {
    shape.c = {60, 120};
    shape.mtbf_years = {5};
    shape.runs = 40;
  }
  return shape;
}

std::vector<std::string> fleet_argv(const Options& options, const FleetShape& shape,
                                    const fs::path& dir, int workers, const std::string& out,
                                    const std::string& metrics_out = {}) {
  std::vector<std::string> argv = {
      (fs::path(options.bin_dir) / "repcheck_fleet").string(),
      "--workers", std::to_string(workers),
      "--listen", "unix:" + (dir / "c.sock").string(),
      "--cache-dir", (dir / "cache").string(),
      "--journal", (dir / "fleet.journal").string(),
      "--out", (dir / out).string(),
      "--grid", shape.grid(),
      "--set", shape.set(),
      "--shard-size", std::to_string(shape.shard_size),
      "--seed", std::to_string(options.seed),
      "--no-progress"};
  if (!metrics_out.empty()) {
    argv.push_back("--metrics-out");
    argv.push_back((dir / metrics_out).string());
  }
  return argv;
}

/// Scrapes the coordinator's live `metrics` op until `workers` have said
/// hello; returns the seconds since `t0`, or -1 if the coordinator exited
/// first.  Scraping stops there: a scraper polling through the run keeps
/// idle vCPUs awake and shortens every lease round trip.
double wait_for_workers(Child& coordinator, const fs::path& socket_path, Clock::time_point t0,
                        int workers) {
  const std::string address = "unix:" + socket_path.string();
  const std::string needle = "repcheck_fleet_workers_connected_total";
  std::string request;
  fleet::append_metrics_request(request);
  serve::Socket socket;
  serve::FrameBuffer frames;
  while (coordinator.running()) {
    if (!socket.valid()) {
      try {
        socket = serve::connect_to(address);
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
    }
    const auto answer = exchange(socket, frames, request, 1, 1000);
    if (answer.empty()) return -1.0;
    const std::string_view payload = answer.front();
    const auto at = payload.find(needle);
    if (at != std::string_view::npos) {
      const auto line = payload.substr(at, payload.find('\n', at) - at);
      if (std::stoll(std::string(line.substr(line.rfind(' ') + 1))) >= workers) {
        return seconds_since(t0);
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return -1.0;
}

struct Iteration {
  double setup_s = -1.0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  double rss_mb = 0.0;
  double cpu_s = 0.0;  ///< coordinator + workers, cold run
  double speed = 0.0;  ///< host speed around the iteration (host_speed)
  bool ok = false;
  fs::path dir;  ///< kept for traced iterations, removed otherwise
  std::string cold_report, warm_report;
};

}  // namespace

void run_fleet_fine_shards(const Options& options, Report& report) {
  const auto shape = fleet_shape(options);
  const fs::path root = fs::path(options.run_dir) / "fleet";
  fs::create_directories(root);
  Report::note("fleet_fine_shards: " + std::to_string(shape.shards()) + " shards of " +
               std::to_string(shape.shard_size) + " replicates, " + std::to_string(kWorkers) +
               " workers");

  // The in-process reference (--workers 0) every fleet output must equal.
  const fs::path ref_dir = root / "ref";
  fs::create_directories(ref_dir);
  {
    Child reference(fleet_argv(options, shape, ref_dir, 0, "out.jsonl"), (ref_dir / "log").string());
    report.check(reference.wait() == 0, "fleet_fine_shards: --workers 0 reference run exits 0");
  }
  const std::string expected = read_file((ref_dir / "out.jsonl").string());
  report.check(std::count(expected.begin(), expected.end(), '\n') ==
                   static_cast<std::ptrdiff_t>(shape.points()),
               "fleet_fine_shards: reference has one result line per point");

  // A host-speed probe follows every iteration; each iteration's times
  // are scaled by the mean of the probes on either side of it.
  int index = 0;
  double last_speed = host_speed(load_threads());
  const auto iterate = [&](bool traced) {
    Iteration it;
    const fs::path dir = root / ("i" + std::to_string(index++));
    it.dir = dir;
    fs::create_directories(dir);
    const auto t0 = Clock::now();
    {
      Child cold(fleet_argv(options, shape, dir, kWorkers, "cold.jsonl", traced ? "cold.json" : ""),
                 (dir / "cold.log").string());
      it.setup_s = wait_for_workers(cold, dir / "c.sock", t0, kWorkers);
      const int code = cold.wait();
      it.cold_s = seconds_since(t0);
      it.rss_mb = cold.peak_rss_mb();
      it.cpu_s = cold.cpu_seconds();
      it.ok = code == 0;
    }
    const auto t1 = Clock::now();
    {
      Child warm(fleet_argv(options, shape, dir, kWorkers, "warm.jsonl", traced ? "warm.json" : ""),
                 (dir / "warm.log").string());
      it.ok = warm.wait() == 0 && it.ok;
      it.warm_s = seconds_since(t1);
    }
    it.ok = it.ok && read_file((dir / "cold.jsonl").string()) == expected &&
            read_file((dir / "warm.jsonl").string()) == expected;
    if (traced) {
      it.cold_report = read_file((dir / "cold.json").string());
      it.warm_report = read_file((dir / "warm.json").string());
    }
    if (!traced) fs::remove_all(dir);
    const double speed = host_speed(load_threads());
    it.speed = 0.5 * (last_speed + speed);
    last_speed = speed;
    return it;
  };

  // A traced run alternates untraced iterations with traced ones, whose
  // coordinator and workers also write run reports (--metrics-out), so
  // host drift hits both alike.  The last traced iteration's stores stay
  // for the cache-load probe.
  std::vector<double> setups, rates, ref_rates, warm, rss, traced_ref_rates, cold_walls;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t iterations = 0;
  Iteration last;
  const auto count = [&](const Iteration& it) {
    ++iterations;
    attempted += shape.shards();
    if (!it.ok) failed += shape.shards();
  };
  const auto phase0 = Clock::now();
  do {
    const auto it = iterate(false);
    count(it);
    if (iterations == 1) continue;  // warms the page cache and binaries: not timed
    // A sweep can finish before the last worker says hello (tiny smoke
    // sweeps do): that run has no set-up sample, but its output counts.
    if (it.setup_s >= 0.0) setups.push_back(reference_seconds(it.setup_s, it.speed));
    ref_rates.push_back(reference_rate(static_cast<double>(shape.shards()), it.cpu_s, it.speed));
    rates.push_back(static_cast<double>(shape.shards()) / it.cold_s);
    warm.push_back(it.warm_s);
    rss.push_back(it.rss_mb);
    if (options.trace) {
      if (!last.dir.empty()) fs::remove_all(last.dir);
      last = iterate(true);
      count(last);
      traced_ref_rates.push_back(
          reference_rate(static_cast<double>(shape.shards()), last.cpu_s, last.speed));
      cold_walls.push_back(last.cold_s);
    }
  } while (seconds_since(phase0) < options.seconds || rates.size() < 3);

  report.check(failed == 0, "fleet_fine_shards: " + std::to_string(iterations) +
                                " cold and warm runs byte-identical to --workers 0");
  report.check(!setups.empty(), "fleet_fine_shards: " + std::to_string(setups.size()) + " of " +
                                    std::to_string(rates.size()) +
                                    " timed runs saw all workers connect");
  // The headline is shards per reference CPU-second of the coordinator and
  // its workers: every lease round trip here waits on process wake-ups,
  // whose latency on a VM swings the wall-clock rate by 2x with unrelated
  // load, and the CPU rate follows the host's speed: over five minutes
  // of back-to-back runs, 10-second medians spread 28%, and 5.6% once
  // scaled by host_speed.
  char line[160];
  std::snprintf(line, sizeof(line),
                "fleet_fine_shards: %.1f shards/s, %.1f per reference CPU-second", median(rates),
                median(ref_rates));
  Report::note(line);
  report.attempt(attempted, failed);
  const double ref_rate = median(ref_rates);
  if (!options.trace) {
    set_end_to_end(report, median(setups), median(rss), ref_rate, attempted, failed);
    return;
  }
  // In-process: the same shard ranges through a timed evaluator, serially,
  // into on-disk stores; then the cost of loading the filled cache.
  const auto spec = shape.spec();
  double simulate_s = 0.0, inproc_wall = 0.0;
  std::uint64_t quarantined = 0;
  {
    const auto base = campaign::standard_evaluator();
    campaign::PointEvaluator evaluator;
    evaluator.runs_for = base.runs_for;
    evaluator.simulate = [&](const campaign::SweepPoint& point, std::uint64_t b, std::uint64_t e,
                             std::uint64_t s) {
      const auto s0 = Clock::now();
      auto summary = base.simulate(point, b, e, s);
      simulate_s += seconds_since(s0);
      return summary;
    };
    campaign::RunnerOptions ro;
    ro.master_seed = options.seed;
    ro.shard_size = static_cast<std::uint64_t>(shape.shard_size);
    ro.cache_dir = (root / "inproc" / "cache").string();
    ro.journal_path = (root / "inproc" / "fleet.journal").string();
    ro.progress = false;
    const auto t0 = Clock::now();
    const auto result = campaign::CampaignRunner(spec, evaluator, ro).run();
    inproc_wall = seconds_since(t0);
    quarantined = result.stats.quarantined_records;
    report.check(result.ok(), "fleet_fine_shards: in-process timed run completes");
  }
  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const campaign::ResultCache cache(last.dir / "cache");
    loads.push_back(seconds_since(t0));
    quarantined += cache.load_stats().quarantined;
  }

  const auto& cold = last.cold_report;
  const auto& warm_report = last.warm_report;
  report.set("shards_per_s", median(rates), "1/s");
  report.set("warm_rerun_s", median(warm), "s");
  report.set("error_ratio", Ratio{static_cast<double>(failed), static_cast<double>(attempted)}.value(),
             "ratio");
  report.set("fleet.leases_granted", json_number(cold, "fleet.leases_granted"), "count");
  report.set("fleet.shards_requeued", json_number(cold, "fleet.shards_requeued"), "count");
  report.set("fleet.heartbeats", json_number(cold, "fleet.heartbeats"), "count");
  report.set("fleet.fenced_commits", json_number(cold, "fleet.fenced_commits"), "count");
  const double shards = static_cast<double>(shape.shards());
  report.set("fleet.overhead_per_shard_us",
             (median(cold_walls) * kWorkers - simulate_s) / shards * 1e6, "us");
  report.set("campaign.evaluator_frac", simulate_s / inproc_wall, "ratio");
  report.set("campaign.cache_load_s", median(loads), "s");
  // Base: the shards the sweep plans; the warm rerun should serve all.
  report.set("campaign.shards_cached_ratio",
             Ratio{json_number(warm_report, "fleet.shards_cached"), shards}.value(), "ratio");
  report.set("campaign.quarantined", static_cast<double>(quarantined), "count");
  report.set("trace.overhead_frac", trace_overhead(ref_rate, median(traced_ref_rates)), "ratio");
}

}  // namespace perfbench
