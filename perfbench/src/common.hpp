// Shared plumbing of the perfbench driver: options, the metric sink, the
// percentile rule, ratios with explicit bases, summary hashing, timing
// loops for the per-layer probes, and reaped child processes.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/montecarlo.hpp"
#include "core/result.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< tiny configs for the self-test
  std::string run_dir;      ///< fresh per-run scratch dir (relative to cwd)
  std::string bin_dir;      ///< where repcheck_fleet / repcheck_advisord live
};

/// Threads and connections the benchmark's load may use: min(nproc, 4),
/// with nproc the CPUs this process may run on.
[[nodiscard]] unsigned load_threads();

/// Metric names: a letter or digit first, then up to 63 more letters,
/// digits, '_', '.' or '-'.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// A ratio that carries its base, so every printed ratio says what it is
/// a share of.  An empty base reads as 0.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  [[nodiscard]] double value() const { return den > 0.0 ? num / den : 0.0; }
};

/// The percentile rule: report quantile q of the samples only when at
/// least `min_beyond` samples lie beyond it; otherwise report the highest
/// quantile that has that many beyond it.  Nearest-rank on sorted samples.
struct Percentile {
  double value = 0.0;
  double q = 0.0;          ///< quantile actually reported
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly after the reported rank
  bool supported = false;  ///< false when fewer than min_beyond + 1 samples
};
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q,
                                    std::size_t min_beyond = 10);

[[nodiscard]] double median(std::vector<double> values);

/// Collects one run's metrics and output checks; renders the final line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n, std::uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }
  /// A human-readable detail line (stdout, '#'-prefixed, before the result).
  static void note(const std::string& line);
  [[nodiscard]] bool correct() const { return checks_failed_ == 0; }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] std::string render_result() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// FNV-1a over bytes.  Summaries are hashed through summary_text, the
/// campaign's canonical JSONL rendering, so equal hashes mean
/// bit-identical summaries.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ull);
[[nodiscard]] std::string summary_text(const repcheck::sim::MonteCarloSummary& summary);
[[nodiscard]] std::uint64_t hash_run(const repcheck::sim::RunResult& run, std::uint64_t h);

/// Median ns per call of `body` over `reps` timed batches of `iters` calls.
template <typename F>
double time_per_call_ns(std::size_t iters, F&& body, int reps = 5) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) body(i);
    per.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                  static_cast<double>(iters));
  }
  return median(per);
}

/// Keeps a value observable so timed loops are not folded away (plain,
/// not atomic: the probes that call it run on one thread).
inline std::uint64_t g_sink = 0;
inline void sink(std::uint64_t v) { g_sink ^= v; }
void sink(double v);

/// Process CPU time (user + system), seconds.
[[nodiscard]] double process_cpu_seconds();
/// The calling thread's CPU time, seconds.
[[nodiscard]] double thread_cpu_seconds();
/// The host's speed now: iterations per CPU-second of a fixed reference
/// loop (splitmix64 draws, a log and a scattered increment into a 256 KiB
/// table, the mix of an engine's failure path) on `threads` threads at
/// once, about 60 ms each.  It calls no repcheck code, so only the host
/// moves it.  On a shared VM it drifts by 15-35% within minutes, and the
/// CPU time of every workload drifts with it.
[[nodiscard]] double host_speed(unsigned threads);
/// The reference host speed: one reference second is the time in which
/// host_speed's loop runs this many iterations per thread.
inline constexpr double kReferenceSpeed = 1e8;
/// `seconds` measured at host speed `speed`, in reference seconds.
[[nodiscard]] inline double reference_seconds(double seconds, double speed) {
  return seconds * speed / kReferenceSpeed;
}
/// `work` per reference CPU-second, for work done in `cpu_s` CPU-seconds
/// at host speed `speed`.
[[nodiscard]] inline double reference_rate(double work, double cpu_s, double speed) {
  return work / reference_seconds(cpu_s, speed);
}
/// This process's peak resident set, MiB.
[[nodiscard]] double self_peak_rss_mb();

/// A child process that is always reaped: the destructor sends SIGTERM,
/// waits, then SIGKILLs.  Children also die with this process
/// (PR_SET_PDEATHSIG), so no exit path leaves one behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] bool running();
  /// Blocks until exit; returns the exit code (128+signal when killed).
  int wait();
  /// SIGTERM, wait up to `grace_ms`, then SIGKILL; returns the exit code.
  int stop(int grace_ms = 3000);
  /// CPU seconds the running child (all its threads) has used so far.
  [[nodiscard]] double cpu_seconds_so_far() const;
  /// Peak RSS of the reaped child, MiB (0 before it is reaped).
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }
  /// User + system CPU seconds of the reaped child, including the
  /// children it reaped itself (0 before it is reaped).
  [[nodiscard]] double cpu_seconds() const { return cpu_s_; }

 private:
  void reaped(int status, const ::rusage& usage);
  pid_t pid_ = -1;
  int exit_code_ = -1;
  double peak_rss_mb_ = 0.0;
  double cpu_s_ = 0.0;
};

/// The number after `"key":` in a flat JSON text (a run report, a stats
/// answer); 0 when the key is absent, as reports omit zero counters.
[[nodiscard]] double json_number(std::string_view json, std::string_view key);

/// Writes `frames` (already framed) to `socket`, then reads `count`
/// responses in order through `buffer`.  Returns fewer when the peer hangs
/// up or sends nothing for `timeout_ms`.
std::vector<std::string> exchange(const repcheck::serve::Socket& socket,
                                  repcheck::serve::FrameBuffer& buffer, std::string_view frames,
                                  std::size_t count, int timeout_ms = 5000);

/// Reads a whole file ("" when missing).
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace perfbench
