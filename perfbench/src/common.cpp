#include "common.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "campaign/cache.hpp"
#include "util/jsonl.hpp"

namespace perfbench {

unsigned load_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

Percentile percentile(std::vector<double> samples, double q, std::size_t min_beyond) {
  Percentile p;
  p.samples = samples.size();
  if (samples.size() <= min_beyond) return p;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank (1-based) of quantile q, clamped so that at least
  // min_beyond samples stay beyond it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n - min_beyond);
  p.value = samples[rank - 1];
  p.beyond = n - rank;
  p.q = std::min(q, static_cast<double>(rank) / static_cast<double>(n));
  p.supported = true;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::logic_error("invalid metric name: " + name);
  metrics_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  note(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) ++checks_failed_;
}

void Report::note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::render_result() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + entry.second + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string summary_text(const repcheck::sim::MonteCarloSummary& summary) {
  return repcheck::util::to_jsonl(repcheck::campaign::summary_to_json(summary));
}

std::uint64_t hash_run(const repcheck::sim::RunResult& run, std::uint64_t h) {
  const double doubles[] = {run.makespan,          run.useful_time,     run.time_working,
                            run.time_checkpointing, run.time_recovering, run.time_down};
  const std::uint64_t counts[] = {run.completed_periods,   run.n_failures,
                                  run.n_fatal,             run.n_checkpoints,
                                  run.n_restart_checkpoints, run.n_flush_checkpoints,
                                  run.n_procs_restarted,   run.sum_dead_at_checkpoint,
                                  run.progress_stalled ? 1u : 0u};
  h = fnv1a(std::string_view(reinterpret_cast<const char*>(doubles), sizeof(doubles)), h);
  return fnv1a(std::string_view(reinterpret_cast<const char*>(counts), sizeof(counts)), h);
}

void sink(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  sink(bits);
}

namespace {
double timeval_seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}
}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double host_speed(unsigned threads) {
  constexpr std::uint64_t kIters = 1u << 22;
  constexpr std::size_t kTable = 1u << 16;  // 256 KiB of counters per thread
  std::vector<double> cpu(threads, 0.0), result(threads, 0.0);
  std::vector<std::jthread> workers;  // joined on every path out
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&cpu, &result, t] {
      std::vector<std::uint32_t> table(kTable, 0);
      std::uint64_t x = 0x9e3779b97f4a7c15ull * (t + 1);
      double acc = 0.0;
      const double cpu0 = thread_cpu_seconds();
      for (std::uint64_t i = 0; i < kIters; ++i) {
        x += 0x9e3779b97f4a7c15ull;  // splitmix64
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        acc -= std::log(static_cast<double>((z >> 11) | 1) * 0x1p-53);
        ++table[z & (kTable - 1)];
      }
      cpu[t] = thread_cpu_seconds() - cpu0;
      for (std::size_t i = 0; i < kTable; i += 1024) acc += table[i];
      result[t] = acc;
    });
  }
  double total = 0.0;
  for (unsigned t = 0; t < threads; ++t) {
    workers[t].join();
    total += cpu[t];
    sink(result[t]);
  }
  return static_cast<double>(kIters) * threads / total;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Child::Child(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(98);  // parent died before prctl took hold
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(args[0], args.data());
    _exit(97);
  }
}

Child::~Child() {
  if (pid_ > 0) stop(2000);
}

void Child::reaped(int status, const ::rusage& usage) {
  pid_ = -1;
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  cpu_s_ = timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

bool Child::running() {
  if (pid_ <= 0) return false;
  int status = 0;
  rusage usage{};
  const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
  if (r == pid_) {
    reaped(status, usage);
    return false;
  }
  return r == 0;
}

int Child::wait() {
  if (pid_ <= 0) return exit_code_;
  int status = 0;
  rusage usage{};
  pid_t r = -1;
  do {
    r = ::wait4(pid_, &status, 0, &usage);
  } while (r < 0 && errno == EINTR);
  if (r == pid_) {
    reaped(status, usage);
  } else {
    pid_ = -1;
  }
  return exit_code_;
}

int Child::stop(int grace_ms) {
  if (!running()) return exit_code_;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  while (running()) {
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      return wait();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return exit_code_;
}

double Child::cpu_seconds_so_far() const {
  clockid_t clock{};
  timespec ts{};
  if (pid_ <= 0 || ::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double json_number(std::string_view json, std::string_view key) {
  std::string needle(1, '"');
  needle.append(key).append("\":");
  const auto at = json.find(needle);
  if (at == std::string_view::npos) return 0.0;
  return std::strtod(std::string(json.substr(at + needle.size(), 32)).c_str(), nullptr);
}

std::vector<std::string> exchange(const repcheck::serve::Socket& socket,
                                  repcheck::serve::FrameBuffer& buffer, std::string_view frames,
                                  std::size_t count, int timeout_ms) {
  std::vector<std::string> responses;
  if (!socket.write_all(frames)) return responses;
  char chunk[65536];
  while (responses.size() < count) {
    std::string_view response;
    const auto status = buffer.next(response);
    if (status == repcheck::serve::FrameBuffer::Status::kFrame) {
      responses.emplace_back(response);
      continue;
    }
    if (status == repcheck::serve::FrameBuffer::Status::kMalformed) break;
    if (socket.wait_readable(timeout_ms) <= 0) break;
    const ssize_t n = socket.read_some(chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
  return responses;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

}  // namespace perfbench
