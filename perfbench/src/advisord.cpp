// advisord_mix: an open-loop request ladder against repcheck_advisord.
//
// Two client threads, one unix-socket connection each, send a fixed
// schedule at each rate of the ladder whether or not answers have come
// back (independent users: an open loop), and time every request from
// the moment it was due, so a stall also charges the requests queued
// behind it.  The mix is mostly repeated queries from a working set
// (memo-cache hits), a steady share of fresh analytic queries (misses,
// inserts, batching) and a small share of validated-tier queries.  A
// closed-loop saturation phase follows on the same connections.  The
// headline is answers per reference CPU-second of the server at
// saturation, so it moves with the cost of the serve path rather than
// with the offered rate: below saturation the server sleeps between
// requests, and its CPU time per answer is then mostly wake-ups.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.hpp"
#include "prng/xoshiro.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace repcheck;

namespace {

enum class Kind : std::uint8_t { kHit, kFresh, kValidated };

struct MixShape {
  /// Nominal rates, requests/s, each for an equal share of the ladder.
  std::vector<double> ladder = {2000.0, 8000.0, 16000.0, 32000.0};
  /// The saturation phase after the ladder: each connection keeps `window`
  /// requests in flight, over segments of `segment` requests, as many as
  /// `planned_rate` requests/s fill half the run (at least three).  A fixed
  /// amount of work, not a fixed time, so the memo-cache, and with it the
  /// server's peak RSS, ends the same on every run.  The window keeps
  /// queued misses far below advisord's --max-pending (1,024).
  std::size_t window = 256;
  std::size_t segment = 50000;
  double planned_rate = 100000.0;
  /// Every block of 100 consecutive requests holds exactly this many fresh
  /// analytic and validated-tier queries, at seeded positions; the rest
  /// repeat the working set.
  std::size_t block = 100;
  std::size_t fresh_per_block = 5;
  std::size_t validated_per_block = 1;
  std::size_t working_set = 256;
  /// Analytic p99 limit of a passing rate.  Generous because a bare 250 us
  /// nanosleep on a 4-vCPU Xeon VM already wakes up to ~5 ms late at p99.
  double p99_limit_us = 50000.0;
  /// Traced runs probe capacity past the ladder: the rate doubles every
  /// rung of this length until one fails or this many rungs have run.
  double probe_rung_s = 0.5;
  int probe_rungs = 3;
  int setups = 41;  ///< server start-ups timed per run
};

MixShape mix_shape(const Options& options) {
  MixShape shape;
  if (options.smoke) {
    shape.ladder = {200.0, 400.0};
    shape.segment = 1000;
    shape.probe_rungs = 1;
  }
  return shape;
}

/// Request payloads.  Each is a pure function of the seed, its kind and
/// its id, so client threads build them when due and the output check
/// rebuilds them instead of keeping them.
class QueryGen {
 public:
  QueryGen(std::uint64_t seed, const MixShape& shape)
      : seed_(seed), shape_(shape), kinds_rng_(seed ^ 0x6b696e6473ull) {}

  /// The kinds of the next `count` requests: each block is the shape's
  /// pattern in a seeded order.
  std::vector<Kind> kinds(std::size_t count) {
    std::vector<Kind> pattern(shape_.block, Kind::kHit);
    std::fill_n(pattern.begin(), shape_.fresh_per_block, Kind::kFresh);
    std::fill_n(pattern.begin() + static_cast<std::ptrdiff_t>(shape_.fresh_per_block),
                shape_.validated_per_block, Kind::kValidated);
    std::vector<Kind> out;
    while (out.size() < count) {
      for (std::size_t i = pattern.size() - 1; i > 0; --i) {
        std::swap(pattern[i], pattern[kinds_rng_() % (i + 1)]);
      }
      out.insert(out.end(), pattern.begin(), pattern.end());
    }
    out.resize(count);
    return out;
  }

  /// Request `id` (ids are unique per run, so fresh queries never repeat).
  [[nodiscard]] std::string payload(Kind kind, std::uint64_t id) const {
    switch (kind) {
      case Kind::kHit:
        return with_id(analytic(rng(id, 1)() % shape_.working_set), id);
      case Kind::kFresh:
        return with_id(analytic(shape_.working_set + id), id);
      case Kind::kValidated:
        return with_id(validated(id), id);
    }
    return {};
  }
  /// Working-set query i.
  [[nodiscard]] std::string working(std::size_t i) const { return with_id(analytic(i), 0); }

 private:
  [[nodiscard]] prng::Xoshiro256pp rng(std::uint64_t id, std::uint64_t stream) const {
    return prng::Xoshiro256pp(seed_ ^ (id * 0x9e3779b97f4a7c15ull) ^ (stream << 56));
  }
  /// Analytic query i: a platform of 20,000 to 200,000 processors with a
  /// distinct MTBF, so every index is its own cache key.
  [[nodiscard]] std::string analytic(std::uint64_t i) const {
    auto r = rng(i, 2);
    char buf[256];
    const std::uint64_t n = 20000 * (1 + r() % 10);
    const double mtbf = 3.0e7 * (1.0 + r.uniform01()) + static_cast<double>(i);
    const double c = (r() % 2 == 0) ? 60.0 : 600.0;
    std::snprintf(buf, sizeof(buf),
                  "\"op\":\"advise\",\"n\":%llu,\"mtbf\":%.17g,\"c\":%g,\"w\":1e6,"
                  "\"gamma\":1e-5}",
                  static_cast<unsigned long long>(n), mtbf, c);
    return buf;
  }
  /// A small validated-tier query: 2,000 processors, 8 simulations per plan.
  [[nodiscard]] std::string validated(std::uint64_t id) const {
    auto r = rng(id, 3);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"op\":\"advise\",\"n\":2000,\"mtbf\":%.17g,\"c\":60,\"w\":1e5,"
                  "\"gamma\":1e-5,\"validate\":true,\"runs\":8,\"seed\":%llu}",
                  3.0e7 * (1.0 + r.uniform01()), static_cast<unsigned long long>(id));
    return buf;
  }
  static std::string with_id(const std::string& body, std::uint64_t id) {
    return "{\"id\":" + std::to_string(id) + "," + body;
  }

  std::uint64_t seed_;
  MixShape shape_;
  prng::Xoshiro256pp kinds_rng_;
};

struct Request {
  Kind kind = Kind::kHit;
  std::int64_t due_ns = 0;  ///< offset from the rung start
  std::uint64_t id = 0;
};

struct Sample {
  Kind kind = Kind::kHit;
  bool ok = false;
  bool cached = false;
  double latency_us = std::numeric_limits<double>::infinity();  ///< from due time
  double late_us = 0.0;  ///< send time - due time
};

/// A client connection kept open across rungs, as a long-lived client
/// would; reconnects after a rung that left answers outstanding.
struct Connection {
  std::string address;
  serve::Socket socket;
  serve::FrameBuffer frames;
  void ensure() {
    if (!socket.valid()) {
      socket = serve::connect_to(address);
      frames = serve::FrameBuffer{};
    }
  }
};

/// Responses kept for the output check, by index into a request list.
using Kept = std::vector<std::pair<std::size_t, std::string>>;

/// One connection's share of a rung: sends each request when due, reads
/// answers as they arrive (in order), and stops waiting `grace` after the
/// last due time.  Sends never block, so a server that falls behind shows
/// as late or missing answers rather than stalling the schedule.  Keeps
/// every `keep_every`-th response and every validated one.
void drive_connection(Connection& conn, const QueryGen& gen, const std::vector<Request>& requests,
                      std::vector<Sample>& samples, Kept& kept, Clock::time_point start,
                      std::chrono::nanoseconds grace, std::size_t keep_every,
                      Clock::time_point& last_answer) {
  samples.assign(requests.size(), Sample{});
  conn.ensure();
  serve::Socket& socket = conn.socket;
  serve::FrameBuffer& frames = conn.frames;
  std::deque<std::size_t> in_flight;
  std::string out;
  std::size_t sent = 0;  ///< bytes of `out` already sent
  char chunk[65536];
  std::size_t next = 0;
  const auto deadline = start + std::chrono::nanoseconds(requests.back().due_ns) + grace;
  while (next < requests.size() || !in_flight.empty()) {
    auto now = Clock::now();
    while (next < requests.size() &&
           start + std::chrono::nanoseconds(requests[next].due_ns) <= now) {
      serve::append_frame(out, gen.payload(requests[next].kind, requests[next].id));
      samples[next].kind = requests[next].kind;
      samples[next].late_us =
          std::chrono::duration<double, std::micro>(now - start).count() -
          static_cast<double>(requests[next].due_ns) * 1e-3;
      in_flight.push_back(next++);
    }
    if (sent < out.size()) {
      const ssize_t n = ::send(socket.fd(), out.data() + sent, out.size() - sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
      if (sent == out.size()) {
        out.clear();
        sent = 0;
      }
    }
    now = Clock::now();
    if (now >= deadline) break;
    auto wake = deadline;
    if (next < requests.size()) {
      wake = std::min(wake, start + std::chrono::nanoseconds(requests[next].due_ns));
    }
    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
    pollfd pfd{socket.fd(), static_cast<short>(POLLIN | (sent < out.size() ? POLLOUT : 0)), 0};
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0 || (pfd.revents & ~POLLOUT) == 0) continue;
    const ssize_t n = socket.read_some(chunk, sizeof(chunk));
    if (n <= 0) break;
    frames.append(std::string_view(chunk, static_cast<std::size_t>(n)));
    const auto received = Clock::now();
    last_answer = received;
    std::string_view payload;
    serve::FrameBuffer::Status status;
    while ((status = frames.next(payload)) == serve::FrameBuffer::Status::kFrame &&
           !in_flight.empty()) {
      const std::size_t i = in_flight.front();
      in_flight.pop_front();
      Sample& s = samples[i];
      s.latency_us = std::chrono::duration<double, std::micro>(received - start).count() -
                     static_cast<double>(requests[i].due_ns) * 1e-3;
      s.ok = serve::response_status(payload) == "ok";
      s.cached = payload.find("\"cached\":true") != std::string_view::npos;
      if (s.ok && (i % keep_every == 0 || requests[i].kind == Kind::kValidated)) {
        kept.emplace_back(i, payload);
      }
    }
    if (status == serve::FrameBuffer::Status::kMalformed) break;
  }
  if (next < requests.size() || !in_flight.empty()) socket.close();  // out of step
}

/// Kept responses must equal an in-process Advisor rendering of the
/// rebuilt request.  Returns the number of mismatches.
std::size_t check_responses(const QueryGen& gen, const std::vector<Request>& requests,
                            const std::vector<Sample>& samples, const Kept& kept) {
  std::size_t mismatched = 0;
  std::string expected, error;
  for (const auto& [i, response] : kept) {
    const std::string payload = gen.payload(requests[i].kind, requests[i].id);
    serve::RequestView view;
    if (!serve::parse_request(payload, view, error)) {
      ++mismatched;
      continue;
    }
    sim::ValidatedAdvice advice;
    if (view.validate) {
      advice = sim::Advisor::recommend_validated(view.platform, view.app, view.w_seq, view.runs,
                                                 view.seed);
    } else {
      advice.analytic = sim::Advisor::recommend(view.platform, view.app, view.w_seq);
    }
    expected.clear();
    serve::render_advice(expected, view.id_token, advice, view.validate, samples[i].cached);
    if (expected != response) ++mismatched;
  }
  return mismatched;
}

struct Rung {
  double rate = 0.0;
  double achieved = 0.0;  ///< answered requests per second of schedule
  std::vector<Sample> samples;  ///< in schedule order
  Percentile p50, p99;
  std::size_t answered = 0;
  std::size_t errors = 0;  ///< failed, shed or unanswered
  std::size_t checked = 0, mismatched = 0;  ///< kept responses vs Advisor
  bool backlog_growing = false;
  bool passed = false;
};

Rung run_rung(Connection (&conns)[2], QueryGen& gen, const MixShape& shape, double rate,
              double seconds, std::size_t keep_every, std::uint64_t& next_id) {
  Rung rung;
  rung.rate = rate;
  // Whole blocks, so every rung holds the mix's exact shares.
  const std::size_t blocks =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(rate * seconds / shape.block)));
  const auto kinds = gen.kinds(blocks * shape.block);
  const std::size_t count = kinds.size();
  std::vector<Request> requests(count);
  std::vector<Request> per_conn[2];
  for (std::size_t i = 0; i < count; ++i) {
    requests[i] = {kinds[i], static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate),
                   next_id++};
    per_conn[i % 2].push_back(requests[i]);
  }
  std::vector<Sample> samples[2];
  Kept kept[2];
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto grace = std::chrono::milliseconds(2000);
  Clock::time_point last_answer[2] = {start, start};
  std::string errors[2];
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      try {
        drive_connection(conns[c], gen, per_conn[c], samples[c], kept[c], start, grace,
                         keep_every, last_answer[c]);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("advisord client: " + e);
  }

  for (int c = 0; c < 2; ++c) {
    rung.checked += kept[c].size();
    rung.mismatched += check_responses(gen, per_conn[c], samples[c], kept[c]);
  }
  // Interleave back into schedule order.
  rung.samples.resize(count);
  for (std::size_t i = 0; i < count; ++i) rung.samples[i] = samples[i % 2][i / 2];
  std::vector<double> analytic, first, last;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& s = rung.samples[i];
    if (s.ok) ++rung.answered;
    if (!s.ok) ++rung.errors;
    if (s.kind == Kind::kValidated) continue;
    // A refused, shed or unanswered request misses any latency limit.
    const double v = s.ok ? s.latency_us : std::numeric_limits<double>::infinity();
    analytic.push_back(v);
    if (i < count / 4) first.push_back(v);
    if (i >= count - count / 4) last.push_back(v);
  }
  // Answers per second from the first due time to the last answer.
  rung.achieved = static_cast<double>(rung.answered) /
                  std::chrono::duration<double>(std::max(last_answer[0], last_answer[1]) - start)
                      .count();
  rung.p50 = percentile(analytic, 0.50);
  rung.p99 = percentile(analytic, 0.99);
  rung.backlog_growing = median(last) > 2.0 * median(first) + shape.p99_limit_us / 4;
  rung.passed = rung.errors == 0 && rung.p99.supported && rung.p99.value <= shape.p99_limit_us &&
                !rung.backlog_growing;
  char line[256];
  std::snprintf(line, sizeof(line),
                "advisord_mix: %.0f req/s: p50 %.1f us, p%.4g %.1f us (%zu samples, %zu beyond), "
                "%zu errors, backlog %s -> %s",
                rate, rung.p50.value, rung.p99.q * 100, rung.p99.value, rung.p99.samples,
                rung.p99.beyond, rung.errors, rung.backlog_growing ? "growing" : "steady",
                rung.passed ? "pass" : "fail");
  Report::note(line);
  return rung;
}

struct Segment {
  std::size_t sent = 0;
  std::size_t ok = 0;
};

/// One connection's share of a saturation segment: a closed loop that
/// keeps half to all of `window` requests in flight until every request
/// is answered, so the server always has work queued and reads it in
/// large batches.  The
/// requests in flight stay far below the socket buffers, so the blocking
/// writes cannot deadlock against the server's replies.
Segment saturate_connection(Connection& conn, const QueryGen& gen,
                            const std::vector<Request>& requests, std::size_t window) {
  Segment out;
  conn.ensure();
  // Built ahead, so the client's own work never leaves the server idle.
  std::string frames;
  std::vector<std::size_t> ends;
  for (const auto& r : requests) {
    serve::append_frame(frames, gen.payload(r.kind, r.id));
    ends.push_back(frames.size());
  }
  char chunk[65536];
  std::size_t answered = 0, written = 0;
  while (answered < requests.size()) {
    // Top up only once half the window is answered, so every write carries
    // at least half a window: trickling one request per answer would turn
    // each answer into its own wake-up and read, and the server's CPU per
    // answer would depend on which of the two regimes a run fell into.
    const std::size_t upto = std::min(requests.size(), answered + window);
    if (out.sent - answered <= window / 2 && upto > out.sent) {
      const std::string_view more(frames.data() + written, ends[upto - 1] - written);
      if (!conn.socket.write_all(more)) break;
      written = ends[upto - 1];
      out.sent = upto;
    }
    if (conn.socket.wait_readable(5000) <= 0) break;
    const ssize_t n = conn.socket.read_some(chunk, sizeof(chunk));
    if (n <= 0) break;
    conn.frames.append(std::string_view(chunk, static_cast<std::size_t>(n)));
    std::string_view payload;
    while (conn.frames.next(payload) == serve::FrameBuffer::Status::kFrame) {
      ++answered;
      if (serve::response_status(payload) == "ok") ++out.ok;
    }
  }
  if (answered < requests.size()) conn.socket.close();  // out of step
  return out;
}

/// A saturation segment: `shape.segment` requests of the analytic mix
/// (the validated share becomes hits: one simulation in flight would hold
/// up every answer queued behind it), split over both connections, each
/// driven by its own client thread.
Segment saturate(Connection (&conns)[2], QueryGen& gen, const MixShape& shape,
                 std::uint64_t& next_id) {
  auto kinds = gen.kinds(shape.segment);
  std::replace(kinds.begin(), kinds.end(), Kind::kValidated, Kind::kHit);
  std::vector<Request> per_conn[2];
  for (std::size_t i = 0; i < kinds.size(); ++i) per_conn[i % 2].push_back({kinds[i], 0, next_id++});
  Segment segments[2];
  std::string errors[2];
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      try {
        segments[c] = saturate_connection(conns[c], gen, per_conn[c], shape.window);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("advisord client: " + e);
  }
  return {kinds.size(), segments[0].ok + segments[1].ok};
}

/// Sends `payloads` pipelined on one fresh connection and returns the
/// responses in order (fewer if the server hung up).
std::vector<std::string> call_all(const std::string& address,
                                  const std::vector<std::string>& payloads) {
  const serve::Socket socket = serve::connect_to(address);
  std::string out;
  for (const auto& p : payloads) serve::append_frame(out, p);
  serve::FrameBuffer frames;
  return exchange(socket, frames, out, payloads.size());
}

std::string call(const std::string& address, const std::string& payload) {
  auto responses = call_all(address, {payload});
  return responses.empty() ? std::string() : std::move(responses.front());
}

/// Fills the memo-cache with the working set before anything is timed,
/// then sends fresh and validated queries from four connections at once:
/// concurrent misses form multi-query batches that spread over every
/// compute thread, so each thread has set up its telemetry ring and heap
/// before the ladder (otherwise the peak RSS depends on batch timing).
void prewarm(const std::string& address, const QueryGen& gen, const MixShape& shape,
             std::uint64_t& next_id) {
  std::vector<std::string> working;
  for (std::size_t i = 0; i < shape.working_set; ++i) working.push_back(gen.working(i));
  std::vector<std::vector<std::string>> bursts(4);
  for (auto& burst : bursts) {
    for (int i = 0; i < 32; ++i) {
      burst.push_back(gen.payload(Kind::kValidated, next_id++));
      burst.push_back(gen.payload(Kind::kFresh, next_id++));
    }
  }
  std::vector<std::vector<std::string>> answers(1 + bursts.size());
  answers[0] = call_all(address, working);
  std::vector<std::thread> threads;
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    threads.emplace_back([&, b] {
      try {
        answers[b + 1] = call_all(address, bursts[b]);
      } catch (const std::exception&) {
        answers[b + 1].clear();  // reported below as unanswered
      }
    });
  }
  for (auto& t : threads) t.join();
  bool ok = answers[0].size() == working.size();
  for (std::size_t b = 0; b < bursts.size(); ++b) ok = ok && answers[b + 1].size() == bursts[b].size();
  for (const auto& list : answers) {
    for (const auto& r : list) ok = ok && serve::response_status(r) == "ok";
  }
  if (!ok) throw std::runtime_error("advisord did not answer the warm-up queries");
}

/// Starts advisord and returns the seconds until its first ping answers.
double start_server(std::unique_ptr<Child>& server, const Options& options, const fs::path& dir,
                    const std::string& socket_path) {
  fs::remove(socket_path);
  const auto t0 = Clock::now();
  server = std::make_unique<Child>(
      std::vector<std::string>{(fs::path(options.bin_dir) / "repcheck_advisord").string(),
                               "--threads", "2", "--listen", "unix:" + socket_path},
      (dir / "advisord.log").string());
  while (server->running()) {
    try {
      if (serve::response_status(call("unix:" + socket_path, "{\"op\":\"ping\"}")) == "ok") {
        return seconds_since(t0);
      }
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return -1.0;
}

struct Ladder {
  std::vector<Rung> rungs;
  double max_qps = 0.0;  ///< achieved rate at the highest passing rung
  std::uint64_t attempted = 0, failed = 0, checked = 0, mismatched = 0;
  std::string stats_before, stats_after;  ///< the server's stats op around the ladder
  /// Answers per reference CPU-second of the server, per saturation segment.
  std::vector<double> saturated_rates;
  double server_rss_mb = 0.0;
};

/// Starts a fresh server, fills its cache, runs the nominal ladder (each
/// rate for an equal share of `seconds`) and, for a capacity probe, doubles
/// the rate past it until a rung fails.
Ladder serve_ladder(const Options& options, const MixShape& shape, QueryGen& gen,
                    double seconds, std::size_t keep_every, bool probe, std::uint64_t& next_id) {
  const fs::path dir = fs::path(options.run_dir) / "advisord";
  const std::string socket_path = (dir / "a.sock").string();
  const std::string address = "unix:" + socket_path;
  std::unique_ptr<Child> server;
  if (start_server(server, options, dir, socket_path) < 0.0) {
    throw std::runtime_error("repcheck_advisord did not answer a ping");
  }
  prewarm(address, gen, shape, next_id);
  Ladder out;
  Connection conns[2] = {{address, {}, {}}, {address, {}, {}}};
  const double per_rung = seconds / 2 / static_cast<double>(shape.ladder.size());
  out.stats_before = call(address, "{\"op\":\"stats\"}");
  for (const double rate : shape.ladder) {
    out.rungs.push_back(run_rung(conns, gen, shape, rate, per_rung, keep_every, next_id));
    const auto& rung = out.rungs.back();
    if (rung.passed) out.max_qps = rung.achieved;
    out.attempted += rung.samples.size();
    out.failed += rung.errors;
    out.checked += rung.checked;
    out.mismatched += rung.mismatched;
  }
  out.stats_after = call(address, "{\"op\":\"stats\"}");
  // Saturation for the other half, in segments, each scaled by the host
  // speed probed on either side of it.
  const auto segments = std::max<long>(
      3, std::lround(seconds / 2 * shape.planned_rate / static_cast<double>(shape.segment)));
  double last_speed = host_speed(load_threads());
  for (long i = 0; i < segments; ++i) {
    const double cpu0 = server->cpu_seconds_so_far();
    const auto segment = saturate(conns, gen, shape, next_id);
    const double cpu_s = server->cpu_seconds_so_far() - cpu0;
    const double speed = host_speed(load_threads());
    out.saturated_rates.push_back(
        reference_rate(static_cast<double>(segment.ok), cpu_s, 0.5 * (last_speed + speed)));
    last_speed = speed;
    out.attempted += segment.sent;
    out.failed += segment.sent - segment.ok;
  }
  // The probe's failures are how it ends, so they are not counted.
  double rate = shape.ladder.back();
  for (int i = 0; probe && out.max_qps > 0.0 && i < shape.probe_rungs; ++i) {
    rate *= 2;
    const auto rung = run_rung(conns, gen, shape, rate, shape.probe_rung_s, 1u << 30, next_id);
    if (!rung.passed) break;
    out.max_qps = rung.achieved;
  }
  for (auto& c : conns) c.socket.close();
  server->stop();
  out.server_rss_mb = server->peak_rss_mb();
  return out;
}

}  // namespace

void run_advisord_mix(const Options& options, Report& report) {
  const auto shape = mix_shape(options);
  const fs::path dir = fs::path(options.run_dir) / "advisord";
  fs::create_directories(dir);

  // Set-up times in reference seconds at the host speed probed around them.
  std::vector<double> setups;
  const double speed0 = host_speed(load_threads());
  for (int i = 0; i < shape.setups; ++i) {
    std::unique_ptr<Child> server;
    const double s = start_server(server, options, dir, (dir / "a.sock").string());
    if (s < 0.0) throw std::runtime_error("repcheck_advisord did not answer a ping");
    setups.push_back(s);
    server->stop();
  }
  const double speed = 0.5 * (speed0 + host_speed(load_threads()));
  for (auto& s : setups) s = reference_seconds(s, speed);

  // A traced run splits --seconds three ways, each on a fresh server: the
  // ladder, the ladder again keeping and checking every response, and a
  // short ladder with the capacity probe after it.
  QueryGen gen(options.seed, shape);
  std::uint64_t next_id = 1;
  const double ladder_s = options.trace ? options.seconds / 3 : options.seconds;
  std::vector<Ladder> ladders;
  ladders.push_back(serve_ladder(options, shape, gen, ladder_s, 32, false, next_id));
  if (options.trace) {
    ladders.push_back(serve_ladder(options, shape, gen, ladder_s, 1, false, next_id));
    ladders.push_back(serve_ladder(options, shape, gen, ladder_s / 4, 1u << 30, true, next_id));
  }
  const Ladder& ladder = ladders.front();

  std::uint64_t attempted = 0, failed = 0, checked = 0, mismatched = 0;
  for (const auto& l : ladders) {
    attempted += l.attempted;
    failed += l.failed;
    checked += l.checked;
    mismatched += l.mismatched;
  }
  report.check(checked > 0 && mismatched == 0,
               "advisord_mix: " + std::to_string(checked) +
                   " kept responses equal the in-process Advisor rendering");
  report.check(failed == 0,
               "advisord_mix: every request at the nominal rates and at saturation answered ok");
  report.attempt(attempted, failed);
  char line[160];
  std::snprintf(line, sizeof(line),
                "advisord_mix: %.1f answers per reference CPU-second of the server at "
                "saturation (median of %zu segments)",
                median(ladder.saturated_rates), ladder.saturated_rates.size());
  Report::note(line);
  if (!options.trace) {
    set_end_to_end(report, median(setups), ladder.server_rss_mb, median(ladder.saturated_rates),
                   attempted, failed);
    return;
  }

  std::vector<double> late, validated;
  std::size_t analytic = 0, hits = 0;
  for (const auto& rung : ladder.rungs) {
    for (const auto& s : rung.samples) {
      late.push_back(s.late_us);
      if (s.kind == Kind::kValidated) {
        validated.push_back(s.ok ? s.latency_us * 1e-3 : std::numeric_limits<double>::infinity());
      } else {
        ++analytic;
        hits += s.cached ? 1 : 0;
      }
    }
  }
  const auto& nominal = ladder.rungs.front();
  const auto delta = [&](const char* key) {
    return json_number(ladder.stats_after, key) - json_number(ladder.stats_before, key);
  };
  const auto vp99 = percentile(validated, 0.99);
  const auto late_p99 = percentile(late, 0.99);
  Report::note("advisord_mix: validated p" + std::to_string(vp99.q * 100) + " over " +
               std::to_string(vp99.samples) + " samples; generator lateness p" +
               std::to_string(late_p99.q * 100) + " over " + std::to_string(late_p99.samples));
  report.set("advise_p50_us", nominal.p50.value, "us");
  report.set("advise_p99_us", nominal.p99.value, "us");
  report.set("validated_p99_ms", vp99.value, "ms");
  report.set("advise_max_qps", ladders.back().max_qps, "1/s");
  report.set("error_ratio", Ratio{static_cast<double>(failed), static_cast<double>(attempted)}.value(),
             "ratio");
  report.set("serve.hit_ratio", Ratio{static_cast<double>(hits), static_cast<double>(analytic)}.value(),
             "ratio");
  // Distinct misses computed per dispatcher batch (coalesced misses ride
  // along without being computed).
  report.set("serve.batch_mean", Ratio{delta("misses") - delta("coalesced"), delta("batches")}.value(),
             "count");
  report.set("serve.coalesced", delta("coalesced"), "count");
  report.set("serve.shed", delta("shed"), "count");
  report.set("gen.late_p99_us", late_p99.value, "us");
  report.set("trace.overhead_frac", trace_overhead(median(ladder.saturated_rates),
                                                    median(ladders[1].saturated_rates)),
             "ratio");
}

}  // namespace perfbench
