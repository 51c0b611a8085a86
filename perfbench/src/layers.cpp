// Per-layer probes of traced runs.
//
// Each probe times calls into one layer's public functions, from outside,
// on inputs generated from the seed in the shapes the workloads use:
// N = 200,000 for the exponential source and FailureState, the fleet
// workload's shards for the stores and the wire, the advisord mix's
// queries for the serve and model layers.  Nothing here is instrumented
// inside src/.
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/simulate.hpp"
#include "core/advisor.hpp"
#include "core/arena.hpp"
#include "core/engine.hpp"
#include "failures/exponential_source.hpp"
#include "failures/renewal_source.hpp"
#include "failures/trace_source.hpp"
#include "fleet/wire.hpp"
#include "model/periods.hpp"
#include "model/units.hpp"
#include "platform/state.hpp"
#include "prng/distributions.hpp"
#include "prng/xoshiro.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "traces/scaling.hpp"
#include "traces/synthetic.hpp"
#include "util/canonical_key.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace repcheck;

namespace {

constexpr std::uint64_t kPaperN = 200000;

void probe_failures(const Options& options, Report& report, std::size_t scale) {
  const double mu = model::years(5.0);
  prng::Xoshiro256pp rng(options.seed);
  report.set("prng.xoshiro_ns", time_per_call_ns(1000000 / scale, [&](std::size_t) { sink(rng()); }),
             "ns");
  failures::ExponentialFailureSource exp_source(kPaperN, mu, options.seed);
  report.set("failures.exp_next_ns",
             time_per_call_ns(1000000 / scale, [&](std::size_t) { sink(exp_source.next().time); }),
             "ns");
  const prng::WeibullSampler law(0.7, mu / std::tgamma(1.0 + 1.0 / 0.7));
  failures::RenewalFailureSource renewal(
      20000, [law](prng::Xoshiro256pp& r) { return law(r); }, options.seed);
  report.set("failures.renewal_next_ns",
             time_per_call_ns(200000 / scale, [&](std::size_t) { sink(renewal.next().time); }),
             "ns");
  auto trace = traces::make_lanl2_like(options.seed);
  const auto groups = traces::GroupedTraceSchedule::groups_for_target(trace, kPaperN, mu);
  traces::GroupedTraceSchedule schedule(std::move(trace), kPaperN / (2 * groups) * (2 * groups),
                                        groups);
  failures::TraceFailureSource trace_source(schedule, options.seed);
  report.set("failures.trace_next_ns",
             time_per_call_ns(200000 / scale, [&](std::size_t) { sink(trace_source.next().time); }),
             "ns");
}

/// FailureState at N = 200,000 with mc_paper's mix: hits land as in a
/// restart run at T_opt^rs (C = 60 s, mu = 5 y), with a restart_all at
/// each checkpoint and after each fatal hit.
void probe_platform(const Options& options, Report& report, std::size_t scale) {
  const auto platform = platform::Platform::fully_replicated(kPaperN);
  const double mu = model::years(5.0);
  const double period = model::t_opt_rs(60.0, kPaperN / 2, mu);
  const auto hits_per_period =
      static_cast<std::size_t>(std::max(1.0, static_cast<double>(kPaperN) * period / mu));
  failures::ExponentialFailureSource source(kPaperN, mu, options.seed);
  std::vector<std::uint64_t> procs(400000 / scale);
  for (auto& p : procs) p = source.next().proc;
  platform::FailureState state(platform);
  std::size_t wasted = 0, degraded = 0, fatal = 0;
  const double record_ns = time_per_call_ns(procs.size(), [&](std::size_t i) {
    const auto effect = state.record_failure(procs[i]);
    if (effect == platform::FailureEffect::kFatal || (i + 1) % hits_per_period == 0) {
      state.restart_all();
    }
    wasted += effect == platform::FailureEffect::kWasted;
    degraded += effect == platform::FailureEffect::kDegraded;
    fatal += effect == platform::FailureEffect::kFatal;
  });
  report.set("platform.record_ns", record_ns, "ns");
  Report::note("platform.record_ns mix: " + std::to_string(wasted) + " wasted, " +
               std::to_string(degraded) + " degraded, " + std::to_string(fatal) + " fatal");
  report.set("platform.reset_ns", time_per_call_ns(20000 / scale, [&](std::size_t i) {
               state.record_failure(procs[i]);
               state.reset(platform);
               state.restart_all();
             }),
             "ns");
}

void probe_periodic(const Options& options, Report& report) {
  const double mu = model::years(5.0);
  const double c = 60.0;
  const struct {
    const char* name;
    sim::StrategySpec strategy;
    platform::Platform platform;
  } cases[] = {
      {"restart", sim::StrategySpec::restart(model::t_opt_rs(c, kPaperN / 2, mu)),
       platform::Platform::fully_replicated(kPaperN)},
      {"no_restart", sim::StrategySpec::no_restart(model::t_opt_rs(c, kPaperN / 2, mu)),
       platform::Platform::fully_replicated(kPaperN)},
      {"no_replication",
       sim::StrategySpec::no_replication(model::young_daly_period_parallel(c, mu, kPaperN)),
       platform::Platform::not_replicated(kPaperN)},
  };
  sim::RunSpec spec;
  spec.n_periods = 100;
  for (const auto& k : cases) {
    const sim::PeriodicEngine engine(k.platform, platform::CostModel::uniform(c, 1.0), k.strategy);
    failures::ExponentialFailureSource source(kPaperN, mu);
    sim::SimArena arena;
    std::vector<double> us;
    for (std::uint64_t i = 0; i < 25; ++i) {
      const auto t0 = Clock::now();
      sink(engine.run(source, spec, sim::derive_run_seed(options.seed, i), nullptr, &arena)
               .makespan);
      us.push_back(seconds_since(t0) * 1e6);
    }
    report.set(std::string("core.periodic_run_us.") + k.name, median(us), "us");
  }
}

/// The fleet workload's first shards: real keys, points and summaries.
struct ShardRecord {
  campaign::SweepPoint point;
  std::uint64_t seed = 0, begin = 0, end = 0;
  std::string key;
  sim::MonteCarloSummary summary;
};

std::vector<ShardRecord> fleet_shards(const Options& options, std::size_t count) {
  std::vector<ShardRecord> shards;
  for (std::size_t i = 0; shards.size() < count; ++i) {
    ShardRecord r;
    r.point = {{"c", 60.0 * static_cast<double>(1 + i % 4)},
               {"mtbf_years", static_cast<double>(1 + i % 5)},
               {"procs", std::int64_t{200}},
               {"runs", std::int64_t{640}},
               {"periods", std::int64_t{20}}};
    r.seed = campaign::derive_point_seed(options.seed, r.point);
    r.begin = 5 * (i / 20);
    r.end = r.begin + 5;
    r.key = campaign::shard_key(r.point, options.seed, r.begin, r.end);
    r.summary = campaign::simulate_standard_point(r.point, r.begin, r.end, r.seed);
    shards.push_back(std::move(r));
  }
  return shards;
}

void probe_campaign_and_wire(const Options& options, Report& report, std::size_t scale) {
  const auto shards = fleet_shards(options, 512 / scale);
  const fs::path dir = fs::path(options.run_dir) / "probe_stores";
  fs::remove_all(dir);
  {
    campaign::ResultCache cache(dir / "cache");
    std::size_t i = 0;
    report.set("campaign.cache_insert_us", 1e-3 * time_per_call_ns(shards.size(), [&](std::size_t k) {
                 const auto& r = shards[k];
                 cache.insert(r.key + std::to_string(i++), r.point, r.seed, r.begin, r.end,
                              r.summary);
               }),
               "us");
    campaign::Journal journal(dir / "campaign.journal");
    report.set("campaign.journal_append_us",
               1e-3 * time_per_call_ns(shards.size(), [&](std::size_t k) {
                 journal.mark_done(shards[k].key + std::to_string(i++), shards[k].point,
                                   shards[k].summary);
               }),
               "us");
  }
  fs::remove_all(dir);

  std::string frame;
  serve::FrameBuffer frames;
  const auto round_trip = [&](auto&& append) {
    frame.clear();
    append(frame);
    frames.append(frame);
    std::string_view payload;
    if (frames.next(payload) != serve::FrameBuffer::Status::kFrame) {
      throw std::runtime_error("wire probe: incomplete frame");
    }
    sink(static_cast<std::uint64_t>(fleet::parse_message(payload).index()));
  };
  report.set("fleet.wire_lease_ns", time_per_call_ns(shards.size(), [&](std::size_t k) {
               const auto& r = shards[k];
               round_trip([&](std::string& out) {
                 fleet::append_lease(out, {k + 1, r.key, r.point, r.seed, r.begin, r.end, "fleet"});
               });
             }),
             "ns");
  report.set("fleet.wire_result_ns", time_per_call_ns(shards.size(), [&](std::size_t k) {
               const auto& r = shards[k];
               round_trip([&](std::string& out) {
                 fleet::ResultMsg msg;
                 msg.epoch = k + 1;
                 msg.key = r.key;
                 msg.ok = true;
                 msg.summary = r.summary;
                 msg.worker = "w0";
                 fleet::append_result(out, msg);
               });
             }),
             "ns");

  // Merging shard summaries, as the runner does per point.
  sim::MonteCarloSummary merged;
  report.set("core.mc_merge_us", 1e-3 * time_per_call_ns(shards.size(), [&](std::size_t k) {
               merged.merge(shards[k].summary);
             }),
             "us");
  sink(merged.overhead.mean());
}

void probe_serve_and_model(const Options& options, Report& report, std::size_t scale) {
  // An advisord_mix-shaped analytic query and a validated one.
  const std::string payload =
      "{\"id\":7,\"op\":\"advise\",\"n\":200000,\"mtbf\":" + std::to_string(3.0e7 + options.seed) +
      ",\"c\":60,\"w\":1e6,\"gamma\":1e-5}";
  const std::string validated_payload =
      "{\"id\":8,\"op\":\"advise\",\"n\":2000,\"mtbf\":" + std::to_string(3.0e7 + options.seed) +
      ",\"c\":60,\"w\":1e5,\"gamma\":1e-5,\"validate\":true,\"runs\":8,\"seed\":1}";
  serve::RequestView view;
  std::string error;
  if (!serve::parse_request(payload, view, error)) throw std::runtime_error(error);
  report.set("serve.parse_ns", time_per_call_ns(200000 / scale, [&](std::size_t) {
               serve::RequestView v;
               sink(static_cast<std::uint64_t>(serve::parse_request(payload, v, error)));
             }),
             "ns");
  util::CanonicalKey scratch;
  char hex[util::kContentKeyHexChars];
  report.set("serve.key_ns", time_per_call_ns(200000 / scale, [&](std::size_t) {
               serve::query_key(view, scratch, hex);
               sink(static_cast<std::uint64_t>(hex[0]));
             }),
             "ns");

  serve::CachedAnswer answer;
  answer.advice.analytic = sim::Advisor::recommend(view.platform, view.app, view.w_seq);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 4096; ++i) {
    serve::RequestView v = view;
    v.platform.mtbf_proc += static_cast<double>(i);
    serve::query_key(v, scratch, hex);
    keys.emplace_back(hex, util::kContentKeyHexChars);
  }
  serve::MemoCache cache(16, 1u << 20);
  report.set("serve.cache_insert_ns", time_per_call_ns(keys.size(), [&](std::size_t i) {
               cache.insert(keys[i], answer);
             }, 1),
             "ns");
  report.set("serve.cache_lookup_ns", time_per_call_ns(keys.size(), [&](std::size_t i) {
               serve::CachedAnswer out;
               sink(static_cast<std::uint64_t>(cache.lookup(keys[i], out)));
             }),
             "ns");

  serve::Service::Options service_options;
  service_options.pool = nullptr;
  serve::Service service(service_options);
  std::string out;
  (void)service.process(payload, out);  // fill the memo-cache: later calls hit
  report.set("serve.process_hit_us", 1e-3 * time_per_call_ns(100000 / scale, [&](std::size_t) {
               out.clear();
               sink(static_cast<std::uint64_t>(service.process(payload, out)));
             }),
             "us");
  report.set("model.recommend_us", 1e-3 * time_per_call_ns(20000 / scale, [&](std::size_t) {
               sink(static_cast<std::uint64_t>(
                   sim::Advisor::recommend(view.platform, view.app, view.w_seq).plan));
             }),
             "us");
  serve::RequestView vview;
  if (!serve::parse_request(validated_payload, vview, error)) throw std::runtime_error(error);
  report.set("model.recommend_validated_ms", 1e-6 * time_per_call_ns(5, [&](std::size_t i) {
               sink(sim::Advisor::recommend_validated(vview.platform, vview.app, vview.w_seq,
                                                      vview.runs, vview.seed + i)
                        .simulated_tts_restart);
             }),
             "ms");
}

}  // namespace

void run_layer_probes(const Options& options, Report& report) {
  const std::size_t scale = options.smoke ? 20 : 1;
  probe_failures(options, report, scale);
  probe_platform(options, report, scale);
  probe_periodic(options, report);
  probe_engine_runs(options, report);
  probe_campaign_and_wire(options, report, scale);
  probe_serve_and_model(options, report, scale);
  // Client-side median minus the in-process hit path: what the socket,
  // framing and connection thread add (advisord_mix only).
  const auto& m = report.metrics();
  const double client_p50 = m.at("advise_p50_us").first;
  if (client_p50 > 0.0) {
    report.set("serve.transport_us", client_p50 - m.at("serve.process_hit_us").first, "us");
  }
}

}  // namespace perfbench
