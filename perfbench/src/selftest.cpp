// perfbench_selftest: unit checks of the benchmark's own arithmetic — the
// percentile rule, ratio bases, metric-name validity, the JSON field
// reader and the host-speed scaling.  Exits 1 on the first failed expectation.  perfbench/selftest.py
// runs it, then a smoke configuration of every workload.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void percentile_rule() {
  using perfbench::percentile;
  // 1000 samples: p99 is rank 990, with 10 samples beyond it.
  auto p = percentile(one_to(1000), 0.99);
  expect(p.supported && p.value == 990.0 && p.beyond == 10 && p.q == 0.99, "p99 of 1..1000");
  // 500 samples cannot support p99 (5 beyond): report p98 (rank 490).
  p = percentile(one_to(500), 0.99);
  expect(p.supported && p.value == 490.0 && p.beyond == 10 && std::abs(p.q - 0.98) < 1e-12,
         "p99 of 1..500 falls back to p98");
  // The median needs 10 samples beyond it too.
  p = percentile(one_to(11), 0.5);
  expect(p.supported && p.value == 1.0 && p.beyond == 10, "p50 of 11 samples clamps to rank 1");
  p = percentile(one_to(10), 0.5);
  expect(!p.supported && p.samples == 10, "10 samples support no percentile");
  p = percentile(one_to(100), 0.5);
  expect(p.value == 50.0 && p.beyond == 50, "p50 of 1..100");
  // Failed requests enter as +inf and push the tail up.
  auto with_failures = one_to(1000);
  for (int i = 0; i < 20; ++i) with_failures[static_cast<std::size_t>(i)] = INFINITY;
  p = percentile(with_failures, 0.99);
  expect(std::isinf(p.value), "20 failures in 1000 put p99 at infinity");
}

void ratio_bases() {
  using perfbench::Ratio;
  expect(Ratio{3, 4}.value() == 0.75, "3 of 4");
  expect(Ratio{0, 0}.value() == 0.0, "an empty base reads 0");
  // error ratio: failed over attempted, never over succeeded.
  expect(Ratio{1, 100}.value() == 0.01, "1 failed of 100 attempted");
  // hit ratio: hits over analytic requests (validated excluded by caller).
  const double hits = 940, analytic = 990;
  expect(std::abs(Ratio{hits, analytic}.value() - 940.0 / 990.0) < 1e-15, "hits / analytic");
  expect(perfbench::median({3, 1, 2}) == 2.0 && perfbench::median({4, 1, 2, 3}) == 2.5,
         "median of odd and even counts");
}

void metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"setup_s", "core.periodic_run_us.no_replication", "p99", "a-b.c_d",
                         "9lives"}) {
    expect(valid_metric_name(ok), std::string("valid: ") + ok);
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/no", "uni\xc3\xa9"}) {
    expect(!valid_metric_name(bad), std::string("invalid: ") + bad);
  }
  expect(valid_metric_name(std::string(64, 'a')) && !valid_metric_name(std::string(65, 'a')),
         "64 characters at most");
  perfbench::Report report;
  bool threw = false;
  try {
    report.set("bad name", 1.0, "s");
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "Report::set rejects an invalid name");
}

void json_fields() {
  using perfbench::json_number;
  const std::string stats = R"({"ok":true,"misses":12,"coalesced":3,"batch_mean":1.5e0})";
  expect(json_number(stats, "misses") == 12.0 && json_number(stats, "batch_mean") == 1.5,
         "json_number reads integer and exponent fields");
  expect(json_number(stats, "shed") == 0.0, "an absent field reads 0");
  expect(json_number(stats, "mis") == 0.0, "a key prefix is not a match");
}

void reference_scaling() {
  using perfbench::kReferenceSpeed;
  using perfbench::reference_rate;
  using perfbench::reference_seconds;
  expect(reference_rate(300.0, 2.0, kReferenceSpeed) == 150.0,
         "at the reference speed a reference CPU-second is a CPU-second");
  expect(reference_rate(300.0, 2.0, kReferenceSpeed / 2) == 300.0,
         "on a host at half the reference speed, 2 CPU-seconds are 1 reference second");
  expect(reference_seconds(0.5, 2 * kReferenceSpeed) == 1.0, "a fast host's second counts double");
  const double speed = perfbench::host_speed(2);
  expect(std::isfinite(speed) && speed > 0.0, "host_speed measures a positive speed");
}

void result_line() {
  perfbench::Report report;
  report.attempt(5, 1);
  report.set("work_per_s", 123.5, "1/s");
  report.check(true, "selftest check");
  const auto line = report.render_result();
  expect(line == "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": "
                 "{\"work_per_s\": {\"value\": 123.5, \"unit\": \"1/s\"}}}",
         "result line shape: " + line);
  report.check(false, "selftest failing check (expected)");
  expect(!report.correct(), "a failed check makes the run incorrect");
}

}  // namespace

int main() {
  percentile_rule();
  ratio_bases();
  metric_names();
  json_fields();
  reference_scaling();
  result_line();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
