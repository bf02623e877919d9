// Reporting helpers shared by the benchmark harnesses: error aggregation and
// text-mode CDF/series printing in the shape of the paper's figures.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace uwp::sim {

// Print "label: median=... p95=... mean=... (n=...)" to stdout.
void print_summary_row(const std::string& label, std::span<const double> errors);

// Print a text CDF table: one "x p" row per point.
void print_cdf(const std::string& label, std::span<const double> values,
               std::size_t points = 11);

// Render a crude inline histogram bar (for eyeballing distributions in bench
// output).
std::string bar(double fraction, std::size_t width = 40);

// Filter values by a predicate index set: returns values[i] for i in idx.
std::vector<double> take(std::span<const double> values, std::span<const std::size_t> idx);

// Circular error probable: the radius containing `fraction` of the radial
// error samples (CEP50 by default — the localization literature's headline
// number). Throws std::invalid_argument on empty input or fraction outside
// [0, 1], matching uwp::percentile.
double cep(std::span<const double> radial_errors, double fraction = 0.5);

// Minimal google-benchmark-compatible JSON report for the plain-main()
// bench binaries: when `--benchmark_format=json` is on the command line,
// a bench collects named wall-clock timings and emits
//   {"context": {...}, "benchmarks": [{"name", "real_time", ...}]}
// to stdout, so CI can harvest perf numbers (BENCH_pipeline.json) with the
// same tooling it would use for google-benchmark binaries. Quantities that
// are not timings (rates, counts, errors) are entries with a "value" and a
// "unit" instead of a "real_time".
class BenchJsonReporter {
 public:
  // True when --benchmark_format=json was passed.
  static bool requested(int argc, char** argv);

  void add(const std::string& name, double real_seconds, std::size_t iterations = 1);
  // Like add, but also emits google-benchmark's "items_per_second" counter —
  // how bench_fleet reports aggregate rounds/sec next to latency entries.
  void add_with_rate(const std::string& name, double real_seconds,
                     std::size_t iterations, double items_per_second);
  // A non-timing quantity, e.g. add_value("shed_rate", 0.38, "ratio").
  void add_value(const std::string& name, double value, const std::string& unit);
  // Emit the JSON document to stdout.
  void write() const;

 private:
  struct Entry {
    std::string name;
    double seconds = 0.0;
    std::size_t iterations = 1;
    double items_per_second = 0.0;  // emitted when > 0
    double value = 0.0;             // add_value entries only
    std::string unit;               // non-empty marks an add_value entry
  };
  std::vector<Entry> entries_;
};

// Throughput/latency aggregate of a many-session serving run: rounds/sec
// over the wall clock plus p50/p99/p999 of the per-round service latencies
// (p999 is the tail the telemetry span histograms track — worth watching
// separately because a handful of slow solver rounds dominate it).
// Latencies may be empty (percentiles report 0); wall_seconds <= 0 reports
// 0 rounds/sec.
struct RateLatency {
  double rounds_per_sec = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
};

RateLatency rate_latency(std::size_t rounds, double wall_seconds,
                         std::span<const double> latencies_s);

}  // namespace uwp::sim
