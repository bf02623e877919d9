#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/simd.hpp"

namespace uwp::sim {

void print_summary_row(const std::string& label, std::span<const double> errors) {
  if (errors.empty()) {
    std::printf("%-36s  (no samples)\n", label.c_str());
    return;
  }
  const Summary s = summarize(errors);
  std::printf("%-36s median=%6.2f  p95=%6.2f  mean=%6.2f  (n=%zu)\n", label.c_str(),
              s.median, s.p95, s.mean, s.count);
}

void print_cdf(const std::string& label, std::span<const double> values,
               std::size_t points) {
  std::printf("%s CDF:\n", label.c_str());
  for (const auto& [x, p] : cdf_points(values, points))
    std::printf("  %8.3f  %5.3f  %s\n", x, p, bar(p).c_str());
}

std::string bar(double fraction, std::size_t width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const std::size_t filled = static_cast<std::size_t>(fraction * static_cast<double>(width));
  std::string out(filled, '#');
  out.resize(width, '.');
  return out;
}

std::vector<double> take(std::span<const double> values,
                         std::span<const std::size_t> idx) {
  std::vector<double> out;
  out.reserve(idx.size());
  for (std::size_t i : idx)
    if (i < values.size()) out.push_back(values[i]);
  return out;
}

double cep(std::span<const double> radial_errors, double fraction) {
  if (fraction < 0.0 || fraction > 1.0)
    throw std::invalid_argument("cep: fraction out of [0, 1]");
  return percentile(radial_errors, fraction * 100.0);
}

bool BenchJsonReporter::requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--benchmark_format=json") == 0) return true;
  return false;
}

void BenchJsonReporter::add(const std::string& name, double real_seconds,
                            std::size_t iterations) {
  entries_.push_back({name, real_seconds, -1.0, iterations, 0.0, 0.0, {}});
}

void BenchJsonReporter::add_with_rate(const std::string& name, double real_seconds,
                                      std::size_t iterations, double items_per_second,
                                      double cpu_seconds) {
  entries_.push_back(
      {name, real_seconds, cpu_seconds, iterations, items_per_second, 0.0, {}});
}

void BenchJsonReporter::add_value(const std::string& name, double value,
                                  const std::string& unit) {
  entries_.push_back({name, 0.0, -1.0, 1, 0.0, value, unit});
}

void BenchJsonReporter::write() const {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::printf("{\n  \"context\": {\n");
  std::printf("    \"library_build_type\": \"%s\",\n", build_type);
  std::printf("    \"num_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::printf("    \"simd\": \"%s\",\n", simd::kBackendName);
  std::printf("    \"uwp_simd\": \"%s\"\n", simd::kSimdSetting);
  std::printf("  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", e.name.c_str());
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": %zu,\n", e.iterations);
    if (!e.unit.empty()) {
      std::printf("      \"value\": %.6e,\n", e.value);
      std::printf("      \"unit\": \"%s\"\n", e.unit.c_str());
    } else {
      const double iters = static_cast<double>(e.iterations);
      const double per_iter_ms = e.seconds / iters * 1e3;
      std::printf("      \"real_time\": %.6e,\n", per_iter_ms);
      std::printf("      \"cpu_time\": %.6e,\n",
                  e.cpu_seconds >= 0.0 ? e.cpu_seconds / iters * 1e3 : per_iter_ms);
      if (e.items_per_second > 0.0)
        std::printf("      \"items_per_second\": %.6e,\n", e.items_per_second);
      std::printf("      \"time_unit\": \"ms\"\n");
    }
    std::printf("    }%s\n", i + 1 < entries_.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

RateLatency rate_latency(std::size_t rounds, double wall_seconds,
                         std::span<const double> latencies_s) {
  RateLatency out;
  if (wall_seconds > 0.0)
    out.rounds_per_sec = static_cast<double>(rounds) / wall_seconds;
  if (!latencies_s.empty()) {
    out.p50_s = percentile(latencies_s, 50.0);
    out.p99_s = percentile(latencies_s, 99.0);
    out.p999_s = percentile(latencies_s, 99.9);
  }
  return out;
}

}  // namespace uwp::sim
