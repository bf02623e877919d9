#include "telemetry/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace uwp::telemetry {

Histogram::Histogram(double min_value, int buckets_per_octave,
                     std::size_t buckets)
    : min_(min_value), per_octave_(buckets_per_octave) {
  if (!(min_ > 0.0)) throw std::invalid_argument("histogram: min_value <= 0");
  if (per_octave_ < 1) throw std::invalid_argument("histogram: per_octave < 1");
  if (buckets < 1) throw std::invalid_argument("histogram: no buckets");
  counts_.assign(buckets, 0);
}

std::size_t Histogram::bucket_index(double v) const {
  if (!(v > min_)) return 0;
  // v / min = m * 2^e with m in [0.5, 1), so log2(v/min) = (e - 1) + f with
  // f = log2(2m) in [0, 1). frexp keeps octave boundaries exact: v = min*2^k
  // gives m = 0.5 exactly, f = 0, index k * P.
  // A finite v can still overflow the ratio (v / min_ = inf); frexp(inf)
  // leaves e unspecified, so the top of the range clamps explicitly.
  const double ratio = v / min_;
  if (!std::isfinite(ratio)) return counts_.size() - 1;
  int e = 0;
  const double m = std::frexp(ratio, &e);
  const double f = std::log2(2.0 * m);
  long idx = static_cast<long>(e - 1) * per_octave_ +
             static_cast<long>(f * double(per_octave_));
  idx = std::clamp(idx, 0L, static_cast<long>(counts_.size()) - 1);
  return static_cast<std::size_t>(idx);
}

double Histogram::bucket_lower_edge(std::size_t b) const {
  // Nominal edge, then ulp-correct: exp2 here and the log2 inside
  // bucket_index round independently, so the nominal intra-octave edge can
  // land one bucket off. The reported edge is the smallest double that
  // actually maps to bucket b — bucket_index is monotone in v, so each loop
  // moves at most a few ulps and they cannot oscillate.
  double edge = min_ * std::exp2(double(b) / double(per_octave_));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (bucket_index(edge) > b) edge = std::nextafter(edge, 0.0);
  while (bucket_index(edge) < b) edge = std::nextafter(edge, kInf);
  return edge;
}

void Histogram::record(double v) {
  if (!std::isfinite(v)) return;
  ++counts_[bucket_index(v)];
  if (count_ == 0) {
    min_seen_ = max_seen_ = v;
  } else {
    min_seen_ = std::min(min_seen_, v);
    max_seen_ = std::max(max_seen_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), cumulative walk.
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * double(count_))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    cum += counts_[b];
    if (cum >= target) {
      // Geometric midpoint of the bucket, clamped to the observed range so
      // single-bucket histograms report the actual value, not bucket math.
      const double mid =
          min_ * std::exp2((double(b) + 0.5) / double(per_octave_));
      return std::clamp(mid, min_seen_, max_seen_);
    }
  }
  return max_seen_;
}

void Histogram::merge(const Histogram& o) {
  if (o.counts_.size() != counts_.size() || o.per_octave_ != per_octave_ ||
      o.min_ != min_)
    throw std::invalid_argument("histogram: merge geometry mismatch");
  if (o.count_ == 0) return;
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += o.counts_[b];
  if (count_ == 0) {
    min_seen_ = o.min_seen_;
    max_seen_ = o.max_seen_;
  } else {
    min_seen_ = std::min(min_seen_, o.min_seen_);
    max_seen_ = std::max(max_seen_, o.max_seen_);
  }
  count_ += o.count_;
  sum_ += o.sum_;
}

}  // namespace uwp::telemetry
