// google-benchmark microbenches for the hot kernels: FFT, preamble
// cross-correlation, LS channel estimation, SMACOF, the pebble game,
// Viterbi decoding and the channel simulator. Ablation pairs (classical MDS
// vs SMACOF; smooth FFT vs Bluestein) are included for the design choices
// DESIGN.md calls out, and every util/simd_kernels.hpp kernel runs as a
// scalar-vs-SIMD template pair so `--benchmark_format=json` shows the
// per-kernel speedup of the active backend directly.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "channel/propagation.hpp"
#include "core/mds_classical.hpp"
#include "core/rigidity.hpp"
#include "core/smacof.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fft.hpp"
#include "phy/channel_estimator.hpp"
#include "phy/convolutional.hpp"
#include "phy/ofdm_preamble.hpp"
#include "phy/preamble_detector.hpp"
#include "util/linalg.hpp"
#include "util/random.hpp"
#include "util/simd_kernels.hpp"

namespace {

void BM_Fft1920(benchmark::State& state) {
  uwp::Rng rng(1);
  std::vector<uwp::dsp::cplx> x(1920);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) benchmark::DoNotOptimize(uwp::dsp::fft(x));
}
BENCHMARK(BM_Fft1920);

void BM_FftBluestein1918(benchmark::State& state) {
  // 1918 = 2 * 7 * 137: forces the Bluestein path (ablation vs smooth 1920).
  uwp::Rng rng(2);
  std::vector<uwp::dsp::cplx> x(1918);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) benchmark::DoNotOptimize(uwp::dsp::fft(x));
}
BENCHMARK(BM_FftBluestein1918);

void BM_PreambleXcorr(benchmark::State& state) {
  uwp::Rng rng(3);
  const uwp::phy::OfdmPreamble preamble{uwp::phy::PreambleConfig{}};
  std::vector<double> stream(44100);
  for (auto& v : stream) v = rng.normal(0.0, 0.1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        uwp::dsp::normalized_cross_correlate(stream, preamble.waveform()));
}
BENCHMARK(BM_PreambleXcorr);

void BM_LsChannelEstimate(benchmark::State& state) {
  uwp::Rng rng(4);
  const uwp::phy::OfdmPreamble preamble{uwp::phy::PreambleConfig{}};
  std::vector<double> stream(20000);
  for (auto& v : stream) v = rng.normal(0.0, 0.05);
  for (std::size_t i = 0; i < preamble.waveform().size(); ++i)
    stream[5000 + i] += preamble.waveform()[i];
  const uwp::phy::LsChannelEstimator est(preamble);
  for (auto _ : state) benchmark::DoNotOptimize(est.estimate(stream, 5000));
}
BENCHMARK(BM_LsChannelEstimate);

std::pair<uwp::Matrix, uwp::Matrix> mds_problem(std::size_t n, uwp::Rng& rng) {
  std::vector<uwp::Vec2> pts(n);
  for (auto& p : pts) p = {rng.uniform(-20, 20), rng.uniform(-20, 20)};
  uwp::Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) d(i, j) = distance(pts[i], pts[j]);
  return {d, uwp::Matrix::ones(n, n)};
}

void BM_Smacof(benchmark::State& state) {
  uwp::Rng rng(5);
  const auto [d, w] = mds_problem(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    uwp::Rng r(6);
    benchmark::DoNotOptimize(uwp::core::smacof_2d(d, w, {}, r));
  }
}
BENCHMARK(BM_Smacof)->Arg(5)->Arg(8)->Arg(12);

// V^+ of 8-device K8-minus-5 candidate patterns, the work a candidate solve
// spends before its first Guttman iteration. Each iteration takes the next
// of all 98,280 patterns (every one connected: K8 loses no node to 5
// dropped links). The Cholesky row is smacof_v_pinv's connected path; the
// Jacobi row builds the same V and runs the eigendecomposition-based
// pseudo-inverse every solve used before. Their difference is the V^+
// layer's share of a candidate solve.
void vpinv_patterns(benchmark::State& state, bool cholesky) {
  static const std::vector<std::array<std::uint8_t, 5>> drops = [] {
    std::vector<std::array<std::uint8_t, 5>> out;
    for (std::uint8_t a = 0; a < 28; ++a)
      for (std::uint8_t b = a + 1; b < 28; ++b)
        for (std::uint8_t c = b + 1; c < 28; ++c)
          for (std::uint8_t d = c + 1; d < 28; ++d)
            for (std::uint8_t e = d + 1; e < 28; ++e) out.push_back({a, b, c, d, e});
    return out;
  }();
  std::vector<std::pair<std::size_t, std::size_t>> links;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = i + 1; j < 8; ++j) links.emplace_back(i, j);
  uwp::Matrix w = uwp::Matrix::ones(8, 8);
  for (std::size_t i = 0; i < 8; ++i) w(i, i) = 0.0;
  const auto set_links = [&](const std::array<std::uint8_t, 5>& drop, double value) {
    for (const std::size_t l : drop)
      w(links[l].first, links[l].second) = w(links[l].second, links[l].first) = value;
  };
  uwp::core::SmacofWorkspace ws;
  uwp::Matrix v(8, 8), v_pinv;
  uwp::EigenWorkspace eigen;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::array<std::uint8_t, 5>& drop = drops[next];
    if (++next == drops.size()) next = 0;
    set_links(drop, 0.0);
    if (cholesky) {
      benchmark::DoNotOptimize(uwp::core::smacof_v_pinv(w, ws));
    } else {
      for (std::size_t i = 0; i < 8; ++i) {
        double diag = 0.0;
        for (std::size_t j = 0; j < 8; ++j) {
          if (j == i) continue;
          v(i, j) = -w(i, j);
          diag += w(i, j);
        }
        v(i, i) = diag;
      }
      uwp::pseudo_inverse_symmetric_into(v, v_pinv, eigen);
      benchmark::DoNotOptimize(v_pinv.data().data());
    }
    benchmark::ClobberMemory();
    set_links(drop, 1.0);
  }
}

void BM_VPinvCholesky(benchmark::State& state) { vpinv_patterns(state, true); }
BENCHMARK(BM_VPinvCholesky);

void BM_VPinvJacobi(benchmark::State& state) { vpinv_patterns(state, false); }
BENCHMARK(BM_VPinvJacobi);

void BM_ClassicalMds(benchmark::State& state) {
  uwp::Rng rng(7);
  const auto [d, w] = mds_problem(8, rng);
  for (auto _ : state) benchmark::DoNotOptimize(uwp::core::classical_mds_2d(d));
}
BENCHMARK(BM_ClassicalMds);

void BM_PebbleGameK8(benchmark::State& state) {
  std::vector<uwp::core::Edge> edges;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = i + 1; j < 8; ++j) edges.emplace_back(i, j);
  for (auto _ : state)
    benchmark::DoNotOptimize(uwp::core::is_uniquely_realizable_2d(8, edges));
}
BENCHMARK(BM_PebbleGameK8);

// The per-round case: a 5-device group with 7 of its 10 links (minimally
// rigid, and too few links to be 3-connected).
void BM_UniquelyRealizable5(benchmark::State& state) {
  const std::vector<uwp::core::Edge> edges = {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                              {1, 4}, {2, 3}, {3, 4}};
  for (auto _ : state)
    benchmark::DoNotOptimize(uwp::core::is_uniquely_realizable_2d(5, edges));
}
BENCHMARK(BM_UniquelyRealizable5);

void BM_ViterbiDecode(benchmark::State& state) {
  uwp::Rng rng(8);
  std::vector<std::uint8_t> bits(58);
  for (auto& b : bits) b = rng.bernoulli(0.5);
  const auto coded = uwp::phy::ConvolutionalCode::encode_r23(bits);
  for (auto _ : state)
    benchmark::DoNotOptimize(uwp::phy::ConvolutionalCode::decode_r23(coded, 58));
}
BENCHMARK(BM_ViterbiDecode);

void BM_ChannelTransmit(benchmark::State& state) {
  uwp::Rng rng(9);
  const uwp::phy::OfdmPreamble preamble{uwp::phy::PreambleConfig{}};
  const uwp::channel::LinkSimulator link(uwp::channel::make_dock(), 44100.0);
  uwp::channel::LinkConfig cfg;
  cfg.tx_pos = {0, 0, 2};
  cfg.rx_pos = {20, 0, 2};
  for (auto _ : state)
    benchmark::DoNotOptimize(link.transmit(preamble.waveform(), cfg, rng));
}
BENCHMARK(BM_ChannelTransmit);

// --- scalar-vs-SIMD kernel pairs --------------------------------------------
// Each fixture builds one representative problem (sized like the fleet's hot
// path: fully connected groups of `n` devices) and runs the same kernel
// under ScalarOps and the build's ActiveOps. Both backends are always
// compiled, so a single binary reports the pair; with UWP_SIMD=off the two
// entries coincide by construction.

struct GuttmanProblem {
  std::size_t np;
  std::size_t mp;  // padded link count
  std::vector<double> x, y, w, d, dij, bvals;
  std::vector<std::uint32_t> li, lj;

  explicit GuttmanProblem(std::size_t n) : np(n) {
    uwp::Rng rng(10);
    const std::size_t m = n * (n - 1) / 2;
    mp = uwp::simd::padded(m);
    x.assign(uwp::simd::padded(n), 0.0);
    y.assign(uwp::simd::padded(n), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform(-20, 20);
      y[i] = rng.uniform(-20, 20);
    }
    li.assign(mp, 0);
    lj.assign(mp, 0);
    w.assign(mp, 0.0);
    d.assign(mp, 0.0);
    dij.assign(mp, 0.0);
    bvals.assign(mp, 0.0);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j, ++k) {
        li[k] = static_cast<std::uint32_t>(i);
        lj[k] = static_cast<std::uint32_t>(j);
        w[k] = 1.0;
        d[k] = rng.uniform(1.0, 40.0);
      }
  }
};

// One SMACOF Guttman step's per-link work: stress + distances, then the
// B(X) off-diagonal values.
template <class Ops>
void BM_KernelGuttmanStep(benchmark::State& state) {
  GuttmanProblem p(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const double stress = uwp::kernels::link_stress<Ops>(
        p.x.data(), p.y.data(), p.li.data(), p.lj.data(), p.w.data(), p.d.data(),
        p.dij.data(), p.mp);
    benchmark::DoNotOptimize(stress);
    uwp::kernels::guttman_b_values<Ops>(p.w.data(), p.d.data(), p.dij.data(),
                                        p.bvals.data(), p.mp);
    benchmark::DoNotOptimize(p.bvals.data());
  }
}
BENCHMARK_TEMPLATE(BM_KernelGuttmanStep, uwp::simd::ScalarOps)->Arg(6)->Arg(12);
BENCHMARK_TEMPLATE(BM_KernelGuttmanStep, uwp::simd::ActiveOps)->Arg(6)->Arg(12);

// The pseudoinverse's rank-1 accumulation (the pinv hot loop).
template <class Ops>
void BM_KernelPinvAxpy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  uwp::Rng rng(11);
  std::vector<double> out(n * n, 0.0), col(n, 0.0);
  for (auto& v : col) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    for (std::size_t r = 0; r < n; ++r)
      uwp::kernels::axpy<Ops>(out.data() + r * n, 0.5 * col[r], col.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK_TEMPLATE(BM_KernelPinvAxpy, uwp::simd::ScalarOps)->Arg(6)->Arg(12);
BENCHMARK_TEMPLATE(BM_KernelPinvAxpy, uwp::simd::ActiveOps)->Arg(6)->Arg(12);

// One Gauss-Newton iteration's residual/normal-equation accumulation over
// all anchors (the trilateration inner loop).
template <class Ops>
void BM_KernelTrilatResiduals(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t pad = uwp::simd::padded(n);
  uwp::Rng rng(12);
  std::vector<double> ax(pad, 0.0), ay(pad, 0.0), r(pad, 0.0), mask(pad, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    ax[i] = rng.uniform(-30, 30);
    ay[i] = rng.uniform(-30, 30);
    r[i] = rng.uniform(5, 50);
    mask[i] = 1.0;
  }
  for (auto _ : state) {
    const uwp::kernels::TrilatAccum acc = uwp::kernels::trilat_accumulate<Ops>(
        ax.data(), ay.data(), r.data(), mask.data(), pad, 1.5, -2.5);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK_TEMPLATE(BM_KernelTrilatResiduals, uwp::simd::ScalarOps)->Arg(5)->Arg(11);
BENCHMARK_TEMPLATE(BM_KernelTrilatResiduals, uwp::simd::ActiveOps)->Arg(5)->Arg(11);

}  // namespace

BENCHMARK_MAIN();
