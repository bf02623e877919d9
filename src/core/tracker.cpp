#include "core/tracker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/linalg.hpp"

namespace uwp::core {

namespace {

// Scratch for predict/update, one per thread rather than per track: a warm
// track allocates nothing, and the thousands of tracks a serving shard
// holds carry no buffers beyond their own state.
struct Scratch {
  Matrix f, q, s, s_inv, pht, k, innovation, left, prod, col, lu;
  std::vector<double> x;
  std::vector<std::size_t> perm;
};

Scratch& scratch() {
  thread_local Scratch ws;
  return ws;
}

}  // namespace

DiverTrack::DiverTrack(TrackerConfig cfg)
    : cfg_(cfg), state_(4, 1), cov_(Matrix::identity(4) * 1e4) {}

void DiverTrack::predict(double dt_s) {
  if (!initialized_ || dt_s <= 0.0) return;
  // Velocity decay keeps coasting bounded when rounds stop arriving.
  const double decay = std::exp(-dt_s / cfg_.velocity_decay_tau_s);

  Scratch& ws = scratch();
  Matrix& f = ws.f;
  f.assign(4, 4);
  f(0, 0) = f(1, 1) = 1.0;
  f(0, 2) = dt_s;
  f(1, 3) = dt_s;
  f(2, 2) = decay;
  f(3, 3) = decay;

  // Discrete white-noise acceleration model.
  const double q = cfg_.accel_noise * cfg_.accel_noise;
  const double dt2 = dt_s * dt_s;
  const double dt3 = dt2 * dt_s / 2.0;
  const double dt4 = dt2 * dt2 / 4.0;
  Matrix& qm = ws.q;
  qm.assign(4, 4);
  qm(0, 0) = qm(1, 1) = q * dt4;
  qm(0, 2) = qm(2, 0) = qm(1, 3) = qm(3, 1) = q * dt3;
  qm(2, 2) = qm(3, 3) = q * dt2;

  // x = F x;  P = F P F^T + Q.
  multiply_into(ws.col, f, state_);
  state_ = ws.col;
  multiply_into(ws.left, f, cov_);
  for (std::size_t r = 0; r < 4; ++r)  // F becomes F^T in place
    for (std::size_t c = r + 1; c < 4; ++c) std::swap(f(r, c), f(c, r));
  multiply_into(ws.prod, ws.left, f);
  ws.prod += qm;
  cov_ = ws.prod;

  // A horizon long enough to overflow the model (a hostile or corrupt dt)
  // leaves nothing worth tracking: start over from the next measurement
  // rather than gate and warm-start from inf/NaN.
  const auto finite = [](const Matrix& m) {
    return std::all_of(m.data().begin(), m.data().end(),
                       [](double v) { return std::isfinite(v); });
  };
  if (!finite(state_) || !finite(cov_)) *this = DiverTrack(cfg_);
}

bool DiverTrack::update(Vec2 measured, double sigma_m) {
  const double sigma = sigma_m > 0.0 ? sigma_m : cfg_.measurement_sigma_m;
  const double r = sigma * sigma;

  if (!initialized_) {
    state_(0, 0) = measured.x;
    state_(1, 0) = measured.y;
    state_(2, 0) = 0.0;
    state_(3, 0) = 0.0;
    cov_ = Matrix::identity(4);
    cov_(0, 0) = cov_(1, 1) = r;
    cov_(2, 2) = cov_(3, 3) = 0.25;  // ~0.5 m/s initial velocity uncertainty
    initialized_ = true;
    return true;
  }

  // Innovation and gating (H = [I2 0]).
  const double ix = measured.x - state_(0, 0);
  const double iy = measured.y - state_(1, 0);
  Scratch& ws = scratch();
  Matrix& s = ws.s;
  s.assign(2, 2);
  s(0, 0) = cov_(0, 0) + r;
  s(0, 1) = cov_(0, 1);
  s(1, 0) = cov_(1, 0);
  s(1, 1) = cov_(1, 1) + r;
  // Mahalanobis distance of the innovation.
  const double innov[2] = {ix, iy};
  solve_into(s, innov, ws.x, ws.lu, ws.perm);
  const double maha2 = ix * ws.x[0] + iy * ws.x[1];
  if (maha2 > cfg_.gate_sigmas * cfg_.gate_sigmas) return false;

  // Kalman gain K = P H^T S^-1 (4x2); S^-1 column by column, as inverse().
  ws.s_inv.assign(2, 2);
  const double unit[2][2] = {{1.0, 0.0}, {0.0, 1.0}};
  for (std::size_t c = 0; c < 2; ++c) {
    solve_into(s, unit[c], ws.x, ws.lu, ws.perm);
    ws.s_inv(0, c) = ws.x[0];
    ws.s_inv(1, c) = ws.x[1];
  }
  ws.pht.assign(4, 2);
  for (std::size_t row = 0; row < 4; ++row) {
    ws.pht(row, 0) = cov_(row, 0);
    ws.pht(row, 1) = cov_(row, 1);
  }
  multiply_into(ws.k, ws.pht, ws.s_inv);
  const Matrix& k = ws.k;

  ws.innovation.assign(2, 1);
  ws.innovation(0, 0) = ix;
  ws.innovation(1, 0) = iy;
  multiply_into(ws.col, k, ws.innovation);
  state_ += ws.col;

  // Joseph-free covariance update: P = (I - K H) P.
  Matrix& ikh = ws.left;
  ikh.assign(4, 4);
  for (std::size_t row = 0; row < 4; ++row) {
    ikh(row, row) = 1.0;
    ikh(row, 0) -= k(row, 0);
    ikh(row, 1) -= k(row, 1);
  }
  multiply_into(ws.prod, ikh, cov_);
  cov_ = ws.prod;
  return true;
}

Vec2 DiverTrack::position() const { return {state_(0, 0), state_(1, 0)}; }

Vec2 DiverTrack::velocity() const { return {state_(2, 0), state_(3, 0)}; }

double DiverTrack::position_sigma() const {
  return std::sqrt(std::max(cov_(0, 0), cov_(1, 1)));
}

GroupTracker::GroupTracker(std::size_t num_devices, TrackerConfig cfg) {
  if (num_devices < 2)
    throw std::invalid_argument("GroupTracker: need at least 2 devices");
  tracks_.assign(num_devices - 1, DiverTrack(cfg));
}

void GroupTracker::predict(double dt_s) {
  for (DiverTrack& t : tracks_) t.predict(dt_s);
}

void GroupTracker::update(const std::vector<std::optional<Vec2>>& positions,
                          double sigma_m) {
  for (std::size_t i = 1; i < positions.size() && i <= tracks_.size(); ++i)
    if (positions[i]) tracks_[i - 1].update(*positions[i], sigma_m);
}

const DiverTrack& GroupTracker::track(std::size_t device) const {
  if (device == 0 || device > tracks_.size())
    throw std::invalid_argument("GroupTracker: bad device index");
  return tracks_[device - 1];
}

}  // namespace uwp::core
