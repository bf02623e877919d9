#include "core/tracker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/linalg.hpp"

namespace uwp::core {

DiverTrack::DiverTrack(TrackerConfig cfg)
    : cfg_(cfg), state_(4, 1), cov_(Matrix::identity(4) * 1e4) {}

void DiverTrack::predict(double dt_s) {
  if (!initialized_ || dt_s <= 0.0) return;
  // Velocity decay keeps coasting bounded when rounds stop arriving.
  const double decay = std::exp(-dt_s / cfg_.velocity_decay_tau_s);

  Matrix f = Matrix::identity(4);
  f(0, 2) = dt_s;
  f(1, 3) = dt_s;
  f(2, 2) = decay;
  f(3, 3) = decay;

  // Discrete white-noise acceleration model.
  const double q = cfg_.accel_noise * cfg_.accel_noise;
  const double dt2 = dt_s * dt_s;
  const double dt3 = dt2 * dt_s / 2.0;
  const double dt4 = dt2 * dt2 / 4.0;
  Matrix qm(4, 4);
  qm(0, 0) = qm(1, 1) = q * dt4;
  qm(0, 2) = qm(2, 0) = qm(1, 3) = qm(3, 1) = q * dt3;
  qm(2, 2) = qm(3, 3) = q * dt2;

  state_ = f * state_;
  cov_ = f * cov_ * f.transposed() + qm;

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
  Matrix s(2, 2);
  s(0, 0) = cov_(0, 0) + r;
  s(0, 1) = cov_(0, 1);
  s(1, 0) = cov_(1, 0);
  s(1, 1) = cov_(1, 1) + r;
  // Mahalanobis distance of the innovation.
  const std::vector<double> solved = solve(s, std::vector<double>{ix, iy});
  const double maha2 = ix * solved[0] + iy * solved[1];
  if (maha2 > cfg_.gate_sigmas * cfg_.gate_sigmas) return false;

  // Kalman gain K = P H^T S^-1 (4x2).
  const Matrix s_inv = inverse(s);
  Matrix pht(4, 2);
  for (std::size_t row = 0; row < 4; ++row) {
    pht(row, 0) = cov_(row, 0);
    pht(row, 1) = cov_(row, 1);
  }
  const Matrix k = pht * s_inv;

  Matrix innovation(2, 1);
  innovation(0, 0) = ix;
  innovation(1, 0) = iy;
  state_ += k * innovation;

  // Joseph-free covariance update: P = (I - K H) P.
  Matrix kh(4, 4);
  for (std::size_t row = 0; row < 4; ++row) {
    kh(row, 0) = k(row, 0);
    kh(row, 1) = k(row, 1);
  }
  cov_ = (Matrix::identity(4) - kh) * cov_;
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
