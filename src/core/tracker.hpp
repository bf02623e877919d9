// Continuous tracking across localization rounds — the paper's stated future
// work (§5 "Localization versus tracking"): fuse the user-initiated acoustic
// snapshots with a motion model so positions remain available between rounds
// without continuous acoustic transmissions.
//
// Each diver gets an independent constant-velocity Kalman filter in the
// horizontal plane (depth comes from the depth sensor each round and needs
// no filtering). Acoustic rounds arrive at multi-second intervals with
// meter-scale noise; the filter smooths jitter and coasts through missed
// rounds, with the covariance reporting how stale the estimate is.
#pragma once

#include <optional>
#include <vector>

#include "util/geometry.hpp"
#include "util/matrix.hpp"

namespace uwp::core {

struct TrackerConfig {
  // Process noise: random-walk acceleration magnitude (m/s^2). Divers swim
  // gently; 0.02 m/s^2 tracks 15-56 cm/s meandering well at 5 s round intervals.
  double accel_noise = 0.02;
  // Default measurement noise for one localization round (meters, 1 sigma).
  double measurement_sigma_m = 0.9;
  // Velocity decays toward zero with this time constant (seconds) during
  // prediction; divers do not drift forever on old velocity estimates.
  double velocity_decay_tau_s = 20.0;
  // Gate: measurements further than this many sigmas from the prediction
  // are rejected as outliers (bad rounds).
  double gate_sigmas = 4.0;
};

// Constant-velocity Kalman filter for one diver, state [x, y, vx, vy].
class DiverTrack {
 public:
  explicit DiverTrack(TrackerConfig cfg = {});

  bool initialized() const { return initialized_; }

  // Advance the motion model by dt seconds. A dt so large that the state or
  // covariance stops being finite resets the track to uninitialized.
  void predict(double dt_s);

  // Fuse a position measurement. `sigma_m` overrides the configured
  // measurement noise when positive. Returns false when the measurement was
  // gated out as an outlier (filter state unchanged).
  bool update(Vec2 measured, double sigma_m = -1.0);

  Vec2 position() const;
  Vec2 velocity() const;
  double speed() const { return velocity().norm(); }

  // 1-sigma position uncertainty (max of the x/y standard deviations).
  double position_sigma() const;

 private:
  TrackerConfig cfg_;
  bool initialized_ = false;
  Matrix state_;  // 4x1
  Matrix cov_;    // 4x4
};

// Group tracker: one DiverTrack per device (leader excluded, it is the
// origin). Feeds each localization round into the per-diver filters.
class GroupTracker {
 public:
  GroupTracker(std::size_t num_devices, TrackerConfig cfg = {});

  std::size_t size() const { return tracks_.size() + 1; }

  void predict(double dt_s);

  // positions[i] is the round's estimate for device i (index 0 ignored);
  // nullopt entries are skipped (device not localized this round).
  void update(const std::vector<std::optional<Vec2>>& positions,
              double sigma_m = -1.0);

  const DiverTrack& track(std::size_t device) const;

 private:
  std::vector<DiverTrack> tracks_;  // device 1..N-1
};

}  // namespace uwp::core
