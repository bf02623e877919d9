// The full 3D localization pipeline (§2.1): depth projection -> weighted
// SMACOF with outlier detection -> translation/rotation/flip disambiguation
// -> 3D positions (leader at the horizontal origin). This is the library's
// primary public entry point; it is signal-free and consumes the outputs of
// the protocol layer (distance matrix), the depth sensors, and the leader's
// dual-mic votes.
#pragma once

#include <vector>

#include "core/ambiguity.hpp"
#include "core/outlier_detection.hpp"
#include "util/geometry.hpp"
#include "util/matrix.hpp"

namespace uwp::core {

struct LocalizationInput {
  // Symmetric NxN pairwise 3D distances (meters); entry ignored when the
  // corresponding weight is 0. Node 0 is the leader, node 1 the pointed
  // (visible) diver.
  Matrix distances;
  // Symmetric link indicator matrix (1 = measured, 0 = missing).
  Matrix weights;
  // Depths from onboard sensors, meters below surface, length N.
  std::vector<double> depths;
  // Bearing from leader to the pointed diver in the output frame (radians);
  // comes from the leader orienting toward node 1 (§2.1.4).
  double pointing_bearing_rad = 0.0;
  // Dual-mic first-arrival votes from divers 2..N-1 at the leader device.
  std::vector<MicVote> votes;
};

struct LocalizationResult {
  std::vector<Vec3> positions;  // leader at (0, 0, depth_0)
  double normalized_stress = 0.0;
  std::vector<Edge> dropped_links;
  bool outliers_suspected = false;
  bool flipped = false;
  int flip_vote_margin = 0;  // |score difference|, proxy for confidence
  // SMACOF iterations spent across the base solve and every outlier-search
  // candidate (OutlierResult::iterations): deterministic solver cost.
  std::int64_t solver_iterations = 0;
};

struct LocalizerOptions {
  OutlierOptions outlier{};
};

// Reusable scratch threaded through the whole solve (projection, SMACOF +
// outlier search, ambiguity resolution). One workspace per thread; results
// are bit-identical to the workspace-free path whether cold or warm.
struct LocalizerWorkspace {
  Matrix d2d;
  OutlierWorkspace outlier;
  OutlierResult topo;
  std::vector<Vec2> pts, mirrored;
};

class Localizer {
 public:
  explicit Localizer(LocalizerOptions opts = {}) : opts_(opts) {}

  // Throws std::invalid_argument on malformed input (shape mismatch, N < 2,
  // N > kMaxDevices) and std::domain_error when the solve ends with a
  // non-finite stress (a NaN or inf distance on a link): such a round has no
  // layout to report.
  LocalizationResult localize(const LocalizationInput& input, uwp::Rng& rng) const;

  // Workspace variant: same results, near-zero heap allocation once `ws`
  // and `out` are warm. `warm_init` (optional) seeds the SMACOF base solve
  // with a predicted 2D layout — same frame as the solver's internal
  // coordinates, i.e. a previous round's pre-disambiguation topology or a
  // tracker prediction re-expressed there — replacing the cold classical-MDS
  // + random-restarts seed (and its rng draws).
  void localize_into(LocalizationResult& out, const LocalizationInput& input,
                     uwp::Rng& rng, LocalizerWorkspace& ws,
                     const std::vector<Vec2>* warm_init = nullptr) const;

 private:
  LocalizerOptions opts_;
};

}  // namespace uwp::core
