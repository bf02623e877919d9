#include "core/localizer.hpp"

#include <cmath>
#include <stdexcept>

#include "core/projection.hpp"

namespace uwp::core {

LocalizationResult Localizer::localize(const LocalizationInput& input,
                                       uwp::Rng& rng) const {
  LocalizerWorkspace ws;
  LocalizationResult out;
  localize_into(out, input, rng, ws);
  return out;
}

void Localizer::localize_into(LocalizationResult& out, const LocalizationInput& input,
                              uwp::Rng& rng, LocalizerWorkspace& ws,
                              const std::vector<Vec2>* warm_init) const {
  const std::size_t n = input.distances.rows();
  if (n < 2) throw std::invalid_argument("Localizer: need at least 2 devices");
  if (n > kMaxDevices) throw std::invalid_argument("Localizer: more than kMaxDevices devices");
  if (input.distances.cols() != n || input.weights.rows() != n ||
      input.weights.cols() != n || input.depths.size() != n)
    throw std::invalid_argument("Localizer: shape mismatch");

  // Step 1: project to the horizontal plane using depth readings (§2.1.1).
  project_to_2d_into(ws.d2d, input.distances, input.depths);

  // Step 2: topology via weighted SMACOF + Algorithm 1 outlier handling
  // (warm started when the caller has a predicted layout).
  localize_with_outlier_detection_into(ws.topo, ws.d2d, input.weights, opts_.outlier,
                                       rng, ws.outlier, warm_init);
  if (!std::isfinite(ws.topo.normalized_stress))
    throw std::domain_error("Localizer: non-finite stress (non-finite distances?)");

  // Step 3: fix translation, rotation, and flip (§2.1.4).
  std::vector<Vec2>& pts = ws.pts;
  pts.assign(ws.topo.positions.begin(), ws.topo.positions.end());
  translate_leader_to_origin_inplace(pts);
  resolve_rotation_inplace(pts, input.pointing_bearing_rad);
  flip_configuration_into(ws.mirrored, pts);
  const double score_original = flip_vote_score(pts, input.votes);
  const double score_flipped = flip_vote_score(ws.mirrored, input.votes);
  const bool flipped = score_flipped > score_original;
  const std::vector<Vec2>& chosen = flipped ? ws.mirrored : pts;

  out.normalized_stress = ws.topo.normalized_stress;
  out.dropped_links = ws.topo.dropped_links;
  out.outliers_suspected = ws.topo.outliers_suspected;
  out.solver_iterations = ws.topo.iterations;
  out.flipped = flipped;
  out.flip_vote_margin = static_cast<int>(std::abs(score_original - score_flipped));

  out.positions.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    out.positions[i] = {chosen[i].x, chosen[i].y, input.depths[i]};
}

}  // namespace uwp::core
