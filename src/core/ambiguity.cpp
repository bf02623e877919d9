#include "core/ambiguity.hpp"

#include <cmath>
#include <stdexcept>

namespace uwp::core {

void translate_leader_to_origin_inplace(std::vector<Vec2>& pts) {
  if (pts.empty()) return;
  const Vec2 origin = pts[0];
  for (Vec2& p : pts) p = p - origin;
}

void resolve_rotation_inplace(std::vector<Vec2>& pts, double pointing_bearing_rad) {
  if (pts.size() < 2) return;
  if (pts[0].norm() > 1e-9)
    throw std::invalid_argument("resolve_rotation: node 0 must be at the origin");
  const double current = bearing(pts[1]);
  const double delta = wrap_angle(pointing_bearing_rad - current);
  for (Vec2& p : pts) p = rotate(p, delta);
}

void flip_configuration_into(std::vector<Vec2>& out, const std::vector<Vec2>& pts) {
  if (pts.size() < 2) {
    out = pts;
    return;
  }
  out.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    out[i] = reflect_across_line(pts[i], pts[0], pts[1]);
}

double flip_vote_score(const std::vector<Vec2>& pts, const std::vector<MicVote>& votes) {
  if (pts.size() < 2) return 0.0;
  double score = 0.0;
  for (const MicVote& v : votes) {
    if (v.node >= pts.size() || v.node < 2 || v.mic_sign == 0) continue;
    const double side = side_of_line(pts[v.node], pts[0], pts[1]);
    const double s = side > 0.0 ? 1.0 : (side < 0.0 ? -1.0 : 0.0);
    score += static_cast<double>(v.mic_sign) * s;
  }
  return score;
}

}  // namespace uwp::core
