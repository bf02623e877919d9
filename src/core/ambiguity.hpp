// Rotation and flipping disambiguation (§2.1.4). The MDS topology is only
// determined up to rotation/translation/reflection. Translation is fixed by
// putting the leader (node 0) at the origin; rotation by the requirement
// that the leader points at a visible diver (node 1); the remaining mirror
// ambiguity across the leader->node1 line is resolved by voting with the
// leader's dual-microphone first-arrival signs.
#pragma once

#include <vector>

#include "util/geometry.hpp"

namespace uwp::core {

// One vote from the signal of diver `node` (node >= 2): `mic_sign` is
// sgn(mic1_tap - mic2_tap) at the leader device, where mic 2 sits on the
// LEFT of the leader's pointing direction. A diver on the left reaches mic 2
// first (mic2_tap < mic1_tap -> mic_sign = +1).
struct MicVote {
  std::size_t node = 0;
  int mic_sign = 0;  // +1, -1, or 0 (uninformative)
};

// Translate in place so node 0 is at the origin.
void translate_leader_to_origin_inplace(std::vector<Vec2>& pts);

// Rotate in place about the origin so node 1 lies at absolute bearing
// `pointing_bearing_rad` from node 0. Throws std::invalid_argument unless
// node 0 is already at the origin.
void resolve_rotation_inplace(std::vector<Vec2>& pts, double pointing_bearing_rad);

// Write into `out` (a reused buffer) the mirror image of the configuration
// across the node0->node1 line.
void flip_configuration_into(std::vector<Vec2>& out, const std::vector<Vec2>& pts);

// Voting function V({P}) (§2.1.4): sum over votes of
// mic_sign * sgn(side_of_line(P_node, P_0, P_1)). The localizer keeps the
// mirrored configuration only when it scores strictly higher.
double flip_vote_score(const std::vector<Vec2>& pts, const std::vector<MicVote>& votes);

}  // namespace uwp::core
