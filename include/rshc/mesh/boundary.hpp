#pragma once
// Physical boundary conditions on the primitive ghost zones.
//   kPeriodic — handled by the halo fill (copy_halo / pack-unpack; a
//               single periodic block is its own neighbour), listed here
//               so a full BC specification can be stored per axis.
//   kOutflow  — zero-gradient copy of the nearest interior layer.
//   kReflect  — mirror interior layers; variables listed in
//               ReflectSpec::negate_vars (normal velocity, normal B) flip
//               sign.

#include <array>
#include <string_view>
#include <vector>

#include "rshc/mesh/block.hpp"

namespace rshc::mesh {

enum class BcType { kPeriodic, kOutflow, kReflect };

[[nodiscard]] std::string_view bc_name(BcType t);
[[nodiscard]] BcType parse_bc(std::string_view name);

/// Per-axis boundary specification (same type on both faces).
struct BoundarySpec {
  std::array<BcType, 3> type = {BcType::kPeriodic, BcType::kPeriodic,
                                BcType::kPeriodic};

  [[nodiscard]] bool periodic(int axis) const {
    return type[static_cast<std::size_t>(axis)] == BcType::kPeriodic;
  }
  static BoundarySpec all(BcType t) { return {{t, t, t}}; }
};

/// Apply a non-periodic physical BC to the (axis, side) ghost face of `b`.
/// `negate_vars` lists primitive variable indices whose sign flips under
/// reflection (ignored for outflow).
void apply_physical_boundary(Block& b, int axis, int side, BcType type,
                             std::span<const int> negate_vars);

}  // namespace rshc::mesh
