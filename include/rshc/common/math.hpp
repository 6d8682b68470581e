#pragma once
// Small branch-light math helpers shared by reconstruction and physics
// kernels. All are constexpr-friendly and safe to call inside SIMD loops.

#include <algorithm>
#include <cmath>

namespace rshc {

[[nodiscard]] constexpr double sq(double x) { return x * x; }
[[nodiscard]] constexpr double cube(double x) { return x * x * x; }

[[nodiscard]] constexpr double sign(double x) {
  return (x > 0.0) - (x < 0.0);
}

// The limiters are single select expressions, so a loop that calls them
// if-converts and vectorizes (src/recon/reconstruct.cpp).

/// minmod limiter of two arguments.
[[nodiscard]] constexpr double minmod(double a, double b) {
  return a * b <= 0.0 ? 0.0 : (std::abs(a) < std::abs(b) ? a : b);
}

/// minmod limiter of three arguments.
[[nodiscard]] constexpr double minmod3(double a, double b, double c) {
  return minmod(a, minmod(b, c));
}

/// Monotonized-central (MC) limited slope from left/right differences.
[[nodiscard]] constexpr double mc_slope(double dqm, double dqp) {
  return minmod3(0.5 * (dqm + dqp), 2.0 * dqm, 2.0 * dqp);
}

/// van Leer (harmonic) limited slope from left/right differences. The
/// quotient is formed unconditionally and discarded where prod <= 0 (where
/// dqm + dqp may be zero): no value changes, and the select needs no branch.
[[nodiscard]] inline double van_leer_slope(double dqm, double dqp) {
  const double prod = dqm * dqp;
  const double harmonic = 2.0 * prod / (dqm + dqp);
  return prod <= 0.0 ? 0.0 : harmonic;
}

/// Relative difference |a-b| / max(|a|,|b|,floor).
[[nodiscard]] inline double rel_diff(double a, double b,
                                     double floor = 1e-300) {
  const double scale = std::max({std::abs(a), std::abs(b), floor});
  return std::abs(a - b) / scale;
}

/// True if |a-b| <= atol + rtol*max(|a|,|b|).
[[nodiscard]] inline bool close(double a, double b, double rtol = 1e-12,
                                double atol = 1e-14) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

}  // namespace rshc
