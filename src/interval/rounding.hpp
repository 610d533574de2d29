#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

/// Directed-rounding primitives.
///
/// We do not rely on `fesetround` (fragile under optimizing compilers without
/// `-frounding-math` and not thread-friendly). Instead every arithmetic
/// result is widened by one ulp in the required direction (`next_up` /
/// `next_down`, exact inline clones of `std::nextafter`). With IEEE-754
/// correctly-rounded `+ - * /` (error <= 0.5 ulp), one step is a sound
/// outward bound; the price is at most one extra ulp of conservatism per
/// operation.
///
/// Standard-library transcendentals (`sin`, `exp`, ...) are not guaranteed
/// correctly rounded; glibc documents errors of a few ulps, so we widen those
/// results by `kLibmUlps` steps.
namespace nncs::rnd {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Number of one-ulp steps used to bound libm transcendental error.
inline constexpr int kLibmUlps = 4;

/// Smallest double strictly above `x`: bit-for-bit `std::nextafter(x, +inf)`
/// for every input. Finite and infinite values step the sign-magnitude
/// integer representation by one (±0 lands on the smallest positive
/// subnormal, +inf stays put); NaN returns libm's own `x + y`, which quiets
/// the payload exactly as `nextafter` does. The batched kernels' AVX2
/// `next_up_pd` is the vector clone of this function.
inline double next_up(double x) {
  if (std::isnan(x)) {
    return x + kInf;
  }
  if (x == 0.0) {
    return std::bit_cast<double>(std::uint64_t{1});
  }
  const auto bits = std::bit_cast<std::uint64_t>(x);
  if (bits == 0x7ff0000000000000ULL) {  // +inf
    return x;
  }
  return std::bit_cast<double>((bits >> 63) == 0 ? bits + 1 : bits - 1);
}

/// Largest double strictly below `x`: bit-for-bit `std::nextafter(x, -inf)`
/// (mirror image of `next_up`; identity on -inf).
inline double next_down(double x) {
  if (std::isnan(x)) {
    return x + -kInf;
  }
  if (x == 0.0) {
    return std::bit_cast<double>(std::uint64_t{0x8000000000000001ULL});
  }
  const auto bits = std::bit_cast<std::uint64_t>(x);
  if (bits == 0xfff0000000000000ULL) {  // -inf
    return x;
  }
  return std::bit_cast<double>((bits >> 63) == 0 ? bits - 1 : bits + 1);
}

/// Move `x` down by `n` ulps.
inline double step_down(double x, int n) {
  for (int i = 0; i < n; ++i) {
    x = next_down(x);
  }
  return x;
}

/// Move `x` up by `n` ulps.
inline double step_up(double x, int n) {
  for (int i = 0; i < n; ++i) {
    x = next_up(x);
  }
  return x;
}

inline double add_down(double a, double b) { return next_down(a + b); }
inline double add_up(double a, double b) { return next_up(a + b); }
inline double sub_down(double a, double b) { return next_down(a - b); }
inline double sub_up(double a, double b) { return next_up(a - b); }
inline double mul_down(double a, double b) { return next_down(a * b); }
inline double mul_up(double a, double b) { return next_up(a * b); }
inline double div_down(double a, double b) { return next_down(a / b); }
inline double div_up(double a, double b) { return next_up(a / b); }

}  // namespace nncs::rnd
