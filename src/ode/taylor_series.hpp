#pragma once

#include <cstddef>
#include <vector>

#include "interval/interval.hpp"

namespace nncs {

/// Truncated Taylor series with interval coefficients:
///   x(t) = c[0] + c[1] t + ... + c[order] t^order.
///
/// This is the "Taylor-mode automatic differentiation" scalar used by the
/// validated integrator: evaluating the plant dynamics f over
/// `TaylorSeries` states yields the Taylor coefficients of f(s(t)), from
/// which the solution coefficients follow by the Picard recurrence
/// s_{k+1} = (f(s))_k / (k+1)  (Moore's interval Taylor-series method).
///
/// All arithmetic is truncated at `order()` and every coefficient operation
/// uses outward-rounded interval arithmetic, so a `TaylorSeries` soundly
/// encloses the true series prefix whenever its inputs do.
///
/// Exact-zero rule: a term with a degenerate [0, 0] operand is skipped
/// (sums, Cauchy products, `sincos`, Horner evaluation). Outward rounding
/// widens every sum by one ulp, 0 + 0 included, so without the rule each
/// exactly-zero coefficient would become [-4.9e-324, 4.9e-324] and every
/// later product would run on subnormals. Skipping such a term is an exact
/// identity, so results are sound and never wider than with the term.
class TaylorSeries {
 public:
  TaylorSeries() = default;

  /// Series with `order + 1` zero coefficients.
  explicit TaylorSeries(std::size_t order);

  /// Constant series: c[0] = value, higher coefficients zero.
  TaylorSeries(std::size_t order, const Interval& value);

  [[nodiscard]] std::size_t order() const { return coeffs_.empty() ? 0 : coeffs_.size() - 1; }

  /// Truncate to `order`, or extend to it with zero coefficients.
  void resize(std::size_t order) { coeffs_.resize(order + 1); }

  Interval& operator[](std::size_t k) { return coeffs_[k]; }
  const Interval& operator[](std::size_t k) const { return coeffs_[k]; }

  [[nodiscard]] const std::vector<Interval>& coeffs() const { return coeffs_; }

  /// Evaluate the polynomial part over a time interval via Horner's scheme
  /// (the caller adds any remainder term separately).
  [[nodiscard]] Interval eval(const Interval& t) const;

  /// Evaluate only coefficients [0, k_max] over `t` (used to combine a
  /// point-seeded prefix with an enclosure-seeded remainder coefficient).
  [[nodiscard]] Interval eval_prefix(const Interval& t, std::size_t k_max) const;

  TaylorSeries& operator+=(const TaylorSeries& rhs);
  TaylorSeries& operator-=(const TaylorSeries& rhs);

 private:
  std::vector<Interval> coeffs_;
};

/// True for the degenerate interval [0, 0] (the exact-zero rule's test).
inline bool is_exact_zero(const Interval& x) { return x.lo() == 0.0 && x.hi() == 0.0; }

TaylorSeries operator+(const TaylorSeries& a, const TaylorSeries& b);
TaylorSeries operator-(const TaylorSeries& a, const TaylorSeries& b);
TaylorSeries operator-(const TaylorSeries& a);
/// Truncated Cauchy product.
TaylorSeries operator*(const TaylorSeries& a, const TaylorSeries& b);
TaylorSeries operator*(const Interval& k, const TaylorSeries& a);
TaylorSeries operator*(const TaylorSeries& a, const Interval& k);
TaylorSeries operator+(const TaylorSeries& a, const Interval& k);
TaylorSeries operator+(const Interval& k, const TaylorSeries& a);
TaylorSeries operator-(const TaylorSeries& a, const Interval& k);
TaylorSeries operator-(const Interval& k, const TaylorSeries& a);

/// Joint sine/cosine of a series via the classical coupled recurrence
/// (s' = u' cos u, c' = -u' sin u).
std::pair<TaylorSeries, TaylorSeries> sincos(const TaylorSeries& u);
TaylorSeries sin(const TaylorSeries& u);
TaylorSeries cos(const TaylorSeries& u);
/// x^2 via the Cauchy product.
TaylorSeries sqr(const TaylorSeries& u);

}  // namespace nncs
