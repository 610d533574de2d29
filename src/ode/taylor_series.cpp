#include "ode/taylor_series.hpp"

#include <stdexcept>
#include <utility>

namespace nncs {

namespace {

void check_same_order(const TaylorSeries& a, const TaylorSeries& b) {
  if (a.order() != b.order()) {
    throw std::invalid_argument("TaylorSeries: order mismatch");
  }
}

// Interval operations under the exact-zero rule (see the class comment):
// a [0, 0] operand leaves a sum unchanged and annihilates a product.

Interval add(const Interval& a, const Interval& b) {
  if (is_exact_zero(b)) {
    return a;
  }
  return is_exact_zero(a) ? b : a + b;
}

Interval sub(const Interval& a, const Interval& b) {
  if (is_exact_zero(b)) {
    return a;
  }
  return is_exact_zero(a) ? -b : a - b;
}

Interval mul(const Interval& a, const Interval& b) {
  return is_exact_zero(a) || is_exact_zero(b) ? Interval{} : a * b;
}

Interval div(const Interval& a, const Interval& b) { return is_exact_zero(a) ? Interval{} : a / b; }

}  // namespace

TaylorSeries::TaylorSeries(std::size_t order) : coeffs_(order + 1, Interval{}) {}

TaylorSeries::TaylorSeries(std::size_t order, const Interval& value)
    : coeffs_(order + 1, Interval{}) {
  coeffs_[0] = value;
}

Interval TaylorSeries::eval(const Interval& t) const { return eval_prefix(t, order()); }

Interval TaylorSeries::eval_prefix(const Interval& t, std::size_t k_max) const {
  if (coeffs_.empty()) {
    return Interval{};
  }
  const std::size_t last = std::min(k_max, order());
  Interval acc = coeffs_[last];
  for (std::size_t k = last; k-- > 0;) {
    acc = add(coeffs_[k], mul(t, acc));
  }
  return acc;
}

TaylorSeries& TaylorSeries::operator+=(const TaylorSeries& rhs) {
  check_same_order(*this, rhs);
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    coeffs_[k] = add(coeffs_[k], rhs.coeffs_[k]);
  }
  return *this;
}

TaylorSeries& TaylorSeries::operator-=(const TaylorSeries& rhs) {
  check_same_order(*this, rhs);
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    coeffs_[k] = sub(coeffs_[k], rhs.coeffs_[k]);
  }
  return *this;
}

TaylorSeries operator+(const TaylorSeries& a, const TaylorSeries& b) {
  TaylorSeries r = a;
  r += b;
  return r;
}

TaylorSeries operator-(const TaylorSeries& a, const TaylorSeries& b) {
  TaylorSeries r = a;
  r -= b;
  return r;
}

TaylorSeries operator-(const TaylorSeries& a) {
  TaylorSeries r(a.order());
  for (std::size_t k = 0; k <= a.order(); ++k) {
    r[k] = -a[k];
  }
  return r;
}

TaylorSeries operator*(const TaylorSeries& a, const TaylorSeries& b) {
  check_same_order(a, b);
  TaylorSeries r(a.order());
  for (std::size_t k = 0; k <= a.order(); ++k) {
    Interval acc{};
    for (std::size_t i = 0; i <= k; ++i) {
      acc = add(acc, mul(a[i], b[k - i]));
    }
    r[k] = acc;
  }
  return r;
}

TaylorSeries operator*(const Interval& k, const TaylorSeries& a) {
  TaylorSeries r(a.order());
  for (std::size_t i = 0; i <= a.order(); ++i) {
    r[i] = mul(k, a[i]);
  }
  return r;
}

TaylorSeries operator*(const TaylorSeries& a, const Interval& k) { return k * a; }

TaylorSeries operator+(const TaylorSeries& a, const Interval& k) {
  TaylorSeries r = a;
  r[0] = add(r[0], k);
  return r;
}

TaylorSeries operator+(const Interval& k, const TaylorSeries& a) { return a + k; }

TaylorSeries operator-(const TaylorSeries& a, const Interval& k) {
  TaylorSeries r = a;
  r[0] = sub(r[0], k);
  return r;
}

TaylorSeries operator-(const Interval& k, const TaylorSeries& a) { return -a + k; }

std::pair<TaylorSeries, TaylorSeries> sincos(const TaylorSeries& u) {
  const std::size_t order = u.order();
  TaylorSeries s(order);
  TaylorSeries c(order);
  s[0] = sin(u[0]);
  c[0] = cos(u[0]);
  for (std::size_t k = 1; k <= order; ++k) {
    Interval s_acc{};
    Interval c_acc{};
    for (std::size_t j = 1; j <= k; ++j) {
      const Interval ju = Interval{static_cast<double>(j)} * u[j];
      s_acc = add(s_acc, mul(ju, c[k - j]));
      c_acc = add(c_acc, mul(ju, s[k - j]));
    }
    // 1/k is not exactly representable for all k; divide in interval
    // arithmetic to stay sound.
    const Interval k_iv{static_cast<double>(k)};
    s[k] = div(s_acc, k_iv);
    c[k] = -div(c_acc, k_iv);
  }
  return {std::move(s), std::move(c)};
}

TaylorSeries sin(const TaylorSeries& u) { return sincos(u).first; }

TaylorSeries cos(const TaylorSeries& u) { return sincos(u).second; }

TaylorSeries sqr(const TaylorSeries& u) { return u * u; }

}  // namespace nncs
