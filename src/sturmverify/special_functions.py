"""Half-step Pochhammer products, the multivariate gamma function, the
cone-transform normalizing constant, and the exact bivariate polynomial
generated by the transform's coefficient sum.

Exact paths run on ``fractions.Fraction``: every root, shift and pole in
sight is a half-integer, so rational arithmetic is closed and "is at a
pole" is an exact predicate, never a floating comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .errors import PoleError, UnsupportedRegimeError

FOUR_PI = 4.0 * math.pi


def c_poch(length: int, alpha):
    """Half-step rising product alpha (alpha + 1/2) ... (alpha + (length-1)/2).

    The empty product (length = 0) is 1.  Rational input gives an exact
    Fraction, float input a float.
    """
    if length < 0:
        raise ValueError(f"length {length} must be nonnegative")
    if isinstance(alpha, Rational):
        out = Fraction(1)
        a = Fraction(alpha)
        for j in range(length):
            out *= a + Fraction(j, 2)
        return out
    out = 1.0
    for j in range(length):
        out *= alpha + 0.5 * j
    return out


def gamma_m_pole_order(m: int, s) -> int:
    """Pole order of the m-variate gamma at s (0 when regular).

    The conversion Fraction(s) is exact for float input, so half-integer
    arguments are classified exactly.
    """
    s = Fraction(s)
    order = 0
    for nu in range(m):
        a = s - Fraction(nu, 2)
        if a.denominator == 1 and a <= 0:
            order += 1
    return order


def gamma_m(m: int, s) -> float:
    """Multivariate gamma pi^{m(m-1)/4} prod_{nu<m} Gamma(s - nu/2).

    Raises PoleError carrying the pole order when any factor sits at a
    nonpositive integer, and OverflowError when the value is outside the
    double range.
    """
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    order = gamma_m_pole_order(m, s)
    if order:
        raise PoleError(f"multivariate gamma has a pole of order {order} at s={s}", order=order)
    sf = float(s)
    out = math.pi ** (0.25 * m * (m - 1))
    try:
        for nu in range(m):
            out *= math.gamma(sf - 0.5 * nu)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise OverflowError(f"Gamma_{m}({s}) exceeds the double range")
    return out


def log_gamma_m(m: int, s) -> tuple:
    """(log |Gamma_m(s)|, sign): the overflow-safe route for large arguments."""
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    order = gamma_m_pole_order(m, s)
    if order:
        raise PoleError(f"multivariate gamma has a pole of order {order} at s={s}", order=order)
    sf = float(s)
    total = 0.25 * m * (m - 1) * math.log(math.pi)
    sign = 1
    for nu in range(m):
        x = sf - 0.5 * nu
        total += math.lgamma(x)
        # Gamma alternates sign between consecutive negative integers
        if x < 0 and math.floor(x) % 2 != 0:
            sign = -sign
    return total, sign


def c_const(m: int, kappa) -> float:
    """Normalizing constant (4 pi)^{-m(kappa-(m+1)/2)} Gamma_m(kappa-(m+1)/2).

    Chosen so the cone-integral transform fixes holomorphic coefficient
    functions at weight kappa.
    """
    arg = Fraction(kappa) - Fraction(m + 1, 2)
    return FOUR_PI ** float(-m * arg) * gamma_m(m, arg)


class BivariatePolynomial:
    """Polynomial in two variables (s, z) with exact Fraction coefficients.

    Coefficients are keyed by (degree in s, degree in z); zero coefficients
    are never stored, so equality is plain dict equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for (i, j), val in (coeffs or {}).items():
            if not isinstance(val, Rational):
                raise TypeError(f"coefficients must be rational, got {type(val).__name__}")
            val = Fraction(val)
            if val:
                clean[(int(i), int(j))] = val
        self.coeffs = clean

    @classmethod
    def constant(cls, value) -> "BivariatePolynomial":
        return cls({(0, 0): value})

    @classmethod
    def variable_s(cls) -> "BivariatePolynomial":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def variable_z(cls) -> "BivariatePolynomial":
        return cls({(0, 1): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "BivariatePolynomial":
        if isinstance(other, Rational):
            other = BivariatePolynomial.constant(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + val
        return BivariatePolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other) -> "BivariatePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "BivariatePolynomial":
        if isinstance(other, Rational):
            other = BivariatePolynomial.constant(other)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivariatePolynomial(out)

    def __rmul__(self, other) -> "BivariatePolynomial":
        return self * other

    def shift(self, ds=0, dz=0) -> "BivariatePolynomial":
        """Exact substitution s -> s + ds, z -> z + dz."""
        ds = Fraction(ds)
        dz = Fraction(dz)
        out = {}
        for (i, j), c in self.coeffs.items():
            for a in range(i + 1):
                ca = c * math.comb(i, a) * ds ** (i - a)
                if not ca:
                    continue
                for b in range(j + 1):
                    cb = ca * math.comb(j, b) * dz ** (j - b)
                    if cb:
                        key = (a, b)
                        out[key] = out.get(key, Fraction(0)) + cb
        return BivariatePolynomial(out)

    def __call__(self, s, z):
        """Evaluate; exact for Rational arguments, float otherwise."""
        total = None
        for (i, j), c in self.coeffs.items():
            term = c * s**i * z**j if isinstance(s, Rational) and isinstance(z, Rational) else float(c) * s**i * z**j
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if isinstance(s, Rational) and isinstance(z, Rational) else 0.0
        return total

    def __repr__(self) -> str:
        if not self.coeffs:
            return "BivariatePolynomial(0)"
        parts = [
            f"{val}*s^{i}*z^{j}"
            for (i, j), val in sorted(self.coeffs.items())
        ]
        return "BivariatePolynomial(" + " + ".join(parts) + ")"


def p_m_poly(m: int) -> BivariatePolynomial:
    """Expand sum_q binom(m,q) (-1)^q prod_{j<m-q}(z + j/2) prod_{j<q}(z + s - j/2).

    Exact in (s, z); despite appearances the result does not depend on z.
    """
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    z = BivariatePolynomial.variable_z()
    zs = z + BivariatePolynomial.variable_s()
    # prefix products: low[k] = prod_{j<k}(z + j/2), high[k] = prod_{j<k}(z + s - j/2)
    low = [BivariatePolynomial.constant(1)]
    high = [BivariatePolynomial.constant(1)]
    for j in range(m):
        low.append(low[-1] * (z + Fraction(j, 2)))
        high.append(high[-1] * (zs - Fraction(j, 2)))
    total = BivariatePolynomial()
    for q in range(m + 1):
        total = total + Fraction((-1) ** q * math.comb(m, q)) * (low[m - q] * high[q])
    return total


def p_m_closed(m: int, s):
    """Closed value (-1)^m prod_{j<m}(s - j/2) of the alternating sum.

    Rational s gives an exact Fraction, float s a float.
    """
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    if isinstance(s, Rational):
        out = Fraction((-1) ** m)
        sf = Fraction(s)
        for j in range(m):
            out *= sf - Fraction(j, 2)
        return out
    out = float((-1) ** m)
    for j in range(m):
        out *= s - 0.5 * j
    return out


def p_m_closed_poly(m: int) -> BivariatePolynomial:
    """The closed-form product as an exact (z-free) polynomial in s."""
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    s = BivariatePolynomial.variable_s()
    out = BivariatePolynomial.constant(Fraction((-1) ** m))
    for j in range(m):
        out = out * (s - BivariatePolynomial.constant(Fraction(j, 2)))
    return out


def limit_factor(m: int, k: int) -> float:
    """s -> 0 limit of the normalized coefficient scale for weight k + 2.

    Evaluated by pole/zero bookkeeping, never by a numeric limit: the
    coefficient polynomial contributes a simple zero at s = 0 while the
    gamma product may contribute poles.

    * k >= m: the gamma product is regular, the zero wins; exactly 0.0.
    * k = m-1: one factor degenerates to Gamma(s), a simple pole;
      lim s Gamma(s) = 1 cancels the zero and the remaining factors
      evaluate to -(4 pi)^m.
    * k < m-1: the pole order exceeds the zero order; unsupported.
    """
    if k < m - 1:
        raise UnsupportedRegimeError(
            f"k={k} below m-1={m - 1}: gamma pole order exceeds the polynomial's simple zero"
        )
    z0 = Fraction(k) + Fraction(1 - m, 2)
    if gamma_m_pole_order(m, z0) == 0:
        return 0.0
    # only k = m-1 reaches this point, with the single pole factor Gamma(s).
    # The quotient of the regular gamma factors by c_const(m, k + 2) is
    # summed in logs: each side alone leaves the double range near genus 24.
    arg = Fraction(k + 2) - Fraction(m + 1, 2)
    log_c, sign = log_gamma_m(m, arg)
    log_value = 0.25 * m * (m - 1) * math.log(math.pi) - log_c + float(m * (arg - z0)) * math.log(FOUR_PI)
    # a = (m - 1 - nu) / 2 >= 0, so every regular factor is positive
    for nu in range(m):
        a = z0 - Fraction(nu, 2)
        if a != 0:
            log_value += math.lgamma(float(a))
    # the coefficient polynomial divided by its root s, evaluated at s = 0
    slope = Fraction((-1) ** m)
    for j in range(1, m):
        slope *= Fraction(-j, 2)
    return sign * math.exp(log_value) * float(slope)
