"""Cone-integral coefficients of the weight-raised expansion: closed forms
at spectral shift s, the analytic s -> 0 limit, and Monte Carlo
cross-checks at fixed s.

For weight k = m - 1 the limit produces the nonvanishing image coefficient
-(4 pi)^m det(T) b(T) at weight k + 2 = m + 1; for k >= m the limit is
exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cone_integration import IntegralEstimate, MonteCarloParams, integrate_invariant
from .errors import UnsupportedRegimeError
from .maass_operator import FourierExpansion, HalfIntegralForm
from .special_functions import FOUR_PI, c_poch, gamma_m, limit_factor, p_m_closed

@dataclass(frozen=True)
class SturmResult:
    """One analytic s -> 0 limit of a normalized coefficient.

    The regime is "phantom" for k = m - 1 and "vanishing" for k >= m.
    """

    m: int
    k: int
    form: HalfIntegralForm
    value: float

    @property
    def regime(self) -> str:
        return "phantom" if self.k == self.m - 1 else "vanishing"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "limit": True,
            "T": self.form.to_json(),
            "value": self.value,
            "regime": self.regime,
        }


def a_closed(m: int, k: int, s, form: HalfIntegralForm, b_t: float) -> float:
    """Closed form of the coefficient integral at shift s (z-free route):

        b(T) det(T) Gamma_m(k + (1-m)/2 + s) (4 pi)^{-m(k+(1-m)/2+s)}
            * (-1)^m prod_{j<m}(s - j/2) .

    Raises PoleError where the gamma argument degenerates (use the
    analytic limit machinery there instead).
    """
    z0 = Fraction(k) + Fraction(1 - m, 2)
    arg = float(z0 + Fraction(s))
    g = gamma_m(m, arg)
    return b_t * float(form.det) * g * FOUR_PI ** (-m * arg) * p_m_closed(m, float(s))


def a_closed_qsum(m: int, k: int, s, form: HalfIntegralForm, b_t: float) -> float:
    """The same coefficient via the explicit alternating q-sum:

        b(T) det(T) Gamma_m(z0+s) (4 pi)^{-m(z0+s)}
            * sum_q binom(m, q) C_{m-q}(z0) C_q(-(z0+s)),  z0 = k + (1-m)/2.

    Kept as an independent branch; it must agree with ``a_closed``.  The
    sum cancels violently near the roots of the closed polynomial, so it
    is accumulated in exact rationals (a float s is an exact Fraction)
    and rounded once.
    """
    z0 = Fraction(k) + Fraction(1 - m, 2)
    arg_exact = z0 + Fraction(s)
    arg = float(arg_exact)
    g = gamma_m(m, arg)
    total = Fraction(0)
    for q in range(m + 1):
        total += math.comb(m, q) * c_poch(m - q, z0) * c_poch(q, -arg_exact)
    return b_t * float(form.det) * g * FOUR_PI ** (-m * arg) * float(total)


def _finite(value: float, what: str, form: HalfIntegralForm, b_t: float) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"the {what} of twoT={form.to_json()}, b={b_t} leaves the double range")
    return value


def phantom_coeff(m: int, form: HalfIntegralForm, b_t: float) -> float:
    """-(4 pi)^m det(T) b(T): the image coefficient surviving at weight m + 1.

    det(T) is exact (det(2T) / 2^m over the integers) before the single
    float conversion.  Raises OverflowError when the value leaves the
    double range.
    """
    if form.m != m:
        raise ValueError(f"index genus {form.m} != m={m}")
    return _finite(-(FOUR_PI ** m) * float(form.det) * b_t, "phantom coefficient", form, b_t)


def phantom_series(h: FourierExpansion) -> FourierExpansion:
    """Image expansion of a weight-(m-1) expansion: T -> -(4 pi)^m det(T) b(T).

    The result has weight k + 2 = m + 1.  Any other input weight is outside
    this formula's regime (k >= m vanishes instead; k < m - 1 diverges).
    """
    if h.k != h.m - 1:
        raise UnsupportedRegimeError(
            f"image formula applies at weight k = m-1 only (got k={h.k}, m={h.m})"
        )
    image = {form: phantom_coeff(h.m, form, b) for form, b in h.terms.items()}
    return FourierExpansion(h.m, h.k + 2, image)


def sturm_limit(m: int, k: int, form: HalfIntegralForm, b_t: float) -> SturmResult:
    """Analytic s -> 0 limit of the normalized coefficient: b(T) det(T) L(m, k).

    Raises OverflowError when the value leaves the double range.
    """
    value = _finite(limit_factor(m, k) * float(form.det) * b_t, "s -> 0 limit", form, b_t)
    return SturmResult(m, k, form, value)


def sturm_numeric(
    m: int,
    kappa: int,
    coeff_fn,
    form: HalfIntegralForm,
    s,
    params: MonteCarloParams,
) -> IntegralEstimate:
    """Monte Carlo estimate of the coefficient integral at fixed s:

        int coeff_fn(T, Y) exp(-4 pi tr(TY)) det(TY)^{kappa-(m+1)/2+s} dY_inv .

    This cross-checks closed forms at shifts where they are regular; never
    the s -> 0 limit itself.  ``coeff_fn(form, y)`` must accept a batch
    (n, m, m) and return (n,) values (``maass_apply`` products and constant
    functions both qualify).

    ``integrate_invariant`` supplies the exponential and det(Y) power; the
    integrand is ``coeff_fn`` times det(T)^power.  The default proposal
    matches the most boundary-singular det power of a weight-raised
    integrand (nu = 2 (kappa - (m+1)/2 + s - 1)); override via
    ``params.nu`` when integrating something shaped differently.
    """
    power = kappa - 0.5 * (m + 1) + float(s)
    det_t_power = float(form.det) ** power

    def integrand(y):
        return coeff_fn(form, y) * det_t_power

    return integrate_invariant(
        integrand, m, params, t=FOUR_PI * form.to_array(), power=power, nu_default=2.0 * (power - 1.0)
    )
