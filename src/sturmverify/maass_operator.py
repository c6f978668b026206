"""Formal Fourier data of half-integral index and the closed-form action
of det(d/dZ) on terms det(Im Z)^j exp(2 pi i tr(T Z)).

Index matrices T are stored exactly as the integer matrix 2T (even
diagonal), so half-integrality, positive definiteness, and det(T) are
exact integer computations, never float tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotPositiveDefiniteError
from .exterior_algebra import exterior_power, sandwich_esp_all, spd_det
from .special_functions import FOUR_PI, c_poch


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass(frozen=True)
class HalfIntegralForm:
    """Positive definite half-integral matrix T, held exactly as 2T.

    2T must be symmetric with integer entries and even diagonal; positive
    definiteness is certified by exact leading principal minors.
    """

    two_t: tuple

    def __post_init__(self):
        rows = []
        for row in self.two_t:
            converted = []
            for x in row:
                xi = int(x)
                if xi != x:
                    raise ValueError(f"entry {x!r} of 2T is not an integer")
                converted.append(xi)
            rows.append(tuple(converted))
        rows = tuple(rows)
        object.__setattr__(self, "two_t", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("2T must be square and nonempty")
        for i in range(n):
            if rows[i][i] % 2:
                raise ValueError("diagonal of 2T must be even (T has an integral diagonal)")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("2T must be symmetric")
        for k in range(1, n + 1):
            if int_det([row[:k] for row in rows[:k]]) <= 0:
                raise NotPositiveDefiniteError(
                    f"T is not positive definite (leading {k}x{k} minor of 2T <= 0)"
                )

    @property
    def m(self) -> int:
        return len(self.two_t)

    @property
    def det(self) -> Fraction:
        """Exact det(T) = det(2T) / 2^m."""
        return Fraction(int_det(self.two_t), 2 ** self.m)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.two_t, dtype=float) / 2.0

    def to_json(self) -> list:
        return [list(r) for r in self.two_t]


@dataclass(frozen=True)
class FourierExpansion:
    """Finite formal expansion sum_{T>0} b(T) exp(2 pi i tr(T Z)) of weight k."""

    m: int
    k: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for form, b in dict(self.terms).items():
            if not isinstance(form, HalfIntegralForm):
                form = HalfIntegralForm(form)
            if form.m != self.m:
                raise ValueError(f"index genus {form.m} != expansion genus {self.m}")
            clean[form] = b
        object.__setattr__(self, "terms", clean)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "terms": [{"twoT": f.to_json(), "b": b} for f, b in self.terms.items()],
        }

    @classmethod
    def from_json(cls, data) -> "FourierExpansion":
        try:
            terms = {}
            for t in data["terms"]:
                form, b = HalfIntegralForm(t["twoT"]), float(t["b"])
                if not math.isfinite(b):
                    raise ValueError(f"coefficient b={b} of twoT={form.to_json()} is not finite")
                if form in terms:
                    raise ValueError(f"index twoT={form.to_json()} appears more than once")
                terms[form] = b
            return cls(int(data["m"]), int(data["k"]), terms)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed expansion data: {exc}") from exc

    @classmethod
    def load(cls, path) -> "FourierExpansion":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def det_dz_closed(m: int, j, t_mat, z_mat) -> complex:
    """Closed form of det(d/dZ) applied to det(Im Z)^j exp(2 pi i tr(T Z)):

        (2i)^{-m} det(Y)^{j-1} exp(2 pi i tr(T Z))
            * sum_q (-4 pi)^q C_{m-q}(j) trace((Y^{1/2} T Y^{1/2})^[q])

    with Y = Im Z positive definite.  ``t_mat`` may be any real symmetric
    matrix here; zero and rank-deficient indices are legal cross-check
    inputs.
    """
    t = np.asarray(t_mat, dtype=float)
    z = np.asarray(z_mat, dtype=complex)
    if t.shape != (m, m) or z.shape != (m, m):
        raise ValueError(f"T and Z must be {m}x{m}")
    return _det_dz_amplitude(m, j, t, z.imag) * np.exp(2j * math.pi * np.trace(t @ z))


def _det_dz_amplitude(m: int, j, t, y) -> complex:
    """``det_dz_closed`` without its factor exp(2 pi i tr(T Z)), whose
    modulus is exp(-2 pi tr(TY)) for Y = Im Z:

        (2i)^{-m} det(Y)^{j-1} sum_q (-4 pi)^q C_{m-q}(j) trace((Y^{1/2} T Y^{1/2})^[q]) .

    A comparison that would cancel that factor against its inverse uses
    this instead: the inverse overflows once tr(TY) passes about 113.
    Its traces are trace(Y^[q] T^[q]) (Cauchy-Binet), independent of the
    ``sandwich_esp_all`` route that ``maass_coeff_factor`` reads.
    """
    total = 0.0
    for q in range(m + 1):
        esp = np.sum(exterior_power(y, q).entries * exterior_power(t, q).entries.T)
        total += (-FOUR_PI) ** q * float(c_poch(m - q, float(j))) * esp
    return (2j) ** (-m) * float(np.linalg.det(y)) ** (j - 1.0) * total


def maass_coeff_factor(m: int, k: int, form, y):
    """Fourier-action ratio b(T, Y) / b(T) of the weight-raising shift:

        sum_q (-4 pi)^q C_{m-q}(k + (1-m)/2) det(Y)^{-1}
              trace((Y^{1/2} T Y^{1/2})^[q])

    ``y`` may be one SPD matrix (m, m) or a batch (n, m, m); the return is
    a float or an (n,) array accordingly; it must be SPD but is not
    validated: a non-SPD Y can give a non-positive ``spd_det`` pivot and a
    NaN factor, and a Monte Carlo sample is then rejected and counted.
    """
    t = form.to_array() if isinstance(form, HalfIntegralForm) else np.asarray(form, dtype=float)
    y = np.asarray(y, dtype=float)
    z0 = Fraction(k) + Fraction(1 - m, 2)
    esp = sandwich_esp_all(y, t, m)
    total = sum((-FOUR_PI) ** q * float(c_poch(m - q, z0)) * esp[..., q] for q in range(m + 1))
    out = total / spd_det(y)
    return float(out) if out.ndim == 0 else out


def maass_apply(h: FourierExpansion):
    """Coefficient function (T, Y) -> b(T, Y) of the weight-raised expansion.

    The result represents a weight k + 2 object; indices absent from ``h``
    contribute 0.  The returned callable accepts a single Y or a batch.
    """

    def coeff(form, y):
        b = h.terms.get(form, 0.0)
        if b == 0:
            y = np.asarray(y, dtype=float)
            out = np.zeros(y.shape[:-2])
            return float(out) if out.ndim == 0 else out
        return b * maass_coeff_factor(h.m, h.k, form, y)

    return coeff
