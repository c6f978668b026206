"""Central-difference oracles for symmetric-matrix derivatives.

Deliberately independent of every closed form they validate: derivatives
are built by nesting one-coordinate central differences of the symmetric
(or complex symmetric) matrix variable.  The symmetric convention is

    (dF)_{mu nu} = 1/2 (1 + delta_{mu nu}) dF / dy_{mu nu} ,

realized numerically by perturbing the (mu, nu) and (nu, mu) entries
together (one symmetric coordinate) and applying the half factor
analytically, so e.g. the derivative of tr(TY) is exactly T.

The scheme is fixed: the fourth-order central stencil at steps h = 5e-3
and h/2, combined by Richardson extrapolation (16 f_{h/2} - f_h) / 15.

The function under differentiation takes a batch: it maps a stack
(N, m, m) of matrices to their N values.  Each oracle stacks every point
of its nested stencils and calls it once.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from .errors import UnsupportedRegimeError
from .exterior_algebra import ExteriorMatrix, q_subsets

# fourth-order central stencil: (offset, weight) pairs
_STENCIL = ((2, -1.0 / 12.0), (1, 8.0 / 12.0), (-1, -8.0 / 12.0), (-2, 1.0 / 12.0))
# steps h = 5e-3 and h/2, whose values ``_extrapolate`` combines
_STEPS = (5e-3, 0.5 * 5e-3)


def _perm_sign(perm) -> int:
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _pair_delta(n: int, mu: int, nu: int, dtype=float) -> np.ndarray:
    delta = np.zeros((n, n), dtype=dtype)
    delta[mu, nu] = 1.0
    delta[nu, mu] = 1.0
    return delta


def _single(diffs):
    return diffs[0]


def _stencil_trees(f, base, trees) -> list:
    """Nested central differences of f at ``base``, one value per tree.

    Each tree is ``(h, levels)`` with ``levels`` listed outermost first; a
    level is ``(directions, combine)``.  A level steps every point of the
    level above by ``(off * h) * direction`` for each direction and
    stencil offset, and is reduced by turning each direction's stencil
    values into ``sum(coeff * value) / h`` and merging those differences
    with ``combine``.  The points of all trees form one (N, m, m) stack
    and f is called once on it.  Points are formed and leaves reduced
    (innermost level first) with the same operations in the same order as
    a recursion over the levels, so every value is that recursion's value
    bit for bit.
    """
    shapes = [[len(directions) * len(_STENCIL) for directions, _ in levels] for _, levels in trees]
    bounds = list(itertools.accumulate((math.prod(shape) for shape in shapes), initial=0))
    spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    stack = np.empty((bounds[-1],) + base.shape, dtype=base.dtype)
    for (h, levels), span in zip(trees, spans):
        points = base[None]
        for directions, _ in levels:
            steps = np.stack([(off * h) * d for d in directions for off, _ in _STENCIL])
            points = (points[:, None] + steps[None]).reshape((-1,) + base.shape)
        stack[span] = points
    values = np.asarray(f(stack))
    if values.shape != stack.shape[:1]:
        raise ValueError(
            f"f must return one value per matrix of the batch: got shape {values.shape} for {len(stack)} matrices"
        )

    out = []
    for (h, levels), span, shape in zip(trees, spans, shapes):
        tree = values[span].reshape(shape)
        for directions, combine in reversed(levels):
            tree = tree.reshape(tree.shape[:-1] + (len(directions), len(_STENCIL)))
            diffs = []
            for i in range(len(directions)):
                acc = None
                for k, (_, coeff) in enumerate(_STENCIL):
                    term = coeff * tree[..., i, k]
                    acc = term if acc is None else acc + term
                diffs.append(acc / h)
            tree = combine(diffs)
        out.append(tree[()])
    return out


def _extrapolate(values):
    """Richardson combination of the values taken at the steps ``_STEPS``."""
    big, small = values
    return (16.0 * small - big) / 15.0


def exterior_derivative_num(f, y, q: int) -> ExteriorMatrix:
    """Numeric exterior-power derivative matrix of a scalar function of a
    symmetric matrix: entry (a, b) expands det over the symmetric-derivative
    operators with rows a and columns b,

        sum_{sigma} sgn(sigma) prod_i (d)_{a_i, b_sigma(i)} f .

    ``f`` maps a stack (N, m, m) of matrices to their N scalar values.
    Degree 1 is the symmetric derivative itself: entry (mu, nu) is
    (d f)_{mu nu}.  Mixed partials above order 3 are refused (cost and
    roundoff).
    """
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if q > 3:
        raise UnsupportedRegimeError("mixed partials above order 3 are not supported")
    if not 0 <= q <= m:
        raise ValueError(f"q={q} out of range 0..{m}")
    subs = q_subsets(m, q)
    perms = list(itertools.permutations(range(q)))

    # per entry (a, b), one (sign * factor, levels) term per permutation
    entries = []
    for a in subs:
        for b in subs:
            terms = []
            for perm in perms:
                pairs = [(a[i] - 1, b[perm[i]] - 1) for i in range(q)]
                factor = 1.0
                for row, col in pairs:
                    factor *= 1.0 if row == col else 0.5
                levels = [((_pair_delta(m, row, col),), _single) for row, col in pairs]
                terms.append((_perm_sign(perm) * factor, levels))
            entries.append(terms)

    trees = [(hh, levels) for hh in _STEPS for terms in entries for _, levels in terms]
    values = iter(_stencil_trees(f, y, trees))
    matrices = []
    for _ in _STEPS:
        out = np.empty(len(entries))
        for n, terms in enumerate(entries):
            total = 0.0
            for scale, _ in terms:
                total += scale * next(values)
            out[n] = total
        matrices.append(out.reshape(len(subs), len(subs)))

    big, small = matrices
    spread = np.abs(small - big)
    ref = np.maximum(np.abs(small), np.abs(big))
    if np.any(spread > 0.5 * ref + 1e-9):
        warnings.warn(
            "step halving moved some derivative entries by more than 50%; "
            "the difference scheme may be unstable at this point",
            RuntimeWarning,
            stacklevel=2,
        )
    return ExteriorMatrix(m, q, _extrapolate(matrices))


def det_dz_numeric(f, z) -> complex:
    """Numeric determinant of the complex symmetric derivative applied to f:

        det(d/dZ) f,   (d/dZ)_{mu nu} = 1/2 (1 + delta_{mu nu}) 1/2 (d/dx - i d/dy)

    expanded over permutations with nested central differences in the real
    and imaginary parts.  ``f`` maps a stack (N, m, m) of complex matrices
    to their N values.  Supports m <= 3.
    """
    z = np.asarray(z, dtype=complex)
    m = z.shape[0]
    if m > 3:
        raise UnsupportedRegimeError("determinant expansion above dimension 3 is not supported")

    def level(mu, nu):
        delta = _pair_delta(m, mu, nu, dtype=complex)
        factor = 1.0 if mu == nu else 0.5
        return (delta, 1j * delta), lambda d: factor * 0.5 * (d[0] - 1j * d[1])

    perms = list(itertools.permutations(range(m)))
    trees = [(hh, [level(i, perm[i]) for i in range(m)]) for hh in _STEPS for perm in perms]
    values = iter(_stencil_trees(f, z, trees))
    totals = []
    for _ in _STEPS:
        total = 0.0 + 0.0j
        for perm in perms:
            total += _perm_sign(perm) * next(values)
        totals.append(total)
    return _extrapolate(totals)
