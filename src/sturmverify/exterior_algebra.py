"""Compound-matrix linear algebra on exterior powers.

The q-th exterior power of an m x m matrix M is the binom(m, q)-square
matrix M^[q] whose rows and columns are labelled by the q-element subsets
of {1..m} in strict lexicographic order; entry (a, b) is the q x q minor
of M with rows a and columns b.  Extreme degrees collapse to scalars:
M^[0] = [1] and M^[m] = [det M].

Beyond plain exterior powers the module provides the induced product of
endomorphisms acting on different exterior degrees (``sqcap``) and the
trace of sandwiched exterior powers on the SPD cone (``trace_sandwich``),
which the cone integrals are built from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotPositiveDefiniteError

# eigenvalues of an SPD matrix are clamped at this relative floor before
# square roots; anything more negative than the floor raises
EIG_REL_FLOOR = 1e-14


@lru_cache(maxsize=None)
def q_subsets(m: int, q: int) -> tuple:
    """q-element subsets of {1..m} (1-based), in lexicographic order."""
    if not 0 <= q <= m:
        raise ValueError(f"subset size q={q} out of range 0..{m}")
    return tuple(itertools.combinations(range(1, m + 1), q))


@lru_cache(maxsize=None)
def _subset_pos(m: int, q: int) -> dict:
    return {a: i for i, a in enumerate(q_subsets(m, q))}


@dataclass(frozen=True)
class ExteriorMatrix:
    """A binom(m, q)-square matrix indexed by the lexicographic q-subset basis."""

    m: int
    q: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        dim = math.comb(self.m, self.q)
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match binom({self.m},{self.q})={dim}"
            )
        object.__setattr__(self, "entries", entries)

    def __matmul__(self, other):
        if not isinstance(other, ExteriorMatrix):
            return NotImplemented
        if (other.m, other.q) != (self.m, self.q):
            raise ValueError("exterior degrees do not match")
        return ExteriorMatrix(self.m, self.q, self.entries @ other.entries)


def eps(a_prime, a_double_prime) -> int:
    """Sign of the permutation sorting the concatenation (a', a'') ascending.

    Both blocks must be strictly increasing and disjoint; the sign is
    (-1)^inversions with inversions counted across the two blocks only.
    """
    a1 = tuple(a_prime)
    a2 = tuple(a_double_prime)
    for block in (a1, a2):
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            raise ValueError(f"subset {block} is not strictly increasing")
    if set(a1) & set(a2):
        raise ValueError(f"subsets {a1} and {a2} overlap")
    inversions = sum(1 for x in a1 for y in a2 if x > y)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _subset_index(m: int, q: int) -> np.ndarray:
    """Zero-based q-subsets of {0..m-1} as a read-only (binom(m, q), q) array."""
    index = np.array(q_subsets(m, q), dtype=np.intp).reshape(math.comb(m, q), q) - 1
    index.flags.writeable = False
    return index


def spd_det(mats) -> np.ndarray:
    """Determinants of SPD matrices, (..., m, m) -> (...,): the product of
    the unpivoted Cholesky pivots of the lower triangle, in elementwise
    arithmetic with no LAPACK call, so a stack equals its matrices one by
    one bitwise and pool threads run it in parallel.  ``mats`` must be SPD
    but is not validated: a non-positive pivot gives NaN, and a Monte Carlo
    sample is then rejected and counted.  m = 1 gives the entry.
    """
    mats = np.asarray(mats, dtype=float)
    m = mats.shape[-1]
    low = [[mats[..., i, j] for j in range(i + 1)] for i in range(m)]
    det = least = low[0][0]
    for k in range(m):
        pivot = low[k][k]
        if k:
            det = det * pivot
            least = np.minimum(least, pivot)
        for i in range(k + 1, m):
            ratio = low[i][k] / pivot
            for j in range(k + 1, i + 1):
                low[i][j] = low[i][j] - ratio * low[j][k]
    return np.where(least > 0.0, det, np.nan)


def _minors(mats, q: int) -> np.ndarray:
    """All q x q minors of a matrix or a stack: (..., m, m) -> C-contiguous (..., C, C).

    Degree 0 is [1] and the 1 x 1 minors are the entries.  For q >= 2 each
    row subset is one fancy-index gather of its (C, q, q) submatrices per
    matrix and one batched LU determinant (off-diagonal minors are neither
    symmetric nor real in general).  A stack is gathered in blocks of
    matrices whose submatrices hold at most as many entries as the whole
    input, so the temporary never outgrows the input.  Both public
    exterior-power functions call this directly, so a traced run times
    each of them on its own.
    """
    mats = np.asarray(mats, dtype=complex if np.iscomplexobj(mats) else float)
    if mats.ndim < 2 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError("matrix must be square")
    m = mats.shape[-1]
    if not 0 <= q <= m:
        raise ValueError(f"exterior degree q={q} out of range 0..{m}")
    if q == 0:
        return np.ones(mats.shape[:-2] + (1, 1), dtype=mats.dtype)
    if q == 1:
        return mats.copy()
    index = _subset_index(m, q)
    dim = index.shape[0]
    flat = mats.reshape((-1, m, m))
    out = np.empty((len(flat), dim, dim), dtype=mats.dtype)
    block = max(1, len(flat) * m * m // max(1, dim * q * q))
    cols = index[:, None, :]
    for i, rows in enumerate(index):
        for lo in range(0, len(flat), block):
            out[lo : lo + block, i] = np.linalg.det(flat[lo : lo + block, rows[None, :, None], cols])
    return out.reshape(mats.shape[:-2] + (dim, dim))


def exterior_power(mat, q: int) -> ExteriorMatrix:
    """q-th exterior power (matrix of all q x q minors) of a square matrix."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("matrix must be square")
    return ExteriorMatrix(mat.shape[0], q, _minors(mat, q))


def exterior_power_batch(mats, q: int) -> np.ndarray:
    """Exterior powers of a batch of matrices: (n, m, m) -> (n, C, C)."""
    return _minors(mats, q)


def sqcap(a_op: ExteriorMatrix, b_op: ExteriorMatrix) -> ExteriorMatrix:
    """Induced product of endomorphisms of exterior powers.

    For A acting on degree p and B on degree q, the product acts on degree
    h = p + q.  Entry (a, b) averages the sign-weighted products
    A_{a', b'} B_{a'', b''} over all splittings of a into an increasing
    p-block a' and q-block a'' (same for b), normalized by binom(h, p).
    Restricted to exterior powers it is multiplicative:
    M^[p] sqcap M^[q] = M^[p+q].
    """
    if a_op.m != b_op.m:
        raise ValueError("ambient dimensions differ")
    m = a_op.m
    p, q = a_op.q, b_op.q
    h = p + q
    if h > m:
        raise ValueError(f"total degree p+q={h} exceeds ambient dimension m={m}")
    basis_h = q_subsets(m, h)
    pos_p = _subset_pos(m, p)
    pos_q = _subset_pos(m, q)

    splittings = []
    for a in basis_h:
        a_set = set(a)
        opts = []
        for a1 in itertools.combinations(a, p):
            a2 = tuple(sorted(a_set - set(a1)))
            opts.append((eps(a1, a2), pos_p[a1], pos_q[a2]))
        splittings.append(opts)

    dtype = (
        complex
        if (np.iscomplexobj(a_op.entries) or np.iscomplexobj(b_op.entries))
        else float
    )
    out = np.zeros((len(basis_h), len(basis_h)), dtype=dtype)
    for i, row_opts in enumerate(splittings):
        for j, col_opts in enumerate(splittings):
            tot = 0.0
            for sa, ia1, ia2 in row_opts:
                for sb, jb1, jb2 in col_opts:
                    tot += sa * sb * a_op.entries[ia1, jb1] * b_op.entries[ia2, jb2]
            out[i, j] = tot
    out /= math.comb(h, p)
    return ExteriorMatrix(m, h, out)


def sym_sqrt(mat) -> np.ndarray:
    """Symmetric square root of an SPD matrix (or batch) via eigendecomposition.

    Eigenvalues are clamped at the relative floor EIG_REL_FLOOR * max
    eigenvalue; an eigenvalue below -floor raises NotPositiveDefiniteError.
    """
    y = np.asarray(mat, dtype=float)
    w, u = np.linalg.eigh(y)
    top = w[..., -1]
    if np.any(top <= 0.0):
        raise NotPositiveDefiniteError("matrix has no positive eigenvalue")
    floor = EIG_REL_FLOOR * top
    if np.any(w < -floor[..., None]):
        raise NotPositiveDefiniteError("matrix has a negative eigenvalue beyond tolerance")
    w = np.maximum(w, floor[..., None])
    return (u * np.sqrt(w)[..., None, :]) @ np.swapaxes(u, -1, -2)


def sandwich_esp_all(y, t, qmax: int) -> np.ndarray:
    """e_0..e_qmax of the eigenvalues of Y T (the same as those of
    Y^{1/2} T Y^{1/2}), stacked along the last axis; Y may be a batch.

    With T = U diag(d) U^T (one m x m eigh; T may be indefinite or
    singular) and G = U^T Y U, e_q(YT) = sum_{|S|=q} prod(d_S) det(G_S),
    the principal minors of G read from its diagonal (q = 1), the 2x2
    formula (q = 2) or ``spd_det`` (G is SPD, U being orthogonal) of the
    gathered submatrices, or of G itself at q = m; for PSD T nothing
    cancels.  No eigensolver or LAPACK det runs on Y.  Y must be SPD but is
    not validated (``sym_sqrt`` is the validating route): a non-positive
    pivot gives a NaN minor; a Monte Carlo sample is then rejected and counted.
    """
    d, u = np.linalg.eigh(np.asarray(t, dtype=float))
    g = u.T @ np.asarray(y, dtype=float) @ u
    m = d.shape[0]
    out = np.empty(g.shape[:-2] + (qmax + 1,))
    out[..., 0] = 1.0
    for q in range(1, qmax + 1):
        index = _subset_index(m, q)
        weights = np.prod(d[index], axis=1)
        if q == 1:
            minors = np.diagonal(g, axis1=-2, axis2=-1)
        elif q == 2:
            i, j = index[:, 0], index[:, 1]
            minors = g[..., i, i] * g[..., j, j] - g[..., i, j] ** 2
        else:
            minors = spd_det(g[..., None, :, :] if q == m else g[..., index[:, :, None], index[:, None, :]])
        # an explicit ascending sum, so a batch equals its rows bitwise
        out[..., q] = sum(minors[..., c] * w for c, w in enumerate(weights))
    return out


def trace_sandwich(y, t, q: int):
    """trace((Y^{1/2} T Y^{1/2})^[q]) = e_q of the eigenvalues of Y T,
    summed from principal minors by ``sandwich_esp_all``.

    ``y`` must be SPD, a single (m, m) matrix or a batch (n, m, m), but is
    not validated; ``t`` must be symmetric but need not be definite.
    Degree q = 0 gives 1 and q = m gives det(Y) det(T).
    """
    m = np.shape(y)[-1]
    if not 0 <= q <= m:
        raise ValueError(f"q={q} out of range 0..{m}")
    out = sandwich_esp_all(y, t, q)[..., q]
    return float(out) if out.ndim == 0 else out
