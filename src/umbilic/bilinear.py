"""Indefinite-signature linear algebra on small dense matrices.

Inner products with a (neg, pos, null) signature, numerical signature
computation, radical extraction, row and null space splits, and random
isometries.
Coordinate convention everywhere: negative block first, then positive,
then null.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_ZERO_TOL = 1e-8
SYMMETRY_TOL = 1e-14


@dataclass(frozen=True)
class Signature:
    """Signature (neg, pos, null) of a possibly degenerate symmetric form."""

    neg: int
    pos: int
    null: int = 0

    def __post_init__(self):
        if self.neg < 0 or self.pos < 0 or self.null < 0:
            raise InputError(f"signature counts must be non-negative: {self}")

    @property
    def dim(self) -> int:
        return self.neg + self.pos + self.null

    @property
    def degenerate(self) -> bool:
        return self.null > 0

    def weights(self) -> np.ndarray:
        """Diagonal of the canonical metric: (-1,...,-1, +1,...,+1, 0,...,0)."""
        return np.concatenate([
            -np.ones(self.neg), np.ones(self.pos), np.zeros(self.null)])

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.neg, self.pos, self.null)


def signature_counts(forms: np.ndarray,
                     tol_zero: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Counts (neg, pos, null) of the eigenvalues below -tol_zero, above
    +tol_zero and in between of each symmetric matrix of a (..., n, n)
    stack, as one (..., 3) integer array."""
    if not 0 < tol_zero < np.inf:
        raise InputError("tol_zero must be positive and finite")
    eig = np.linalg.eigvalsh(forms)
    counts = np.empty(eig.shape[:-1] + (3,), dtype=int)
    counts[..., 0] = (eig < -tol_zero).sum(-1)
    counts[..., 1] = (eig > tol_zero).sum(-1)
    counts[..., 2] = eig.shape[-1] - counts[..., 0] - counts[..., 1]
    return counts


def signature_of(form, tol_zero: float = DEFAULT_ZERO_TOL):
    """The Signature of a symmetric form by `signature_counts`; a list over
    a (P, n, n) stack.  A form that is not square, or not symmetric to
    within 1e-14, raises InputError."""
    a = np.asarray(form, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise InputError(f"form must be square, got shape {a.shape}")
    if np.abs(a - a.swapaxes(-1, -2)).max(initial=0.0) > SYMMETRY_TOL:
        raise InputError("form is not symmetric to within 1e-14")
    counts = signature_counts(a, tol_zero).tolist()
    return (Signature(*counts) if a.ndim == 2
            else [Signature(*c) for c in counts])


def radical(forms: np.ndarray,
            tol_zero: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Near-kernel of each symmetric form of a (..., n, n) stack: its
    Euclidean-orthonormal eigenvector columns with |eigenvalue| <= tol_zero,
    every other column set to zero."""
    eig, vecs = np.linalg.eigh(forms)
    return vecs * (np.abs(eig) <= tol_zero)[..., None, :]


def _rank(s: np.ndarray, tol: float = DEFAULT_ZERO_TOL):
    """Count of singular values (descending, along the last axis) above
    tol * max(1, s_max); 0 when they all vanish."""
    return (s > tol * np.maximum(1.0, s[..., :1])).sum(-1)


def numerical_rank(matrix: np.ndarray):
    """Rank by singular values above DEFAULT_ZERO_TOL (scaled by s_max).

    A stack of matrices (..., a, b) gives an integer array of ranks.  A
    matrix with a non-finite entry has no singular values to decide on, so
    LAPACK never sees it, and its rank reads 0.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if np.isfinite(matrix).all():
        s = np.linalg.svd(matrix, compute_uv=False)
    else:
        finite = np.isfinite(matrix).all((-2, -1))
        s = np.full(matrix.shape[:-2] + (min(matrix.shape[-2:]),), np.nan)
        s[finite] = np.linalg.svd(matrix[finite], compute_uv=False)
    r = _rank(s)
    return int(r) if matrix.ndim == 2 else r


def svd_split(matrices: np.ndarray, tol: float = DEFAULT_ZERO_TOL):
    """Reduced right singular vectors `vh` and numerical ranks `r` of a
    (..., a, n) stack: the rows vh[:r] are a Euclidean-orthonormal basis of
    the row space, and with a >= n, as in every hull sample, the rows vh[r:]
    are one of the right null space."""
    _, s, vh = np.linalg.svd(matrices, full_matrices=False)
    return vh, _rank(s, tol)


def random_pseudo_orthogonal(sig: Signature,
                             rng: np.random.Generator) -> np.ndarray:
    """Random isometry of the indefinite form: 2 (neg + pos) steps, each a
    circular rotation inside a sign block or a hyperbolic boost of rapidity
    at most 0.4 across them.  Null coordinates are fixed.
    """
    n = sig.dim
    L = np.eye(n)
    neg_idx = list(range(sig.neg))
    pos_idx = list(range(sig.neg, sig.neg + sig.pos))
    for _ in range(2 * (sig.neg + sig.pos)):
        kind = rng.integers(0, 3)
        step = np.eye(n)
        block = pos_idx if kind == 0 else neg_idx
        if kind < 2 and len(block) >= 2:
            i, j = rng.choice(block, size=2, replace=False)
            a = rng.uniform(0, 2 * np.pi)
            step[i, i] = step[j, j] = np.cos(a)
            step[i, j] = -np.sin(a)
            step[j, i] = np.sin(a)
        elif neg_idx and pos_idx:
            i = rng.choice(neg_idx)
            j = rng.choice(pos_idx)
            t = rng.uniform(-0.4, 0.4)
            step[i, i] = step[j, j] = np.cosh(t)
            step[i, j] = step[j, i] = np.sinh(t)
        L = step @ L
    return L
