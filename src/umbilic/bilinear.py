"""Indefinite-signature linear algebra on small dense matrices.

Inner products with a (neg, pos, null) signature, numerical signature
computation, radical extraction, row and null space bases, and random
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

    def metric(self) -> np.ndarray:
        return np.diag(self.weights())

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.neg, self.pos, self.null)


@dataclass(frozen=True)
class SymmetricForm:
    """Dense symmetric matrix of double-precision reals, or a (P, n, n)
    stack of them."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
            raise InputError(f"form must be square, got shape {a.shape}")
        if np.max(np.abs(a - np.swapaxes(a, -1, -2)),
                  initial=0.0) > SYMMETRY_TOL:
            raise InputError("form is not symmetric to within 1e-14")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


def inner_product(u, v, sig: Signature) -> float:
    """Indefinite inner product of u and v; null-block coordinates contribute 0."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (sig.dim,) or v.shape != (sig.dim,):
        raise InputError(
            f"dimension mismatch: u {u.shape}, v {v.shape}, signature dim {sig.dim}")
    return float(np.dot(u * sig.weights(), v))


def gram_matrix(vectors: np.ndarray, sig: Signature) -> np.ndarray:
    """Pairwise inner products of the rows of `vectors`."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vectors.shape[1] != sig.dim:
        raise InputError("vector length does not match signature dimension")
    return (vectors * sig.weights()) @ vectors.T


def signature_of(form: SymmetricForm | np.ndarray,
                 tol_zero: float = DEFAULT_ZERO_TOL):
    """Count eigenvalues below -tol_zero / above +tol_zero / in between.

    A (P, n, n) stack gives a list with one Signature per matrix.
    """
    if tol_zero <= 0:
        raise InputError("tol_zero must be positive")
    if not isinstance(form, SymmetricForm):
        form = SymmetricForm(form)
    eig = np.linalg.eigvalsh(form.entries)
    neg = np.sum(eig < -tol_zero, axis=-1).tolist()
    pos = np.sum(eig > tol_zero, axis=-1).tolist()
    n = form.dim
    if eig.ndim == 1:
        return Signature(neg, pos, n - neg - pos)
    return [Signature(a, b, n - a - b) for a, b in zip(neg, pos)]


def radical_basis(form: SymmetricForm | np.ndarray,
                  tol_zero: float = DEFAULT_ZERO_TOL) -> list[np.ndarray]:
    """Orthonormal (Euclidean) basis of the near-kernel of a symmetric form.

    Ordered by ascending |eigenvalue|; each vector sign-normalized so its
    first nonzero component is positive.
    """
    if not isinstance(form, SymmetricForm):
        form = SymmetricForm(form)
    eig, vecs = np.linalg.eigh(form.entries)
    idx = [i for i in range(form.dim) if abs(eig[i]) <= tol_zero]
    idx.sort(key=lambda i: abs(eig[i]))
    out = []
    for i in idx:
        v = vecs[:, i].copy()
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        out.append(v)
    return out


def _rank(s: np.ndarray, tol: float):
    """Count of singular values (descending, along the last axis) above
    tol * max(1, s_max); 0 when they all vanish."""
    return np.sum(s > tol * np.maximum(1.0, s[..., :1]), axis=-1)


def numerical_rank(matrix: np.ndarray, tol: float = DEFAULT_ZERO_TOL):
    """Rank by singular values above an absolute tolerance (scaled by s_max).

    A stack of matrices (..., a, b) gives an integer array of ranks.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    r = _rank(np.linalg.svd(matrix, compute_uv=False), tol)
    return int(r) if matrix.ndim == 2 else r


def row_space_basis(matrix: np.ndarray, tol: float = DEFAULT_ZERO_TOL):
    """Euclidean-orthonormal basis (rows) of the row space of `matrix`; a
    (R, a, n) stack gives a list with one basis per matrix."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, s, vh = np.linalg.svd(matrix)
    r = _rank(s, tol)
    return vh[:r] if matrix.ndim == 2 else [v[:k] for v, k in zip(vh, r)]


def row_space_bases(matrices: np.ndarray,
                    tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Row-space basis of each matrix of a (..., a, n) stack, as
    (..., min(a, n), n) rows with every row past the matrix's rank set to
    zero."""
    _, s, vh = np.linalg.svd(matrices, full_matrices=False)
    keep = np.arange(vh.shape[-2]) < _rank(s, tol)[..., None]
    return vh * keep[..., None]


def null_space_basis(matrix: np.ndarray, tol: float = DEFAULT_ZERO_TOL):
    """Euclidean-orthonormal basis (rows) of the right null space of
    `matrix`; a (R, a, n) stack gives a list with one basis per matrix."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, s, vh = np.linalg.svd(matrix, full_matrices=True)
    r = _rank(s, tol)
    return vh[r:] if matrix.ndim == 2 else [v[k:] for v, k in zip(vh, r)]


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
        if kind == 0 and len(pos_idx) >= 2:
            i, j = rng.choice(pos_idx, size=2, replace=False)
            a = rng.uniform(0, 2 * np.pi)
            step[i, i] = step[j, j] = np.cos(a)
            step[i, j] = -np.sin(a)
            step[j, i] = np.sin(a)
        elif kind == 1 and len(neg_idx) >= 2:
            i, j = rng.choice(neg_idx, size=2, replace=False)
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
