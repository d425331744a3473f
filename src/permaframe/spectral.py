"""Laplacian eigenpairs of the new spectral content of each Schreier graph.

Every Schreier graph's function space splits into one new irreducible piece and
lifted copies of the pieces belonging to shapes earlier in dominance order.
The solver lifts the already-computed eigenvectors of those earlier shapes (one
lift per column-strict tableau), restricts the Laplacian to the orthogonal
complement of the lifted span, and eigendecomposes that small block.  Closed
forms are available for the two-row shape with a singleton (a path graph) and,
behind an optional fast path, for all hook shapes via wedge products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial, sqrt
from typing import Iterator, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse

from .combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    dominates,
    hook_dimension,
    kostka,
    partitions_of,
    row_word_matrix,
    tableau_to_set_partition,
)
from .errors import NumericalError, ResourceLimitError, ValidationError

EIG_CLUSTER_TOL = 1e-8
EIG_KEY_GRID = 1e-6
SIGN_TOL = 1e-8
RANK_TOL = 1e-10
RANK_WARN_BAND = (1e-8, 1e-4)
DENSE_ORACLE_MAX = 5040


def _dense(mat) -> np.ndarray:
    return mat.toarray() if scipy.sparse.issparse(mat) else np.asarray(mat)


def eigenvalue_key(lam: float) -> int:
    """Canonical integer key on a 1e-6 grid, shared across shapes so equal
    eigenvalues aggregate exactly."""
    return int(round(lam / EIG_KEY_GRID))


def key_to_value(key: int) -> float:
    return key * EIG_KEY_GRID


def reflected_key(n: int, key: int) -> int:
    """Key of 2(n-1) - lambda, exact in integer arithmetic."""
    return round(2 * (n - 1) / EIG_KEY_GRID) - key


@dataclass
class ShapeSpectrum:
    """Orthonormal eigenvectors spanning the new irreducible piece of one
    Schreier graph, grouped by clustered eigenvalue (ascending)."""

    shape: IntegerPartition
    eigenvalues: tuple[float, ...]
    keys: tuple[int, ...]
    kappas: tuple[int, ...]
    vectors: np.ndarray  # (m, d), columns grouped by eigenvalue

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    def blocks(self) -> Iterator[tuple[float, int, np.ndarray]]:
        """Yield (eigenvalue, key, vector block) per clustered eigenvalue."""
        lo = 0
        for lam, key, kappa in zip(self.eigenvalues, self.keys, self.kappas):
            yield lam, key, self.vectors[:, lo : lo + kappa]
            lo += kappa

    def eigenvector_rows(self) -> list[tuple[float, int, int]]:
        """(eigenvalue, key, k) per column of ``vectors``; k is 1-based within
        its eigenvalue."""
        rows = []
        for lam, key, kappa in zip(self.eigenvalues, self.keys, self.kappas):
            rows.extend((lam, key, k) for k in range(1, kappa + 1))
        return rows


# ---------------------------------------------------------------------------
# closed forms


def path_eigenpairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian eigenpairs of the n-vertex path graph.

    Eigenvalue ell is 2 - 2cos(pi*ell/n); the unit eigenvector has entries
    proportional to cos(pi*ell*(i - 0.5)/n) at vertex i = 1..n.  Returns
    (eigenvalues (n,), vectors (n, n)) with vectors[:, ell] the ell-th
    eigenvector.
    """
    if n < 2:
        raise ValidationError("path graph needs at least 2 vertices")
    ell = np.arange(n)
    lambdas = 2.0 - 2.0 * np.cos(np.pi * ell / n)
    i = np.arange(1, n + 1)[:, None]
    vectors = np.sqrt(2.0 / n) * np.cos(np.pi * ell[None, :] * (i - 0.5) / n)
    vectors[:, 0] = 1.0 / sqrt(n)
    return lambdas, vectors


def hook_wedge_eigenvectors(
    n: int, k: int, indices: tuple[int, ...]
) -> tuple[float, np.ndarray]:
    """Closed-form eigenpair of the hook shape [n-k, 1^k].

    The vertices embed into the k-fold product of the n-vertex path graph;
    antisymmetrizing a tensor of path eigenvectors (a k-fold wedge, i.e. a
    determinant) and restricting to the distinct tuples gives an eigenvector
    with eigenvalue the sum of the chosen path eigenvalues.  Returned
    unit-norm, on the canonical vertex order.
    """
    if not 1 <= k <= n - 1:
        raise ValidationError(f"hook depth k={k} out of range for n={n}")
    if len(set(indices)) != k or len(indices) != k:
        raise ValidationError(f"indices {indices} must be {k} distinct values")
    if any(not 1 <= i <= n - 1 for i in indices):
        raise ValidationError(f"indices {indices} out of range 1..{n - 1}")
    lambdas, vecs = path_eigenpairs(n)
    lam = float(sum(lambdas[i] for i in indices))
    shape = IntegerPartition((n - k,) + (1,) * k)
    rw = np.asarray(row_word_matrix(shape))
    m = rw.shape[0]
    # vertex -> the elements sitting in the singleton rows 1..k, in row order
    singles = np.empty((m, k), dtype=np.int64)
    for r in range(1, k + 1):
        singles[:, r - 1] = np.argmax(rw == r, axis=1)  # 0-based element
    mats = vecs[:, list(indices)][singles]  # (m, k, k): entry [::, j, l]
    values = np.linalg.det(mats) / sqrt(factorial(k))
    norm = np.linalg.norm(values)
    if norm < 1e-12:
        raise NumericalError(f"wedge restriction vanished for I={indices}")
    return lam, values / norm


# ---------------------------------------------------------------------------
# lifting between Schreier graphs


def lift_map_mask(
    gamma: IntegerPartition,
    nu: IntegerPartition,
    xi: OrderedSetPartition,
) -> tuple[np.ndarray, int]:
    """0/1 support of the map carrying functions on the nu-graph into the
    gamma-graph through the lifting labelled by xi (a set partition of shape
    gamma built from a column-strict tableau of shape nu).

    Entry (p, q) is nonzero exactly when the pairwise block-intersection
    pattern of (vertex p of gamma, vertex q of nu) matches that of
    (xi, reading-order partition of nu); all nonzero entries share one integer
    value, returned alongside the mask.
    """
    if xi.shape != gamma:
        raise ValidationError("lifting label does not have the target shape")
    rw_g = np.asarray(row_word_matrix(gamma), dtype=np.int16)
    rw_n = np.asarray(row_word_matrix(nu), dtype=np.int16)
    width = len(nu)
    xi_rw = np.asarray(xi.row_word, dtype=np.int16)
    pi1_rw = np.zeros(nu.n, dtype=np.int16)
    pos = 0
    for row, size in enumerate(nu.parts):
        pi1_rw[pos : pos + size] = row
        pos += size
    target = np.sort(xi_rw * width + pi1_rw)
    counts = np.bincount(target)
    value = 1
    for c in counts:
        value *= factorial(int(c))

    m_g, m_n = rw_g.shape[0], rw_n.shape[0]
    mask = np.empty((m_g, m_n), dtype=bool)
    chunk = max(1, int(4_000_000 // max(1, m_n * nu.n)))
    for lo in range(0, m_g, chunk):
        hi = min(m_g, lo + chunk)
        codes = rw_g[lo:hi, None, :] * width + rw_n[None, :, :]
        codes.sort(axis=2)
        mask[lo:hi] = (codes == target[None, None, :]).all(axis=2)
    return mask, value


def lift_between_shapes(
    nu: IntegerPartition,
    gamma: IntegerPartition,
    xi: OrderedSetPartition,
    x: np.ndarray,
) -> np.ndarray:
    """Image on the gamma-graph of a vector from the new piece of the nu-graph;
    eigenvectors map to eigenvectors with the same eigenvalue, and distinct
    tableaux give linearly independent images."""
    if not dominates(nu, gamma):
        raise ValidationError(
            f"{nu.parts} must strictly dominate {gamma.parts} for lifting"
        )
    mask, value = lift_map_mask(gamma, nu, xi)
    return value * (mask @ np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# deterministic bases


def sign_convention(v: np.ndarray, tol: float = SIGN_TOL) -> np.ndarray:
    """Flip so the entry at the lexicographically last vertex is positive,
    falling back to earlier vertices while the entry is below tolerance."""
    for idx in range(len(v) - 1, -1, -1):
        if abs(v[idx]) > tol:
            return v if v[idx] > 0 else -v
    return v


def canonical_eigenbasis(span: np.ndarray, kappa: int) -> np.ndarray:
    """Deterministic orthonormal basis of a subspace: orthonormalize the
    projections of the coordinate vectors, taken in canonical vertex order,
    by modified Gram-Schmidt, then apply the sign convention per vector.

    Depends only on the subspace, not on the solver's arbitrary basis.
    """
    m = span.shape[0]
    accepted: list[np.ndarray] = []
    for j in range(m):
        w = span @ span[j, :]
        for u in accepted:
            w = w - (u @ w) * u
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            accepted.append(w / norm)
            if len(accepted) == kappa:
                break
    if len(accepted) != kappa:
        raise NumericalError("canonical basis construction lost rank")
    return np.column_stack([sign_convention(u) for u in accepted])


def _cluster(values: np.ndarray, tol: float = EIG_CLUSTER_TOL) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) index ranges of values within tol of each other."""
    ranges = []
    lo = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            ranges.append((lo, i))
            lo = i
    return ranges


def _finalize_spectrum(
    shape: IntegerPartition,
    raw_values: np.ndarray,
    raw_vectors: np.ndarray,
    laplacian,
) -> ShapeSpectrum:
    order = np.argsort(raw_values, kind="stable")
    raw_values = raw_values[order]
    raw_vectors = raw_vectors[:, order]
    eigenvalues: list[float] = []
    keys: list[int] = []
    kappas: list[int] = []
    blocks: list[np.ndarray] = []
    for lo, hi in _cluster(raw_values):
        lam = float(raw_values[lo:hi].mean())
        basis = canonical_eigenbasis(raw_vectors[:, lo:hi], hi - lo)
        eigenvalues.append(lam)
        keys.append(eigenvalue_key(lam))
        kappas.append(hi - lo)
        blocks.append(basis)
    if len(set(keys)) != len(keys):
        raise NumericalError(
            f"distinct eigenvalue clusters of {shape.parts} collide on the key grid"
        )
    vectors = np.column_stack(blocks) if blocks else np.zeros((raw_vectors.shape[0], 0))
    spectrum = ShapeSpectrum(shape, tuple(eigenvalues), tuple(keys), tuple(kappas), vectors)
    check_residuals(spectrum, laplacian)
    return spectrum


def check_residuals(spectrum: ShapeSpectrum, laplacian) -> None:
    """Raise ``NumericalError`` unless every stored block is an eigenspace of
    ``laplacian`` at its eigenvalue and the columns are orthonormal."""
    for lam, _key, block in spectrum.blocks():
        residual = np.linalg.norm(laplacian @ block - lam * block, axis=0).max()
        if residual > 1e-8 * (1.0 + lam):
            raise NumericalError(
                f"eigencheck failed for {spectrum.shape.parts} at {lam}: {residual:.2e}"
            )
    gram = spectrum.vectors.T @ spectrum.vectors
    if np.abs(gram - np.eye(spectrum.d)).max() > 1e-10:
        raise NumericalError(f"eigenbasis of {spectrum.shape.parts} not orthonormal")


# ---------------------------------------------------------------------------
# the deflation solver


def deflate_and_solve(
    shape: IntegerPartition,
    laplacian,
    dominator_spectra: Mapping[IntegerPartition, ShapeSpectrum],
) -> ShapeSpectrum:
    """Eigenpairs of the new irreducible piece of one Schreier graph.

    Lifts the eigenvectors of every strictly dominating shape through all of
    its column-strict tableaux, orthonormalizes the lifted family (its rank
    must be m - d), and eigendecomposes the Laplacian restricted to the
    orthogonal complement.
    """
    lap = _dense(laplacian)
    m = lap.shape[0]
    d = hook_dimension(shape)
    doms = [nu for nu in partitions_of(shape.n) if dominates(nu, shape)]
    missing = [nu for nu in doms if nu not in dominator_spectra]
    if missing:
        raise ValidationError(
            f"missing dominator spectra for {[nu.parts for nu in missing]}"
        )

    if not doms:
        # the one-row shape: a single vertex, eigenvalue exactly 0
        vectors = np.ones((1, 1))
        return ShapeSpectrum(shape, (0.0,), (0,), (1,), vectors)

    lifted = []
    for nu in doms:
        count, tableaux = kostka(shape, nu)
        if count == 0:
            raise NumericalError(f"no tableaux for dominator {nu.parts}")
        basis = dominator_spectra[nu].vectors
        for tab in tableaux:
            mask, _value = lift_map_mask(shape, nu, tableau_to_set_partition(tab))
            lifted.append(mask.astype(np.float64) @ basis)
    span = np.column_stack(lifted)
    if span.shape[1] != m - d:
        raise NumericalError(
            f"lifted multiplicities for {shape.parts} give {span.shape[1]} columns, "
            f"expected {m - d}"
        )
    u, s, _ = np.linalg.svd(span, full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    gray = np.count_nonzero(
        (s > RANK_WARN_BAND[0] * s[0]) & (s < RANK_WARN_BAND[1] * s[0])
    )
    if gray:
        warnings.warn(
            f"{gray} borderline singular values while deflating {shape.parts}",
            RuntimeWarning,
            stacklevel=2,
        )
    if rank != m - d:
        raise NumericalError(
            f"lifted span for {shape.parts} has rank {rank}, expected {m - d}"
        )
    complement = u[:, rank:]
    block = complement.T @ lap @ complement
    block = 0.5 * (block + block.T)
    values, coeffs = scipy.linalg.eigh(block)
    vectors = complement @ coeffs
    return _finalize_spectrum(shape, values, vectors, lap)


def hook_fastpath_spectrum(shape: IntegerPartition, laplacian) -> ShapeSpectrum:
    """Assemble the spectrum of a hook shape from closed-form wedge vectors.

    The per-eigenvalue subspaces agree with the deflation route and the
    canonical basis depends only on the subspace, so both routes emit the same
    vectors.
    """
    parts = shape.parts
    n = shape.n
    k = len(parts) - 1
    if any(p != 1 for p in parts[1:]):
        raise ValidationError(f"{parts} is not a hook shape")
    if k == 0:
        return deflate_and_solve(shape, laplacian, {})
    from itertools import combinations

    pairs = [
        hook_wedge_eigenvectors(n, k, subset)
        for subset in combinations(range(1, n), k)
    ]
    values = np.array([lam for lam, _vec in pairs])
    vectors = np.column_stack([vec for _lam, vec in pairs])
    lap = _dense(laplacian)
    return _finalize_spectrum(shape, values, vectors, lap)


# ---------------------------------------------------------------------------
# oracles and global checks


def dense_oracle(laplacian) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition for cross-checks; desk scale only."""
    lap = _dense(laplacian)
    if lap.shape[0] > DENSE_ORACLE_MAX:
        raise ResourceLimitError(
            f"dense oracle refused for {lap.shape[0]} vertices (> {DENSE_ORACLE_MAX})"
        )
    return scipy.linalg.eigh(0.5 * (lap + lap.T))


@dataclass
class DominanceReport:
    """Smallest eigenvalue per shape and all dominance-order violations."""

    n: int
    smallest: dict[IntegerPartition, float]
    violations: list[tuple[IntegerPartition, IntegerPartition, float, float]]

    def table_rows(self) -> list[tuple[str, float]]:
        return [
            (shape.label(), self.smallest[shape]) for shape in partitions_of(self.n)
        ]


def verify_dominance_conjecture(
    n: int, spectra: Mapping[IntegerPartition, ShapeSpectrum]
) -> DominanceReport:
    """Check that the smallest eigenvalue strictly decreases along strict
    dominance, over every shape of n.

    ``spectra`` must cover the transpose-reduced shape list; transposes are
    filled in by the spectral reflection lambda -> 2(n-1) - lambda.
    """
    smallest: dict[IntegerPartition, float] = {}
    for shape in partitions_of(n):
        if shape in spectra:
            smallest[shape] = min(spectra[shape].eigenvalues)
        else:
            conj = shape.transpose()
            if conj not in spectra:
                raise ValidationError(
                    f"no spectrum for {shape.parts} or its transpose"
                )
            smallest[shape] = 2.0 * (n - 1) - max(spectra[conj].eigenvalues)
    violations = []
    shapes = partitions_of(n)
    for nu in shapes:
        for gamma in shapes:
            if dominates(nu, gamma) and not smallest[nu] < smallest[gamma]:
                violations.append((nu, gamma, smallest[nu], smallest[gamma]))
    return DominanceReport(n, smallest, violations)
