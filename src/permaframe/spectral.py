"""Laplacian eigenpairs of the new spectral content of each Schreier graph.

Every Schreier graph's function space splits into one new irreducible piece,
the Specht module of its shape, and copies of the pieces of the shapes that
dominate it.  Three routes lead to the new piece's eigenpairs:

* closed forms: the shape (n-1, 1) is a path graph in disguise, and every
  hook shape embeds in a product of path graphs whose antisymmetrized (wedge)
  eigenvectors restrict to Schreier eigenvectors;
* polytabloids: the standard polytabloids are a basis of the Specht module,
  and the Laplacian, which lies in the group algebra, preserves it, so one
  small symmetric eigensolve on an orthonormal basis of their span gives
  every shape's eigenpairs independently of the others;
* reflection: a transposed shape needs no solve, since its spectrum is the
  mirror image lambda -> 2(n-1) - lambda.

Setup uses the polytabloid route.  The closed forms check it, and the
reflection stands in for the transposed shapes that setup leaves out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial, sqrt
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .combinatorics import (
    IntegerPartition,
    dominates,
    multiplicity_constants,
    partitions_of,
    row_word_matrix,
    standard_row_words,
)
from .errors import NumericalError, ValidationError
from .schreier import key_powers, vertex_table

# clusters of one shape lie over 1e-8 = 10 grid steps apart, so never share a key
EIG_CLUSTER_TOL = 1e-8
EIG_KEY_GRID = 1e-9
KEY_MIN_GAP = 4  # grid steps between the keys of distinct eigenvalues
SIGN_TOL = 1e-8


def eigenvalue_key(lam: float) -> int:
    """Canonical integer key on a 1e-9 grid, shared across shapes so equal
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
# deterministic bases


def sign_convention(v: np.ndarray) -> np.ndarray:
    """Flip so the entry at the lexicographically last vertex is positive,
    falling back to earlier vertices while the entry is below tolerance."""
    for idx in range(len(v) - 1, -1, -1):
        if abs(v[idx]) > SIGN_TOL:
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


def _cluster(values: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) index ranges of values within EIG_CLUSTER_TOL of each other."""
    ranges = []
    lo = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > EIG_CLUSTER_TOL:
            ranges.append((lo, i))
            lo = i
    return ranges


def _finalize_spectrum(
    shape: IntegerPartition,
    raw_values: np.ndarray,
    raw_vectors: np.ndarray,
    apply_laplacian: Callable[[np.ndarray], np.ndarray],
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
    vectors = np.column_stack(blocks) if blocks else np.zeros((raw_vectors.shape[0], 0))
    del blocks, raw_vectors  # before the residual check's (m, d) temporaries
    spectrum = ShapeSpectrum(shape, tuple(eigenvalues), tuple(keys), tuple(kappas), vectors)
    check_residuals(spectrum, apply_laplacian)
    return spectrum


def check_residuals(
    spectrum: ShapeSpectrum, apply_laplacian: Callable[[np.ndarray], np.ndarray]
) -> None:
    """Raise ``NumericalError`` unless every stored column is an eigenvector
    of the Laplacian, which ``apply_laplacian`` applies to an (m, k) array, at
    its eigenvalue and the columns are orthonormal."""
    lams = np.repeat(spectrum.eigenvalues, spectrum.kappas)
    vectors = spectrum.vectors
    errors = apply_laplacian(vectors)
    errors -= vectors * lams
    residuals = np.linalg.norm(errors, axis=0)
    bad = np.flatnonzero(residuals > 1e-8 * (1.0 + lams))
    if len(bad):
        raise NumericalError(
            f"eigencheck failed for {spectrum.shape.parts} at {lams[bad[0]]}: "
            f"{residuals[bad[0]]:.2e}"
        )
    gram = vectors.T @ vectors
    if np.abs(gram - np.eye(spectrum.d)).max() > 1e-10:
        raise NumericalError(f"eigenbasis of {spectrum.shape.parts} not orthonormal")


# ---------------------------------------------------------------------------
# the Specht-module solver


def polytabloid_matrix(shape: IntegerPartition) -> np.ndarray:
    """(m, d) matrix of the standard polytabloids on the canonical vertex
    order, one column per standard Young tableau T:
    e_T = sum over the column group C_T of sgn(pi) {pi T}, with entries +-1.

    The column group, the product of S_l over the column lengths l, is one
    table: row g holds the row each cell's entry moves to (cells in reading
    order), so the tabloid {g T} has that row at the cell's element, and its
    vertex key is the table times the key powers at T's elements.
    """
    cells = [(r, c) for r, size in enumerate(shape.parts) for c in range(size)]
    columns = shape.transpose().parts
    perms = [np.array(list(permutations(range(length))), dtype=np.intp) for length in columns]
    picks = np.indices([len(p) for p in perms]).reshape(len(perms), -1)
    moved = np.empty((picks.shape[1], shape.n), dtype=np.intp)
    signs = np.ones(picks.shape[1])
    for c, (perm, pick) in enumerate(zip(perms, picks)):
        inversions = np.triu(perm[:, :, None] > perm[:, None, :]).sum(axis=(1, 2))
        moved[:, [i for i, cell in enumerate(cells) if cell[1] == c]] = perm[pick]
        signs *= (1 - 2 * (inversions % 2))[pick]
    # each standard tableau's elements in reading order (0-based)
    elements = np.argsort(standard_row_words(shape), axis=1, kind="stable")
    vertices = vertex_table(shape)[moved @ key_powers(shape)[elements].T]
    basis = np.zeros((multiplicity_constants(shape).m, len(elements)))
    basis[vertices, np.arange(len(elements))] = signs[:, None]
    return basis


def specht_spectrum(
    shape: IntegerPartition, apply_laplacian: Callable[[np.ndarray], np.ndarray]
) -> ShapeSpectrum:
    """Eigenpairs of the new irreducible piece of one Schreier graph, whose
    Laplacian ``apply_laplacian`` applies to an (m, k) array.

    That piece is the Specht module, spanned by the standard polytabloids.
    The Laplacian lies in the group algebra, so it preserves the module: its
    restriction to an orthonormal basis Q of the polytabloids' span is a
    d x d symmetric block whose eigenvectors X give the eigenvectors Q X.
    """
    q, r = np.linalg.qr(polytabloid_matrix(shape))
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-8 * diag.max():
        raise NumericalError(f"standard polytabloids of {shape.parts} lost rank")
    block = q.T @ apply_laplacian(q)
    values, coeffs = np.linalg.eigh(0.5 * (block + block.T))
    return _finalize_spectrum(shape, values, q @ coeffs, apply_laplacian)


# the benchmark's tracer (perfbench/trace_cli.py) binds this older name
deflate_and_solve = specht_spectrum


# ---------------------------------------------------------------------------
# global checks


def check_key_separation(n: int, spectra: Iterable[ShapeSpectrum]) -> None:
    """Raise ``NumericalError`` when two distinct keys among the spectra's
    eigenvalues and their reflections 2(n-1) - lambda lie fewer than
    ``KEY_MIN_GAP`` grid steps apart: either equal eigenvalues rounded to
    neighboring keys, or distinct ones too close for the grid to keep apart.
    Either way rows that ``gft`` and ``energy`` group by key would be wrong."""
    keys = np.unique([k for s in spectra for key in s.keys for k in (key, reflected_key(n, key))])
    gaps = np.diff(keys)
    if len(gaps) and gaps.min() < KEY_MIN_GAP:
        i = int(gaps.argmin())
        raise NumericalError(f"keys {keys[i]} and {keys[i + 1]} are {gaps[i]} grid steps apart")


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
