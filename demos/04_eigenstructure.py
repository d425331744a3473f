"""Inside the setup phase: where the eigenvectors come from.

Three routes to the same spectra:

1. closed forms   - the two-block-with-singleton shape is a path graph in
   disguise, and every hook shape embeds in a product of path graphs whose
   antisymmetrized (wedge) eigenvectors restrict to Schreier eigenvectors;
2. polytabloids   - what setup does for every shape: the standard
   polytabloids are a basis of the shape's Specht module, the Laplacian
   preserves that module, and one small symmetric eigensolve on it gives the
   shape's eigenpairs without looking at any other shape;
3. reflection     - a transposed shape needs no solve at all: its spectrum is
   the mirror image across 2(n-1).

The smallest eigenvalue per shape decreases strictly along dominance order,
which is checked exhaustively here for n = 6.
"""

from itertools import combinations

import numpy as np

from permaframe import build_cache
from permaframe.combinatorics import IntegerPartition, hook_dimension, partitions_of
from permaframe.schreier import build_schreier
from permaframe.spectral import (
    hook_wedge_eigenvectors,
    path_eigenpairs,
    polytabloid_matrix,
    verify_dominance_conjecture,
)

n = 6
cache = build_cache(n, "h")

# route 1a: the path-graph closed form
lambdas, _ = path_eigenpairs(n)
two_block = cache.bundle(IntegerPartition((n - 1, 1))).spectrum
print("path closed form vs. setup for the singleton shape:")
print("  closed form :", np.round(lambdas[1:], 4))
print("  setup       :", np.round(two_block.eigenvalues, 4))

# route 1b: wedge products for a deeper hook
hook = IntegerPartition((n - 2, 1, 1))
graph = build_schreier(hook)
print(f"\nwedge eigenvectors on the hook shape {hook.label()}:")
for subset in list(combinations(range(1, n), 2))[:4]:
    lam, vec = hook_wedge_eigenvectors(n, 2, subset)
    residual = np.linalg.norm(graph.apply_laplacian(vec) - lam * vec)
    print(f"  indices {subset}: eigenvalue {lam:.4f}, residual {residual:.1e}")

# route 2: the standard polytabloids of a non-hook shape span the eigenvectors
g = IntegerPartition((4, 2))
basis = polytabloid_matrix(g)
spectrum = cache.bundle(g).spectrum
inside = basis @ np.linalg.lstsq(basis, spectrum.vectors, rcond=None)[0]
print(f"\nstandard polytabloids of {g.label()}:")
print(f"  {basis.shape[1]} of them (d = {hook_dimension(g)}) on {basis.shape[0]} vertices,"
      f" entries {sorted(set(basis.ravel().tolist()))}")
print(f"  setup's eigenvectors lie in their span: residual {np.abs(inside - spectrum.vectors).max():.1e}")
print("  eigenvalues   :", np.round(spectrum.eigenvalues, 4))
print("  multiplicities:", spectrum.kappas)

# route 3: the transpose, solved on its own, is the reflection
gt = g.transpose()
direct = build_cache(n, [gt]).bundle(gt).spectrum
mirrored = sorted(2 * (n - 1) - lam for lam in spectrum.eigenvalues)
print(f"\n{gt.label()} solved directly vs. reflected from {g.label()}:")
print("  direct   :", np.round(direct.eigenvalues, 4))
print("  reflected:", np.round(mirrored, 4))
assert np.allclose(direct.eigenvalues, mirrored, atol=1e-9)

# the reflection also fills in the dominance check over every shape of n
report = verify_dominance_conjecture(n, {s: b.spectrum for s, b in cache.bundles.items()})
print(f"\nsmallest eigenvalue per shape (n={n}), descending-lex order:")
for label, smallest in report.table_rows():
    print(f"  {label:>12}: {smallest:8.4f}")
print("dominance violations:", report.violations or "none")
assert not report.violations

# the eigenvalue 3 shows up in two different symmetry types at n=6, so joint
# shape-eigenvalue bookkeeping is genuinely finer than the eigenvalue alone
shared = [
    s.label()
    for s in partitions_of(n)
    if s in cache.bundles and any(abs(v - 3.0) < 1e-9 for v in cache.bundles[s].spectrum.eigenvalues)
]
print("shapes sharing the eigenvalue 3:", shared)
