"""Energy decompositions: by symmetry type, by eigenvalue, and jointly.

The squared analysis coefficients can be aggregated three ways:

* per shape        - the energy of the projection onto one isotypic component,
                     i.e. the marginal effects of that order net of lower ones;
* per eigenvalue   - the graph Fourier transform, a smoothness profile;
* per (shape, eigenvalue) - the joint table behind stacked-bar plots.

Shapes whose transpose comes earlier lexicographically are never solved
directly: their energies are recovered by analyzing the sign-flipped signal on
the transposed shape and reflecting each eigenvalue across 2(n-1).
"""

from pathlib import Path

from permaframe import build_cache, read_ballot_file, tally
from permaframe.frame import analyze_with_conjugates, conjugate_energy_rows, graph_fourier
from permaframe.spectral import key_to_value

HERE = Path(__file__).parent

cache = build_cache(4, "h")
signal = tally(read_ballot_file(HERE / "data" / "city_council.votes"))
energy = signal.norm2()

# the direct table, and the sign-flipped one that completes the two transpose
# shapes
table, flipped = analyze_with_conjugates(cache, signal)
per_shape = {g: e for g, e in table.shape_energies().items()}
for g, e in flipped.shape_energies().items():
    per_shape[g.transpose()] = e

print(f"signal energy {energy:.1f} splits across symmetry types as:")
for g in sorted(per_shape, key=lambda s: s.parts, reverse=True):
    share = per_shape[g] / energy
    print(f"  {g.label():>8}: {per_shape[g]:12.1f}  ({share:6.2%})")
print(f"  {'total':>8}: {sum(per_shape.values()):12.1f}")

# joint (shape, eigenvalue) rows, the data behind a stacked bar chart
print("\nper shape-eigenvalue pair:")
rows = table.energy_rows() + conjugate_energy_rows(flipped)
rows.sort(key=lambda r: (r[1], tuple(-p for p in r[0].parts)))
for g, key, e in rows:
    if e > 1e-6:
        print(f"  lambda={key_to_value(key):7.4f}  shape {g.label():>8}  {e:12.1f}")

# the graph Fourier transform: energy per Laplacian eigenvalue only
print("\ngraph Fourier transform (eigenvalue, component norm):")
for key, norm in graph_fourier(cache, signal):
    print(f"  {key_to_value(key):7.4f}  {norm:10.1f}")
print("low eigenvalues dominating means the tally varies slowly between")
print("rankings that differ by one adjacent swap, the usual shape of real")
print("preference data.")
