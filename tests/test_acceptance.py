"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 needs prepared public ballot files and is skipped unless
the PERMAFRAME_DATA directory is provided.
"""

import os
import time
from fractions import Fraction
from itertools import permutations as iperms
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from permaframe import build_cache
from permaframe.ballots import parse_ballots, read_ballot_file, tally
from permaframe.cli import main as cli_main
from permaframe.combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    Permutation,
    enumerate_ordered_set_partitions,
    h_shapes,
    hook_dimension,
    multiplicity_constants,
    partitions_of,
)
from permaframe.frame import (
    Signal,
    analyze,
    atom,
    sign_flip,
    synthesize,
)
from permaframe.schreier import (
    build_characteristic,
    build_schreier,
    characteristic_column_map,
    minimal_paths,
)
from permaframe.spectral import (
    eigenvalue_key,
    key_to_value,
    verify_dominance_conjecture,
)

from oracles import (
    all_atom_ids,
    compose,
    csr_laplacian,
    dense_characteristic,
    dense_oracle,
    inversion_count,
    kostka,
)


def shape(*parts):
    return IntegerPartition(tuple(parts))


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# 1. Parseval and reconstruction


def test_criterion_1_parseval_and_reconstruction(cache4_all, cache5_all, cache6_all):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_ratio = 0.0
    worst_err = 0.0
    for cache in (cache4_all, cache5_all, cache6_all):
        for _ in range(20):
            f = Signal.random(cache.n, rng)
            table = analyze(cache, f)
            ratio = table.total_energy() / f.norm2()
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
            rec = synthesize(cache, table)
            err = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
            worst_err = max(worst_err, err)
    elapsed = time.perf_counter() - start
    assert worst_ratio < 1e-9
    assert worst_err < 1e-9
    assert elapsed < 60.0
    report(
        f"1 PASS parseval |ratio-1|<={worst_ratio:.2e}, rec err<={worst_err:.2e}, "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. Oracle equivalence


@pytest.mark.parametrize("n", [4, 5])
def test_criterion_2_oracle_equivalence(n, cache4_all, cache5_all):
    cache = cache4_all if n == 4 else cache5_all
    ones = (1,) * n
    lap = csr_laplacian(build_schreier(IntegerPartition(ones)))
    w, _ = dense_oracle(lap)
    # cluster the dense spectrum at 1e-8 before keying
    observed: dict[int, int] = {}
    lo = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > 1e-8:
            key = eigenvalue_key(float(w[lo:i].mean()))
            observed[key] = observed.get(key, 0) + (i - lo)
            lo = i
    expected: dict[int, int] = {}
    for g in partitions_of(n):
        spectrum = cache.bundles[g].spectrum
        d = hook_dimension(g)
        for key, kappa in zip(spectrum.keys, spectrum.kappas):
            expected[key] = expected.get(key, 0) + d * kappa
    assert observed == expected

    worst = 0.0
    for g in cache.shapes:
        spectrum = cache.bundles[g].spectrum
        for a in all_atom_ids(cache, g):
            vec = atom(cache, a)
            lam = spectrum.eigenvalues[spectrum.keys.index(a.eigen_key)]
            worst = max(worst, float(np.linalg.norm(lap @ vec - lam * vec)))
    assert worst < 1e-8
    report(f"2 PASS n={n} spectrum multiset matches; atom residual <= {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Published constants


def test_criterion_3_reference_constants():
    c4 = build_cache(4, [shape(3, 1), shape(2, 2)])
    lam31 = c4.bundles[shape(3, 1)].spectrum.eigenvalues
    assert np.allclose(lam31, [0.5858, 2.0, 3.4142], atol=5e-4)
    lam22 = c4.bundles[shape(2, 2)].spectrum.eigenvalues
    assert np.allclose(lam22, [1.2679, 4.7321], atol=5e-4)

    c10 = build_cache(10, "h", top_k=2)
    lam91 = c10.bundles[shape(9, 1)].spectrum.eigenvalues
    assert lam91[0] == pytest.approx(0.0979, abs=5e-5)
    assert lam91[1] == pytest.approx(0.3820, abs=5e-5)

    dims = {
        (6,): 1, (5, 1): 5, (4, 2): 9, (4, 1, 1): 10, (3, 3): 5, (3, 2, 1): 16,
    }
    for parts, d in dims.items():
        assert hook_dimension(IntegerPartition(parts)) == d
    total = sum(
        kostka(shape(3, 2, 1), nu)[0] * hook_dimension(nu) for nu in partitions_of(6)
    )
    assert total == 60 == multiplicity_constants(shape(3, 2, 1)).m

    assert kostka(shape(4, 2, 2, 1), shape(5, 4))[0] == 3

    counts = {
        n: sum(
            hook_dimension(s) * multiplicity_constants(s).z for s in h_shapes(n)
        )
        for n in range(3, 8)
    }
    assert counts == {3: 7, 4: 19, 5: 131, 6: 1326, 7: 6987}
    count_10_8 = sum(
        hook_dimension(s) * multiplicity_constants(s).z for s in h_shapes(10, 8)
    )
    assert count_10_8 == 98866
    report("3 PASS eigenvalues, dimensions, Kostka number, atom counts all match")


# ---------------------------------------------------------------------------
# 4. Structural identities


def test_criterion_4_structural_identities(cache4_all, cache5_all):
    # exact lifting-matrix orthogonality
    for n in (3, 4, 5):
        for g in partitions_of(n):
            char = build_characteristic(g)
            m = multiplicity_constants(g).m
            dense = dense_characteristic(char).astype(np.int64)
            gram = dense.T @ dense
            assert np.array_equal(gram, (factorial(n) // m) * np.eye(m, dtype=np.int64))

    # left action permutes the rows of the lifting matrix onto other liftings
    rng = np.random.default_rng(5)
    from permaframe.combinatorics import lex_rank, reading_order_partition
    from oracles import act, invert_index_map, lex_unrank

    for g in [shape(2, 2), shape(3, 1, 1)]:
        n = g.n
        pi1 = reading_order_partition(g)
        base = characteristic_column_map(g, pi1)
        for _ in range(3):
            sigma = Permutation(tuple(rng.permutation(n) + 1))
            left_map = np.array(
                [lex_rank(compose(sigma, lex_unrank(r, n))) for r in range(factorial(n))],
                dtype=np.int64,
            )
            moved = characteristic_column_map(g, act(sigma, pi1))
            assert np.array_equal(moved, base[invert_index_map(left_map)])

    # equal-row sign relation for every shape with repeated parts, n <= 5
    for cache in (cache4_all, cache5_all):
        for g in cache.shapes:
            parts = g.parts
            vectors = cache.bundles[g].spectrum.vectors
            for i in range(len(parts) - 1):
                if parts[i] != parts[i + 1]:
                    continue
                t = parts[i]
                for pi in enumerate_ordered_set_partitions(g):
                    blocks = list(pi.blocks)
                    blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
                    swapped = OrderedSetPartition.from_blocks(blocks)
                    ca = characteristic_column_map(g, pi)
                    cb = characteristic_column_map(g, swapped)
                    assert np.allclose(
                        vectors[ca], ((-1.0) ** t) * vectors[cb], atol=1e-10
                    )

    # minimal path lengths equal inversion counts for every shape, n <= 6
    for n in range(2, 7):
        for g in partitions_of(n):
            for path in minimal_paths(g):
                assert len(path.swaps) == inversion_count(path.target)
    report("4 PASS lifting orthogonality, row-permutation, sign relation, path lengths")


# ---------------------------------------------------------------------------
# 5. Dominance-order conjecture


def test_criterion_5_dominance_conjecture():
    start = time.perf_counter()
    for n in range(2, 8):
        cache = build_cache(n, "h")
        spectra = {s: b.spectrum for s, b in cache.bundles.items()}
        rep = verify_dominance_conjecture(n, spectra)
        assert rep.violations == [], f"violations at n={n}: {rep.violations}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(f"5 PASS no dominance violations for n <= 7 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. Transpose-shape sign trick


def test_criterion_6_conjugate_trick(cache5_all):
    rng = np.random.default_rng(6)
    g221, g32 = shape(2, 2, 1), shape(3, 2)
    key_hi = [
        k
        for k in cache5_all.bundles[g221].spectrum.keys
        if abs(key_to_value(k) - 7.1774) < 5e-4
    ][0]
    key_lo = [
        k
        for k in cache5_all.bundles[g32].spectrum.keys
        if abs(key_to_value(k) - 0.8226) < 5e-4
    ][0]
    worst = 0.0
    for _ in range(10):
        f = Signal.random(5, rng)
        direct = dict(
            (k, e) for _s, k, e in analyze(cache5_all, f, shapes=[g221]).energy_rows()
        )
        flipped = dict(
            (k, e)
            for _s, k, e in analyze(
                cache5_all, sign_flip(f), shapes=[g32]
            ).energy_rows()
        )
        worst = max(worst, abs(direct[key_hi] - flipped[key_lo]))
    assert worst < 1e-9
    report(f"6 PASS energy identity at (2,2,1)/7.1774 vs (3,2)/0.8226, gap <= {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. Constant-signal law


def test_criterion_7_constant_signal_law(cache5_all):
    # symbolic form of the top-shape energy
    for votes, n in [(5738, 5), (9578, 4), (1, 3)]:
        exact = Fraction(votes * votes, factorial(n))
        assert exact == Fraction(votes, 1) * Fraction(votes, factorial(n))
    # synthetic file with 120 rankings and counts summing to 5738
    rankings = [Permutation(w) for w in iperms(range(1, 6))]
    base, extra = divmod(5738, 120)
    lines = ["n=5"] + [
        " ".join(map(str, r.word)) + f",{base + (1 if i < extra else 0)}"
        for i, r in enumerate(rankings)
    ]
    ballots = parse_ballots("\n".join(lines))
    assert ballots.total() == 5738 and len(ballots.records) == 120
    signal = tally(ballots)
    table = analyze(cache5_all, signal, shapes=[shape(5)])
    energy = table.total_energy()
    expected = Fraction(5738**2, 120)
    assert energy == pytest.approx(float(expected), rel=1e-12)
    assert round(float(expected)) == 274372
    report(f"7 PASS top-shape energy {energy:.1f} equals 5738^2/120")


# ---------------------------------------------------------------------------
# 8. Dataset-conditional checks


DATA_ENV = "PERMAFRAME_DATA"


def test_criterion_8_public_datasets(cache4_all):
    root = os.environ.get(DATA_ENV)
    if not root:
        report("8 SKIP public ballot files not provided "
               f"(set {DATA_ENV} to a directory with mn2017_ward3.votes)")
        pytest.skip(f"{DATA_ENV} not set")
    path = Path(root) / "mn2017_ward3.votes"
    if not path.exists():
        report(f"8 SKIP {path} not found")
        pytest.skip(f"{path} missing")
    signal = tally(read_ballot_file(path))
    table = analyze(cache4_all, signal)
    totals = {g.parts: e for g, e in table.shape_energies().items()}
    expected = {
        (4,): 1064709.4,
        (3, 1): 355201.6,
        (2, 2): 137575.3,
        (2, 1, 1): 47942.6,
        (1, 1, 1, 1): 1820.0,
    }
    for parts, value in expected.items():
        assert totals[parts] == pytest.approx(value, abs=0.5)
    split = {
        round(key_to_value(k), 3): e
        for _s, k, e in analyze(cache4_all, signal, shapes=[shape(3, 1)]).energy_rows()
    }
    assert split[0.586] == pytest.approx(147617.5, abs=0.5)
    assert split[2.0] == pytest.approx(192845.1, abs=0.5)
    assert split[3.414] == pytest.approx(14739.0, abs=0.5)
    report("8 PASS per-shape energies and the (3,1) eigenvalue split match")


# ---------------------------------------------------------------------------
# 9. Scale


def test_criterion_9_scale(tmp_path):
    rng = np.random.default_rng(9)

    def ballot_file(n: int, records: int, path: Path) -> Path:
        lines = [f"n={n}"]
        for _ in range(records):
            word = rng.permutation(n) + 1
            lines.append(" ".join(map(str, word)) + f",{rng.integers(1, 9)}")
        path.write_text("\n".join(lines) + "\n")
        return path

    votes8 = ballot_file(8, 2000, tmp_path / "votes8.txt")
    start = time.perf_counter()
    assert cli_main(["setup", "--n", "8", "--cache", str(tmp_path / "c8")]) == 0
    setup8 = time.perf_counter() - start
    start = time.perf_counter()
    assert (
        cli_main(
            [
                "analyze", "--cache", str(tmp_path / "c8"),
                "--ballots", str(votes8),
                "--out", str(tmp_path / "a8.csv"),
            ]
        )
        == 0
    )
    analyze8 = time.perf_counter() - start

    votes10 = ballot_file(10, 3000, tmp_path / "votes10.txt")
    start = time.perf_counter()
    assert (
        cli_main(
            ["setup", "--n", "10", "--shapes", "8", "--cache", str(tmp_path / "c10")]
        )
        == 0
    )
    setup10 = time.perf_counter() - start
    assert setup10 < 300.0
    start = time.perf_counter()
    assert (
        cli_main(
            [
                "analyze", "--cache", str(tmp_path / "c10"),
                "--ballots", str(votes10),
                "--out", str(tmp_path / "a10.csv"),
            ]
        )
        == 0
    )
    analyze10 = time.perf_counter() - start
    assert analyze10 < 300.0
    rows10 = sum(1 for _ in open(tmp_path / "a10.csv")) - 1
    assert rows10 == 98866
    report(
        f"9 PASS n=8 setup {setup8:.1f}s analyze {analyze8:.1f}s; "
        f"n=10 top-8 setup {setup10:.1f}s analyze {analyze10:.1f}s"
    )
