import json
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from permaframe import spectral
from permaframe.combinatorics import (
    IntegerPartition,
    h_shapes,
    hook_dimension,
    partitions_of,
)
from permaframe.errors import NumericalError
from permaframe.schreier import build_schreier
from permaframe.spectral import (
    KEY_MIN_GAP,
    ShapeSpectrum,
    check_key_separation,
    eigenvalue_key,
    hook_wedge_eigenvectors,
    key_to_value,
    path_eigenpairs,
    polytabloid_matrix,
    reflected_key,
    sign_convention,
    specht_spectrum,
    verify_dominance_conjecture,
)

from oracles import (
    csr_laplacian,
    deflate_and_solve,
    deflation_spectra,
    dense_oracle,
    kostka,
    lift_between_shapes,
    lift_map_mask,
    loop_counts,
    reference_specht_spectrum,
    tableau_to_set_partition,
    yor_laplacian,
)

DATA = Path(__file__).parent / "data"


def shape(*parts):
    return IntegerPartition(tuple(parts))


def spectra_of(cache):
    return {s: b.spectrum for s, b in cache.bundles.items()}


# ---------------------------------------------------------------------------
# closed forms


def test_path_eigenvalues_n4():
    lambdas, vectors = path_eigenpairs(4)
    assert lambdas[1:] == pytest.approx([0.5858, 2.0, 3.4142], abs=5e-4)
    assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0)
    assert np.allclose(vectors[:, 0], 0.5)


def test_path_eigenvalues_n10():
    lambdas, _ = path_eigenpairs(10)
    assert lambdas[1] == pytest.approx(0.0979, abs=5e-5)
    assert lambdas[2] == pytest.approx(0.3820, abs=5e-5)


def test_path_vectors_are_laplacian_eigenvectors():
    n = 7
    lambdas, vectors = path_eigenpairs(n)
    lap = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap[0, 0] = lap[-1, -1] = 1
    for ell in range(n):
        assert np.allclose(lap @ vectors[:, ell], lambdas[ell] * vectors[:, ell])


def test_deflation_reproduces_path_closed_form(cache6_all):
    g = shape(5, 1)
    spectrum = cache6_all.bundles[g].spectrum
    lambdas, vectors = path_eigenpairs(6)
    assert np.allclose(spectrum.eigenvalues, lambdas[1:], atol=1e-10)
    # vertex p of the canonical order is the partition isolating one element
    rw = cache6_all.bundles[g].graph.row_words
    singles = np.argmax(rw == 1, axis=1)  # 0-based isolated element per vertex
    for idx, (lam, _key, block) in enumerate(spectrum.blocks()):
        expected = vectors[singles, idx + 1]
        got = block[:, 0]
        if np.dot(expected, got) < 0:
            expected = -expected
        assert np.allclose(got, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# the Specht-module solver


@pytest.mark.parametrize("n", range(2, 8))
def test_specht_solver_matches_the_deflation_oracle(n):
    # every shape through n = 6; at n = 7 the transpose-reduced list, which is
    # closed upward under dominance, since deflating (2,1,1,1,1,1) and
    # (1,1,1,1,1,1,1) costs the oracle about 100 s of dense SVD
    shapes = partitions_of(n) if n < 7 else h_shapes(n)
    oracle = deflation_spectra(shapes)
    for g in shapes:
        got = specht_spectrum(g, build_schreier(g).apply_laplacian)
        want = oracle[g]
        assert got.keys == want.keys and got.kappas == want.kappas
        assert np.abs(np.subtract(got.eigenvalues, want.eigenvalues)).max() <= 1e-12
        # measured: 2.9e-13 at n = 7
        assert np.abs(got.vectors - want.vectors).max() <= 1e-11


@pytest.mark.parametrize("parts", [(3, 2), (2, 2, 1), (3, 2, 1), (2, 2, 2), (1, 1, 1, 1)])
def test_polytabloids_span_an_invariant_subspace(parts):
    # e_T has one +-1 entry per column-group element, and the span is a
    # d-dimensional Laplacian-invariant subspace
    g = IntegerPartition(parts)
    basis = polytabloid_matrix(g)
    group = np.prod([factorial(c) for c in g.transpose().parts])
    assert basis.shape == (build_schreier(g).m, hook_dimension(g))
    assert set(np.unique(basis)) <= {-1.0, 0.0, 1.0}
    assert np.all(np.count_nonzero(basis, axis=0) == group)
    assert np.linalg.matrix_rank(basis) == hook_dimension(g)
    image = csr_laplacian(build_schreier(g)) @ basis
    coeffs = np.linalg.lstsq(basis, image, rcond=None)[0]
    assert np.abs(basis @ coeffs - image).max() < 1e-10


@pytest.mark.parametrize("n", range(1, 8))
def test_setup_solve_matches_the_csr_scipy_reference(n):
    # the neighbor-table Laplacian and numpy's eigh against a CSR Laplacian
    # and scipy's; measured: 2.0e-13 on the vectors through n = 7
    for g in partitions_of(n):
        got = specht_spectrum(g, build_schreier(g).apply_laplacian)
        want = reference_specht_spectrum(g)
        assert got.keys == want.keys and got.kappas == want.kappas
        assert np.abs(np.subtract(got.eigenvalues, want.eigenvalues)).max() <= 1e-12
        assert np.abs(got.vectors - want.vectors).max() <= 1e-12


def test_specht_solver_refuses_a_rank_deficient_basis(monkeypatch):
    g = shape(3, 2)
    deficient = polytabloid_matrix(g)
    deficient[:, -1] = deficient[:, 0]
    monkeypatch.setattr(spectral, "polytabloid_matrix", lambda _shape: deficient)
    with pytest.raises(NumericalError, match="lost rank"):
        specht_spectrum(g, build_schreier(g).apply_laplacian)


def test_full_n9_list_keeps_its_keys():
    # the eigenvalues and multiplicities of every shape of the
    # transpose-reduced n = 9 list, as the deflation solver found them; the
    # file keeps that solver's keys, on the earlier 1e-6 grid
    from permaframe import build_cache

    want = json.loads((DATA / "n9_h_keys.json").read_text())
    cache = build_cache(9, "h")
    assert sorted(s.label() for s in cache.shapes) == sorted(want)
    for g, bundle in cache.bundles.items():
        spectrum = bundle.spectrum
        assert sum(spectrum.kappas) == spectrum.d == hook_dimension(g)
        assert [round(lam / 1e-6) for lam in spectrum.eigenvalues] == want[g.label()]["keys"]
        assert list(spectrum.keys) == [eigenvalue_key(lam) for lam in spectrum.eigenvalues]
        assert list(spectrum.kappas) == want[g.label()]["kappas"]


def yor_matches(g: IntegerPartition, keys, kappas, grid: float) -> bool:
    """True when the spectrum of g's Young-orthogonal-form Laplacian rounds
    to ``keys`` on ``grid`` with the multiplicities ``kappas``."""
    want = np.repeat(np.asarray(keys) * grid, kappas)
    values = np.linalg.eigvalsh(yor_laplacian(g))
    return len(values) == len(want) and np.abs(values - want).max() <= 0.5 * grid + 1e-12


def test_young_orthogonal_form_spectra_match_the_cache():
    # the eigenvalues and multiplicities that setup stores for the
    # transpose-reduced lists at n <= 8 are those of Young's orthogonal form,
    # which needs no graph, and so, reflected through lambda -> 2(n-1) -
    # lambda, are those of every transposed shape there; so are those of the
    # small shapes of the n = 9 list as the deflation solver found them, and
    # of a few n = 10 shapes and, reflected, of their transposes
    from permaframe import build_cache

    for n in range(1, 9):
        for g, bundle in build_cache(n, "h").bundles.items():
            spectrum = bundle.spectrum
            assert yor_matches(g, spectrum.keys, spectrum.kappas, spectral.EIG_KEY_GRID)
            lams = np.repeat(spectrum.eigenvalues, spectrum.kappas)
            assert np.abs(np.linalg.eigvalsh(yor_laplacian(g)) - lams).max() < 1e-12
            mirrored = [reflected_key(n, key) for key in reversed(spectrum.keys)]
            grid = spectral.EIG_KEY_GRID
            assert yor_matches(g.transpose(), mirrored, spectrum.kappas[::-1], grid)
    want = json.loads((DATA / "n9_h_keys.json").read_text())
    small = [IntegerPartition.parse(label) for label in want]
    small = [g for g in small if hook_dimension(g) <= 50]
    assert len(small) >= 5
    for g in small:
        assert yor_matches(g, want[g.label()]["keys"], want[g.label()]["kappas"], 1e-6)
    cache = build_cache(10, [(9, 1), (8, 2), (8, 1, 1), (7, 3)])
    for g, bundle in cache.bundles.items():
        spectrum = bundle.spectrum
        assert yor_matches(g, spectrum.keys, spectrum.kappas, spectral.EIG_KEY_GRID)
        mirrored = [reflected_key(10, key) for key in reversed(spectrum.keys)]
        assert yor_matches(g.transpose(), mirrored, spectrum.kappas[::-1], spectral.EIG_KEY_GRID)


def test_two_two_eigenvalues(cache4_all):
    spectrum = cache4_all.bundles[shape(2, 2)].spectrum
    assert spectrum.eigenvalues == pytest.approx([1.2679, 4.7321], abs=5e-5)
    assert spectrum.kappas == (1, 1)


def test_eigenvalue_three_has_two_symmetry_types(cache6_all):
    key3 = eigenvalue_key(3.0)
    s51 = cache6_all.bundles[shape(5, 1)].spectrum
    s411 = cache6_all.bundles[shape(4, 1, 1)].spectrum
    assert key3 in s51.keys and key3 in s411.keys
    assert s51.kappas[s51.keys.index(key3)] == 1
    assert s411.kappas[s411.keys.index(key3)] == 1
    # at the permutahedron level the eigenvalue repeats d times per type
    assert hook_dimension(shape(5, 1)) == 5
    assert hook_dimension(shape(4, 1, 1)) == 10


@pytest.mark.parametrize("n", [4, 5])
def test_multiplicities_sum_to_dimension(n, cache4_all, cache5_all):
    cache = cache4_all if n == 4 else cache5_all
    for g in partitions_of(n):
        spectrum = cache.bundles[g].spectrum
        assert sum(spectrum.kappas) == hook_dimension(g)
        gram = spectrum.vectors.T @ spectrum.vectors
        assert np.abs(gram - np.eye(spectrum.d)).max() < 1e-10


def test_completeness_against_dense_oracle(cache5_all):
    # union over shapes with multiplicity d per eigenvector reproduces the
    # dense permutahedron spectrum
    perm_lap = csr_laplacian(build_schreier(shape(1, 1, 1, 1, 1)))
    w, _ = dense_oracle(perm_lap)
    expected: dict[int, int] = {}
    for g in partitions_of(5):
        spectrum = cache5_all.bundles[g].spectrum
        d = hook_dimension(g)
        for lam, key, kappa in zip(
            spectrum.eigenvalues, spectrum.keys, spectrum.kappas
        ):
            expected[key] = expected.get(key, 0) + d * kappa
    observed: dict[int, int] = {}
    for lam in w:
        key = eigenvalue_key(lam)
        observed[key] = observed.get(key, 0) + 1
    assert observed == expected


def test_deflation_rank_error_detected(cache4_all):
    from permaframe.errors import ValidationError

    lap = csr_laplacian(build_schreier(shape(2, 2)))
    with pytest.raises(ValidationError):
        deflate_and_solve(shape(2, 2), lap, {})


# ---------------------------------------------------------------------------
# sign convention and deterministic bases


def test_sign_convention_idempotent_under_negation(rng):
    v = rng.standard_normal(12)
    v /= np.linalg.norm(v)
    assert np.array_equal(sign_convention(v), sign_convention(-v))


def test_sign_convention_positive_at_last_vertex(cache4_all):
    spectrum = cache4_all.bundles[shape(2, 2)].spectrum
    for _lam, _key, block in spectrum.blocks():
        assert block[-1, 0] > 0  # vertex {34|12} is last in canonical order


def test_sign_convention_fallback_vertex(cache5_all):
    # [3,1,1] at n=5 has a two-dimensional eigenspace at eigenvalue 4; build a
    # vector inside it vanishing at the last vertex and check determinism
    spectrum = cache5_all.bundles[shape(3, 1, 1)].spectrum
    idx = spectrum.kappas.index(2)
    assert spectrum.eigenvalues[idx] == pytest.approx(4.0, abs=1e-9)
    block = [b for _l, _k, b in spectrum.blocks()][idx]
    a, b = block[:, 0], block[:, 1]
    v = b[-1] * a - a[-1] * b
    v /= np.linalg.norm(v)
    assert abs(v[-1]) < 1e-12
    fixed1 = sign_convention(v)
    fixed2 = sign_convention(-v)
    assert np.array_equal(fixed1, fixed2)
    nz = np.nonzero(np.abs(fixed1) > 1e-8)[0]
    assert fixed1[nz[-1]] > 0


# ---------------------------------------------------------------------------
# lifting between shapes


def test_lift_between_shapes_preserves_eigenvalue(cache6_all):
    for g in [shape(4, 2), shape(3, 2, 1), shape(2, 2, 2)]:
        lap = csr_laplacian(cache6_all.bundles[g].graph).toarray()
        for nu in partitions_of(6):
            count, tableaux = kostka(g, nu)
            if nu == g or count == 0:
                continue
            spectrum = cache6_all.bundles[nu].spectrum
            for tab in tableaux[:2]:
                xi = tableau_to_set_partition(tab)
                for lam, _key, block in spectrum.blocks():
                    lifted = lift_between_shapes(nu, g, xi, block[:, 0])
                    resid = np.linalg.norm(lap @ lifted - lam * lifted)
                    assert resid < 1e-9 * max(1.0, np.linalg.norm(lifted))


def test_lift_images_of_distinct_tableaux_independent(cache6_all):
    g = shape(2, 2, 2)
    nu = shape(4, 2)
    count, tableaux = kostka(g, nu)
    assert count >= 2
    spectrum = cache6_all.bundles[nu].spectrum
    v = spectrum.vectors[:, 0]
    images = np.column_stack(
        [lift_between_shapes(nu, g, tableau_to_set_partition(t), v) for t in tableaux]
    )
    assert np.linalg.matrix_rank(images, tol=1e-10) == count


def test_self_lift_is_scalar_multiple_of_identity(cache5_all):
    # the map with shape = content and the reading-order label acts on the new
    # irreducible piece as a scalar
    from permaframe.combinatorics import reading_order_partition

    g = shape(3, 2)
    mask, value = lift_map_mask(g, g, reading_order_partition(g))
    op = value * mask.astype(float)
    vectors = cache5_all.bundles[g].spectrum.vectors
    image = op @ vectors
    scalars = (vectors * image).sum(axis=0)
    assert np.allclose(image, vectors * scalars[None, :], atol=1e-9)
    assert np.allclose(scalars, scalars[0], atol=1e-9)


def test_lift_to_bigger_schreier_n10():
    # the smallest-eigenvalue vector of the singleton shape lifts to the
    # two-block shape as an eigenvector with the same eigenvalue
    from permaframe.schreier import build_schreier

    nu, g = shape(9, 1), shape(8, 2)
    lap = csr_laplacian(build_schreier(g)).toarray()
    lambdas, vectors = path_eigenpairs(10)
    rw = build_schreier(nu).row_words
    singles = np.argmax(rw == 1, axis=1)
    v = vectors[singles, 1]
    count, tableaux = kostka(g, nu)
    assert count == 1
    xi = tableau_to_set_partition(tableaux[0])
    lifted = lift_between_shapes(nu, g, xi, v)
    assert np.linalg.norm(lap @ lifted - lambdas[1] * lifted) < 1e-9


# ---------------------------------------------------------------------------
# hook shapes


def test_wedge_k1_matches_path():
    lam, vec = hook_wedge_eigenvectors(5, 1, (2,))
    lambdas, vectors = path_eigenpairs(5)
    assert lam == pytest.approx(lambdas[2])
    rw = build_schreier(shape(4, 1)).row_words
    singles = np.argmax(rw == 1, axis=1)
    expected = vectors[singles, 2]
    expected /= np.linalg.norm(expected)
    if np.dot(expected, vec) < 0:
        expected = -expected
    assert np.allclose(vec, expected, atol=1e-12)


def test_wedge_k2_eigencheck_n4():
    lam, vec = hook_wedge_eigenvectors(4, 2, (1, 2))
    assert lam == pytest.approx(0.5858 + 2.0, abs=5e-4)
    lap = csr_laplacian(build_schreier(shape(2, 1, 1))).toarray()
    assert np.linalg.norm(lap @ vec - lam * vec) < 1e-9


@pytest.mark.parametrize("n", [4, 5, 6])
def test_wedge_span_matches_deflation(n, cache4_all, cache5_all, cache6_all):
    from itertools import combinations

    cache = {4: cache4_all, 5: cache5_all, 6: cache6_all}[n]
    for k in range(1, n):
        g = IntegerPartition((n - k,) + (1,) * k)
        spectrum = cache.bundles[g].spectrum
        by_key: dict[int, list[np.ndarray]] = {}
        for subset in combinations(range(1, n), k):
            lam, vec = hook_wedge_eigenvectors(n, k, subset)
            by_key.setdefault(eigenvalue_key(lam), []).append(vec)
        assert sorted(by_key) == sorted(spectrum.keys)
        for lam, key, block in spectrum.blocks():
            wedge = np.linalg.qr(np.column_stack(by_key[key]))[0]
            # largest principal angle between the two spans
            angles = np.linalg.svd(wedge.T @ block, compute_uv=False)
            assert np.all(np.abs(angles - 1.0) < 1e-8)


# ---------------------------------------------------------------------------
# dense oracle and global structure


def test_dense_oracle_permutahedron_extremes():
    lap = csr_laplacian(build_schreier(shape(1, 1, 1, 1)))
    w, _ = dense_oracle(lap)
    assert np.count_nonzero(np.abs(w) < 1e-9) == 1
    assert np.count_nonzero(np.abs(w - 6.0) < 1e-9) == 1


def test_dense_oracle_two_two_multiset():
    lap = csr_laplacian(build_schreier(shape(2, 2)))
    w, _ = dense_oracle(lap)
    expected = sorted([0.0, 0.5858, 2.0, 3.4142, 1.2679, 4.7321])
    assert np.allclose(sorted(w), expected, atol=5e-5)


def test_trace_identity():
    for parts in [(3, 2), (2, 2, 1), (4, 1)]:
        g = IntegerPartition(parts)
        graph = build_schreier(g)
        w, _ = dense_oracle(csr_laplacian(graph))
        n, m = g.n, graph.m
        assert w.sum() == pytest.approx((n - 1) * m - loop_counts(graph).sum(), abs=1e-8)


def test_dense_oracle_size_guard():
    from permaframe.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        dense_oracle(np.eye(6000))


# ---------------------------------------------------------------------------
# dominance conjecture


def test_dominance_conjecture_small(cache4_all, cache5_all):
    for n, cache in [(4, cache4_all), (5, cache5_all)]:
        report = verify_dominance_conjecture(n, spectra_of(cache))
        assert report.violations == []
        assert report.smallest[IntegerPartition((n,))] == 0.0
        for g in partitions_of(n):
            if g.parts != (n,):
                assert report.smallest[g] > 0


def test_reflection_matches_direct_spectra(cache5_all, cache5_h):
    # transpose shapes computed by spectral reflection agree with the directly
    # deflated values
    direct = verify_dominance_conjecture(5, spectra_of(cache5_all))
    reflected = verify_dominance_conjecture(5, spectra_of(cache5_h))
    for g in partitions_of(5):
        assert reflected.smallest[g] == pytest.approx(direct.smallest[g], abs=1e-9)


def test_reflected_key_round_trip():
    key = eigenvalue_key(0.8226)
    assert key_to_value(reflected_key(5, key)) == pytest.approx(8 - 0.8226)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (3.9758686904, 3.9758692391),  # both in (4,4,1,1)
        (9.1033556250, 9.1033556947),  # the other three pairs span two shapes
        (9.2757360075, 9.2757361303),
        (10.1100056508, 10.1100058700),
    ],
)
def test_close_n10_eigenvalues_get_distinct_keys(lo, hi):
    # distinct eigenvalues of the full n = 10 list that one 1e-6 grid step
    # merged; their reflections stay apart as well
    assert round(lo / 1e-6) == round(hi / 1e-6)
    assert eigenvalue_key(hi) - eigenvalue_key(lo) >= KEY_MIN_GAP
    assert reflected_key(10, eigenvalue_key(lo)) - reflected_key(10, eigenvalue_key(hi)) >= KEY_MIN_GAP


def _keyed_spectrum(parts, keys):
    return ShapeSpectrum(
        IntegerPartition(parts), tuple(map(key_to_value, keys)), tuple(keys),
        (1,) * len(keys), np.zeros((1, len(keys))),
    )


def test_key_separation_refuses_keys_a_few_steps_apart():
    base = eigenvalue_key(2.5)
    apart = [_keyed_spectrum((3, 1), [base]), _keyed_spectrum((2, 2), [base + KEY_MIN_GAP])]
    check_key_separation(4, apart)
    # equal eigenvalues across shapes share a key
    check_key_separation(4, apart + [_keyed_spectrum((2, 1, 1), [base])])
    with pytest.raises(NumericalError, match="grid steps apart"):
        check_key_separation(4, apart + [_keyed_spectrum((2, 1, 1), [base + 1])])
    # the reflection 2(n-1) - lambda of one shape lands next to another's key
    mirror = reflected_key(4, base) + 2
    with pytest.raises(NumericalError, match="grid steps apart"):
        check_key_separation(4, apart + [_keyed_spectrum((2, 1, 1), [mirror])])


def test_n10_shape_with_close_eigenvalues_sets_up():
    # these two eigenvalues of (4,4,1,1) once shared a key, so that setup
    # refused the shape and with it the full n = 10 list
    from permaframe import build_cache

    g = shape(4, 4, 1, 1)
    spectrum = build_cache(10, [g]).bundle(g).spectrum
    found = [lam for lam in spectrum.eigenvalues if abs(lam - 3.97587) < 1e-5]
    assert found == pytest.approx([3.9758686904, 3.9758692391], abs=1e-10)
    assert len(set(spectrum.keys)) == len(spectrum.keys)


def test_new_piece_orthogonal_to_all_lifted_dominators(cache6_all):
    # membership in the new irreducible piece: the solved eigenvectors are
    # orthogonal to every lifted eigenvector of every dominating shape
    from permaframe.combinatorics import dominates

    for g in [shape(4, 2), shape(3, 3), shape(3, 2, 1)]:
        vectors = cache6_all.bundles[g].spectrum.vectors
        for nu in partitions_of(6):
            if not dominates(nu, g):
                continue
            count, tableaux = kostka(g, nu)
            basis = cache6_all.bundles[nu].spectrum.vectors
            for tab in tableaux:
                xi = tableau_to_set_partition(tab)
                for col in range(basis.shape[1]):
                    lifted = lift_between_shapes(nu, g, xi, basis[:, col])
                    assert np.abs(vectors.T @ lifted).max() < 1e-9 * max(
                        1.0, np.linalg.norm(lifted)
                    )


def test_reference_eigenvalues_n10():
    # leading new-piece eigenvalues of the first few ten-candidate shapes
    from permaframe import build_cache

    cache = build_cache(10, "h", top_k=5)
    leading = {
        (8, 2): [0.2047, 0.4700],
        (8, 1, 1): [0.4799],
        (7, 3): [0.3227, 0.5660, 0.8122],
    }
    for parts, expected in leading.items():
        spectrum = cache.bundles[IntegerPartition(parts)].spectrum
        got = list(spectrum.eigenvalues[: len(expected)])
        assert got == pytest.approx(expected, abs=5e-5)


def test_eigenvalue_three_is_fifteen_dimensional_n6(cache6_all):
    # the eigenvalue 3 repeats 15 times on the six-candidate permutahedron,
    # split 5 + 10 across its two symmetry types
    key3 = eigenvalue_key(3.0)
    total = 0
    for g, bundle in cache6_all.bundles.items():
        for key, kappa in zip(bundle.spectrum.keys, bundle.spectrum.kappas):
            if key == key3:
                total += hook_dimension(g) * kappa
    assert total == 15
