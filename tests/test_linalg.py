"""Tests for the dense linear-algebra layer.

Oracles: closed-form eigensystems (diagonal, rotation, Jordan blocks),
numpy SVD for the operator norm, and series identities for the matrix
exponential.  The power-iteration norm is checked against SVD, never
against itself.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import linalg
from entlab.continuous import semigroup_from_generator
from entlab.errors import DimensionMismatchError, NonConvergenceError, ValidationError
from entlab.operators import from_matrix
from entlab.rng import CounterRng


def _random_matrix(seed: int, d: int, scale: float = 1.0) -> np.ndarray:
    return CounterRng(seed).complex_normal((d, d)) * scale


# ---------------------------------------------------------------- as_matrix


def test_as_matrix_accepts_lists_and_casts():
    m = linalg.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_matrix_accepts_noncontiguous_views():
    base = CounterRng(1).complex_normal((5, 7))
    m = linalg.as_matrix(base.T)  # transpose is a non-contiguous view
    assert m.shape == (7, 5)
    assert np.array_equal(m, base.T)


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2, 2)),
        np.zeros((0, 3)),
        np.array([[np.inf, 0], [0, 1]]),
        np.array([[np.nan, 0], [0, 1]]),
        np.zeros((linalg.DIM_CAP + 1, 1)),
    ],
)
def test_as_matrix_rejects_bad_input(bad):
    with pytest.raises(DimensionMismatchError):
        linalg.as_matrix(bad)


def test_as_matrix_square_flag():
    with pytest.raises(DimensionMismatchError):
        linalg.as_matrix(np.zeros((2, 3)), square=True)


def test_as_matrix_rejects_complex_nan_in_imag_part():
    bad = np.array([[1.0 + 1j * np.nan, 0], [0, 1]])
    with pytest.raises(DimensionMismatchError):
        linalg.as_matrix(bad)


# ---------------------------------------------------------------------- eig


def test_eig_diagonal_matrix_exact():
    dec = linalg.eig(np.diag([2.0, -1.0, 0.5]))
    assert sorted(dec.values.real) == pytest.approx([-1.0, 0.5, 2.0])
    assert dec.semisimple_boundary  # the only unimodular eigenvalue (-1) is simple
    assert dec.condition_estimate < 10


def test_eig_rotation_pair():
    theta = 0.3
    r = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    dec = linalg.eig(r)
    got = sorted(dec.values, key=lambda z: z.imag)
    assert got[0] == pytest.approx(np.exp(-1j * theta), abs=1e-12)
    assert got[1] == pytest.approx(np.exp(1j * theta), abs=1e-12)
    assert dec.semisimple_boundary


def test_eig_flags_defective_unimodular_cluster():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    dec = linalg.eig(jordan)
    assert not dec.semisimple_boundary


def test_eig_defective_strictly_inside_disk_is_fine():
    jordan = np.array([[0.5, 1.0], [0.0, 0.5]])
    dec = linalg.eig(jordan)
    # defectiveness away from the circle does not poison the flag
    assert dec.semisimple_boundary


def test_eig_boundary_test_comes_from_the_caller():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])  # defective at 0
    assert linalg.eig(jordan).semisimple_boundary  # 0 is off the unit circle
    dec = linalg.eig(jordan, on_boundary=lambda z: abs(z.real) <= 1e-8)
    assert not dec.semisimple_boundary  # but on the imaginary axis


def test_eig_semisimple_repeated_unimodular():
    s = _random_matrix(3, 4) + 3 * np.eye(4)
    t = s @ np.diag([1.0, 1.0, 1j, 0.3]) @ np.linalg.inv(s)
    dec = linalg.eig(t)
    assert dec.semisimple_boundary
    ones = [v for v in dec.values if abs(v - 1.0) < 1e-8]
    assert len(ones) == 2


def test_eig_residual_bound_is_enforced():
    a = _random_matrix(17, 8)
    dec = linalg.eig(a)
    res = a @ dec.right_vectors - dec.right_vectors * dec.values[None, :]
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(a) + 1e-14


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize(
    "wrap",
    [linalg.eig, lambda a, tol: from_matrix(a, tol=tol),
     lambda a, tol: semigroup_from_generator(a, tol=tol)],
    ids=["eig", "from_matrix", "semigroup_from_generator"],
)
def test_tolerance_that_is_not_positive_and_finite_is_refused(wrap, tol):
    a = _random_matrix(31, 6)
    with pytest.raises(NonConvergenceError):
        wrap(a, 1e-30)  # the residual guard is live for this matrix
    # with a NaN tolerance the residual test would be false and let any pair through
    with pytest.raises(ValidationError, match="tolerance"):
        wrap(a, tol)


def test_eig_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        linalg.eig(np.zeros((2, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=9))
def test_eig_reconstruction_property(seed, d):
    a = _random_matrix(seed, d)
    dec = linalg.eig(a)
    # eigenvalues match numpy's to sorting
    mine = np.sort_complex(dec.values)
    ref = np.sort_complex(np.linalg.eigvals(a))
    assert np.allclose(mine, ref, atol=1e-8 * max(1.0, np.abs(ref).max()))


# --------------------------------------------------------------------- expm


def test_expm_zero_is_identity():
    b = _random_matrix(5, 4)
    assert np.allclose(linalg.expm(b, 0.0), np.eye(4), atol=1e-14)


def test_expm_diagonal_oracle():
    b = np.diag([1.0, -2.0, 1j * np.pi])
    e = linalg.expm(b, 1.0)
    expect = np.diag([np.e, np.exp(-2.0), -1.0 + 0.0j])
    assert np.allclose(e, expect, atol=1e-12)


def test_expm_nilpotent_series_terminates():
    n = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    t = 0.7
    expect = np.eye(3) + t * n + (t * n @ n * t) / 2.0
    assert np.allclose(linalg.expm(n, t), expect, atol=1e-14)


def test_expm_group_property():
    b = _random_matrix(9, 5, scale=0.3)
    one = linalg.expm(b, 0.4) @ linalg.expm(b, 0.6)
    assert np.allclose(one, linalg.expm(b, 1.0), atol=1e-12)


def test_expm_batched_matches_loop():
    b = _random_matrix(21, 4, scale=0.5)
    ts = np.array([0.0, 0.25, 1.5, 3.0])
    batch = linalg.expm(b, ts)
    assert batch.shape == (4, 4, 4)
    for i, t in enumerate(ts):
        assert np.allclose(batch[i], linalg.expm(b, float(t)), atol=1e-13)


def test_expm_eigendecomposition_cross_check():
    # independent route: diagonalize, exponentiate eigenvalues, undo
    s = _random_matrix(31, 5) + 3 * np.eye(5)
    lam = np.array([1j, -1j, -0.5, -1.0, 0.0])
    b = s @ np.diag(lam) @ np.linalg.inv(s)
    t = 2.25
    expect = s @ np.diag(np.exp(lam * t)) @ np.linalg.inv(s)
    assert np.allclose(linalg.expm(b, t), expect, atol=1e-10)


def test_expm_refuses_overflow_scale():
    b = np.diag([1.0e4, 0.0])
    with pytest.raises(OverflowError):
        linalg.expm(b, 1.0e9)


@pytest.mark.parametrize("t", [
    float("nan"),
    np.array([1.0, float("nan")]),
    float("inf"),
    -float("inf"),
    [0.5, float("inf")],
])
def test_expm_refuses_non_finite_time(t):
    # NaN fails every comparison, so the norm cap alone would let it through
    with pytest.raises(ValidationError):
        linalg.expm(np.diag([1.0, -1.0]), t)


# ------------------------------------------------------------ spectral_norm


def test_spectral_norm_against_svd_oracle():
    for seed in (0, 1, 2, 3, 4):
        a = _random_matrix(seed, 6)
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert linalg.spectral_norm(a) == pytest.approx(ref, rel=1e-8)


def test_spectral_norm_exact_on_diagonal():
    assert linalg.spectral_norm(np.diag([3.0, -4.0, 1.0])) == pytest.approx(4.0)


def test_spectral_norm_zero_matrix():
    assert linalg.spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_handles_degenerate_top_singular_value():
    # two equal top singular values
    u = linalg.haar_unitary(4, seed=8)
    a = u @ np.diag([2.0, 2.0, 1.0, 0.5])
    assert linalg.spectral_norm(a) == pytest.approx(2.0, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_spectral_norm_property_vs_svd(seed):
    d = 2 + seed % 7
    a = _random_matrix(seed, d)
    ref = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(linalg.spectral_norm(a) - ref) <= 1e-7 * max(1.0, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(-150, 150),
       st.integers(0, 10_000), st.booleans())
def test_spectral_norm_of_real_input_matches_the_complex_svd(rows, cols, exponent, seed,
                                                             as_complex):
    # standard_normal drops one value of an odd count, so draw twice as many
    a = CounterRng(seed).standard_normal(2 * rows * cols)[: rows * cols].reshape(rows, cols)
    a = a * 10.0**exponent
    ref = np.linalg.norm(np.asarray(a, complex), 2)
    got = linalg.spectral_norm(a.astype(complex) if as_complex else a)
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("imag, routine", [(None, np.float64), (0.0, np.float64),
                                           (1e-3, np.complex128)])
def test_spectral_norm_takes_the_complex_svd_only_for_imaginary_parts(monkeypatch, imag,
                                                                      routine):
    a = CounterRng(9).standard_normal(30).reshape(5, 6)
    if imag is not None:
        a = a.astype(complex)
        a[2, 3] += 1j * imag
    ref = np.linalg.norm(np.asarray(a, complex), 2)
    svd, seen = np.linalg.svd, []

    def spy(arr, *args, **kwargs):
        seen.append(arr.dtype)
        return svd(arr, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    got = linalg.spectral_norm(a)
    assert seen == [routine]
    assert abs(got - ref) <= 1e-13 * ref


# ------------------------------------------------------------- haar_unitary


def test_haar_unitary_is_unitary_and_deterministic():
    u = linalg.haar_unitary(16, seed=123)
    assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)
    assert np.array_equal(u, linalg.haar_unitary(16, seed=123))
    assert not np.allclose(u, linalg.haar_unitary(16, seed=124), atol=1e-3)


def test_haar_unitary_eigenvalue_phases_spread():
    # crude uniformity check: phases of a 64-dim sample cover all quadrants
    u = linalg.haar_unitary(64, seed=5)
    phases = np.angle(np.linalg.eigvals(u))
    counts, _ = np.histogram(phases, bins=4, range=(-np.pi, np.pi))
    assert counts.min() >= 4


def test_haar_unitary_rejects_bad_dim():
    for bad in (0, -2, 2.5, True, None):
        with pytest.raises(DimensionMismatchError):
            linalg.haar_unitary(bad, seed=1)


# --------------------------------------------------------------- clustering


def test_cluster_eigenvalues_groups_within_tol():
    vals = [1.0, 1.0 + 5e-9, 1j, -1.0, 1j + 2e-9]
    out = linalg.cluster_eigenvalues(vals, tol=1e-8)
    sizes = sorted(len(idx) for _, idx in out)
    assert sizes == [1, 2, 2]
    centers = sorted((c for c, _ in out), key=lambda z: (z.real, z.imag))
    assert centers[0] == pytest.approx(-1.0)


def test_cluster_eigenvalues_chain_linkage():
    # single-linkage: a chain of close values merges into one cluster
    vals = [0.0, 0.9e-8, 1.8e-8, 2.7e-8]
    out = linalg.cluster_eigenvalues(vals, tol=1e-8)
    assert len(out) == 1
    assert len(out[0][1]) == 4


def test_cluster_eigenvalues_deterministic_order():
    vals = [1j, -1j, 1.0, -1.0]
    out1 = linalg.cluster_eigenvalues(vals)
    out2 = linalg.cluster_eigenvalues(list(reversed(vals)))
    assert [c for c, _ in out1] == [c for c, _ in out2]


def _linked_groups(vals, tol):
    """Single-linkage clusters by breadth-first search over every pair: the reference."""
    seen, groups = set(), []
    for start in range(len(vals)):
        if start in seen:
            continue
        seen.add(start)
        group, frontier = [], [start]
        while frontier:
            i = frontier.pop()
            group.append(i)
            for j in range(len(vals)):
                if j not in seen and abs(vals[i] - vals[j]) <= tol:
                    seen.add(j)
                    frontier.append(j)
        groups.append(sorted(group))
    return groups


@st.composite
def _planted_spectra(draw):
    """Random points, each followed by a chain of near-duplicates, then shuffled.

    Every chain link is a step of 0, 0.3, 0.6 or 0.9 tol in a random
    direction, so a chain of five values spans several tol and only merges
    through its links, which takes several rounds of label propagation.
    """
    tol = draw(st.sampled_from([1e-8, 1e-6]))
    coord = st.floats(min_value=-2.0, max_value=2.0)
    vals = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        z = complex(draw(coord), draw(coord))
        vals.append(z)
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            step = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9])) * tol
            z += step * cmath.exp(1j * draw(st.floats(min_value=0.0, max_value=6.3)))
            vals.append(z)
    order = draw(st.permutations(range(len(vals))))
    return [vals[i] for i in order], tol


@settings(max_examples=200, deadline=None)
@given(_planted_spectra())
def test_cluster_eigenvalues_matches_pairwise_search(case):
    vals, tol = case
    arr = np.asarray(vals, dtype=np.complex128)
    want = sorted(
        ((complex(arr[g].mean()), g) for g in _linked_groups(vals, tol)),
        key=lambda cg: (cg[0].real, cg[0].imag, cg[1][0]),
    )
    got = linalg.cluster_eigenvalues(vals, tol)
    assert [(c, list(g)) for c, g in got] == want


def _cluster_by_loop(vals, tol):
    """Group by one flatnonzero and one mean per cluster, after the label
    propagation of cluster_eigenvalues: the reference for its grouping."""
    vals = np.asarray(vals, dtype=np.complex128)
    n = vals.size
    near = np.abs(vals[:, np.newaxis] - vals[np.newaxis, :]) <= tol
    np.fill_diagonal(near, True)
    label = np.arange(n)
    while True:
        nxt = np.where(near, label, n).min(axis=1, initial=n)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    out = []
    for root in np.unique(label):
        members = np.flatnonzero(label == root)
        out.append((complex(vals[members].mean()), members))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_cluster_eigenvalues_mostly_singletons_match_loop_bytes(seed):
    rng = CounterRng(seed)
    d = 8 + 6 * seed
    vals = rng.complex_normal((d,))
    # a few values on the circle, each with near copies a few tol away
    k = seed % 7
    vals[:k] = np.exp(2j * np.pi * np.arange(k) / 5)
    vals[k:2 * k] = vals[:k] + 3e-9
    vals = vals[np.argsort(rng.uniform(d))]
    want = _cluster_by_loop(vals, 1e-8)
    got = linalg.cluster_eigenvalues(vals, 1e-8)
    assert len(got) == len(want)
    for (c, g), (wc, wg) in zip(got, want):
        assert c == wc and type(c) is complex
        assert g.dtype == wg.dtype and g.shape == wg.shape and g.tobytes() == wg.tobytes()


def test_expm_refuses_a_two_dimensional_time_array():
    with pytest.raises(DimensionMismatchError, match="1-D"):
        linalg.expm(np.eye(2), np.ones((2, 2)))


def test_expm_of_no_times_is_an_empty_stack():
    out = linalg.expm(np.eye(3), np.array([]))
    assert out.shape == (0, 3, 3) and out.dtype == np.complex128


def test_haar_unitary_past_the_dimension_cap_is_refused():
    with pytest.raises(DimensionMismatchError, match="exceeds cap 512"):
        linalg.haar_unitary(linalg.DIM_CAP + 1, 0)
