"""Tests for the continuous-time half: semigroups, quadrature, averages.

The cross-check for averages is `_exact_chain_integral` below, a closed
form for (1/t) int_0^t T_2(s) A T_1(s) ds built directly from the two
eigendecompositions: with B = S2^{-1} A S1 the answer is
S2 (B * G) S1^{-1}, G_ij = (e^{(mu_i+lam_j) t} - 1) / ((mu_i+lam_j) t)
and G_ij = 1 on vanishing exponents.  It never touches the quadrature
code, so agreement is a real test of the grid evaluator.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from entlab import continuous, entangle, linalg
from entlab.continuous import (
    QuadratureSpec,
    certify_bounded_semigroup,
    continuous_entangled_average,
    continuous_limit_operator,
    frequency_spectrum,
    make_continuous_system,
    semigroup_from_generator,
    suggest_points,
    synth_semigroup,
)
from entlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NotBoundedSemigroupError,
    ValidationError,
)
from entlab.operators import OrthonormalBasis, RandomSimilarity
from entlab.rng import CounterRng

TWO_PI = 2.0 * np.pi


def _eig_pair(sg):
    """(S, eigs, S_inv) either from the certificate or by diagonalizing."""
    if sg.certificate is not None:
        c = sg.certificate
        return c.basis, c.eigenvalues, c.basis_inv
    vals, vecs = np.linalg.eig(sg.generator)
    return vecs, vals, np.linalg.inv(vecs)


def _phi(z: complex, t: float) -> complex:
    """(e^{z t} - 1) / (z t), the mean of e^{z s} over [0, t]."""
    if abs(z) * t < 1e-14:
        return 1.0
    return (np.exp(z * t) - 1.0) / (z * t)


def _exact_mean(sg, t: float) -> np.ndarray:
    s, eigs, s_inv = _eig_pair(sg)
    return (s * np.array([_phi(z, t) for z in eigs])[None, :]) @ s_inv


def _exact_chain_integral(sg2, a, sg1, t: float) -> np.ndarray:
    s1, lam, s1_inv = _eig_pair(sg1)
    s2, mu, s2_inv = _eig_pair(sg2)
    b = s2_inv @ a @ s1
    g = np.array([[_phi(m + l, t) for l in lam] for m in mu])
    return s2 @ (b * g) @ s1_inv


# ---------------------------------------------------------------- synthesis


def test_synth_semigroup_eigenvalues_are_two_pi_i_frequencies():
    sg = synth_semigroup(["1/2", "-1/4"], [-0.5], OrthonormalBasis(seed=1))
    got = np.sort_complex(np.linalg.eigvals(sg.generator))
    expect = np.sort_complex(
        np.array([TWO_PI * 0.5j, -TWO_PI * 0.25j, -0.5 + 0j])
    )
    assert np.allclose(got, expect, atol=1e-12)


def test_synth_semigroup_keeps_frequencies_above_one():
    # 3/2 cycles per unit time is not the same motion as 1/2: no mod-1 folding
    sg = synth_semigroup(["3/2"], [], OrthonormalBasis(seed=2))
    assert sg.frequency_points[0].exact == Fraction(3, 2)
    val = sg.value(1.0 / 3.0)  # e^{2 pi i (3/2) / 3} = e^{i pi} = -1
    assert np.allclose(val, -np.eye(1), atol=1e-12)


def test_synth_semigroup_certificate_reconstructs_generator():
    sg = synth_semigroup(["1/3", "1/3"], [-1.0, -0.25j - 0.5], RandomSimilarity(seed=3))
    c = sg.certificate
    rebuilt = (c.basis * c.eigenvalues[None, :]) @ c.basis_inv
    assert np.linalg.norm(rebuilt - sg.generator) <= 1e-10 * np.linalg.norm(sg.generator)
    assert sg.frequency_points[0].multiplicity == 2


def test_synth_semigroup_rejections():
    with pytest.raises(ValidationError):
        synth_semigroup(["0"], [0.5], OrthonormalBasis(seed=0))  # Re >= 0
    with pytest.raises(ValidationError):
        synth_semigroup([0.5], [], OrthonormalBasis(seed=0))  # float frequency
    with pytest.raises(DimensionMismatchError):
        synth_semigroup([], [], OrthonormalBasis(seed=0))


def test_semigroup_value_is_matrix_exponential():
    sg = synth_semigroup(["1/4"], [-1.0], OrthonormalBasis(seed=4))
    t = 2.0
    val = sg.value(t)
    c = sg.certificate
    expect = (c.basis * np.exp(c.eigenvalues * t)[None, :]) @ c.basis_inv
    assert np.allclose(val, expect, atol=1e-12)


# -------------------------------------------------------------- certificates


def test_certify_bounded_semigroup_skew_hermitian_passes():
    z = CounterRng(5).complex_normal((4, 4))
    b = 0.5 * (z - z.conj().T)  # skew-Hermitian: unitary group
    rep = certify_bounded_semigroup(b)
    assert rep.passed
    assert rep.measured_max == pytest.approx(1.0, abs=1e-9)
    assert rep.reason is None


def test_certify_bounded_semigroup_defective_axis_fails():
    rep = certify_bounded_semigroup(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not rep.passed
    assert "defective" in rep.reason
    assert rep.measured_max > 1.0  # linear growth shows in the probes


def test_certify_bounded_semigroup_right_half_plane_fails():
    rep = certify_bounded_semigroup(np.diag([0.5, -1.0]))
    assert not rep.passed
    assert "abscissa" in rep.reason


def test_frequency_spectrum_from_raw_generator():
    b = np.diag([TWO_PI * 0.5j, -1.0 + 0j])
    pts = frequency_spectrum(b)
    assert len(pts) == 1
    assert pts[0].frequency == pytest.approx(0.5)
    assert pts[0].exact is None


def test_frequency_spectrum_band_width_is_honored():
    # eigenvalue at -1e-5 + i: outside the default band, inside a wide one
    b = np.diag([-1e-5 + 1j])
    assert frequency_spectrum(b) == ()
    wide = frequency_spectrum(b, tol=1e-4)
    assert len(wide) == 1
    assert wide[0].frequency == pytest.approx(1.0 / TWO_PI)


def test_frequency_spectrum_refuses_unbounded_semigroup():
    with pytest.raises(NotBoundedSemigroupError):
        frequency_spectrum(np.diag([1.0]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_frequency_spectrum_band_must_be_positive_and_finite(tol):
    # a NaN band used to read no frequencies at all
    with pytest.raises(ValidationError, match="band"):
        frequency_spectrum(np.diag([0.0, -1.0]), tol=tol)


# ---------------------------------------------------------------- quadrature


def test_midpoint_nodes_and_weights():
    q = QuadratureSpec("midpoint", 4)
    s, w = q.nodes(2.0)
    assert np.allclose(s, [0.25, 0.75, 1.25, 1.75])
    assert np.allclose(w, [0.5, 0.5, 0.5, 0.5])
    assert np.sum(w) == pytest.approx(2.0)


def test_gauss_legendre_nodes_and_weights():
    q = QuadratureSpec("gauss-legendre", 5)
    s, w = q.nodes(3.0)
    assert s.min() > 0.0 and s.max() < 3.0
    assert np.sum(w) == pytest.approx(3.0)
    # degree 2Q-1 = 9 polynomial integrated exactly
    assert np.sum(w * s ** 9) == pytest.approx(3.0 ** 10 / 10.0, rel=1e-13)


def test_midpoint_integrates_linear_functions_exactly():
    s, w = QuadratureSpec("midpoint", 7).nodes(5.0)
    assert np.sum(w * s) == pytest.approx(12.5, rel=1e-14)


def test_quadrature_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec("midpoint", 1).nodes(1.0)
    with pytest.raises(ValidationError):
        QuadratureSpec("midpoint", 4).nodes(0.0)
    with pytest.raises(ValidationError):
        QuadratureSpec("simpson", 4).nodes(1.0)


@pytest.mark.parametrize("t", [float("inf"), float("nan")])
def test_horizon_must_be_finite(t):
    # an infinite horizon used to return a NaN value and a NaN error estimate
    with pytest.raises(ValidationError, match="horizon"):
        QuadratureSpec("midpoint", 8).nodes(t)
    system = make_continuous_system([1], [synth_semigroup(["0"], [], OrthonormalBasis(1))])
    with pytest.raises(ValidationError, match="horizon"):
        continuous_entangled_average(system, t, QuadratureSpec("midpoint", 8))


@pytest.mark.parametrize("points", [2.5, "64", True])
def test_quadrature_points_must_be_an_integer(points):
    # 2.5 used to run 2 nodes while reporting 2.5 (and 5 on the Richardson
    # grid), "64" escaped as a TypeError, True ran as 1 point
    with pytest.raises(ValidationError, match="integer"):
        QuadratureSpec("midpoint", points)


def test_quadrature_points_accept_numpy_integers():
    s, w = QuadratureSpec("midpoint", np.int64(4)).nodes(2.0)
    assert len(s) == len(w) == 4


# ------------------------------------------------------------------ averages


def test_single_semigroup_average_matches_exact_mean():
    sg = synth_semigroup(["1/4"], [-0.5], OrthonormalBasis(seed=10))
    sys_ = make_continuous_system([1], [sg])
    t = 4.0
    out = continuous_entangled_average(sys_, t, QuadratureSpec("gauss-legendre", 24))
    expect = _exact_mean(sg, t)
    assert np.linalg.norm(out.value - expect) <= 1e-10
    assert out.error_estimate is not None and out.error_estimate <= 1e-10


def test_entangled_pair_matches_exact_chain_integral():
    sg1 = synth_semigroup(["1/2", "0"], [-1.0], OrthonormalBasis(seed=11))
    sg2 = synth_semigroup(["-1/2", "0"], [-0.5], OrthonormalBasis(seed=12))
    conn = linalg.haar_unitary(3, seed=13)
    sys_ = make_continuous_system([1, 1], [sg1, sg2], [conn])
    t = 3.0
    out = continuous_entangled_average(sys_, t, QuadratureSpec("gauss-legendre", 32))
    expect = _exact_chain_integral(sg2, conn, sg1, t)
    assert np.linalg.norm(out.value - expect) <= 1e-9


def test_independent_axes_factorize():
    sg1 = synth_semigroup(["1/3"], [-0.2], OrthonormalBasis(seed=14))
    sg2 = synth_semigroup(["1/5"], [-0.4], OrthonormalBasis(seed=15))
    conn = linalg.haar_unitary(2, seed=16)
    sys_ = make_continuous_system([1, 2], [sg1, sg2], [conn])
    t = 2.0
    out = continuous_entangled_average(sys_, t, QuadratureSpec("gauss-legendre", 24))
    expect = _exact_mean(sg2, t) @ conn @ _exact_mean(sg1, t)
    assert np.linalg.norm(out.value - expect) <= 1e-10


def test_vector_mode_matches_operator_mode():
    sg1 = synth_semigroup(["1/2"], [-0.3], OrthonormalBasis(seed=17))
    sg2 = synth_semigroup(["-1/2"], [-0.1], OrthonormalBasis(seed=18))
    sys_ = make_continuous_system([1, 1], [sg1, sg2])
    x = CounterRng(6).complex_normal((2,))
    x = x / np.linalg.norm(x)
    full = continuous_entangled_average(sys_, 2.0, QuadratureSpec("midpoint", 64))
    vec = continuous_entangled_average(sys_, 2.0, QuadratureSpec("midpoint", 64), x=x)
    assert vec.value.shape == (2,)
    assert np.linalg.norm(vec.value - full.value @ x) <= 1e-12


def test_midpoint_error_shrinks_at_second_order():
    sg = synth_semigroup(["1/2"], [], OrthonormalBasis(seed=19))
    sys_ = make_continuous_system([1], [sg])
    t = 3.0
    exact = _exact_mean(sg, t)
    errs = []
    for q in (16, 32, 64):
        out = continuous_entangled_average(
            sys_, t, QuadratureSpec("midpoint", q), richardson=False
        )
        errs.append(np.linalg.norm(out.value - exact))
    assert errs[1] <= errs[0] / 3.0  # order 2 would give exactly 1/4
    assert errs[2] <= errs[1] / 3.0


def test_richardson_estimate_brackets_true_quadrature_error():
    sg1 = synth_semigroup(["1/2", "0"], [-0.7], OrthonormalBasis(seed=20))
    sg2 = synth_semigroup(["-1/2", "0"], [-0.2], OrthonormalBasis(seed=21))
    conn = linalg.haar_unitary(3, seed=22)
    sys_ = make_continuous_system([1, 1], [sg1, sg2], [conn])
    t = 5.0
    out = continuous_entangled_average(sys_, t, QuadratureSpec("midpoint", 48))
    true_err = np.linalg.norm(out.value - _exact_chain_integral(sg2, conn, sg1, t))
    assert out.error_estimate is not None
    assert true_err <= 5.0 * out.error_estimate
    assert out.error_estimate <= 5.0 * max(true_err, 1e-15)


def test_richardson_none_when_disabled():
    sg = synth_semigroup(["0"], [], OrthonormalBasis(seed=23))
    sys_ = make_continuous_system([1], [sg])
    out = continuous_entangled_average(sys_, 1.0, richardson=False)
    assert out.error_estimate is None
    assert out.points == 64


# ---------------------------------------------------------- cost and errors


def test_suggest_points_scales_with_fastest_frequency():
    sg = synth_semigroup(["1/2", "-2"], [-1.0], OrthonormalBasis(seed=24))
    sys_ = make_continuous_system([1], [sg])
    assert suggest_points(sys_, 10.0) == int(np.ceil(20.0 * 10.0 * 2.0))
    # stable-only system has nothing to resolve
    flat = make_continuous_system([1], [synth_semigroup([], [-1.0], OrthonormalBasis(seed=25))])
    assert suggest_points(flat, 100.0) == 2


def _one_frequency_system():
    sg = synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed=24))
    return make_continuous_system([1], [sg])


def test_suggest_points_refuses_nan_per_period():
    with pytest.raises(ValidationError, match="per_period"):  # not int()'s ValueError
        suggest_points(_one_frequency_system(), 10.0, per_period=float("nan"))


def test_suggest_points_refuses_infinite_horizon():
    with pytest.raises(ValidationError, match="horizon"):  # not int()'s OverflowError
        suggest_points(_one_frequency_system(), float("inf"))


def test_suggest_points_refuses_a_grid_beyond_the_float_range():
    # both inputs are finite, their product with the frequency is not
    with pytest.raises(BudgetExceededError, match="float range"):  # not int()'s OverflowError
        suggest_points(_one_frequency_system(), 1e200, per_period=1e200)


@pytest.mark.parametrize("per_period", [0.0, -5.0])
def test_suggest_points_refuses_per_period_that_is_not_positive(per_period):
    with pytest.raises(ValidationError, match="per_period"):  # not a silent 2 points
        suggest_points(_one_frequency_system(), 10.0, per_period=per_period)


def test_budget_refusal_for_oversized_grid():
    sg1 = synth_semigroup(["1/2"], [], OrthonormalBasis(seed=26))
    sg2 = synth_semigroup(["-1/2"], [], OrthonormalBasis(seed=27))
    sys_ = make_continuous_system([1, 1], [sg1, sg2])
    with pytest.raises(BudgetExceededError):
        continuous_entangled_average(sys_, 1.0, QuadratureSpec("midpoint", 10 ** 6), budget=1e6)


def test_gauss_legendre_node_matrix_refused_before_allocation(monkeypatch):
    def never(q):
        raise AssertionError(f"leggauss({q}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", never)
    sg1 = synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed=26))
    sg2 = synth_semigroup(["-1/2"], [-1.0], OrthonormalBasis(seed=27))
    sys_ = make_continuous_system([1, 1], [sg1, sg2])
    # Q=12000 alone needs a 1.07 GiB node matrix; Richardson's Q=24000 needs 4.3
    with pytest.raises(BudgetExceededError, match="Gauss-Legendre"):
        continuous_entangled_average(sys_, 1.0, QuadratureSpec("gauss-legendre", 12000))
    with pytest.raises(BudgetExceededError, match="Gauss-Legendre"):
        continuous_entangled_average(
            sys_, 1.0, QuadratureSpec("gauss-legendre", 20000), richardson=False
        )


def test_average_requires_bounded_semigroups():
    bad = semigroup_from_generator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    part_ok = semigroup_from_generator(np.diag([-1.0, -2.0 + 0j]))
    sys_ = make_continuous_system([1, 1], [bad, part_ok])
    with pytest.raises(NotBoundedSemigroupError):
        continuous_entangled_average(sys_, 1.0)
    with pytest.raises(NotBoundedSemigroupError):
        continuous_limit_operator(sys_)


def test_expm_horizon_overflow_propagates():
    sg = synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed=28))
    sys_ = make_continuous_system([1], [sg])
    with pytest.raises(OverflowError):
        continuous_entangled_average(sys_, 1.0e9, QuadratureSpec("midpoint", 8))


# -------------------------------------------------------- midpoint orbits


def _orbit_generators():
    """Orthonormal, cap-1e3 similarity and raw defective stable generators."""
    rot = np.array([[0.0, -np.pi], [np.pi, 0.0]])  # frequency 1/2
    jordan = np.array([[-0.5, 1.0], [0.0, -0.5]])
    raw = np.block([[jordan, np.zeros((2, 2))], [np.zeros((2, 2)), rot]])
    return {
        "orthonormal": synth_semigroup(["1/2", "0"], [-0.3 + 0.9j], OrthonormalBasis(301)),
        "similarity": synth_semigroup(
            ["1/2", "0", "1/3"], [-0.3 + 0.9j, -1.0], RandomSimilarity(7, 1e3)
        ),
        "jordan": semigroup_from_generator(raw),
    }


@pytest.mark.parametrize("q", [2, 3, 7, 1000])
@pytest.mark.parametrize("kind", ["orthonormal", "similarity", "jordan"])
def test_midpoint_orbit_stack_matches_expm_at_the_nodes(monkeypatch, kind, q):
    built = []

    def recording(*args, **kwargs):
        built.append(entangle._power_stack(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(continuous, "_power_stack", recording)
    sg = _orbit_generators()[kind]
    t = 10.0
    quad = QuadratureSpec("midpoint", q)
    continuous_entangled_average(
        make_continuous_system([1, 1], [sg, sg]), t, quad, richardson=False
    )
    assert len(built) == 1  # one stack per distinct generator
    s_nodes, _ = quad.nodes(t)
    ref = linalg.expm(sg.generator, s_nodes)
    assert float(np.max(np.linalg.norm(built[0] - ref, axis=(1, 2)))) <= 1e-10


def test_midpoint_grid_exponentiates_two_matrices_per_generator(monkeypatch):
    matrices = []
    original = scipy.linalg.expm

    def counting(a, *args, **kwargs):
        matrices.append(1 if np.ndim(a) == 2 else len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    sg1 = synth_semigroup(["1/2", "0"], [-0.3 + 0.9j], OrthonormalBasis(301))
    sg2 = synth_semigroup(["1/2", "0"], [-0.2 - 0.5j], OrthonormalBasis(302))
    conn = linalg.haar_unitary(3, seed=303)
    sys_ = make_continuous_system([1, 2, 2, 1], [sg1, sg2, sg2, sg1], [conn] * 3)
    out = continuous_entangled_average(sys_, 20.0, QuadratureSpec("midpoint", 400))
    assert out.error_estimate is not None  # Richardson ran: two grids
    # 2 distinct generators x 2 grids x (e^{(h/2)B}, e^{hB}), not one per node
    assert sum(matrices) <= 2 * 2 * 2


def test_midpoint_horizon_is_checked_before_any_stack(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("stack built before the horizon check")

    monkeypatch.setattr(continuous, "_power_stack", never)
    monkeypatch.setattr(scipy.linalg, "expm", never)
    sg = synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed=28))
    sys_ = make_continuous_system([1], [sg])
    # pi <= ||B||_1 <= sqrt(2) pi, so the cap 1e5 is passed at the largest of
    # 8 nodes of t = 4e4 (t - h/2 = 3.75e4) but not at the step h = 5e3
    with pytest.raises(OverflowError):
        continuous_entangled_average(
            sys_, 4.0e4, QuadratureSpec("midpoint", 8), richardson=False
        )


def test_midpoint_cost_counts_two_exponentials_and_q_products_per_generator():
    sg1 = synth_semigroup(["1/2"], [], OrthonormalBasis(seed=26))
    sg2 = synth_semigroup(["-1/2"], [], OrthonormalBasis(seed=27))
    # Richardson's fine grid Q=2e6: 2 generators x (2 x 20 + Q) + 3 Q for the
    # collapsed [1, 1] block
    with pytest.raises(BudgetExceededError, match="estimated cost 1.000e\\+07"):
        continuous_entangled_average(
            make_continuous_system([1, 1], [sg1, sg2]), 1.0,
            QuadratureSpec("midpoint", 10**6), budget=1e6,
        )
    # one generator read at both positions is exponentiated once
    with pytest.raises(BudgetExceededError, match="estimated cost 8.000e\\+06"):
        continuous_entangled_average(
            make_continuous_system([1, 1], [sg1, sg1]), 1.0,
            QuadratureSpec("midpoint", 10**6), budget=1e6,
        )


# ------------------------------------------------------------ limit operator


def test_continuous_limit_matches_hand_assembled_projections():
    s1 = linalg.haar_unitary(3, seed=301)
    s2 = linalg.haar_unitary(3, seed=302)
    sg1 = synth_semigroup(["0", "1/2"], [-0.5], OrthonormalBasis(seed=301))
    sg2 = synth_semigroup(["0", "-1/2"], [-0.25], OrthonormalBasis(seed=302))
    conn = linalg.haar_unitary(3, seed=303)
    sys_ = make_continuous_system([1, 1], [sg1, sg2], [conn])

    def rank_one(s, i):
        v = s[:, i : i + 1]
        return v @ v.conj().T

    # additive resonances: (0, 0) and (1/2, -1/2)
    expect = rank_one(s2, 0) @ conn @ rank_one(s1, 0)
    expect += rank_one(s2, 1) @ conn @ rank_one(s1, 1)
    lim = continuous_limit_operator(sys_)
    assert np.allclose(lim, expect, atol=1e-12)


def test_continuous_limit_excludes_mod_one_coincidences():
    # frequencies 1/2 and 1/2 sum to 1, which is NOT an additive resonance
    sg1 = synth_semigroup(["1/2"], [-0.1], OrthonormalBasis(seed=304))
    sg2 = synth_semigroup(["1/2"], [-0.2], OrthonormalBasis(seed=305))
    sys_ = make_continuous_system([1, 1], [sg1, sg2])
    assert np.array_equal(continuous_limit_operator(sys_), np.zeros((2, 2)))


def test_continuous_limit_schur_route_on_raw_generator():
    b = np.diag([TWO_PI * 0.3j, -TWO_PI * 0.3j, -1.0 + 0j])
    sg = semigroup_from_generator(b)
    conn = CounterRng(7).complex_normal((3, 3))
    sys_ = make_continuous_system([1, 1], [sg, sg], [conn])
    lim = continuous_limit_operator(sys_)
    # resonant float pairs: (0.3, -0.3) and (-0.3, 0.3); diagonal projections
    expect = np.zeros((3, 3), dtype=np.complex128)
    e11 = np.diag([1.0, 0.0, 0.0])
    e22 = np.diag([0.0, 1.0, 0.0])
    expect += e22 @ conn @ e11
    expect += e11 @ conn @ e22
    assert np.allclose(lim, expect, atol=1e-9)


def test_long_horizon_average_approaches_limit():
    sg1 = synth_semigroup(["0", "1/4"], [-0.6], OrthonormalBasis(seed=306))
    sg2 = synth_semigroup(["0", "-1/4"], [-0.9], OrthonormalBasis(seed=307))
    conn = linalg.haar_unitary(3, seed=308)
    sys_ = make_continuous_system([1, 1], [sg1, sg2], [conn])
    lim = continuous_limit_operator(sys_)
    t = 400.0
    q = suggest_points(sys_, t)
    out = continuous_entangled_average(sys_, t, QuadratureSpec("midpoint", q))
    assert np.linalg.norm(out.value - lim, 2) <= 0.02
