"""Tests for the continuous-time half: semigroups, quadrature, averages.

The cross-check for averages is `_exact_chain_integral` below, a closed
form for (1/t) int_0^t T_2(s) A T_1(s) ds built directly from the two
eigendecompositions: with B = S2^{-1} A S1 the answer is
S2 (B * G) S1^{-1}, G_ij = (e^{(mu_i+lam_j) t} - 1) / ((mu_i+lam_j) t)
and G_ij = 1 on vanishing exponents.  It never touches the quadrature
code, so agreement is a real test of the grid evaluator.
"""

import math
import sys
import tracemalloc
import warnings
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
    NonConvergenceError,
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


def test_certify_bounded_semigroup_refuses_probe_times_outside_the_semigroup():
    # T(-1) = e^{-B} is no member of the semigroup: its norm is 1.35 here
    sg = synth_semigroup(["0", "1/2"], [-0.3], OrthonormalBasis(1))
    # an empty probe grid would report measured_max = 0.0
    for bad in ((-1.0,), (0.0,), (1.0, float("nan")), (float("inf"),), ()):
        with pytest.raises(ValidationError, match="probe time"):
            certify_bounded_semigroup(sg, t_probe=bad)
    assert certify_bounded_semigroup(sg).measured_max == pytest.approx(1.0, abs=1e-12)


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


def _gauss_legendre_remainder(q: int, omega: np.ndarray) -> np.ndarray:
    """Bound on the Q-point rule's error for e^{i omega x} on [-1, 1].

    The remainder 2^{2Q+1} (Q!)^4 / ((2Q+1) ((2Q)!)^3) f^{(2Q)}(xi) applied to
    the real and imaginary parts, each with |f^{(2Q)}| <= omega^{2Q}.
    """
    log_c = ((2 * q + 1) * math.log(2) + 4 * math.lgamma(q + 1)
             - math.log(2 * q + 1) - 3 * math.lgamma(2 * q + 1))
    return math.sqrt(2) * np.exp(log_c + 2 * q * np.log(omega))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 64, 250, 251, 500, 1000])
def test_gauss_legendre_rule_is_symmetric_sums_to_two_and_meets_its_remainder(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, w = continuous._gauss_legendre(q)
    assert len(x) == len(w) == q
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0) and abs(np.sum(w) - 2.0) <= 1e-14
    # int_{-1}^{1} e^{i omega x} dx = 2 sin(omega) / omega, up to the rule's own
    # remainder, which is below 1e-60 at omega = Q/2 once Q >= 64
    omega = np.linspace(0.0, q / 2, 65)[1:]
    got = np.exp(1j * np.outer(omega, x)) @ w
    assert np.all(np.abs(got - 2 * np.sin(omega) / omega)
                  <= 1e-14 + _gauss_legendre_remainder(q, omega))
    if q <= 100:
        reference, _ = np.polynomial.legendre.leggauss(q)  # test oracle only
        assert np.max(np.abs(x - reference)) <= 1e-14


def _recurrence_half_rule(q: int) -> np.ndarray:
    """Nonnegative Gauss-Legendre nodes (descending), the test oracle: Newton's method on
    P_Q from Tricomi's guesses, with (P_Q, P_{Q-1}) from the three-term recurrence
    (n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1}, until a step is at rounding level."""
    k = np.arange(1, q // 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * q + 2)) * (1 - (q - 1) / (8 * q**3))
    x = np.append(x, [0.0] * (q % 2))  # P_Q(0) = 0 exactly for odd Q
    for _ in range(10):
        p_prev, p = np.ones_like(x), x.copy()
        for n in range(1, q):
            p_prev, p = p, x * p * ((2 * n + 1) / (n + 1)) - p_prev * (n / (n + 1))
        step = p / (q * (p_prev - x * p) / ((1 - x) * (1 + x)))
        x = x - step
        if np.abs(step).max() <= 4 * np.finfo(float).eps:
            return x
    raise AssertionError(f"the recurrence oracle did not converge at Q={q}")


@pytest.mark.parametrize("q", [*range(2, 57), 250, 251, 500, 1000])
def test_gauss_legendre_nodes_match_newton_on_the_recurrence(q):
    # below Q = 57 the edge nodes with beta < pi/4 take the edge sum in beta; in theta =
    # pi/2 - beta they were off by up to 3.3e-16 (Q = 28 and 40)
    x, _ = continuous._gauss_legendre(q)
    assert np.max(np.abs(x[q // 2:][::-1] - _recurrence_half_rule(q))) <= 1.2e-16


@pytest.mark.parametrize("q", [57, 250, 500])
def test_gauss_legendre_rule_from_57_nodes_never_takes_the_beta_form(q, monkeypatch):
    # no edge node has beta < pi/4 from Q = 57 on (cos beta <= 40/Q), so the rules the
    # benchmark runs are those of the theta form bit for bit
    x, w = continuous._gauss_legendre(q)
    monkeypatch.setattr(continuous, "_BETA_FORM_BELOW", -1.0)
    theta_x, theta_w = continuous._gauss_legendre(q)
    assert x.tobytes() == theta_x.tobytes() and w.tobytes() == theta_w.tobytes()


@pytest.mark.parametrize("q", range(2, 131))
def test_gauss_legendre_rule_at_every_small_size(q):
    # the edge sum serves every node up to Q ~ 40, then the series takes the interior
    test_gauss_legendre_rule_is_symmetric_sums_to_two_and_meets_its_remainder(q)


@pytest.mark.parametrize("q", [2048, 4096, 16384])
def test_gauss_legendre_rule_up_to_the_node_cap(q):
    assert q <= continuous.GAUSS_LEGENDRE_MAX_POINTS  # the cap is the range verified here
    x, w = continuous._gauss_legendre(q)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 1e-14
    omega = np.linspace(0.0, q / 2, 65)[1:]  # the rule's own remainder is far below rounding
    got = np.exp(1j * np.outer(omega, x)) @ w
    assert np.max(np.abs(got - 2 * np.sin(omega) / omega)) <= 3e-14


def test_gauss_legendre_newton_that_never_reaches_rounding_is_an_error(monkeypatch):
    monkeypatch.setattr(continuous, "_NEWTON_STEP_TOL", -1.0)
    with pytest.raises(NonConvergenceError, match="Q=7"):
        continuous._gauss_legendre(7)


def test_midpoint_integrates_linear_functions_exactly():
    s, w = QuadratureSpec("midpoint", 7).nodes(5.0)
    assert np.sum(w * s) == pytest.approx(12.5, rel=1e-14)


def test_unknown_scheme_is_refused_at_construction():
    # refused before any budget check or grid, not when nodes are asked for
    with pytest.raises(ValidationError, match="unknown quadrature scheme 'simpson'"):
        QuadratureSpec("simpson", 64)


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
        continuous_entangled_average(
            sys_, 1.0, QuadratureSpec("midpoint", 10 ** 6), budget=1e6, strategy="presum"
        )


def test_gauss_legendre_node_matrix_refused_before_allocation(monkeypatch):
    def never(q):
        raise AssertionError(f"_gauss_legendre({q}) called")

    monkeypatch.setattr(continuous, "_gauss_legendre", never)
    sg1 = synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed=26))
    sg2 = synth_semigroup(["-1/2"], [-1.0], OrthonormalBasis(seed=27))
    sys_ = make_continuous_system([1, 1], [sg1, sg2])
    # Q=12000 alone is under the 2^14-node cap; Richardson's Q=24000 is not
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


def _never_expm(*args, **kwargs):
    raise AssertionError("linalg.expm called")


def _defective_generator(seed=28):
    """U [[0, 0, 0], [0, -1/2, 1], [0, 0, -1/2]] U^H: bounded, its stable part a Jordan
    block, so it has no eigenbasis record and its exponentials come from linalg.expm."""
    u = linalg.haar_unitary(3, seed=seed)
    jordan = np.array([[0.0, 0.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -0.5]])
    sg = semigroup_from_generator(u @ jordan @ u.conj().T)
    assert sg.eigenbasis is None
    return sg


def test_expm_horizon_overflow_propagates():
    # the half step h/2 = t/32 (Richardson's doubled grid runs first) of a generator
    # without a record meets expm's cap
    sys_ = make_continuous_system([1], [_defective_generator()])
    with pytest.raises(OverflowError, match="exceeds cap"):
        continuous_entangled_average(sys_, 1.0e9, QuadratureSpec("midpoint", 8))


def test_gauss_legendre_past_the_cap_runs_on_a_record_and_is_refused_without_one(monkeypatch):
    # the cap guards only the batched expm over the nodes: a float record forms none
    nodes = []
    original = continuous._gauss_legendre
    monkeypatch.setattr(continuous, "_gauss_legendre", lambda q: nodes.append(q) or original(q))
    quad = QuadratureSpec("gauss-legendre", 250)
    recorded = semigroup_from_generator(np.array([[0.0, -np.pi], [np.pi, -0.5]]))
    assert recorded.eigenbasis is not None
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "expm", _never_expm)
        got = continuous_entangled_average(make_continuous_system([1], [recorded]), 1.0e9, quad)
    assert np.isfinite(got.value).all()
    nodes.clear()
    with pytest.raises(OverflowError, match="exceeds cap"):
        continuous_entangled_average(make_continuous_system([1], [_defective_generator()]),
                                     1.0e9, quad)
    assert nodes == [500]  # Richardson's doubled grid, refused after its nodes


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


def _node_sum(system, t, q):
    """The midpoint rule summed directly: (1/t) sum over the lattice of the
    weighted chains T_m(s_i) A_(m-1) ... T_1(s_j), with T(s) from expm at
    the nodes."""
    s_nodes, w_nodes = QuadratureSpec("midpoint", q).nodes(t)
    factors = [("stack", a, linalg.expm(sg.generator, s_nodes))
               for a, sg in zip(system.partition.alpha, system.semigroups)]
    return entangle.lattice_chain_mean(factors, list(system.connectors), q, w_nodes / t)


@pytest.mark.parametrize("q", [2, 3, 7, 1000])
@pytest.mark.parametrize("kind", ["orthonormal", "similarity", "jordan"])
def test_midpoint_average_matches_the_node_sum_of_expm(monkeypatch, kind, q):
    built = []

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    original = entangle._power_stack
    monkeypatch.setattr(entangle, "_power_stack", recording)
    sg = _orbit_generators()[kind]
    t = 10.0
    sys_ = make_continuous_system([1, 1], [sg, sg])
    ref = _node_sum(sys_, t, q)
    for strategy in ("spectral", "presum"):
        built.clear()
        got = continuous_entangled_average(
            sys_, t, QuadratureSpec("midpoint", q), richardson=False, strategy=strategy
        )
        assert np.linalg.norm(got.value - ref) <= 1e-10 * np.linalg.norm(ref), strategy
    assert len(built) == 1  # presum stacks e^{hB} once for the generator read at both positions


def test_midpoint_grid_exponentiates_two_matrices_per_generator(monkeypatch):
    matrices = []
    original = scipy.linalg.expm

    def counting(a, *args, **kwargs):
        matrices.append(1 if np.ndim(a) == 2 else len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    # raw generators with a defective stable part: generators with an eigenbasis
    # record would take both steps from it
    jordan = np.array([[-0.5, 1.0], [0.0, -0.5]])
    sg1, sg2 = (
        semigroup_from_generator(np.block([[np.array([[0.0, -np.pi], [np.pi, 0.0]]) * f,
                                            np.zeros((2, 2))], [np.zeros((2, 2)), jordan]]))
        for f in (1.0, 2.0)
    )
    assert sg1.eigenbasis is None and sg2.eigenbasis is None
    conn = linalg.haar_unitary(4, seed=303)
    sys_ = make_continuous_system([1, 2, 2, 1], [sg1, sg2, sg2, sg1], [conn] * 3)
    out = continuous_entangled_average(
        sys_, 20.0, QuadratureSpec("midpoint", 400), strategy="presum"
    )
    assert out.error_estimate is not None  # Richardson ran: two grids
    # 2 distinct generators x 2 grids x (e^{-(h/2)B}, e^{hB}), not one per node
    assert sum(matrices) == 2 * 2 * 2


def test_midpoint_horizon_is_checked_before_any_stack(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("stack built before the horizon check")

    monkeypatch.setattr(entangle, "_power_stack", never)
    monkeypatch.setattr(continuous, "_evaluate_discrete", never)
    monkeypatch.setattr(scipy.linalg, "expm", never)
    sys_ = make_continuous_system([1], [_defective_generator()])
    # the half step h/2 = 6.25e7 exceeds the cap 1e5 (||B||_1 >= 1/2), and linalg.expm
    # refuses it before SciPy and before the first power stack
    with pytest.raises(OverflowError, match="exceeds cap"):
        continuous_entangled_average(
            sys_, 1.0e9, QuadratureSpec("midpoint", 8), richardson=False
        )


def test_midpoint_cost_is_the_discrete_presum_cost_at_the_fine_q():
    sg1 = synth_semigroup(["1/2"], [], OrthonormalBasis(seed=26))
    sg2 = synth_semigroup(["-1/2"], [], OrthonormalBasis(seed=27))
    # Richardson's fine grid Q=2e6 is refused at discrete depth 2e6: 3 Q
    # products for the collapsed [1, 1] block, whether or not the two
    # positions read one generator; the exponentials e^{hB} are not counted
    assert entangle._estimate_cost("presum", 2 * 10**6, entangle.make_partition([1, 1])) == 6e6
    for pair in ([sg1, sg2], [sg1, sg1]):
        with pytest.raises(BudgetExceededError,
                           match="estimated cost 6.000e\\+06 .*strategy=presum, Q=2000000"):
            continuous_entangled_average(
                make_continuous_system([1, 1], pair), 1.0,
                QuadratureSpec("midpoint", 10**6), budget=1e6, strategy="presum",
            )


def test_midpoint_fine_grid_is_refused_before_the_coarse_grid_runs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("stack or power sum built before the refusal")

    monkeypatch.setattr(entangle, "_power_stack", never)
    monkeypatch.setattr(entangle, "_power_sum", never)
    sg1 = synth_semigroup(["1/2"], [], OrthonormalBasis(seed=26))
    sg2 = synth_semigroup(["-1/2"], [], OrthonormalBasis(seed=27))
    # Q=1e6 alone costs 3e6 and would pass; Richardson's Q=2e6 costs 6e6
    with pytest.raises(BudgetExceededError, match="Q=2000000"):
        continuous_entangled_average(
            make_continuous_system([1, 1], [sg1, sg2]), 1.0,
            QuadratureSpec("midpoint", 10**6), budget=5e6, strategy="presum",
        )


# ---------------------------------------------------------- spectral route


def _route_system(alpha, basis):
    """Generators of dimension 3, one per position, and Haar connectors: certified,
    or for basis "raw" the similarity ones' matrices wrapped with their float records."""
    make = {"orthonormal": OrthonormalBasis, "similarity": lambda seed: RandomSimilarity(seed, 1e3)}
    sgs = [synth_semigroup([f"{j}/2", "0"], [-0.3 + 0.9j * (-1) ** j],
                           make["similarity" if basis == "raw" else basis](310 + j))
           for j in range(len(alpha))]
    if basis == "raw":
        sgs = [semigroup_from_generator(sg.generator) for sg in sgs]
        assert all(sg.certificate is None and sg.eigenbasis is not None for sg in sgs)
    conns = [linalg.haar_unitary(3, seed=320 + j) for j in range(len(alpha) - 1)]
    return make_continuous_system(alpha, sgs, conns)


@pytest.mark.parametrize("state", [False, True], ids=["operator", "state"])
@pytest.mark.parametrize("basis", ["orthonormal", "similarity", "raw"])
@pytest.mark.parametrize("scheme", ["midpoint", "gauss-legendre"])
@pytest.mark.parametrize("alpha", [[1], [1, 1], [1, 2], [1, 2, 1], [1, 2, 1, 2], [1, 2, 2, 1]])
def test_spectral_route_matches_presum(alpha, scheme, basis, state):
    sys_ = _route_system(alpha, basis)
    x = CounterRng(9).complex_normal((3,)) if state else None
    quad = QuadratureSpec(scheme, 12 if len(alpha) == 4 else 40)
    spectral = continuous_entangled_average(sys_, 3.0, quad, x=x)
    presum = continuous_entangled_average(sys_, 3.0, quad, x=x, strategy="presum")
    scale = float(np.linalg.norm(presum.value))
    assert np.linalg.norm(spectral.value - presum.value) <= 1e-12 * scale
    # each estimate is the norm of a difference of two values that agree to 1e-12
    assert abs(spectral.error_estimate - presum.error_estimate) <= 2e-12 * scale


@pytest.mark.parametrize("cause", ["raw generator", "memory cap"])
@pytest.mark.parametrize("scheme", ["midpoint", "gauss-legendre"])
def test_spectral_route_falls_back_to_presum_bit_for_bit(monkeypatch, scheme, cause):
    sg = _orbit_generators()["jordan" if cause == "raw generator" else "orthonormal"]
    sys_ = make_continuous_system([1, 2, 1], [sg, sg, sg])
    if cause == "memory cap":
        need = entangle._spectral_bytes if scheme == "midpoint" else continuous._quadrature_bytes
        monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", need(sys_.partition, sys_.dim) - 1)
    quad = QuadratureSpec(scheme, 30)
    presum = continuous_entangled_average(sys_, 4.0, quad, strategy="presum")

    def never(*args, **kwargs):
        raise AssertionError("the spectral route ran")

    monkeypatch.setattr(continuous, "_quadrature_weight", never)
    monkeypatch.setattr(entangle, "_spectral_mean", never)
    got = continuous_entangled_average(sys_, 4.0, quad)
    assert np.array_equal(got.value, presum.value)
    assert got.error_estimate == presum.error_estimate


def test_resonant_cell_weight_is_exactly_one():
    # 1/6 + 4/6 - 5/6 = 0 exactly, but the float eigenvalues sum to ~9e-16 i,
    # which nodes out to s = 1e4 turn into a phase
    sgs = [synth_semigroup([f], [-0.5], OrthonormalBasis(330 + j))
           for j, f in enumerate(["1/6", "4/6", "-5/6"])]
    certs = [sg.certificate for sg in sgs]
    assert certs[0].eigenvalues[0] + certs[1].eigenvalues[0] + certs[2].eigenvalues[0] != 0
    s_nodes, w_nodes = QuadratureSpec("midpoint", 4000).nodes(1.0e4)
    g = continuous._quadrature_weight(entangle._Block(sgs, True), s_nodes, w_nodes / 1.0e4)
    assert g[0, 0, 0] == 1.0
    mu = certs[0].eigenvalues[1] + certs[1].eigenvalues[0] + certs[2].eigenvalues[0]
    assert abs(g[1, 0, 0] - np.sum(w_nodes * np.exp(mu * s_nodes)) / 1.0e4) <= 1e-12


@pytest.mark.parametrize("call, error, match", [
    (lambda s: continuous_entangled_average(  # position 1 has no record: presum's step
        make_continuous_system([1, 2, 1], [_defective_generator(), *s.semigroups[1:]],
                               s.connectors), 1.0e9, QuadratureSpec("midpoint", 8)),
     OverflowError, "exceeds cap"),
    (lambda s: continuous_entangled_average(s, 1.0, QuadratureSpec("gauss-legendre", 4000),
                                            budget=1e3),
     BudgetExceededError, "strategy=spectral"),
    (lambda s: continuous_entangled_average(s, 1.0, QuadratureSpec("gauss-legendre", 12000)),
     BudgetExceededError, "Gauss-Legendre"),
])
def test_spectral_route_refuses_before_any_weight(monkeypatch, call, error, match):
    def never(*args, **kwargs):
        raise AssertionError("weight built before the refusal")

    monkeypatch.setattr(continuous, "_quadrature_weight", never)
    monkeypatch.setattr(entangle, "_cesaro_weight", never)
    with pytest.raises(error, match=match):
        call(_route_system([1, 2, 1], "orthonormal"))


def test_spectral_cost_counts_q_node_sums_per_grid_cell():
    sg1 = synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed=26))
    sg2 = synth_semigroup(["-1/2"], [-1.0], OrthonormalBasis(seed=27))
    # Richardson's fine Gauss-Legendre grid Q=10^4 over the [1, 1] block's
    # 2^2 cells, per d^3 products: 10^4 x 4 / 8, plus 3 + 2^-1 x 3 for the
    # contraction
    with pytest.raises(BudgetExceededError, match="estimated cost 5.004e\\+03 .*Q=10000"):
        continuous_entangled_average(
            make_continuous_system([1, 1], [sg1, sg2]), 1.0,
            QuadratureSpec("gauss-legendre", 5000), budget=1e3,
        )


@pytest.mark.parametrize("strategy, match", [("naive", "unknown"), ("turbo", "unknown")])
def test_strategy_without_a_continuous_route_is_refused(strategy, match):
    with pytest.raises(ValidationError, match=match) as refusal:
        continuous_entangled_average(_one_frequency_system(), 1.0, strategy=strategy)
    assert str(refusal.value).endswith("expected presum|spectral")


@pytest.mark.parametrize("alpha, q", [([1, 1, 1], 400), ([1, 1, 1, 1], 4)])
def test_spectral_peak_memory_stays_under_the_counted_bytes(alpha, q):
    # d^r = 1728 cells take 9 nodes per chunk; 20736 cells exceed a chunk alone
    d = 12
    sgs = [synth_semigroup(["0", "1/2"], [-0.5] * (d - 2), OrthonormalBasis(340 + j))
           for j in range(len(alpha))]
    sys_ = make_continuous_system(alpha, sgs)
    quad = QuadratureSpec("gauss-legendre", q)
    continuous_entangled_average(sys_, 2.0, quad)  # numpy's one-time allocations happen here
    tracemalloc.start()
    try:
        continuous_entangled_average(sys_, 2.0, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * d ** len(alpha) < peak <= continuous._quadrature_bytes(sys_.partition, d)


# ------------------------------------------------------ midpoint as discrete time


def _gate8_system():
    """Acceptance gate 8's two certified generators on the block [1, 1]."""
    sg1 = synth_semigroup(["1/2", "0"], [-0.3 + 0.9j], OrthonormalBasis(301))
    sg2 = synth_semigroup(["1/2", "0"], [-0.2 - 0.5j], OrthonormalBasis(302))
    return make_continuous_system([1, 1], [sg1, sg2], [linalg.haar_unitary(3, seed=303)])


def _midpoint_reference(system, t, q):
    """The midpoint rule on a [1, 1] system in the eigenbases, from the exponents.

    A cell with exponent x = (mu + lam) h weighs
    (1/Q) sum_i e^{x (i + 1/2)} = e^{x/2} expm1(Q x) / (Q expm1(x)), and 1 at
    x = 0, with x formed in floats and never exponentiated before expm1.
    """
    c1, c2 = (sg.certificate for sg in system.semigroups)
    w = np.array([[1.0 if x == 0 else np.exp(x / 2) * np.expm1(q * x) / (q * np.expm1(x))
                   for x in row] for row in np.add.outer(c2.eigenvalues, c1.eigenvalues) * (t / q)])
    core = c2.basis_inv @ system.connectors[0] @ c1.basis
    return c2.basis @ (core * w) @ c1.basis_inv


@pytest.mark.parametrize("raw", [False, True], ids=["certified", "raw"])
def test_spectral_midpoint_builds_only_the_half_steps(monkeypatch, raw):
    # the spectral route reads E = e^{hB/2}; the full step P = e^{hB} is presum's
    sgs = [synth_semigroup(["0", "1/3"], [-0.5], OrthonormalBasis(360 + j)) for j in range(2)]
    if raw:
        sgs = [semigroup_from_generator(np.array(sg.generator)) for sg in sgs]
    sys_ = make_continuous_system([1, 1], sgs, [linalg.haar_unitary(3, seed=362)])
    quad = QuadratureSpec("midpoint", 16)
    want = continuous_entangled_average(sys_, 2.0, quad, strategy="presum")
    calls = []
    monkeypatch.setattr(entangle, "_step", lambda *args: calls.append(args))
    got = continuous_entangled_average(sys_, 2.0, quad)
    assert calls == []
    assert np.linalg.norm(got.value - want.value) <= 1e-12 * np.linalg.norm(want.value)


@pytest.mark.parametrize("strategy", ["spectral", "presum"])
@pytest.mark.parametrize("freqs", [("1/2", "1/2"), ("1/11", "10/11")])
def test_aliased_midpoint_cell_is_resonant_and_keeps_its_sign(freqs, strategy):
    # t = Q = 16: h = 1 and the two frequencies alias, sum phi h = 1; every
    # node then reads e^{2 pi i (i + 1/2)} = -1 on that cell.  For 1/11 and
    # 10/11 the float exponents sum to 2 pi i + 9e-16 i, not to 2 pi i
    sgs = [synth_semigroup([f], [-0.5], OrthonormalBasis(350 + j)) for j, f in enumerate(freqs)]
    sys_ = make_continuous_system([1, 1], sgs, [linalg.haar_unitary(2, seed=352)])
    weight = entangle._cesaro_weight(entangle._Block(sgs, True), 16, Fraction(1))
    assert weight[0, 0] == 1.0
    ref = _node_sum(sys_, 16.0, 16)
    got = continuous_entangled_average(
        sys_, 16.0, QuadratureSpec("midpoint", 16), richardson=False, strategy=strategy
    )
    assert np.linalg.norm(got.value - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("q", [10, 10**3, 10**5, 10**6])
def test_midpoint_spectral_route_keeps_its_digits_as_h_goes_to_zero(q):
    # h = 0.1 ... 1e-6: log z is taken from the exponents mu h, not from a
    # rounded e^{mu h}, whose log would lose |mu h| digits
    sys_ = _gate8_system()
    ref = _midpoint_reference(sys_, 1.0, q)
    got = continuous_entangled_average(sys_, 1.0, QuadratureSpec("midpoint", q), richardson=False)
    assert np.linalg.norm(got.value - ref) <= 1e-14 * np.linalg.norm(ref)


def test_slow_frequency_of_a_raw_generator_is_not_resonant_at_a_small_step():
    # at h = 1e-6 the step's exponent 2 pi i h / 1000 is 6e-9 from 0, within the
    # resonance tolerance, but over t = 10 the frequency 1/1000 turns by 1/100
    sg = synth_semigroup(["1/1000"], [-1.0], OrthonormalBasis(3))
    quad = QuadratureSpec("midpoint", 10**7)
    want, got = (continuous_entangled_average(make_continuous_system([1], [g]), 10.0, quad,
                                              richardson=False).value
                 for g in (sg, semigroup_from_generator(sg.generator)))
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("strategy", ["spectral", "presum"])
def test_midpoint_rule_stays_accurate_on_a_stiff_generator(strategy):
    # gate 8's system with a stable eigenvalue at -900: at h = t/Q = 0.1 a
    # half step e^{-hB/2} would scale rounding by e^{900 h/2} = e^{45}
    sg1 = synth_semigroup(["1/2", "0"], [-900.0], OrthonormalBasis(301))
    sg2 = synth_semigroup(["1/2", "0"], [-0.2 - 0.5j], OrthonormalBasis(302))
    conn = linalg.haar_unitary(3, seed=303)
    sys_ = make_continuous_system([1, 1], [sg1, sg2], [conn])
    q = suggest_points(sys_, 40.0)
    assert q == 400
    exact = _exact_chain_integral(sg2, conn, sg1, 40.0)
    got = continuous_entangled_average(sys_, 40.0, QuadratureSpec("midpoint", q),
                                       strategy=strategy)
    err = float(np.linalg.norm(got.value - exact))
    assert err <= 1e-3 and err <= 5 * got.error_estimate, (err, got.error_estimate)


@pytest.mark.parametrize("t", [0.1, 1 / 3])
@pytest.mark.parametrize("alpha, q", [([1, 1], 1000), ([1, 1, 1], 12)])
def test_midpoint_at_a_non_dyadic_horizon(alpha, q, t):
    # Fraction(t) has denominator 2^55 or 2^54, so the step angles phi t / Q
    # mod 1 have denominators near 2^55 Q, past int64 once summed over a block
    sgs = [synth_semigroup(["1/2", "-1/3", "0"], [-0.4 + 0.3j], OrthonormalBasis(360 + j))
           for j in range(len(alpha))]
    conns = [linalg.haar_unitary(4, seed=370 + j) for j in range(len(alpha) - 1)]
    sys_ = make_continuous_system(alpha, sgs, conns)
    assert Fraction(t).denominator >= 2**54
    ref = _node_sum(sys_, t, q)
    for strategy in ("spectral", "presum"):
        got = continuous_entangled_average(
            sys_, t, QuadratureSpec("midpoint", q), richardson=False, strategy=strategy
        )
        assert np.linalg.norm(got.value - ref) <= 1e-12 * np.linalg.norm(ref), strategy


def test_midpoint_at_a_billion_nodes_builds_nothing_of_length_q():
    # certified: the default budget admits it (the cost does not depend on Q),
    # and neither the horizon check nor the weight allocates per node
    sys_ = _gate8_system()
    continuous_entangled_average(sys_, 100.0, QuadratureSpec("midpoint", 1000))
    tracemalloc.start()
    try:
        got = continuous_entangled_average(sys_, 100.0, QuadratureSpec("midpoint", 10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    ref = _midpoint_reference(sys_, 100.0, 10**9)
    assert np.linalg.norm(got.value - ref) <= 1e-14 * np.linalg.norm(ref)
    assert got.error_estimate <= 1e-13


@pytest.mark.parametrize("e", [63, 64, 70, 200])
@pytest.mark.parametrize("which", ["single", "gate 8"])
def test_midpoint_closed_form_holds_at_any_q(which, e):
    # the stable exponent lam h Q is lam t at every Q; a cap at 2^64, where a
    # discrete |lam|^n has underflowed, read it as lam t 2^64 / Q (0.62 off at 2^200)
    if which == "single":
        sg = synth_semigroup(["0"], [-0.5], OrthonormalBasis(3))
        sys_, t, want = make_continuous_system([1], [sg]), 1.0, _exact_mean(sg, 1.0)
    else:
        sys_, t = _gate8_system(), 2.0
        sg1, sg2 = sys_.semigroups
        want = _exact_chain_integral(sg2, sys_.connectors[0], sg1, t)
    got = continuous_entangled_average(sys_, t, QuadratureSpec("midpoint", 2**e))
    assert np.linalg.norm(got.value - want) <= 1e-14 * np.linalg.norm(want)
    assert got.error_estimate < 1e-14


@pytest.mark.parametrize("richardson", [False, True], ids=["plain", "richardson"])
@pytest.mark.parametrize("t, e", [(1.0, 1022), (1.0, 1023), (1.0, 1100), (4.0, 1023),
                                  (4.0, 1024)])
def test_midpoint_past_the_float_range_runs_or_is_refused_by_name(monkeypatch, t, e, richardson):
    # t - t / (2Q) raised a bare OverflowError from Q = 2^1022 with Richardson on, and a
    # step t/Q below the normal range made the weight NaN: Q and h must be normal floats
    sg = synth_semigroup(["0"], [-0.5], OrthonormalBasis(3))
    sys_, quad = make_continuous_system([1], [sg]), QuadratureSpec("midpoint", 2**e)
    q = 2 ** (e + richardson)  # the grid that runs first
    if q <= sys.float_info.max and t / q >= sys.float_info.min:
        got = continuous_entangled_average(sys_, t, quad, richardson=richardson)
        want = _exact_mean(sg, t)
        assert np.linalg.norm(got.value - want) <= 1e-14 * np.linalg.norm(want)
        return

    def never(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(continuous, "_step", never)
    with pytest.raises(BudgetExceededError, match="leaves the normal float range"):
        continuous_entangled_average(sys_, t, quad, richardson=richardson)


@pytest.mark.parametrize("e", [600, 1022])
def test_presum_midpoint_past_the_float_range_is_refused_by_name(e):
    # the crossing cost Q^2 overflowed float's ** with a bare OverflowError
    sgs = [synth_semigroup(["0"], [-0.5], OrthonormalBasis(j)) for j in range(4)]
    conns = [linalg.haar_unitary(2, seed=400 + j) for j in range(3)]
    sys_ = make_continuous_system([1, 2, 1, 2], sgs, conns)
    for budget, match in [(1e8, "estimated cost inf"), (None, "power stacks")]:
        with pytest.raises(BudgetExceededError, match=match):
            continuous_entangled_average(sys_, 1.0, QuadratureSpec("midpoint", 2**e),
                                         budget=budget, richardson=False, strategy="presum")


@pytest.mark.parametrize("e", [30, 40, 50, 70, 200])
def test_midpoint_negative_frequency_keeps_its_digits_as_h_goes_to_zero(e):
    # -1/2 h mod 1 read in [0, 1) sits just below 1, and the float shift by a turn
    # lost the small angle's digits: 1e-6 off at Q = 2^40, with an estimate of 3e-16
    sg1 = synth_semigroup(["0", "1/2"], [-0.5], OrthonormalBasis(7))
    sg2 = synth_semigroup(["0", "-1/2"], [-1.0], OrthonormalBasis(8))
    want = _exact_chain_integral(sg2, np.eye(3), sg1, 8.0)
    got = continuous_entangled_average(make_continuous_system([1, 1], [sg1, sg2]), 8.0,
                                       QuadratureSpec("midpoint", 2**e))
    assert np.linalg.norm(got.value - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("alpha", [[1, 1, 1], [1, 1, 1, 1]])
def test_midpoint_peak_memory_stays_under_the_discrete_count(alpha):
    # the step weight keeps log z on the near cells instead of z: no grid more
    d = 12
    sgs = [synth_semigroup(["0", "1/2"], [-0.5 + 0.1j * k for k in range(d - 2)],
                           OrthonormalBasis(340 + j)) for j in range(len(alpha))]
    sys_ = make_continuous_system(alpha, sgs)
    quad = QuadratureSpec("midpoint", 400)
    continuous_entangled_average(sys_, 2.0, quad)  # numpy's one-time allocations happen here
    tracemalloc.start()
    try:
        continuous_entangled_average(sys_, 2.0, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * d ** len(alpha) < peak <= entangle._spectral_bytes(sys_.partition, d)


# ------------------------------------------------------------ long horizons


def _long_horizon_system(kind):
    """configs/continuous.json's system (frequencies 0, 1/2 and 0, -1/2; stable parts -1/2
    and -1 on orthonormal bases 7 and 8; Haar connector 9); on cap-1e3 similarity bases; or
    with the first stable part stiff at -1e4."""
    basis = {"similarity": lambda seed: RandomSimilarity(seed, 1e3)}.get(kind, OrthonormalBasis)
    sg1 = synth_semigroup(["0", "1/2"], [-1.0e4 if kind == "stiff" else -0.5], basis(7))
    sg2 = synth_semigroup(["0", "-1/2"], [-1.0], basis(8))
    return make_continuous_system([1, 1], [sg1, sg2], [linalg.haar_unitary(3, seed=9)])


def _gauss_legendre_reference(system, t, q):
    """The Gauss-Legendre rule on a [1, 1] system in the eigenbases: a cell with exponent
    mu weighs (1/t) sum_i w_i e^{mu s_i}."""
    s_nodes, w_nodes = QuadratureSpec("gauss-legendre", q).nodes(t)
    c1, c2 = (sg.certificate for sg in system.semigroups)
    mu = np.add.outer(c2.eigenvalues, c1.eigenvalues)
    w = np.tensordot(w_nodes / t, np.exp(np.multiply.outer(s_nodes, mu)), axes=1)
    core = c2.basis_inv @ system.connectors[0] @ c1.basis
    return c2.basis @ (core * w) @ c1.basis_inv


@pytest.mark.parametrize("t", [1.0e5, 1.0e6, 1.0e9])
@pytest.mark.parametrize("scheme", ["midpoint", "gauss-legendre"])
@pytest.mark.parametrize("kind", ["orthonormal", "similarity", "stiff"])
def test_certified_means_run_at_any_horizon_without_an_exponential(monkeypatch, kind, scheme, t):
    # a record exponentiates eigenvalues times a node or step, never t B: the cap on
    # ||t B||_1 refused these means from t ~ 2.5e4 (t ~ 8 when stiff) although no expm ran
    monkeypatch.setattr(linalg, "expm", _never_expm)
    monkeypatch.setattr(scipy.linalg, "expm", _never_expm)
    sys_ = _long_horizon_system(kind)
    sg1, sg2 = sys_.semigroups
    if scheme == "gauss-legendre":
        got = continuous_entangled_average(sys_, t, QuadratureSpec(scheme, 250))
        want = _gauss_legendre_reference(sys_, t, 250)
        assert np.linalg.norm(got.value - want) <= 1e-12 * np.linalg.norm(want)
        return
    # the closed form weighs a cell expm1(mu t) / (mu t); the rule's error on the
    # oscillating cells is bounded in s, so at suggest_points it falls as 1/t
    # (1.28e-8 x 1e5 / t relative on the shipped config, 1.41e-8 on similarity bases)
    got = continuous_entangled_average(sys_, t, QuadratureSpec(scheme, suggest_points(sys_, t)))
    want = _exact_chain_integral(sg2, sys_.connectors[0], sg1, t)
    err = float(np.linalg.norm(got.value - want))
    assert err <= 2e-8 * (1.0e5 / t) * np.linalg.norm(want)
    assert err <= 2 * got.error_estimate, (err, got.error_estimate)


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
