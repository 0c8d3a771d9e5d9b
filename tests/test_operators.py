"""Tests for spectral operators, projections and the reversible/stable split.

Dual routes are exercised wherever two exist: certificate masks against
Schur projections, spectral projections against Cesaro partial means from
the test oracle (oracle.brute_average at alpha = [1]).
Tolerances follow the documented contracts (1e-10 scaled algebra for the
splitting, O(1/n) for Cesaro convergence).
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from entlab import linalg, operators
from entlab.continuous import semigroup_from_generator, synth_semigroup
from entlab.entangle import entangled_average, make_system
from entlab.errors import (
    BadAngleError,
    DimensionMismatchError,
    NotPowerBoundedError,
    NotUnimodularError,
    SpectralFailureError,
    ValidationError,
)
from entlab.operators import (
    OrthonormalBasis,
    RandomSimilarity,
    as_operator,
    certify_power_bounded,
    from_matrix,
    jdl_split,
    mean_ergodic_projection,
    parse_angle,
    schur_spectral_projection,
    synth_operator,
)
from entlab.spectral_limit import limit_operator
from oracle import brute_average

# ------------------------------------------------------------------- angles


@pytest.mark.parametrize(
    "raw, expect",
    [
        ("1/3", Fraction(1, 3)),
        ("2/4", Fraction(1, 2)),  # reduced on parse
        ("-1/4", Fraction(3, 4)),  # normalized into [0, 1)
        (Fraction(5, 3), Fraction(2, 3)),
        ((7, 2), Fraction(1, 2)),
        (3, Fraction(0)),
        ("0", Fraction(0)),
    ],
)
def test_parse_angle_accepts_exact_forms(raw, expect):
    assert parse_angle(raw) == expect


@pytest.mark.parametrize("raw", [0.5, 1.0, True, "abc", "1/0", (1, 0), None, [1, 3]])
def test_parse_angle_rejects_inexact_or_malformed(raw):
    with pytest.raises(BadAngleError):
        parse_angle(raw)


def test_angle_value_half_turn():
    assert operators.angle_value(Fraction(1, 2)) == pytest.approx(-1.0)
    assert operators.angle_value(Fraction(0)) == pytest.approx(1.0)
    assert operators.angle_value(Fraction(1, 4)) == pytest.approx(1j)


# ---------------------------------------------------------------- synthesis


def test_synth_operator_spectrum_matches_request():
    op = synth_operator(["0", "1/2"], [0.5j], OrthonormalBasis(seed=3))
    got = np.sort_complex(np.linalg.eigvals(op.matrix))
    expect = np.sort_complex(np.array([1.0, -1.0, 0.5j]))
    assert np.allclose(got, expect, atol=1e-12)
    assert op.dim == 3


def test_synth_operator_certificate_reconstructs_matrix():
    for basis in (OrthonormalBasis(seed=11), RandomSimilarity(seed=11)):
        op = synth_operator(["1/3", "1/3", "2/5"], [0.2, -0.3j], basis)
        c = op.certificate
        rebuilt = (c.basis * c.eigenvalues[np.newaxis, :]) @ c.basis_inv
        err = np.linalg.norm(rebuilt - op.matrix)
        assert err <= 1e-10 * np.linalg.norm(op.matrix)


def test_synth_operator_orthonormal_basis_gives_normal_matrix():
    op = synth_operator(["1/5"], [0.1, 0.2], OrthonormalBasis(seed=4))
    t = op.matrix
    assert np.allclose(t @ t.conj().T, t.conj().T @ t, atol=1e-12)
    assert op.power_bound_estimate == pytest.approx(1.0)


def test_synth_operator_multiplicities_are_counted():
    op = synth_operator(["1/3", "1/3", "0"], [], OrthonormalBasis(seed=9))
    by_angle = {p.angle: p.multiplicity for p in op.unimodular_spectrum}
    assert by_angle == {Fraction(0): 1, Fraction(1, 3): 2}


def test_synth_operator_random_similarity_meets_condition_cap():
    op = synth_operator(["1/7"], [0.5], RandomSimilarity(seed=21, condition_cap=20.0))
    assert 1.0 <= op.power_bound_estimate <= 20.0
    ok, _ = op.spectral_verdict
    assert ok


def test_synth_operator_rejects_unstable_and_empty():
    with pytest.raises(ValidationError):
        synth_operator(["0"], [1.0], OrthonormalBasis(seed=0))
    with pytest.raises(ValidationError):
        synth_operator([], [1.0 + 1e-6], OrthonormalBasis(seed=0))
    with pytest.raises(DimensionMismatchError):
        synth_operator([], [], OrthonormalBasis(seed=0))


def test_from_matrix_reads_unimodular_spectrum():
    op = from_matrix(np.diag([1.0, 0.5, -1.0]))
    assert op.certificate is None
    vals = sorted((p.value.real for p in op.unimodular_spectrum))
    assert vals == pytest.approx([-1.0, 1.0])
    assert all(p.multiplicity == 1 for p in op.unimodular_spectrum)


def test_from_matrix_merges_repeated_eigenvalue_into_multiplicity():
    u = linalg.haar_unitary(4, seed=2)
    t = u @ np.diag([1.0, 1.0, 0.3, 0.1]) @ u.conj().T
    op = from_matrix(t)
    assert len(op.unimodular_spectrum) == 1
    assert op.unimodular_spectrum[0].multiplicity == 2


def test_as_operator_is_idempotent():
    op = synth_operator(["0"], [], OrthonormalBasis(seed=1))
    assert as_operator(op) is op


# ------------------------------------------------------------ immutability

CONSTRUCTORS = {
    "synth_operator": lambda: synth_operator(["1/3"], [0.5, -0.2], RandomSimilarity(seed=5)),
    "synth_semigroup": lambda: synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed=6)),
    "from_matrix": lambda: from_matrix(np.diag([1.0, 0.5j])),
    "semigroup_from_generator": lambda: semigroup_from_generator(np.diag([0.0, -1.0])),
}


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
def test_every_array_of_a_constructed_operator_is_read_only(build):
    op = build()
    rec = op.eigenbasis
    for arr in [op.matrix, rec.basis, rec.eigenvalues, rec.basis_inv]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("copy_of", [lambda op: pickle.loads(pickle.dumps(op)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
def test_a_copied_operator_is_rebuilt_read_only_and_checked_again(build, copy_of, monkeypatch):
    # a copy used to come back with writeable arrays, and after a write to its
    # matrix its verdict still read (True, None)
    op = build()
    checked = []
    check = operators._check_certificate
    monkeypatch.setattr(operators, "_check_certificate",
                        lambda matrix, rec: checked.append(rec) or check(matrix, rec))
    again = copy_of(op)
    assert len(checked) == 1 and again is not op and again.clock is op.clock
    assert (again.certificate is None) is (op.certificate is None)
    assert again.spectral_verdict == op.spectral_verdict
    assert again.unimodular_spectrum == op.unimodular_spectrum
    rec = again.eigenbasis
    for arr in [again.matrix, rec.basis, rec.eigenvalues, rec.basis_inv]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    rebuild, args = op.__reduce__()
    moved = args[0].copy()
    moved[0, 0] += 0.3
    with pytest.raises(ValidationError, match="does not reproduce the matrix"):
        rebuild(moved, *args[1:])


def test_certified_matrix_cannot_drift_from_its_certificate():
    # a write would move presum but not the certificate's spectral mean
    op = synth_operator(["1/3"], [0.5, -0.2], OrthonormalBasis(1))
    with pytest.raises(ValueError):
        op.matrix[0, 0] += 0.3
    sys_ = make_system([1, 1], [op, op])
    spectral, presum = (entangled_average(sys_, 64, s) for s in ("spectral", "presum"))
    assert np.linalg.norm(spectral - presum) <= 1e-12 * np.linalg.norm(presum)


@pytest.mark.parametrize("wrap, diagonal", [(from_matrix, 1.0), (semigroup_from_generator, 0.0)])
def test_raw_operator_holds_its_own_copy_of_the_matrix(wrap, diagonal):
    x = diagonal * np.eye(2, dtype=np.complex128)  # already complex128: no conversion copy
    op = wrap(x)
    assert not np.shares_memory(op.matrix, x)
    x[0, 1] = 1.0  # a Jordan block on the boundary, had the operator kept x
    assert x.flags.writeable
    assert np.array_equal(op.matrix, diagonal * np.eye(2))
    assert op.spectral_verdict == (True, None)


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS)
def test_operator_attributes_cannot_be_reassigned(build):
    op = build()
    with pytest.raises(FrozenInstanceError):
        op.matrix = np.zeros((2, 2))
    with pytest.raises(FrozenInstanceError):
        op.certificate = None


def test_raw_operator_without_its_eig_is_refused():
    with pytest.raises(ValidationError, match="from_matrix"):
        operators.SpectralOperator(np.eye(2), None, 1.0, ())


def test_certified_operator_whose_matrix_disagrees_with_its_certificate_is_refused():
    # accepted before the check: its verdict read (True, None), and at alpha = [1, 1],
    # N = 64 its spectral and presum means differed by 1.06e-2
    op = synth_operator(["1/3"], [0.5, -0.2], OrthonormalBasis(1))
    moved = op.matrix.copy()
    moved[0, 0] += 0.3
    with pytest.raises(ValidationError, match="does not reproduce the matrix"):
        operators.SpectralOperator(moved, op.certificate, op.power_bound_estimate,
                                   op.unimodular_spectrum)
    with pytest.raises(ValidationError, match="does not fit"):
        operators.SpectralOperator(np.eye(2), op.certificate, 1.0, op.unimodular_spectrum)
    empty = np.zeros((0, 0), dtype=np.complex128)
    with pytest.raises(ValidationError, match="at least one eigenvalue"):
        operators.SpectralOperator(empty, operators.Certificate(empty, np.zeros(0), empty), 1.0, ())


BASES = {"orthonormal": OrthonormalBasis(3), "similarity": RandomSimilarity(3),
         "similarity-1e3": RandomSimilarity(4, 1e3), "similarity-1e6": RandomSimilarity(5, 1e6)}


@pytest.mark.parametrize("basis", BASES.values(), ids=BASES)
@pytest.mark.parametrize("clock", ["discrete", "continuous"])
def test_synthesized_operators_pass_their_certificate_check(basis, clock):
    if clock == "discrete":
        op = synth_operator(["0", "1/3", "1/2"], [0.9, -0.5j, 0.2, 0.0], basis)
    else:
        op = synth_semigroup(["0", "1/2", "-3/2"], [-0.5, -900.0, -2 + 3j, -1e-3], basis)
    cert = op.certificate
    # rebuilt directly, also with the matrix multiplied out in another order
    for matrix in (op.matrix, cert.basis @ np.diag(cert.eigenvalues) @ cert.basis_inv):
        again = operators.SpectralOperator(matrix.copy(), cert, op.power_bound_estimate,
                                           op.unimodular_spectrum, clock=op.clock)
        assert again.spectral_verdict == (True, None)


def test_certificate_check_scales_with_the_basis_condition():
    # cond_2(S) = 1e8: forming S diag(eigenvalues) S^-1 in another order moves entries
    # by far more than eps, and stays under the bound; a change of 1e-3 does not
    u, w = linalg.haar_unitary(6, seed=41), linalg.haar_unitary(6, seed=42)
    s = (u * np.geomspace(1.0, 1e8, 6)) @ w
    s_inv = np.linalg.inv(s)
    eigs = np.array([1.0, -1.0, 0.5, 0.25j, -0.1, 0.0], dtype=np.complex128)
    cert = operators.Certificate(s, eigs, s_inv, (Fraction(0), Fraction(1, 2)))
    points = synth_operator(["0", "1/2"], [], OrthonormalBasis(1)).unimodular_spectrum
    matrix = s @ (eigs[:, np.newaxis] * s_inv)
    assert np.linalg.norm(matrix - (s * eigs) @ s_inv) > 1e3 * np.finfo(float).eps
    operators.SpectralOperator(matrix, cert, 1e8, points)
    matrix = matrix.copy()
    matrix[0, 0] += 1e-3 * np.linalg.norm(matrix)
    with pytest.raises(ValidationError, match="does not reproduce the matrix"):
        operators.SpectralOperator(matrix, cert, 1e8, points)


# ---------------------------------------------------- power-bound sweeping


def test_certify_power_bounded_unitary():
    u = linalg.haar_unitary(5, seed=14)
    rep = certify_power_bounded(u, n_max=16)
    assert rep.passed
    assert rep.measured_max == pytest.approx(1.0, abs=1e-9)
    assert rep.bound >= rep.measured_max
    assert rep.reason is None
    assert certify_power_bounded(u, n_max=np.int64(1)).measured_max == pytest.approx(1.0, abs=1e-9)
    # an empty sweep (n_max = 0 or below) would report measured_max = 0.0
    for bad in (0, -3, 2.5, True, None):
        with pytest.raises(ValidationError):
            certify_power_bounded(u, n_max=bad)


def test_certify_power_bounded_defective_jordan_fails_with_reason():
    rep = certify_power_bounded(np.array([[1.0, 1.0], [0.0, 1.0]]), n_max=8)
    assert not rep.passed
    assert "defective" in rep.reason
    assert rep.measured_max > 8.0  # the sweep shows the actual growth
    assert rep.bound == float("inf")


def test_certify_power_bounded_expanding_fails():
    rep = certify_power_bounded(np.diag([1.5, 0.1]), n_max=4)
    assert not rep.passed
    assert "radius" in rep.reason


def test_certify_power_bounded_nonnormal_bound_covers_sweep():
    op = synth_operator(["1/3", "3/7"], [0.9], RandomSimilarity(seed=33))
    rep = certify_power_bounded(op, n_max=64)
    assert rep.passed
    assert rep.bound >= rep.measured_max >= 1.0


# -------------------------------------------------------- Schur projection


def test_schur_projection_diagonal_oracle():
    a = np.diag([1.0, 0.3, -0.2])
    p = schur_spectral_projection(a, lambda z: abs(z - 1.0) < 1e-8)
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_schur_projection_select_all_or_none():
    a = np.diag([0.5, 0.25])
    assert np.allclose(
        schur_spectral_projection(a, lambda z: True), np.eye(2), atol=1e-14
    )
    assert np.allclose(
        schur_spectral_projection(a, lambda z: False), np.zeros((2, 2)), atol=1e-14
    )


def test_schur_projection_oblique_for_nonnormal():
    # X = span(e1+e2) for eigenvalue 1, complementary eigenvector e2
    a = np.array([[1.0, -0.5], [0.0, 0.5]])
    p = schur_spectral_projection(a, lambda z: abs(z - 1.0) < 1e-8)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(a @ p, p @ a, atol=1e-12)
    v = np.array([1.0, 1.0])  # eigenvector for 1: (1, -1)? check via residual
    w = p @ v
    assert np.allclose(a @ w, w, atol=1e-12)


def test_schur_projection_refuses_unresolvable_cluster():
    a = np.diag([1.0, 1.0 + 5e-11])
    with pytest.raises(SpectralFailureError):
        schur_spectral_projection(a, lambda z: abs(z - 1.0) < 1e-12)


def test_schur_projection_agrees_with_certificate_route():
    op = synth_operator(["1/3", "0"], [0.4, -0.25], RandomSimilarity(seed=8))
    lam = operators.angle_value(Fraction(1, 3))
    p_schur = schur_spectral_projection(op.matrix, lambda z: abs(z - lam) < 1e-6)
    p_cert = mean_ergodic_projection(op, "1/3")
    assert np.allclose(p_schur, p_cert, atol=1e-8)


# ---------------------------------------------------------------- splitting


def _split_algebra_ok(t, split, dim):
    tol = 1e-10 * dim
    eye = np.eye(dim)
    scale = max(1.0, np.linalg.norm(t))
    assert np.allclose(split.p_r + split.p_s, eye, atol=tol)
    assert np.allclose(split.p_r @ split.p_r, split.p_r, atol=tol)
    assert np.allclose(split.p_s @ split.p_s, split.p_s, atol=tol)
    assert np.allclose(split.p_r @ split.p_s, np.zeros((dim, dim)), atol=tol)
    assert np.allclose(t @ split.p_r, split.p_r @ t, atol=tol * scale)


def test_jdl_split_algebra_certificate_route():
    op = synth_operator(["0", "1/4"], [0.6, 0.1j], RandomSimilarity(seed=5))
    split = jdl_split(op)
    _split_algebra_ok(op.matrix, split, 4)


def test_jdl_split_algebra_schur_route():
    u = linalg.haar_unitary(3, seed=6)
    t = u @ np.diag([1.0, 0.5, 0.25]) @ u.conj().T
    split = jdl_split(from_matrix(t))
    _split_algebra_ok(t, split, 3)


def test_jdl_split_routes_agree():
    op = synth_operator(["1/6", "1/2"], [0.7, -0.2], RandomSimilarity(seed=12))
    via_cert = jdl_split(op)
    via_schur = jdl_split(from_matrix(op.matrix))
    assert np.allclose(via_cert.p_r, via_schur.p_r, atol=1e-8)


def test_jdl_split_stable_part_decays_geometrically():
    op = synth_operator(["0"], [0.5, -0.5j], OrthonormalBasis(seed=7))
    split = jdl_split(op)
    t20 = np.linalg.matrix_power(op.matrix, 20)
    t40 = np.linalg.matrix_power(op.matrix, 40)
    n20 = linalg.spectral_norm(t20 @ split.p_s)
    n40 = linalg.spectral_norm(t40 @ split.p_s)
    assert n20 <= 0.5 ** 20 * 1.01
    assert n40 <= n20 * 0.5 ** 19
    # reversible part keeps its norm
    assert linalg.spectral_norm(t40 @ split.p_r) == pytest.approx(1.0, abs=1e-9)


def test_jdl_split_extremes():
    # all stable: p_r = 0
    split = jdl_split(from_matrix(0.5 * linalg.haar_unitary(3, seed=9)))
    assert np.allclose(split.p_r, np.zeros((3, 3)), atol=1e-12)
    # all unimodular: p_r = I
    split = jdl_split(from_matrix(linalg.haar_unitary(3, seed=10)))
    assert np.allclose(split.p_r, np.eye(3), atol=1e-10)


def test_jdl_split_requires_power_boundedness():
    with pytest.raises(NotPowerBoundedError):
        jdl_split(np.array([[1.0, 1.0], [0.0, 1.0]]))


def _cesaro_mean(op, lam, n):
    """(1/n) sum_{j=1..n} (conj(lam) T)^j: the oracle's mean at alpha = [1] on conj(lam) T."""
    return brute_average(make_system([1], [np.conj(lam) * op.matrix]), n)


def _chained_cluster(center=0.0, jordan=False):
    """U diag(e^{i (k 0.9e-8 + center)}, k = 0..3; stable) U^H: single linkage chains the
    four values into one point of multiplicity 4, two of them beyond CLUSTER_TOL of its
    center.  With jordan the stable part is one Jordan block, so there is no record."""
    u = linalg.haar_unitary(6, 5)
    j = np.diag([np.exp(1j * (k * 0.9e-8 + center)) for k in range(4)] + [0.5, -0.3])
    if jordan:
        j[4, 4], j[4, 5] = -0.3, 1.0
    return from_matrix(u @ j @ u.conj().T)


def test_chained_boundary_cluster_projects_with_its_multiplicity():
    op = _chained_cluster()
    (point,) = op.unimodular_spectrum
    assert point.multiplicity == 4 and op.eigenbasis is not None
    p = mean_ergodic_projection(op, point.value)
    assert np.trace(p).real == pytest.approx(4.0, abs=1e-12)
    assert np.linalg.norm(p @ p - p) <= 1e-12
    cesaro = _cesaro_mean(op, point.value, 1000)
    assert np.linalg.norm(p - cesaro) <= 2e-3
    assert np.linalg.norm(jdl_split(op).p_r - p) <= 1e-12
    centered = _chained_cluster(center=-1.35e-8)  # the point within tol of 1 resonates
    (point,) = centered.unimodular_spectrum
    lim = limit_operator(make_system([1], [centered]))
    assert np.linalg.norm(lim - mean_ergodic_projection(centered, point.value)) <= 1e-12
    assert np.trace(lim).real == pytest.approx(4.0, abs=1e-12)


def test_chained_boundary_cluster_is_found_from_a_member_on_a_float_record():
    # 1 is a member, while the center of the chained point lies 1.35e-8 from it
    op = _chained_cluster()
    assert abs(op.unimodular_spectrum[0].value - 1.0) > 1.3e-8
    p = mean_ergodic_projection(op, 1.0)
    assert np.trace(p).real == pytest.approx(4.0, abs=1e-12)
    cesaro = _cesaro_mean(op, 1.0, 1000)
    assert np.max(np.abs(p - cesaro)) <= 1e-3


def test_chained_boundary_cluster_without_a_record_is_refused():
    # the Schur split selects within CLUSTER_TOL of the center: 2 of the 4 values
    op = _chained_cluster(jordan=True)
    assert op.eigenbasis is None and op.unimodular_spectrum[0].multiplicity == 4
    for run in (lambda: mean_ergodic_projection(op, op.unimodular_spectrum[0].value),
                lambda: jdl_split(op),
                lambda: limit_operator(make_system([1], [_chained_cluster(-1.35e-8, True)]))):
        with pytest.raises(SpectralFailureError, match="multiplicity"):
            run()


# --------------------------------------------------- mean ergodic projection


def test_projection_spectral_basic_properties():
    op = synth_operator(["0", "1/3"], [0.4], RandomSimilarity(seed=15))
    p0 = mean_ergodic_projection(op, "0")
    assert np.allclose(p0 @ p0, p0, atol=1e-10)
    assert np.allclose(op.matrix @ p0, p0, atol=1e-10)  # T fixes ran(P_1)
    lam = operators.angle_value(Fraction(1, 3))
    p13 = mean_ergodic_projection(op, "1/3")
    assert np.allclose(op.matrix @ p13, lam * p13, atol=1e-10)


def test_projection_off_spectrum_is_zero():
    op = synth_operator(["0"], [0.4], OrthonormalBasis(seed=16))
    p = mean_ergodic_projection(op, "1/7")
    assert np.array_equal(p, np.zeros((2, 2)))


def test_projection_complex_target_matches_exact_angle():
    op = synth_operator(["1/3", "0"], [0.2], OrthonormalBasis(seed=17))
    lam = np.exp(2j * np.pi / 3)
    assert np.allclose(
        mean_ergodic_projection(op, lam),
        mean_ergodic_projection(op, "1/3"),
        atol=1e-12,
    )


def test_projection_cesaro_route_converges_at_one_over_n():
    op = synth_operator(["0", "1/3"], [0.5], OrthonormalBasis(seed=18))
    exact = mean_ergodic_projection(op, "0")
    errs = {}
    for n in (128, 512, 2048):
        approx = _cesaro_mean(op, operators.angle_value(Fraction(0)), n)
        errs[n] = np.linalg.norm(approx - exact)
    # |1 - e^{2pi i/3}| = sqrt(3) dominates: err <= 2/(n sqrt(3)) + stable tail
    assert errs[2048] <= 2.0 / (2048 * np.sqrt(3.0)) + 1.0 / 2048
    assert errs[512] <= 4.2 * errs[2048] + 1e-12
    assert errs[128] > errs[2048]


def test_projection_cesaro_route_at_nontrivial_angle():
    op = synth_operator(["1/4", "0"], [0.3], OrthonormalBasis(seed=19))
    exact = mean_ergodic_projection(op, "1/4")
    approx = _cesaro_mean(op, operators.angle_value(Fraction(1, 4)), 4096)
    assert np.linalg.norm(approx - exact) <= 1e-3


def test_projection_rejects_nonunimodular_target_and_bad_mode():
    op = synth_operator(["0"], [], OrthonormalBasis(seed=22))
    with pytest.raises(NotUnimodularError):
        mean_ergodic_projection(op, 0.5 + 0.0j)
    with pytest.raises(TypeError):  # the signature is (op, lam): no mode, Cesaro or other
        mean_ergodic_projection(op, "0", mode="cesaro")


def test_projection_schur_route_without_certificate():
    u = linalg.haar_unitary(3, seed=23)
    t = u @ np.diag([1.0, 1j, 0.5]) @ u.conj().T
    p = mean_ergodic_projection(from_matrix(t), 1j)
    assert np.allclose(t @ p, 1j * p, atol=1e-10)
    assert np.allclose(p @ p, p, atol=1e-10)
    # normal matrix: projection is orthogonal, norm 1
    assert linalg.spectral_norm(p) == pytest.approx(1.0, abs=1e-8)


def test_synth_operator_past_the_dimension_cap_is_refused():
    with pytest.raises(DimensionMismatchError, match="dimension 513 exceeds cap 512"):
        synth_operator([], [0.5] * (linalg.DIM_CAP + 1), OrthonormalBasis(1))


def test_synth_operator_refuses_an_unknown_basis_spec():
    with pytest.raises(ValidationError, match="unknown basis spec"):
        synth_operator(["0"], [0.5], "orthonormal")


def test_similarity_whose_condition_cap_cannot_be_met_is_refused():
    # cond_2(S) >= 1 for every S, so no rescaling meets a cap of 0.5
    with pytest.raises(ValidationError, match="condition cap"):
        synth_operator(["0"], [0.5], RandomSimilarity(3, condition_cap=0.5))


def test_exact_point_sorts_by_its_angle():
    point = operators.SpectralPoint(operators.angle_value(Fraction(1, 3)), 1, Fraction(1, 3))
    assert point.key() == (0, Fraction(1, 3))
