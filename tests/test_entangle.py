"""Tests for the entangled-average evaluator and its stacked twin.

The reference used throughout is `oracle.brute_average`: a literal loop over
the index lattice that re-raises every operator power from scratch.  It
shares no code with the production evaluator (no plan, no power stacks, no
spectral weights), so agreement between the two is a genuine cross-check,
not a tautology.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import entangle, linalg
from entlab.entangle import (
    entangled_average,
    generalized_power_average,
    make_partition,
    make_system,
    multiple_ergodic_average,
    stacked_average,
    stacked_system,
)
from entlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptyAlphaError,
    NotInvertibleError,
    NotPowerBoundedError,
    NotSurjectiveError,
    ValidationError,
)
from entlab.operators import OrthonormalBasis, synth_operator
from entlab.rng import CounterRng
from oracle import brute_average


def _unitary_system(alpha, d, seed, connectors="haar"):
    m = len(alpha)
    ops = [linalg.haar_unitary(d, seed=seed + j) for j in range(m)]
    if connectors == "haar":
        conns = [linalg.haar_unitary(d, seed=seed + 100 + j) for j in range(m - 1)]
    else:
        conns = None
    return make_system(alpha, ops, conns)


# ---------------------------------------------------------------- partition


def test_make_partition_blocks_and_flags():
    p = make_partition([1, 2, 1])
    assert (p.m, p.k) == (3, 2)
    assert p.blocks == {1: (0, 2), 2: (1,)}
    assert not p.bijective
    assert make_partition([2, 1, 3]).bijective


@pytest.mark.parametrize(
    "alpha, err",
    [
        ([], EmptyAlphaError),
        ([1, 3], NotSurjectiveError),  # block 2 skipped
        ([2], NotSurjectiveError),
        ([0, 1], NotSurjectiveError),
        ([1, True], NotSurjectiveError),
        ([1, 1.5], NotSurjectiveError),
    ],
)
def test_make_partition_rejections(alpha, err):
    with pytest.raises(err):
        make_partition(alpha)


def test_make_partition_names_the_skipped_block():
    with pytest.raises(NotSurjectiveError, match=r"skips 1 of blocks 1\.\.3, first \[2\]"):
        make_partition([1, 3])


@pytest.mark.parametrize("top", [2_000_000, 10**18])
def test_make_partition_refuses_a_huge_block_id_at_once(top):
    # surjectivity is read off the distinct ids, never off the range 1..top
    t0 = time.perf_counter()
    with pytest.raises(NotSurjectiveError) as info:
        make_partition([1, top])
    assert time.perf_counter() - t0 < 1.0
    message = str(info.value)
    assert len(message) < 120
    assert f"skips {top - 2} of blocks 1..{top}, first [2, 3, 4]" in message


# -------------------------------------------------------------- make_system


def test_make_system_validates_shapes():
    u = linalg.haar_unitary(3, seed=0)
    v = linalg.haar_unitary(4, seed=0)
    with pytest.raises(DimensionMismatchError):
        make_system([1, 1], [u])  # operator count != m
    with pytest.raises(DimensionMismatchError):
        make_system([1, 1], [u, v])  # mixed dimensions
    with pytest.raises(DimensionMismatchError):
        make_system([1, 1], [u, u], connectors=[])  # need m-1 connectors
    with pytest.raises(DimensionMismatchError):
        make_system([1, 1], [u, u], connectors=[np.eye(4)])


def test_make_system_enforces_power_boundedness():
    with pytest.raises(NotPowerBoundedError):
        make_system([1], [np.array([[1.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(NotPowerBoundedError):
        make_system([1, 1], [np.eye(2), np.diag([1.5, 0.5])])


def test_make_system_defaults_connectors_to_identity():
    u = linalg.haar_unitary(2, seed=1)
    sys_ = make_system([1, 1], [u, u])
    assert len(sys_.connectors) == 1
    assert np.array_equal(sys_.connectors[0], np.eye(2))


# ------------------------------------------------------------ single index


def test_single_operator_mean_matches_geometric_sum():
    lam = 0.7 * np.exp(0.4j)
    t = np.diag([lam, 1.0])
    sys_ = make_system([1], [t])
    for n in (1, 2, 7, 50):
        got = entangled_average(sys_, n)
        partial = lam * (1 - lam ** n) / (n * (1 - lam))
        assert got[0, 0] == pytest.approx(partial, abs=1e-13)
        assert got[1, 1] == pytest.approx(1.0, abs=1e-13)


def test_depth_validation():
    sys_ = make_system([1], [np.eye(2)])
    for bad in (0, -3, 2.5, "8", True):
        with pytest.raises(ValidationError):
            entangled_average(sys_, bad)
    with pytest.raises(ValidationError):
        stacked_average(stacked_system(sys_), True)


def test_state_shape_validation():
    sys_ = make_system([1], [np.eye(3)])
    with pytest.raises(DimensionMismatchError):
        entangled_average(sys_, 4, x=np.ones(2))


# ----------------------------------------------------- strategy equivalence


@pytest.mark.parametrize("alpha", [[1], [1, 1], [1, 2], [1, 2, 1], [2, 1, 2, 2]])
def test_all_strategies_match_brute_reference(alpha):
    sys_ = _unitary_system(alpha, d=3, seed=40 + len(alpha))
    n = 5
    ref = brute_average(sys_, n)
    for strategy in entangle.STRATEGIES:
        got = entangled_average(sys_, n, strategy=strategy)
        assert np.linalg.norm(got - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def test_strategies_agree_with_nonnormal_operators():
    from entlab.operators import RandomSimilarity, synth_operator

    ops = [
        synth_operator(["1/3"], [0.5, -0.2], RandomSimilarity(seed=3)),
        synth_operator(["0"], [0.1j, 0.4], RandomSimilarity(seed=4)),
    ]
    conns = [CounterRng(9).complex_normal((3, 3)) / 3.0]
    sys_ = make_system([1, 1], ops, conns)
    ref = brute_average(sys_, 6)
    for strategy in entangle.STRATEGIES:
        got = entangled_average(sys_, 6, strategy=strategy)
        assert np.linalg.norm(got - ref) <= 1e-10


def test_unknown_strategy_rejected():
    sys_ = make_system([1], [np.eye(2)])
    with pytest.raises(ValidationError):
        entangled_average(sys_, 3, strategy="turbo")


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([[1, 1], [1, 2], [2, 1, 1]]),
    st.integers(min_value=1, max_value=6),
)
def test_strategy_agreement_property(seed, alpha, n):
    sys_ = _unitary_system(alpha, d=2, seed=seed, connectors="haar")
    a = brute_average(sys_, n)
    b = entangled_average(sys_, n, strategy="presum")
    assert np.linalg.norm(a - b) <= 1e-10


# ------------------------------------------------------------- vector mode


def test_vector_mode_matches_operator_mode():
    sys_ = _unitary_system([1, 2, 1], d=4, seed=77)
    x = CounterRng(5).complex_normal((4,))
    x = x / np.linalg.norm(x)
    full = entangled_average(sys_, 6)
    for vec in (brute_average(sys_, 6, x), entangled_average(sys_, 6, x=x, strategy="presum")):
        assert vec.shape == (4,)
        assert np.linalg.norm(vec - full @ x) <= 1e-12


# ------------------------------------------------- bijective factorization


def test_bijective_alpha_factorizes_exactly():
    d, n = 3, 9
    t1 = linalg.haar_unitary(d, seed=50)
    t2 = linalg.haar_unitary(d, seed=51)
    a1 = linalg.haar_unitary(d, seed=52)
    sys_ = make_system([1, 2], [t1, t2], [a1])

    def power_mean(t):
        acc = np.zeros((d, d), dtype=np.complex128)
        p = np.eye(d, dtype=np.complex128)
        for _ in range(n):
            p = t @ p
            acc += p
        return acc / n

    factored = power_mean(t2) @ a1 @ power_mean(t1)
    for got in (brute_average(sys_, n), entangled_average(sys_, n, strategy="presum")):
        assert np.linalg.norm(got - factored) <= 1e-12


# ----------------------------------------------------------------- budgets


def test_budget_refusal_happens_before_work():
    sys_ = _unitary_system([1, 1], d=2, seed=60)
    with pytest.raises(BudgetExceededError, match="budget"):
        entangled_average(sys_, 1000, strategy="presum", budget=100)


def test_budget_none_disables_cost_check():
    sys_ = _unitary_system([1, 1], d=2, seed=61)
    out = entangled_average(sys_, 1500, budget=None)
    assert out.shape == (2, 2)


def test_memory_cap_refusal_mentions_footprint():
    sys_ = _unitary_system([1, 1], d=32, seed=62)
    with pytest.raises(BudgetExceededError, match="GiB"):
        entangled_average(sys_, 10_000_000, strategy="presum", budget=None)


def test_presum_singleton_cost_is_logarithmic():
    from entlab.entangle import _estimate_cost

    assert _estimate_cost("presum", 10_000, make_partition([1, 2])) < 1e5


# ---------------------------------------------------------------- stacking


def test_stacked_matrices_have_block_structure():
    d = 2
    sys_ = _unitary_system([1, 2, 1], d=d, seed=70)
    st_ = stacked_system(sys_)
    m = 3
    t = st_.script_t
    s = st_.script_s
    a = st_.script_a
    eye = np.eye(d)
    # script_t: T_1, T_2 on the first two diagonal blocks, I on the last
    assert np.array_equal(t[0:d, 0:d], sys_.operators[0].matrix)
    assert np.array_equal(t[d : 2 * d, d : 2 * d], sys_.operators[1].matrix)
    assert np.array_equal(t[2 * d :, 2 * d :], eye)
    # script_s: I, I, T_3
    assert np.array_equal(s[0:d, 0:d], eye)
    assert np.array_equal(s[2 * d :, 2 * d :], sys_.operators[2].matrix)
    # script_a: A_1 in block (2,1), A_2 in block (3,2), zero elsewhere
    assert np.array_equal(a[d : 2 * d, 0:d], sys_.connectors[0])
    assert np.array_equal(a[2 * d :, d : 2 * d], sys_.connectors[1])
    assert np.count_nonzero(a[0:d, :]) == 0
    assert np.linalg.norm(a @ a @ a) == 0.0  # nilpotent of order m
    assert t.shape == s.shape == a.shape == (m * d, m * d)


@pytest.mark.parametrize("alpha", [[1, 1], [1, 2], [1, 2, 1]])
def test_stacked_average_reproduces_direct_chain(alpha):
    sys_ = _unitary_system(alpha, d=3, seed=80 + len(alpha))
    direct = entangled_average(sys_, 7)
    via_stack = stacked_average(stacked_system(sys_), 7)
    rel = np.linalg.norm(via_stack - direct) / max(np.linalg.norm(direct), 1e-30)
    assert rel <= 1e-12


def test_stacked_average_vector_mode():
    sys_ = _unitary_system([1, 1], d=3, seed=85)
    x = CounterRng(3).complex_normal((3,))
    x = x / np.linalg.norm(x)
    direct = entangled_average(sys_, 8, x=x)
    via_stack = stacked_average(stacked_system(sys_), 8, x=x)
    assert np.linalg.norm(via_stack - direct) <= 1e-12


def test_stacked_system_dimension_cap():
    d = 260  # 2 * 260 = 520 > 512
    u = linalg.haar_unitary(d, seed=86)
    sys_ = make_system([1, 1], [u, u])
    with pytest.raises(DimensionMismatchError):
        stacked_system(sys_)


# ------------------------------------------------------- derived averages


def test_multiple_ergodic_average_matches_direct_loop():
    d, k, n = 3, 2, 6
    u = linalg.haar_unitary(d, seed=90)
    a1 = linalg.haar_unitary(d, seed=91)
    a2 = linalg.haar_unitary(d, seed=92)
    u_inv = u.conj().T

    total = np.zeros((d, d), dtype=np.complex128)
    for j in range(1, n + 1):
        uj = np.linalg.matrix_power(u, j)
        total += uj @ a1 @ uj @ a2 @ np.linalg.matrix_power(u_inv, k * j)
    ref = total / n

    got = multiple_ergodic_average(u, [a1, a2], n)
    assert np.linalg.norm(got - ref) <= 1e-10


def test_multiple_ergodic_average_single_weight():
    d, n = 2, 12
    u = linalg.haar_unitary(d, seed=93)
    a = linalg.haar_unitary(d, seed=94)
    total = np.zeros((d, d), dtype=np.complex128)
    for j in range(1, n + 1):
        uj = np.linalg.matrix_power(u, j)
        total += uj @ a @ np.linalg.matrix_power(u.conj().T, j)
    assert np.linalg.norm(multiple_ergodic_average(u, [a], n) - total / n) <= 1e-10


@pytest.mark.parametrize("alpha", [[1, 2, 1, 2], [1, 1, 2, 2], [1, 2, 2, 1], [1, 1, 2]])
def test_generalized_power_average_wraps_each_distinct_matrix_once(alpha, monkeypatch):
    calls = []
    eig = linalg.eig
    monkeypatch.setattr(linalg, "eig", lambda *a, **kw: calls.append(1) or eig(*a, **kw))
    d = 2
    u = linalg.haar_unitary(d, seed=96)
    weights = [linalg.haar_unitary(d, seed=97 + i) for i in range(len(alpha))]
    generalized_power_average(u, weights, alpha, 3)
    sizes = {alpha.count(a) for a in set(alpha)}
    assert len(calls) == 1 + len(sizes)  # u, and u^{-c} per distinct block size c


def test_multiple_ergodic_average_needs_weights_and_invertible_u():
    u = linalg.haar_unitary(2, seed=95)
    with pytest.raises(DimensionMismatchError):
        multiple_ergodic_average(u, [], 4)
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotInvertibleError):
        multiple_ergodic_average(singular, [np.eye(2)], 4)


def test_generalized_power_average_matches_direct_lattice_loop():
    d, n = 3, 5
    alpha = [1, 2, 1]  # m = 3 visible slots on k = 2 blocks
    u = linalg.haar_unitary(d, seed=96)
    weights = [linalg.haar_unitary(d, seed=97 + i) for i in range(3)]
    u_inv = u.conj().T

    total = np.zeros((d, d), dtype=np.complex128)
    for combo in itertools.product(range(1, n + 1), repeat=2):
        exps = [combo[a - 1] for a in alpha]
        prod = np.eye(d, dtype=np.complex128)
        for e, w in zip(exps, weights):
            prod = prod @ np.linalg.matrix_power(u, e) @ w
        prod = prod @ np.linalg.matrix_power(u_inv, sum(exps))
        total += prod
    ref = total / float(n) ** 2

    got = generalized_power_average(u, weights, alpha, n)
    assert np.linalg.norm(got - ref) <= 1e-10


def test_generalized_power_average_weight_count_checked():
    u = linalg.haar_unitary(2, seed=99)
    with pytest.raises(DimensionMismatchError):
        generalized_power_average(u, [np.eye(2)], [1, 2, 1], 4)


# ------------------------------------------------------ spectral Cesaro weight


def test_resonance_decisions_held_by_an_operator_are_cleared_at_64():
    lead = synth_operator(["0", "1/2"], [0.5], OrthonormalBasis(40))
    others = [synth_operator(["0", "1/2"], [0.3j], OrthonormalBasis(41 + j)) for j in range(70)]
    sizes = []
    for op in others:  # one block decision per (lead, op) pair
        entangled_average(make_system([1, 1], [lead, op]), 50)
        sizes.append(len(lead._decided))
    assert max(sizes) == 64 and sizes[-1] < 64  # cleared once, then filled again
    sys_ = make_system([1, 1], [lead, others[-1]])
    want = entangled_average(sys_, 50, strategy="presum")
    assert np.linalg.norm(entangled_average(sys_, 50) - want) <= 1e-12 * np.linalg.norm(want)


_ANGLE = st.builds(Fraction, st.integers(-(10**7), 10**7), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(angles=st.lists(_ANGLE, max_size=4), n=st.integers(1, 2**80), t=st.floats(1e-3, 1e4),
       q=st.integers(2, 10**4), step=st.booleans())
def test_exact_phases_are_the_fraction_phases_bit_for_bit(angles, n, t, q, step):
    # the weight's only exact inputs: integer pairs and Fractions are correctly
    # rounded divisions of the same rationals; h = t / Q is the midpoint rule's step
    h = Fraction(t) / q if step else None
    ah = [a if h is None else a * h for a in angles]
    phi, n_phi = entangle._exact_phases(angles, n, h)
    assert [x.hex() for x in phi] == [float(x % 1 - (x % 1 > Fraction(1, 2))).hex() for x in ah]
    assert [x.hex() for x in n_phi] == [float(n * x % 1).hex() for x in ah]
