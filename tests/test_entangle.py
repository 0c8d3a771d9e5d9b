"""Tests for the entangled-average evaluator and its stacked twin.

The reference used throughout is `oracle.brute_average`: a literal loop over
the index lattice that re-raises every operator power from scratch.  It
shares no code with the production evaluator (no plan, no power stacks, no
spectral weights), so agreement between the two is a genuine cross-check,
not a tautology.
"""

import dataclasses
import gc
import itertools
import math
import re
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import entangle, linalg, spectral_limit
from entlab.continuous import (
    QuadratureSpec,
    continuous_entangled_average,
    continuous_limit_operator,
    make_continuous_system,
    semigroup_from_generator,
    synth_semigroup,
)
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
    NonConvergenceError,
    NotInvertibleError,
    NotPowerBoundedError,
    NotSurjectiveError,
    ValidationError,
)
from entlab.operators import OrthonormalBasis, RandomSimilarity, from_matrix, synth_operator
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


@pytest.mark.parametrize("e", [1023, 1024, 1100])
def test_presum_cost_past_the_float_range_is_refused_by_name(e):
    # an int cost n (2r - 1) past 2^1024 raised a bare OverflowError when the
    # refusal formatted it; the cost and the stack bytes now read inf
    sys_ = make_system([1, 1], [synth_operator(["0", "1/3"], [0.4], OrthonormalBasis(5)),
                                synth_operator(["0", "2/3"], [0.3j], OrthonormalBasis(6))])
    for budget, match in [(1e8, "estimated cost inf exceeds"), (None, "need inf GiB")]:
        with pytest.raises(BudgetExceededError, match=match):
            entangled_average(sys_, 2**e, strategy="presum", budget=budget)


@pytest.mark.parametrize("e", [62, 63, 100, 1100])
def test_presum_mean_that_overflows_is_refused_naming_n(e):
    # a singleton-only mean built (n,) weights it never read (a bare ValueError
    # from n = 2^60), and its power sums overflow to NaN on a unitary by 2^62
    sys_ = make_system([1], [linalg.haar_unitary(2, seed=0)])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergenceError, match=f"not finite at n={2**e}$"):
            entangled_average(sys_, 2**e, strategy="presum")


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


def test_stacked_record_exponents_are_their_members_exponents():
    # a block-diagonal record takes its exponents from its own eigenvalues and
    # angles; each eigen-index reads the value it has in its member (identity: 0)
    ops = [synth_operator(["0", "1/3"], [0.4], OrthonormalBasis(87)),
           synth_operator(["3/4"], [0.3j, -0.5], RandomSimilarity(88))]
    st_ = stacked_system(make_system([1, 2], ops))
    for rec, members in zip(st_.records, [(ops[0], None), (None, ops[1])]):
        own = [(np.zeros(3, complex), 3) if op is None else
               (op.exponents, len(op.eigenbasis.angles)) for op in members]
        want = np.concatenate([e[:r] for e, r in own] + [e[r:] for e, r in own])
        assert np.array_equal(rec.exponents, want)
        assert not rec.exponents.flags.writeable


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


def test_block_table_is_freed_with_its_system_and_not_shared():
    lead = synth_operator(["0", "1/2"], [0.5], OrthonormalBasis(40))
    others = [synth_operator(["0", "1/2"], [0.3j], OrthonormalBasis(41 + j)) for j in range(2)]
    systems = [make_system([1, 1], [lead, op]) for op in others]
    for sys_ in systems:
        want = entangled_average(sys_, 50, strategy="presum")
        assert np.linalg.norm(entangled_average(sys_, 50) - want) <= 1e-12 * np.linalg.norm(want)
    assert systems[0].blocks is not systems[1].blocks  # one table per system, not per operator
    fields = {f.name for f in dataclasses.fields(lead)}
    assert set(vars(lead)) - fields <= {"_owners"}  # no block data on an operator
    (block,) = systems[0].blocks.values()
    refs = [weakref.ref(systems[0]), weakref.ref(block)]
    del block
    enabled = gc.isenabled()
    gc.disable()
    try:
        del systems[0]  # reference counting alone frees the system and its table
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def _counting_block_solutions(monkeypatch) -> list:
    """Count _block_solutions calls, as entangle and spectral_limit bind it."""
    calls, original = [], entangle._block_solutions

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (entangle, spectral_limit):
        monkeypatch.setattr(module, "_block_solutions", counting)
    return calls


@pytest.mark.parametrize("raw", [False, True], ids=["exact", "float"])
def test_each_block_is_decided_once_per_system(raw, monkeypatch):
    ops = [synth_operator(["0", angle], [0.5], OrthonormalBasis(45 + j))
           for j, angle in enumerate(["1/3", "1/4", "2/3", "3/4"])]
    if raw:
        ops = [from_matrix(op.matrix) for op in ops]
    conns = [linalg.haar_unitary(3, seed=49 + j) for j in range(3)]
    sys_ = make_system([1, 2, 1, 2], ops, conns)
    calls = _counting_block_solutions(monkeypatch)
    for n in (16, 1000, 2**20, 2**40):
        entangled_average(sys_, n)
    entangled_average(sys_, 100, x=np.arange(3.0))
    limit = spectral_limit.limit_operator(sys_)
    assert len(calls) == sys_.partition.k and np.linalg.norm(limit) > 0.1

    sgs = [synth_semigroup(["0", freq], [-0.5], OrthonormalBasis(50 + j))
           for j, freq in enumerate(["1/2", "1/3", "-1/2"])]
    if raw:
        sgs = [semigroup_from_generator(sg.generator) for sg in sgs]
    cs = make_continuous_system([1, 2, 1], sgs, conns[:2])
    calls.clear()
    for q in (16, 40):
        continuous_entangled_average(cs, 8.0, QuadratureSpec("midpoint", q))
    continuous_entangled_average(cs, 8.0, QuadratureSpec("gauss-legendre", 30))
    limit = continuous_limit_operator(cs)
    assert len(calls) == cs.partition.k and np.linalg.norm(limit) > 0.1


_FREQ = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 10**19 + 3]))


@settings(max_examples=150, deadline=None)
@given(freqs=st.lists(st.lists(_FREQ, min_size=1, max_size=3), min_size=1, max_size=3),
       h=st.one_of(st.builds(Fraction, st.integers(1, 24), st.sampled_from([1, 2, 3, 5, 8])),
                   st.builds(lambda t, q: Fraction(t) / q, st.floats(1e-3, 1e4),
                             st.integers(2, 10**6))))
def test_aliased_cells_from_the_integer_sums_are_the_per_step_decision(freqs, h):
    # the table reads (sum phi) h in Z off its sums; the decision it replaces solved the block
    # on the angles phi h mod 1 at every step
    sgs = [synth_semigroup(f, [-0.5], OrthonormalBasis(60 + j)) for j, f in enumerate(freqs)]
    block = entangle._Block(sgs, True)
    points = [[(None, a * h % 1) for a in sg.eigenbasis.angles] for sg in sgs]
    want, _ = entangle._block_solutions(points, additive=False, tol=entangle.RESONANCE_TOL,
                                        mitm_threshold=math.inf)
    got = np.nonzero(entangle._aliased(block.sums, h))
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


_ANGLE = st.builds(Fraction, st.integers(-(10**7), 10**7), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(angles=st.lists(_ANGLE, max_size=4), t=st.floats(1e-3, 1e4),
       q=st.integers(2, 10**4), step=st.booleans())
def test_exact_phases_are_the_fraction_phases_bit_for_bit(angles, t, q, step):
    # the weight's only exact inputs: integer pairs and Fractions are correctly
    # rounded divisions of the same rationals; h = t / Q is the midpoint rule's step
    h = Fraction(t) / q if step else None
    ah = [a if h is None else a * h for a in angles]
    phi = entangle._exact_phases(angles, h)
    assert [x.hex() for x in phi] == [float(x % 1 - (x % 1 > Fraction(1, 2))).hex() for x in ah]


_BLOWUPS = {  # presum means whose power sums drift past any power-bounded value
    "haar": (lambda: make_system([1], [linalg.haar_unitary(2, seed=0)]), (58, 60)),
    "synthesized": (lambda: make_system([1], [synth_operator(["0", "1/2"], [],
                                                              OrthonormalBasis(6))]), (56, 58)),
}


@pytest.mark.parametrize("case, e", [(case, e) for case, (_, es) in _BLOWUPS.items() for e in es])
def test_presum_mean_above_its_power_bound_is_refused_by_name(case, e):
    # the haar mean read 4.7e9 at n = 2^58 and 3.1e90 at 2^60, the synthesized one 16.6 at
    # 2^56 and 1.9e6 at 2^58, against sqrt(2) prod K_j = 1.41; spectral reads them right
    sys_ = _BLOWUPS[case][0]()
    with pytest.raises(NonConvergenceError, match=r"norm .* exceeds 1\.414e\+00, the bound"):
        entangled_average(sys_, 2**e, strategy="presum")
    assert np.linalg.norm(entangled_average(sys_, 2**e)) <= 1.0 + 1e-12


def test_presum_drift_inside_the_power_bound_is_not_refused():
    # README's documented drift: 0.75 against the true 1.0 at n = 2^50, inside sqrt(3) K
    sys_ = make_system([1], [synth_operator(["0", "1/3"], [0.4], OrthonormalBasis(5))])
    got = np.linalg.norm(entangled_average(sys_, 2**50, strategy="presum"))
    assert abs(got - 1.0) > 0.01 and got <= math.sqrt(3)


def test_stacked_presum_mean_without_records_is_refused_above_its_power_bound():
    # raw operators, so no stacked records: the presum mean read 8.4e18 at n = 2^58 with no
    # error while the direct mean was refused; the stacked space keeps its members' bounds
    u = linalg.haar_unitary(2, seed=0)
    sys_ = make_system([1, 2], [u, u])
    st_ = stacked_system(sys_)
    assert st_.records == ()
    assert st_.power_bounds == tuple(max(1.0, op.power_bound_estimate) for op in sys_.operators)
    bound = 2 * math.prod(st_.power_bounds) * np.linalg.norm(st_.script_a)  # sqrt(m d) = 2
    with pytest.raises(NonConvergenceError, match=rf"norm .* exceeds {re.escape(f'{bound:.3e}')}, "):
        stacked_average(st_, 2**58, strategy="presum", budget=None)
    with pytest.raises(NonConvergenceError, match=r"exceeds .*, the bound"):
        entangled_average(sys_, 2**58, strategy="presum", budget=None)
    assert np.linalg.norm(stacked_average(st_, 2**56, strategy="presum", budget=None)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stacked", [False, True], ids=["direct", "stacked"])
def test_presum_mean_whose_squares_overflow_is_refused_by_name(stacked):
    # at n = 2^60 the finite entries reach ~1e180, whose squares overflow: the norm's
    # dot product raised "overflow encountered in dot" instead of the refusal
    u = linalg.haar_unitary(2, seed=0)
    sys_ = make_system([1, 2], [u, u])
    mean, of = (stacked_average, stacked_system(sys_)) if stacked else (entangled_average, sys_)
    with pytest.raises(NonConvergenceError, match=r"norm \d\.\d{3}e\+1\d\d at n=\d+ exceeds "):
        mean(of, 2**60, strategy="presum", budget=None)


def test_stacked_power_bounds_are_those_of_its_records():
    ops = [synth_operator(["0", "1/3"], [0.4], RandomSimilarity(87)),
           synth_operator(["3/4"], [0.3j, -0.5], RandomSimilarity(88)),
           synth_operator(["1/2"], [0.2, -0.1], RandomSimilarity(89))]
    st_ = stacked_system(make_system([1, 2, 1], ops))
    assert st_.power_bounds == tuple(rec.power_bound_estimate for rec in st_.records)
    assert st_.power_bounds == (max(ops[0].power_bound_estimate, ops[1].power_bound_estimate),
                                ops[2].power_bound_estimate)


@pytest.mark.parametrize("e", [40, 56, 60, 64, 70, 1100])
def test_float_record_mean_stays_small_at_large_n(e):
    # raising a float record's boundary eigenvalues, of modulus 1 + O(eps), to
    # the n-th power gave 2e-8 at n = 2^56, 2e134 at 2^60 and NaN from 2^64:
    # with Re eps clamped to <= 0 the non-resonant mean decays like 1/n
    sys_ = make_system([1, 1], [linalg.haar_unitary(2, seed=0), linalg.haar_unitary(2, seed=1)])
    assert all(op.eigenbasis is not None and not op.eigenbasis.exact for op in sys_.operators)
    out = entangled_average(sys_, 2**e)
    assert np.all(np.isfinite(out)) and np.linalg.norm(out) <= 1e-11


def _fsum_mean(z: complex, n: int, start: int = 1) -> complex:
    """(1/n) sum_{k=start..start+n-1} z^k, each part summed with math.fsum."""
    terms = [z**k / n for k in range(start, start + n)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _weight_block(kind):
    """Two operators whose block grid has resonant cells (angles 0 + 0, 1/3 + 2/3), a
    non-resonant cell 1e-12 from z = 1 (angle 0 times 1 - 1e-12) and stable cells."""
    second = synth_operator(["0", "2/3"], [1 - 1e-12, 0.3j], OrthonormalBasis(71))
    if kind == "float":
        s = np.eye(3) + 0.3 * linalg.haar_unitary(3, seed=72)
        first = from_matrix(s @ np.diag([1.0, np.exp(2j * np.pi / 3), 0.5]) @ np.linalg.inv(s))
    else:
        basis = OrthonormalBasis(70) if kind == "exact" else RandomSimilarity(70)
        first = synth_operator(["0", "1/3"], [0.5], basis)
    return [first, second]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("kind", ["exact", "similarity", "float"])
def test_cesaro_weight_matches_the_compensated_power_sum(kind, n):
    members = _weight_block(kind)
    assert members[0].eigenbasis.exact == (kind != "float")
    lam = [member.eigenbasis.eigenvalues for member in members]
    z = np.multiply.outer(*lam)
    weight = entangle._cesaro_weight(entangle._Block(members, False), n)
    near = np.abs(z - 1) < 1e-11
    resonant = weight == 1.0
    assert near.sum() == 3 and resonant.sum() == 2  # 1e-12 off 1, and two exact hits
    assert np.count_nonzero(near & ~resonant) == 1 and np.any(np.abs(z) < 0.5)  # stable cells
    for idx in np.ndindex(z.shape):
        want = 1.0 if resonant[idx] else _fsum_mean(complex(z[idx]), n)
        assert abs(weight[idx] - want) <= 1e-13, (idx, weight[idx], want)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_cesaro_weight_of_an_aliased_midpoint_step_on_a_raw_generator(n):
    # mu h = 2 pi i: e^{mu h} aliases to 1 (float, not exact, so no snap), and the
    # weight must read n L from the reduced L, not from mu h n
    from entlab.continuous import semigroup_from_generator

    s = np.eye(2) + 0.3 * linalg.haar_unitary(2, seed=73)
    sg = semigroup_from_generator(s @ np.diag([2j * np.pi, -0.5]) @ np.linalg.inv(s))
    assert sg.eigenbasis is not None and not sg.eigenbasis.exact
    weight = entangle._cesaro_weight(entangle._Block([sg, sg], True), n, Fraction(1))
    mu = sg.eigenbasis.eigenvalues
    for idx in np.ndindex(weight.shape):
        want = _fsum_mean(complex(np.exp(mu[idx[0]] + mu[idx[1]])), n, start=0)
        assert abs(weight[idx] - want) <= 1e-12, (idx, weight[idx], want)
    assert abs(weight[0, 0] - 1) <= 1e-12
