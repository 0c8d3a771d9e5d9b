"""Differential tests for the contraction planner behind strategy="presum"
and the closed form behind strategy="spectral".

The planner reorders the finite lattice sum, so it must agree with the
test oracle `oracle.brute_average` (every lattice tuple, powers recomputed
by `matrix_power`) to roundoff at every depth, on nested, crossing and
bijective index maps alike; so must the closed form, which sums the same lattice in
the certificates' eigenbases.  The closed form is also checked where its
weight is hard to evaluate: at N = 2^40 against the limit operator, and at
an eigenvalue 1e-12 from 1.  The stacked form, the doubled power stacks and
the doubled power sums are checked against their direct counterparts, and
the continuous grid evaluator and both routes of the midpoint rule, which
runs as discrete time, against the full weighted lattice over the nodes.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import continuous, entangle, linalg, operators
from entlab.cli import main
from entlab.continuous import (
    QuadratureSpec,
    continuous_entangled_average,
    make_continuous_system,
    semigroup_from_generator,
    synth_semigroup,
)
from entlab.entangle import (
    _estimate_cost,
    _power_stack,
    _power_sum,
    entangled_average,
    lattice_chain_mean,
    make_partition,
    make_system,
    plan_chain,
    stacked_average,
    stacked_system,
)
from entlab.errors import BudgetExceededError, ValidationError
from entlab.operators import OrthonormalBasis, RandomSimilarity, from_matrix, synth_operator
from entlab.rng import CounterRng
from entlab.spectral_limit import limit_operator
from oracle import brute_average

NESTED = [[1, 2, 2, 1], [1, 2, 3, 3, 2, 1], [2, 1, 2, 2]]
# a singleton block at either end leaves a fixed factor right or left of the walk
CROSSING = [[1, 2, 1, 2], [1, 2, 1, 3, 3, 2], [3, 1, 2, 1, 2], [1, 2, 1, 2, 3]]
BIJECTIVE = [[2, 3, 1]]


def _random_system(alpha, d, seed, similarity, raw=False):
    """Operators with exact angles (denominators <= 6) and stable radius < 0.9;
    raw wraps each matrix by from_matrix, so that it carries a float record."""
    rng = CounterRng(seed)
    ops = []
    for j in range(len(alpha)):
        n_unit = 1 + int(rng.integers(1, d)[0])
        q = rng.integers(n_unit, 6) + 1
        angles = [f"{int(p)}/{int(qq)}" for p, qq in zip(rng.integers(n_unit, 6), q)]
        radius = 0.9 * rng.uniform(d - n_unit)
        phase = np.exp(2j * np.pi * rng.uniform(d - n_unit))
        basis = (RandomSimilarity(seed + 31 * j, 5.0) if similarity
                 else OrthonormalBasis(seed + 31 * j))
        op = synth_operator(angles, list(radius * phase), basis)
        ops.append(from_matrix(op.matrix) if raw else op)
    conns = [rng.complex_normal((d, d)) / np.sqrt(d) for _ in range(len(alpha) - 1)]
    return make_system(alpha, ops, conns)


def _rel(a, b):
    """Error relative to max(1, |b|): a mean can cancel to zero (T = -I, n = 2)."""
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1.0)


# ---------------------------------------------------------------- the plan


@pytest.mark.parametrize(
    "alpha, spans, crossing, remaining",
    [
        ([1, 2, 2, 1], ((1, 2), (0, 3)), (), 0),
        ([2, 1, 2, 2], ((1,), (0, 2, 3)), (), 0),
        ([2, 3, 1], ((2,), (0,), (1,)), (), 0),
        ([1, 2, 1, 2], (), (1, 2), 4),
        ([1, 2, 1, 3, 3, 2], ((3, 4),), (1, 2), 4),
        ([1, 2, 3, 1, 2], ((2,),), (1, 2), 4),
    ],
)
def test_plan_collapses_nested_blocks_and_keeps_crossing_ones(alpha, spans, crossing, remaining):
    plan = plan_chain(make_partition(alpha))
    assert plan.spans == spans
    assert plan.crossing == crossing
    assert plan.remaining == remaining


# ----------------------------------------------------- planner vs oracle


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(NESTED + CROSSING + BIJECTIVE),
    d=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=1, max_value=6),
    similarity=st.booleans(),
    vector=st.booleans(),
    raw=st.booleans(),
)
def test_planner_matches_naive(seed, alpha, d, n, similarity, vector, raw):
    sys_ = _random_system(alpha, d, seed, similarity, raw)
    x = None
    if vector:
        x = CounterRng(seed + 1).complex_normal((d,))
        x = x / np.linalg.norm(x)
    ref = brute_average(sys_, n, x)
    for strategy in ("presum", "spectral"):
        got = entangled_average(sys_, n, strategy=strategy, x=x)
        assert got.shape == ref.shape
        assert _rel(got, ref) <= 1e-10, strategy


@pytest.mark.parametrize("vector", [False, True], ids=["operator", "state"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("alpha", CROSSING)
def test_walk_with_fixed_factors_matches_naive(alpha, n, vector):
    # every crossing shape in both modes: a fixed factor right of the walk
    # enters the first stack for a state and multiplies the mean otherwise
    d = 3
    sys_ = _random_system(alpha, d, 17, True)
    x = CounterRng(18).complex_normal((d,)) if vector else None
    ref = brute_average(sys_, n, x)
    got = entangled_average(sys_, n, strategy="presum", x=x)
    assert got.shape == ref.shape
    assert _rel(got, ref) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(NESTED + CROSSING + BIJECTIVE),
    n=st.integers(min_value=1, max_value=6),
    similarity=st.booleans(),
    vector=st.booleans(),
)
def test_stacked_planner_matches_direct(seed, alpha, n, similarity, vector):
    d = 3
    sys_ = _random_system(alpha, d, seed, similarity)
    x = None
    if vector:
        x = CounterRng(seed + 2).complex_normal((d,))
    direct = entangled_average(sys_, n, x=x)
    via = stacked_average(stacked_system(sys_), n, x=x)
    assert _rel(via, direct) <= 1e-12


# ------------------------------------------------- the closed-form weight


# the five pinned systems of acceptance gate 3: alpha, then per operator
# (angles, stable eigenvalues, basis), then connector seeds
PINNED = [
    ([1], [(["0/1"], [0.5, -0.3 + 0.2j], OrthonormalBasis(101))], []),
    ([1, 1], [(["1/3"], [0.6j, -0.4, 0.2 - 0.3j], OrthonormalBasis(102)),
              (["2/3", "0/1"], [0.5, -0.5j], OrthonormalBasis(103))], [201]),
    ([1, 2], [(["1/2", "0/1"], [0.7, -0.2 + 0.4j, 0.3j], OrthonormalBasis(104)),
              (["1/4", "0/1"], [0.8, -0.6, 0.1 + 0.1j], OrthonormalBasis(105))], [202]),
    ([1, 2, 1], [(["1/6"], [0.5, -0.3, 0.4j], OrthonormalBasis(106)),
                 (["1/2", "1/3"], [0.6, -0.5j], OrthonormalBasis(107)),
                 (["5/6", "0/1"], [0.7j, -0.4], OrthonormalBasis(108))], [203, 204]),
    ([1, 2, 2, 1], [(["1/4"], [0.5, -0.2j, 0.3], OrthonormalBasis(109)),
                    (["1/3", "0/1"], [0.6j, -0.3], RandomSimilarity(110, 5.0)),
                    (["2/3"], [0.4, 0.2 - 0.2j, -0.5], OrthonormalBasis(111)),
                    (["3/4", "1/2"], [0.7, -0.1 + 0.3j], OrthonormalBasis(112))],
     [205, 206, 207]),
]


@pytest.mark.parametrize("alpha, specs, conn_seeds", PINNED, ids=[f"sys{i}" for i in range(1, 6)])
def test_spectral_average_at_depth_2_pow_40_is_the_limit(alpha, specs, conn_seeds):
    # resonant eigenvalue products are 1 + O(eps) in floats; read as a float
    # product, N log z turns that into a phase of order 1e-4 at this depth
    ops = [synth_operator(*spec) for spec in specs]
    system = make_system(alpha, ops, [linalg.haar_unitary(ops[0].dim, s) for s in conn_seeds])
    avg = entangled_average(system, 2**40)
    lim = limit_operator(system)
    scale = float(np.linalg.norm(lim))
    if scale == 0.0:
        assert float(np.linalg.norm(avg)) <= 1e-9
    else:
        assert float(np.linalg.norm(avg - lim)) <= 1e-9 * scale


@pytest.mark.parametrize("alpha", [[1], [1, 1], [1, 2, 2, 1]])
def test_spectral_weight_near_one_matches_presum(alpha):
    # g_N(z) for z = 1 - 1e-12: 1 - z^N and N (1 - z) both cancel, expm1 does not
    ops = [synth_operator(["1/2"], [1 - 1e-12, 0.3j], OrthonormalBasis(60 + j))
           for j in range(len(alpha))]
    conns = [linalg.haar_unitary(3, seed=70 + j) for j in range(len(alpha) - 1)]
    sys_ = make_system(alpha, ops, conns)
    got = entangled_average(sys_, 2048, strategy="spectral")
    ref = entangled_average(sys_, 2048, strategy="presum")
    assert _rel(got, ref) <= 1e-10


# ------------------------------------------------------ doubled products


def _sequential_powers(t, n):
    out, p = [], np.eye(t.shape[0], dtype=np.complex128)
    for _ in range(n):
        p = t @ p
        out.append(p)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("similarity", [False, True])
def test_doubled_stack_and_sum_match_sequential_products(n, similarity):
    basis = RandomSimilarity(5, 5.0) if similarity else OrthonormalBasis(5)
    t = synth_operator(["1/3", "1/7"], [0.95j, -0.5], basis).matrix
    seq = _sequential_powers(t, n)
    stack = _power_stack(t, n)
    assert stack.shape == seq.shape
    scale = max(1.0, float(np.abs(seq).max()))
    assert float(np.abs(stack - seq).max()) <= 1e-12 * scale
    assert float(np.abs(_power_sum(t, n) - seq.sum(axis=0)).max()) <= 1e-13 * n * scale


def _stack_reading_powers_back(t, n):
    """The powers builder before orbits: T^k read back as out[k - 1]."""
    out = np.empty((n,) + t.shape, dtype=np.complex128)
    out[0] = t
    k = 1
    while k < n:
        step = min(k, n - k)
        np.matmul(out[k - 1], out[:step], out=out[k : k + step])
        k += step
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("similarity", [False, True])
def test_power_stack_without_start_is_bitwise_the_powers_builder(n, similarity):
    basis = RandomSimilarity(5, 5.0) if similarity else OrthonormalBasis(5)
    t = synth_operator(["1/3", "1/7"], [0.95j, -0.5], basis).matrix
    assert np.array_equal(_power_stack(t, n), _stack_reading_powers_back(t, n))


# ------------------------------------------------------------ continuous


@pytest.mark.parametrize("alpha", [[1, 2, 2, 1], [1, 2, 1, 2], [1, 2, 1]])
@pytest.mark.parametrize("scheme", ["midpoint", "gauss-legendre"])
def test_grid_planner_matches_full_weighted_lattice(alpha, scheme):
    d, q, t = 2, 5, 1.5
    sgs = [
        synth_semigroup([f"{j}/2"], [-0.4 - 0.1 * j], OrthonormalBasis(40 + j))
        for j in range(len(alpha))
    ]
    conns = [linalg.haar_unitary(d, 50 + j) for j in range(len(alpha) - 1)]
    sys_ = make_continuous_system(alpha, sgs, conns)
    quad = QuadratureSpec(scheme, q)
    got = continuous_entangled_average(sys_, t, quad, richardson=False).value
    s_nodes, w_nodes = quad.nodes(t)
    factors = [("stack", a, sg.value(s_nodes)) for a, sg in zip(alpha, sgs)]
    ref = lattice_chain_mean(factors, conns, q, weights=w_nodes / t)
    assert _rel(got, ref) <= 1e-12


def _random_generators(alpha, d, seed, similarity, raw=False):
    """Generators with exact frequencies (denominators <= 6, some beyond 1 in
    size) and stable eigenvalues in Re < -0.05, with Gaussian connectors; raw
    wraps each matrix by semigroup_from_generator, so that it carries a float
    record."""
    rng = CounterRng(seed)
    sgs = []
    for j in range(len(alpha)):
        n_axis = 1 + int(rng.integers(1, d)[0])
        den = rng.integers(n_axis, 6) + 1
        freqs = [f"{int(p) - 6}/{int(q)}" for p, q in zip(rng.integers(n_axis, 13), den)]
        stable = -0.05 - rng.uniform(d - n_axis) + 2j * rng.uniform(d - n_axis) - 1j
        basis = (RandomSimilarity(seed + 31 * j, 5.0) if similarity
                 else OrthonormalBasis(seed + 31 * j))
        sg = synth_semigroup(freqs, list(stable), basis)
        sgs.append(semigroup_from_generator(sg.generator) if raw else sg)
    conns = [rng.complex_normal((d, d)) / np.sqrt(d) for _ in range(len(alpha) - 1)]
    return make_continuous_system(alpha, sgs, conns)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from([[1], [1, 1], [1, 2, 1], [1, 2, 2, 1], [2, 1, 2, 2], [1, 2, 1, 2],
                           [1, 1, 2], [2, 3, 1]]),
    d=st.integers(min_value=2, max_value=4),
    q=st.integers(min_value=2, max_value=12),
    t=st.one_of(st.sampled_from([0.1, 1 / 3, 2 / 3, 1.0]),
                st.floats(min_value=0.05, max_value=4.0)),
    similarity=st.booleans(),
    raw=st.booleans(),
)
def test_midpoint_routes_match_the_node_sum(seed, alpha, d, q, t, similarity, raw):
    # the midpoint rule as discrete time on both routes, against the weighted
    # lattice over the nodes with T(s_i) from expm; non-dyadic t gives step
    # angles with denominators near 2^55 Q
    sys_ = _random_generators(alpha, d, seed, similarity, raw)
    s_nodes, w_nodes = QuadratureSpec("midpoint", q).nodes(t)
    factors = [("stack", a, sg.value(s_nodes)) for a, sg in zip(alpha, sys_.semigroups)]
    ref = lattice_chain_mean(factors, list(sys_.connectors), q, weights=w_nodes / t)
    for strategy in ("spectral", "presum"):
        got = continuous_entangled_average(
            sys_, t, QuadratureSpec("midpoint", q), richardson=False, strategy=strategy
        ).value
        assert _rel(got, ref) <= 1e-10, strategy


# --------------------------------------------------------------- budgets


def _pair_system(alpha, d=2):
    ops = [linalg.haar_unitary(d, seed=300 + j) for j in range(len(alpha))]
    conns = [linalg.haar_unitary(d, seed=400 + j) for j in range(len(alpha) - 1)]
    return make_system(alpha, ops, conns)


def test_nested_alpha_runs_at_depth_1e5_under_default_budget():
    sys_ = _pair_system([1, 2, 2, 1])
    out = entangled_average(sys_, 100_000)
    assert out.shape == (2, 2)
    assert np.all(np.isfinite(out))


def _never(*args, **kwargs):
    raise AssertionError("work started before the budget check")


def _forbid_work(monkeypatch):
    monkeypatch.setattr(entangle, "_power_stack", _never)
    monkeypatch.setattr(entangle, "_power_sum", _never)
    monkeypatch.setattr(entangle, "lattice_chain_mean", _never)


def test_crossing_alpha_at_depth_1e5_refused_before_work(monkeypatch):
    sys_ = _pair_system([1, 2, 1, 2])
    _forbid_work(monkeypatch)
    with pytest.raises(BudgetExceededError, match="lattice axes=2"):
        entangled_average(sys_, 100_000, strategy="presum")


@pytest.mark.parametrize("strategy, n", [("presum", 100_000), ("spectral", 64)])
def test_nan_budget_refused_before_work(monkeypatch, strategy, n):
    # NaN compares False with every cost, so it used to pass the budget check
    sys_ = _pair_system([1, 2, 1, 2])
    _forbid_work(monkeypatch)
    for name in ("_cesaro_weight", "_spectral_mean"):
        monkeypatch.setattr(entangle, name, _never)
    with pytest.raises(ValidationError, match="budget"):
        entangled_average(sys_, n, strategy=strategy, budget=float("nan"))
    with pytest.raises(ValidationError, match="budget"):
        stacked_average(stacked_system(sys_), n, strategy=strategy, budget=float("nan"))


def test_continuous_nan_budget_refused_before_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    for name in ("_power_stack", "_cesaro_weight", "_spectral_mean"):
        monkeypatch.setattr(entangle, name, never)
    sgs = [synth_semigroup(["0"], [-0.5], OrthonormalBasis(j)) for j in range(4)]
    conns = [linalg.haar_unitary(2, seed=400 + j) for j in range(3)]
    system = make_continuous_system([1, 2, 1, 2], sgs, conns)
    with pytest.raises(ValidationError, match="budget"):
        continuous_entangled_average(system, 100.0, QuadratureSpec("midpoint", 100_000),
                                     budget=float("nan"))


def _certified_system(alpha, d=3):
    ops = [synth_operator(["0", "1/2"], [0.5j] * (d - 2), OrthonormalBasis(500 + j))
           for j in range(len(alpha))]
    conns = [linalg.haar_unitary(d, seed=600 + j) for j in range(len(alpha) - 1)]
    return make_system(alpha, ops, conns)


def test_certified_crossing_alpha_at_depth_1e5_runs_under_default_budget(monkeypatch):
    sys_ = _certified_system([1, 2, 1, 2])
    with pytest.raises(BudgetExceededError, match="lattice axes=2"):
        entangled_average(sys_, 100_000, strategy="presum")
    _forbid_work(monkeypatch)
    out = entangled_average(sys_, 100_000)
    assert _rel(out, limit_operator(sys_)) <= 1e-4


def test_spectral_nan_budget_refused_before_work(monkeypatch):
    sys_ = _certified_system([1, 2, 1, 2])
    _forbid_work(monkeypatch)
    monkeypatch.setattr(entangle, "_spectral_mean", _never)
    with pytest.raises(ValidationError, match="budget"):
        entangled_average(sys_, 100, budget=float("nan"))


def test_spectral_falls_back_to_presum_above_the_memory_cap(monkeypatch):
    sys_ = _certified_system([1, 2, 2, 1], d=4)
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", 16 * 4**4 - 1)  # the weight, not the stacks
    monkeypatch.setattr(entangle, "_spectral_mean", _never)
    got = entangled_average(sys_, 2)
    assert np.array_equal(got, entangled_average(sys_, 2, strategy="presum"))


@pytest.mark.parametrize("alpha", [[1, 1, 1, 1], [1, 2, 3, 4]])
def test_spectral_peak_memory_stays_under_the_counted_bytes(alpha):
    # one block spanning every position: its grid's temporaries are ~7x the weight
    d = 12
    sys_ = _certified_system(alpha, d)
    entangled_average(sys_, 1000)  # numpy's one-time allocations happen here
    tracemalloc.start()
    try:
        entangled_average(sys_, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block allocates its dense d^4 grid; four singleton blocks only d x d matrices
    # at once: the merged fixed factor, and a singleton's R diag(w) and its product with L
    lower = 16 * d ** len(alpha) if len(set(alpha)) == 1 else 3 * 16 * d * d
    assert lower < peak <= entangle._spectral_bytes(sys_.partition, d)


def test_spectral_peak_for_one_wide_block_stays_under_six_weights():
    # alpha = [1] * 6 at d = 10: one block over a 10^6-cell grid, 16 MB per
    # complex array; g is computed in place on masked copies
    d, alpha = 10, [1] * 6
    sys_ = _certified_system(alpha, d)
    entangled_average(sys_, 1000)
    tracemalloc.start()
    try:
        entangled_average(sys_, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= entangle._spectral_bytes(sys_.partition, d) < 6 * 16 * d ** len(alpha)


def test_spectral_falls_back_when_the_weight_fits_but_its_temporaries_do_not(monkeypatch):
    sys_ = _certified_system([1, 1, 1], d=10)
    # the weight is 16 kB and the presum stacks 32 kB; the spectral peak is ~130 kB
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", 4 * 16 * 10**3)
    monkeypatch.setattr(entangle, "_spectral_mean", _never)
    got = entangled_average(sys_, 4)
    assert np.array_equal(got, entangled_average(sys_, 4, strategy="presum"))


@pytest.mark.parametrize("alpha", [[1, 2, 2, 1], [1, 2, 1, 2]])
def test_raw_system_with_a_record_matches_presum(alpha):
    sys_ = _pair_system(alpha)
    assert all(op.eigenbasis is not None and op.certificate is None for op in sys_.operators)
    presum = entangled_average(sys_, 5, strategy="presum")
    assert np.linalg.norm(entangled_average(sys_, 5) - presum) <= 1e-12 * np.linalg.norm(presum)


def _recordless_system(alpha, delta):
    """Raw operators U diag(e^{2 pi i j/3}, [[0.5, 1], [0, 0.5 + delta]]) U^H: delta = 0
    is a defective stable part, and delta = 1e-9 puts cond_2(V) past the cap."""
    ops = []
    for j in range(len(alpha)):
        u = linalg.haar_unitary(3, seed=700 + j)
        block = np.array([[np.exp(2j * np.pi * j / 3), 0, 0], [0, 0.5, 1], [0, 0, 0.5 + delta]])
        ops.append(from_matrix(u @ block @ u.conj().T))
    conns = [linalg.haar_unitary(3, seed=710 + j) for j in range(len(alpha) - 1)]
    return make_system(alpha, ops, conns)


@pytest.mark.parametrize("delta", [0.0, 1e-9], ids=["defective", "ill-conditioned"])
@pytest.mark.parametrize("alpha", [[1, 2, 2, 1], [1, 2, 1, 2]])
def test_raw_system_without_a_record_gets_the_presum_result_bit_for_bit(alpha, delta):
    sys_ = _recordless_system(alpha, delta)
    for op in sys_.operators:
        assert op.spectral_verdict == (True, None)
        assert op.eigenbasis is None and op.power_bound_estimate > operators.EIGENBASIS_COND_CAP
    assert np.array_equal(entangled_average(sys_, 5), entangled_average(sys_, 5, strategy="presum"))


def test_spectral_fallback_names_its_reason_when_presum_refuses(monkeypatch):
    sys_ = _recordless_system([1, 2, 1, 2], 1e-9)
    _forbid_work(monkeypatch)
    with pytest.raises(BudgetExceededError, match=r"fell back to presum \(position 1 has no "
                                                  r"eigenbasis: cond_2\(V\) = .*, cap 1e\+06\)"):
        entangled_average(sys_, 100_000)
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", 1000)
    with pytest.raises(BudgetExceededError, match=r"fell back to presum \(the spectral weight "
                                                  r"needs .* GiB, above the memory cap"):
        entangled_average(_certified_system([1, 2, 1, 2]), 100_000)


def _raw_resonant_system():
    """alpha = [1, 2, 1, 2], d = 6: raw operators with boundary angles {0, 1/3} or
    {0, 2/3}, so each block resonates at (0, 0) and (1/3, 2/3), and cond_2(V) > 1."""
    angles = [["0", "1/3"], ["0", "2/3"], ["0", "2/3"], ["0", "1/3"]]
    ops = [from_matrix(synth_operator(a, [0.5, -0.4j, 0.3 + 0.3j, -0.6],
                                      RandomSimilarity(720 + j, 20.0)).matrix)
           for j, a in enumerate(angles)]
    conns = [linalg.haar_unitary(6, seed=730 + j) for j in range(3)]
    return make_system([1, 2, 1, 2], ops, conns)


def test_raw_crossing_alpha_at_depth_1e5_runs_under_default_budget(monkeypatch):
    sys_ = _raw_resonant_system()
    assert all(op.certificate is None and op.power_bound_estimate > 1.5 for op in sys_.operators)
    presum = entangled_average(sys_, 64, strategy="presum")
    assert np.linalg.norm(entangled_average(sys_, 64) - presum) <= 1e-12 * np.linalg.norm(presum)
    _forbid_work(monkeypatch)
    lim = limit_operator(sys_)
    assert np.linalg.norm(lim) > 0.1
    assert _rel(entangled_average(sys_, 100_000), lim) <= 1e-4
    # resonant float products are 1 + O(eps); without the snap to 1, N log z
    # would turn them into a phase at this depth
    assert np.linalg.norm(entangled_average(sys_, 2**40) - lim) <= 1e-10 * np.linalg.norm(lim)


def _config(alpha, path, **over):
    op = {"angles": ["0"], "stable": [[0.5, 0.0]], "basis": {"type": "orthonormal", "seed": 3}}
    cfg = {
        "kind": "converge",
        "alpha": alpha,
        "operators": [dict(op, basis={"type": "orthonormal", "seed": 3 + j})
                      for j in range(len(alpha))],
        "connectors": [{"type": "haar", "seed": j} for j in range(len(alpha) - 1)],
        "schedule": [100_000],
        **over,
    }
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_crossing_alpha_at_depth_1e5_exits_3(tmp_path, capsys, monkeypatch):
    cfg_path = _config([1, 2, 1, 2], tmp_path / "cfg.json", strategy="presum")
    _forbid_work(monkeypatch)
    rc = main(["converge", "--config", cfg_path, "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "budget refused" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_cli_default_strategy_runs_certified_crossing_alpha_at_depth_1e5(tmp_path, capsys,
                                                                         monkeypatch):
    # the default is spectral: no stack, power sum or lattice point is needed
    cfg_path = _config([1, 2, 1, 2], tmp_path / "cfg.json")
    _forbid_work(monkeypatch)
    rc = main(["converge", "--config", cfg_path, "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "r.csv").exists()


def test_cli_nested_alpha_at_depth_1e5_runs(tmp_path, capsys):
    cfg_path = _config([1, 2, 2, 1], tmp_path / "cfg.json")
    rc = main(["converge", "--config", cfg_path, "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("alpha", NESTED)
def test_nested_cost_estimate_is_linear_in_depth(alpha):
    part = make_partition(alpha)
    costs = [_estimate_cost("presum", n, part) for n in (1_000, 2_000, 1_000_000)]
    # collapsed blocks cost n (2r - 1); singletons only O(log n)
    assert costs[1] <= 2.0 * costs[0] + 100
    assert costs[2] <= 1_000 * costs[0] + 100
    assert costs[2] <= 2 * len(alpha) * 1_000_000
    crossing = _estimate_cost("presum", 1_000, make_partition([1, 2, 1, 2]))
    assert crossing >= 1_000**2


# ------------------------------------------- spectral means by the plan; stacked records


@pytest.mark.parametrize("n", [8, 32, 128])
def test_stacked_presum_matches_the_direct_mean_on_the_pinned_systems(n):
    # the summand-by-summand stacked route, which the default (spectral) no longer takes
    from test_acceptance import _pinned_systems

    for i, system in enumerate(_pinned_systems(), start=1):
        direct = entangled_average(system, n)
        block = stacked_average(stacked_system(system), n, strategy="presum")
        assert np.linalg.norm(block - direct) <= 1e-12 * np.linalg.norm(direct), i


@pytest.mark.parametrize("state", [False, True], ids=["operator", "state"])
def test_certified_stacked_average_runs_spectral_at_depth_1e6(monkeypatch, state):
    from test_acceptance import _pinned_systems

    system = _pinned_systems()[-1]  # alpha = [1, 2, 2, 1], one similarity basis
    st_ = stacked_system(system)
    assert st_.records[0].matrix is st_.script_t and st_.records[1].matrix is st_.script_s
    x = CounterRng(17).complex_normal((system.dim,)) if state else None
    direct = entangled_average(system, 10**6, x=x)

    def never(*args, **kwargs):
        raise AssertionError("the stacked mean ran presum")

    monkeypatch.setattr(entangle, "_power_stack", never)
    monkeypatch.setattr(entangle, "_power_sum", never)
    block = stacked_average(st_, 10**6, x=x)
    assert np.linalg.norm(block - direct) <= 1e-12 * np.linalg.norm(direct)


def test_stacked_system_without_certificates_has_no_records():
    sys_ = _pair_system([1, 2, 2, 1])  # raw operators: float records, no certificates
    st_ = stacked_system(sys_)
    assert st_.records == ()
    direct = entangled_average(sys_, 6, strategy="presum")
    assert np.linalg.norm(stacked_average(st_, 6) - direct) <= 1e-12 * np.linalg.norm(direct)


def _bijective_m8_system():
    """alpha = [1..8] at d = 12, each operator with 11 eigenvalues at angle 0 and one 0.5."""
    ops = [synth_operator(["0"] * 11, [0.5], OrthonormalBasis(800 + j)) for j in range(8)]
    conns = [linalg.haar_unitary(12, seed=820 + j) for j in range(7)]
    return make_system(list(range(1, 9)), ops, conns)


def test_bijective_limit_at_m8_is_the_product_of_the_projections_at_one():
    # one dense weight over the eight positions would need 16 * 11^8 bytes
    sys_ = _bijective_m8_system()
    want = operators.mean_ergodic_projection(sys_.operators[0], "0")
    for a, op in zip(sys_.connectors, sys_.operators[1:]):
        want = operators.mean_ergodic_projection(op, "0") @ a @ want
    got = limit_operator(sys_)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("system, grids", [
    (_bijective_m8_system, "largest block grid=12^1"),
    (lambda: _pair_system([1, 2, 1, 2, 3, 3], d=3),
     "largest block grid=3^2, crossing grid=3^4"),
])
def test_spectral_refusal_names_the_grids_the_plan_forms(system, grids):
    with pytest.raises(BudgetExceededError) as info:
        entangled_average(system(), 10, budget=1)
    message = str(info.value)
    assert f"(strategy=spectral, n=10, {grids})" in message
    assert "tuples" not in message


def test_bijective_mean_at_m8_is_the_product_of_one_variable_means(monkeypatch):
    sys_ = _bijective_m8_system()
    n = 2**20
    # each one-variable mean in closed form: g_n(1) = 1 and g_n(1/2) = (1 - 2^-n) / n
    g = np.array([1.0] * 11 + [(1 - 0.5**n) / n])
    means = [(op.certificate.basis * g) @ op.certificate.basis_inv for op in sys_.operators]
    want = means[0]
    for a, mean in zip(sys_.connectors, means[1:]):
        want = mean @ a @ want

    def never(*args, **kwargs):
        raise AssertionError("the mean ran presum")

    monkeypatch.setattr(entangle, "_power_sum", never)
    got = entangled_average(sys_, n)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_spectral_matches_presum_on_three_nested_blocks_at_d12(n):
    sys_ = _certified_system([1, 2, 3, 3, 2, 1], d=12)
    presum = entangled_average(sys_, n, strategy="presum")
    assert np.linalg.norm(entangled_average(sys_, n) - presum) <= 1e-12 * np.linalg.norm(presum)


# ---------------------------------------------- one route decision for every finite mean


def _semigroup_system(raw):
    """alpha = [1, 2, 1] generators of dimension 3 and 4: certified, or raw with a
    defective stable part, which carries no eigenbasis record."""
    if raw:
        rot = np.array([[0.0, -np.pi], [np.pi, 0.0]])
        jordan = np.array([[-0.5, 1.0], [0.0, -0.5]])
        sgs = [semigroup_from_generator(np.block([[jordan, np.zeros((2, 2))],
                                                  [np.zeros((2, 2)), rot]]))] * 3
    else:
        sgs = [synth_semigroup(["1/2", "0"], [-0.3 + 0.9j], OrthonormalBasis(900 + j))
               for j in range(3)]
    conns = [linalg.haar_unitary(sgs[0].dim, seed=910 + j) for j in range(2)]
    return make_continuous_system([1, 2, 1], sgs, conns)


# each finite mean: (depth name, system builder, call); the continuous means' Richardson
# grid at Q = 20 is decided first
_MEANS = {
    "entangled": ("n", lambda raw: _recordless_system([1, 2, 1], 1e-9) if raw
                  else _certified_system([1, 2, 1]),
                  lambda s, **kw: entangled_average(s, 10, **kw)),
    "stacked": ("n", lambda raw: stacked_system(_recordless_system([1, 2, 1], 1e-9) if raw
                                                else _certified_system([1, 2, 1])),
                lambda s, **kw: stacked_average(s, 10, **kw)),
    "midpoint": ("Q", _semigroup_system, lambda s, **kw: continuous_entangled_average(
        s, 2.0, QuadratureSpec("midpoint", 10), **kw)),
    "gauss-legendre": ("Q", _semigroup_system, lambda s, **kw: continuous_entangled_average(
        s, 2.0, QuadratureSpec("gauss-legendre", 10), **kw)),
}


@pytest.mark.parametrize("raw", [False, True], ids=["certified", "raw"])
@pytest.mark.parametrize("mean", list(_MEANS))
def test_every_finite_mean_refuses_with_one_wording_and_one_remedy(mean, raw):
    depth, build, call = _MEANS[mean]
    route = (r"strategy=spectral fell back to presum \(.+\), {0}=\d+, lattice axes=\d+" if raw
             else r"strategy=spectral, {0}=\d+, largest block grid=\d+\^2").format(depth)
    with pytest.raises(BudgetExceededError, match=rf"^estimated cost .* exceeds budget "
                       rf"1\.000e\+00 \({route}\); raise the budget, lower {depth}, "
                       rf"or switch strategy$"):
        call(build(raw), budget=1)


@pytest.mark.parametrize("raw", [False, True], ids=["certified", "raw"])
@pytest.mark.parametrize("mean", list(_MEANS))
def test_unknown_strategy_is_refused_before_any_work(monkeypatch, mean, raw):
    _, build, call = _MEANS[mean]
    system = build(raw)
    for module, name in [(entangle, "_power_stack"), (entangle, "_power_sum"),
                         (entangle, "_cesaro_weight"), (linalg, "expm"),
                         (entangle, "_step"), (continuous, "_step"),
                         (continuous, "_quadrature_weight")]:
        monkeypatch.setattr(module, name, _never)
    for strategy in ("turbo", "naive"):  # the brute-force mean is the tests' oracle.py
        with pytest.raises(ValidationError, match=re.escape(
                f"unknown strategy '{strategy}', expected presum|spectral")):
            call(system, strategy=strategy)
