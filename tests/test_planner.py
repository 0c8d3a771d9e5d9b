"""Differential tests for the contraction planner behind strategy="presum"
and the closed form behind strategy="spectral".

The planner reorders the finite lattice sum, so it must agree with the
`naive` strategy (every lattice tuple, powers recomputed by repeated
squaring) to roundoff at every depth, on nested, crossing and bijective
index maps alike; so must the closed form, which sums the same lattice in
the certificates' eigenbases.  The closed form is also checked where its
weight is hard to evaluate: at N = 2^40 against the limit operator, and at
an eigenvalue 1e-12 from 1.  The stacked form, the doubled power stacks and
the doubled power sums are checked against their direct counterparts, and
the continuous grid evaluator against the full weighted lattice over its
nodes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import continuous, entangle, linalg
from entlab.cli import main
from entlab.continuous import (
    QuadratureSpec,
    continuous_entangled_average,
    make_continuous_system,
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
from entlab.operators import OrthonormalBasis, RandomSimilarity, synth_operator
from entlab.rng import CounterRng
from entlab.spectral_limit import limit_operator

NESTED = [[1, 2, 2, 1], [1, 2, 3, 3, 2, 1], [2, 1, 2, 2]]
# a singleton block at either end leaves a fixed factor right or left of the walk
CROSSING = [[1, 2, 1, 2], [1, 2, 1, 3, 3, 2], [3, 1, 2, 1, 2], [1, 2, 1, 2, 3]]
BIJECTIVE = [[2, 3, 1]]


def _random_system(alpha, d, seed, similarity):
    """Operators with exact angles (denominators <= 6) and stable radius < 0.9."""
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
        ops.append(synth_operator(angles, list(radius * phase), basis))
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


# ------------------------------------------------------ planner vs naive


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(NESTED + CROSSING + BIJECTIVE),
    d=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=1, max_value=6),
    similarity=st.booleans(),
    vector=st.booleans(),
)
def test_planner_matches_naive(seed, alpha, d, n, similarity, vector):
    sys_ = _random_system(alpha, d, seed, similarity)
    x = None
    if vector:
        x = CounterRng(seed + 1).complex_normal((d,))
        x = x / np.linalg.norm(x)
    ref = entangled_average(sys_, n, strategy="naive", x=x, budget=None)
    for strategy in ("presum", "spectral"):
        got = entangled_average(sys_, n, strategy=strategy, x=x)
        assert got.shape == ref.shape
        assert _rel(got, ref) <= 1e-10, strategy


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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
def test_power_stack_from_start_is_the_orbit(n):
    t = synth_operator(["1/3", "1/7"], [0.95j, -0.5], RandomSimilarity(6, 5.0)).matrix
    x = CounterRng(7).complex_normal(t.shape)
    orbit = _power_stack(t, n, start=x)
    seq = np.concatenate([x[np.newaxis], _sequential_powers(t, n)[:-1] @ x])
    scale = max(1.0, float(np.abs(seq).max()))
    assert float(np.abs(orbit - seq).max()) <= 1e-12 * scale


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
    weights = {a: w_nodes / t for a in set(alpha)}
    ref = lattice_chain_mean(factors, conns, q, weights=weights)
    assert _rel(got, ref) <= 1e-12


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
        entangled_average(sys_, 100_000)


@pytest.mark.parametrize("strategy, n", [("presum", 100_000), ("naive", 64)])
def test_nan_budget_refused_before_work(monkeypatch, strategy, n):
    # NaN compares False with every cost, so it used to pass the budget check
    sys_ = _pair_system([1, 2, 1, 2])
    _forbid_work(monkeypatch)
    with pytest.raises(ValidationError, match="budget"):
        entangled_average(sys_, n, strategy=strategy, budget=float("nan"))
    with pytest.raises(ValidationError, match="budget"):
        stacked_average(stacked_system(sys_), n, strategy=strategy, budget=float("nan"))


def test_continuous_nan_budget_refused_before_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(continuous, "_single_grid_average", never)
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


@pytest.mark.parametrize("alpha", [[1, 2, 2, 1], [1, 2, 1, 2]])
def test_uncertified_system_gets_the_presum_result_bit_for_bit(alpha):
    sys_ = _pair_system(alpha)
    assert np.array_equal(entangled_average(sys_, 5), entangled_average(sys_, 5, strategy="presum"))


def _config(alpha, path):
    op = {"angles": ["0"], "stable": [[0.5, 0.0]], "basis": {"type": "orthonormal", "seed": 3}}
    cfg = {
        "kind": "converge",
        "alpha": alpha,
        "operators": [dict(op, basis={"type": "orthonormal", "seed": 3 + j})
                      for j in range(len(alpha))],
        "connectors": [{"type": "haar", "seed": j} for j in range(len(alpha) - 1)],
        "schedule": [100_000],
    }
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_crossing_alpha_at_depth_1e5_exits_3(tmp_path, capsys, monkeypatch):
    cfg_path = _config([1, 2, 1, 2], tmp_path / "cfg.json")
    _forbid_work(monkeypatch)
    rc = main(["converge", "--config", cfg_path, "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "budget refused" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


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
