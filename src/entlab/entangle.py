"""Entangled multi-index Cesaro averages.

The central object is the average

    (1/n^k) sum_{n_1..n_k = 1..n}  T_m^{n_alpha(m)} A_{m-1} ... A_1 T_1^{n_alpha(1)}

where alpha maps the m chain positions onto k index blocks (surjectively), the
T_j are power-bounded operators on the same space and the A_j are arbitrary
connecting operators.  Positions sharing a block are entangled: they are
driven by the same lattice variable, which is what makes the average refuse
to factor into a product of one-variable means.

Three evaluation strategies share one lattice walker:

* ``naive``   recomputes every operator power per lattice tuple (binary
  powering, nothing cached).  Slow on purpose; it is the reference route.
* ``cached``  precomputes the full power stack T_j, T_j^2, ..., T_j^n for
  every position and walks the lattice with batched matmuls.
* ``presum``  pre-averages every position whose block contains only that
  position (the average factorizes across singleton blocks exactly), then
  walks the reduced lattice over the remaining axes.  Default.

The walker vectorizes the innermost lattice axis through numpy batched
matmuls and runs the remaining axes as Python loops, accumulating slices
with Kahan compensation.  Costs are estimated before running and checked
against a budget; see ``entangled_average`` for the formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptyAlphaError,
    NotInvertibleError,
    NotSurjectiveError,
    ValidationError,
)
from .operators import DISCRETE, SpectralOperator, _require_bounded, as_operator

MEMORY_CAP_BYTES = 2 << 30  # refuse power stacks beyond 2 GiB


@dataclass(frozen=True)
class Partition:
    """Surjection alpha: positions {1..m} -> blocks {1..k}.

    alpha is stored 1-based as given; blocks[a] lists 0-based positions of
    block a.  bijective means every block is a singleton (k == m), in which
    case the entangled average is an exact product of one-variable means.
    """

    alpha: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def k(self) -> int:
        return max(self.alpha)

    @property
    def blocks(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, tuple[int, ...]] = {}
        for pos, a in enumerate(self.alpha):
            out[a] = out.get(a, ()) + (pos,)
        return out

    @property
    def bijective(self) -> bool:
        return self.k == self.m


def make_partition(alpha) -> Partition:
    """Validate and build a Partition from a sequence of 1-based block ids."""
    vals = tuple(alpha)
    if len(vals) == 0:
        raise EmptyAlphaError("index map has no positions")
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise NotSurjectiveError(f"block ids must be integers, got {v!r}")
        if v < 1:
            raise NotSurjectiveError(f"block ids are 1-based, got {v}")
    k = max(vals)
    missing = set(range(1, k + 1)) - set(int(v) for v in vals)
    if missing:
        raise NotSurjectiveError(
            f"alpha skips blocks {sorted(missing)}; range must be 1..{k}"
        )
    return Partition(tuple(int(v) for v in vals))


@dataclass(frozen=True)
class EntangledSystem:
    """Partition plus operators T_1..T_m and connectors A_1..A_{m-1}."""

    partition: Partition
    operators: tuple[SpectralOperator, ...]
    connectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.operators[0].dim


def _validate_system(alpha, members, connectors, noun: str):
    """Partition and connectors of a system whose positions hold members.

    Shared by make_system and make_continuous_system: alpha may be a
    Partition or a sequence of block ids, there must be one member per
    position, all of one dimension d, and m-1 connectors of shape (d, d),
    identities when connectors is None.
    """
    part = alpha if isinstance(alpha, Partition) else make_partition(alpha)
    if len(members) != part.m:
        raise DimensionMismatchError(
            f"partition has m={part.m} positions but {len(members)} {noun}s given"
        )
    d = members[0].dim
    if any(member.dim != d for member in members):
        raise DimensionMismatchError(f"{noun}s must share one dimension")
    if connectors is None:
        conns = tuple(np.eye(d, dtype=np.complex128) for _ in range(part.m - 1))
    else:
        conns = tuple(
            linalg.as_matrix(c, square=True, name=f"connector[{i}]")
            for i, c in enumerate(connectors)
        )
    if len(conns) != part.m - 1:
        raise DimensionMismatchError(
            f"need {part.m - 1} connectors, got {len(conns)}"
        )
    if any(c.shape != (d, d) for c in conns):
        raise DimensionMismatchError("connector dimension mismatch")
    return part, conns


def make_system(alpha, operators, connectors=None) -> EntangledSystem:
    """Assemble and validate an EntangledSystem.

    alpha may be a Partition or a sequence of block ids.  operators are
    SpectralOperators or raw matrices (wrapped via the eigensolver);
    connectors default to identities.  Every operator must pass the
    power-boundedness verdict.
    """
    ops = tuple(as_operator(t) for t in operators)
    part, conns = _validate_system(alpha, ops, connectors, DISCRETE.noun)
    _require_bounded(ops, DISCRETE)
    return EntangledSystem(part, ops, conns)


class _Kahan:
    """Elementwise compensated accumulator for complex arrays."""

    def __init__(self, shape):
        self.s = np.zeros(shape, dtype=np.complex128)
        self._c = np.zeros(shape, dtype=np.complex128)

    def add(self, v):
        y = v - self._c
        t = self.s + y
        self._c = (t - self.s) - y
        self.s = t


def _power_stack(t: np.ndarray, n: int) -> np.ndarray:
    """Stack [T, T^2, ..., T^n] built by repeated left multiplication."""
    d = t.shape[0]
    out = np.empty((n, d, d), dtype=np.complex128)
    out[0] = t
    for i in range(1, n):
        out[i] = t @ out[i - 1]
    return out


def _streamed_power_mean(t: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_{j=1..n} T^j without materializing the stack."""
    acc = _Kahan(t.shape)
    p = np.eye(t.shape[0], dtype=np.complex128)
    for _ in range(n):
        p = t @ p
        acc.add(p)
    return acc.s / n


def _apply(f: np.ndarray, cur: np.ndarray, vector: bool) -> np.ndarray:
    """Left-multiply cur by factor f with batch broadcasting.

    Operator mode: cur is (..., d, d).  Vector mode: cur is (..., d) and the
    trailing axis is treated as a column.
    """
    if vector:
        return np.matmul(f, cur[..., np.newaxis])[..., 0]
    return np.matmul(f, cur)


def lattice_chain_mean(factors, connectors, n: int, *, x=None, weights=None):
    """Weighted lattice mean of chain products, the shared evaluation core.

    factors : list of m entries, one per chain position, either
        ("fixed", M) with M of shape (d, d), or
        ("stack", axis, S) with S of shape (n, d, d); positions sharing an
        axis are driven by the same lattice variable.
    connectors : m-1 matrices interleaved between positions.
    n : lattice edge length (stacks must have leading dimension n).
    x : optional state vector; when given the chains act on x and the result
        is a vector, otherwise the full operator mean is returned.
    weights : optional dict axis -> (n,) nonnegative weights summing to 1.
        Omitted axes use the uniform mean (sum then one division, which is
        what the discrete strategies rely on for bit-stable comparisons).

    The last axis (highest id) is evaluated as one batched matmul sweep; the
    remaining axes run as Python loops with Kahan-compensated accumulation of
    the batched slices.
    """
    vector = x is not None
    axes = sorted({spec[1] for spec in factors if spec[0] == "stack"})
    vec_axis = axes[-1] if axes else None
    outer_axes = axes[:-1]
    w = weights or {}

    def chain(idx):
        cur = x if vector else None
        for j, spec in enumerate(factors):
            if spec[0] == "fixed":
                f = spec[1]
            else:
                _, axis, stack = spec
                f = stack if axis == vec_axis else stack[idx[axis]]
            if j == 0:
                if vector:
                    cur = _apply(f, np.asarray(x, dtype=np.complex128), True)
                else:
                    cur = f if f.ndim == 3 else f.copy()
            else:
                cur = _apply(connectors[j - 1], cur, vector)
                cur = _apply(f, cur, vector)
        return cur

    d = factors[0][1].shape[-1] if factors[0][0] == "fixed" else factors[0][2].shape[-1]
    out_shape = (d,) if vector else (d, d)

    if not axes:
        return chain({})

    total = _Kahan(out_shape)
    uniform_outer = [a for a in outer_axes if a not in w]
    vec_w = w.get(vec_axis)
    for combo in itertools.product(range(n), repeat=len(outer_axes)):
        idx = dict(zip(outer_axes, combo))
        cur = chain(idx)
        if cur.ndim == len(out_shape):  # vec_axis absent from every factor
            slice_val = cur  # cannot happen for valid systems, kept defensive
        elif vec_w is None:
            slice_val = cur.sum(axis=0)
        else:
            slice_val = np.tensordot(vec_w, cur, axes=1)
        scale = 1.0
        for a in outer_axes:
            if a in w:
                scale *= w[a][idx[a]]
        if scale != 1.0:
            slice_val = slice_val * scale
        total.add(slice_val)
    div = 1.0
    if vec_w is None:
        div *= n
    for _ in uniform_outer:
        div *= n
    return total.s / div


def _estimate_cost(strategy: str, n: int, m: int, k_eff: int) -> float:
    """Documented cost model, in units of one chain-step product.

    naive  : n^k * (2m - 1 + m * ceil(log2 n))
    cached : m*n + n^k_eff * (2m - 1)       (k_eff = k, all axes kept)
    presum : m*n + n^k_eff * (2m - 1)       (k_eff = non-singleton blocks)
    """
    if strategy == "naive":
        return float(n) ** k_eff * (2 * m - 1 + m * max(1, int(np.ceil(np.log2(max(n, 2))))))
    return m * n + float(n) ** k_eff * (2 * m - 1)


def _check_budget(strategy, n, m, k_eff, d, stacked_positions, budget):
    if budget is not None:
        cost = _estimate_cost(strategy, n, m, k_eff)
        if cost > budget:
            raise BudgetExceededError(
                f"estimated cost {cost:.3e} exceeds budget {budget:.3e} "
                f"(strategy={strategy}, n={n}, lattice axes={k_eff}); "
                "raise the budget, lower n, or switch strategy"
            )
    mem = stacked_positions * n * d * d * 16
    if mem > MEMORY_CAP_BYTES:
        raise BudgetExceededError(
            f"power stacks would need {mem / 2**30:.2f} GiB "
            f"(cap {MEMORY_CAP_BYTES / 2**30:.0f} GiB); "
            "use strategy='naive' or reduce n"
        )


def _evaluate_discrete(mats, connectors, part: Partition, n, strategy, x, budget):
    m = part.m
    d = mats[0].shape[0]
    blocks = part.blocks

    if strategy == "naive":
        _check_budget("naive", n, m, part.k, d, 0, budget)
        vector = x is not None
        out_shape = (d,) if vector else (d, d)
        total = _Kahan(out_shape)
        xv = None if x is None else np.asarray(x, dtype=np.complex128)
        for combo in itertools.product(range(1, n + 1), repeat=part.k):
            powers = {a: combo[a - 1] for a in blocks}
            cur = xv
            for j in range(m):
                f = np.linalg.matrix_power(mats[j], powers[part.alpha[j]])
                if j == 0:
                    cur = _apply(f, xv, True) if vector else f
                else:
                    cur = _apply(connectors[j - 1], cur, vector)
                    cur = _apply(f, cur, vector)
            total.add(cur)
        return total.s / float(n) ** part.k

    if strategy == "cached":
        averaged: set[int] = set()
    elif strategy == "presum":
        averaged = {a for a, pos in blocks.items() if len(pos) == 1}
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")

    active = [a for a in sorted(blocks) if a not in averaged]
    k_eff = len(active)
    # identical matrix objects share one stack, so count distinct ones
    distinct = {id(mats[j]) for j in range(m) if part.alpha[j] in active}
    _check_budget(strategy, n, m, k_eff, d, len(distinct), budget)

    stacks: dict[int, np.ndarray] = {}
    means: dict[int, np.ndarray] = {}
    factors = []
    for j in range(m):
        a = part.alpha[j]
        key = id(mats[j])
        if a in averaged:
            if key not in means:
                means[key] = _streamed_power_mean(mats[j], n)
            factors.append(("fixed", means[key]))
        else:
            if key not in stacks:
                stacks[key] = _power_stack(mats[j], n)
            factors.append(("stack", a, stacks[key]))
    return lattice_chain_mean(factors, connectors, n, x=x)


def entangled_average(
    system: EntangledSystem,
    n: int,
    strategy: str = "presum",
    x=None,
    budget: float | None = 1e8,
):
    """The entangled Cesaro mean at depth n.

    Cost is estimated up front in units of one d x d chain-step product
    (one batched matmul row, or one matvec when x is given):

        naive  : n^k * (2m - 1 + m ceil(log2 n))
        cached : m n + n^k       * (2m - 1)
        presum : m n + n^k_eff   * (2m - 1)

    with k_eff the number of blocks holding two or more positions.  Estimates
    above `budget` raise BudgetExceededError before any work happens, as does
    a power-stack footprint beyond 2 GiB.  budget=None disables the cost
    check (the memory cap stays).

    With x given the chains act on x and a vector is returned; otherwise the
    operator mean itself.  Strategies agree to ~1e-10 relative; presum is
    exact (not just convergent) for bijective alpha since the average then
    factorizes across positions.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"depth n must be a positive integer, got {n!r}")
    if x is not None:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (system.dim,):
            raise DimensionMismatchError(
                f"state has shape {x.shape}, expected ({system.dim},)"
            )
    mats = [op.matrix for op in system.operators]
    return _evaluate_discrete(
        mats, list(system.connectors), system.partition, int(n), strategy, x, budget
    )


@dataclass(frozen=True)
class StackedSystem:
    """Block companion form of an entangled system on (m*d)-dimensional space.

    script_t = blockdiag(T_1, ..., T_{m-1}, I)
    script_s = blockdiag(I, ..., I, T_m)
    script_a = sum_a E_{a+1,a} (x) A_a   (connector A_a in block row a+1, col a)

    A chain started in block 1 is walked up one block per connector
    application, so the (m, 1) compression of the stacked chain reproduces
    the original chain exactly, summand by summand.
    """

    partition: Partition
    script_t: np.ndarray
    script_s: np.ndarray
    script_a: np.ndarray
    block_dim: int

    @property
    def m(self) -> int:
        return self.partition.m


def stacked_system(system: EntangledSystem) -> StackedSystem:
    """Build the block companion form of an entangled system."""
    m, d = system.partition.m, system.dim
    big = m * d
    if big > linalg.DIM_CAP:
        raise DimensionMismatchError(
            f"stacked dimension {big} exceeds cap {linalg.DIM_CAP}"
        )
    script_t = np.zeros((big, big), dtype=np.complex128)
    script_s = np.zeros((big, big), dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    for j in range(m):
        sl = slice(j * d, (j + 1) * d)
        script_t[sl, sl] = system.operators[j].matrix if j < m - 1 else eye
        script_s[sl, sl] = system.operators[m - 1].matrix if j == m - 1 else eye
    script_a = np.zeros((big, big), dtype=np.complex128)
    for a in range(1, m):  # connector A_a couples block a -> a+1 (1-based)
        rows = slice(a * d, (a + 1) * d)
        cols = slice((a - 1) * d, a * d)
        script_a[rows, cols] = system.connectors[a - 1]
    return StackedSystem(system.partition, script_t, script_s, script_a, d)


def stacked_average(
    st: StackedSystem,
    n: int,
    strategy: str = "presum",
    x=None,
    budget: float | None = 1e8,
):
    """Entangled average evaluated on the stacked space, then compressed.

    Runs the same lattice walker on script_t / script_s / script_a and returns
    the (m, 1) block of the result (or the block-m component when x is given,
    embedded into block 1 first).  Summand-by-summand this matches the direct
    chain exactly, so the two routes agree to roundoff; the acceptance suite
    checks a 1e-12 relative residual.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"depth n must be a positive integer, got {n!r}")
    m, d = st.m, st.block_dim
    part = st.partition
    mats = [st.script_t] * (m - 1) + [st.script_s]
    conns = [st.script_a] * (m - 1)
    big_x = None
    if x is not None:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (d,):
            raise DimensionMismatchError(f"state has shape {x.shape}, expected ({d},)")
        big_x = np.zeros(m * d, dtype=np.complex128)
        big_x[:d] = x
    out = _evaluate_discrete(mats, conns, part, int(n), strategy, big_x, budget)
    if x is not None:
        return out[(m - 1) * d :]
    return out[(m - 1) * d :, :d]


def multiple_ergodic_average(
    u,
    weights,
    n: int,
    strategy: str = "presum",
    x=None,
    budget: float | None = 1e8,
):
    """Mean of u^j a_1 u^j a_2 ... a_k u^{-k j} over j = 1..n.

    weights is the list [a_1, ..., a_k].  The product is rewritten as a fully
    entangled chain on one index block: T_1 = u^{-k} at the rightmost
    position, T_2 = ... = T_{k+1} = u, connectors [a_k, ..., a_1].
    """
    u = linalg.as_matrix(u, square=True, name="u")
    a_list = [linalg.as_matrix(a, square=True, name=f"weights[{i}]")
              for i, a in enumerate(weights)]
    if not a_list:
        raise DimensionMismatchError("need at least one weight operator")
    k = len(a_list)
    u_inv = _inverse(u)
    t1 = np.linalg.matrix_power(u_inv, k)
    ops = [t1] + [u] * k
    conns = list(reversed(a_list))
    system = make_system([1] * (k + 1), ops, conns)
    return entangled_average(system, n, strategy=strategy, x=x, budget=budget)


def generalized_power_average(
    u,
    weights,
    alpha,
    n: int,
    strategy: str = "presum",
    x=None,
    budget: float | None = 1e8,
):
    """Mean of u^{n_alpha(1)} a_1 ... u^{n_alpha(m)} a_m u^{-sum_j n_alpha(j)}.

    weights is [a_1, ..., a_m] and alpha maps the m visible power slots onto
    k index blocks.  The compensating factor u^{-sum} splits into one extra
    chain position per block: block a contributes u^{-c_a} driven by n_a,
    where c_a is the block size.  The extended index map stays surjective, so
    the generic evaluator applies unchanged.
    """
    u = linalg.as_matrix(u, square=True, name="u")
    a_list = [linalg.as_matrix(a, square=True, name=f"weights[{i}]")
              for i, a in enumerate(weights)]
    part = alpha if isinstance(alpha, Partition) else make_partition(alpha)
    m, k = part.m, part.k
    if len(a_list) != m:
        raise DimensionMismatchError(
            f"alpha has m={m} slots but {len(a_list)} weight operators given"
        )
    u_inv = _inverse(u)
    counts = {a: len(pos) for a, pos in part.blocks.items()}
    # positions 1..k (chain order, rightmost first): u^{-c_a} driven by block a
    ops = [np.linalg.matrix_power(u_inv, counts[a]) for a in range(1, k + 1)]
    beta = list(range(1, k + 1))
    # positions k+1..k+m: u driven by block alpha(m), alpha(m-1), ..., alpha(1)
    for j in range(m, 0, -1):
        ops.append(u)
        beta.append(part.alpha[j - 1])
    # connectors, right to left: I x (k-1), then a_m, a_{m-1}, ..., a_1
    d = u.shape[0]
    conns = [np.eye(d, dtype=np.complex128)] * (k - 1) + list(reversed(a_list))
    system = make_system(beta, ops, conns)
    return entangled_average(system, n, strategy=strategy, x=x, budget=budget)


def _inverse(u: np.ndarray) -> np.ndarray:
    eye = np.eye(u.shape[0], dtype=np.complex128)
    try:
        inv = np.linalg.solve(u, eye)
    except np.linalg.LinAlgError as exc:
        raise NotInvertibleError(f"matrix is singular: {exc}") from exc
    resid = float(np.linalg.norm(u @ inv - eye))
    if resid > 1e-8:
        raise NotInvertibleError(
            f"inverse residual {resid:.3e} too large; matrix effectively singular"
        )
    return inv
