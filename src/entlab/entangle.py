"""Entangled multi-index Cesaro averages.

The central object is the average

    (1/n^k) sum_{n_1..n_k = 1..n}  T_m^{n_alpha(m)} A_{m-1} ... A_1 T_1^{n_alpha(1)}

where alpha maps the m chain positions onto k index blocks (surjectively), the
T_j are power-bounded operators on the same space and the A_j are arbitrary
connecting operators.  Positions sharing a block are entangled: they are
driven by the same lattice variable, which is what makes the average refuse
to factor into a product of one-variable means.

Three evaluation strategies:

* ``spectral`` the closed form, default.  When every T_j carries a
  certificate T_j = S_j diag(lam_j) S_j^{-1}, the mean is
  S_m (sum over inner eigen-indices of W * prod_j C_j) S_1^{-1} with cores
  C_j = S_{j+1}^{-1} A_j S_j.  W factorizes over the blocks of alpha; a
  block contributes g_n(z) = (1/n) sum_{k=1..n} z^k, z the product of its
  eigenvalues, so the cost does not depend on n.  The limit operator is the
  same contraction with g replaced by the resonance indicator
  (``_eigen_contraction`` serves both).  Without a certificate on every
  position, or when the dense weight would exceed the memory cap, it falls
  back to ``presum``.
* ``naive``   recomputes every operator power per lattice tuple (binary
  powering, nothing cached).  Slow on purpose; it is the reference route.
* ``presum``  the contraction planner.  A block whose positions are
  adjacent once the blocks nested inside it are collapsed reduces exactly to
  one fixed matrix: a singleton block to the power mean (1/n) sum T^j, built
  by binary doubling, and a block of r positions to the mean over j of
  T_q^j G ... G T_p^j, one batched product over power stacks (themselves
  built by doubling) with G the fixed products between its positions.  So
  alpha = [1, 2, 2, 1] is first M = (1/n) sum T_3^j A_2 T_2^j, then
  (1/n) sum T_4^j A_3 M A_1 T_1^j: O(n) instead of O(n^2).  Only crossing
  blocks such as [1, 2, 1, 2] are left to the lattice walk.

The lattice walk vectorizes the innermost lattice axis through numpy batched
matmuls and runs the remaining axes as Python loops, accumulating slices
with Kahan compensation.  Costs are estimated before running and checked
against a budget; see ``entangled_average`` for the formulas.
"""

from __future__ import annotations

import cmath
import itertools
import math
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
STRATEGIES = ("naive", "presum", "spectral")


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


def _power_stack(t: np.ndarray, n: int, start=None) -> np.ndarray:
    """Orbit [X, T X, ..., T^(n-1) X] built by doubling: out[k:2k] = T^k @ out[:k].

    X defaults to T, giving the powers [T, T^2, ..., T^n], where T^k is read
    back as out[k-1]; for any other start T^k is kept by squaring, log2(n)
    products more.  The continuous midpoint grid passes X = e^{(h/2)B} and
    T = e^{hB}.
    """
    p = np.asarray(t, dtype=np.complex128)
    out = np.empty((n,) + p.shape, dtype=np.complex128)
    out[0] = p if start is None else start
    k = 1
    while k < n:
        step = min(k, n - k)
        np.matmul(p, out[:step], out=out[k : k + step])
        k += step
        if k < n:
            p = out[k - 1] if start is None else p @ p
    return out


def _power_sum(t: np.ndarray, n: int) -> np.ndarray:
    """T + T^2 + ... + T^n by binary doubling of (S_j, T^j), O(log n) products.

    Reading n's bits from the top: S_2j = S_j + T^j S_j and T^2j = T^j T^j,
    then for a set bit T^(2j+1) = T T^2j and S_(2j+1) = S_2j + T^(2j+1).
    """
    s = np.zeros_like(t, dtype=np.complex128)
    p = np.eye(t.shape[0], dtype=np.complex128)
    for bit in bin(n)[2:]:
        s = s + p @ s
        p = p @ p
        if bit == "1":
            p = t @ p
            s = s + p
    return s


def _apply(f: np.ndarray, cur: np.ndarray, vector: bool) -> np.ndarray:
    """Left-multiply cur by factor f with batch broadcasting.

    Operator mode: cur is (..., d, d).  Vector mode: cur is (..., d) and the
    trailing axis is treated as a column.
    """
    if vector:
        return np.matmul(f, cur[..., np.newaxis])[..., 0]
    return np.matmul(f, cur)


def lattice_chain_mean(factors, connectors, n: int, *, x=None, weights=None):
    """Weighted lattice mean of chain products: the planner's crossing remainder.

    factors : list of m entries ("stack", axis, S), one per chain position,
        with S of shape (n, d, d); positions sharing an axis are driven by
        the same lattice variable.
    connectors : m-1 matrices interleaved between positions.
    n : lattice edge length (stacks must have leading dimension n).
    x : optional state vector; when given the chains act on x and the result
        is a vector, otherwise the full operator mean is returned.
    weights : optional dict axis -> (n,) nonnegative weights summing to 1.
        Omitted axes use the uniform mean (sum then one division).

    The last axis (highest id) is evaluated as one batched matmul sweep; the
    remaining axes run as Python loops with Kahan-compensated accumulation of
    the batched slices.
    """
    vector = x is not None
    axes = sorted({axis for _, axis, _ in factors})
    vec_axis = axes[-1]
    outer_axes = axes[:-1]
    w = weights or {}

    def chain(idx):
        for j, (_, axis, stack) in enumerate(factors):
            f = stack if axis == vec_axis else stack[idx[axis]]
            if j == 0:
                cur = _apply(f, np.asarray(x, dtype=np.complex128), True) if vector else f
            else:
                cur = _apply(connectors[j - 1], cur, vector)
                cur = _apply(f, cur, vector)
        return cur

    d = factors[0][2].shape[-1]
    out_shape = (d,) if vector else (d, d)

    total = _Kahan(out_shape)
    uniform_outer = [a for a in outer_axes if a not in w]
    vec_w = w.get(vec_axis)
    for combo in itertools.product(range(n), repeat=len(outer_axes)):
        idx = dict(zip(outer_axes, combo))
        cur = chain(idx)
        if vec_w is None:
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


@dataclass(frozen=True)
class Plan:
    """How a chain is contracted: nested blocks collapse, crossing ones do not.

    spans : the positions of each collapsed block, in collapse order.  A
        block collapses once its positions are adjacent among the positions
        of blocks not yet collapsed; collapsing never breaks another block's
        adjacency, so the order does not change the result.
    crossing : the blocks left over, walked on the lattice.
    stacked : the positions that need a power stack, i.e. those of every
        block holding two or more positions.
    """

    spans: tuple[tuple[int, ...], ...]
    crossing: tuple[int, ...]
    stacked: tuple[int, ...]
    remaining: int  # positions left to the lattice walk

    def cost(self, n: int, single: float) -> float:
        """Chain-step products: n (2r - 1) per collapsed r-position block,
        `single` per singleton block, n^k_cross (2 m_cross - 1) for the rest."""
        total = sum(n * (2 * len(s) - 1) if len(s) > 1 else single for s in self.spans)
        if self.crossing:
            total += float(n) ** len(self.crossing) * (2 * self.remaining - 1)
        return total


def plan_chain(part: Partition) -> Plan:
    """Collapse order and crossing remainder of a partition (no numerics)."""
    blocks = part.blocks
    live = list(range(part.m))
    pending = sorted(blocks)
    spans = []
    progress = True
    while progress:
        progress = False
        for a in list(pending):
            first, last = live.index(blocks[a][0]), live.index(blocks[a][-1])
            if last - first == len(blocks[a]) - 1:
                spans.append(blocks[a])
                del live[first : last + 1]
                pending.remove(a)
                progress = True
    stacked = tuple(j for j in range(part.m) if len(blocks[part.alpha[j]]) > 1)
    return Plan(tuple(spans), tuple(pending), stacked, len(live))


def _contract(plan: Plan, part: Partition, connectors, n, stack, single, *, x=None, weights=None):
    """Evaluate the mean of a chain by its plan.

    stack(j) gives the (n, d, d) samples T_j^1..T_j^n (or T_j at quadrature
    nodes) of position j, single(j) the weighted mean of position j alone;
    weights is the (n,) weight vector shared by every block, None for the
    uniform mean.  A collapsed block at positions p_1 < ... < p_r becomes
    one fixed matrix, the mean over n of T_(p_r)^n G_(r-1) ... G_1 T_(p_1)^n
    with G_i the fixed products between its positions, and is merged with
    its fixed neighbours.  What is left, if anything, goes to
    lattice_chain_mean; x, when given, is applied last.
    """

    def mean(batch):
        if weights is None:
            return batch.sum(axis=0) / n
        return np.tensordot(weights, batch, axes=1)

    def locate(j):
        return next(i for i, e in enumerate(chain) if isinstance(e, int) and e == j)

    # rightmost factor first: T_1, A_1, T_2, ..., T_m; ints are positions
    chain: list = [0]
    for j in range(1, part.m):
        chain += [connectors[j - 1], j]
    for span in plan.spans:
        lo, hi = locate(span[0]), locate(span[-1])
        entries = chain[lo : hi + 1]  # p_1, G_1, p_2, ..., G_(r-1), p_r
        if len(entries) == 1:
            fixed = single(entries[0])
        else:
            cur = stack(entries[0])
            half, full = np.empty_like(cur), np.empty_like(cur)  # working buffers
            for g, j in zip(entries[1::2], entries[2::2]):
                np.matmul(g, cur, out=half)
                cur = np.matmul(stack(j), half, out=full)
            fixed = mean(cur)
        # positions alternate with fixed factors, so both neighbours are fixed
        if hi + 1 < len(chain):
            hi += 1
            fixed = chain[hi] @ fixed
        if lo > 0:
            lo -= 1
            fixed = fixed @ chain[lo]
        chain[lo : hi + 1] = [fixed]

    if len(chain) == 1:
        return chain[0] if x is None else chain[0] @ x
    right = chain.pop(0) if not isinstance(chain[0], int) else None
    left = chain.pop() if not isinstance(chain[-1], int) else None
    factors = [("stack", part.alpha[j], stack(j)) for j in chain[::2]]
    if x is not None and right is not None:
        x = right @ x
    out = lattice_chain_mean(
        factors, chain[1::2], n, x=x,
        weights=None if weights is None else {a: weights for a in plan.crossing},
    )
    if x is None and right is not None:
        out = out @ right
    return out if left is None else left @ out


def _estimate_cost(strategy: str, n: int, part: Partition, d: int = 1) -> float:
    """Documented cost model, in units of one chain-step product (d^3 flops).

    naive    : n^k * (2m - 1 + m * ceil(log2 n))
    presum   : the plan's cost, with 3 bit_length(n) products per singleton
    spectral : m + 1 products for the cores and the two basis changes, plus
               d^m (m + k) / d^3 for the weight's k block factors and m - 1
               core factors over d^m eigen-index tuples
    """
    m, k = part.m, part.k
    if strategy == "naive":
        return float(n) ** k * (2 * m - 1 + m * max(1, int(np.ceil(np.log2(max(n, 2))))))
    if strategy == "spectral":
        return m + 1 + float(d) ** (m - 3) * (m + k)
    return plan_chain(part).cost(n, 3 * n.bit_length())


def _refuse_beyond(cost, budget, stack_bytes, detail: str, remedy: str):
    """BudgetExceededError before any work if cost or stack memory is too large."""
    if budget is not None and np.isnan(budget):
        raise ValidationError("budget must be a number or None, got nan")
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"estimated cost {cost:.3e} exceeds budget {budget:.3e} ({detail}); {remedy}"
        )
    if stack_bytes > MEMORY_CAP_BYTES:
        raise BudgetExceededError(
            f"power stacks would need {stack_bytes / 2**30:.2f} GiB "
            f"(cap {MEMORY_CAP_BYTES / 2**30:.0f} GiB, {detail}); {remedy}"
        )


def _stack_bytes(mats, positions, n: int) -> int:
    """One (n, d, d) complex stack per distinct matrix, plus two working buffers.

    A collapsed block's batched product alternates between two (n, d, d)
    arrays, and identical matrix objects share one stack.
    """
    if not positions:
        return 0
    d = mats[0].shape[0]
    return (len({id(mats[j]) for j in positions}) + 2) * n * d * d * 16


def _per_matrix(mats, build):
    """j -> build(mats[j]), built once per distinct matrix object (by id)."""
    built: dict[int, np.ndarray] = {}

    def get(j: int) -> np.ndarray:
        key = id(mats[j])
        if key not in built:
            built[key] = build(mats[j])
        return built[key]

    return get


_REMEDY = "raise the budget, lower n, or switch strategy"


def _eigen_contraction(weight, rights, lefts, connectors):
    """R_m (sum over the inner eigen-indices of W * prod_j C_j) L_1.

    weight W has one axis per chain position; axis j runs over the columns
    of rights[j] (d x r_j), which lefts[j] (r_j x d) inverts on its range.
    The cores C_j = L_{j+1} A_j R_j multiply W in place, the axes of the
    positions 2..m-1 are summed, and what is left, indexed by the outer
    eigen-indices (i_m, i_1), is mapped back by R_m and L_1.  The entangled
    mean and its limit differ only in W.  lefts[0] may have any number of
    columns (a state L_1 x as one column gives the mean applied to x).
    """
    m = weight.ndim
    for j in range(m - 1):
        core = lefts[j + 1] @ connectors[j] @ rights[j]
        view = [1] * m
        view[j], view[j + 1] = core.shape[::-1]
        weight *= core.T.reshape(view)
    inner = np.diag(weight) if m == 1 else weight.sum(axis=tuple(range(1, m - 1))).T
    return rights[m - 1] @ inner @ lefts[0]


def _cesaro_weight(certificates, n: int) -> np.ndarray:
    """g_n(z) = (1/n) sum_{k=1..n} z^k over one block's eigen-index grid.

    Axis i of the grid runs over the eigenvalues of certificates[i] and z is
    the product of one eigenvalue per axis.  A cell whose eigen-indices all
    fall in the certificates' boundary prefixes, and whose exact angles sum
    to 0 mod 1, is resonant and gets g_n = 1 exactly: the float product of
    its eigenvalues is 1 + O(eps), which n log z would turn into a phase.
    Elsewhere g_n = z (1 - z^n) / (n (1 - z)), with z^n the product of the
    eigenvalues' own n-th powers (exact angles n theta mod 1 on the
    boundary), and for |1 - z| < 1/2 the cancellation-free
    z expm1(n log z) / (n expm1(log z)).
    """
    z = np.ones((), dtype=np.complex128)
    z_n = np.ones((), dtype=np.complex128)
    inv_n = 1 / n  # float for any int n
    # exponent for stable eigenvalues: beyond 2^64 each |lam|^n, |lam| <= 1 - 2^-53,
    # has underflowed to 0 already
    n_cap = float(min(n, 2**64))
    for cert in certificates:
        r = len(cert.angles)
        powers = np.empty_like(cert.eigenvalues)
        powers[:r] = [cmath.exp(2j * math.pi * float(n * a % 1)) for a in cert.angles]
        powers[r:] = cert.eigenvalues[r:] ** n_cap
        z = np.multiply.outer(z, cert.eigenvalues)
        z_n = np.multiply.outer(z_n, powers)

    g = np.empty(z.shape, dtype=np.complex128)
    near = np.abs(1.0 - z) < 0.5
    far = ~near
    g[far] = z[far] * (1.0 - z_n[far]) / (1.0 - z[far]) * inv_n
    log_z = np.log(z[near])
    # |z| <= 1 for certified operators; a product of unit values can round past it
    log_z.real = np.minimum(log_z.real, 0.0)
    num = z[near] * np.expm1(n_cap * log_z) * inv_n
    den = np.expm1(log_z)
    g[near] = np.divide(num, den, out=np.ones_like(num), where=den != 0)  # z == 1.0: g = 1

    angle_lists = [cert.angles for cert in certificates]
    if all(angle_lists):
        # exact resonance over the boundary prefixes, in integers over a common denominator
        common = math.lcm(*(a.denominator for angles in angle_lists for a in angles))
        dtype = np.int64 if len(angle_lists) * common < 2**63 else object
        total = np.zeros((), dtype=dtype)
        for angles in angle_lists:
            total = np.add.outer(total, np.array([a.numerator * (common // a.denominator)
                                                  for a in angles], dtype=dtype))
        prefix = g[tuple(slice(len(angles)) for angles in angle_lists)]
        prefix[total % common == 0] = 1.0
    return g


def _spectral_mean(certificates, connectors, part: Partition, n: int, x):
    """The mean at depth n from the certificates' eigenbases (see _eigen_contraction)."""
    m = part.m
    weight = np.ones([cert.eigenvalues.size for cert in certificates], dtype=np.complex128)
    for positions in part.blocks.values():
        view = [1] * m
        for j in positions:
            view[j] = weight.shape[j]
        weight *= _cesaro_weight([certificates[j] for j in positions], n).reshape(view)
    lefts = [cert.basis_inv for cert in certificates]
    if x is not None:
        lefts[0] = (lefts[0] @ x)[:, np.newaxis]
    out = _eigen_contraction(weight, [cert.basis for cert in certificates], lefts, connectors)
    return out if x is None else out[:, 0]


def _evaluate_discrete(mats, connectors, part: Partition, n, strategy, x, budget,
                       certificates=()):
    m = part.m
    d = mats[0].shape[0]

    if strategy == "spectral":
        weight_bytes = 16 * float(d) ** m
        if (len(certificates) == m and all(c is not None for c in certificates)
                and weight_bytes <= MEMORY_CAP_BYTES):
            _refuse_beyond(
                _estimate_cost("spectral", n, part, d), budget, 0,
                f"strategy=spectral, n={n}, eigen-index tuples={d}^{m}", _REMEDY,
            )
            return _spectral_mean(certificates, connectors, part, n, x)
        strategy = "presum"

    if strategy == "naive":
        _refuse_beyond(
            _estimate_cost("naive", n, part), budget, 0,
            f"strategy=naive, n={n}, lattice axes={part.k}", _REMEDY,
        )
        vector = x is not None
        out_shape = (d,) if vector else (d, d)
        total = _Kahan(out_shape)
        for combo in itertools.product(range(1, n + 1), repeat=part.k):
            for j in range(m):
                f = np.linalg.matrix_power(mats[j], combo[part.alpha[j] - 1])
                if j == 0:
                    cur = _apply(f, x, True) if vector else f
                else:
                    cur = _apply(connectors[j - 1], cur, vector)
                    cur = _apply(f, cur, vector)
            total.add(cur)
        return total.s / float(n) ** part.k

    if strategy != "presum":
        raise ValidationError(f"unknown strategy {strategy!r}, expected {'|'.join(STRATEGIES)}")
    plan = plan_chain(part)
    _refuse_beyond(
        _estimate_cost("presum", n, part), budget, _stack_bytes(mats, plan.stacked, n),
        f"strategy=presum, n={n}, lattice axes={len(plan.crossing)}", _REMEDY,
    )
    stack = _per_matrix(mats, lambda t: _power_stack(t, n))
    single = _per_matrix(mats, lambda t: _power_sum(t, n) / n)
    return _contract(plan, part, connectors, n, stack, single, x=x)


def _depth(n) -> int:
    """n as a Python int; ValidationError unless it is a positive integer."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"depth n must be a positive integer, got {n!r}")
    return int(n)


def _state(x, d: int):
    """x as a complex (d,) vector, or None when x is None."""
    if x is None:
        return None
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (d,):
        raise DimensionMismatchError(f"state has shape {x.shape}, expected ({d},)")
    return x


def entangled_average(
    system: EntangledSystem,
    n: int,
    strategy: str = "spectral",
    x=None,
    budget: float | None = 1e8,
):
    """The entangled Cesaro mean at depth n.

    Cost is estimated up front in units of one d x d chain-step product
    (one batched matmul row, or one matvec when x is given):

        naive    : n^k * (2m - 1 + m ceil(log2 n))
        presum   : sum over collapsed blocks of n (2r - 1)   (r positions, r >= 2)
                   + 3 bit_length(n) per singleton block
                   + n^k_cross * (2 m_cross - 1)
        spectral : m + 1 + d^m (m + k) / d^3, independent of n

    with k_cross the blocks that cross (no nesting order collapses them) and
    m_cross their positions; for nested alpha the presum cost is linear in n.
    Estimates above `budget` raise BudgetExceededError before any work
    happens, as do power stacks (plus two working buffers) beyond 2 GiB.
    budget=None disables the cost check (the memory cap stays); a NaN
    budget raises ValidationError.

    spectral runs when every operator carries a certificate and the dense
    d^m eigen-index weight fits under the memory cap; otherwise it falls
    back to presum, guards included.  It decides resonance from exact
    angles, so it reaches n = 2^40 and beyond in one call.

    With x given the chains act on x and a vector is returned; otherwise the
    operator mean itself.  The strategies agree to ~1e-10 relative; presum
    is exact at every n, not just convergent, since it reorders finite sums.
    """
    mats = [op.matrix for op in system.operators]
    return _evaluate_discrete(mats, list(system.connectors), system.partition, _depth(n),
                              strategy, _state(x, system.dim), budget,
                              [op.certificate for op in system.operators])


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
    checks a 1e-12 relative residual.  The stacked matrices carry no
    certificate, so strategy="spectral" runs presum here.
    """
    n = _depth(n)
    m, d = st.m, st.block_dim
    part = st.partition
    mats = [st.script_t] * (m - 1) + [st.script_s]
    conns = [st.script_a] * (m - 1)
    x, big_x = _state(x, d), None
    if x is not None:
        big_x = np.zeros(m * d, dtype=np.complex128)
        big_x[:d] = x
    out = _evaluate_discrete(mats, conns, part, n, strategy, big_x, budget)
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

    weights is the list [a_1, ..., a_k]: the generalized power average with
    every slot on one index block, i.e. one fully entangled chain with
    T_1 = u^{-k} at the rightmost position, T_2 = ... = T_{k+1} = u and
    connectors [a_k, ..., a_1].
    """
    weights = list(weights)
    if not weights:
        raise DimensionMismatchError("need at least one weight operator")
    return generalized_power_average(
        u, weights, [1] * len(weights), n, strategy=strategy, x=x, budget=budget
    )


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
    # one wrapped operator (one eig) per distinct matrix: u and each u^{-c}
    inv_powers = {c: as_operator(np.linalg.matrix_power(u_inv, c)) for c in set(counts.values())}
    # positions 1..k (chain order, rightmost first): u^{-c_a} driven by block a
    ops = [inv_powers[counts[a]] for a in range(1, k + 1)]
    beta = list(range(1, k + 1))
    # positions k+1..k+m: u driven by block alpha(m), alpha(m-1), ..., alpha(1)
    u_op = as_operator(u)
    for j in range(m, 0, -1):
        ops.append(u_op)
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
