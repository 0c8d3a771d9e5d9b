"""Entangled multi-index Cesaro averages.

The central object is the average

    (1/n^k) sum_{n_1..n_k = 1..n}  T_m^{n_alpha(m)} A_{m-1} ... A_1 T_1^{n_alpha(1)}

where alpha maps the m chain positions onto k index blocks (surjectively), the
T_j are power-bounded operators on the same space and the A_j are arbitrary
connecting operators.  Positions sharing a block are entangled: they are
driven by the same lattice variable, which is what makes the average refuse
to factor into a product of one-variable means.

Two evaluation strategies:

* ``spectral`` the closed form, default.  When every T_j carries an
  eigenbasis record T_j = S_j diag(lam_j) S_j^{-1} (exact for a synthesized
  operator, float for a well-conditioned raw one), the mean is
  S_m (sum over inner eigen-indices of W * prod_j C_j) S_1^{-1} with cores
  C_j = S_{j+1}^{-1} A_j S_j, and W has one weight per block of alpha,
  g_n(z) = (1/n) sum_{k=1..n} z^k of the product z of its eigenvalues (1 on
  resonant cells), at a cost free of n.  ``_spectral_mean``, the contraction
  of both means and both limits, follows presum's plan.  Without a record on
  every position, or past the memory cap, it falls back to ``presum``.
* ``presum``  the contraction planner.  A block whose positions are
  adjacent once the blocks nested inside it are collapsed reduces exactly to
  one fixed matrix: a singleton block to the power mean (1/n) sum T^j, built
  by binary doubling, and a block of r positions to the mean over j of
  T_q^j G ... G T_p^j, one batched product over power stacks (themselves
  built by doubling) with G the fixed products between its positions.  So
  alpha = [1, 2, 2, 1] is first M = (1/n) sum T_3^j A_2 T_2^j, then
  (1/n) sum T_4^j A_3 M A_1 T_1^j: O(n) instead of O(n^2).  Only crossing
  blocks such as [1, 2, 1, 2] are left to the lattice walk.

Every finite sum is a weighted mean with one (n,) weight vector shared by
all blocks (see ``lattice_chain_mean``), and a state x travels as one d x 1
column, the right-hand side of the chain.  ``_route`` decides, prices and
refuses every finite mean's route before any work; see ``entangled_average``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptyAlphaError,
    NonConvergenceError,
    NotInvertibleError,
    NotSurjectiveError,
    ValidationError,
)
from .operators import (DISCRETE, EIGENBASIS_COND_CAP, SpectralOperator, SpectralPoint,
                        _block_diagonal, _exact_literal, _exact_phases, _on_clock, _parse_exact,
                        _require_bounded, angle_value, as_operator, parse_angle)

MEMORY_CAP_BYTES = 2 << 30  # refuse power stacks beyond 2 GiB
STRATEGIES = ("presum", "spectral")
RESONANCE_TOL = 1e-8  # limits' default tol, and the tol of the means' snap (_resonant_to_one)
MITM_THRESHOLD = 100_000  # combinations per block above which the meet-in-the-middle runs


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

    plan = functools.cached_property(lambda self: plan_chain(self))  # computed once


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
    ids = set(int(v) for v in vals)
    k = max(ids)
    if len(ids) < k:  # the first three missing ids are at most len(ids) + 3
        missing = [b for b in range(1, min(k, len(ids) + 4)) if b not in ids][:3]
        raise NotSurjectiveError(f"alpha skips {k - len(ids)} of blocks 1..{k}, first {missing}")
    return Partition(tuple(int(v) for v in vals))


@dataclass(frozen=True)
class EntangledSystem:
    """Partition plus operators (or generators) T_1..T_m and connectors A_1..A_{m-1}."""

    partition: Partition
    operators: tuple[SpectralOperator, ...]
    connectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    clock = property(lambda self: self.operators[0].clock)
    semigroups = property(lambda self: self.operators)  # the members' continuous-time name
    # the block table (_block_table): built on first use, freed with the system
    blocks = functools.cached_property(lambda self: _block_table(self.operators, self.partition))


def _validate_system(alpha, members, connectors) -> EntangledSystem:
    """The system of members at the positions of alpha, validated.

    Shared by make_system, make_continuous_system and the CLI: alpha may be
    a Partition or a sequence of block ids, there must be one member per
    position, all of one dimension d, and m-1 connectors of shape (d, d),
    identities when connectors is None.
    """
    part = alpha if isinstance(alpha, Partition) else make_partition(alpha)
    if len(members) != part.m:
        raise DimensionMismatchError(
            f"partition has m={part.m} positions but {len(members)} members given"
        )
    d = members[0].dim
    if any(member.dim != d for member in members):
        raise DimensionMismatchError(f"{members[0].clock.noun}s must share one dimension")
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
    return EntangledSystem(part, members, conns)


def make_system(alpha, operators, connectors=None) -> EntangledSystem:
    """Assemble and validate an EntangledSystem.

    alpha may be a Partition or a sequence of block ids.  operators are
    SpectralOperators or raw matrices (wrapped via the eigensolver), not
    generators; connectors default to identities.  Every operator must pass
    the power-boundedness verdict.
    """
    system = _validate_system(alpha, tuple(as_operator(t) for t in operators), connectors)
    _require_bounded(system.operators)
    return system


class _Kahan:
    """Elementwise compensated accumulator for complex arrays; starts at 0."""

    def __init__(self):
        self.s = self._c = 0j

    def add(self, v):
        y = v - self._c
        t = self.s + y
        self._c = (t - self.s) - y
        self.s = t


def _power_stack(t: np.ndarray, n: int, first: int = 1) -> np.ndarray:
    """Powers [T^first, ..., T^(first+n-1)], first 0 or 1, by doubling: over the
    powers from T, out[k:2k] = T^k @ out[:k], with T^k read back as out[k-1].
    A midpoint grid stacks [I, P, ..., P^(Q-1)] of its step P = e^{hB} (first=0)."""
    p = np.asarray(t, dtype=np.complex128)
    out = np.empty((n,) + p.shape, dtype=np.complex128)
    if not first:
        out[0] = np.eye(p.shape[0])
    powers = out[1 - first :]
    powers[:1] = p
    k = 1
    while k < len(powers):
        step = min(k, len(powers) - k)
        np.matmul(powers[k - 1], powers[:step], out=powers[k : k + step])
        k += step
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


def _chain(factors, connectors):
    """The ordered product F_m A_(m-1) ... A_1 F_1, batched over leading axes.

    F_1 may already carry a state as one column, (..., d, 1), and the
    product is then the chain applied to it.
    """
    cur = factors[0]
    for a, f in zip(connectors, factors[1:]):
        cur = f @ (a @ cur)
    return cur


def lattice_chain_mean(factors, connectors, n: int, weights):
    """Weighted lattice mean of chain products: the planner's crossing remainder.

    factors : list of m entries ("stack", axis, S), one per chain position,
        with S of shape (n, d, d); positions sharing an axis are driven by
        the same lattice variable.  The first stack may be (n, d, 1), a
        state already applied, and the mean is then a d x 1 column.
    connectors : m-1 matrices interleaved between positions.
    n : lattice edge length (stacks must have leading dimension n).
    weights : (n,) weights shared by every axis; 1/n each for the uniform
        mean, the quadrature weights over t on a grid.

    The last axis (highest id) is evaluated as one batched matmul sweep and
    reduced by one weighted sum; the remaining axes run as Python loops that
    scale each slice by their weights and accumulate it with Kahan
    compensation.
    """
    axes = sorted({axis for _, axis, _ in factors})
    inner, outer = axes[-1], axes[:-1]
    total = _Kahan()
    for combo in itertools.product(range(n), repeat=len(outer)):
        idx = dict(zip(outer, combo))
        cur = _chain([s if axis == inner else s[idx[axis]] for _, axis, s in factors], connectors)
        scale = math.prod(weights[i] for i in combo)
        total.add(np.tensordot(weights, cur, axes=1) * scale)
    return total.s


def _as_float(n: int) -> float:  # inf past the float range, where float(n) raises
    return float(n) if n <= sys.float_info.max else math.inf


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
    widest: int  # positions of the largest block

    def cost(self, n: int, single: float) -> float:
        """Chain-step products: n (2r - 1) per collapsed r-position block,
        `single` per singleton block, n^k_cross (2 m_cross - 1) for the rest;
        a float, inf past the float range."""
        nf = _as_float(n)
        total = sum(nf * (2 * len(s) - 1) if len(s) > 1 else single for s in self.spans)
        if self.crossing:  # a product of floats reads inf past their range, where ** raises
            total += math.prod([nf] * len(self.crossing)) * (2 * self.remaining - 1)
        return total

    def grids(self, d: int) -> tuple[float, float]:
        """(largest block grid, crossing remainder's grid or 0) at d eigen-indices a position."""
        return float(d) ** self.widest, float(d) ** self.remaining if self.crossing else 0.0


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
    return Plan(tuple(spans), tuple(pending), stacked, len(live), max(map(len, blocks.values())))


def _walk(part: Partition, connectors, collapse, remainder, x=None):
    """The chain x (a d x 1 state, or None), T_1, A_1, ..., T_m, rightmost first, walked by
    plan for presum (_contract) and spectral (_spectral_mean): each span's entries p_1, G_1,
    ..., p_r (G_i the fixed products between them) become collapse(entries), merged with its
    fixed neighbours; the rest is remainder(chain, right), right the fixed factor on its right
    (holding the state when x is given) or None, with one on its left applied after."""
    chain: list = [0] if x is None else [x, 0]  # ints are positions
    for j in range(1, part.m):
        chain += [connectors[j - 1], j]
    for span in part.plan.spans:
        lo, hi = (next(i for i, e in enumerate(chain) if isinstance(e, int) and e == j)
                  for j in (span[0], span[-1]))
        fixed = collapse(chain[lo : hi + 1])
        # positions alternate with fixed factors, so both neighbours are fixed
        if hi + 1 < len(chain):
            hi += 1
            fixed = chain[hi] @ fixed
        if lo > 0:
            lo -= 1
            fixed = fixed @ chain[lo]
        chain[lo : hi + 1] = [fixed]

    if len(chain) == 1:
        return chain[0]
    right = chain.pop(0) if not isinstance(chain[0], int) else None
    left = chain.pop() if not isinstance(chain[-1], int) else None
    out = remainder(chain, right)
    return out if left is None else left @ out


def _contract(part: Partition, connectors, stack, single, weights, x=None):
    """The weighted mean of a chain by its plan (_walk), over (n, d, d) samples stack(j)
    (T_j^1..T_j^n, or T_j at quadrature nodes) with single(j) their weighted mean and
    weights the (n,) weights of every block (None when every block is a singleton): a
    collapsed block p_1 < ... < p_r is the weighted sum of T_(p_r)^n G_(r-1) ... G_1
    T_(p_1)^n, the rest a lattice_chain_mean."""

    def collapse(entries):  # p_1, G_1, p_2, ..., G_(r-1), p_r
        if len(entries) == 1:
            return single(entries[0])
        cur = stack(entries[0])
        half, full = np.empty_like(cur), np.empty_like(cur)  # working buffers
        for g, j in zip(entries[1::2], entries[2::2]):
            np.matmul(g, cur, out=half)
            cur = np.matmul(stack(j), half, out=full)
        return np.tensordot(weights, cur, axes=1)

    def remainder(chain, right):
        factors = [("stack", part.alpha[j], stack(j)) for j in chain[::2]]
        if x is not None:  # right holds the state
            factors[0] = factors[0][:2] + (factors[0][2] @ right,)
            right = None
        out = lattice_chain_mean(factors, chain[1::2], len(weights), weights)
        return out if right is None else out @ right

    return _walk(part, connectors, collapse, remainder, x)


def _estimate_cost(strategy: str, n: int, part: Partition, d: int = 1) -> float:
    """Documented cost model, in units of one chain-step product (d^3 flops).

    presum   : the plan's cost, with 3 bit_length(n) products per singleton
    spectral : m + 1 products for cores and bases, plus (G + X) (m + k) / d^3
               over the largest block grid G and crossing remainder's X (Plan.grids)
    """
    if strategy == "spectral":
        return part.m + 1 + sum(part.plan.grids(d)) * (part.m + part.k) / d**3
    return part.plan.cost(n, 3 * n.bit_length())


def _stack_bytes(mats, positions, n: int) -> float:
    """One (n, d, d) complex stack per distinct matrix, plus two working buffers.

    A collapsed block's batched product alternates between two (n, d, d)
    arrays, and identical matrix objects share one stack; inf past the float range.
    """
    if not positions:
        return 0
    d = mats[0].shape[0]
    return (len({id(mats[j]) for j in positions}) + 2) * d * d * 16 * _as_float(n)


def _per_matrix(mats, build):
    """j -> build(mats[j]), built once per distinct matrix object (by id)."""
    built: dict[int, np.ndarray] = {}

    def get(j: int) -> np.ndarray:
        key = id(mats[j])
        if key not in built:
            built[key] = build(mats[j])
        return built[key]

    return get


def _exact_sums(axes, common: int, additive: bool = False) -> np.ndarray:
    """Sums of one exact value per axis over their grid, as integers over common.

    axes hold Fractions (or ints) whose denominators divide common.  In
    discrete time the sums are reduced mod common, so a cell is 0 exactly when
    its angles sum to 0 mod 1; in additive mode (frequencies) exactly when
    they sum to 0.  The grid is int64 when common and every sum fit, else ints.
    """
    cols = [[a.numerator * (common // a.denominator) for a in axis] for axis in axes]
    fits = max(common, sum(max(map(abs, col), default=0) for col in cols)) < 2**63
    dtype = np.int64 if fits else object
    total = np.zeros((), dtype=dtype)
    for col in cols:
        total = total[..., np.newaxis] + np.array(col, dtype=dtype)
    return total if additive else total % common


def _aggregate(values, additive: bool):
    """Per cell of the broadcast values, math.fsum of one value per position, or their
    product as (re, im): from 1 + 0j in position order, multiplied as CPython multiplies
    complex numbers, (a c - b d) + (a d + b c) i, so that each cell equals
    math.prod(values, start=1+0j) bit for bit (numpy's complex multiply need not).
    No values give one cell: 0.0, or (1.0, 0.0)."""
    if additive:
        shape = np.broadcast_shapes(*map(np.shape, values))
        cols = [np.broadcast_to(v, shape).ravel().tolist() for v in values]
        cells = zip(*cols) if cols else [()]  # no values: shape () and one empty cell
        return np.fromiter(map(math.fsum, cells), np.float64, math.prod(shape)).reshape(shape)
    re, im = 1.0, 0.0
    for v in values:
        re, im = re * v.real - im * v.imag, re * v.imag + im * v.real
    return np.asarray(re), np.asarray(im)


def _score(values, exact, exact_hit, *, additive: bool, tol: float):
    """(hit, residual) per cell of broadcast per-position arrays.

    A cell whose picks are all exact (every mask in exact set) is decided by
    exact_hit with residual 0, any other by its float residual <= tol:
    |sum| or |prod - 1| (see _aggregate).  exact_hit is None when no cell
    has only exact picks, and exact is then not read.
    """
    agg = _aggregate(values, additive)
    res = np.abs(agg) if additive else np.hypot(agg[0] - 1.0, agg[1])
    if exact_hit is None:
        return res <= tol, res
    all_exact = functools.reduce(np.logical_and, exact)
    res[all_exact] = 0.0
    return np.where(all_exact, exact_hit, res <= tol), res


def _grid(arrays):
    """Per-axis arrays reshaped to broadcast over their grid (C order)."""
    k = len(arrays)
    return [a.reshape([1] * i + [-1] + [1] * (k - 1 - i)) for i, a in enumerate(arrays)]


def _normalize_entry(e, additive: bool):
    """Return (float_entry, exact_fraction_or_none); non-finite floats are refused."""
    if isinstance(e, SpectralPoint):
        if additive:  # an angle is a turn of the circle, not a frequency
            raise ValidationError("additive mode needs real frequencies, not unit-circle points")
        fr = e.angle
        if fr is None:
            val = complex(e.value)
    elif _exact_literal(e):  # a Fraction is not parsed again
        fr = (e if isinstance(e, Fraction) else parse_angle(e) if not additive
              else _parse_exact(e, "frequency", ValidationError))
        fr = fr if additive or 0 <= fr.numerator < fr.denominator else fr % 1
    else:
        fr = None
        val = float(e) if additive else complex(e)
    if fr is not None:
        return (fr.numerator / fr.denominator if additive else angle_value(fr)), fr
    if not cmath.isfinite(val):
        raise ValidationError(f"entry {e!r} is not finite")
    if not additive and abs(abs(val) - 1.0) > 1e-6:
        raise ValidationError(f"entry {e!r} is far from the unit circle")
    return val, None


def _normalized(spectra, additive: bool) -> list:
    """Each position's entries as _normalize_entry returns them; a SpectralOperator's are its
    boundary points as its clock lists them, refused unless additive matches the clock."""
    for sp in spectra:
        if isinstance(sp, SpectralOperator) and sp.clock.additive != additive:
            raise ValidationError(f"{sp.clock.noun} given with additive={additive}")
    return [[_normalize_entry(e, additive) for e in
             ([sp.clock.resonance_entry(p) for p in sp.unimodular_spectrum]
              if isinstance(sp, SpectralOperator) else sp)]
            for sp in spectra]


def _unravel(flat, shape) -> list:
    """Per-axis indices of flat grid indices; a grid of no axes has one cell."""
    return list(np.unravel_index(flat, shape)) if shape else []


def _pairs(keys, right_keys):
    """(left, right) flat indices with equal keys, keys in turn: for each key array, by left
    index, and equal right keys in no particular order (the caller sorts the pairs)."""
    order = np.argsort(right_keys)
    ranked = right_keys[order]
    left_keys = np.concatenate(keys)
    lo = np.searchsorted(ranked, left_keys, "left")
    count = np.searchsorted(ranked, left_keys, "right") - lo
    left = np.repeat(np.tile(np.arange(len(keys[0])), len(keys)), count)
    start = np.repeat(lo - np.cumsum(count) + count, count)
    return left, order[start + np.arange(len(left))]


def _block_solutions(cands, *, additive, tol, mitm_threshold):
    """Solve one block: (columns, residuals) of its resonant combinations.

    cands : list (one per block position) of lists of (entry, exact) pairs.
    Returns one index array into cands per position and the residuals, in
    lexicographic order of the combinations.  A combination whose picks are
    all exact is decided in integers: the exact values as numerators over
    one common denominator, summed (mod it in discrete time;
    _exact_sums), with residual 0.  Any other is decided by its
    float residual, |prod - 1| or |sum| of its entries taken in position
    order (_aggregate), against tol.

    Up to mitm_threshold combinations the whole grid is decided at once.
    Above it the block splits into a left and a right half, and each half's
    grid is placed on the constraint line or circle: by its exact sum when
    the whole block is exact, so that equal keys are hits, and otherwise by
    the float cell of width tol (or the rounding of a half-sum, if wider).
    Right keys are sorted once, each left half's complement (in float mode
    also its +-2 neighbouring cells, wrapping at 1) is looked up with
    searchsorted, and the pairs found are decided as above, then put in
    lexicographic order by a stable lexsort of their flat half-grid indices.
    Memory stays at the size of the halves and the pairs.
    """
    sizes = [len(c) for c in cands]
    fracs = [[0 if fr is None else fr for _, fr in c] for c in cands]
    common = math.lcm(*(fr.denominator for axis in fracs for fr in axis))
    exact = [[fr is not None for _, fr in c] for c in cands]
    all_exact = all(map(all, exact))
    has_exact = all_exact or any(map(any, exact))  # all_exact also when every axis is empty
    if not all_exact:
        exact = [np.array(e, dtype=bool) for e in exact]
        values = [np.array([e for e, _ in c], dtype=np.float64 if additive else np.complex128)
                  for c in cands]

    if math.prod(sizes) <= mitm_threshold:
        exact_hit = _exact_sums(fracs, common, additive) == 0 if has_exact else None
        if all_exact:
            hit = exact_hit
        else:
            hit, res = _score(_grid(values), _grid(exact), exact_hit, additive=additive, tol=tol)
        cols = np.nonzero(hit)
        return cols, np.zeros(len(cols[0])) if all_exact else res[cols]

    half = len(cands) // 2
    shapes = (sizes[:half], sizes[half:])
    if has_exact:
        left_sum, right_sum = (_exact_sums(part, common, additive).ravel()
                               for part in (fracs[:half], fracs[half:]))
        if left_sum.dtype != right_sum.dtype:
            left_sum, right_sum = left_sum.astype(object), right_sum.astype(object)
        complement = -left_sum if additive else -left_sum % common
    if all_exact:
        right_keys, keys = right_sum, [complement]
    else:
        # |e^{2 pi i theta} - 1| <= tol forces |theta| <~ tol / (2 pi); be generous
        scale = sum(max((abs(e) for e, _ in c), default=0.0) for c in cands) if additive else 1.0
        width = max(tol, 1e-15, 4 * sys.float_info.epsilon * scale)
        n_cells = math.ceil(1.0 / width)

        def place(arrays, shape):
            """Where each half-tuple of the grid sits on the constraint line or circle."""
            agg = _aggregate(_grid(arrays), additive)
            if not additive:
                agg = np.arctan2(agg[1], agg[0]) / (2 * math.pi) % 1.0
            return np.broadcast_to(agg, shape).ravel()

        v = place(values[:half], shapes[0])
        cells = [np.floor(x / width).astype(np.int64)
                 for x in (place(values[half:], shapes[1]), -v if additive else -v % 1)]
        if additive:
            right_keys, keys = cells[0], [cells[1] + off for off in (-2, -1, 0, 1, 2)]
        else:
            # wrap at 1: the first and last cells are neighbours, and theta
            # right below 1 can round to 1.0 exactly; a cell is looked up once
            right_keys, keys = cells[0] % n_cells, []
            for off in (-2, -1, 0, 1, 2):
                key = (cells[1] + off) % n_cells
                keys.append(np.where(np.any([key == k for k in keys], axis=0), -1, key))
    li, ri = _pairs(keys, right_keys)
    if not all_exact:
        digits = _unravel(li, shapes[0]) + _unravel(ri, shapes[1])
        exact_hit = right_sum[ri] == complement[li] if has_exact else None
        hit, res = _score([a[d] for a, d in zip(values, digits)],
                          [e[d] for e, d in zip(exact, digits)],
                          exact_hit, additive=additive, tol=tol)
        li, ri, res = li[hit], ri[hit], res[hit]
    # flat indices in the narrowest unsigned type: at most 16 bits sort by radix
    order = np.lexsort(tuple(i.astype(np.min_scalar_type(math.prod(shape)))
                             for i, shape in zip((ri, li), shapes[::-1])))
    li, ri = li[order], ri[order]
    cols = _unravel(li, shapes[0]) + _unravel(ri, shapes[1])
    return cols, np.zeros(len(li)) if all_exact else res[order]


class _Block:
    """One block of a system's table (_block_table): its members and, built on first use and
    kept, what depends on them alone.  hits: the columns of one _block_solutions call over
    their boundary points at RESONANCE_TOL, as limit_operator decides (uint16: at most
    linalg.DIM_CAP points a position); resonant: hits over the boundary prefix of the
    eigen-index grid (SpectralOperator._owners), so that a cluster resonates whole; sums: with
    every record exact, its exact sums S over common there (_aliased), else None; grid: on the
    discrete clock, _cesaro_weight's N-independent arrays (_weight_grid)."""

    def __init__(self, members, additive: bool):
        self.members, self.additive = tuple(members), additive

    @functools.cached_property
    def hits(self) -> tuple:
        cols, _ = _block_solutions(_normalized(self.members, self.additive), additive=self.additive,
                                   tol=RESONANCE_TOL, mitm_threshold=MITM_THRESHOLD)
        return tuple(col.astype(np.uint16) for col in cols)

    @functools.cached_property
    def resonant(self) -> np.ndarray:
        points = np.zeros([len(member.unimodular_spectrum) for member in self.members], dtype=bool)
        points[self.hits] = True
        return points[np.ix_(*(member._owners for member in self.members))]

    @functools.cached_property
    def sums(self):
        recs = [member.eigenbasis for member in self.members]
        if not all(rec.exact for rec in recs):
            return None
        common = math.lcm(*(a.denominator for rec in recs for a in rec.angles))
        return _exact_sums([rec.angles for rec in recs], common, additive=True), common

    grid = functools.cached_property(lambda self: _weight_grid(self))


def _block_table(members, part: Partition) -> dict:
    """positions -> _Block of the members at them, for every block of part: a system's table,
    which the means, the Gauss-Legendre weights and limit_operator (at RESONANCE_TOL) read, so
    that a block is decided once per system."""
    additive = members[0].clock.additive
    return {positions: _Block([members[j] for j in positions], additive)
            for positions in part.blocks.values()}


def _aliased(sums, h: Fraction) -> np.ndarray:
    """Cells whose exact frequencies alias at step h: (sum phi) h an integer, with sum phi = S /
    common and h = p / q in lowest terms, that is S a multiple of common q / gcd(common, p)."""
    s, common = sums
    mod = common * h.denominator // math.gcd(common, h.numerator)
    return s % mod == 0 if s.dtype == object or mod < 2**63 else s == 0


def _resonant_to_one(g, block: _Block, h=None) -> np.ndarray:
    """g with 1 on the block's resonant cells, which lie in the boundary prefix of its grid: the
    table's decision (_Block.resonant), where generators are decided on their frequencies, which
    no small h makes small; at a midpoint step h with every record exact, the aliased cells."""
    cells = block.resonant if h is None or block.sums is None else _aliased(block.sums, h)
    g[tuple(map(slice, cells.shape))][cells] = 1
    return g


def _weight_grid(block: _Block, h=None) -> tuple:
    """(L, e^L, expm1(L), fixed) over the block's eigen-index grid, what _cesaro_weight reads.

    Axis i runs over the exponents of members[i] (SpectralOperator.exponents), and L = log z is
    the sum of one per axis with Im L in (-pi, pi].  fixed marks the cells whose weight is 1 at
    every n: expm1(L) == 0, and the resonant cells (_resonant_to_one); expm1(L) reads 1 there.
    A midpoint step h takes the exponents mu h and exact angles phi h mod 1 (_exact_phases), not
    the log of a rounded e^{mu h}, which would lose |mu h| digits as h -> 0, and no e^L (None).
    """
    log_z = np.zeros((), dtype=np.complex128)
    for member in block.members:
        eps = member.exponents
        if h is not None:  # exact indices from their angles, in integers
            phi = _exact_phases(member.eigenbasis.angles if member.eigenbasis.exact else (), h)
            eps = np.concatenate([2j * math.pi * np.array(phi), eps[len(phi):] * float(h)])
        log_z = np.add.outer(log_z, eps)
    log_z.imag -= 2 * math.pi * np.round(log_z.imag / (2 * math.pi))
    den = np.expm1(log_z)
    fixed = _resonant_to_one(den == 0, block, h)
    den[fixed] = 1.0
    return log_z, None if h is not None else np.exp(log_z), den, fixed


def _cesaro_weight(block: _Block, n: int, h=None) -> np.ndarray:
    """g_n(z) = (1/n) sum_{k=1..n} z^k over one block's eigen-index grid, in log space.

    Every cell reads g_n = e^L expm1(n L) / (n expm1(L)) from the block's N-independent grid
    (_Block.grid, _weight_grid), and 1 on its fixed cells: no cancellation near z = 1, and no
    growth where a float record's |z| rounds past 1 (Re eps <= 0).  Every axis takes n L from
    the one reduced L; at large n a phase error in e^{nL} moves only terms of size
    <= 2 / (n |1 - z|).  Only this arithmetic depends on n.

    With an exact step h the members are generators, read as e^{hB}, and k runs over 0..n-1,
    the midpoint rule's powers: the same without the leading e^L, on a grid built per step,
    whose aliased cells resonate.
    """
    log_z, e_l, den, fixed = block.grid if h is None else _weight_grid(block, h)
    # past 2^64 every stable e^{n eps} is 0.0 already; a midpoint's n mu h = mu t is not capped
    g = np.multiply(log_z, float(min(n, 2**64) if h is None else n))
    np.expm1(g, out=g)
    if e_l is not None:
        g *= e_l
    g *= 1 / n  # a float for any int n, where n times a float overflows past 2^1024
    g /= den
    g[fixed] = 1.0
    return g


def _spectral_mean(rights, lefts, connectors, part: Partition, block_weight, x=None):
    """R_m (sum over the inner eigen-indices of W * prod_j C_j) L_1, by the plan (_walk).

    lefts[j] (r_j x d) inverts rights[j] (d x r_j), an eigenbasis of position
    j or its boundary part, on its range.  W is the product over the blocks
    of block_weight(positions) on its positions' axes: g_n, the node sum, or
    the limits' 0/1 resonance indicator.  A collapsed block p_1 < ... < p_r
    multiplies its own weight in place by the cores C_i = L_(p_(i+1)) G_i
    R_(p_i), sums its inner axes to F and becomes R_(p_r) F L_(p_1), at
    O(d^r); only the crossing remainder gets one weight over all its axes.
    """

    def reduce(weight, chain):  # chain: positions and the fixed factors between them
        positions = chain[::2]
        for i, g in enumerate(chain[1::2]):
            core = lefts[positions[i + 1]] @ g @ rights[positions[i]]
            view = [1] * len(positions)
            view[i], view[i + 1] = core.shape[::-1]
            weight *= core.T.reshape(view)
        right = rights[positions[-1]]  # a singleton's R diag(w) is R scaled by columns
        right = right * weight if len(positions) == 1 else right @ weight.sum(
            axis=tuple(range(1, len(positions) - 1))).T
        return right @ lefts[positions[0]]

    def collapse(entries):  # a weight of another dtype (the limit's bool) is copied
        return reduce(np.asarray(block_weight(tuple(entries[::2])), dtype=np.complex128), entries)

    def remainder(chain, right):
        positions, blocks = chain[::2], part.blocks
        weight = np.ones([rights[j].shape[1] for j in positions], dtype=np.complex128)
        for a in part.plan.crossing:
            view = [rights[j].shape[1] if j in blocks[a] else 1 for j in positions]
            weight *= block_weight(blocks[a]).reshape(view)
        out = reduce(weight, chain)
        return out if right is None else out @ right

    return _walk(part, connectors, collapse, remainder, x)


def _record_mean(members, connectors, part: Partition, block_weight, x=None):
    """_spectral_mean in the members' eigenbasis records; block_weight takes a block's positions."""
    recs = [member.eigenbasis for member in members]
    return _spectral_mean([rec.basis for rec in recs], [rec.basis_inv for rec in recs], connectors,
                          part, block_weight, x)


def _spectral_bytes(part: Partition, d: int) -> float:
    """Peak bytes of the spectral route (_spectral_mean), the system's block table included.

    The table (_Block) keeps per cell of every block grid of r positions at most 50 bytes
    (the discrete clock's L, e^L, expm1(L) and two masks; the continuous clock's mask and
    int64 sums take 9) and 2 r for the hits, at most one per cell.  One call adds 24 per cell
    of the largest grid: g, 16, or on a midpoint step its own grid, 49 over a table of 9; the
    crossing remainder's weight, 16 per cell, outlives its blocks'; a broadcast takes one numpy
    buffer, and cores and fixed factors m d x d matrices, as do a midpoint's half steps and
    connectors.
    """
    largest, crossing = part.plan.grids(d)
    table = sum((50 + 2 * len(block)) * float(d) ** len(block) for block in part.blocks.values())
    return table + 24 * largest + 16 * (crossing + 2 * part.m * d * d + np.getbufsize())


def _check_strategy(strategy) -> None:
    """ValidationError unless strategy is one of STRATEGIES: every mean's one refusal of it."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}, expected {'|'.join(STRATEGIES)}")


def _route(strategy, budget, members, part: Partition, d: int, n: int, depth: str, price) -> str:
    """Decide, price and refuse the route of one finite mean, before any work.

    spectral runs when every member has an eigenbasis record and the bytes
    price("spectral") counts fit MEMORY_CAP_BYTES, else presum, whose refusals
    name the reason.  price(route) is the caller's (cost, bytes), bytes being
    presum's power stacks; depth names n in refusals ("n", or a rule's "Q").
    """
    _check_strategy(strategy)
    if budget is not None and np.isnan(budget):
        raise ValidationError("budget must be a number or None, got nan")
    route, fallback = strategy, None
    cost, nbytes = price(route)
    if route == "spectral":
        bare = [j for j, member in enumerate(members, start=1) if member.eigenbasis is None]
        fallback = (  # a bounded member without a record has its cond_2(V) past the cap
            f"position {bare[0]} has no eigenbasis: cond_2(V) = "
            f"{members[bare[0] - 1].power_bound_estimate:.2e}, cap {EIGENBASIS_COND_CAP:.0e}"
            if bare else "no eigenbasis records" if not members
            else f"the spectral weight needs {nbytes / 2**30:.2f} GiB, above the memory cap"
            if nbytes > MEMORY_CAP_BYTES else None)
        if fallback:
            route, (cost, nbytes) = "presum", price("presum")
    over_budget = budget is not None and cost > budget
    if over_budget or (route == "presum" and nbytes > MEMORY_CAP_BYTES):
        if route == "spectral":  # the grids the planned route forms
            crossing = f", crossing grid={d}^{part.plan.remaining}" if part.plan.crossing else ""
            grids = f"largest block grid={d}^{part.plan.widest}{crossing}"
        else:
            grids = f"lattice axes={len(part.plan.crossing)}"
        asked = f"spectral fell back to presum ({fallback})" if fallback else route
        detail = f"strategy={asked}, {depth}={n}, {grids}"
        remedy = f"raise the budget, lower {depth}, or switch strategy"
        raise BudgetExceededError(
            f"estimated cost {cost:.3e} exceeds budget {budget:.3e} ({detail}); {remedy}"
            if over_budget else f"power stacks would need {nbytes / 2**30:.2f} GiB "
            f"(cap {MEMORY_CAP_BYTES / 2**30:.0f} GiB, {detail}); {remedy}"
        )
    return route


def _frobenius(a) -> float:
    """||a||_F of finite entries, scaled by the largest |entry| so that no square overflows."""
    big = float(np.max(np.abs(a), initial=0.0))
    return big * float(np.linalg.norm(a / big)) if big else 0.0


def _step(member, s: float) -> np.ndarray:
    """e^{sB} of a generator: from its eigenbasis record, else linalg.expm."""
    rec = member.eigenbasis
    return (linalg.expm(member.matrix, s) if rec is None
            else (rec.basis * np.exp(rec.eigenvalues * s)) @ rec.basis_inv)


def _evaluate_discrete(mats, connectors, part: Partition, n, strategy, x, budget,
                       members=(), blocks=None, h=None, bounds=None):
    """The depth-n mean of the chain of mats; the spectral route reads the members' records and
    their block table (_block_table).  On a midpoint grid (step h) mats are generators, whose
    steps e^{hB} only presum builds; a presum mean that is not finite or exceeds its power
    bound (entangled_average) raises NonConvergenceError.  bounds: per position K_j, by
    default the members' power_bound_estimate."""
    d, depth = mats[0].shape[0], "n" if h is None else "Q"

    def price(route):  # bytes: the spectral route's grids, else presum's power stacks
        return _estimate_cost(route, n, part, d), (_spectral_bytes(part, d) if route == "spectral"
                                                   else _stack_bytes(mats, part.plan.stacked, n))

    route = _route(strategy, budget, members, part, d, n, depth, price)
    if route == "spectral":
        return _record_mean(members, connectors, part,
                            lambda positions: _cesaro_weight(blocks[positions], n, h), x)
    first = 1 if h is None else 0  # a midpoint grid's mean runs over P^0 .. P^(Q-1)
    if h is not None:  # one step per distinct generator, shared as its stack is
        step = _per_matrix(members, lambda sg: _step(sg, float(h)))
        mats = [step(j) for j in range(part.m)]
    stack = _per_matrix(mats, lambda t: _power_stack(t, n, first))
    single = _per_matrix(mats, lambda t: (_power_sum(t, n) if first
                                          else np.eye(d) + _power_sum(t, n - 1)) / _as_float(n))
    weights = np.broadcast_to(1 / n, (n,)) if part.plan.stacked else None  # a block walks
    out = _contract(part, connectors, stack, single, weights, x)
    if not np.isfinite(out).all():
        raise NonConvergenceError(f"the presum mean is not finite at {depth}={n}")
    # 1e-9 covers rounding in K_j and the norms
    if bounds is None:
        bounds = [member.power_bound_estimate for member in members]
    norms = [_frobenius(a) for a in [*connectors, 1.0 if x is None else x]]
    bound, norm = math.sqrt(d) * math.prod([*bounds, *norms]), _frobenius(out)
    if bounds and norm > bound * (1 + 1e-9):
        raise NonConvergenceError(
            f"the presum mean's norm {norm:.3e} at {depth}={n} exceeds {bound:.3e}"
            f", the bound sqrt(d) prod K_j prod ||A_j||_F of power-bounded factors")
    return out


def _state(x, d: int):
    """A (d,) state x as a complex d x 1 column, or None when x is None.

    A state travels through the evaluators as one column, the right-hand
    side of the chain; callers squeeze the result back to (d,) once.
    """
    if x is None:
        return None
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (d,):
        raise DimensionMismatchError(f"state has shape {x.shape}, expected ({d},)")
    return x[:, np.newaxis]


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

        presum   : sum over collapsed blocks of n (2r - 1)   (r positions, r >= 2)
                   + 3 bit_length(n) per singleton block
                   + n^k_cross * (2 m_cross - 1)
        spectral : m + 1 + (G + X) (m + k) / d^3, independent of n

    with k_cross the blocks that cross (no nesting order collapses them),
    m_cross their positions, G = d^r for the largest block and X = d^m_cross
    (or 0); for nested alpha the presum cost is linear in n.
    Estimates above `budget` raise BudgetExceededError before any work
    happens, as do power stacks (plus two working buffers) beyond 2 GiB.
    budget=None disables the cost check (the memory cap stays); a NaN
    budget raises ValidationError.

    spectral runs when every operator carries an eigenbasis record and its
    grids fit under the memory cap (_spectral_bytes), else presum, whose
    refusals then name the reason.  Resonance is decided from exact
    angles, or as limit_operator decides it with a float record in the
    block, and weights are formed in log space from the operators' exponents
    (_cesaro_weight), where |lam| = 1 + O(eps) cannot grow: n = 2^1100 is one call.
    The decisions and n-independent grids are kept in the system's block table
    (_block_table), so a later mean does only the n-dependent arithmetic.

    With x given the chains act on x and a vector is returned; otherwise the
    operator mean itself.  presum reorders the same finite sums, but its
    singleton means (_power_sum's doubling) drift linearly in n on
    unimodular eigenvalues: about 3e-13 relative at n = 2^10, 3e-10 at
    2^20 and 3e-7 at 2^30 (d = 12).  A presum mean that is not finite, or whose
    norm passes sqrt(d) prod K_j prod ||A_j||_F (K_j the power_bound_estimate,
    times ||x|| with a state), raises NonConvergenceError: a 2 x 2 Haar
    unitary's read 4.7e9 at n = 2^58.  spectral's singleton mean is S diag(g_n) S^-1.
    """
    mats = [op.matrix for op in _on_clock(system.operators, DISCRETE)]
    x = _state(x, system.dim)
    n = linalg._positive_int(n, "depth n")
    out = _evaluate_discrete(mats, list(system.connectors), system.partition, n, strategy,
                             x, budget, system.operators, system.blocks)
    return out if x is None else out[:, 0]


@dataclass(frozen=True)
class StackedSystem:
    """Block companion form of an entangled system on (m*d)-dimensional space.

    script_t = blockdiag(T_1, ..., T_{m-1}, I)
    script_s = blockdiag(I, ..., I, T_m)
    script_a = sum_a E_{a+1,a} (x) A_a   (connector A_a in block row a+1, col a)

    A chain started in block 1 is walked up one block per connector
    application, so the (m, 1) compression of the stacked chain reproduces
    the original chain exactly, summand by summand.  power_bounds: those of
    script_t and script_s, each the largest of its members' (1 for I), with or
    without certificates.  records: script_t and script_s as certified
    operators (see stacked_system), or ().
    """

    partition: Partition
    script_t: np.ndarray
    script_s: np.ndarray
    script_a: np.ndarray
    block_dim: int
    power_bounds: tuple[float, float]
    records: tuple[SpectralOperator, ...] = ()

    @property
    def m(self) -> int:
        return self.partition.m

    def _per_position(self, pair: tuple) -> tuple:
        """script_t's entry of pair at positions 1..m-1, then script_s's; () from ()."""
        return pair[:1] * (self.m - 1) + pair[1:]

    members = property(lambda self: self._per_position(self.records))
    blocks = functools.cached_property(lambda self: _block_table(self.members, self.partition))


def stacked_system(system: EntangledSystem) -> StackedSystem:
    """The block companion form of an entangled system of discrete time; when every operator
    carries a certificate, script_t and script_s get block-diagonal ones (_block_diagonal)."""
    ops = _on_clock(system.operators, DISCRETE)
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
    bounds = tuple(max([1.0] + [op.power_bound_estimate for op in group])
                   for group in (ops[:-1], ops[-1:]))
    records = () if any(op.certificate is None for op in ops) else (
        _block_diagonal(script_t, ops[:-1] + (None,), d, bounds[0]),
        _block_diagonal(script_s, (None,) * (m - 1) + ops[-1:], d, bounds[1]))
    return StackedSystem(system.partition, script_t, script_s, script_a, d, bounds, records)


def stacked_average(
    st: StackedSystem,
    n: int,
    strategy: str = "spectral",
    x=None,
    budget: float | None = 1e8,
):
    """Entangled average evaluated on the stacked space, then compressed.

    Runs _evaluate_discrete, the evaluator of entangled_average, on script_t /
    script_s / script_a: its presum planner collapses nested blocks and walks
    the lattice only over crossing ones.  Returns the (m, 1) block of the
    result (or the block-m component when x is given, embedded into block 1
    first).  Summand-by-summand this matches the direct
    chain exactly, so the two routes agree to roundoff; the acceptance suite
    checks a 1e-12 relative residual.  With st.records, strategy="spectral"
    runs on them as on any certified operators, independent of n; without
    (a member with no certificate) it runs presum, whose mean is refused above
    its power bound (st.power_bounds) as entangled_average's is.
    """
    n = linalg._positive_int(n, "depth n")
    m, d = st.m, st.block_dim
    mats = [st.script_t] * (m - 1) + [st.script_s]
    conns = [st.script_a] * (m - 1)
    x = _state(x, d)
    if x is not None:  # embedded into block 1
        x = np.concatenate([x, np.zeros(((m - 1) * d, 1), dtype=np.complex128)])
    out = _evaluate_discrete(mats, conns, st.partition, n, strategy, x, budget, st.members,
                             st.blocks if st.records else None,
                             bounds=st._per_position(st.power_bounds))
    return out[(m - 1) * d :, :d] if x is None else out[(m - 1) * d :, 0]


def multiple_ergodic_average(
    u,
    weights,
    n: int,
    strategy: str = "spectral",
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
    strategy: str = "spectral",
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
