"""Limit objects for entangled averages.

The limit of an entangled Cesaro mean is a finite sum over resonant tuples of
boundary eigenvalues, one per chain position, constrained block by block so
that the eigenvalues sharing a lattice variable multiply to one (in
continuous time: their frequencies sum to zero).  Tuples are enumerated
honestly: exactly when angles are exact rationals, with a declared tolerance
and a fragility flag otherwise.  Each contributes P_m A_{m-1} ... A_1 P_1;
with P_j = R_j[:, idx] L_j[idx, :] for boundary bases R_j, L_j, the sum is
the spectral mean's contraction (entangle._spectral_mean) with each block's
0/1 resonance indicator where the mean has g_n: its n -> infinity case.
The block solver lives in entangle, whose block table (entangle._block_table)
holds each block's decision at RESONANCE_TOL for the means and the limit;
this module imports it by name.

The Koopman-von Neumann diagnostic at the end is the scalar companion: it
inspects a nonnegative sequence for Cesaro smallness and proposes a density-
one index set along which the sequence tends to zero.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import entangle, linalg
from .entangle import (MITM_THRESHOLD, EntangledSystem, Partition, _block_solutions, _normalized,
                       make_partition)
from .errors import BudgetExceededError, EmptySequenceError, ValidationError
from .operators import (DISCRETE, SpectralOperator, SpectralPoint, _boundary_basis, _read_matrix,
                        _require_bounded, as_operator)

DEFAULT_TOL = entangle.RESONANCE_TOL
FRAGILE_BAND = 1e-10


def unimodular_spectrum(t, tol: float = DEFAULT_TOL) -> tuple[SpectralPoint, ...]:
    """Unit-circle eigenvalues of t, merged into clusters, sorted by phase.

    SpectralOperators answer from their stored bookkeeping (exact angles when
    synthesized), generators are refused.  Raw matrices go through the
    eigensolver; a cluster counts as unimodular when its center is within tol.
    A tol that is not positive and finite is refused for either input.
    """
    linalg._positive_finite(tol, "boundary band")
    if isinstance(t, SpectralOperator):
        return as_operator(t).unimodular_spectrum
    return _read_matrix(linalg.as_matrix(t, square=True), 1e-9, tol, DISCRETE).unimodular_spectrum


@dataclass(frozen=True)
class ResonantTuple:
    """One resonant assignment of spectrum points to chain positions.

    entries : per position, the unimodular eigenvalue (multiplicative mode)
        or the real frequency (additive mode).
    exact : per position, the exact Fraction (angle in turns, or frequency)
        when known, else None.
    residuals : per block a = 1..k, |prod(lambda) - 1| or |sum(phi)|; exact
        arithmetic reports 0.0.
    fragile : True when some float-mode residual lies in (FRAGILE_BAND, tol],
        close enough to the cut that a different tolerance could flip it.
    index : per position, the index of the picked entry in that position's
        spectrum as given (a SpectralOperator's unimodular_spectrum).
    """

    entries: tuple
    exact: tuple
    residuals: tuple[float, ...]
    fragile: bool
    index: tuple[int, ...]


@dataclass(frozen=True, eq=False, repr=False)
class ResonantTuples(Sequence):
    """The resonant tuples of one enumeration, held as arrays: a read-only sequence.

    candidates : per position, the normalized (entry, exact) pairs the
        columns index.
    columns : per position, an int array with the picked candidate of each
        tuple (ResonantTuple.index, column by column).
    residuals : per block, a float array with each tuple's residual.
    fragile : bool array, True where a tuple's worst residual exceeds
        FRAGILE_BAND.

    Every array is read-only.  Indexing with an int builds that one
    ResonantTuple, slicing gives another ResonantTuples, and the first full
    read (iteration, ==, hash, repr) builds every ResonantTuple, column by
    column, and keeps them.  len, truth, order, == and hash are those of the
    plain tuple of ResonantTuple objects.
    """

    candidates: tuple
    columns: tuple
    residuals: tuple
    fragile: np.ndarray

    def __post_init__(self):
        for arr in (*self.columns, *self.residuals, self.fragile):
            arr.flags.writeable = False

    def __reduce__(self):  # through the constructor, so a copy's arrays are read-only too
        return ResonantTuples, (self.candidates, self.columns, self.residuals, self.fragile)

    def __len__(self) -> int:
        return len(self.fragile)

    @functools.cached_property
    def _items(self) -> tuple[ResonantTuple, ...]:
        """Every ResonantTuple, in order."""
        index = [col.tolist() for col in self.columns]
        entries, exacts = (zip(*([cands[i][f] for i in col]
                                 for cands, col in zip(self.candidates, index)))
                           for f in (0, 1))
        return tuple(
            ResonantTuple(e, x, res, fragile, idx)
            for e, x, res, fragile, idx in zip(entries, exacts,
                                               zip(*(r.tolist() for r in self.residuals)),
                                               self.fragile.tolist(), zip(*index))
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ResonantTuples(self.candidates, tuple(col[i] for col in self.columns),
                                  tuple(r[i] for r in self.residuals), self.fragile[i])
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"resonant tuple index {i} out of range for {len(self)} tuples")
        picks = [cands[col[i]] for cands, col in zip(self.candidates, self.columns)]
        return ResonantTuple(tuple(e for e, _ in picks), tuple(x for _, x in picks),
                             tuple(r[i].item() for r in self.residuals),
                             self.fragile[i].item(), tuple(col[i].item() for col in self.columns))

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        if isinstance(other, ResonantTuples):
            other = other._items
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._items == other

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"ResonantTuples({self._items!r})"


def _angle_of(agg, additive: bool) -> float:
    """Position of the aggregate on its constraint circle, in turns."""
    if additive:
        return float(agg)
    return (cmath.phase(agg) / (2 * math.pi)) % 1.0


def _solve_blocks(part: Partition, solve):
    """[(positions, columns, residuals)] of each block in block-id order, from solve(positions);
    None once a block has none, since then nothing resonates."""
    solutions = []
    for _, positions in sorted(part.blocks.items()):
        cols, res = solve(positions)
        if not len(cols[0]):
            return None
        solutions.append((positions, cols, res))
    return solutions


def _resonant_index(spectra, part: Partition, tol, additive: bool, mitm_threshold: int):
    """(normalized entries, index, residuals) of the resonant tuples, in order.

    index holds one int array per position and residuals one float array
    per block, each with one entry per tuple.  See resonant_tuples for the
    order.
    """
    linalg._positive_finite(tol, "tolerance")
    spectra = list(spectra)
    if len(spectra) != part.m:
        raise ValidationError(f"got {len(spectra)} spectra for m={part.m} positions")
    norm = _normalized(spectra, additive)
    solutions = _solve_blocks(part, lambda positions: _block_solutions(
        [norm[j] for j in positions], additive=additive, tol=tol, mitm_threshold=mitm_threshold))
    if solutions is None:
        return norm, [np.zeros(0, dtype=np.intp)] * part.m, [np.zeros(0)] * part.k

    # the Cartesian product of the blocks' solutions, in itertools.product order
    picks = np.unravel_index(np.arange(math.prod(len(res) for _, _, res in solutions)),
                             [len(res) for _, _, res in solutions])
    index = [None] * part.m
    residuals = []
    for pick, (positions, cols, res) in zip(picks, solutions):
        for j, col in zip(positions, cols):
            index[j] = col[pick]
        residuals.append(res[pick])
    if len(picks[0]) > 1:
        ranks = []
        for cands, col in zip(norm, index):
            # exact values as integers over one common denominator: their order, without
            # comparing Fractions
            common = math.lcm(*(fr.denominator for _, fr in cands if fr is not None))
            keys = [(0, fr.numerator * (common // fr.denominator)) if fr is not None
                    else (1, _angle_of(e, additive)) for e, fr in cands]
            first = {key: r for r, key in reversed(list(enumerate(sorted(keys))))}  # ties share
            ranks.append(np.array([first[key] for key in keys],
                                  dtype=np.min_scalar_type(len(keys)))[col])
        # stable: equal rank vectors keep product order; ranks of at most 16 bits sort by radix
        order = np.lexsort(ranks[::-1])
        index = [col[order] for col in index]
        residuals = [res[order] for res in residuals]
    return norm, index, residuals


def resonant_tuples(
    spectra,
    alpha,
    tol: float = DEFAULT_TOL,
    *,
    additive: bool = False,
    mitm_threshold: int = MITM_THRESHOLD,
) -> ResonantTuples:
    """Enumerate resonant tuples block by block, as a ResonantTuples sequence.

    spectra : one entry per chain position; a SpectralOperator (a generator
        in additive mode, else an operator; the other is refused), an iterable
        of SpectralPoints, or an iterable of raw values (complex eigenvalues,
        or exact angles; real frequencies in additive mode).
    alpha : Partition or block-id sequence.
    tol : float-route acceptance |prod - 1| <= tol (multiplicative) or
        |sum| <= tol (additive); candidates with every exact angle available
        are decided by exact integer arithmetic instead and report residual 0.
    additive : False for unit-circle products (discrete time), True for
        frequency sums (continuous time, where resonance for all t means the
        frequencies cancel exactly, not modulo 1).

    The constraint factorizes across blocks, so each block is solved on its
    own (_block_solutions: its whole grid up to mitm_threshold combinations,
    meet-in-the-middle above) and solutions are combined as a Cartesian
    product.  Tuples whose worst float residual lands in (FRAGILE_BAND, tol]
    are flagged fragile.  Each position's candidates are ranked once by key
    (exact value first, then position on the constraint circle; equal keys
    tie) and tuples are stably sorted by rank vector, so ties keep
    block-by-block enumeration order.  A mitm_threshold that is not a
    non-negative integer (numpy integers count, bools do not) raises
    ValidationError.
    """
    if (not isinstance(mitm_threshold, (int, np.integer)) or isinstance(mitm_threshold, bool)
            or mitm_threshold < 0):
        raise ValidationError(
            f"mitm_threshold must be a non-negative integer, got {mitm_threshold!r}")
    part = alpha if isinstance(alpha, Partition) else make_partition(alpha)
    norm, index, residuals = _resonant_index(spectra, part, tol, additive, mitm_threshold)
    # every residual is at most tol, so fragile means one exceeds FRAGILE_BAND
    fragile = np.max(residuals, axis=0) > FRAGILE_BAND
    return ResonantTuples(tuple(map(tuple, norm)), tuple(index), tuple(residuals), fragile)


def _assemble_limit(system: EntangledSystem, solutions) -> np.ndarray:
    """Sum over resonant tuples of P_m A_{m-1} ... A_1 P_1, for either clock.

    solutions hold each block's columns into its positions' boundary points
    (see _solve_blocks).  The tuples are the Cartesian product of the blocks'
    solutions, so the product is never formed, and a block with no solution
    gives the zero matrix.  The points of position j that its block picks
    get one boundary basis (R_j, L_j, group_j), and each block's 0/1
    indicator, expanded by group on the axes whose points repeat, is its
    weight in entangle._spectral_mean.  Its largest block grid plus crossing
    remainder's grid (entangle.Plan.grids) beyond entangle.MEMORY_CAP_BYTES is
    refused; both exits come before any factorization.
    """
    ops, part = system.operators, system.partition
    if solutions is None:
        return np.zeros(ops[0].matrix.shape, dtype=np.complex128)
    used, cells = [None] * part.m, {}
    for positions, cols, _ in solutions:
        for j, col in zip(positions, cols):
            used[j] = np.flatnonzero(np.bincount(col)).tolist()
        cells[positions] = tuple(np.searchsorted(used[j], col) for j, col in zip(positions, cols))

    ranks = [sum(op.unimodular_spectrum[i].multiplicity for i in picked)
             for op, picked in zip(ops, used)]
    crossing = [r for r, a in zip(ranks, part.alpha) if a in part.plan.crossing]
    need = 16 * (max(math.prod(ranks[j] for j in block) for block in part.blocks.values())
                 + (math.prod(crossing) if crossing else 0))
    if need > entangle.MEMORY_CAP_BYTES:
        per = ", ".join(f"position {j}: {r}" for j, r in enumerate(ranks, start=1))
        raise BudgetExceededError(
            f"the limit weight needs {need:,} bytes over boundary eigen-indices "
            f"({per}), above the cap of {entangle.MEMORY_CAP_BYTES:,} bytes"
        )

    rights, lefts, groups = zip(*(_boundary_basis(op, picked) for op, picked in zip(ops, used)))

    def indicator(positions):  # bool: a byte per cell, cast exactly to 0 or 1 in the product
        block = np.zeros([len(used[j]) for j in positions], dtype=bool)
        block[cells[positions]] = True
        for axis, j in enumerate(positions):
            if len(groups[j]) > len(used[j]):  # a picked point of multiplicity 2 or more
                block = block.take(groups[j], axis=axis)
        return block

    return entangle._spectral_mean(rights, lefts, system.connectors, part, indicator)


def limit_operator(system: EntangledSystem) -> np.ndarray:
    """The norm limit of the entangled averages, on the system's clock.

    Sum over resonant tuples of
        P_m(lam_m) A_{m-1} P_{m-1}(lam_{m-1}) ... A_1 P_1(lam_1)
    with P_j the mean ergodic projection of T_j at lam_j, evaluated as one
    contraction over boundary eigen-indices (see _assemble_limit).  Requires
    every T_j to live on one clock and pass its boundedness certificate; an
    empty resonance set gives the zero matrix (the averages die in norm).
    Each block's decision is the one the means read from the system's block
    table (entangle._block_table), made once per system at RESONANCE_TOL, so
    the limit is the operator the means converge to.
    """
    _require_bounded(system.operators)
    return _assemble_limit(system, _solve_blocks(
        system.partition, lambda positions: (system.blocks[positions].hits, None)))


def limit_operator_with_tuples(system: EntangledSystem):
    """(limit_operator(system), the ResonantTuples it sums over), one solve per block at
    DEFAULT_TOL: the limit is assembled from the sequence's candidates and columns."""
    ops, part = _require_bounded(system.operators), system.partition
    tuples = resonant_tuples(ops, part, additive=system.clock.additive)
    blocks = [(positions, [tuples.columns[j] for j in positions], None)
              for positions in part.blocks.values()]
    return _assemble_limit(system, blocks if tuples else None), tuples


@dataclass(frozen=True)
class KvnReport:
    """Cesaro smallness diagnostic for a nonnegative sequence.

    cesaro_null : mean at the largest checkpoint <= threshold.
    checkpoints / means : dyadic prefix means (indices, or times in
        continuous mode).
    epsilon_ladder : (eps, density of {n : a_n <= eps} at full length).
    density_one_set : inclusive (start, end) runs of the suggested density-one
        index set along which the sequence tends to zero; same units as
        checkpoints.
    """

    cesaro_null: bool
    threshold: float
    checkpoints: tuple
    means: tuple
    epsilon_ladder: tuple
    density_one_set: tuple
    mode: str


def kvn_diagnostic(
    seq,
    epsilons=(0.5, 0.25, 0.1, 0.05, 0.01),
    mode: str = "discrete",
    sample_step: float | None = None,
    threshold: float = 1e-2,
) -> KvnReport:
    """Inspect a nonnegative sequence for Cesaro smallness.

    In continuous mode the input is read as samples a(i * sample_step) and
    checkpoints, runs and densities are reported in time units; the
    arithmetic is identical because the step cancels from every ratio.

    The density-one set is built as a staircase: for the j-th epsilon (sorted
    decreasing) find the least K_j past which the running density of
    {n : a_n <= eps_j} stays above 1 - 2^{-j}, then use level j's membership
    on [K_j, K_{j+1}).  Levels that never reach their density target truncate
    the ladder.  A NaN, infinite or out-of-range threshold, epsilon or
    sample_step raises ValidationError.
    """
    a = np.asarray(seq, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise EmptySequenceError("need a nonempty 1-D sequence")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValidationError("sequence must be finite and nonnegative")
    if mode not in ("discrete", "continuous"):
        raise ValidationError(f"unknown mode {mode!r}")
    unit = 1
    if mode == "continuous":
        unit = float(linalg._positive_finite(sample_step, "sample_step"))
    if not 0 <= threshold < math.inf:
        raise ValidationError(f"threshold must be nonnegative and finite, got {threshold!r}")
    eps_list = sorted({float(e) for e in epsilons}, reverse=True)
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ValidationError(f"epsilons must be positive and finite, got {epsilons!r}")

    length = a.size
    cum = np.cumsum(a)
    checkpoints = [1 << i for i in range((length - 1).bit_length())] + [length]
    means = tuple(float(cum[c - 1] / c) for c in checkpoints)
    cesaro_null = bool(means[-1] <= threshold)

    counts = np.arange(1, length + 1, dtype=np.float64)
    level_members = [a <= eps for eps in eps_list]
    ladder = [(eps, float(np.count_nonzero(member) / length))
              for eps, member in zip(eps_list, level_members)]

    # staircase: K_j = least index past which running density stays high
    starts = []
    for j, member in enumerate(level_members, start=1):
        dens = np.cumsum(member) / counts
        sufmin = np.minimum.accumulate(dens[::-1])[::-1]
        ok = np.flatnonzero(sufmin >= 1.0 - 2.0 ** (-j))
        if not ok.size:
            break
        starts.append(max(int(ok[0]) + 1, starts[-1] if starts else 1))  # 1-based
    chosen = np.zeros(length, dtype=bool)
    # level j covers [K_j, K_{j+1}); the coarsest also covers the head before K_1
    bounds = [1] + starts[1:] + [length + 1]
    for member, lo, hi in zip(level_members[: len(starts)], bounds, bounds[1:]):
        chosen[lo - 1 : hi - 1] = member[lo - 1 : hi - 1]
    # run edges alternate: the 0-based start, then one past the 0-based end
    edges = np.flatnonzero(np.diff(np.concatenate(([False], chosen, [False])))).tolist()
    runs = [((lo + 1) * unit, hi * unit) for lo, hi in zip(edges[::2], edges[1::2])]

    return KvnReport(
        cesaro_null,
        float(threshold),
        tuple(c * unit for c in checkpoints),
        means,
        tuple(ladder),
        tuple(runs),
        mode,
    )
