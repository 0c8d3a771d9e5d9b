"""Limit objects for entangled averages.

The limit of an entangled Cesaro mean is a finite sum over resonant tuples of
boundary eigenvalues, one per chain position, constrained block by block so
that the eigenvalues sharing a lattice variable multiply to one (in
continuous time: their frequencies sum to zero).  Tuples are enumerated
honestly: exactly when angles are exact rationals, with a declared tolerance
and a fragility flag otherwise.  Each contributes P_m A_{m-1} ... A_1 P_1;
since P_j = R_j[:, idx] L_j[idx, :] for boundary bases R_j, L_j, the sum is
one contraction R_m W L_1 of the 0/1 resonance weight W over boundary
eigen-indices against the cores L_{j+1} A_j R_j.

The Koopman-von Neumann diagnostic at the end is the scalar companion: it
inspects a nonnegative sequence for Cesaro smallness and proposes a density-
one index set along which the sequence tends to zero.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import entangle, linalg
from .entangle import EntangledSystem, Partition, make_partition
from .errors import BudgetExceededError, EmptySequenceError, ValidationError
from .operators import (
    DISCRETE,
    Clock,
    SpectralOperator,
    SpectralPoint,
    _boundary_basis,
    _read_matrix,
    _require_bounded,
    parse_angle,
    angle_value,
)

DEFAULT_TOL = 1e-8
FRAGILE_BAND = 1e-10


def unimodular_spectrum(t, tol: float = DEFAULT_TOL) -> tuple[SpectralPoint, ...]:
    """Unit-circle eigenvalues of t, merged into clusters, sorted by phase.

    SpectralOperators answer from their stored bookkeeping (exact angles when
    synthesized).  Raw matrices go through the eigensolver; a cluster counts
    as unimodular when its center is within tol of the circle.
    """
    if isinstance(t, SpectralOperator):
        return t.unimodular_spectrum
    arr = linalg.as_matrix(t, square=True)
    return _read_matrix(arr, 1e-9, tol, DISCRETE)[1]


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


def _normalize_entry(e, additive: bool):
    """Return (float_entry, exact_fraction_or_none); non-finite floats are refused."""
    if isinstance(e, SpectralPoint):
        fr = e.angle
        if fr is None:
            if additive:
                raise ValidationError(
                    "additive mode needs real frequencies, not unit-circle points "
                    "without exact angles"
                )
            val = complex(e.value)
    elif isinstance(e, (Fraction, str)) or (isinstance(e, int) and not isinstance(e, bool)):
        fr = Fraction(e) if additive else parse_angle(e)
    else:
        fr = None
        val = float(e) if additive else complex(e)
    if fr is not None:
        return (float(fr) if additive else angle_value(fr)), fr
    if not cmath.isfinite(val):
        raise ValidationError(f"entry {e!r} is not finite")
    if not additive and abs(abs(val) - 1.0) > 1e-6:
        raise ValidationError(f"entry {e!r} is far from the unit circle")
    return val, None


def _combine(vals, additive: bool):
    return math.fsum(vals) if additive else math.prod(vals, start=1.0 + 0.0j)


def _angle_of(agg, additive: bool) -> float:
    """Position of the aggregate on its constraint circle, in turns."""
    if additive:
        return float(agg)
    return (cmath.phase(agg) / (2 * math.pi)) % 1.0


def _block_solutions(cands, *, additive, tol, mitm_threshold):
    """Solve one block: index tuples into cands with their residuals.

    cands : list (one per block position) of lists of (entry, exact) pairs.
    A tuple whose picked entries are all exact is decided by Fraction
    arithmetic (residual 0), any other by its float residual.  Up to
    mitm_threshold combinations every tuple is scored; above it right halves
    are filed under a key and each left half looks up its complement.  The
    key is the exact sum (mod 1 in discrete time) when the whole block is
    exact, so a match is a hit, and otherwise the float cell of width tol
    (or the rounding of a half-sum, if wider), whose matches and +-2
    neighbours (wrapping at 1) are scored.  Solutions come in lexicographic
    index order.
    """
    sizes = [len(c) for c in cands]

    def exact_sum(picks):
        s = sum((fr for _, fr in picks), Fraction(0))
        return s if additive else s % 1

    def score(combo):
        picks = [cands[i][ci] for i, ci in enumerate(combo)]
        if all(fr is not None for _, fr in picks):
            return 0.0, exact_sum(picks) == 0
        agg = _combine([e for e, _ in picks], additive)
        r = abs(agg) if additive else abs(agg - 1.0)
        return r, r <= tol

    out = []
    if math.prod(sizes) <= mitm_threshold:
        for combo in itertools.product(*map(range, sizes)):
            r, hit = score(combo)
            if hit:
                out.append((combo, r))
        return out

    half = len(cands) // 2
    exact = all(fr is not None for c in cands for _, fr in c)
    # |e^{2 pi i theta} - 1| <= tol forces |theta| <~ tol / (2 pi); be generous
    scale = sum(max((abs(e) for e, _ in c), default=0.0) for c in cands) if additive else 1.0
    width = max(tol, 1e-15, 4 * sys.float_info.epsilon * scale)
    n_cells = math.ceil(1.0 / width)

    def place(combo, lo):
        """Where a half-tuple sits on the constraint line or circle."""
        picks = [cands[lo + i][ci] for i, ci in enumerate(combo)]
        if exact:
            return exact_sum(picks)
        return _angle_of(_combine([e for e, _ in picks], additive), additive)

    def cell(v, off=0):
        if exact:
            return v
        b = math.floor(v / width) + off
        # wrap at 1: the first and last cells are neighbours, and theta
        # right below 1 can round to 1.0 exactly
        return b if additive else b % n_cells

    right: dict = {}
    for combo in itertools.product(*map(range, sizes[half:])):
        right.setdefault(cell(place(combo, half)), []).append(combo)
    for combo in itertools.product(*map(range, sizes[:half])):
        v = place(combo, 0)
        target = -v if additive else (-v) % 1
        for key in {cell(target, off) for off in ((0,) if exact else (-2, -1, 0, 1, 2))}:
            for rcombo in right.get(key, ()):
                r, hit = (0.0, True) if exact else score(combo + rcombo)
                if hit:
                    out.append((combo + rcombo, r))
    out.sort(key=lambda t: t[0])
    return out


def resonant_tuples(
    spectra,
    alpha,
    tol: float = DEFAULT_TOL,
    *,
    additive: bool = False,
    mitm_threshold: int = 100_000,
) -> tuple[ResonantTuple, ...]:
    """Enumerate resonant tuples block by block.

    spectra : one entry per chain position; a SpectralOperator, an iterable
        of SpectralPoints, or an iterable of raw values (complex eigenvalues,
        or exact angles; real frequencies in additive mode).
    alpha : Partition or block-id sequence.
    tol : float-route acceptance |prod - 1| <= tol (multiplicative) or
        |sum| <= tol (additive); candidates with every exact angle available
        are decided by Fraction arithmetic instead and report residual 0.
    additive : False for unit-circle products (discrete time), True for
        frequency sums (continuous time, where resonance for all t means the
        frequencies cancel exactly, not modulo 1).

    The constraint factorizes across blocks, so each block is solved on its
    own (meet-in-the-middle above mitm_threshold combinations) and solutions
    are combined as a Cartesian product.  Tuples whose worst float residual
    lands in (FRAGILE_BAND, tol] are flagged fragile.  Each position's
    candidates are ranked once by key (exact value first, then position on
    the constraint circle; equal keys tie) and tuples are stably sorted by
    rank vector, so ties keep block-by-block enumeration order.
    """
    linalg._positive_finite(tol, "tolerance")
    part = alpha if isinstance(alpha, Partition) else make_partition(alpha)
    spectra = list(spectra)
    if len(spectra) != part.m:
        raise ValidationError(f"got {len(spectra)} spectra for m={part.m} positions")
    norm = [
        [_normalize_entry(e, additive) for e in
         (sp.unimodular_spectrum if isinstance(sp, SpectralOperator) else sp)]
        for sp in spectra
    ]

    blocks = part.blocks
    block_ids = sorted(blocks)
    per_block = []
    for a in block_ids:
        sols = _block_solutions([norm[j] for j in blocks[a]], additive=additive, tol=tol,
                                mitm_threshold=mitm_threshold)
        if not sols:
            return ()
        per_block.append(sols)

    ranks = []
    for cands in norm:
        keys = [(0, fr) if fr is not None else (1, _angle_of(e, additive)) for e, fr in cands]
        ordered = sorted(keys)
        ranks.append([bisect.bisect_left(ordered, key) for key in keys])
    rows = []
    for picks in itertools.product(*per_block):
        index = [0] * part.m
        for a, (combo, _) in zip(block_ids, picks):
            for j, ci in zip(blocks[a], combo):
                index[j] = ci
        rows.append((index, tuple(r for _, r in picks)))
    rows.sort(key=lambda row: list(map(list.__getitem__, ranks, row[0])))  # ranks[j][index[j]]
    # every residual is at most tol, so fragile means one exceeds FRAGILE_BAND
    return tuple(
        ResonantTuple(*zip(*map(list.__getitem__, norm, index)), res,
                      max(res) > FRAGILE_BAND, tuple(index))
        for index, res in rows
    )


def _assemble_limit(system, members, matrices, points, tol: float, clock: Clock):
    """Sum over resonant tuples of P_m A_{m-1} ... A_1 P_1, for either clock.

    members carry each position's verdict and certificate, matrices its
    operator or generator, points its boundary points.  The points of
    position j that some tuple picks (t.index) get local indices and one
    boundary basis (R_j, L_j, group_j).  A 0/1 weight W over local indices
    marks the tuples; it is expanded to eigen-indices when a point has
    several, refused beyond entangle.MEMORY_CAP_BYTES before any factorization,
    and contracted against the cores C_j = L_{j+1} A_j R_j by the kernel the
    spectral finite-n mean uses (entangle._eigen_contraction): the limit is
    R_m (W * prod_j C_j summed over the inner positions) L_1.  Returns
    (limit, tuples).
    """
    _require_bounded(members, clock)
    partition, connectors = system.partition, system.connectors
    spectra = [[clock.resonance_entry(p) for p in pts] for pts in points]
    tuples = resonant_tuples(spectra, partition, tol, additive=clock.additive)
    if not tuples:
        d = matrices[0].shape[0]
        return np.zeros((d, d), dtype=np.complex128), tuples

    # per position: the picked point indices, ascending, and each tuple's local index
    cols = list(zip(*(t.index for t in tuples)))
    picked = [sorted(set(col)) for col in cols]
    local = [{i: v for v, i in enumerate(used)} for used in picked]
    cells = tuple([loc[i] for i in col] for loc, col in zip(local, cols))
    ranks = [sum(pts[i].multiplicity for i in used) for pts, used in zip(points, picked)]
    need = 16 * math.prod(ranks)
    if need > entangle.MEMORY_CAP_BYTES:
        per = ", ".join(f"position {j}: {r}" for j, r in enumerate(ranks, start=1))
        raise BudgetExceededError(
            f"the limit weight needs {need:,} bytes over boundary eigen-indices "
            f"({per}), above the cap of {entangle.MEMORY_CAP_BYTES:,} bytes"
        )

    bases = []
    for j, used in enumerate(picked):
        entries, exacts = zip(*(_normalize_entry(spectra[j][i], clock.additive) for i in used))
        bases.append(_boundary_basis(matrices[j], members[j].certificate,
                                     [clock.entry_value(e) for e in entries], exacts))
    weight = np.zeros([len(used) for used in picked], dtype=np.complex128)
    weight[cells] = 1.0
    rights, lefts, groups = zip(*bases)
    if any(g != list(range(len(used))) for g, used in zip(groups, picked)):
        weight = weight[np.ix_(*groups)]
    return entangle._eigen_contraction(weight, rights, lefts, connectors), tuples


def limit_operator(system: EntangledSystem, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The norm limit of the entangled averages.

    Sum over resonant tuples of
        P_m(lam_m) A_{m-1} P_{m-1}(lam_{m-1}) ... A_1 P_1(lam_1)
    with P_j the mean ergodic projection of T_j at lam_j, evaluated as one
    contraction over boundary eigen-indices (see _assemble_limit).  Requires
    every T_j to pass the power-boundedness certificate; an empty resonance
    set gives the zero matrix (the averages die in norm).
    """
    return limit_operator_with_tuples(system, tol)[0]


def limit_operator_with_tuples(system: EntangledSystem, tol: float = DEFAULT_TOL):
    """(limit_operator(system, tol), the resonant tuples it summed over)."""
    ops = system.operators
    points = [op.unimodular_spectrum for op in ops]
    return _assemble_limit(system, ops, [op.matrix for op in ops], points, tol, DISCRETE)


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
