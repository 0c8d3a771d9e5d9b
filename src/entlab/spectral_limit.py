"""Limit objects for entangled averages.

The limit of an entangled Cesaro mean is a finite sum over resonant tuples of
unit-circle eigenvalues: one eigenvalue per chain position, constrained block
by block so that the eigenvalues sharing a lattice variable multiply to one.
Each surviving tuple contributes the sandwich of mean ergodic projections
through the connectors.  Everything here is about enumerating those tuples
honestly (exactly when angles are exact rationals, with a declared tolerance
and a fragility flag otherwise) and assembling the sum.

The Koopman-von Neumann diagnostic at the end is the scalar companion: it
inspects a nonnegative sequence for Cesaro smallness and proposes a density-
one index set along which the sequence tends to zero.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .entangle import EntangledSystem, Partition, make_partition
from .errors import EmptySequenceError, ValidationError
from .operators import (
    DISCRETE,
    Clock,
    SpectralOperator,
    SpectralPoint,
    _boundary_projection,
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
    """

    entries: tuple
    exact: tuple
    residuals: tuple[float, ...]
    fragile: bool


def _normalize_entry(e, additive: bool):
    """Return (float_entry, exact_fraction_or_none)."""
    if isinstance(e, SpectralPoint):
        if e.angle is not None:
            return (float(e.angle), e.angle) if additive else (
                angle_value(e.angle),
                e.angle,
            )
        if additive:
            raise ValidationError(
                "additive mode needs real frequencies, not unit-circle points "
                "without exact angles"
            )
        return complex(e.value), None
    if isinstance(e, Fraction) or isinstance(e, str) or (
        isinstance(e, int) and not isinstance(e, bool)
    ):
        if additive:
            fr = Fraction(e) if not isinstance(e, str) else Fraction(e.strip())
            return float(fr), fr
        fr = parse_angle(e)
        return angle_value(fr), fr
    if additive:
        val = float(e)
        return val, None
    val = complex(e)
    if abs(abs(val) - 1.0) > 1e-6:
        raise ValidationError(f"entry {e!r} is far from the unit circle")
    return val, None


def _combine(vals, additive: bool):
    if additive:
        return math.fsum(vals)
    out = 1.0 + 0.0j
    for v in vals:
        out *= v
    return out


def _residual(agg, additive: bool) -> float:
    return abs(agg) if additive else abs(agg - 1.0)


def _angle_of(agg, additive: bool) -> float:
    """Position of the aggregate on its constraint circle, in turns."""
    if additive:
        return float(agg)
    return (cmath.phase(agg) / (2 * math.pi)) % 1.0


def _block_solutions(cands, *, additive, tol, mitm_threshold):
    """Solve one block: index tuples into cands with their residuals.

    cands : list (one per block position) of lists of (entry, exact) pairs.
    Uses exact Fraction arithmetic when every candidate in the block carries
    an exact value, brute force below mitm_threshold combinations, and a
    meet-in-the-middle split above it.
    """
    sizes = [len(c) for c in cands]
    total = 1
    for s in sizes:
        total *= s
    if total == 0:
        return []
    all_exact = all(fr is not None for c in cands for (_, fr) in c)

    if all_exact:
        def accept_exact(frs):
            s = sum(frs, Fraction(0))
            return (s == 0) if additive else (s % 1 == 0)

        if total <= mitm_threshold:
            out = []
            for combo in itertools.product(*(range(s) for s in sizes)):
                frs = [cands[i][ci][1] for i, ci in enumerate(combo)]
                if accept_exact(frs):
                    out.append((combo, 0.0))
            return out
        # meet in the middle on exact partial sums
        half = len(cands) // 2
        right: dict[Fraction, list[tuple]] = {}
        for combo in itertools.product(*(range(s) for s in sizes[half:])):
            s = sum(
                (cands[half + i][ci][1] for i, ci in enumerate(combo)),
                Fraction(0),
            )
            key = s if additive else s % 1
            right.setdefault(key, []).append(combo)
        out = []
        for combo in itertools.product(*(range(s) for s in sizes[:half])):
            s = sum((cands[i][ci][1] for i, ci in enumerate(combo)), Fraction(0))
            want = -s if additive else (-s) % 1
            for rcombo in right.get(want, ()):
                out.append((combo + rcombo, 0.0))
        out.sort(key=lambda t: t[0])
        return out

    # float route; a tuple whose selected entries all carry exact values is
    # still decided by Fraction arithmetic, so mixed blocks report residual 0
    # for exact hits and both strategies score every tuple identically
    entries = [[c[0] for c in cl] for cl in cands]

    def score(combo):
        frs = [cands[i][ci][1] for i, ci in enumerate(combo)]
        if all(fr is not None for fr in frs):
            s = sum(frs, Fraction(0))
            hit = (s == 0) if additive else (s % 1 == 0)
            return 0.0, hit
        agg = _combine([entries[i][ci] for i, ci in enumerate(combo)], additive)
        r = _residual(agg, additive)
        return r, r <= tol

    if total <= mitm_threshold:
        out = []
        for combo in itertools.product(*(range(s) for s in sizes)):
            r, hit = score(combo)
            if hit:
                out.append((combo, r))
        return out

    # meet in the middle: bucket right halves by angle (turns) or sum, walk
    # each left half's neighborhood, rescore candidate tuples via score()
    half = len(cands) // 2
    # |e^{2 pi i theta} - 1| <= tol forces |theta| <~ tol / (2 pi); be generous
    width = max(tol, 1e-15)
    n_buckets = int(math.ceil(1.0 / width)) if not additive else None
    right: dict[int, list[tuple]] = {}
    for combo in itertools.product(*(range(s) for s in sizes[half:])):
        agg = _combine([entries[half + i][ci] for i, ci in enumerate(combo)], additive)
        b = int(math.floor(_angle_of(agg, additive) / width))
        if n_buckets is not None:
            # theta right below 1 can round to 1.0 exactly; keep keys in range
            b %= n_buckets
        right.setdefault(b, []).append(combo)
    out = []
    for combo in itertools.product(*(range(s) for s in sizes[:half])):
        agg = _combine([entries[i][ci] for i, ci in enumerate(combo)], additive)
        theta = _angle_of(agg, additive)
        target = -theta if additive else (-theta) % 1.0
        base = int(math.floor(target / width))
        seen = set()
        for off in (-2, -1, 0, 1, 2):
            b = base + off
            if n_buckets is not None:
                b %= n_buckets
            if b in seen:
                continue
            seen.add(b)
            for rcombo in right.get(b, ()):
                full = combo + rcombo
                r, hit = score(full)
                if hit:
                    out.append((full, r))
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
    lands in (FRAGILE_BAND, tol] are flagged fragile.
    """
    part = alpha if isinstance(alpha, Partition) else make_partition(alpha)
    spectra = list(spectra)
    if len(spectra) != part.m:
        raise ValidationError(
            f"got {len(spectra)} spectra for m={part.m} positions"
        )
    norm: list[list[tuple]] = []
    for sp in spectra:
        if isinstance(sp, SpectralOperator):
            pts = sp.unimodular_spectrum
        else:
            pts = tuple(sp)
        norm.append([_normalize_entry(e, additive) for e in pts])

    blocks = part.blocks
    per_block: dict[int, list] = {}
    for a in sorted(blocks):
        cands = [norm[j] for j in blocks[a]]
        per_block[a] = _block_solutions(
            cands, additive=additive, tol=tol, mitm_threshold=mitm_threshold
        )
        if not per_block[a]:
            return ()

    out = []
    block_ids = sorted(blocks)
    for picks in itertools.product(*(per_block[a] for a in block_ids)):
        entries: list = [None] * part.m
        exact: list = [None] * part.m
        residuals = []
        fragile = False
        for a, (combo, resid) in zip(block_ids, picks):
            residuals.append(resid)
            if FRAGILE_BAND < resid <= tol:
                fragile = True
            for pos_idx, ci in zip(blocks[a], combo):
                entries[pos_idx], exact[pos_idx] = norm[pos_idx][ci]
        out.append(
            ResonantTuple(tuple(entries), tuple(exact), tuple(residuals), fragile)
        )
    out.sort(key=lambda t: tuple(
        (0, fr) if fr is not None else (1, _angle_of(e, additive))
        for e, fr in zip(t.entries, t.exact)
    ))
    return tuple(out)


def _assemble_limit(system, members, matrices, spectra, tol: float, clock: Clock):
    """Sum over resonant tuples of P_m A_{m-1} ... A_1 P_1, for either clock.

    system gives the partition and connectors; members carry the verdict and
    certificate of each position, matrices its operator or generator, spectra
    its boundary points as resonant_tuples takes them.  P_j is the spectral
    projection of position j at the tuple's eigenvalue, cached per (position,
    exact value or float entry).  Returns (limit, tuples).
    """
    _require_bounded(members, clock)
    partition, connectors = system.partition, system.connectors
    tuples = resonant_tuples(spectra, partition, tol, additive=clock.additive)
    d = matrices[0].shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    cache: dict = {}

    def proj(j: int, entry, fr):
        key = (j, fr if fr is not None else entry)
        if key not in cache:
            cache[key] = _boundary_projection(
                matrices[j], members[j].certificate, clock.entry_value(entry), fr
            )
        return cache[key]

    m = partition.m
    for tup in tuples:
        cur = proj(m - 1, tup.entries[m - 1], tup.exact[m - 1])
        for j in range(m - 2, -1, -1):
            cur = cur @ connectors[j] @ proj(j, tup.entries[j], tup.exact[j])
        out = out + cur
    return out, tuples


def limit_operator(system: EntangledSystem, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The norm limit of the entangled averages.

    Sum over resonant tuples of
        P_m(lam_m) A_{m-1} P_{m-1}(lam_{m-1}) ... A_1 P_1(lam_1)
    with P_j the mean ergodic projection of T_j at lam_j.  Requires every T_j
    to pass the power-boundedness certificate; an empty resonance set gives
    the zero matrix (the averages die in norm).
    """
    return limit_operator_with_tuples(system, tol)[0]


def limit_operator_with_tuples(system: EntangledSystem, tol: float = DEFAULT_TOL):
    """(limit_operator(system, tol), the resonant tuples it summed over)."""
    ops = system.operators
    spectra = [op.unimodular_spectrum for op in ops]
    return _assemble_limit(system, ops, [op.matrix for op in ops], spectra, tol, DISCRETE)


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
    the ladder.
    """
    a = np.asarray(seq, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise EmptySequenceError("need a nonempty 1-D sequence")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValidationError("sequence must be finite and nonnegative")
    if mode not in ("discrete", "continuous"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "continuous":
        if sample_step is None or not (sample_step > 0):
            raise ValidationError("continuous mode needs sample_step > 0")
        unit = float(sample_step)
    else:
        unit = 1
    eps_list = sorted({float(e) for e in epsilons}, reverse=True)
    if not eps_list or eps_list[-1] <= 0:
        raise ValidationError("epsilons must be positive")

    length = a.size
    cum = np.cumsum(a)
    checkpoints = []
    p = 1
    while p < length:
        checkpoints.append(p)
        p *= 2
    checkpoints.append(length)
    means = tuple(float(cum[c - 1] / c) for c in checkpoints)
    cesaro_null = bool(means[-1] <= threshold)

    counts = np.arange(1, length + 1, dtype=np.float64)
    ladder = []
    level_members = []
    for eps in eps_list:
        member = a <= eps
        ladder.append((eps, float(np.count_nonzero(member) / length)))
        level_members.append(member)

    # staircase: K_j = least index past which running density stays high
    starts = []
    prev_k = 1
    for j, member in enumerate(level_members, start=1):
        dens = np.cumsum(member) / counts
        sufmin = np.minimum.accumulate(dens[::-1])[::-1]
        ok = np.nonzero(sufmin >= 1.0 - 2.0 ** (-j))[0]
        k = None
        if ok.size:
            k = max(int(ok[0]) + 1, prev_k)  # 1-based
        if k is None or k > length:
            break
        starts.append(k)
        prev_k = k
    chosen = np.zeros(length, dtype=bool)
    if starts:
        bounds = starts + [length + 1]
        # coarsest level also covers the head before K_1
        chosen[: starts[0] - 1] = level_members[0][: starts[0] - 1]
        for j in range(len(starts)):
            lo, hi = bounds[j], bounds[j + 1]
            chosen[lo - 1 : hi - 1] = level_members[j][lo - 1 : hi - 1]
    runs = []
    i = 0
    while i < length:
        if chosen[i]:
            j = i
            while j + 1 < length and chosen[j + 1]:
                j += 1
            runs.append(((i + 1) * unit, (j + 1) * unit))
            i = j + 1
        else:
            i += 1

    return KvnReport(
        cesaro_null,
        float(threshold),
        tuple(c * unit for c in checkpoints),
        means,
        tuple(ladder),
        tuple(runs),
        mode,
    )
