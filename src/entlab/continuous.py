"""Continuous-time entangled averages for matrix semigroups T(s) = exp(sB).

The discrete lattice mean is replaced by (1/t^k) times an iterated integral
over [0, t]^k, approximated on a shared one-dimensional quadrature grid: all
positions driven by the same block read the semigroup at the same node.  A
midpoint grid is the orbit of e^{(h/2)B} under powers of e^{hB}, built by
the doubling stack builder of discrete time; a Gauss-Legendre grid is one
batched expm over its nodes.  The limit object mirrors the discrete one with
the unit circle traded for the imaginary axis: eigenvalues 2*pi*i*phi with
real frequency phi, and the block constraint "product equals one" traded for
"frequencies sum to zero exactly" (resonance for every t, not only t in a
lattice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .entangle import (
    MEMORY_CAP_BYTES,
    Partition,
    _contract,
    _per_matrix,
    _power_stack,
    _refuse_beyond,
    _stack_bytes,
    _state,
    _validate_system,
    plan_chain,
)
from .errors import (
    BudgetExceededError,
    NotBoundedSemigroupError,
    ValidationError,
)
from .operators import (
    Certificate,
    Clock,
    PowerBoundReport,
    _bound_report,
    _read_matrix,
    _require_bounded,
    _synthesize,
    _verdict,
)
from .spectral_limit import _assemble_limit

TWO_PI = 2.0 * np.pi
AXIS_BAND = 1e-8  # |Re lambda| below this counts as on the imaginary axis


@dataclass(frozen=True)
class FrequencyPoint:
    """One imaginary-axis eigenvalue 2*pi*i*frequency of a generator."""

    frequency: float
    multiplicity: int
    exact: Fraction | None = None

    def key(self):
        """Deterministic sort key: exact frequency when present, else the float."""
        return (0, self.exact) if self.exact is not None else (1, self.frequency)


class _ContinuousClock(Clock):
    """Continuous time, where the spectral core differs from discrete time.

    Boundary eigenvalues are 2*pi*i*phi with phi not reduced mod 1 (e^{2 pi i
    phi t} tells phi from phi + 1 for real t); stable means Re z < 0 and the
    boundary band is |Re z| <= AXIS_BAND; block resonance is additive.
    """

    noun = "generator"
    exact_noun = "frequency"
    exact_error = ValidationError
    unbounded_error = NotBoundedSemigroupError
    additive = True  # block resonance: frequencies sum to exactly 0
    edge = 0.0
    band = AXIS_BAND
    size = staticmethod(np.real)
    size_name = "spectral abscissa"
    boundary_name = "the imaginary axis"
    stable_region = "in the open left half-plane"

    def reduce(self, fr: Fraction) -> Fraction:
        return fr

    def eigenvalue(self, fr: Fraction) -> complex:
        return self.entry_value(float(fr))

    def entry_value(self, entry) -> complex:
        """resonant_tuples lists frequencies here."""
        return TWO_PI * 1j * float(entry)

    def resonance_entry(self, point):
        """A point's exact frequency when known, else its float frequency."""
        return point.exact if point.exact is not None else point.frequency

    def point(self, value: complex, multiplicity: int, exact: Fraction | None):
        freq = float(exact) if exact is not None else value.imag / TWO_PI
        return FrequencyPoint(freq, multiplicity, exact)


CONTINUOUS = _ContinuousClock()


@dataclass(eq=False)
class Semigroup:
    """Generator plus spectral bookkeeping.  Treat instances as immutable."""

    generator: np.ndarray
    certificate: Certificate | None
    growth_bound_estimate: float
    frequency_points: tuple[FrequencyPoint, ...]
    _checked: tuple | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def value(self, t) -> np.ndarray:
        """T(t) = exp(tB); t may be a scalar or a 1-D array of times."""
        return linalg.expm(self.generator, t)

    @property
    def spectral_verdict(self) -> tuple[bool, str | None]:
        """(ok, reason): spectrum in the closed left half-plane, axis part semisimple."""
        return _verdict(self.generator, self.certificate, self._checked, CONTINUOUS)


def synth_semigroup(frequencies, stable, basis) -> Semigroup:
    """Generator with exact imaginary-axis eigenvalues 2*pi*i*phi.

    frequencies : exact rational cycles per unit time (Fraction / 'p/q' /
        int / (p, q)); unlike circle angles these are NOT reduced mod 1,
        since e^{2 pi i phi t} distinguishes phi and phi + 1 for real t.
    stable : complex numbers with strictly negative real part.
    basis : OrthonormalBasis or RandomSimilarity.
    """
    return Semigroup(*_synthesize(frequencies, stable, basis, CONTINUOUS))


def semigroup_from_generator(
    b, tol: float = 1e-9, axis_band: float = AXIS_BAND
) -> Semigroup:
    """Wrap a raw generator; one eig call yields frequencies, bound and verdict."""
    arr = linalg.as_matrix(b, square=True, name="generator")
    return Semigroup(arr, None, *_read_matrix(arr, tol, axis_band, CONTINUOUS))


def as_semigroup(b) -> Semigroup:
    if isinstance(b, Semigroup):
        return b
    return semigroup_from_generator(b)


def certify_bounded_semigroup(sg, t_probe=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0)) -> PowerBoundReport:
    """Spectral certificate plus measured ||T(t)|| on a probe grid.

    passed is the spectral criterion (closed left half-plane, semisimple
    imaginary-axis clusters); bound is the certified sup when a
    diagonalization is available, else the measured maximum.
    """
    sg = as_semigroup(sg)
    measured = 0.0
    for t in t_probe:
        measured = max(measured, linalg.spectral_norm(sg.value(float(t))))
    return _bound_report(sg, sg.growth_bound_estimate, measured)


def frequency_spectrum(sg, tol: float = AXIS_BAND) -> tuple[FrequencyPoint, ...]:
    """Imaginary-axis frequencies of the generator, exact when synthesized.

    tol widens the band around the axis when reading a raw generator; a
    Semigroup answers from its stored bookkeeping.  Fails the
    bounded-semigroup certificate loudly instead of reporting frequencies of
    a blowing-up semigroup.
    """
    if not isinstance(sg, Semigroup):
        sg = semigroup_from_generator(sg, axis_band=tol)
    _require_bounded([sg], CONTINUOUS)
    return sg.frequency_points


@dataclass(frozen=True)
class QuadratureSpec:
    """Shared 1-D grid on [0, t]: 'midpoint' or 'gauss-legendre', Q >= 2 points."""

    scheme: str = "midpoint"
    points: int = 64

    def __post_init__(self):
        q = self.points
        if not isinstance(q, (int, np.integer)) or isinstance(q, bool):
            raise ValidationError(f"quadrature points must be an integer, got {q!r}")

    def nodes(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if self.points < 2:
            raise ValidationError("need at least 2 quadrature points")
        linalg._positive_finite(t, "horizon t")
        q = int(self.points)
        if self.scheme == "midpoint":
            s = (np.arange(q) + 0.5) * (t / q)
            w = np.full(q, t / q)
            return s, w
        if self.scheme == "gauss-legendre":
            x, wx = np.polynomial.legendre.leggauss(q)
            return (x + 1.0) * (t / 2.0), wx * (t / 2.0)
        raise ValidationError(f"unknown quadrature scheme {self.scheme!r}")


@dataclass(frozen=True)
class ContinuousSystem:
    """Partition plus semigroups B_1..B_m and connectors A_1..A_{m-1}."""

    partition: Partition
    semigroups: tuple[Semigroup, ...]
    connectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.semigroups[0].dim


def make_continuous_system(alpha, generators, connectors=None) -> ContinuousSystem:
    """Assemble a ContinuousSystem; generators may be Semigroups or raw matrices.

    Validated like make_system, except that boundedness is checked when the
    system is evaluated, not here.
    """
    sgs = tuple(as_semigroup(b) for b in generators)
    part, conns = _validate_system(alpha, sgs, connectors, CONTINUOUS.noun)
    return ContinuousSystem(part, sgs, conns)


@dataclass(frozen=True)
class ContinuousAverage:
    """Quadrature value plus a Richardson error estimate (None when skipped)."""

    value: np.ndarray
    error_estimate: float | None
    points: int


def _check_grid(system, quad: QuadratureSpec, budget):
    """Refuse the grid before any node or exponential is computed.

    Documented cost model, per distinct generator: on the midpoint grid two
    exponentials of ~20 products each plus Q products for the orbit of
    e^{hB}; on the Gauss-Legendre grid ~20 products per node.  Added to that
    is the contraction plan's cost with one product per node for each
    singleton block.  Memory: the semigroup stacks plus two working buffers,
    and for Gauss-Legendre the Q x Q float64 matrix whose eigenvalues are the
    nodes.
    """
    part = system.partition
    q = quad.points
    plan = plan_chain(part)
    generators = [sg.generator for sg in system.semigroups]
    per_generator = 2 * 20.0 + q if quad.scheme == "midpoint" else 20.0 * q
    _refuse_beyond(
        len({id(g) for g in generators}) * per_generator + plan.cost(q, q), budget,
        _stack_bytes(generators, range(part.m), q),
        f"Q={q}, lattice axes={len(plan.crossing)}", "raise the budget or lower Q",
    )
    if quad.scheme == "gauss-legendre" and 8 * q * q > MEMORY_CAP_BYTES:
        raise BudgetExceededError(
            f"Gauss-Legendre nodes for Q={q} need a {8 * q * q / 2**30:.2f} GiB "
            f"matrix (cap {MEMORY_CAP_BYTES / 2**30:.0f} GiB); use the midpoint rule"
        )


def _single_grid_average(system, t, quad: QuadratureSpec, x):
    """The contraction plan on one grid: every block reads the same nodes.

    Midpoint nodes are s_i = (i + 1/2) h, so the stack T(s_i) is the orbit
    (e^{hB})^i e^{(h/2)B}: two exponentials and Q products, with the
    exponential's norm cap checked at the largest node before any stack is
    built.  Gauss-Legendre nodes are not equispaced and take one batched
    expm over the nodes.
    """
    s_nodes, w_nodes = quad.nodes(t)
    q = len(s_nodes)
    midpoint = quad.scheme == "midpoint"
    h = t / q
    if midpoint:
        for sg in system.semigroups:
            linalg.check_expm_horizon(sg.generator, s_nodes[-1])

    def grid(b: np.ndarray) -> np.ndarray:
        if midpoint:
            half, step = linalg.expm(b, np.array([h / 2, h]))
            return _power_stack(step, q, start=half)
        return linalg.expm(b, s_nodes)

    stack = _per_matrix([sg.generator for sg in system.semigroups], grid)

    def single(j: int) -> np.ndarray:
        return np.tensordot(w_nodes, stack(j), axes=1) / t

    part = system.partition
    return _contract(
        plan_chain(part), part, list(system.connectors), q, stack, single,
        x=x, weights=None if midpoint else w_nodes / t,
    )


def continuous_entangled_average(
    system: ContinuousSystem,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
    x=None,
    budget: float | None = 1e8,
    richardson: bool = True,
) -> ContinuousAverage:
    """(1/t^k) times the iterated integral of the semigroup chain over [0,t]^k.

    All positions sharing a block read their semigroup at the same node of
    one shared 1-D grid.  Each distinct generator is exponentiated once per
    grid: on the midpoint grid at h/2 and h only, the nodes following as
    powers of e^{hB}; on the Gauss-Legendre grid at every node in one
    batched call.  The grid sums follow the contraction plan
    (entangle.plan_chain), so only crossing blocks walk the Q^k lattice.
    With richardson=True the average is recomputed on a doubled grid and the
    difference reported as the error estimate for the returned (requested-Q)
    value; the doubled run roughly triples the cost.

    Sampling well below the fastest frequency aliases the oscillation; keep
    Q at 20 or more points per period (see suggest_points).
    """
    _require_bounded(system.semigroups, CONTINUOUS)
    x = _state(x, system.dim)
    fine = QuadratureSpec(quad.scheme, 2 * quad.points)
    _check_grid(system, fine if richardson else quad, budget)
    value = _single_grid_average(system, float(t), quad, x)
    est = None
    if richardson:
        value2 = _single_grid_average(system, float(t), fine, x)
        est = float(np.linalg.norm(value - value2))
    return ContinuousAverage(value, est, quad.points)


def suggest_points(system: ContinuousSystem, t: float, per_period: float = 20.0) -> int:
    """Grid size putting per_period nodes on the fastest spectral oscillation.

    t and per_period must be positive and finite, else ValidationError; a
    grid size per_period * t * f_max beyond the float range raises
    BudgetExceededError, as any grid too large to run does.
    """
    linalg._positive_finite(t, "horizon t")
    linalg._positive_finite(per_period, "per_period")
    fmax = max((abs(p.frequency) for sg in system.semigroups for p in sg.frequency_points),
               default=0.0)
    points = per_period * t * fmax
    if not np.isfinite(points):
        raise BudgetExceededError(
            f"grid of {per_period:g} points per period over t={t:g} at frequency "
            f"{float(fmax):g} is beyond the float range"
        )
    return max(2, int(np.ceil(points)))


def continuous_limit_operator(system: ContinuousSystem, tol: float = 1e-8) -> np.ndarray:
    """t -> infinity limit of the continuous entangled averages.

    Sum over additively resonant frequency tuples (each block's frequencies
    cancel exactly) of P_m A_{m-1} ... A_1 P_1 with P_j the spectral
    projection of B_j at 2*pi*i*phi_j, contracted over boundary eigen-indices
    as in the discrete limit (spectral_limit._assemble_limit).
    """
    sgs = system.semigroups
    matrices = [sg.generator for sg in sgs]
    points = [sg.frequency_points for sg in sgs]
    return _assemble_limit(system, sgs, matrices, points, tol, CONTINUOUS)[0]
