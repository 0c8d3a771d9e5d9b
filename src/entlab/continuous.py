"""Continuous-time entangled averages for matrix semigroups T(s) = exp(sB).

A generator is a SpectralOperator on the CONTINUOUS clock (Semigroup names
that class), and make_continuous_system builds an EntangledSystem of them
(ContinuousSystem names that class); discrete time is refused here with
ValidationError, as discrete time refuses generators.

The lattice mean becomes (1/t^k) times an iterated integral over [0, t]^k on
one shared quadrature grid, where the positions of a block read one node.
The midpoint rule is discrete time (_midpoint_average).  Gauss-Legendre
(_gauss_legendre_average) is one scalar weight per block in the discrete
contraction when every generator has an eigenbasis record, else one batched
expm over its nodes.  entangle._route decides, prices and refuses each rule's route.
The limit is limit_operator's on the imaginary axis: eigenvalues
2*pi*i*phi, and blocks resonate when their frequencies sum to zero exactly
(for every t, not only on a lattice).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .entangle import (EntangledSystem, Partition, _check_strategy, _contract, _estimate_cost,
                       _evaluate_discrete, _per_matrix, _record_mean, _resonant_to_one, _route,
                       _spectral_bytes, _stack_bytes, _state, _step, _validate_system)
from .errors import (
    BudgetExceededError,
    NonConvergenceError,
    NotBoundedSemigroupError,
    ValidationError,
)
from .operators import (
    Clock,
    PowerBoundReport,
    SpectralOperator,
    _bound_report,
    _on_clock,
    _read_matrix,
    _require_bounded,
    _synthesize,
)
from .spectral_limit import limit_operator

TWO_PI = 2.0 * np.pi
AXIS_BAND = 1e-8  # |Re lambda| below this counts as on the imaginary axis


@dataclass(frozen=True)
class FrequencyPoint:
    """One imaginary-axis eigenvalue 2*pi*i*frequency of a generator."""

    frequency: float
    multiplicity: int
    exact: Fraction | None = None
    value = property(lambda self: TWO_PI * 1j * self.frequency)  # as SpectralPoint names it

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
        """Eigenvalue of a resonance entry: resonant_tuples lists frequencies here."""
        return TWO_PI * 1j * float(entry)

    def exponents(self, rec) -> np.ndarray:
        """The eigenvalues mu themselves: a step e^{hB} has the eigenvalues e^{mu h}."""
        return rec.eigenvalues

    def resonance_entry(self, point):
        """A point's exact frequency when known, else its float frequency."""
        return point.exact if point.exact is not None else point.frequency

    def point(self, value: complex, multiplicity: int, exact: Fraction | None):
        freq = float(exact) if exact is not None else value.imag / TWO_PI
        return FrequencyPoint(freq, multiplicity, exact)

    def __reduce__(self):  # pickled by name: a copy is the module's one clock
        return "CONTINUOUS"


CONTINUOUS = _ContinuousClock()


Semigroup = SpectralOperator
ContinuousSystem = EntangledSystem


def synth_semigroup(frequencies, stable, basis) -> SpectralOperator:
    """Generator with exact imaginary-axis eigenvalues 2*pi*i*phi.

    frequencies : exact rational cycles per unit time (Fraction / 'p/q' /
        int / (p, q)); unlike circle angles these are NOT reduced mod 1,
        since e^{2 pi i phi t} distinguishes phi and phi + 1 for real t.
    stable : complex numbers with strictly negative real part.
    basis : OrthonormalBasis or RandomSimilarity.
    """
    return _synthesize(frequencies, stable, basis, CONTINUOUS)


def semigroup_from_generator(
    b, tol: float = 1e-9, axis_band: float = AXIS_BAND
) -> SpectralOperator:
    """Wrap a raw generator; one eig call yields frequencies, bound, verdict and, when
    cond_2(V) allows, the float record both rules run spectral on (see from_matrix)."""
    return _read_matrix(linalg.as_matrix(b, square=True, name="generator"), tol, axis_band,
                        CONTINUOUS)


def as_semigroup(b) -> SpectralOperator:
    """A raw generator wrapped, or a generator as given; operators are refused."""
    if isinstance(b, SpectralOperator):
        return _on_clock([b], CONTINUOUS)[0]
    return semigroup_from_generator(b)


def certify_bounded_semigroup(sg, t_probe=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0)) -> PowerBoundReport:
    """Spectral certificate plus measured ||T(t)|| on a probe grid.

    passed is the spectral criterion (closed left half-plane, semisimple
    imaginary-axis clusters); bound is the certified sup when a
    diagonalization is available, else the measured maximum.  T(t) belongs
    to the semigroup only for t >= 0, so a probe time that is not positive
    and finite, or no probe time, raises ValidationError before any work.
    """
    sg = as_semigroup(sg)
    probes = [float(linalg._positive_finite(t, "probe time t")) for t in t_probe]
    if not probes:
        raise ValidationError("need at least one probe time t")
    return _bound_report(sg, max(linalg.spectral_norm(sg.value(t)) for t in probes))


def frequency_spectrum(sg, tol: float = AXIS_BAND) -> tuple[FrequencyPoint, ...]:
    """Imaginary-axis frequencies of the generator, exact when synthesized.

    tol widens the band around the axis when reading a raw generator; a
    generator answers from its stored bookkeeping, and an operator of
    discrete time is refused.  Fails the bounded-semigroup certificate loudly
    instead of reporting frequencies of a blowing-up semigroup.
    """
    if not isinstance(sg, SpectralOperator):
        sg = semigroup_from_generator(sg, axis_band=tol)
    return _require_bounded(_on_clock([sg], CONTINUOUS))[0].frequency_points


@dataclass(frozen=True)
class QuadratureSpec:
    """Shared 1-D grid on [0, t]: 'midpoint' or 'gauss-legendre', Q >= 2 points."""

    scheme: str = "midpoint"
    points: int = 64

    def __post_init__(self):
        if self.scheme not in ("midpoint", "gauss-legendre"):
            raise ValidationError(f"unknown quadrature scheme {self.scheme!r}")
        q = self.points
        if not isinstance(q, (int, np.integer)) or isinstance(q, bool):
            raise ValidationError(f"quadrature points must be an integer, got {q!r}")

    def _size(self, t: float) -> int:
        """Q, once Q >= 2 and the horizon t is positive and finite."""
        if self.points < 2:
            raise ValidationError("need at least 2 quadrature points")
        linalg._positive_finite(t, "horizon t")
        return int(self.points)

    def nodes(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        q = self._size(t)
        if self.scheme == "midpoint":
            s = (np.arange(q) + 0.5) * (t / q)
            w = np.full(q, t / q)
            return s, w
        x, wx = _gauss_legendre(q)
        return (x + 1.0) * (t / 2.0), wx * (t / 2.0)


# Larger rules are refused: the rule is verified up to 2^14 nodes (tests/test_continuous.py).
GAUSS_LEGENDRE_MAX_POINTS = 1 << 14
_NEWTON_STEP_TOL = 4 * np.finfo(float).eps  # a Newton step this small is rounding
_NEWTON_MAX_PASSES = 10
_BETA_FORM_BELOW = np.pi / 4  # edge nodes below this beta take the edge sum in beta


def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] in O(Q) time and memory.

    Newton's method over the nonnegative half, from Tricomi's guesses cos(pi (4k - 1) /
    (4Q + 2)) (1 - (Q - 1) / (8Q^3)), in beta = pi/2 - theta, x = cos(theta) = sin(beta)
    (its series nodes near 0 land within an ulp, as theta's cannot), on sqrt(sin theta) P_Q(x):
    Legendre's equation in normal form has no first-order term, so its second derivative
    vanishes at the nodes and the steps shrink cubically.  The weights are
    2 / (dP_Q/dtheta)^2 from the last pass; for odd Q the middle node is 0.  P_Q comes from:
    - near the edge, 2Q sin(theta) <= 80 (every node for Q up to ~40), the exact sum
      sum_k a_k a_{Q-k} cos((Q - 2k) theta), a_k = C(2k, k) / 4^k > 0 summing to 1, and for
      beta < pi/4 (only below Q = 57, as cos beta <= 40/Q) the same sum in beta,
      Re i^Q sum_k (-1)^k a_k a_{Q-k} e^{-i (Q - 2k) beta}, which keeps beta's digits;
    - elsewhere the Stieltjes series of Hale & Townsend (SIAM J. Sci. Comput. 35, 2013,
      sec. 3), C_Q sum_{m<16} h_m cos((Q+m+1/2) theta - (m+1/2) pi/2) / (2 sin theta)^(m+1/2)
      with h_m = h_{m-1} (m-1/2)^2 / (m (Q+m+1/2)): i^Q e^{-i (Q+1/2) beta} times one
      Horner polynomial in e^{-i beta} / (2 cos beta) (last term < 2e-19), and C_Q =
      (4/pi) prod_{j<=Q} (1 - 1/(2j+1)) summed as logs (np.prod errs by 1.2e-14 at 2^14).
    """
    k, n, m = np.arange(q // 2 + 1), np.arange(1, q + 1), np.arange(16.0)
    x = np.cos(np.pi * (4 * k[1:] - 1) / (4 * q + 2)) * (1 - (q - 1) / (8 * q**3))
    beta = np.append(np.arcsin(x), [0.0] * (q % 2))
    edge = np.count_nonzero(2 * q * np.cos(beta) <= 80.0)  # a prefix: beta falls to 0
    a = np.cumprod(np.append(1.0, 1 - 0.5 / n))
    fold = a[k] * a[q - k] * (2 - (2 * k == q)) * np.stack([np.ones(k.size), q - 2 * k])
    h = np.cumprod(np.append(1.0, (m[1:] - 0.5) ** 2 / (m[1:] * (q + m[1:] + 0.5))))
    horner = (h * np.stack([np.ones(m.size), m + 0.5])).T[::-1]
    c_q = 4 / np.pi * np.exp(np.log1p(-1 / (2 * n + 1)).sum()) * [1, 1j, -1, -1j][q % 4]
    for _ in range(_NEWTON_MAX_PASSES):
        low = beta[:edge] < _BETA_FORM_BELOW  # in beta: pi/2 - beta would round beta's digits off
        s = np.exp(1j * np.outer(np.where(low, -beta[:edge], np.pi / 2 - beta[:edge]), q - 2 * k))
        s[low] *= [1, 1j, -1, -1j][q % 4] * (1 - 2 * (k % 2))  # i^Q (-1)^k, exact
        s = s @ fold.T
        b, acc = beta[edge:], 0
        u = (np.exp(-1j * b) / (2 * np.cos(b)))[:, None]
        for row in horner:  # sum_m h_m u^m and sum_m h_m (m + 1/2) u^m
            acc = acc * u + row
        e = c_q * np.exp(-1j * (q + 0.5) * b) / np.sqrt(2 * np.cos(b))
        p = np.concatenate([s[:, 0].real, (e * acc[:, 0]).real])
        dp = np.concatenate([s[:, 1].imag,  # dP_Q/dbeta = -dP_Q/dtheta
                             -(e * (1j * q * acc[:, 0] + (1j - np.tan(b)) * acc[:, 1])).real])
        step = p / (dp - p * np.tan(beta) / 2)
        beta = beta - step
        if np.abs(step).max() <= _NEWTON_STEP_TOL:
            break
    else:
        raise NonConvergenceError(f"Gauss-Legendre nodes for Q={q}: Newton did not converge")
    x, w = np.sin(beta), 2 / (dp * dp)
    x[q // 2:] = 0.0  # the middle node of an odd rule, which the edge sum leaves at 1e-17
    return np.concatenate([-x, x[::-1][q % 2:]]), np.concatenate([w, w[::-1][q % 2:]])


def make_continuous_system(alpha, generators, connectors=None) -> EntangledSystem:
    """Assemble an EntangledSystem of generators, given as such or as raw matrices.

    Validated like make_system, except that boundedness is checked when the
    system is evaluated, not here.
    """
    return _validate_system(alpha, tuple(as_semigroup(b) for b in generators), connectors)


@dataclass(frozen=True)
class ContinuousAverage:
    """Quadrature value plus a Richardson error estimate (None when skipped)."""

    value: np.ndarray
    error_estimate: float | None
    points: int


_CHUNK_CELLS = 1 << 14  # exponentials per chunk of the node sum: nodes times block-grid cells


def _quadrature_weight(block, s_nodes, weights) -> np.ndarray:
    """g(mu) = sum_i weights_i e^{mu s_i} over one block's eigen-index grid.

    block is the system's (entangle._block_table).  Axis i runs over the
    eigenvalues of its members[i] and mu is the sum of one eigenvalue per
    axis; weights are the rule's w_i / t.  The node sum runs in chunks of at
    most max(cells, _CHUNK_CELLS) exponentials, so its memory follows the
    block grid, not Q.  Resonant cells, the table's decision, get exactly 1.
    """
    mu = np.zeros((), dtype=np.complex128)
    for member in block.members:
        mu = np.add.outer(mu, member.eigenbasis.eigenvalues)
    cells = mu.ravel()
    g = np.zeros(cells.shape, dtype=np.complex128)
    step = max(1, _CHUNK_CELLS // cells.size)
    for lo in range(0, len(s_nodes), step):
        chunk = np.multiply.outer(s_nodes[lo : lo + step], cells)
        g += weights[lo : lo + step] @ np.exp(chunk, out=chunk)
    return _resonant_to_one(g.reshape(mu.shape), block)


def _quadrature_bytes(part: Partition, d: int) -> float:
    """Peak bytes of the spectral route: the discrete count plus the node sum's.

    _spectral_bytes counts 74 + 2r bytes per cell of the largest block grid
    (r positions), and mu, g and two one-node chunks take 64, a continuous
    table 9 + 2r.  Chunks of several nodes hold at most
    _CHUNK_CELLS exponentials each, and two are alive across one step of
    the loop; the broadcast product that fills one iterates through two
    numpy buffers.
    """
    return _spectral_bytes(part, d) + 32 * (_CHUNK_CELLS + np.getbufsize())


def _midpoint_average(system, t, quad: QuadratureSpec, x, budget, strategy):
    """The midpoint rule as discrete time: with h = t/Q, T(s_i) = E P^i at
    s_i = (i + 1/2) h for P = e^{hB} and E = e^{hB/2}, so the rule is E_m
    times the depth-Q mean over k = 0..Q-1 of the operators P_j with
    connectors A_j E_j, refused or run by entangle._evaluate_discrete with
    the exact step h for the spectral weight (only presum builds P).  E, not
    e^{-hB/2}, which would amplify rounding by e^{|Re lam| h/2} on a stiff
    generator.  Q and h must be normal floats.  Only a step without a record comes from
    linalg.expm, whose norm cap refuses a large h before any power stack."""
    q = quad._size(t)
    h = Fraction(t) / q
    if q > sys.float_info.max or float(h) < sys.float_info.min:  # int > float is exact
        raise BudgetExceededError(f"midpoint grid of Q >= 2^{q.bit_length() - 1} points over "
                                  f"t={t:g} leaves the normal float range; lower Q")
    halves = _per_matrix(system.semigroups, lambda sg: _step(sg, float(h) / 2))
    conns = [a @ halves(j) for j, a in enumerate(system.connectors)]
    return halves(-1) @ _evaluate_discrete([sg.generator for sg in system.semigroups], conns,
                                           system.partition, q, strategy, x, budget,
                                           system.semigroups, system.blocks, h)


def _gauss_legendre_average(system, t, quad: QuadratureSpec, x, budget, strategy):
    """The Gauss-Legendre rule, refused before its nodes are computed, then run.

    Grids past GAUSS_LEGENDRE_MAX_POINTS, the verified range, are refused first, then
    entangle._route decides, prices and refuses the route as for every finite mean.
    Cost, in d x d products:

    spectral : Q sum_blocks d^r / d^3 for the node sums over each block's
               d^r eigen-index grid, plus the discrete spectral contraction
    presum   : ~20 products per node and distinct generator for the batched
               expm, plus the plan's cost with one product per node for each
               singleton block; memory is the stacks plus two working buffers.
    """
    part, d, q = system.partition, system.dim, quad.points
    if q > GAUSS_LEGENDRE_MAX_POINTS:
        raise BudgetExceededError(
            f"Gauss-Legendre rule of Q={q} nodes is past the verified range "
            f"(cap Q={GAUSS_LEGENDRE_MAX_POINTS}); use the midpoint rule"
        )
    generators = [sg.generator for sg in system.semigroups]

    def price(route):
        if route == "spectral":
            cells = sum(float(d) ** len(positions) for positions in part.blocks.values())
            return q * cells / d**3 + _estimate_cost(route, q, part, d), _quadrature_bytes(part, d)
        return (len({id(g) for g in generators}) * 20.0 * q + part.plan.cost(q, q),
                _stack_bytes(generators, range(part.m), q))

    route = _route(strategy, budget, system.semigroups, part, d, q, "Q", price)
    s_nodes, w_nodes = quad.nodes(t)
    if route == "spectral":
        return _record_mean(system.semigroups, list(system.connectors), part, lambda positions:
                            _quadrature_weight(system.blocks[positions], s_nodes, w_nodes / t), x)
    stack = _per_matrix(generators, lambda b: linalg.expm(b, s_nodes))
    return _contract(part, list(system.connectors), stack,
                     lambda j: np.tensordot(w_nodes, stack(j), axes=1) / t, w_nodes / t, x)


def continuous_entangled_average(
    system: EntangledSystem,
    t: float,
    quad: QuadratureSpec = QuadratureSpec(),
    x=None,
    budget: float | None = 1e8,
    richardson: bool = True,
    strategy: str = "spectral",
) -> ContinuousAverage:
    """(1/t^k) times the iterated integral of the semigroup chain over [0,t]^k.

    All positions sharing a block read their semigroup at the same node of
    one shared 1-D grid.  The midpoint rule is discrete time
    (_midpoint_average): with h = t/Q it is e^{hB_m/2} times the depth-Q
    mean over the powers 0..Q-1 of the operators e^{hB_j} with connectors
    A_j e^{hB_j/2}, under entangled_average's strategies, cost model and
    guards.  On the spectral route a cell whose exact frequencies alias
    (sum phi h an integer, sum phi = 0 among them) gets g_Q = 1, and the
    half steps give it its true value (-1)^{sum phi h}.  On a Gauss-Legendre
    grid ``spectral`` (default) is one scalar weight (1/t) sum_i w_i e^{mu s_i}
    per block when every generator carries an eigenbasis record and the grid
    fits the memory cap, else ``presum``: one batched expm per generator.

    An unknown strategy is refused with ValidationError.  Q, t and costs are
    refused before any work, each rule's in the function that runs it; with
    richardson=True the doubled grid, whose difference from the requested one
    is the error estimate (at about 3x the cost), runs first, and since cost
    and memory only grow with Q its refusals cover the requested grid's.
    Only a formed exponential meets linalg.expm's norm cap (OverflowError):
    a step without a record, or presum's Gauss-Legendre nodes; records run at
    any horizon t.

    Sampling well below the fastest frequency aliases the oscillation; keep
    Q at 20 or more points per period (see suggest_points).
    """
    _require_bounded(_on_clock(system.operators, CONTINUOUS))
    x = _state(x, system.dim)
    quad._size(t)  # Q and t are refused before the doubled grid runs
    _check_strategy(strategy)  # before the midpoint rule's steps
    average = _midpoint_average if quad.scheme == "midpoint" else _gauss_legendre_average
    grids = [QuadratureSpec(quad.scheme, 2 * quad.points), quad] if richardson else [quad]
    *finer, value = [average(system, float(t), grid, x, budget, strategy) for grid in grids]
    est = float(np.linalg.norm(value - finer[0])) if richardson else None
    return ContinuousAverage(value if x is None else value[:, 0], est, quad.points)


def suggest_points(system: EntangledSystem, t: float, per_period: float = 20.0) -> int:
    """Grid size putting per_period nodes on the fastest spectral oscillation.

    t and per_period must be positive and finite, else ValidationError; a
    grid size per_period * t * f_max beyond the float range raises
    BudgetExceededError, as any grid too large to run does.
    """
    linalg._positive_finite(t, "horizon t")
    linalg._positive_finite(per_period, "per_period")
    generators = _on_clock(system.operators, CONTINUOUS)
    fmax = max((abs(p.frequency) for sg in generators for p in sg.frequency_points), default=0.0)
    points = per_period * t * fmax
    if not np.isfinite(points):
        raise BudgetExceededError(
            f"grid of {per_period:g} points per period over t={t:g} at frequency "
            f"{float(fmax):g} is beyond the float range"
        )
    return max(2, int(np.ceil(points)))


def continuous_limit_operator(system: EntangledSystem, tol: float = 1e-8) -> np.ndarray:
    """t -> infinity limit of the continuous entangled averages.

    limit_operator for a system of generators: the sum over additively
    resonant frequency tuples (each block's frequencies cancel exactly) of
    P_m A_{m-1} ... A_1 P_1, with P_j the spectral projection of B_j at
    2*pi*i*phi_j.  A system of discrete time is refused.
    """
    _on_clock(system.operators, CONTINUOUS)
    return limit_operator(system, tol)
