"""Power-bounded operators with spectral bookkeeping, on either clock.

A SpectralOperator is a square matrix on a Clock: an operator T with
boundary the unit circle on DISCRETE (the default), or a generator B of
e^{tB} with boundary the imaginary axis on continuous.CONTINUOUS; each
clock's entry points refuse the other's with ValidationError (_on_clock).
It holds one eigenbasis record T = S diag(eigenvalues) S^{-1}, boundary
eigenvalues first: a synthesized operator's certificate, with an exact
rational (angle or frequency) per boundary eigenvalue, or a raw matrix's
one float eig when cond_2(V) <= EIGENBASIS_COND_CAP.  Operators are immutable.

Spectral projections take one of two routes (_boundary_basis): the record,
or a Schur form with Sylvester decoupling, the one route that loads SciPy.
"""

from __future__ import annotations

import cmath
import functools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    BadAngleError,
    NotPowerBoundedError,
    NotUnimodularError,
    SpectralFailureError,
    ValidationError,
)
from .rng import CounterRng

UNIMOD_BAND = 1e-8   # distance from the unit circle that still counts as on it
CLUSTER_TOL = 1e-8   # eigenvalue matching tolerance for float spectra


def _exact_literal(x) -> bool:
    """A Fraction, string, int or NumPy integer (no bool) or tuple: what _parse_exact reads."""
    return isinstance(x, (Fraction, str, int, np.integer, tuple)) and not isinstance(x, bool)


def _parse_exact(x, noun: str = "angle", error=BadAngleError) -> Fraction:
    """Exact rational from a Fraction, an integer, an (integer, integer) pair or a 'p/q' string.

    Floats are rejected: a value that is not exactly rational has no place in
    the resonance arithmetic, and silently rationalizing one would hide that.
    Pair members must be integers too: (1.5, 2) is refused, not truncated.
    """
    if isinstance(x, float):
        raise error(f"float {noun} {x!r} rejected; pass an exact rational like '1/3'")
    try:
        if isinstance(x, str):
            return Fraction(x.strip())
        if isinstance(x, tuple) and len(x) == 2 and all(
                isinstance(v, (int, np.integer)) and _exact_literal(v) for v in x):
            return Fraction(int(x[0]), int(x[1]))
        if _exact_literal(x) and not isinstance(x, tuple):  # a Fraction or an integer
            return Fraction(x if isinstance(x, Fraction) else int(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise error(f"cannot parse {noun} {x!r}") from exc
    raise error(f"cannot parse {noun} {x!r}")


def parse_angle(x) -> Fraction:
    """Exact angle as a Fraction of a full turn, normalized into [0, 1).

    Accepts Fraction, int, (p, q) integer pairs and 'p/q' strings; floats are
    rejected (see _parse_exact).
    """
    return _parse_exact(x) % 1


def angle_value(fr: Fraction) -> complex:
    """Unit-circle value e^{2 pi i fr}."""
    return cmath.exp(2j * cmath.pi * (fr.numerator / fr.denominator))


def _exact_phases(angles, h=None) -> list:
    """a h mod 1 centered in (-1/2, 1/2] for exact angles a (h = 1 when None): integer pairs
    (a.numerator p mod a.denominator q, a.denominator q), h = p / q, shifted by a turn and
    divided once, correctly rounded (as float(Fraction)); a small negative a h keeps its digits."""
    p, q = (1, 1) if h is None else (h.numerator, h.denominator)
    pairs = [(a.numerator * p % (a.denominator * q), a.denominator * q) for a in angles]
    return [(u - v if 2 * u > v else u) / v for u, v in pairs]


@dataclass(frozen=True)
class SpectralPoint:
    """One unimodular eigenvalue: float value, multiplicity, optional exact angle."""

    value: complex
    multiplicity: int
    angle: Fraction | None = None
    exact = property(lambda self: self.angle)  # as continuous.FrequencyPoint names it

    def key(self):
        """Deterministic sort key: exact angle when present, else phase."""
        if self.angle is not None:
            return (0, self.angle)
        phase = cmath.phase(self.value) / (2 * cmath.pi) % 1.0
        return (1, phase)


@dataclass(frozen=True)
class Certificate:
    """Eigenbasis record T = basis @ diag(eigenvalues) @ basis_inv, boundary first."""

    basis: np.ndarray
    eigenvalues: np.ndarray
    basis_inv: np.ndarray
    angles: tuple = ()  # boundary eigenvalues' exact values; None each on a float record
    exact = property(lambda self: not self.angles or self.angles[0] is not None)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Haar-unitary eigenbasis; the synthesized operator is normal."""

    seed: int


@dataclass(frozen=True)
class RandomSimilarity:
    """Eigenbasis I + scaled Gaussian, rescaled until cond_2 <= condition_cap."""

    seed: int
    condition_cap: float = 50.0


class Clock:
    """Discrete time: powers T^n, boundary eigenvalues e^{2 pi i theta}.

    The spectral core in this module (synthesis, the raw-matrix read, the
    boundedness verdict, projections) and the limit assembly in
    spectral_limit are written once against these members; continuous time
    overrides them.  size and edge place an eigenvalue z: stable when
    size(z) < edge, on the boundary when |size(z) - edge| <= band.
    """

    noun = "operator"
    exact_noun = "angle"
    exact_error = BadAngleError
    unbounded_error = NotPowerBoundedError
    additive = False  # block resonance: eigenvalues multiply to exactly 1
    edge = 1.0
    band = UNIMOD_BAND
    size = staticmethod(np.abs)
    size_name = "spectral radius"
    boundary_name = "the unit circle"
    stable_region = "inside the open unit disk"

    def literal(self, x) -> Fraction:
        """Exact value as written; reduce gives the canonical one."""
        return _parse_exact(x, self.exact_noun, self.exact_error)

    def reduce(self, fr: Fraction) -> Fraction:
        return fr % 1

    def eigenvalue(self, fr: Fraction) -> complex:
        return angle_value(fr)

    def resonance_entry(self, point):
        """What resonant_tuples takes for one boundary point: the point itself."""
        return point

    def point(self, value: complex, multiplicity: int, exact: Fraction | None):
        return SpectralPoint(value, multiplicity, exact)

    def exponents(self, rec: Certificate) -> np.ndarray:
        """One exponent eps per eigen-index of rec, e^eps its eigenvalue: 2 pi i theta at an
        exact angle theta centered in (-1/2, 1/2], else log lam on the principal branch with
        Re eps <= 0, so that a float record's boundary modulus 1 + O(eps) cannot grow as
        n eps; an eigenvalue 0 gets -800 (e^-800 is 0.0), so that n eps stays finite."""
        lam = np.asarray(rec.eigenvalues, np.complex128)  # an identity's may be real
        eps = np.log(lam, out=np.full(lam.shape, -800.0 + 0j), where=lam != 0)
        np.minimum(eps.real, 0.0, out=eps.real)
        if rec.exact:
            eps[: len(rec.angles)] = 2j * np.pi * np.array(_exact_phases(rec.angles))
        return eps

    def on_boundary(self, z) -> bool:
        return abs(self.size(z) - self.edge) <= self.band

    def __reduce__(self):  # pickled by name: a copy is the module's one clock
        return "DISCRETE"


DISCRETE = Clock()


def _require_bounded(members):
    """members, unless one fails its verdict: then its clock's unbounded error."""
    for j, member in enumerate(members):
        ok, reason = member.spectral_verdict
        if not ok:
            raise member.clock.unbounded_error(f"{member.clock.noun} {j + 1}: {reason}")
    return members


def _on_clock(members, clock: Clock):
    """members, once each lives on clock: the other clock's would get answers
    for the wrong boundary (powers of a generator), so ValidationError."""
    for member in members:
        if member.clock is not clock:
            raise ValidationError(f"{member.clock.noun} given where {clock.noun}s are expected")
    return members


# A certificate must reproduce its matrix T: ||S diag(eigenvalues) S^-1 - T||_F may be at
# most CERTIFICATE_RTOL * ||S||_F ||S^-1||_F * max|eigenvalue|.  ||S||_F ||S^-1||_F bounds
# cond_2(S) from above, and about d * eps times the whole product bounds the rounding of
# forming S diag(eigenvalues) S^-1 in floating point; 1e-10 leaves room for d up to
# linalg.DIM_CAP and for a T multiplied out in another order.
CERTIFICATE_RTOL = 1e-10


def _check_certificate(matrix: np.ndarray, cert: Certificate) -> None:
    """ValidationError unless cert's S diag(eigenvalues) S^-1 is matrix within CERTIFICATE_RTOL."""
    s, eigs, s_inv = cert.basis, cert.eigenvalues, cert.basis_inv
    if eigs.ndim != 1 or not s.shape == s_inv.shape == matrix.shape == 2 * eigs.shape:
        raise ValidationError(f"certificate of shapes {s.shape}, {eigs.shape}, {s_inv.shape} "
                              f"does not fit a {matrix.shape} matrix")
    if eigs.size == 0:
        raise ValidationError("a certified operator needs at least one eigenvalue")
    residual = np.linalg.norm((s * eigs[np.newaxis, :]) @ s_inv - matrix)
    bound = (CERTIFICATE_RTOL * np.linalg.norm(s) * np.linalg.norm(s_inv)
             * np.max(np.abs(eigs)))
    if not residual <= bound:
        raise ValidationError(f"the certificate does not reproduce the matrix: "
                              f"||S diag(eigenvalues) S^-1 - T||_F = {residual:.3e} > {bound:.3e}")


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Matrix plus spectral bookkeeping on its clock, an immutable value; verdict is a
    raw operator's (ok, reason), and a synthesized one's record is its certificate."""

    matrix: np.ndarray
    eigenbasis: Certificate | None
    power_bound_estimate: float
    unimodular_spectrum: tuple  # SpectralPoints; FrequencyPoints on the continuous clock
    verdict: tuple | None = field(default=None, repr=False)
    clock: Clock = DISCRETE
    exponents: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        """Refuse an operator with neither a record nor a verdict, and a record that does
        not reproduce the matrix (_check_certificate); give a record's eigen-indices their
        exponents (Clock.exponents), once; then make every array read-only."""
        rec, arrays = self.eigenbasis, [self.matrix]
        if rec is not None:
            _check_certificate(self.matrix, rec)
            object.__setattr__(self, "exponents", self.clock.exponents(rec))
            arrays += [rec.basis, rec.eigenvalues, rec.basis_inv, self.exponents]
        elif self.verdict is None:
            raise ValidationError("a raw operator needs its verdict: build it with from_matrix "
                                  "or semigroup_from_generator")
        for arr in arrays:
            arr.flags.writeable = False

    def __reduce__(self):  # through the constructor: read-only arrays, the record checked
        return SpectralOperator, (self.matrix, self.eigenbasis, self.power_bound_estimate,
                                  self.unimodular_spectrum, self.verdict, self.clock)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    # the fields' names on the continuous clock, where the matrix is a generator
    generator = property(lambda self: self.matrix)
    growth_bound_estimate = property(lambda self: self.power_bound_estimate)
    frequency_points = property(lambda self: self.unimodular_spectrum)

    def value(self, t) -> np.ndarray:
        """T(t) = exp(tB) of a generator; t may be a scalar or a 1-D array of times.

        An operator of discrete time has powers, not a value at time t:
        ValidationError.
        """
        if self.clock is DISCRETE:
            raise ValidationError("value(t) = exp(tB) needs a generator, not an operator")
        return linalg.expm(self.matrix, t)

    @functools.cached_property
    def _owners(self) -> tuple[int, ...]:
        """Per boundary eigen-index of the record, the index of its point: of its exact value,
        or on a float record of its stretch, which _read_matrix lists point by point."""
        points, rec = self.unimodular_spectrum, self.eigenbasis
        if rec.exact:
            exacts = [p.exact for p in points]
            return tuple(exacts.index(a) for a in rec.angles)
        return tuple(i for i, p in enumerate(points) for _ in range(p.multiplicity))

    @property
    def certificate(self) -> Certificate | None:
        """The exact record of a synthesized operator; None for a raw one."""
        return self.eigenbasis if self.verdict is None else None

    @property
    def spectral_verdict(self) -> tuple[bool, str | None]:
        """(ok, reason): closed stable spectrum, semisimple boundary; a certificate passes."""
        return self.verdict or (True, None)


def _basis_pair(spec, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(spec, OrthonormalBasis):
        s = linalg.haar_unitary(dim, spec.seed)
        return s, s.conj().T
    if isinstance(spec, RandomSimilarity):
        rng = CounterRng(spec.seed)
        z = rng.complex_normal((dim, dim)) / np.sqrt(2.0 * dim)
        c = 1.0
        eye = np.eye(dim)
        for _ in range(60):
            s = eye + c * z
            if np.linalg.cond(s) <= spec.condition_cap:
                return s, np.linalg.solve(s, eye)
            c *= 0.5
        raise ValidationError("could not meet the similarity condition cap")
    raise ValidationError(f"unknown basis spec {spec!r}")


def _synthesize(exact_values, stable, basis, clock: Clock) -> SpectralOperator:
    """S diag(boundary, stable) S^{-1} as an operator on clock, with its certificate.

    The boundary eigenvalues come from exact values (angles or frequencies), the
    certificate lists them first, and the bound is cond_2(S), which caps
    ||T^n|| (or ||T(t)||) for all n (t).
    """
    exacts = tuple(clock.reduce(clock.literal(v)) for v in exact_values)
    stable_vals = tuple(complex(s) for s in stable)
    for s in stable_vals:
        if not clock.size(s) < clock.edge:
            raise ValidationError(
                f"stable eigenvalue {s!r} is not {clock.stable_region}"
            )
    dim = len(exacts) + len(stable_vals)
    if dim == 0:
        raise DimensionMismatchError(f"{clock.noun} needs at least one eigenvalue")
    if dim > linalg.DIM_CAP:
        raise DimensionMismatchError(f"dimension {dim} exceeds cap {linalg.DIM_CAP}")

    eigs = np.array(
        [clock.eigenvalue(f) for f in exacts] + list(stable_vals), dtype=np.complex128
    )
    s, s_inv = _basis_pair(basis, dim)
    matrix = (s * eigs[np.newaxis, :]) @ s_inv
    points = tuple(
        clock.point(clock.eigenvalue(f), mult, f)
        for f, mult in sorted(Counter(exacts).items())
    )
    cert = Certificate(s, eigs, s_inv, exacts)
    return SpectralOperator(matrix, cert, float(np.linalg.cond(s)), points, clock=clock)


def _block_diagonal(matrix, members, d: int, bound: float) -> SpectralOperator:
    """matrix = blockdiag of the members' matrices (None: an identity, eigenvalues 1 at exact
    angle 0) on DISCRETE, certified by blockdiag S and S^{-1} of their certificates: every
    block's boundary eigen-indices first, in block order; bound is the caller's, the members'
    largest."""
    ident = Certificate(np.eye(d), np.ones(d), np.eye(d), (Fraction(0),) * d)
    recs = [ident if member is None else member.certificate for member in members]
    basis, basis_inv = np.zeros((2, len(recs) * d, len(recs) * d), np.complex128)
    for b, rec in enumerate(recs):
        basis[b * d : (b + 1) * d, b * d : (b + 1) * d] = rec.basis
        basis_inv[b * d : (b + 1) * d, b * d : (b + 1) * d] = rec.basis_inv
    order = sorted(range(len(recs) * d), key=lambda i: i % d >= len(recs[i // d].angles))
    angles = sum((rec.angles for rec in recs), ())
    eigs = np.concatenate([rec.eigenvalues for rec in recs])
    cert = Certificate(basis[:, order], eigs[order], basis_inv[order], angles)
    points = tuple(SpectralPoint(angle_value(a), k, a) for a, k in sorted(Counter(angles).items()))
    return SpectralOperator(matrix, cert, bound, points)


def _read_matrix(arr: np.ndarray, tol: float, band: float, clock: Clock) -> SpectralOperator:
    """One eig of a raw matrix -> an uncertified SpectralOperator on clock.

    Eigenvalues within CLUSTER_TOL of each other are merged; a cluster is a
    boundary point when its center lies within band of the boundary.  The
    bound is cond_2(V) of the eigenvectors V, or inf beyond the boundary.
    With a passing verdict and cond_2(V) <= EIGENBASIS_COND_CAP the eig is the
    float record, boundary points first, V^{-1} from one inv; it passes
    _check_certificate by 50x or more (d = 16).  arr is copied.
    """
    linalg._positive_finite(band, "boundary band")
    arr = arr.copy()
    dec = linalg.eig(arr, tol, on_boundary=clock.on_boundary)
    clusters = sorted(
        ((clock.point(center, int(members.size), None), members.tolist())
         for center, members in linalg.cluster_eigenvalues(dec.values, CLUSTER_TOL)
         if abs(clock.size(center) - clock.edge) <= band),
        key=lambda c: c[0].key(),
    )
    worst = float(np.max(clock.size(dec.values)))
    bound, verdict = float(dec.condition_estimate), (True, None)
    if worst > clock.edge + clock.band:
        bound = float("inf")
        verdict = False, f"{clock.size_name} {worst:.6e} beyond {clock.boundary_name}"
    elif not dec.semisimple_boundary:
        verdict = False, f"defective eigenvalue cluster on {clock.boundary_name}"
    record = None
    if verdict[0] and bound <= EIGENBASIS_COND_CAP:
        boundary = [i for _, members in clusters for i in members]
        order = boundary + [i for i in range(arr.shape[0]) if i not in boundary]
        record = Certificate(dec.right_vectors[:, order], dec.values[order],
                             np.linalg.inv(dec.right_vectors)[order], (None,) * len(boundary))
    return SpectralOperator(arr, record, bound, tuple(p for p, _ in clusters), verdict, clock)


def synth_operator(angles, stable, basis) -> SpectralOperator:
    """Operator with exact unit-circle eigenvalues e^{2 pi i a} and stable part.

    angles : iterable of exact rational turns (see parse_angle).
    stable : iterable of complex numbers strictly inside the unit disk.
    basis  : OrthonormalBasis or RandomSimilarity.

    The certificate keeps S, S^{-1} and the eigenvalue list, unimodular part
    first, so downstream projections can be assembled exactly.
    """
    return _synthesize(angles, stable, basis, DISCRETE)


def from_matrix(a, tol: float = 1e-9) -> SpectralOperator:
    """Wrap a raw matrix; the unimodular spectrum is read off the eigensolver.

    One eig call yields the unimodular spectrum (clusters merged at
    CLUSTER_TOL, centers within UNIMOD_BAND of the circle), the power bound,
    the boundedness verdict and, when cond_2(V) <= EIGENBASIS_COND_CAP, a
    float eigenbasis record (no exact angles); without one, projections take
    a Schur split (_boundary_basis) and means presum.
    """
    return _read_matrix(linalg.as_matrix(a, square=True), tol, UNIMOD_BAND, DISCRETE)


def as_operator(t) -> SpectralOperator:
    """Coerce a matrix-like or SpectralOperator into an operator; generators are refused."""
    if isinstance(t, SpectralOperator):
        return _on_clock([t], DISCRETE)[0]
    return from_matrix(t)


@dataclass(frozen=True)
class PowerBoundReport:
    """Verdict plus bound of certify_power_bounded and certify_bounded_semigroup."""

    passed: bool
    bound: float
    measured_max: float
    reason: str | None = None


def _bound_report(member, measured: float) -> PowerBoundReport:
    ok, reason = member.spectral_verdict
    if not ok:
        return PowerBoundReport(False, float("inf"), measured, reason)
    estimate = member.power_bound_estimate
    bound = estimate if np.isfinite(estimate) else measured
    return PowerBoundReport(True, float(max(bound, measured)), measured, None)


def certify_power_bounded(op, n_max: int = 64) -> PowerBoundReport:
    """Spectral certificate plus a measured sweep of ||T^n|| for n <= n_max.

    passed reflects the spectral criterion only (closed unit disk, semisimple
    unit-circle clusters); the sweep is evidence, reported as measured_max.
    bound is a certified sup_n ||T^n|| when a diagonalization is available
    (the basis condition number), otherwise the measured maximum.
    """
    op = as_operator(op)
    n_max = linalg._positive_int(n_max, "n_max")
    power = np.eye(op.dim, dtype=np.complex128)
    measured = 0.0
    for _ in range(n_max):
        power = op.matrix @ power
        measured = max(measured, linalg.spectral_norm(power))
    return _bound_report(op, measured)


def _schur_split(arr: np.ndarray, select):
    """Sorted complex Schur form with the selected eigenvalues leading.

    Returns (t11, right, left): arr = Z [[T11, T12], [0, T22]] Z^H with the k
    selected eigenvalues in T11, right = Z[:, :k] and left = [I, Y] Z^H with
    Y solving T11 Y - Y T22 = T12, so right @ left is the spectral projection
    onto the selected part.  Raises SpectralFailureError when the selected
    and complementary clusters are too close to decouple.  Imports SciPy
    here, so that only raw splits load it.
    """
    import scipy.linalg as sla
    d = arr.shape[0]
    t, z, sdim = sla.schur(arr, output="complex", sort=select)
    k = int(sdim)
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    y = np.zeros((k, d - k), dtype=np.complex128)
    if 0 < k < d:
        gap = float(np.min(np.abs(np.diagonal(t11)[:, None] - np.diagonal(t22)[None, :])))
        if gap < 1e-10:
            raise SpectralFailureError(
                f"eigenvalue clusters separated by only {gap:.3e}; projection unstable"
            )
        try:
            y = sla.solve_sylvester(t11, -t22, t12)
        except np.linalg.LinAlgError as exc:
            raise SpectralFailureError(f"Sylvester decoupling failed: {exc}") from exc
    return t11, z[:, :k], np.hstack([np.eye(k, dtype=np.complex128), y]) @ z.conj().T


def schur_spectral_projection(a, select) -> np.ndarray:
    """Spectral projection Z [[I, Y], [0, 0]] Z^H onto the invariant subspace
    of the eigenvalues select accepts (see _schur_split)."""
    arr = linalg.as_matrix(a, square=True)
    _, right, left = _schur_split(arr, lambda e: bool(select(complex(e))))
    return right @ left


@dataclass(frozen=True)
class JdlSplit:
    """Reversible/stable splitting: p_r + p_s = I, ranges are T-invariant."""

    p_r: np.ndarray
    p_s: np.ndarray


def jdl_split(op) -> JdlSplit:
    """Projection pair separating unit-circle eigenspace from the stable rest.

    Requires the power-boundedness certificate; in finite dimension the stable
    range then carries ||T^n p_s|| -> 0 geometrically while T restricted to
    the reversible range is similar to a diagonal unitary.
    """
    op = as_operator(op)
    _require_bounded([op])
    p_r = np.zeros((op.dim, op.dim), dtype=np.complex128)
    points = op.unimodular_spectrum
    if points:
        right, left, _ = _boundary_basis(op, range(len(points)))
        p_r = right @ left
    return JdlSplit(p_r, np.eye(op.dim, dtype=np.complex128) - p_r)


# Largest cond_2(V) of a raw operator's eigenvectors V (unit columns) at which
# its eig becomes its float eigenbasis record (_read_matrix).  Swept at
# d = 16 (boundary 1, i, -1 twice, -i; S = U diag(geomspace(1, c)) W with
# Haar U, W; worst of 5 seeds) against the projection at -1 built from the
# exact S: both routes err by about c^2 * eps up to c = 1e4 (this route
# 2.8e-12 at 1e3, 1.8e-10 at 1e4; the Schur split 2.9e-12, 1.2e-10), and at
# 1e5 by 1.2e-8 and 2.7e-8; from c = 1e6 the double eigenvalue splits past
# CLUSTER_TOL, so neither route resolves it (the Schur split errs by 1.0).
# The defective stable parts in the tests read cond_2(V) of 7.8e7 to 1.8e8,
# and fall back.
EIGENBASIS_COND_CAP = 1e6


def _boundary_basis(op, picked):
    """(right, left, group): d x r and r x d bases of op at the boundary points
    op.unimodular_spectrum[p], p in picked, r their multiplicity in all.

    group, nondecreasing, gives the index in picked of each eigen-index: the
    projection at point picked[v] is right[:, idx] @ left[idx, :] over the
    idx with group[idx] == v.  Two routes:

    - the record: S's columns and S^{-1}'s rows of each point's members, the
      eigen-indices that SpectralOperator._owners gives the point;
    - Schur: one sorted Schur form puts the eigenvalues within
      CLUSTER_TOL * max(1, |value|) of the points first (_schur_split), and
      for more than one the eig W diag(mu) W^{-1} of T11 splits them: right
      Z_1 W, left W^{-1} [I, Y] Z^H.  A point that gets other than its
      multiplicity (a cluster chained wider) raises SpectralFailureError.
    """
    rec = op.eigenbasis
    if rec is None:
        return _schur_basis(op.matrix, [op.unimodular_spectrum[p] for p in picked])
    idx = [i for p in picked for i, o in enumerate(op._owners) if o == p]
    group = [v for v, p in enumerate(picked) for o in op._owners if o == p]
    return rec.basis.take(idx, axis=1), rec.basis_inv.take(idx, axis=0), group


def _schur_basis(matrix, points):
    """_boundary_basis's Schur route (see there)."""
    values = [p.value for p in points]
    bands = [CLUSTER_TOL * max(1.0, abs(v)) for v in values]
    t11, right, left = _schur_split(
        matrix, lambda e: any(abs(e - v) <= b for v, b in zip(values, bands))
    )
    group = [0] * t11.shape[0]
    if len(values) > 1:
        mu, vecs = np.linalg.eig(t11)
        dist = np.abs(mu[:, None] - np.asarray(values)[None, :]) / np.asarray(bands)
        group = np.argmin(dist, axis=1)
        order = np.argsort(group, kind="stable")
        vecs = vecs[:, order]
        right, left, group = right @ vecs, np.linalg.solve(vecs, left), group[order].tolist()
    found, mults = [group.count(v) for v in range(len(points))], [p.multiplicity for p in points]
    if found != mults:
        raise SpectralFailureError(f"the Schur form has {found} eigenvalues at boundary points "
                                   f"of multiplicity {mults}: a cluster wider than CLUSTER_TOL")
    return right, left, group


def _boundary_projection(op, value: complex, exact, mult: int | None = None):
    """Spectral projection of op at its boundary points at value (_boundary_basis): of that
    exact value on an exact record, else within CLUSTER_TOL * max(1, |value|) of the point
    or, on a float record, of one of its members (a cluster chained wider than the band
    has its center out of it); none gives zero.  With mult, points of another
    multiplicity in all raise SpectralFailureError."""
    points, rec, band = op.unimodular_spectrum, op.eigenbasis, CLUSTER_TOL * max(1.0, abs(value))
    by_exact = exact is not None and rec is not None and rec.exact
    near = {i for i, p in enumerate(points) if abs(p.value - value) <= band}
    if rec is not None and not rec.exact:  # members: the point's stretch of the boundary prefix
        near |= {o for o, z in zip(op._owners, rec.eigenvalues) if abs(z - value) <= band}
    picked = [i for i, p in enumerate(points) if (p.exact == exact if by_exact else i in near)]
    found = sum(points[i].multiplicity for i in picked)
    if mult not in (None, found):
        raise SpectralFailureError(f"points at {value} have multiplicity {found}, not {mult}")
    if not picked:
        return np.zeros((op.dim, op.dim), dtype=np.complex128)
    right, left, _ = _boundary_basis(op, picked)
    return right @ left


def _parse_target(lam) -> tuple[complex, Fraction | None]:
    if _exact_literal(lam):
        fr = parse_angle(lam)
        return angle_value(fr), fr
    val = complex(lam)
    if abs(abs(val) - 1.0) > UNIMOD_BAND:
        raise NotUnimodularError(f"|lambda| = {abs(val):.6e} is not 1")
    return val, None


def mean_ergodic_projection(op, lam):
    """Projection onto ker(T - lambda) along ran(T - lambda).

    lam may be a complex number on the unit circle or an exact angle (Fraction,
    'p/q' string, (p, q) tuple, int).  It reads the eigenbasis record or a Schur
    split (_boundary_basis), exact up to linear algebra; the Cesaro mean
    (1/n) sum_{j=1..n} (conj(lambda) T)^j converges to it at rate O(1/n).
    Off-spectrum lam gives the zero matrix.
    """
    return _boundary_projection(as_operator(op), *_parse_target(lam))
