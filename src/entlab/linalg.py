"""Dense linear-algebra kernels the rest of the package builds on.

Eigendecomposition, the matrix exponential and the spectral norm delegate to
LAPACK/SciPy behind small wrappers that add validation, residual checks and
error mapping; expm imports scipy.linalg when called, so importing the
package does not load SciPy.  Haar unitaries come from QR of a complex
Gaussian matrix with the usual phase fix on the diagonal of R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonConvergenceError, ValidationError
from .rng import CounterRng

# Dense eig above this size is slow enough to be a foot-gun in an interactive
# laboratory; everything in the package validates against it.
DIM_CAP = 512

# Refuse matrix exponentials whose scaled 1-norm would push Pade scaling and
# squaring past ~17 squarings of headroom; exp overflows double range anyway
# near ||tB|| ~ 700 for non-normal B, so the cap is generous.
EXPM_NORM_CAP = 1.0e5


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a complex128 2-D array.

    Raises DimensionMismatchError for wrong rank, empty or non-square (when
    required) input, and for non-finite entries.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise DimensionMismatchError(f"{name} has non-finite entries")
    if max(arr.shape) > DIM_CAP:
        raise DimensionMismatchError(
            f"{name} dimension {max(arr.shape)} exceeds cap {DIM_CAP}"
        )
    return arr


@dataclass(frozen=True)
class EigDecomposition:
    """Right eigendecomposition with diagnostics.

    values : (d,) complex eigenvalues, repeated to algebraic multiplicity.
    right_vectors : (d, d) columns are unit-norm right eigenvectors.
    condition_estimate : 2-norm condition of the eigenvector matrix
        (np.inf when it is singular to working precision).
    semisimple_boundary : True when every eigenvalue cluster on the spectral
        boundary (the unit circle unless the caller chose another) has
        geometric multiplicity equal to its algebraic multiplicity.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    condition_estimate: float
    semisimple_boundary: bool


def cluster_eigenvalues(values, tol: float = 1e-8):
    """Group eigenvalues by single-linkage at distance tol.

    Values i and j are linked when |v_i - v_j| <= tol.  Each value takes the
    least label among its linked values (then that label's label) until no
    label changes, so it ends labelled by the least index of its cluster.
    Returns a list of (center, indices), indices ascending and center their
    mean, sorted by (real, imag) of the center for determinism.
    """
    vals = np.asarray(values, dtype=np.complex128)
    n = vals.size
    near = np.abs(vals[:, np.newaxis] - vals[np.newaxis, :]) <= tol
    np.fill_diagonal(near, True)
    label = np.arange(n)
    while True:
        nxt = np.where(near, label, n).min(axis=1, initial=n)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    roots, first, counts = np.unique(label, return_index=True, return_counts=True)
    centers, members = vals[first], list(first[:, np.newaxis])  # a singleton's mean is itself
    for k in np.flatnonzero(counts > 1).tolist():
        members[k] = np.flatnonzero(label == roots[k])
        centers[k] = vals[members[k]].mean()
    out = list(zip(centers.tolist(), members))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _positive_finite(value, name: str):
    """value itself; ValidationError unless it is positive and finite."""
    if value is None or not 0 < value < np.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return value


def _positive_int(value, name: str, error=ValidationError) -> int:
    """value as a Python int; error unless it is a positive integer (not a bool)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _on_unit_circle(z: complex) -> bool:
    return abs(abs(z) - 1.0) <= 1e-8


def eig(a, tol: float = 1e-9, *, on_boundary=_on_unit_circle) -> EigDecomposition:
    """Eigendecomposition with a residual check and a semisimplicity verdict.

    The residual guarantee is ||A v_i - lambda_i v_i||_2 <= tol * ||A||_F for
    every returned pair; LAPACK failure or a residual above the bound raises
    NonConvergenceError.  Semisimplicity is decided per boundary cluster (a
    cluster whose center passes on_boundary; by default the unit circle to
    1e-8) by comparing the cluster size with d - rank(A - center*I); clusters
    are formed at a coarser tolerance (1e-6) than the residual check because
    defective eigenvalues split at the sqrt-of-eps scale.  A tol that is not
    positive and finite raises ValidationError.
    """
    _positive_finite(tol, "tolerance")
    arr = as_matrix(a, square=True)
    d = arr.shape[0]
    try:
        values, vectors = np.linalg.eig(arr)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver failed: {exc}") from exc

    scale = float(np.linalg.norm(arr))
    if scale > 0.0:
        resid = arr @ vectors - vectors * values[np.newaxis, :]
        worst = float(np.max(np.linalg.norm(resid, axis=0)))
        if worst > tol * scale:
            raise NonConvergenceError(
                f"eigenpair residual {worst:.3e} exceeds {tol:.1e} * ||A||"
            )

    cond = float(np.linalg.cond(vectors))

    semisimple = True
    for center, members in cluster_eigenvalues(values, tol=1e-6):
        if not on_boundary(center):
            continue
        alg = members.size
        if alg == 1:
            continue
        spread = float(np.max(np.abs(values[members] - center)))
        zero_tol = max(1e-8, 10.0 * spread) * max(1.0, scale)
        geo = d - np.linalg.matrix_rank(arr - center * np.eye(d), tol=zero_tol)
        if geo < alg:
            semisimple = False
            break
    return EigDecomposition(values, vectors, cond, semisimple)


def check_expm_horizon(arr: np.ndarray, t_max: float) -> None:
    """OverflowError when t_max * ||B||_1 exceeds EXPM_NORM_CAP.

    arr is an already validated square matrix.  expm runs this on its
    largest |t|; callers that build exp(tB) from products of shorter steps
    run it on their largest t before the first product.
    """
    norm = t_max * float(np.linalg.norm(arr, 1))
    if not norm <= EXPM_NORM_CAP:  # a NaN norm fails this too
        raise OverflowError(f"||t*B||_1 = {norm:.3e} exceeds cap {EXPM_NORM_CAP:.1e}")


def expm(b, t=1.0) -> np.ndarray:
    """exp(t*B) by SciPy's Pade scaling-and-squaring.

    t may be a scalar or a 1-D array of times; the array form returns a
    (len(t), d, d) stack evaluated in one batched call.  A NaN or infinite
    time raises ValidationError; inputs whose scaled 1-norm max|t| * ||B||_1
    exceeds EXPM_NORM_CAP raise OverflowError, both before SciPy is loaded.
    """
    arr = as_matrix(b, square=True)
    ts = np.asarray(t, dtype=np.float64)
    if ts.ndim > 1:
        raise DimensionMismatchError("t must be a scalar or 1-D array")
    if not np.all(np.isfinite(ts)):
        raise ValidationError("expm times must be finite")
    check_expm_horizon(arr, float(np.max(np.abs(ts))) if ts.size else 0.0)
    import scipy.linalg as sla
    if ts.ndim == 0:
        return sla.expm(float(ts) * arr)
    if ts.size == 0:
        return np.zeros((0,) + arr.shape, dtype=np.complex128)
    return sla.expm(ts[:, np.newaxis, np.newaxis] * arr[np.newaxis, :, :])


def spectral_norm(a) -> float:
    """Largest singular value (LAPACK SVD, the real routine for real input)."""
    arr = as_matrix(a)
    return float(np.linalg.svd(arr if arr.imag.any() else arr.real, compute_uv=False)[0])


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary of size dim, deterministic in seed.

    QR of a standard complex Gaussian matrix, with each column of Q rotated by
    the phase of the matching diagonal entry of R so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    dim = _positive_int(dim, "dim", DimensionMismatchError)
    if dim > DIM_CAP:
        raise DimensionMismatchError(f"dim {dim} exceeds cap {DIM_CAP}")
    rng = CounterRng(seed)
    z = rng.complex_normal((dim, dim)) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[np.newaxis, :]
