"""Bilateral-shift counterexample lab.

Works on finitely supported vectors over the integer lattice.  The star of
the module is a bounded operator A built from a 0/1 block sequence f: it
fixes e_b for b >= 0 and sends e_b to e_{f(-b) - b} for b < 0.  Conjugating
by powers of the bilateral shift U (U e_b = e_{b-1}) gives

    < U^n A U^n e_0, e_0 > = 1 - f(n),

so the Cesaro means of the matrix coefficient track the density of zeros of
f.  With f constant 1 on binary blocks [2^e, 2^{e+1}) of odd e the prefix
densities oscillate between 1/3 and 2/3 forever and the means diverge.  All
divergence arithmetic here is exact (integers and Fractions).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptySequenceError,
    ValidationError,
)
from .linalg import DIM_CAP


class SparseZVector:
    """Finitely supported vector over the integer lattice.

    Coefficients keep whatever exact type they were given (int, Fraction,
    complex); arithmetic never coerces, so integer experiments stay exact.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        self._c = {}
        if coeffs:
            for b, v in dict(coeffs).items():
                if not isinstance(b, (int, np.integer)) or isinstance(b, bool):
                    raise ValidationError(f"lattice index must be an integer, got {b!r}")
                if v != 0:
                    self._c[int(b)] = v

    @classmethod
    def basis(cls, b: int) -> "SparseZVector":
        return cls({b: 1})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def __getitem__(self, b: int):
        return self._c.get(b, 0)

    def items(self):
        return sorted(self._c.items())

    def add(self, other: "SparseZVector") -> "SparseZVector":
        out = dict(self._c)
        for b, v in other._c.items():
            out[b] = out.get(b, 0) + v
        return SparseZVector(out)

    def scale(self, c) -> "SparseZVector":
        return SparseZVector({b: c * v for b, v in self._c.items()})

    def inner(self, other: "SparseZVector"):
        """<self, other> = sum_b self[b] * conj(other[b]); exact when both are."""
        keys = self._c.keys() & other._c.keys()
        return sum((self._c[b] * _conj(other._c[b]) for b in keys), 0)

    def norm(self) -> float:
        return float(np.sqrt(float(sum(abs(v) ** 2 for v in self._c.values()))))

    def __eq__(self, other):
        return isinstance(other, SparseZVector) and self._c == other._c

    def __repr__(self):
        inside = ", ".join(f"{b}: {v!r}" for b, v in self.items())
        return f"SparseZVector({{{inside}}})"


def _conj(v):
    return v.conjugate() if hasattr(v, "conjugate") else v


class BlockSequence:
    """f(n) = 1 exactly when floor(log2 n) is odd, n >= 1.

    Constant on binary blocks [2^e, 2^{e+1}): the ones live on blocks with
    odd e.  Prefix sums are computed by counting whole blocks, so they are
    exact for any n that fits in an int.
    """

    def __call__(self, n: int) -> int:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"defined on positive integers, got {n!r}")
        return (int(n).bit_length() - 1) & 1

    def values(self, ns: np.ndarray) -> np.ndarray:
        """f over an int64 array of n in [1, 2^53): np.frexp gives n = m 2^e
        with m in [0.5, 1), so e is n's bit length, exactly while n is a float."""
        return (np.frexp(ns.astype(np.float64))[1] - 1) & 1

    def ones_count(self, n: int) -> int:
        """#{ j in [1, n] : f(j) = 1 }, exactly."""
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"defined on positive integers, got {n!r}")
        n = int(n)
        total = 0
        e = 1
        while (1 << e) <= n:
            lo = 1 << e
            hi = min(n + 1, 1 << (e + 1))
            total += hi - lo
            e += 2
        return total


BLOCK_SEQUENCE = BlockSequence()


def shift_apply(v: SparseZVector, n: int) -> SparseZVector:
    """Apply U^n where U e_b = e_{b-1}; negative n shifts the other way."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"shift power must be an integer, got {n!r}")
    return SparseZVector({b - int(n): c for b, c in v._c.items()})


def _companion_target(b, fb):
    """A's index rule: e_b -> e_b for b >= 0 and e_{f(-b) - b} for b < 0.

    b is an int or an int64 array, fb is f(-b) where b < 0 (and is not read
    where b >= 0).
    """
    if isinstance(b, np.ndarray):
        return np.where(b >= 0, b, fb - b)
    return b if b >= 0 else fb - b


def counterexample_A(v: SparseZVector, f=BLOCK_SEQUENCE) -> SparseZVector:
    """The block-sequence companion operator.

    e_b -> e_b for b >= 0, e_b -> e_{f(-b) - b} for b < 0.  Images can
    collide (at most three basis vectors share a target, which is why the
    operator norm is sqrt(3)), so coefficients accumulate.
    """
    out: dict[int, object] = {}
    for b, c in v._c.items():
        target = _companion_target(b, f(-b) if b < 0 else None)
        out[target] = out.get(target, 0) + c
    return SparseZVector(out)


# Terms per array step of the sweep.  A step costs about 15 us whatever its
# length, so long steps amortize it: on a 2-core Xeon VM the sweep to 8192
# takes 2.0 ms at 64 terms a step and 0.23 ms at 1024, while a step's arrays
# stay at tens of kilobytes.
SWEEP_CHUNK = 1024
# BlockSequence.values reads bit lengths off float64, exact below 2^53
MAX_CHECKPOINT = 1 << 53


def _f_values(f, n: np.ndarray) -> np.ndarray:
    """f over an int64 array of n: BlockSequence's array form, else f called per n."""
    if isinstance(f, BlockSequence):
        return f.values(n)
    vals = np.fromiter(map(f, n.tolist()), dtype=object, count=n.size)
    ints = vals.astype(np.int64)
    if np.any(ints != vals):
        raise ValidationError("the sequence f must take integer values")
    return ints


def iter_divergence(checkpoints, f=BLOCK_SEQUENCE):
    """Exact Cesaro means of <U^n A U^n e_0, e_0>, yielded as the sweep goes.

    Evaluates the operator chain on basis indices, a stretch of n at a time:
    U^n e_0 = e_{-n}, then A's index rule (the one counterexample_A applies)
    at b = -n, then U^n again; the term is 1 where the image is e_0.  The
    sweep runs over n = 1..max(checkpoints) in array steps of at most
    SWEEP_CHUNK terms that end at checkpoints, keeps an exact integer count,
    and yields (N, Fraction mean) the moment N is reached, in increasing N.
    f is BLOCK_SEQUENCE, through its array form, or any integer-valued
    callable, called once per n.  The closed block-counting form
    (N - ones(N)) / N is deliberately not used here; it is the independent
    cross-check in the tests.

    The checkpoints are validated when iteration starts: integers (not
    bools) >= 1, else ValidationError, and below 2^53 (MAX_CHECKPOINT), else
    BudgetExceededError.
    """
    checkpoints = list(checkpoints)
    for c in checkpoints:
        if not isinstance(c, (int, np.integer)) or isinstance(c, bool):
            raise ValidationError(f"checkpoints must be integers, got {c!r}")
    ns = sorted({int(c) for c in checkpoints})
    if not ns:
        raise EmptySequenceError("need at least one checkpoint")
    if ns[0] < 1:
        raise ValidationError("checkpoints must be >= 1")
    if ns[-1] >= MAX_CHECKPOINT:
        raise BudgetExceededError(
            f"checkpoint {ns[-1]} is at or above 2^53, beyond any sweep and past "
            "the exact float64 bit lengths of the block sequence's array form"
        )
    running = 0
    lo = 1
    for stop in ns:
        while lo <= stop:
            n = np.arange(lo, min(stop + 1, lo + SWEEP_CHUNK), dtype=np.int64)
            image = _companion_target(-n, _f_values(f, n)) - n  # U^n e_0 = e_{-n}, A, U^n
            running += int(np.count_nonzero(image == 0))
            lo += n.size
        yield stop, Fraction(running, stop)


def divergence_experiment(checkpoints, f=BLOCK_SEQUENCE):
    """[(N, Fraction mean)] at the given checkpoints, sorted by N (iter_divergence)."""
    return list(iter_divergence(checkpoints, f))


def finite_section(apply_fn, window: int) -> np.ndarray:
    """Compression of a lattice operator to span{e_{-w}, ..., e_w}.

    apply_fn maps SparseZVector -> SparseZVector linearly; the returned
    (2w+1) x (2w+1) complex matrix has columns indexed b = -w..w and rows
    likewise, entries <A e_b, e_r>.  Image mass outside the window is
    dropped, which is the point of a finite section.  A window whose 2w+1
    exceeds linalg.DIM_CAP raises DimensionMismatchError before allocating.

    counterexample_A is read off its index rule in one array pass (each e_b
    has one target); any other apply_fn is applied column by column.
    """
    if not isinstance(window, (int, np.integer)) or isinstance(window, bool) or window < 0:
        raise DimensionMismatchError(f"window must be a nonnegative integer, got {window!r}")
    w = int(window)
    size = 2 * w + 1
    if size > DIM_CAP:
        raise DimensionMismatchError(
            f"window {w} needs a {size}x{size} section, past cap {DIM_CAP}")
    out = np.zeros((size, size), dtype=np.complex128)
    if apply_fn is counterexample_A:
        b = np.arange(-w, w + 1, dtype=np.int64)  # f(-b) is not read where b >= 0
        row = _companion_target(b, _f_values(BLOCK_SEQUENCE, np.maximum(-b, 1))) + w
        cols = np.flatnonzero(row < size)  # targets are never negative
        out[row[cols], cols] = 1.0
        return out
    for col, b in enumerate(range(-w, w + 1)):
        image = apply_fn(SparseZVector.basis(b))
        for idx, coef in image.items():
            if -w <= idx <= w:
                out[idx + w, col] = complex(coef)
    return out
