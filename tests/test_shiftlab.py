"""Tests for the lattice-shift counterexample machinery.

Everything here is exact integer / Fraction arithmetic, so assertions are
equalities, not tolerances, except where a finite section is handed to
floating-point linear algebra.  The divergence means are cross-checked
against the closed block-counting form (N - ones(N)) / N, which the
production code deliberately does not use.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import linalg
from entlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EmptySequenceError,
    ValidationError,
)
from entlab.shiftlab import (
    BLOCK_SEQUENCE,
    MAX_CHECKPOINT,
    SWEEP_CHUNK,
    SparseZVector,
    counterexample_A,
    divergence_experiment,
    finite_section,
    iter_divergence,
    shift_apply,
)

# ------------------------------------------------------------ sparse vectors


def test_sparse_vector_drops_zeros_and_sorts_support():
    v = SparseZVector({3: 1, -2: Fraction(1, 2), 5: 0})
    assert v.support == (-2, 3)
    assert v[5] == 0
    assert v[-2] == Fraction(1, 2)


def test_sparse_vector_add_cancels_exactly():
    v = SparseZVector({0: 1, 1: -2})
    w = SparseZVector({0: -1, 2: 7})
    s = v.add(w)
    assert s == SparseZVector({1: -2, 2: 7})
    assert 0 not in s.support


def test_sparse_vector_scale_keeps_exact_types():
    v = SparseZVector({4: Fraction(2, 3)})
    w = v.scale(Fraction(3, 2))
    assert w[4] == 1
    assert isinstance(w[4], Fraction)


def test_sparse_vector_inner_conjugates_second_argument():
    v = SparseZVector({0: 1j})
    w = SparseZVector({0: 1j})
    assert v.inner(w) == 1.0  # <ij e0, ij e0> = i * conj(i) = 1
    x = SparseZVector({0: 2, 1: 3})
    y = SparseZVector({0: 5, 2: 11})
    assert x.inner(y) == 10  # only the shared index contributes


def test_sparse_vector_norm():
    v = SparseZVector({0: 3, 7: 4})
    assert v.norm() == pytest.approx(5.0)


def test_sparse_vector_rejects_non_integer_indices():
    with pytest.raises(ValidationError):
        SparseZVector({0.5: 1})
    with pytest.raises(ValidationError):
        SparseZVector({True: 1})


# ------------------------------------------------------------ block sequence


def test_block_sequence_first_values():
    got = [BLOCK_SEQUENCE(n) for n in range(1, 17)]
    #       1  2  3  4  5  6  7  8  9 10 11 12 13 14 15 16
    assert got == [0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0]


def test_block_sequence_ones_count_matches_brute_force():
    brute = 0
    for n in range(1, 3000):
        brute += BLOCK_SEQUENCE(n)
        assert BLOCK_SEQUENCE.ones_count(n) == brute


def test_block_sequence_dyadic_means_oscillate():
    # means at N = 4^j approach 2/3, at N = 2*4^j approach 1/3
    for j in (2, 3, 4, 5):
        n_hi = 4 ** j
        mean_hi = Fraction(BLOCK_SEQUENCE.ones_count(n_hi), n_hi)
        assert mean_hi == Fraction(2, 3) - Fraction(2, 3 * 4 ** j)
        n_lo = 2 * 4 ** j
        mean_lo = Fraction(BLOCK_SEQUENCE.ones_count(n_lo), n_lo)
        assert mean_lo == Fraction(1, 3) + Fraction(1, 6 * 4 ** j)


def test_block_sequence_domain_checks():
    with pytest.raises(ValidationError):
        BLOCK_SEQUENCE(0)
    with pytest.raises(ValidationError):
        BLOCK_SEQUENCE.ones_count(-3)


# -------------------------------------------------------------------- shift


def test_shift_apply_moves_support():
    v = SparseZVector({0: 1, 5: 2})
    assert shift_apply(v, 3) == SparseZVector({-3: 1, 2: 2})
    assert shift_apply(v, -2) == SparseZVector({2: 1, 7: 2})
    # U^0 is the identity; U^a U^b = U^{a+b}
    assert shift_apply(v, 0) == v
    assert shift_apply(shift_apply(v, 4), -4) == v


def test_shift_is_an_isometry_on_the_section():
    sec = finite_section(lambda v: shift_apply(v, 1), window=6)
    assert linalg.spectral_norm(sec) <= 1.0 + 1e-12


# ----------------------------------------------------- companion operator A


def test_companion_fixes_nonnegative_lattice():
    for b in (0, 1, 7):
        assert counterexample_A(SparseZVector.basis(b)) == SparseZVector.basis(b)


def test_companion_moves_negative_lattice_by_rule():
    # e_{-b} -> e_{f(b) - (-b)}? unwrap: index -4 maps to f(4) - (-4) = 0 + 4
    assert counterexample_A(SparseZVector.basis(-4)) == SparseZVector.basis(4)
    # index -2: f(2) = 1, target 1 + 2 = 3
    assert counterexample_A(SparseZVector.basis(-2)) == SparseZVector.basis(3)
    # index -1: f(1) = 0, target 1
    assert counterexample_A(SparseZVector.basis(-1)) == SparseZVector.basis(1)


def test_companion_collision_class_accumulates():
    # e_4, e_{-4} and e_{-3} all land on e_4: f(4)=0 -> 4, f(3)=1 -> 4
    v = SparseZVector({4: 1, -4: 1, -3: 1})
    assert counterexample_A(v) == SparseZVector({4: 3})
    # and the witness shows norm >= sqrt(3) on the unit vector (1,1,1)/sqrt(3)
    assert counterexample_A(v).norm() / v.norm() == pytest.approx(np.sqrt(3.0))


def test_companion_is_linear_over_exact_scalars():
    v = SparseZVector({-5: Fraction(1, 3), 2: 7})
    w = SparseZVector({-5: Fraction(2, 3), -1: 1j})
    lhs = counterexample_A(v.add(w))
    rhs = counterexample_A(v).add(counterexample_A(w))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-64, max_value=64),
        st.integers(min_value=-5, max_value=5),
        max_size=8,
    )
)
def test_companion_norm_never_exceeds_sqrt3(coeffs):
    v = SparseZVector(coeffs)
    image = counterexample_A(v)
    assert image.norm() <= np.sqrt(3.0) * v.norm() + 1e-12


# ------------------------------------------------------------ finite section


def test_finite_section_of_identity():
    sec = finite_section(lambda v: v, window=2)
    assert np.array_equal(sec, np.eye(5))


def test_finite_section_column_content():
    sec = finite_section(counterexample_A, window=4)
    # column of e_{-4} (index 0) has its one at row of e_4 (index 8)
    assert sec[8, 0] == 1.0
    assert np.count_nonzero(sec[:, 0]) == 1
    # column of e_2 (index 6) is fixed: diagonal entry
    assert sec[6, 6] == 1.0


def test_finite_section_norm_reaches_sqrt3():
    # window 4 contains the full collision class {e_4, e_-4, e_-3}
    sec = finite_section(counterexample_A, window=4)
    assert linalg.spectral_norm(sec) == pytest.approx(np.sqrt(3.0), abs=1e-9)
    # a window too small to hold the class stays at sqrt(2)
    small = finite_section(counterexample_A, window=3)
    assert linalg.spectral_norm(small) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_finite_section_rejects_bad_window():
    with pytest.raises(DimensionMismatchError):
        finite_section(counterexample_A, window=-1)
    with pytest.raises(DimensionMismatchError):
        finite_section(counterexample_A, window=2.5)
    with pytest.raises(DimensionMismatchError):
        finite_section(counterexample_A, window=256)


def test_finite_section_array_route_matches_per_column_route():
    # a wrapper is not counterexample_A itself, so it takes the per-column route
    def per_column(v):
        return counterexample_A(v)

    for w in range(256):
        assert np.array_equal(finite_section(counterexample_A, w), finite_section(per_column, w))
    for bad in (-1, 2.5, True, 256):
        raised = []
        for apply_fn in (counterexample_A, per_column):
            with pytest.raises(DimensionMismatchError) as info:
                finite_section(apply_fn, bad)
            raised.append(str(info.value))
        assert raised[0] == raised[1]


# -------------------------------------------------------- divergence record


def test_divergence_matches_closed_form_exactly():
    checkpoints = [1, 2, 3, 4, 8, 16, 32, 64, 100, 256]
    got = divergence_experiment(checkpoints)
    for n, mean in got:
        expect = Fraction(n - BLOCK_SEQUENCE.ones_count(n), n)
        assert mean == expect
        assert isinstance(mean, Fraction)


def test_divergence_subsequences_split():
    # along N = 4^j the means fall to 1/3; along N = 2*4^j they rise to 2/3
    lows = [4 ** j for j in range(2, 7)]
    highs = [2 * 4 ** j for j in range(2, 7)]
    got = dict(divergence_experiment(lows + highs))
    for j in range(2, 7):
        assert got[4 ** j] == Fraction(1, 3) + Fraction(2, 3 * 4 ** j)
        assert got[2 * 4 ** j] == Fraction(2, 3) - Fraction(1, 6 * 4 ** j)
    # the two cluster points stay at least 1/4 apart from j = 2 on
    for j in range(2, 7):
        assert got[2 * 4 ** j] - got[4 ** j] >= Fraction(1, 4)


def test_divergence_checkpoint_validation():
    with pytest.raises(EmptySequenceError):
        divergence_experiment([])
    with pytest.raises(ValidationError):
        divergence_experiment([0, 4])


def test_divergence_accepts_custom_sequence():
    # with f identically 0 the companion fixes everything: means are all 1
    class Zero:
        def __call__(self, n):
            return 0

    got = divergence_experiment([1, 5, 9], f=Zero())
    assert [mean for _, mean in got] == [1, 1, 1]


@pytest.mark.parametrize("bad", [2.7, 2.0, True, Fraction(4), "4"])
def test_divergence_refuses_checkpoints_that_are_not_integers(bad):
    with pytest.raises(ValidationError, match="integers"):
        divergence_experiment([bad, 8])


def test_divergence_accepts_numpy_integer_checkpoints():
    assert divergence_experiment([np.int64(4)]) == divergence_experiment([4])


@pytest.mark.parametrize("top", [MAX_CHECKPOINT, MAX_CHECKPOINT + 1, 2**64])
def test_divergence_refuses_checkpoints_from_2_pow_53_before_any_work(top):
    assert MAX_CHECKPOINT == 2**53
    with pytest.raises(BudgetExceededError, match="2\\^53"):
        next(iter_divergence([1, top]))  # validation precedes the first term


def test_block_sequence_array_form_matches_bit_lengths_up_to_2_pow_53():
    ns = sorted({n for k in range(1, 54) for n in (2**k - 1, 2**k, 2**k + 1)
                 if 1 <= n < MAX_CHECKPOINT})
    got = BLOCK_SEQUENCE.values(np.array(ns, dtype=np.int64))
    assert got.tolist() == [BLOCK_SEQUENCE(n) for n in ns]


def test_divergence_matches_closed_form_at_2_pow_20_and_across_step_boundaries():
    edges = [j * SWEEP_CHUNK + off for j in (1, 2, 7) for off in (-1, 0, 1)]
    checkpoints = edges + [2**20 - 1, 2**20]
    for n, mean in divergence_experiment(checkpoints):
        assert mean == Fraction(n - BLOCK_SEQUENCE.ones_count(n), n), n


def _sparse_vector_means(checkpoints, f):
    """<U^n A U^n e_0, e_0> applied on SparseZVectors, one n at a time."""
    e0 = SparseZVector.basis(0)
    running, out = 0, []
    for n in range(1, max(checkpoints) + 1):
        running += shift_apply(counterexample_A(shift_apply(e0, n), f), n).inner(e0)
        if n in checkpoints:
            out.append((n, Fraction(running, n)))
    return out


def test_divergence_with_custom_sequence_matches_the_sparse_vector_chain():
    class EveryThird:
        def __call__(self, n):
            return int(n % 3 == 0)

    class Signed:  # values other than 0 and 1 send e_{-n} elsewhere
        def __call__(self, n):
            return (-1) ** n * (n % 4)

    checkpoints = [1, 5, SWEEP_CHUNK, SWEEP_CHUNK + 1, 300]
    for f in (EveryThird(), Signed(), BLOCK_SEQUENCE):
        assert divergence_experiment(checkpoints, f=f) == _sparse_vector_means(checkpoints, f)


def test_divergence_refuses_a_sequence_with_non_integer_values():
    class Half:
        def __call__(self, n):
            return 0.5

    with pytest.raises(ValidationError, match="integer values"):
        divergence_experiment([3], f=Half())


def test_sparse_vector_repr_lists_its_support_in_order():
    assert repr(SparseZVector({2: 1, -1: Fraction(1, 2)})) == \
        "SparseZVector({-1: Fraction(1, 2), 2: 1})"


def test_shift_power_must_be_an_integer():
    with pytest.raises(ValidationError, match="shift power must be an integer"):
        shift_apply(SparseZVector.basis(0), 1.5)
