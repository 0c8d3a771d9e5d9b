"""Tests for resonance enumeration, the limit operator and the density
diagnostic.

Resonant sets are checked against hand-enumerated solutions of the block
constraints; the limit operator against projections assembled by hand from
the known eigenbasis; the meet-in-the-middle path against the brute path.
"""

import cmath
import copy
import itertools
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import (ResonantTuple, ResonantTuples, continuous, entangle, linalg, operators,
                    spectral_limit)
from entlab.continuous import (
    CONTINUOUS,
    QuadratureSpec,
    continuous_limit_operator,
    make_continuous_system,
    semigroup_from_generator,
    synth_semigroup,
)
from entlab.entangle import _normalize_entry, entangled_average, make_partition, make_system
from entlab.errors import (
    BudgetExceededError,
    EmptySequenceError,
    NotPowerBoundedError,
    ValidationError,
)
from entlab.operators import (
    OrthonormalBasis,
    RandomSimilarity,
    SpectralPoint,
    _boundary_projection,
    from_matrix,
    jdl_split,
    mean_ergodic_projection,
    synth_operator,
)
from entlab.spectral_limit import (
    FRAGILE_BAND,
    kvn_diagnostic,
    limit_operator,
    limit_operator_with_tuples,
    resonant_tuples,
    unimodular_spectrum,
)


def _angles(tup):
    """Exact angles of one resonant tuple, as a plain tuple of Fractions."""
    return tup.exact


# ------------------------------------------------------ unimodular spectrum


def test_unimodular_spectrum_passthrough_keeps_exact_angles():
    op = synth_operator(["1/3", "0"], [0.5], OrthonormalBasis(seed=1))
    pts = unimodular_spectrum(op)
    assert [p.angle for p in pts] == [Fraction(0), Fraction(1, 3)]


def test_unimodular_spectrum_from_raw_matrix():
    t = np.diag([1.0, np.exp(2j * np.pi / 5), 0.3])
    pts = unimodular_spectrum(t)
    assert len(pts) == 2
    assert all(p.angle is None for p in pts)
    assert abs(pts[0].value - 1.0) < 1e-10


# --------------------------------------------------------- resonance: exact


def test_resonant_pairs_single_block_exact():
    spectra = [["0", "1/3", "1/2"], ["0", "2/3", "1/2"]]
    tuples = resonant_tuples(spectra, [1, 1])
    got = {(_angles(t)) for t in tuples}
    assert got == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(1, 2)),
    }
    assert all(t.residuals == (0.0,) for t in tuples)
    assert all(not t.fragile for t in tuples)


def test_resonant_tuples_two_blocks_are_independent():
    # alpha = [1, 2]: each position is its own block, so each eigenvalue must
    # be 1 on its own
    spectra = [["0", "1/3"], ["0", "1/2"]]
    tuples = resonant_tuples(spectra, [1, 2])
    assert len(tuples) == 1
    assert _angles(tuples[0]) == (Fraction(0), Fraction(0))
    assert tuples[0].residuals == (0.0, 0.0)


def test_resonant_triples_within_one_block():
    spectra = [["1/6", "0"], ["1/3", "0"], ["1/2", "0"]]
    tuples = resonant_tuples(spectra, [1, 1, 1])
    got = {(_angles(t)) for t in tuples}
    # 1/6 + 1/3 + 1/2 = 1 == 0 mod 1; plus the all-zero tuple
    assert (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)) in got
    assert (Fraction(0), Fraction(0), Fraction(0)) in got
    for t in tuples:
        assert sum(t.exact) % 1 == 0


def test_additive_mode_does_not_wrap_modulo_one():
    freqs = [["0", "1/2", "-1/2"], ["0", "1/2", "-1/2"]]
    add = resonant_tuples(freqs, [1, 1], additive=True)
    got = {t.exact for t in add}
    assert got == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(-1, 2), Fraction(1, 2)),
    }
    # multiplicative mode on the same angles also accepts (1/2, 1/2):
    # the half turns compose to a full turn
    mult = resonant_tuples(freqs, [1, 1])
    assert (Fraction(1, 2), Fraction(1, 2)) in {t.exact for t in mult}


def test_additive_frequencies_keep_sign_and_magnitude():
    freqs = [["3/2"], ["-3/2"]]
    add = resonant_tuples(freqs, [1, 1], additive=True)
    assert len(add) == 1
    assert add[0].entries == (1.5, -1.5)


# --------------------------------------------------------- resonance: float


def test_float_route_accepts_within_tolerance():
    lam = np.exp(2j * np.pi * 0.1234)
    tuples = resonant_tuples([[lam], [np.conj(lam)]], [1, 1])
    assert len(tuples) == 1
    assert tuples[0].exact == (None, None)
    assert tuples[0].residuals[0] <= 1e-12
    assert not tuples[0].fragile


def test_float_route_rejects_outside_tolerance():
    lam = np.exp(2j * np.pi * 0.1)
    assert resonant_tuples([[lam], [lam]], [1, 1]) == ()


def test_fragile_flag_marks_near_threshold_residuals():
    # residual ~2e-9 sits between the 1e-10 floor and the 1e-8 tolerance
    lam = np.exp(2e-9j)
    tuples = resonant_tuples([[lam], [1.0 + 0.0j]], [1, 1])
    assert len(tuples) == 1
    assert tuples[0].fragile
    # a comfortably exact pair is not fragile
    solid = resonant_tuples([[1.0 + 0.0j], [1.0 + 0.0j]], [1, 1])
    assert not solid[0].fragile


def test_entry_far_from_circle_rejected():
    with pytest.raises(ValidationError):
        resonant_tuples([[0.5 + 0.0j], [1.0 + 0.0j]], [1, 1])


@pytest.mark.parametrize(
    "spectra, additive",
    [
        ([[complex("nan"), 1.0], [1.0]], False),
        ([[float("nan"), 0.5], [-0.5]], True),
        ([[float("inf"), 0.5], [-0.5]], True),
        ([[complex("inf"), 1.0], [1.0]], False),
        ([[SpectralPoint(complex("nan"), 1)], [1.0]], False),
    ],
)
def test_non_finite_entries_refused(spectra, additive):
    # a NaN entry used to be accepted and to never resonate
    with pytest.raises(ValidationError, match="not finite"):
        resonant_tuples(spectra, [1, 1], additive=additive)


def test_additive_mode_refuses_unit_circle_points_even_with_exact_angles():
    # an angle is a turn of the circle: read as a frequency it used to give
    # one tuple, (0, 0), where the multiplicative call finds two
    points = synth_operator(["0", "1/2"], [0.5], OrthonormalBasis(seed=11)).unimodular_spectrum
    assert all(p.angle is not None for p in points)
    assert len(resonant_tuples([points, points], [1, 1])) == 2
    with pytest.raises(ValidationError, match="additive mode needs real frequencies"):
        resonant_tuples([points, points], [1, 1], additive=True)


def test_spectra_count_must_match_alpha():
    with pytest.raises(ValidationError):
        resonant_tuples([["0"]], [1, 1])


# ------------------------------------------------- meet-in-the-middle route


def test_mitm_matches_brute_exact_angles():
    spectra = [
        ["0", "1/3", "2/3", "1/4"],
        ["0", "1/3", "3/4", "1/2"],
        ["0", "2/3", "1/2", "1/4"],
    ]
    brute = resonant_tuples(spectra, [1, 1, 1], mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, [1, 1, 1], mitm_threshold=1)
    assert brute == mitm
    assert len(brute) >= 2


def test_mitm_matches_brute_float_values():
    rng = np.random.default_rng(7)
    base = [np.exp(2j * np.pi * t) for t in rng.uniform(size=5)]
    spectra = [base, [np.conj(z) for z in base]]
    brute = resonant_tuples(spectra, [1, 1], mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, [1, 1], mitm_threshold=1)
    assert len(brute) == len(mitm) == 5  # exactly the conjugate pairings
    for a, b in zip(brute, mitm):
        assert a.entries == b.entries


def test_mitm_mixed_blocks():
    spectra = [["0", "1/2"], ["0", "1/2"], ["0", "1/3", "2/3"]]
    brute = resonant_tuples(spectra, [1, 1, 2], mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, [1, 1, 2], mitm_threshold=1)
    assert brute == mitm
    got = {t.exact for t in brute}
    assert got == {
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    }


def test_mitm_pairs_an_int64_half_with_a_python_int_half():
    # common = 3 2^61 fits int64; one angle near 1 does too, but the right half's two
    # angles near 1 sum past 2^63, so its sums are Python ints and the left's int64
    q = 3 * 2**61
    spectra = [
        [Fraction(0), Fraction(1, 3), Fraction(1, q), Fraction(q - 5, q)],
        [Fraction(0), Fraction(2, 3), Fraction(q - 1, q), Fraction(q - 2, q)],
        [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(6, q), Fraction(q - 3, q)],
    ]
    assert entangle._exact_sums(spectra[:1], q).dtype == np.int64
    assert entangle._exact_sums(spectra[1:], q).dtype == object
    brute = resonant_tuples(spectra, [1, 1, 1], mitm_threshold=10 ** 9)
    assert resonant_tuples(spectra, [1, 1, 1], mitm_threshold=0) == brute
    assert {t.exact for t in brute} >= {
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, q), Fraction(q - 1, q), Fraction(0)),
        (Fraction(q - 5, q), Fraction(q - 1, q), Fraction(6, q)),
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12),
                         max_size=4), min_size=1, max_size=3),
       st.booleans(), st.booleans())
def test_exact_sums_are_the_python_sums_over_the_grid(axes, additive, wide):
    common = math.lcm(*(fr.denominator for axis in axes for fr in axis)) << (63 if wide else 0)
    got = entangle._exact_sums(axes, common, additive)
    want = [sum(fr * common for fr in cell) for cell in itertools.product(*axes)]
    assert got.shape == tuple(map(len, axes))
    assert got.dtype == (object if wide else np.int64)
    assert got.ravel().tolist() == (want if additive else [w % common for w in want])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=6),
            min_size=1,
            max_size=4,
        ),
        min_size=2,
        max_size=3,
    )
)
def test_mitm_brute_agreement_property(spectra):
    alpha = [1] * len(spectra)
    brute = resonant_tuples(spectra, alpha, mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, alpha, mitm_threshold=1)
    assert brute == mitm
    for t in brute:
        assert sum(t.exact) % 1 == 0


def _entry(fr, kind, additive, jitter):
    """One spectrum entry at exact value fr: the Fraction itself, or its float
    frequency or unit-circle point, moved by jitter (frequency units or turns)."""
    if kind == "exact":
        return fr
    if additive:
        return float(fr) + jitter
    return cmath.exp(2j * math.pi * (float(fr) + jitter))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([[1, 1], [1, 1, 1], [1, 1, 1, 1], [1, 2, 1], [1, 2, 2, 1], [1, 2, 1, 2]]),
    st.booleans(),
    st.sampled_from(["exact", "float", "mixed"]),
    st.sampled_from([1e-8, 1e-15]),
    st.data(),
)
def test_mitm_and_brute_force_give_identical_tuples(alpha, additive, kind, tol, data):
    lo, hi = (-2, 2) if additive else (0, 1)
    entry = st.tuples(
        st.fractions(min_value=lo, max_value=hi, max_denominator=4),
        st.sampled_from(["exact", "float"]) if kind == "mixed" else st.just(kind),
        st.sampled_from([0.0, 0.0, 1e-12, -3e-10, 1e-9]),
    )
    spectra = [
        [_entry(fr, k, additive, jitter) for fr, k, jitter in
         data.draw(st.lists(entry, min_size=1, max_size=4))]
        for _ in alpha
    ]
    brute = resonant_tuples(spectra, alpha, tol, additive=additive, mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, alpha, tol, additive=additive, mitm_threshold=0)
    # dataclass equality compares entries, exact values, residuals, fragile
    # flags, point indices and, through the tuple, the order
    assert brute == mitm
    for t in brute:
        for j, sp in enumerate(spectra):
            assert _normalize_entry(sp[t.index[j]], additive) == (t.entries[j], t.exact[j])


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**18, 10**18), st.integers(1, 10**18), st.booleans())
def test_normalize_entry_of_a_fraction_is_its_float_form(num, den, additive):
    fr = Fraction(num, den)
    want = (float(fr), fr) if additive else (cmath.exp(2j * math.pi * float(fr % 1)), fr % 1)
    assert _normalize_entry(fr, additive) == want


def _per_tuple_reference(spectra, alpha, tol, additive):
    """{index: residuals} from one combination at a time: Fraction sums when
    every pick is exact, else math.fsum or math.prod(start=1+0j) residuals."""
    norm = [[_normalize_entry(e, additive) for e in sp] for sp in spectra]
    part = make_partition(alpha)
    per_block = []
    for positions in (part.blocks[a] for a in sorted(part.blocks)):
        sols = {}
        for combo in itertools.product(*(range(len(norm[j])) for j in positions)):
            picks = [norm[j][i] for j, i in zip(positions, combo)]
            if all(fr is not None for _, fr in picks):
                total = sum(fr for _, fr in picks)
                if (total if additive else total % 1) == 0:
                    sols[combo] = 0.0
                continue
            vals = [e for e, _ in picks]
            r = abs(math.fsum(vals)) if additive else abs(math.prod(vals, start=1 + 0j) - 1.0)
            if r <= tol:
                sols[combo] = r
        per_block.append((positions, sols))
    out = {}
    for picks in itertools.product(*(sols.items() for _, sols in per_block)):
        index = [0] * part.m
        for (positions, _), (combo, _) in zip(per_block, picks):
            for j, i in zip(positions, combo):
                index[j] = i
        out[tuple(index)] = tuple(r for _, r in picks)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([[1], [1, 1], [1, 1, 1], [1, 2, 1], [1, 1, 1, 1], [1, 2, 1, 2]]),
    st.booleans(),
    st.sampled_from(["float", "mixed"]),
    st.sampled_from([0, 10 ** 9]),
    st.data(),
)
def test_array_residuals_match_per_tuple_prod_and_fsum_bit_for_bit(
    alpha, additive, kind, threshold, data
):
    lo, hi = (-3, 3) if additive else (0, 1)
    entry = st.tuples(
        st.fractions(min_value=lo, max_value=hi, max_denominator=6),
        st.sampled_from(["exact", "float"]) if kind == "mixed" else st.just("float"),
        st.sampled_from([0.0, 1e-12, -3e-10, 2e-9, -7e-9, 1e-16]),
    )
    spectra = [
        [_entry(fr, k, additive, jitter) for fr, k, jitter in
         data.draw(st.lists(entry, min_size=1, max_size=5))]
        for _ in alpha
    ]
    got = resonant_tuples(spectra, alpha, 1e-8, additive=additive, mitm_threshold=threshold)
    # == on floats is bitwise here: residuals are finite and nonnegative
    assert {t.index: t.residuals for t in got} == _per_tuple_reference(
        spectra, alpha, 1e-8, additive)


@pytest.mark.parametrize("threshold", [0, 10 ** 9])
def test_large_float_grid_residuals_match_math_prod(threshold):
    # 40^3 cells: long enough arrays for numpy's vectorized loops to run
    q = 40
    rng = np.random.default_rng(11)
    spectra = [[cmath.exp(2j * math.pi * a / q) for a in rng.permutation(q)] for _ in range(3)]
    got = resonant_tuples(spectra, [1, 1, 1], mitm_threshold=threshold)
    assert len(got) == q * q
    for t in got:
        assert t.residuals == (abs(math.prod(t.entries, start=1 + 0j) - 1.0),)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(
    [1e-16, 1.0, 1e16, -1e16, 0.1, -0.3, 2.0**-60, 0.0, -0.0]), min_size=0, max_size=5),
    min_size=1, max_size=6))
def test_fsum_rows_match_math_fsum(rows):
    width = max(map(len, rows))
    cols = [np.array([row[i] if i < len(row) else 0.0 for row in rows]) for i in range(width)]
    got = entangle._aggregate(cols, True)
    want = [math.fsum(row) for row in rows]
    assert [abs(g) for g in np.broadcast_to(got, (len(rows),)).tolist()] == [abs(w) for w in want]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1, max_size=5),
                min_size=1, max_size=6))
def test_product_rows_match_math_prod(rows):
    width = max(map(len, rows))
    cols = [np.array([row[i] if i < len(row) else 1.0 for row in rows], dtype=np.complex128)
            for i in range(width)]
    re, im = entangle._aggregate(cols, False)
    want = [math.prod(row + [1.0] * (width - len(row)), start=1 + 0j) for row in rows]
    assert re.tolist() == [w.real for w in want] and im.tolist() == [w.imag for w in want]


@pytest.mark.parametrize("threshold", [0, 10 ** 9])
@pytest.mark.parametrize("additive", [False, True])
def test_index_arrays_are_the_tuples_columns(threshold, additive):
    if additive:
        spectra = [["0", "1/3", "-1/3", "1/2"], [0.0, "-1/3", "-1/2"], ["1/3", "0", "-1/6"],
                   ["1/6", "0", 0.5]]
    else:
        spectra = [["0", "1/3", "2/3", "1/2"], [1.0 + 0.0j, "2/3", "1/2"], ["1/3", "0", "1/6"],
                   ["1/2", "0"]]
    part = make_partition([1, 2, 1, 2])
    tuples = resonant_tuples(spectra, part, additive=additive, mitm_threshold=threshold)
    _, index, residuals = spectral_limit._resonant_index(spectra, part, 1e-8, additive, threshold)
    assert len(tuples) >= 4
    assert [col.tolist() for col in index] == [list(c) for c in zip(*(t.index for t in tuples))]
    assert [r.tolist() for r in residuals] == [list(c) for c in zip(*(t.residuals for t in tuples))]


def test_limit_from_index_arrays_equals_limit_from_tuples():
    # limit_operator enumerates index arrays; limit_operator_with_tuples reads
    # them off the ResonantTuples
    for sys_ in (_many_tuples_system(),
                 make_system([1, 2, 2, 1], [_member(k, DISCRETE_VALUES[j % 3], False, 760 + j)
                                            for j, k in enumerate(["raw", "cert", "raw", "cert"])],
                             [linalg.haar_unitary(6, seed=770 + j) for j in range(3)])):
        lim, tuples = limit_operator_with_tuples(sys_)
        assert len(tuples) > 1
        assert np.array_equal(limit_operator(sys_), lim)


def test_mitm_finds_float_sum_just_below_one_turn():
    # the right half's angle is 1 - 1e-10 turns, in the last cell of the
    # circle; the left half's complement is 0, in the first
    right = [cmath.exp(1j * math.pi), cmath.exp(2j * math.pi * (0.5 - 1e-10))]
    assert (cmath.phase(right[0] * right[1]) / (2 * math.pi)) % 1.0 > 1 - 1e-8
    spectra = [[1.0 + 0.0j], [right[0]], [right[1]]]
    brute = resonant_tuples(spectra, [1, 1, 1], mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, [1, 1, 1], mitm_threshold=0)
    assert len(brute) == 1 and brute[0].fragile
    assert mitm == brute


def test_mitm_keys_exact_frequencies_where_floats_cannot_resolve_tol():
    base = [Fraction(1000) + Fraction(1, q) for q in (3, 7, 11)]
    spectra = [base, base, sorted({-(a + b) for a in base for b in base})]
    brute = resonant_tuples(spectra, [1, 1, 1], 1e-15, additive=True, mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, [1, 1, 1], 1e-15, additive=True, mitm_threshold=0)
    assert len(brute) == 9  # every (a, b) pair meets its own -(a + b) only
    assert mitm == brute
    # in floats these tuples miss the tolerance: only exact arithmetic sees them
    assert max(abs(math.fsum(float(f) for f in t.exact)) for t in brute) > 1e-15


def test_mitm_cells_outlast_rounding_of_large_frequencies():
    # a lies just below half a unit in the last place of 1000 and b just
    # above it, so 1000 + a and -(1000 + b) round apart by a whole unit
    # (1.1e-13), 100 cells of width tol, though the tuple sums to -8e-16
    a = 2.0 ** -44 - 5e-16
    b = a + 8e-16
    spectra = [[1000.0], [a], [-1000.0], [-b]]
    brute = resonant_tuples(spectra, [1, 1, 1, 1], 1e-15, additive=True, mitm_threshold=10 ** 9)
    mitm = resonant_tuples(spectra, [1, 1, 1, 1], 1e-15, additive=True, mitm_threshold=0)
    assert len(brute) == 1
    assert mitm == brute


def test_tuples_sorted_by_candidate_key_with_ties_in_input_order():
    # equal angles 1/4 on two different floats: the fragile one comes first
    # in the input, so first among the ties
    near = complex(0.0, 1.0 + 1e-9)
    spectra = [["1/2", near, "0", 1j, "1/2"], [-1j, "0", "1/2"]]
    for threshold in (0, 10 ** 9):
        tuples = resonant_tuples(spectra, [1, 1], mitm_threshold=threshold)
        assert [t.exact for t in tuples] == [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
            (None, None),
            (None, None),
        ]
        assert [t.entries[0] for t in tuples[3:]] == [near, 1j]
        assert [t.fragile for t in tuples[3:]] == [True, False]


def test_interleaved_blocks_order_float_ties_by_enumeration():
    # alpha=[1,2,1,2]: block 1 is positions 1 and 3, block 2 positions 2 and
    # 4.  Both candidates at position 1 sit at angle 1/4, a tie; the first is
    # off the circle by 5e-9, so its block-1 residual is 5e-9 (fragile) and
    # the second's is 0.  Ties keep enumeration order: block 1's solutions
    # outermost, so each rank vector holds the fragile tuple, then its twin.
    near = complex(0.0, 1.0 + 5e-9)
    spectra = [[near, 1j], ["1/2", -1.0], [-1j], [-1.0, "1/2"]]
    for threshold in (0, 10 ** 9):
        tuples = resonant_tuples(spectra, [1, 2, 1, 2], mitm_threshold=threshold)
        assert [t.index for t in tuples] == [
            (0, 0, 0, 1), (1, 0, 0, 1),
            (0, 0, 0, 0), (1, 0, 0, 0),
            (0, 1, 0, 1), (1, 1, 0, 1),
            (0, 1, 0, 0), (1, 1, 0, 0),
        ]
        assert [t.fragile for t in tuples] == [True, False] * 4
        assert [t.entries[0] for t in tuples] == [near, 1j] * 4
        assert all(FRAGILE_BAND < t.residuals[0] <= 1e-8 for t in tuples[::2])
        assert all(t.residuals[0] == 0.0 for t in tuples[1::2])
        assert [t.exact[1] is None for t in tuples] == [False] * 4 + [True] * 4


def _python_order(spectra, alpha, additive, found):
    """The index tuples in found, in the order resonant_tuples promises, by Python alone:
    the blocks' combinations in itertools.product order (block 1 outermost, each block's
    positions lexicographically), stably sorted by rank vector, where a candidate's rank
    counts its position's candidates of smaller key (exact value first, then position on
    the constraint line or circle)."""
    part = make_partition(alpha)
    blocks = [positions for _, positions in sorted(part.blocks.items())]

    def key(entry, fr):
        if fr is not None:
            return 0, fr
        return 1, entry if additive else cmath.phase(entry) / (2 * math.pi) % 1.0

    ranks = []
    for sp in spectra:
        keys = [key(*_normalize_entry(e, additive)) for e in sp]
        ranks.append([sum(other < k for other in keys) for k in keys])
    combos = []
    for picks in itertools.product(*(itertools.product(*(range(len(spectra[j])) for j in block))
                                     for block in blocks)):
        index = [None] * part.m
        for block, pick in zip(blocks, picks):
            for j, i in zip(block, pick):
                index[j] = i
        if tuple(index) in found:
            combos.append(tuple(index))
    assert len(combos) == len(found)
    return sorted(combos, key=lambda index: [ranks[j][i] for j, i in enumerate(index)])


def _assert_python_order(spectra, alpha, additive=False, tol=spectral_limit.DEFAULT_TOL,
                         thresholds=(0, entangle.MITM_THRESHOLD)):
    """At each mitm_threshold, resonant_tuples' order is _python_order's; returns the last."""
    for threshold in thresholds:
        tuples = resonant_tuples(spectra, alpha, tol, additive=additive,
                                 mitm_threshold=threshold)
        got = [t.index for t in tuples]
        assert got == _python_order(spectra, alpha, additive, set(got))
    return tuples


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([[1, 1], [1, 1, 1], [1, 2, 1], [1, 2, 2, 1], [1, 2, 1, 2], [1, 2, 3, 1, 3]]),
    st.booleans(),
    st.sampled_from(["exact", "float", "mixed"]),
    st.data(),
)
def test_tuples_follow_a_python_sort_of_rank_vectors(alpha, additive, kind, data):
    # nested [1, 2, 2, 1] and crossing [1, 2, 1, 2] alpha; values drawn from a few so
    # that ties, exact and float, are common
    lo, hi = (-1, 1) if additive else (0, 1)
    entry = st.tuples(
        st.fractions(min_value=lo, max_value=hi, max_denominator=3),
        st.sampled_from(["exact", "float"]) if kind == "mixed" else st.just(kind),
        st.sampled_from([0.0, 0.0, 0.0, 1e-9]),
    )
    spectra = [
        [_entry(fr, k, additive, jitter) for fr, k, jitter in
         data.draw(st.lists(entry, min_size=1, max_size=5))]
        for _ in alpha
    ]
    _assert_python_order(spectra, alpha, additive)


def test_tuples_order_300_candidates_at_one_position():
    # 300 candidates: ranks 290 and 299 are past a byte, and taken mod 256 they would sort
    # before rank 150; "1/30" twice gives tied rank vectors
    rng = np.random.default_rng(11)
    first = [Fraction(int(a), 300) for a in rng.permutation(300)]
    second = ["0", "1/30", "1/2", "1/300", "1/30"]
    tuples = _assert_python_order([first, second], [1, 1])
    assert [t.exact[0] for t in tuples] == [Fraction(0), Fraction(1, 2), Fraction(29, 30),
                                            Fraction(29, 30), Fraction(299, 300)]
    assert [t.index[1] for t in tuples[2:4]] == [1, 4]
    floats = [[cmath.exp(2j * math.pi * float(fr)) for fr in first], second]
    assert len(_assert_python_order(floats, [1, 1])) == 5


def test_tuples_order_with_a_right_half_grid_past_65535():
    # 3 x 260 x 260 combinations: the meet-in-the-middle's right half has 67,600 cells,
    # so its flat indices need more than 16 bits; every angle j/130 appears twice at each
    # right position, so each resonant value tuple has four index tuples of one rank
    # vector, whose order is the meet-in-the-middle's
    rng = np.random.default_rng(12)
    right = [[Fraction(int(a) % 130, 130) for a in rng.permutation(260)] for _ in range(2)]
    spectra = [["0", "1/2", "1/5"], *right]
    tuples = _assert_python_order(spectra, [1, 1, 1], thresholds=(0, 10 ** 9))
    assert len(tuples) == 3 * 130 * 4
    assert tuples == resonant_tuples(spectra, [1, 1, 1])


# ------------------------------------------------- the ResonantTuples sequence


def _interleaved_tuples():
    """The eight tuples of test_interleaved_blocks_order_float_ties_by_enumeration: two
    blocks, every other tuple fragile."""
    near = complex(0.0, 1.0 + 5e-9)
    return resonant_tuples([[near, 1j], ["1/2", -1.0], [-1j], [-1.0, "1/2"]], [1, 2, 1, 2])


def test_resonant_tuples_index_and_iterate_like_their_tuple():
    seq = _interleaved_tuples()
    plain = tuple(seq)
    assert isinstance(seq, ResonantTuples) and len(seq) == len(plain) == 8
    assert all(isinstance(t, ResonantTuple) for t in plain)
    assert list(seq) == list(plain)
    assert all(a is b for a, b in zip(seq, plain))  # the first full read is kept
    for i in range(-len(seq), len(seq)):
        assert seq[i] == plain[i]
    assert seq[np.int64(2)] == plain[2]
    for s in (slice(None), slice(2, 5), slice(None, None, -3), slice(6, 100), slice(5, 2)):
        assert isinstance(seq[s], ResonantTuples) and seq[s] == plain[s]
    assert seq[1:6][1:3] == plain[2:4]
    for i in (8, -9, 10 ** 9):
        with pytest.raises(IndexError):
            seq[i]
    with pytest.raises(TypeError):
        seq[1.0]
    assert plain[3] in seq and seq.index(plain[3]) == 3 and seq.count(plain[0]) == 1


def test_resonant_tuples_compare_and_hash_as_their_tuple():
    seq, again = _interleaved_tuples(), _interleaved_tuples()
    plain = tuple(seq)
    assert seq == plain and plain == seq and seq == again and again == seq
    assert not seq != plain and not plain != seq
    assert seq != plain[:-1] and plain[:-1] != seq and seq != seq[1:] and seq[1:] != seq
    assert seq != plain[::-1] and plain[::-1] != seq
    assert seq != list(plain)  # a tuple is not equal to a list either
    assert hash(seq) == hash(plain) == hash(again)
    assert {plain: "found"}[seq] == "found"


def test_empty_resonant_tuples_equal_the_empty_tuple():
    lam = np.exp(2j * np.pi * 0.1)
    seq = resonant_tuples([[lam], [lam]], [1, 1])
    assert seq == () and () == seq and not seq and len(seq) == 0 and list(seq) == []
    assert hash(seq) == hash(())
    assert seq.fragile.shape == (0,) and [c.shape for c in seq.columns] == [(0,), (0,)]
    with pytest.raises(IndexError):
        seq[0]


def test_resonant_tuples_arrays_refuse_writes():
    seq = _interleaved_tuples()
    for arr in (*seq.columns, *seq.residuals, seq.fragile, *seq[2:5].columns, seq[::2].fragile):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(FrozenInstanceError):
        seq.fragile = np.zeros(len(seq), dtype=bool)


@pytest.mark.parametrize("copy_of", [lambda seq: pickle.loads(pickle.dumps(seq)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copy_of_resonant_tuples_is_rebuilt_read_only(copy_of):
    seq = _interleaved_tuples()
    again = copy_of(seq)
    assert again == seq and again is not seq
    for arr in (*again.columns, *again.residuals, again.fragile):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_resonant_tuples_arrays_are_the_tuples_columns():
    seq = _interleaved_tuples()
    want = [max(t.residuals) > FRAGILE_BAND for t in seq]
    assert seq.fragile.dtype == bool and seq.fragile.tolist() == want == [True, False] * 4
    assert [t.fragile for t in seq] == want
    assert [c.tolist() for c in seq.columns] == [list(c) for c in zip(*(t.index for t in seq))]
    assert [r.tolist() for r in seq.residuals] == [list(r) for r in
                                                   zip(*(t.residuals for t in seq))]
    assert [[cands[i] for i in col] for cands, col in zip(seq.candidates, seq.columns)] == [
        list(zip(e, x)) for e, x in zip(zip(*(t.entries for t in seq)),
                                        zip(*(t.exact for t in seq)))]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
@pytest.mark.parametrize("threshold", [0, 10 ** 9])
def test_resonance_tolerance_must_be_positive_and_finite(tol, threshold):
    with pytest.raises(ValidationError, match="tolerance"):
        resonant_tuples([[1.0, -1.0], [1.0, -1.0]], [1, 1], tol, mitm_threshold=threshold)


@pytest.mark.parametrize("threshold", ["x", float("nan"), -1, True, 2.5, np.int64(-3)])
def test_mitm_threshold_must_be_a_non_negative_integer(threshold):
    with pytest.raises(ValidationError, match="mitm_threshold"):
        resonant_tuples([[1.0, -1.0], [1.0, -1.0]], [1, 1], mitm_threshold=threshold)


@pytest.mark.parametrize("threshold", [0, np.int64(0), np.int32(4), 10 ** 9])
def test_mitm_threshold_takes_numpy_integers_and_zero(threshold):
    got = resonant_tuples([[1.0, -1.0], [1.0, -1.0]], [1, 1], mitm_threshold=threshold)
    assert [t.entries for t in got] == [(1.0, 1.0), (-1.0, -1.0)]


def test_nan_tolerances_refused_before_resonance_turns_off():
    t = from_matrix(np.diag([1.0, -1.0]))
    assert np.allclose(limit_operator(make_system([1, 1], [t, t])), np.eye(2))
    with pytest.raises(ValidationError, match="band"):
        unimodular_spectrum(np.diag([1.0, -1.0, 0.5]), tol=float("nan"))
    # an operator or generator answers from its bookkeeping, after the same check
    with pytest.raises(ValidationError, match="band"):
        unimodular_spectrum(t, tol=float("nan"))
    sg = synth_semigroup(["0", "1/2"], [-0.5], OrthonormalBasis(seed=3))
    with pytest.raises(ValidationError, match="band"):
        continuous.frequency_spectrum(sg, tol=float("nan"))


# ------------------------------------------------------------ limit operator


def test_limit_operator_diagonal_oracle():
    t = np.diag([1.0, -1.0])
    a = np.array([[0.3 + 0.1j, -0.7], [2.0, 0.5j]])
    sys_ = make_system([1, 1], [t, t.copy()], [a])
    lim = limit_operator(sys_)
    # resonant pairs (1,1) and (-1,-1) pick out the diagonal of the connector
    assert np.allclose(lim, np.diag(np.diag(a)), atol=1e-12)


def test_limit_operator_matches_hand_assembled_projections():
    s1 = linalg.haar_unitary(3, seed=201)
    s2 = linalg.haar_unitary(3, seed=202)
    op1 = synth_operator(["0", "1/3"], [0.5], OrthonormalBasis(seed=201))
    op2 = synth_operator(["0", "2/3"], [0.2j], OrthonormalBasis(seed=202))
    conn = linalg.haar_unitary(3, seed=203)
    sys_ = make_system([1, 1], [op1, op2], [conn])

    def rank_one(s, i):
        v = s[:, i : i + 1]
        return v @ v.conj().T

    # resonant pairs: (0, 0) and (1/3, 2/3)
    expect = rank_one(s2, 0) @ conn @ rank_one(s1, 0)
    expect += rank_one(s2, 1) @ conn @ rank_one(s1, 1)
    lim = limit_operator(sys_)
    assert np.allclose(lim, expect, atol=1e-12)


def test_limit_operator_agrees_with_long_average():
    op1 = synth_operator(["0", "1/4"], [0.3], OrthonormalBasis(seed=210))
    op2 = synth_operator(["0", "3/4"], [0.6], OrthonormalBasis(seed=211))
    conn = linalg.haar_unitary(3, seed=212)
    sys_ = make_system([1, 1], [op1, op2], [conn])
    lim = limit_operator(sys_)
    for n, bound in ((256, 0.05), (2048, 0.007)):
        avg = entangled_average(sys_, n)
        assert np.linalg.norm(avg - lim, 2) <= bound


def test_limit_is_the_means_limit_on_a_near_resonant_float_tuple():
    # (1/3 + 1.6e-8, 2/3) misses resonance by |e^{2 pi i 1.6e-8} - 1| = 1.0e-7: inside a
    # tol of 1e-6, outside the one tol every block decision reads, so the means' terms at
    # that tuple die as 1/(n 1e-7), and the limit leaves the tuple out as they do
    def float_operator(seed, eigenvalues):
        u = linalg.haar_unitary(3, seed)
        return from_matrix(u @ np.diag(eigenvalues) @ u.conj().T)

    t1 = float_operator(1, [1, np.exp(2j * np.pi * (1 / 3 + 1.6e-8)), 0.5])
    t2 = float_operator(2, [1, np.exp(2j * np.pi * 2 / 3), -0.4])
    sys_ = make_system([1, 1], [t1, t2], [linalg.haar_unitary(3, 3)])
    lim = limit_operator(sys_)
    assert np.linalg.norm(entangled_average(sys_, 2**40) - lim) < 1e-4  # 8.5e-6
    assert np.linalg.norm(entangled_average(sys_, 2**60) - lim) < 1e-10  # 1.4e-11
    assert len(resonant_tuples([t1, t2], [1, 1], 1e-6)) == 2
    with_tuples, tuples = limit_operator_with_tuples(sys_)
    assert len(tuples) == 1 and np.array_equal(with_tuples, lim)


def test_limit_operator_empty_resonance_is_zero_and_averages_die():
    # lone block, no eigenvalue 1: nothing resonates
    op = synth_operator(["1/3"], [0.5], OrthonormalBasis(seed=220))
    sys_ = make_system([1], [op])
    lim = limit_operator(sys_)
    assert np.array_equal(lim, np.zeros((2, 2)))
    assert np.linalg.norm(entangled_average(sys_, 4096)) <= 2e-3


def test_limit_operator_requires_power_boundedness():
    # an EntangledSystem made directly skips make_system's checks, so the
    # verdict check inside limit_operator is what catches the Jordan block
    from entlab.entangle import EntangledSystem

    good = from_matrix(np.eye(2))
    sys_ = make_system([1, 1], [good, good])
    defective = from_matrix([[1, 1], [0, 1]])
    broken = EntangledSystem(sys_.partition, (defective, good), sys_.connectors)
    with pytest.raises(NotPowerBoundedError):
        limit_operator(broken)


def test_limit_operator_respects_multiplicity():
    # angle 1/2 with multiplicity 2: projection has rank 2
    op = synth_operator(["1/2", "1/2", "0"], [], OrthonormalBasis(seed=230))
    sys_ = make_system([1, 1], [op, op], None)
    lim = limit_operator(sys_)
    # T x T resonates on (0,0), (1/2,1/2): P_0 + P_half = I here
    assert np.allclose(lim, np.eye(3), atol=1e-12)


# ------------------------------------ limit kernel vs tuple-by-tuple sum

# boundary values per position (angles in turns, or frequencies); 1/2 twice is
# a multiplicity-2 cluster, as in the benchmark's limit system a
DISCRETE_VALUES = (
    ["0", "1/4", "1/2", "1/2"],
    ["0", "3/4", "1/2", "1/2"],
    ["0", "1/4", "3/4", "1/2"],
)
CONTINUOUS_VALUES = (
    ["0", "1/2", "-1/2", "-1/2"],
    ["0", "-1/2", "1/2", "1/2"],
    ["0", "3/2", "-3/2", "1/2"],
)
STABLE = {False: [0.4 - 0.2j, -0.6], True: [-0.3 + 0.7j, -0.8]}
CASES = (
    ([1, 2, 1, 2], ["cert", "raw", "raw", "cert"]),  # crossing; exact and float per block
    ([1, 2, 2, 1], ["raw", "cert", "raw", "cert"]),  # nested
    ([1, 1], ["raw", "raw"]),
    ([1, 1], ["cert", "cert"]),
    ([1, 1, 1], ["cert", "raw", "cert"]),
    ([1], ["raw"]),
    ([1, 1], ["jordan", "cert"]),  # defective stable part
)


def _raw_matrix(boundary, stable, seed, jordan=False):
    """S J S^{-1} for a random non-normal S, with J = diag(boundary, stable),
    or with the stable part one Jordan block at stable[0] when jordan is set."""
    rng = np.random.default_rng(seed)
    d = len(boundary) + len(stable)
    s = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    if jordan:
        stable = [stable[0]] * len(stable)
    j = np.diag(np.array(list(boundary) + list(stable), dtype=np.complex128))
    if jordan:
        j += np.diag([0.0] * len(boundary) + [1.0] * (len(stable) - 1), k=1)
    return s @ j @ np.linalg.inv(s)


def _member(kind, values, continuous, seed):
    stable = STABLE[continuous]
    if kind == "cert":
        synth = synth_semigroup if continuous else synth_operator
        return synth(values, stable, RandomSimilarity(seed, 5.0))
    if continuous:
        boundary = [CONTINUOUS.eigenvalue(Fraction(v)) for v in values]
    else:
        boundary = [cmath.exp(2j * math.pi * float(Fraction(v))) for v in values]
    raw = _raw_matrix(boundary, stable, seed, jordan=kind == "jordan")
    return (semigroup_from_generator if continuous else from_matrix)(raw)


def _chain_sum(tuples, connectors, project):
    """Sum over tuples of P_m A_{m-1} ... A_1 P_1, one chain per tuple."""
    out = 0
    for tup in tuples:
        m = len(tup.entries)
        cur = project(m - 1, tup)
        for j in range(m - 2, -1, -1):
            cur = cur @ connectors[j] @ project(j, tup)
        out = out + cur
    return out


def _discrete_oracle(sys_):
    ops = sys_.operators
    tuples = resonant_tuples([op.unimodular_spectrum for op in ops], sys_.partition)

    def project(j, tup):
        fr = tup.exact[j]
        return mean_ergodic_projection(ops[j], fr if fr is not None else tup.entries[j])

    return _chain_sum(tuples, sys_.connectors, project), tuples


def _continuous_oracle(sys_):
    sgs = sys_.semigroups
    spectra = [[CONTINUOUS.resonance_entry(p) for p in sg.frequency_points] for sg in sgs]
    tuples = resonant_tuples(spectra, sys_.partition, additive=True)

    def project(j, tup):
        return _boundary_projection(sgs[j], CONTINUOUS.entry_value(tup.entries[j]), tup.exact[j],
                                    sgs[j].frequency_points[tup.index[j]].multiplicity)

    return _chain_sum(tuples, sys_.connectors, project), tuples


@pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
@pytest.mark.parametrize("alpha, kinds", CASES)
def test_limit_kernel_matches_tuple_by_tuple_sum(alpha, kinds, continuous):
    table = CONTINUOUS_VALUES if continuous else DISCRETE_VALUES
    members = [_member(k, table[j % 3], continuous, 700 + j) for j, k in enumerate(kinds)]
    conns = [linalg.haar_unitary(6, seed=710 + j) for j in range(len(alpha) - 1)]
    if continuous:
        sys_ = make_continuous_system(alpha, members, conns or None)
        got = continuous_limit_operator(sys_)
        want, tuples = _continuous_oracle(sys_)
    else:
        sys_ = make_system(alpha, members, conns or None)
        got, got_tuples = limit_operator_with_tuples(sys_)
        want, tuples = _discrete_oracle(sys_)
        assert got_tuples == tuples
    assert any(fr is None for t in tuples for fr in t.exact) == (kinds != ["cert"] * len(kinds))
    assert np.linalg.norm(want) > 0.1
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _unit_raw(values, stable, seed, generator):
    """U diag(boundary, stable) U^H for a Haar U: a raw member whose record has one
    eigen-index per boundary point, in the order of its points.  values are turns
    (an operator) or frequencies (a generator) as floats."""
    u = linalg.haar_unitary(len(values) + len(stable), seed)
    boundary = [(2j * math.pi * v) if generator else cmath.exp(2j * math.pi * v)
                for v in values]
    raw = u @ np.diag(boundary + stable) @ u.conj().T
    return (semigroup_from_generator if generator else from_matrix)(raw)


SNAP_CASES = {  # (discrete?, members): offsets from resonance inside and outside 1e-8
    "float operators": (True, lambda: [
        _unit_raw([0.0, 0.25 + 1e-9, 0.5 + 3e-9], [0.4], 801, False),
        _unit_raw([0.75, 0.5 - 5e-10], [-0.5], 802, False),
        _unit_raw([0.0, 0.25, 0.5 + 1e-10], [0.3j], 803, False)]),
    "mixed operators": (True, lambda: [
        synth_operator(["0", "1/4", "1/2"], [0.4], OrthonormalBasis(804)),
        _unit_raw([1e-9, 0.75 - 1e-9, 0.5 + 2e-9], [-0.5], 805, False)]),
    "generators 5e-9 apart": (False, lambda: [
        _unit_raw([-0.25, 0.25], [-0.5], 806, True),
        _unit_raw([-0.25 + 5e-9, 0.25 + 5e-9], [-1.0], 807, True)]),
    "float generators": (False, lambda: [
        _unit_raw([-0.5, 0.0, 0.25], [-0.5], 808, True),
        _unit_raw([0.5 - 1.2e-8, 1e-9, -0.25 + 2e-9], [-1.0], 809, True)]),
    "mixed generators": (False, lambda: [
        synth_semigroup(["-1/2", "0", "1/4"], [-0.5], OrthonormalBasis(810)),
        _unit_raw([0.5 - 1.2e-8, 1e-9, -0.25 + 2e-9], [-1.0], 811, True)]),
}


@pytest.mark.parametrize("case, rule", [
    (case, rule) for case, (discrete, _) in SNAP_CASES.items()
    for rule in (["cesaro"] if discrete else ["midpoint", "gauss-legendre"])])
def test_means_snap_exactly_the_boundary_cells_the_limit_counts(case, rule):
    discrete, build = SNAP_CASES[case]
    members = build()
    records = [member.eigenbasis for member in members]
    assert all(rec is not None for rec in records)
    assert any(not rec.exact for rec in records)
    block = entangle._Block(members, not discrete)
    if rule == "gauss-legendre":
        s_nodes, w_nodes = QuadratureSpec("gauss-legendre", 64).nodes(10.0)
        weight = continuous._quadrature_weight(block, s_nodes, w_nodes / 10.0)
    else:
        weight = entangle._cesaro_weight(block, 1000, None if discrete else Fraction(1, 64))
    tuples = resonant_tuples(members, [1] * len(members), additive=not discrete)
    listed = set(zip(*(col.tolist() for col in tuples.columns)))
    assert set(zip(*(i.tolist() for i in np.nonzero(weight == 1)))) == listed
    assert listed and len(listed) < math.prod(len(m.unimodular_spectrum) for m in members)
    if case == "generators 5e-9 apart":
        assert len(listed) == 2


@pytest.mark.parametrize("alpha", [[1], [1, 1], [1, 2, 1]])
def test_mean_snaps_a_chained_cluster_whole_as_the_limit_counts_it(alpha):
    # one point of multiplicity 4 centered on 1, two of its members beyond 1e-8 of it:
    # the mean decides per point, as the limit does, not per member
    u = linalg.haar_unitary(6, 5)
    chained = [cmath.exp(1j * (k * 0.9e-8 - 1.35e-8)) for k in range(4)]
    matrix = u @ np.diag(chained + [0.5, -0.3]) @ u.conj().T
    ops = [from_matrix(matrix)] * (len(alpha) - 1) + [from_matrix(matrix.conj())]
    assert [p.multiplicity for p in ops[-1].unimodular_spectrum] == [4]
    system = make_system(alpha, ops)
    assert np.linalg.norm(entangled_average(system, 2**40) - limit_operator(system)) <= 1e-11


def test_limit_of_members_without_boundary_points_is_zero():
    ops = [synth_operator([], [0.5, -0.2j], OrthonormalBasis(850)),
           from_matrix(np.diag([0.4, 0.3j]))]
    for alpha in ([1], [1, 1]):
        system = make_system(alpha, ops[:len(alpha)])
        assert not np.any(limit_operator(system))
        assert np.linalg.norm(entangled_average(system, 2**40)) <= 1e-12


@pytest.mark.parametrize("kind", ["cert", "raw"])
def test_limit_kernel_empty_resonance_is_zero_in_both_clocks(kind, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no resonant tuple, so no projection is needed")

    monkeypatch.setattr(scipy.linalg, "schur", never)
    op = _member(kind, ["1/3", "1/4"], False, 720)
    lim = limit_operator(make_system([1], [op]))
    assert lim.shape == (4, 4) and not np.any(lim)
    sg = _member(kind, ["1/3", "-1/4"], True, 721)
    lim = continuous_limit_operator(make_continuous_system([1], [sg]))
    assert lim.shape == (4, 4) and not np.any(lim)


def _many_tuples_system():
    """alpha = [1, 1, 1] over raw matrices with angles j/6: 36 resonant tuples,
    each value of each position in 6 of them."""
    angles = [str(Fraction(a, 6)) for a in range(6)]
    ops = [_member("raw", angles, False, 730 + j) for j in range(3)]
    conns = [linalg.haar_unitary(8, seed=740 + j) for j in range(2)]
    return make_system([1, 1, 1], ops, conns)


@pytest.fixture
def schur_calls(monkeypatch):
    calls = []
    original = scipy.linalg.schur

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    return calls


@pytest.fixture
def basis_calls(monkeypatch):
    """Boundary-basis factorizations of the limit: one Schur split or one solve each."""
    calls = []
    original = spectral_limit._boundary_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_limit, "_boundary_basis", counting)
    return calls


def test_limit_kernel_factors_each_position_once(basis_calls):
    sys_ = _many_tuples_system()
    lim, tuples = limit_operator_with_tuples(sys_)
    assert len(tuples) == 36
    assert len(basis_calls) == sys_.partition.m
    want, _ = _discrete_oracle(sys_)
    assert np.linalg.norm(lim - want) <= 1e-12 * np.linalg.norm(want)


def test_limit_weight_beyond_memory_cap_refused_before_any_factorization(
    basis_calls, monkeypatch
):
    sys_ = _many_tuples_system()
    need = 16 * 6 ** 3  # six boundary eigen-indices per position
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", need - 1)
    with pytest.raises(BudgetExceededError) as info:
        limit_operator(sys_)
    assert "position 1: 6, position 2: 6, position 3: 6" in str(info.value)
    assert f"{need:,} bytes" in str(info.value)
    assert basis_calls == []
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", need)
    limit_operator(sys_)
    assert len(basis_calls) == 3


def test_continuous_limit_weight_counts_certified_frequencies(monkeypatch):
    # tuples (0, 0), (1/3, -1/3), (-1/3, 1/3): three indices per position
    # (thirds, whose floats are not equal to the exact keys)
    sgs = [synth_semigroup(["0", "1/3", "-1/3"], [-0.5], OrthonormalBasis(750 + j))
           for j in range(2)]
    sys_ = make_continuous_system([1, 1], sgs, [linalg.haar_unitary(4, seed=752)])
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", 16 * 9 - 1)
    with pytest.raises(BudgetExceededError, match="position 1: 3, position 2: 3"):
        continuous_limit_operator(sys_)
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", 16 * 9)
    assert np.linalg.norm(continuous_limit_operator(sys_)) > 0


def test_limit_weight_counts_picked_points_by_multiplicity(monkeypatch):
    # resonant tuples (0, 0) and (1/2, 1/2): position 1 picks angle 0
    # (multiplicity 2) and 1/2 (multiplicity 1), never 1/4 (multiplicity 3)
    ops = [synth_operator(["0", "0", "1/2", "1/4", "1/4", "1/4"], [0.3], OrthonormalBasis(760)),
           synth_operator(["0", "1/2"], [0.3] * 5, OrthonormalBasis(761))]
    sys_ = make_system([1, 1], ops, [linalg.haar_unitary(7, seed=762)])
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", 16 * 3 * 2 - 1)
    with pytest.raises(BudgetExceededError, match="position 1: 3, position 2: 2"):
        limit_operator(sys_)
    monkeypatch.setattr(entangle, "MEMORY_CAP_BYTES", 16 * 3 * 2)
    assert np.linalg.norm(limit_operator(sys_)) > 0


def test_limit_sums_block_by_block_without_the_tuple_product(monkeypatch):
    # the crossing case: two blocks, each with several solutions, so the
    # resonant tuples are their Cartesian product; the limit never forms it
    alpha, kinds = CASES[0]
    conns = [linalg.haar_unitary(6, seed=710 + j) for j in range(len(alpha) - 1)]
    cases = []
    for continuous, table in ((False, DISCRETE_VALUES), (True, CONTINUOUS_VALUES)):
        members = [_member(k, table[j % 3], continuous, 700 + j) for j, k in enumerate(kinds)]
        make, oracle = ((make_continuous_system, _continuous_oracle) if continuous
                        else (make_system, _discrete_oracle))
        sys_ = make(alpha, members, conns)
        want, tuples = oracle(sys_)
        assert len(tuples) > 1 and np.linalg.norm(want) > 0.1
        cases.append((continuous_limit_operator if continuous else limit_operator, sys_, want))

    def never(*args, **kwargs):
        raise AssertionError("the limit enumerated the resonant tuples")

    monkeypatch.setattr(spectral_limit, "_resonant_index", never)
    for limit, sys_, want in cases:
        got = limit(sys_)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# ------------------------------------------ route choice for raw operators


def _similar(values, cond, seed, jordan=False):
    """(S, S^{-1}, S J S^{-1}) with cond_2(S) = cond, S^{-1} exact up to rounding,
    and J = diag(values), or with one Jordan block at values[-2] in place of
    the last two entries."""
    d = len(values)
    sv = np.geomspace(1.0, cond, d)
    u, w = linalg.haar_unitary(d, seed), linalg.haar_unitary(d, seed + 1)
    s, s_inv = (u * sv) @ w, (w.conj().T / sv) @ u.conj().T
    j = np.diag(np.asarray(values, dtype=np.complex128))
    if jordan:
        j[-1, -1], j[-2, -1] = j[-2, -2], 1.0
    return s, s_inv, s @ j @ s_inv


def _exact_limit(alpha, exact_values, bases, conns, additive):
    """The limit summed tuple by tuple from projections S[:, i] S^{-1}[i, :]
    over the eigen-indices i whose exact value the tuple picks (the boundary
    values lead each S's columns)."""
    tuples = resonant_tuples([list(dict.fromkeys(v)) for v in exact_values], alpha,
                             additive=additive)

    def project(j, tup):
        s, s_inv = bases[j]
        idx = [i for i, v in enumerate(exact_values[j]) if Fraction(v) == tup.exact[j]]
        return s[:, idx] @ s_inv[idx, :]

    return _chain_sum(tuples, conns, project)


def _route_case(continuous, cond, jordan=False):
    """A raw alpha = [1, 1] system over S_j J_j S_j^{-1} with cond_2(S_j) = cond,
    its exact limit, and the pairs (S_j, S_j^{-1})."""
    table = CONTINUOUS_VALUES if continuous else DISCRETE_VALUES
    stable = STABLE[continuous] * 2
    wrap = semigroup_from_generator if continuous else from_matrix
    members, bases = [], []
    for j, values in enumerate(table[:2]):
        if continuous:
            boundary = [CONTINUOUS.eigenvalue(Fraction(v)) for v in values]
        else:
            boundary = [cmath.exp(2j * math.pi * float(Fraction(v))) for v in values]
        s, s_inv, a = _similar(boundary + stable, cond, 800 + 2 * j, jordan)
        members.append(wrap(a))
        bases.append((s, s_inv))
    conns = [linalg.haar_unitary(8, seed=810)]
    make = make_continuous_system if continuous else make_system
    want = _exact_limit([1, 1], table[:2], bases, conns, continuous)
    return make([1, 1], members, conns), want, bases


@pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
def test_well_conditioned_raw_operator_projects_in_its_stored_eigenbasis(continuous,
                                                                       monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a well-conditioned raw operator needs no Schur split")

    monkeypatch.setattr(scipy.linalg, "schur", never)
    sys_, want, bases = _route_case(continuous, 1e3)
    for member in sys_.operators:
        assert 1e2 < member.power_bound_estimate <= operators.EIGENBASIS_COND_CAP
        assert member.eigenbasis is not None
    assert np.linalg.norm(want) > 0.1
    got = (continuous_limit_operator if continuous else limit_operator)(sys_)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    if not continuous:
        op, (s, s_inv) = sys_.operators[0], bases[0]
        for angle, idx in (("0", [0]), ("1/4", [1]), ("1/2", [2, 3])):
            p = mean_ergodic_projection(op, angle)
            exact = s[:, idx] @ s_inv[idx, :]
            assert np.linalg.norm(p - exact) <= 1e-9 * np.linalg.norm(exact)
        p_r = jdl_split(op).p_r
        exact = s[:, :4] @ s_inv[:4, :]
        assert np.linalg.norm(p_r - exact) <= 1e-9 * np.linalg.norm(exact)


@pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
def test_defective_stable_raw_operator_falls_back_to_schur(continuous, schur_calls):
    sys_, want, _ = _route_case(continuous, 10.0, jordan=True)
    for member in sys_.operators:
        assert member.spectral_verdict == (True, None)
        assert member.power_bound_estimate > operators.EIGENBASIS_COND_CAP
        assert member.eigenbasis is None
    got = (continuous_limit_operator if continuous else limit_operator)(sys_)
    assert len(schur_calls) == 2
    assert np.linalg.norm(want) > 0.1
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_matrix_changed_in_place_never_reuses_the_stale_eigenbasis():
    # the operator's matrix cannot be changed, and the caller's array is not it
    boundary = [cmath.exp(2j * math.pi * float(Fraction(v))) for v in DISCRETE_VALUES[0]]
    values = boundary + STABLE[False] * 2
    s, s_inv, a = _similar(values, 10.0, 820)
    t, t_inv, b = _similar(values, 10.0, 830)  # same spectrum, another eigenbasis
    op = from_matrix(a)

    def reads():
        return mean_ergodic_projection(op, "0"), limit_operator(make_system([1], [op]))

    before = reads()
    with pytest.raises(ValueError):
        op.matrix[...] = b
    a[...] = b
    exact, other = s[:, [0]] @ s_inv[[0], :], t[:, [0]] @ t_inv[[0], :]
    assert np.linalg.norm(other - exact) > 0.1
    for got, was in zip(reads(), before):
        assert np.array_equal(got, was)
        assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact)


# --------------------------------------------------------------- diagnostic


def test_kvn_reciprocal_sequence_is_cesaro_null():
    n = np.arange(1, 4097)
    rep = kvn_diagnostic(1.0 / n)
    assert rep.cesaro_null
    assert rep.checkpoints[-1] == 4096
    assert rep.means[-1] == pytest.approx(np.mean(1.0 / n))
    # density-one set eventually contains everything: crude coverage check
    covered = sum(b - a + 1 for a, b in rep.density_one_set)
    assert covered >= 0.9 * 4096


def test_kvn_constant_sequence_is_not_null():
    rep = kvn_diagnostic(np.ones(1024))
    assert not rep.cesaro_null
    assert all(d == 0.0 for _, d in rep.epsilon_ladder)
    assert rep.density_one_set == ()


def test_kvn_null_iff_last_mean_below_threshold():
    vals = np.full(512, 0.02)
    strict = kvn_diagnostic(vals, threshold=1e-2)
    loose = kvn_diagnostic(vals, threshold=0.05)
    assert not strict.cesaro_null
    assert loose.cesaro_null
    assert strict.means[-1] == pytest.approx(0.02)
    assert strict.cesaro_null == (strict.means[-1] <= strict.threshold)
    assert loose.cesaro_null == (loose.means[-1] <= loose.threshold)


def test_kvn_sparse_spikes_yield_density_one_set_avoiding_them():
    length = 16384
    a = np.zeros(length)
    squares = np.array([i * i for i in range(1, 129) if i * i <= length]) - 1
    a[squares] = 1.0
    rep = kvn_diagnostic(a)
    assert rep.cesaro_null  # 128/16384 of the mass, under the 1e-2 threshold
    covered = 0
    for lo, hi in rep.density_one_set:
        covered += hi - lo + 1
        assert np.all(a[lo - 1 : hi] <= 0.5)  # runs avoid every spike
    assert covered >= 0.9 * length


def test_kvn_checkpoints_are_dyadic_prefix_means():
    a = np.arange(1, 9, dtype=float)  # 1..8
    rep = kvn_diagnostic(a, threshold=10.0)
    assert rep.checkpoints == (1, 2, 4, 8)
    assert rep.means == (1.0, 1.5, 2.5, 4.5)
    assert rep.cesaro_null  # 4.5 <= 10


def test_kvn_continuous_mode_scales_to_time_units():
    a = np.concatenate([np.ones(16), np.zeros(240)])
    disc = kvn_diagnostic(a)
    cont = kvn_diagnostic(a, mode="continuous", sample_step=0.5)
    assert cont.mode == "continuous"
    assert cont.checkpoints == tuple(c * 0.5 for c in disc.checkpoints)
    assert cont.means == disc.means
    assert cont.density_one_set == tuple(
        (lo * 0.5, hi * 0.5) for lo, hi in disc.density_one_set
    )


def test_kvn_input_validation():
    with pytest.raises(EmptySequenceError):
        kvn_diagnostic([])
    with pytest.raises(ValidationError):
        kvn_diagnostic([1.0, -0.5])
    with pytest.raises(ValidationError):
        kvn_diagnostic([1.0, np.nan])
    with pytest.raises(ValidationError):
        kvn_diagnostic([1.0], mode="sideways")
    with pytest.raises(ValidationError):
        kvn_diagnostic([1.0], mode="continuous")  # sample_step missing
    with pytest.raises(ValidationError):
        kvn_diagnostic([1.0], epsilons=[0.0])


def test_kvn_refuses_nan_threshold():
    # every comparison with NaN is false, so cesaro_null would read False for any sequence
    assert kvn_diagnostic([0.0] * 10).cesaro_null
    with pytest.raises(ValidationError, match="threshold"):
        kvn_diagnostic([0.0] * 10, threshold=float("nan"))


def test_kvn_refuses_nan_epsilon():
    # a NaN epsilon would give a (nan, 0.0) rung on the ladder
    with pytest.raises(ValidationError, match="epsilons"):
        kvn_diagnostic([0.0] * 10, epsilons=(0.5, float("nan")))


def test_kvn_refuses_infinite_sample_step():
    # an infinite step would put every checkpoint at inf
    with pytest.raises(ValidationError, match="sample_step"):
        kvn_diagnostic([0.0] * 10, mode="continuous", sample_step=float("inf"))
