"""Tests for the counter-mode SplitMix64 generator.

The reference values below were produced by an independent pure-Python
SplitMix64 (big-int arithmetic, no numpy).  Seed 0 reproduces the widely
published test vector for the algorithm, so agreement here pins the
implementation to the standard mixing constants, not just to itself.
"""

import numpy as np
import pytest

from entlab.rng import CounterRng

_M = (1 << 64) - 1


def _ref_mix64(x: int) -> int:
    x &= _M
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M
    return x ^ (x >> 31)


def _ref_words(seed: int, start: int, n: int) -> list[int]:
    g = 0x9E3779B97F4A7C15
    return [_ref_mix64((seed + (start + i + 1) * g) & _M) for i in range(n)]


# first words of the seed-0 stream: the standard SplitMix64 test vector
_SEED0_WORDS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
_SEED42_WORDS = (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52)


def test_raw_words_match_published_vector():
    rng = CounterRng(0)
    got = rng._raw(3)
    assert [int(w) for w in got] == list(_SEED0_WORDS)


def test_raw_words_match_reference_for_nonzero_seed():
    rng = CounterRng(42)
    got = rng._raw(3)
    assert [int(w) for w in got] == list(_SEED42_WORDS)
    assert list(_SEED42_WORDS) == _ref_words(42, 0, 3)


def test_counter_mode_is_split_invariant():
    a = CounterRng(7)
    b = CounterRng(7)
    whole = a._raw(20)
    parts = np.concatenate([b._raw(3), b._raw(9), b._raw(8)])
    assert np.array_equal(whole, parts)


def test_streams_are_pure_functions_of_seed_and_index():
    # draw some, then check the continuation against the big-int reference
    rng = CounterRng(123456789)
    rng._raw(5)
    got = [int(w) for w in rng._raw(4)]
    assert got == _ref_words(123456789, 5, 4)


def test_seed_wraps_modulo_2_64():
    assert np.array_equal(CounterRng(5)._raw(8), CounterRng(5 + (1 << 64))._raw(8))


def test_uniform_is_top_53_bits():
    words = _ref_words(9, 0, 6)
    expect = np.array([(w >> 11) * 2.0 ** -53 for w in words])
    got = CounterRng(9).uniform(6)
    assert np.array_equal(got, expect)


def test_uniform_range_and_determinism():
    u = CounterRng(2024).uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, CounterRng(2024).uniform(10_000))
    # different seeds decorrelate
    v = CounterRng(2025).uniform(10_000)
    assert not np.array_equal(u[:100], v[:100])


def test_uniform_moments():
    u = CounterRng(3).uniform(200_000)
    # mean 1/2 (se ~ 6.5e-4), variance 1/12 (se ~ 5e-4); 5 sigma bands
    assert abs(u.mean() - 0.5) < 3.5e-3
    assert abs(u.var() - 1.0 / 12.0) < 2.5e-3


def test_standard_normal_moments():
    z = CounterRng(11).standard_normal(200_000)
    assert abs(z.mean()) < 1.2e-2
    assert abs(z.std() - 1.0) < 1.0e-2
    # symmetric tails: P(|z| > 2) = 4.55e-2
    frac = np.mean(np.abs(z) > 2.0)
    assert abs(frac - 0.0455) < 5e-3


def test_standard_normal_odd_length_prefix():
    # odd n is the even stream truncated, not a different stream
    a = CounterRng(5).standard_normal(7)
    b = CounterRng(5).standard_normal(8)
    assert np.array_equal(a, b[:7])


def test_standard_normal_is_box_muller_on_two_uniform_draws():
    # the reference: ceil(n/2) uniforms for the radii, then as many for the angles
    a, b = CounterRng(21), CounterRng(21)
    u1, u2 = b.uniform(5), b.uniform(5)
    r, theta = np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2
    want = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:9]
    assert a.standard_normal(9).tobytes() == want.tobytes()
    assert a.uniform(2).tobytes() == b.uniform(2).tobytes()  # the counters agree after


@pytest.mark.parametrize("shape", [(), (1,), (2,), (7,), (3, 3), (2, 4)])
def test_complex_normal_is_two_standard_normal_draws(shape):
    # one raw draw serves both parts: the same words, in the same order, as two calls
    n = int(np.prod(shape))
    a, b = CounterRng(31), CounterRng(31)
    got = a.complex_normal(shape)
    re, im = b.standard_normal(n), b.standard_normal(n)
    assert got.shape == shape
    assert got.tobytes() == (re + 1j * im).reshape(shape).tobytes()
    assert a.uniform(2).tobytes() == b.uniform(2).tobytes()


def test_complex_normal_shape_and_moments():
    z = CounterRng(13).complex_normal((300, 300))
    assert z.shape == (300, 300)
    assert z.dtype == np.complex128
    # E|z|^2 = 2 for unit-variance parts
    assert abs(np.mean(np.abs(z) ** 2) - 2.0) < 3e-2
    assert abs(z.mean()) < 2e-2


def test_integers_range_and_reduction():
    r = CounterRng(77)
    vals = r.integers(5_000, 10)
    assert vals.min() >= 0 and vals.max() <= 9
    words = _ref_words(77, 0, 5)
    assert [int(v) for v in vals[:5]] == [w % 10 for w in words]


def test_integers_rejects_nonpositive_high():
    with pytest.raises(ValueError):
        CounterRng(0).integers(3, 0)
