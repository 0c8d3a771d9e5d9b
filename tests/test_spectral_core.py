"""Tests for the spectral core shared by discrete and continuous time.

One eig call per raw operator or generator carries the boundary points, the
bound and the boundedness verdict through system assembly and the limit.
The certificate route (exact masks in the synthesized eigenbasis) and the
Schur route (the same matrix rebuilt raw) must give the same limit in both
clocks.
"""

from fractions import Fraction

import numpy as np
import pytest

from entlab import linalg
from entlab.continuous import (
    continuous_limit_operator,
    make_continuous_system,
    semigroup_from_generator,
    synth_semigroup,
)
from entlab.entangle import make_system
from entlab.errors import BadAngleError, ValidationError
from entlab.operators import (
    OrthonormalBasis,
    RandomSimilarity,
    from_matrix,
    mean_ergodic_projection,
    parse_angle,
    synth_operator,
)
from entlab.spectral_limit import limit_operator, resonant_tuples
from entlab.rng import CounterRng


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    original = linalg.eig

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "eig", counting)
    return calls


def _raw(seed: int, diag) -> np.ndarray:
    s = np.eye(len(diag)) + 0.3 * CounterRng(seed).complex_normal((len(diag),) * 2)
    return s @ np.diag(diag) @ np.linalg.inv(s)


def test_discrete_raw_operator_is_decomposed_once(eig_calls):
    op = from_matrix(_raw(1, [1.0, -1.0, 0.5, 0.2j]))
    system = make_system([1, 1], [op, op], [linalg.haar_unitary(4, seed=2)])
    lim = limit_operator(system)
    assert len(eig_calls) == 1
    assert np.linalg.norm(lim) > 0.5  # (1, 1) and (-1, -1) resonate


def test_continuous_raw_generator_is_decomposed_once(eig_calls):
    two_pi = 2.0 * np.pi
    sg = semigroup_from_generator(_raw(3, [0.0, two_pi * 0.5j, -two_pi * 0.5j, -1.0]))
    system = make_continuous_system([1, 1], [sg, sg], [linalg.haar_unitary(4, seed=4)])
    lim = continuous_limit_operator(system)
    assert len(eig_calls) == 1
    assert np.linalg.norm(lim) > 0.5  # (0, 0), (1/2, -1/2), (-1/2, 1/2) resonate


def _synth_discrete(basis):
    return synth_operator(["0", "1/3", "2/3"], [0.4, -0.3j], basis)


def _synth_continuous(basis):
    return synth_semigroup(["0", "1/2", "-1/2"], [-0.5, -1.0 + 0.4j], basis)


@pytest.mark.parametrize("alpha", [[1, 1], [1, 2, 1]])
@pytest.mark.parametrize("basis_kind", [OrthonormalBasis, RandomSimilarity])
@pytest.mark.parametrize("clock", ["discrete", "continuous"])
def test_certificate_and_schur_routes_agree(alpha, basis_kind, clock):
    m = len(alpha)
    if clock == "discrete":
        members = [_synth_discrete(basis_kind(seed=40 + j)) for j in range(m)]
        raw = [from_matrix(op.matrix) for op in members]
        make, limit = make_system, limit_operator
    else:
        members = [_synth_continuous(basis_kind(seed=50 + j)) for j in range(m)]
        raw = [semigroup_from_generator(sg.generator) for sg in members]
        make, limit = make_continuous_system, continuous_limit_operator
    assert all(r.certificate is None for r in raw)
    conns = [linalg.haar_unitary(5, seed=60 + j) for j in range(m - 1)]
    via_cert = limit(make(alpha, members, conns))
    via_schur = limit(make(alpha, raw, conns))
    assert np.linalg.norm(via_cert) > 0.1
    assert np.linalg.norm(via_schur - via_cert) <= 1e-9 * np.linalg.norm(via_cert)


def test_raw_frequencies_match_synthesized_ones():
    sg = _synth_continuous(RandomSimilarity(seed=70))
    raw = semigroup_from_generator(sg.generator)
    assert [p.multiplicity for p in raw.frequency_points] == [1, 1, 1]
    got = [p.frequency for p in raw.frequency_points]
    assert got == pytest.approx([-0.5, 0.0, 0.5], abs=1e-10)
    assert [p.exact for p in sg.frequency_points] == [
        Fraction(-1, 2), Fraction(0), Fraction(1, 2)
    ]


@pytest.mark.parametrize("raw", [(1, 0), (1.5, 2), (1, 2.0), ("1", "2"), (True, 2)])
def test_angles_and_frequencies_share_the_pair_rules(raw):
    with pytest.raises(BadAngleError):
        parse_angle(raw)
    with pytest.raises(ValidationError):
        synth_semigroup([raw], [], OrthonormalBasis(seed=0))


EXACT_READERS = {  # entry points that read an exact angle or frequency
    "parse_angle": parse_angle,
    "synth_operator": lambda v: synth_operator([v], [0.5], OrthonormalBasis(0)).unimodular_spectrum,
    "synth_semigroup": lambda v: synth_semigroup([v], [-0.5], OrthonormalBasis(0)).frequency_points,
    "resonant_tuples": lambda v: resonant_tuples([[v], [0]], [1, 1]),
    "resonant_tuples additive": lambda v: resonant_tuples([[v], [-v]], [1, 1], additive=True),
    "mean_ergodic_projection": lambda v: mean_ergodic_projection(
        synth_operator(["0"], [0.5], OrthonormalBasis(0)), v).tolist(),
}


@pytest.mark.parametrize("reader", EXACT_READERS)
@pytest.mark.parametrize("value", [2, 3])
def test_numpy_integers_are_the_exact_values_they_hold(reader, value):
    read = EXACT_READERS[reader]
    want, got = read(value), read(np.int64(value))
    assert got == want and repr(got) == repr(want)  # no numpy integer inside a Fraction
