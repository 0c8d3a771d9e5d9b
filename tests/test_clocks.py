"""One operator type and one system type for both clocks.

Generators are SpectralOperators on the continuous clock and systems of
generators are EntangledSystems; each clock's entry points refuse the other
clock's operators and systems by name, and limit_operator serves either.
"""

import numpy as np
import pytest

from entlab import (
    ContinuousSystem,
    EntangledSystem,
    OrthonormalBasis,
    RandomSimilarity,
    Semigroup,
    SpectralOperator,
    ValidationError,
    certify_bounded_semigroup,
    certify_power_bounded,
    continuous_entangled_average,
    continuous_limit_operator,
    entangled_average,
    frequency_spectrum,
    from_matrix,
    jdl_split,
    limit_operator,
    limit_operator_with_tuples,
    make_continuous_system,
    make_system,
    mean_ergodic_projection,
    resonant_tuples,
    semigroup_from_generator,
    stacked_system,
    suggest_points,
    synth_operator,
    synth_semigroup,
    unimodular_spectrum,
)
from entlab import spectral_limit
from entlab.continuous import CONTINUOUS
from entlab.operators import DISCRETE


def _raw(boundary, stable, seed):
    """S diag(boundary, stable) S^{-1} for a random non-normal S."""
    rng = np.random.default_rng(seed)
    d = len(boundary) + len(stable)
    s = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return s @ np.diag(np.array(list(boundary) + list(stable), dtype=np.complex128)) @ np.linalg.inv(s)


def _op():
    return synth_operator(["0", "1/2"], [0.5], OrthonormalBasis(seed=11))


def _sg():
    return synth_semigroup(["0", "1/2"], [-0.5], OrthonormalBasis(seed=12))


def test_generators_and_their_systems_are_the_discrete_types():
    sg = _sg()
    raw = semigroup_from_generator(sg.generator)
    for member in (sg, raw):
        assert isinstance(member, SpectralOperator) and member.clock is CONTINUOUS
        assert member.generator is member.matrix
        assert member.growth_bound_estimate == member.power_bound_estimate
        assert member.frequency_points is member.unimodular_spectrum
    op = _op()
    assert op.clock is DISCRETE and from_matrix(op.matrix).clock is DISCRETE
    assert Semigroup is SpectralOperator and ContinuousSystem is EntangledSystem

    cs = make_continuous_system([1, 1], [sg, raw])
    assert type(cs) is EntangledSystem and cs.clock is CONTINUOUS
    assert cs.semigroups is cs.operators and cs.operators == (sg, raw)
    ds = make_system([1, 1], [op, op])
    assert type(ds) is EntangledSystem and ds.clock is DISCRETE


def test_limit_operator_serves_either_clock():
    cs = make_continuous_system([1, 1], [_sg(), _sg()])
    want = continuous_limit_operator(cs)
    assert np.linalg.norm(want) > 0.1
    assert np.array_equal(limit_operator(cs), want)


WRONG_CLOCK = {
    "make_system": lambda op, sg, ds, cs: make_system([1, 1], [op, sg]),
    "certify_power_bounded": lambda op, sg, ds, cs: certify_power_bounded(sg),
    "jdl_split": lambda op, sg, ds, cs: jdl_split(sg),
    "mean_ergodic_projection": lambda op, sg, ds, cs: mean_ergodic_projection(sg, 0),
    "unimodular_spectrum": lambda op, sg, ds, cs: unimodular_spectrum(sg),
    "entangled_average": lambda op, sg, ds, cs: entangled_average(cs, 4),
    "stacked_system": lambda op, sg, ds, cs: stacked_system(cs),
    "make_continuous_system": lambda op, sg, ds, cs: make_continuous_system([1, 1], [sg, op]),
    "certify_bounded_semigroup": lambda op, sg, ds, cs: certify_bounded_semigroup(op),
    "frequency_spectrum": lambda op, sg, ds, cs: frequency_spectrum(op),
    "continuous_entangled_average": lambda op, sg, ds, cs: continuous_entangled_average(ds, 1.0),
    "suggest_points": lambda op, sg, ds, cs: suggest_points(ds, 1.0),
    "continuous_limit_operator": lambda op, sg, ds, cs: continuous_limit_operator(ds),
}


@pytest.mark.parametrize("kind", ["cert", "raw"])
@pytest.mark.parametrize("entry", sorted(WRONG_CLOCK))
def test_wrong_clock_is_refused_by_name(entry, kind):
    op, sg = _op(), _sg()
    if kind == "raw":
        op, sg = from_matrix(op.matrix), semigroup_from_generator(sg.generator)
    ds, cs = make_system([1, 1], [op, op]), make_continuous_system([1, 1], [sg, sg])
    discrete_entry = entry in ("make_system", "certify_power_bounded", "jdl_split",
                               "mean_ergodic_projection", "unimodular_spectrum",
                               "entangled_average", "stacked_system")
    given, expected = ("generator", "operator") if discrete_entry else ("operator", "generator")
    with pytest.raises(ValidationError, match=f"^{given} given where {expected}s are expected"):
        WRONG_CLOCK[entry](op, sg, ds, cs)


@pytest.mark.parametrize("kind", ["cert", "raw"])
def test_value_at_time_t_is_refused_for_an_operator(kind):
    op = _op() if kind == "cert" else from_matrix(_op().matrix)
    with pytest.raises(ValidationError, match="needs a generator"):
        op.value(1.0)
    assert np.allclose(_sg().value(0.0), np.eye(3), atol=1e-15)


def _two_block_system(continuous: bool):
    """alpha = [1, 2, 1, 2] with certified and raw members, several tuples per block."""
    if continuous:
        values = (["0", "1/2", "-1/2"], ["0", "-1/2", "3/2"])
        stable = [-0.3 + 0.7j]
        members = [synth_semigroup(values[0], stable, RandomSimilarity(31, 5.0)),
                   semigroup_from_generator(_raw([2j * np.pi * 0.0, 2j * np.pi * -0.5,
                                                  2j * np.pi * 1.5], stable, 32)),
                   synth_semigroup(values[1], stable, RandomSimilarity(33, 5.0)),
                   synth_semigroup(values[0], stable, OrthonormalBasis(34))]
        make = make_continuous_system
    else:
        values = (["0", "1/4", "1/2"], ["0", "3/4", "1/2"])
        stable = [0.4 - 0.2j]
        members = [synth_operator(values[0], stable, RandomSimilarity(41, 5.0)),
                   from_matrix(_raw([1.0, 1j, -1.0], stable, 42)),
                   synth_operator(values[1], stable, RandomSimilarity(43, 5.0)),
                   synth_operator(values[0], stable, OrthonormalBasis(44))]
        make = make_system
    conns = [np.eye(4) + 0.2 * np.diag(np.ones(3), 1) for _ in range(3)]
    return make([1, 2, 1, 2], members, conns)


@pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
def test_limit_with_tuples_solves_each_block_once(continuous, monkeypatch):
    system = _two_block_system(continuous)
    clock = system.clock
    spectra = [[clock.resonance_entry(p) for p in op.unimodular_spectrum]
               for op in system.operators]
    want_limit = limit_operator(system)
    want_tuples = resonant_tuples(spectra, system.partition, additive=clock.additive)
    assert len(want_tuples) > 1 and np.linalg.norm(want_limit) > 0.1

    calls = []
    original = spectral_limit._block_solutions

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_limit, "_block_solutions", counting)
    limit, tuples = limit_operator_with_tuples(system)
    assert len(calls) == system.partition.k
    assert np.array_equal(limit, want_limit) and tuples == want_tuples
    calls.clear()
    limit_operator(system)  # reads the block table that want_limit's call filled
    assert not calls


def test_limit_with_tuples_without_resonance_is_zero_and_empty():
    op = synth_operator(["1/3", "1/4"], [0.5], OrthonormalBasis(seed=51))
    limit, tuples = limit_operator_with_tuples(make_system([1], [op]))
    assert tuples == () and limit.shape == (3, 3) and not np.any(limit)


def test_resonant_tuples_reads_each_clock_in_its_own_mode():
    op, sg = _op(), _sg()
    with pytest.raises(ValidationError, match="^generator given with additive=False"):
        resonant_tuples([sg, sg], [1, 1])
    with pytest.raises(ValidationError, match="^operator given with additive=True"):
        resonant_tuples([op, op], [1, 1], additive=True)
    frequencies = [CONTINUOUS.resonance_entry(p) for p in sg.frequency_points]
    got = resonant_tuples([sg, sg], [1, 1], additive=True)
    assert len(got) == 1 and got == resonant_tuples([frequencies] * 2, [1, 1], additive=True)


@pytest.mark.parametrize("order", ["operator first", "generator first"])
def test_limit_refuses_a_system_of_two_clocks(order):
    op, sg = _op(), _sg()
    ds = make_system([1, 1], [op, op])
    members = (op, sg) if order == "operator first" else (sg, op)
    mixed = EntangledSystem(ds.partition, members, ds.connectors)  # unvalidated
    for limit in (limit_operator, limit_operator_with_tuples):
        with pytest.raises(ValidationError, match="given with additive="):
            limit(mixed)
