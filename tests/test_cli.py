"""End-to-end tests for the command-line interface.

Covers config parsing with error paths, hash canonicalization, record
emission, every experiment kind through main(), and exit codes, including a
malformed value anywhere in a config.  FNV-1a reference digests are the published test vectors.
"""

import argparse
import csv
import json
import re
import time

import numpy as np
import pytest

from entlab import cli, continuous, entangle, operators, shiftlab, spectral_limit
from entlab.cli import (
    CSV_HEADER,
    emit_results,
    fnv1a64,
    main,
    parse_config,
    run_experiment,
)
from entlab.entangle import entangled_average, make_system
from entlab.errors import ParseError, ValidationError
from entlab.operators import OrthonormalBasis, RandomSimilarity, synth_operator
from entlab.rng import CounterRng

# --------------------------------------------------------------- reference


def _converge_config(**over):
    cfg = {
        "kind": "converge",
        "seed": 1,
        "alpha": [1, 1],
        "operators": [
            {
                "angles": ["0", "1/3"],
                "stable": [[0.4, 0.0]],
                "basis": {"type": "orthonormal", "seed": 5},
            },
            {
                "angles": ["0", "2/3"],
                "stable": [[0.0, 0.3]],
                "basis": {"type": "orthonormal", "seed": 6},
            },
        ],
        "connectors": [{"type": "haar", "seed": 2}],
        "schedule": [16, 64, 256],
    }
    cfg.update(over)
    return cfg


def _continuous_config(**over):
    cfg = {
        "kind": "continuous",
        "alpha": [1, 1],
        "generators": [
            {
                "frequencies": ["0", "1/2"],
                "stable": [[-0.5, 0.0]],
                "basis": {"type": "orthonormal", "seed": 7},
            },
            {
                "frequencies": ["0", "-1/2"],
                "stable": [[-1.0, 0.0]],
                "basis": {"type": "orthonormal", "seed": 8},
            },
        ],
        "horizons": [8.0, 32.0],
        "quadrature": {"scheme": "midpoint", "points": "auto"},
    }
    cfg.update(over)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ------------------------------------------------------------------ hashing


def test_fnv1a64_published_vectors():
    assert fnv1a64(b"") == "cbf29ce484222325"
    assert fnv1a64(b"a") == "af63dc4c8601ec8c"
    assert fnv1a64(b"foobar") == "85944171f73967e8"


def test_config_hash_stable_under_key_reordering():
    a = parse_config(json.dumps(_converge_config()))
    shuffled = dict(reversed(list(_converge_config().items())))
    b = parse_config(json.dumps(shuffled))
    assert a.config_hash == b.config_hash


def test_config_hash_stable_under_angle_spelling():
    base = _converge_config()
    other = parse_config(
        json.dumps(
            _converge_config(
                operators=[
                    {
                        "angles": ["0", "2/6"],  # same value as 1/3: no warning
                        "stable": [[0.4, 0.0]],
                        "basis": {"type": "orthonormal", "seed": 5},
                    },
                    base["operators"][1],
                ]
            )
        )
    )
    assert other.config_hash == parse_config(json.dumps(base)).config_hash


def test_wrapped_angle_warns_and_hashes_canonically():
    base = _converge_config()
    wrapped = _converge_config(
        operators=[
            {
                "angles": ["0", "-2/3"],  # wraps to 1/3: value changed
                "stable": [[0.4, 0.0]],
                "basis": {"type": "orthonormal", "seed": 5},
            },
            base["operators"][1],
        ]
    )
    with pytest.warns(UserWarning, match="normalized"):
        cfg = parse_config(json.dumps(wrapped))
    assert cfg.config_hash == parse_config(json.dumps(base)).config_hash


def test_config_hash_ignores_where_records_go():
    plain = parse_config(json.dumps(_converge_config()))
    for over in ({"format": "json"}, {"out": "elsewhere.csv"},
                 {"format": "json", "out": "r.json"}):
        cfg = parse_config(json.dumps(_converge_config(**over)))
        assert cfg.config_hash == plain.config_hash
    assert cfg.format == "json" and cfg.out == "r.json"  # still honored


def test_config_hash_changes_with_content():
    a = parse_config(json.dumps(_converge_config(seed=1)))
    b = parse_config(json.dumps(_converge_config(seed=2)))
    assert a.config_hash != b.config_hash


# ------------------------------------------------------------------ parsing


def test_parse_config_defaults():
    cfg = parse_config(json.dumps(_converge_config()))
    assert cfg.kind == "converge"
    assert cfg.strategy == "spectral"
    assert cfg.tolerance == 1e-8
    assert cfg.budget == 1e8
    assert cfg.format == "csv"
    assert cfg.out is None
    assert cfg.data["schedule"] == [16, 64, 256]


def test_parse_config_schedule_sorted_and_deduplicated():
    cfg = parse_config(json.dumps(_converge_config(schedule=[64, 4, 64, 16])))
    assert cfg.data["schedule"] == [4, 16, 64]


def test_parse_config_invalid_json_reports_position():
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_config("{ not json")


def test_strategy_field_accepts_spectral_and_names_every_strategy():
    assert parse_config(json.dumps(_converge_config(strategy="spectral"))).strategy == "spectral"
    with pytest.raises(ValidationError, match=re.escape("must be presum|spectral")):
        parse_config(json.dumps(_converge_config(strategy="turbo")))


def test_cli_spectral_converge_reaches_depth_2_pow_40(tmp_path, capsys):
    cfg = _converge_config(strategy="spectral", schedule=[16, 2**40])
    out_path = str(tmp_path / "r.csv")
    rc = main(["converge", "--config", _write(tmp_path, cfg), "--out", out_path])
    assert rc == 0
    capsys.readouterr()
    rows = {int(r["checkpoint"]): r for r in _rows(out_path)}
    assert set(rows) == {16, 2**40}
    assert all(r["strategy"] == "spectral" for r in rows.values())
    # the non-resonant part decays as 1/N; at N = 16 it is still visible
    assert float(rows[2**40]["error_fro"]) < 1e-9 < float(rows[16]["error_fro"])


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda c: c.update(kind="warp"), "$.kind"),
        (lambda c: c.update(strategy="turbo"), "$.strategy"),
        (lambda c: c.update(tolerance=-1.0), "$.tolerance"),
        (lambda c: c.update(format="xml"), "$.format"),
        (lambda c: c.update(alpha=[1, 3]), "$.alpha"),
        (lambda c: c.update(alpha=[]), "$.alpha"),
        (lambda c: c.update(schedule=[]), "$.schedule"),
        (lambda c: c.update(schedule=[4, 0]), "$.schedule[1]"),
        (lambda c: c.update(mystery=1), "unknown fields"),
        (lambda c: c.update(connectors=[{"type": "identity"}] * 5), "$.connectors"),
        (
            lambda c: c["operators"][0].update(angles=["1/0"]),
            "$.operators[0].angles[0]",
        ),
        (
            lambda c: c["operators"].pop(),
            "$.operators",
        ),
    ],
)
def test_parse_config_error_paths(mutate, path_fragment):
    cfg = _converge_config()
    mutate(cfg)
    with pytest.raises(ValidationError, match=re.escape(path_fragment)):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize("raw, message", [
    (_converge_config(schedule=[16, 0]), "$.schedule[1]: depths are positive integers, got 0"),
    (_converge_config(kind="stacking-test", schedule=[-2]),
     "$.schedule[0]: depths are positive integers, got -2"),
    ({"kind": "counterexample", "checkpoints": [4, 0]},
     "$.checkpoints[1]: checkpoints are positive integers, got 0"),
])
def test_parse_config_positive_int_refusals_name_their_entries(raw, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config(json.dumps(raw))


def test_parse_config_operator_needs_an_eigenvalue():
    cfg = _converge_config()
    cfg["operators"][0] = {"angles": [], "stable": []}
    with pytest.raises(ValidationError, match="at least one eigenvalue"):
        parse_config(json.dumps(cfg))


def test_parse_config_basis_and_connector_validation():
    cfg = _converge_config()
    cfg["operators"][0]["basis"] = {"type": "fourier"}
    with pytest.raises(ValidationError, match="basis type"):
        parse_config(json.dumps(cfg))
    cfg = _converge_config()
    cfg["operators"][0]["basis"] = {"type": "similarity", "condition_cap": 0.5}
    with pytest.raises(ValidationError, match="condition_cap"):
        parse_config(json.dumps(cfg))
    cfg = _converge_config(connectors=[{"type": "warp"}])
    with pytest.raises(ValidationError, match="connector type"):
        parse_config(json.dumps(cfg))


def test_parse_config_counterexample_fields():
    cfg = parse_config(
        json.dumps({"kind": "counterexample", "checkpoints": [16, 4, 4]})
    )
    assert cfg.data["checkpoints"] == [4, 16]
    assert cfg.data["window"] == 64
    with pytest.raises(ValidationError, match=r"\$\.window"):
        parse_config(
            json.dumps({"kind": "counterexample", "checkpoints": [4], "window": -1})
        )


def test_parse_config_continuous_fields():
    cfg = parse_config(json.dumps(_continuous_config()))
    assert cfg.data["quadrature"] == {"scheme": "midpoint", "points": "auto"}
    assert cfg.data["richardson"] is True
    assert cfg.data["horizons"] == [8.0, 32.0]
    with pytest.raises(ValidationError, match=r"\$\.horizons"):
        parse_config(json.dumps(_continuous_config(horizons=[-1.0])))
    with pytest.raises(ValidationError, match=r"\$\.quadrature\.points"):
        parse_config(
            json.dumps(_continuous_config(quadrature={"points": 1}))
        )
    with pytest.raises(ValidationError, match=r"\$\.quadrature\.scheme"):
        parse_config(
            json.dumps(_continuous_config(quadrature={"scheme": "simpson"}))
        )


def test_parse_config_frequencies_are_signed():
    cfg = parse_config(json.dumps(_continuous_config()))
    assert cfg.data["generators"][1]["frequencies"] == ["0/1", "-1/2"]


def _kind_config(kind):
    """A valid config of each kind."""
    if kind == "counterexample":
        return {"kind": kind, "checkpoints": [4]}
    if kind == "continuous":
        return _continuous_config()
    cfg = _converge_config(kind=kind)
    if kind in ("limit", "resonances"):
        del cfg["schedule"]
    return cfg


@pytest.mark.parametrize("kind", cli.KINDS)
def test_each_kind_reads_every_field_it_accepts(kind):
    assert set(parse_config(json.dumps(_kind_config(kind))).data) <= cli.FIELDS[kind]


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("counterexample", {"alpha": [1, "x"], "operators": "junk"}),
        ("counterexample", {"connectors": [], "state_seed": 1}),
        *(("converge", {field: value}) for field, value in [
            ("horizons", [1.0]), ("quadrature", {}), ("window", 4), ("richardson", True),
            ("checkpoints", [4]), ("generators", [])]),
        ("stacking-test", {"horizons": [1.0]}),
        ("limit", {"schedule": [4], "state_seed": 1}),
        ("resonances", {"state_seed": 1}),
        ("continuous", {"operators": [], "schedule": [4]}),
    ],
)
def test_a_field_its_kind_never_reads_exits_2_naming_it(tmp_path, capsys, kind, extra):
    cfg = {**_kind_config(kind), **extra}
    rc = main([kind, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert f"unknown fields {sorted(extra)} for kind {kind!r}" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


# ----------------------------------------------------------------- emitting


def test_emit_csv_exact_header_and_roundtrip(tmp_path):
    records = [
        {
            "checkpoint": 16,
            "error_fro": 0.125,
            "error_op": 0.1,
            "runtime_ms": 1.5,
            "strategy": "presum",
            "seed": 1,
            "config_hash": "deadbeefdeadbeef",
        }
    ]
    path = tmp_path / "r.csv"
    emit_results(records, "csv", str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "checkpoint,error_fro,error_op,runtime_ms,strategy,seed,config_hash"
    assert CSV_HEADER == tuple(lines[0].split(","))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["error_fro"]) == 0.125
    assert rows[0]["config_hash"] == "deadbeefdeadbeef"


def test_emit_json_roundtrip(tmp_path):
    records = [{k: 0 for k in CSV_HEADER}]
    path = tmp_path / "r.json"
    emit_results(records, "json", str(path))
    assert json.loads(path.read_text()) == records


# ------------------------------------------------------------- end to end


def test_main_converge_writes_records_and_summary(tmp_path, capsys):
    cfg_path = _write(tmp_path, _converge_config())
    out_path = str(tmp_path / "records.csv")
    rc = main(["converge", "--config", cfg_path, "--out", out_path])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == "converge"
    assert summary["records"] == 3
    assert summary["out"] == out_path
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    errs = [float(r["error_fro"]) for r in rows]
    ns = [int(r["checkpoint"]) for r in rows]
    assert ns == [16, 64, 256]
    assert errs[-1] < errs[0]  # averages approach the limit
    assert errs[-1] <= 0.1
    assert all(e >= 0 for e in errs)
    assert {r["config_hash"] for r in rows} == {summary["config_hash"]}


def test_main_limit_reports_tuples_and_matrix(tmp_path, capsys):
    cfg = _converge_config(kind="limit")
    del cfg["schedule"]
    cfg_path = _write(tmp_path, cfg)
    rc = main(["limit", "--config", cfg_path, "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    # angles {0,1/3} x {0,2/3}: resonances (0,0) and (1/3,2/3)
    assert len(summary["resonant_tuples"]) == 2
    assert len(summary["matrix"]) == 3  # d = 3
    got = {
        tuple(e.get("angle") for e in t["entries"])
        for t in summary["resonant_tuples"]
    }
    assert got == {("0/1", "0/1"), ("1/3", "2/3")}


def _per_tuple_json(tuples):
    """Resonant tuples as JSON, one ResonantTuple at a time."""
    return [
        {
            "entries": [{"angle": f"{fr.numerator}/{fr.denominator}"} for fr in tup.exact],
            "residuals": [float(r) for r in tup.residuals],
            "fragile": tup.fragile,
        }
        for tup in tuples
    ]


@pytest.mark.parametrize("kind", ["limit", "resonances"])
def test_tuples_json_from_the_arrays_matches_the_per_tuple_json(kind):
    # alpha = [1, 2, 1, 2]: two blocks, so each tuple is a pick from each block's solutions
    spectra = [["0", "1/3", "2/3", "1/2"], ["0", "1/2"], ["0", "1/3", "2/3"], ["1/2", "0", "1/4"]]
    cfg = _converge_config(kind=kind, alpha=[1, 2, 1, 2], operators=[
        {"angles": angles, "stable": [[0.4, 0.1 * j]] * (5 - len(angles)),
         "basis": {"type": "orthonormal", "seed": 5 + j}}
        for j, angles in enumerate(spectra)], connectors=[{"type": "haar", "seed": 2}] * 3)
    del cfg["schedule"]
    parsed = parse_config(json.dumps(cfg))
    system = cli._build_system(parsed)
    tuples = spectral_limit.resonant_tuples(system.operators, system.partition)
    assert len(tuples) == 6
    want = _per_tuple_json(tuples)
    assert json.dumps(cli._serialize_tuples(tuples), indent=2) == json.dumps(want, indent=2)
    records, summary = run_experiment(parsed)
    assert summary["resonant_tuples"] == want
    worst = [max(t.residuals) for t in tuples]
    assert [r["error_fro"] for r in records] == ([max(worst)] if kind == "limit" else worst)


def test_main_resonances_one_record_per_tuple(tmp_path, capsys):
    cfg = _converge_config(kind="resonances")
    del cfg["schedule"]
    cfg_path = _write(tmp_path, cfg)
    out_path = str(tmp_path / "r.csv")
    rc = main(["resonances", "--config", cfg_path, "--out", out_path])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["count"] == 2
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(float(r["error_fro"]) == 0.0 for r in rows)  # exact angles


def test_main_counterexample_exact_values(tmp_path, capsys):
    cfg = {"kind": "counterexample", "checkpoints": [16, 32], "window": 4}
    cfg_path = _write(tmp_path, cfg)
    rc = main(["counterexample", "--config", cfg_path, "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["exact_values"] == {"16": "3/8", "32": "21/32"}
    assert summary["finite_section_norm"] == pytest.approx(np.sqrt(3.0), abs=1e-6)


def test_main_stacking_test_residuals_at_roundoff(tmp_path, capsys):
    cfg = _converge_config(kind="stacking-test", schedule=[8, 32])
    cfg_path = _write(tmp_path, cfg)
    out_path = str(tmp_path / "r.csv")
    rc = main(["stacking-test", "--config", cfg_path, "--out", out_path])
    assert rc == 0
    capsys.readouterr()
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["error_fro"]) <= 1e-12 for r in rows)


def test_main_continuous_auto_points(tmp_path, capsys):
    cfg_path = _write(tmp_path, _continuous_config())
    out_path = str(tmp_path / "r.csv")
    rc = main(["continuous", "--config", cfg_path, "--out", out_path])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    quad = summary["quadrature"]
    assert quad["8.0"]["points"] == 80  # 20 per period * t * fmax = 20*8*0.5
    assert quad["32.0"]["points"] == 320
    assert quad["8.0"]["richardson"] is not None
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    errs = {float(r["checkpoint"]): float(r["error_fro"]) for r in rows}
    assert errs[32.0] < errs[8.0]  # longer horizon, closer to the limit


@pytest.mark.parametrize("kind, calls", [
    ("converge", ["synth_operator", "synth_operator", "make_system"]),
    ("continuous", ["synth_semigroup", "synth_semigroup", "make_continuous_system"]),
])
def test_main_builds_systems_through_the_public_constructors(tmp_path, capsys, monkeypatch,
                                                             kind, calls):
    seen = []
    for module, name in [(operators, "synth_operator"), (entangle, "make_system"),
                         (continuous, "synth_semigroup"), (continuous, "make_continuous_system")]:
        def recording(*args, _name=name, _original=getattr(module, name), **kwargs):
            seen.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    cfg = _converge_config() if kind == "converge" else _continuous_config()
    assert main([kind, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert seen == calls


def test_main_continuous_runs_the_configured_strategy(tmp_path, capsys, monkeypatch):
    seen = []
    original = continuous.continuous_entangled_average

    def recording(*args, **kwargs):
        seen.append(kwargs["strategy"])
        return original(*args, **kwargs)

    monkeypatch.setattr(continuous, "continuous_entangled_average", recording)
    errs = {}
    for strategy in ("spectral", "presum"):
        out_path = str(tmp_path / f"{strategy}.csv")
        cfg_path = _write(tmp_path, _continuous_config(strategy=strategy))
        assert main(["continuous", "--config", cfg_path, "--out", out_path]) == 0
        rows = _rows(out_path)
        assert all(r["strategy"] == strategy for r in rows)
        errs[strategy] = np.array([float(r["error_fro"]) for r in rows])
    capsys.readouterr()
    assert seen == ["spectral"] * 2 + ["presum"] * 2  # one call per horizon
    # two routes to one quadrature value
    assert np.allclose(errs["spectral"], errs["presum"], rtol=1e-10, atol=0)


def test_main_state_seed_gives_vector_records(tmp_path, capsys):
    cfg_path = _write(tmp_path, _converge_config(state_seed=9, schedule=[32]))
    out_path = str(tmp_path / "r.csv")
    rc = main(["converge", "--config", cfg_path, "--out", out_path])
    assert rc == 0
    capsys.readouterr()
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # vector mode: both norm columns coincide
    assert float(rows[0]["error_fro"]) == float(rows[0]["error_op"])


def test_main_json_format_override(tmp_path, capsys):
    cfg_path = _write(tmp_path, _converge_config(schedule=[8]))
    out_path = str(tmp_path / "r.json")
    rc = main(["converge", "--config", cfg_path, "--out", out_path, "--format", "json"])
    assert rc == 0
    capsys.readouterr()
    records = json.loads((tmp_path / "r.json").read_text())
    assert isinstance(records, list) and records[0]["checkpoint"] == 8


def test_main_default_out_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = _write(tmp_path, _converge_config(schedule=[8]))
    rc = main(["converge", "--config", cfg_path])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["out"] == "entlab-converge.csv"
    assert (tmp_path / "entlab-converge.csv").exists()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_main_converge_reads_every_operator_and_connector_form(tmp_path, capsys):
    # scalar and {re, im} stable values, a similarity basis and a missing one
    # (orthonormal, seed 0), gaussian and explicit identity connectors
    seed = 11
    cfg = {
        "kind": "converge",
        "seed": seed,
        "alpha": [1, 2, 1],
        "operators": [
            {"angles": ["0", "1/3"], "stable": [0.5],
             "basis": {"type": "similarity", "seed": 4, "condition_cap": 10.0}},
            {"angles": ["1/2"], "stable": [{"re": 0.2, "im": -0.3}, {"im": 0.4}]},
            {"angles": ["0"], "stable": [[0.1, 0.1], -0.3],
             "basis": {"type": "similarity", "seed": 9}},
        ],
        "connectors": [{"type": "gaussian", "seed": 5, "scale": 0.7}, {"type": "identity"}],
        "schedule": [8, 64],
    }
    out_path = str(tmp_path / "r.csv")
    rc = main(["converge", "--config", _write(tmp_path, cfg), "--out", out_path])
    assert rc == 0
    capsys.readouterr()

    d = 3
    ops = [
        synth_operator(["0", "1/3"], [0.5], RandomSimilarity(4, 10.0)),
        synth_operator(["1/2"], [0.2 - 0.3j, 0.4j], OrthonormalBasis(0)),
        synth_operator(["0"], [0.1 + 0.1j, -0.3], RandomSimilarity(9, 50.0)),
    ]
    gaussian = CounterRng(5 ^ seed).complex_normal((d, d)) * (0.7 / np.sqrt(d))
    system = make_system([1, 2, 1], ops, [gaussian, np.eye(d)])
    limit = spectral_limit.limit_operator(system)
    for row, n in zip(_rows(out_path), [8, 64]):
        err = np.linalg.norm(entangled_average(system, n) - limit)
        assert float(row["error_fro"]) == pytest.approx(err, rel=1e-12)


def test_main_limit_enumerates_resonant_tuples_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = spectral_limit.resonant_tuples

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_limit, "resonant_tuples", counting)
    cfg = _converge_config(kind="limit")
    del cfg["schedule"]
    rc = main(["limit", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["resonant_tuples"]) == 2
    assert len(calls) == 1


def test_main_counterexample_rows_time_their_own_stretch_of_one_sweep(
    tmp_path, capsys, monkeypatch
):
    sweeps = []
    original = shiftlab.iter_divergence

    def counting(*args, **kwargs):
        sweeps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(shiftlab, "iter_divergence", counting)
    monkeypatch.setattr(
        shiftlab, "divergence_experiment",
        lambda *a, **k: pytest.fail("the CLI must sweep once, through iter_divergence"),
    )
    cfg = {"kind": "counterexample", "checkpoints": [1, 2, 3, 4000], "window": 4}
    out_path = str(tmp_path / "r.csv")
    t0 = time.perf_counter()
    rc = main(["counterexample", "--config", _write(tmp_path, cfg), "--out", out_path])
    wall_ms = 1e3 * (time.perf_counter() - t0)
    assert rc == 0
    capsys.readouterr()
    assert sweeps == [1]
    times = [float(r["runtime_ms"]) for r in _rows(out_path)]
    assert len(set(times)) > 1
    # cumulative stamps would add up to about four sweeps
    assert sum(times) <= wall_ms
    # the long stretch against the warm one-term rows: the first row also
    # pays for a cache-cold first step, which can outlast a whole stretch
    assert times[-1] > min(times[1:-1])
    assert all(r["strategy"] == "" for r in _rows(out_path))


def test_main_resonances_rows_share_one_enumeration_time(tmp_path, capsys):
    cfg = _converge_config(kind="resonances")
    del cfg["schedule"]
    out_path = str(tmp_path / "r.csv")
    t0 = time.perf_counter()
    rc = main(["resonances", "--config", _write(tmp_path, cfg), "--out", out_path])
    wall_ms = 1e3 * (time.perf_counter() - t0)
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    total = summary["enumeration_ms"]
    times = [float(r["runtime_ms"]) for r in _rows(out_path)]
    assert len(times) == summary["count"] == 2
    assert sum(times) <= wall_ms
    # each row is its share, so the rows add up to one enumeration, not count x
    assert sum(times) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize(
    "make, kind, strategy",
    [
        (_converge_config, "converge", "spectral"),
        (lambda: _converge_config(kind="stacking-test", schedule=[8]), "stacking-test", "spectral"),
        (_converge_config, "limit", ""),
        (_converge_config, "resonances", ""),
        (_continuous_config, "continuous", "spectral"),
        (lambda: {"kind": "counterexample", "checkpoints": [4]}, "counterexample", ""),
    ],
)
def test_rows_carry_a_strategy_only_where_one_runs(tmp_path, capsys, make, kind, strategy):
    cfg = make()
    cfg["kind"] = kind
    if kind in ("limit", "resonances"):
        del cfg["schedule"]
    out_path = str(tmp_path / "r.csv")
    rc = main([kind, "--config", _write(tmp_path, cfg), "--out", out_path])
    assert rc == 0
    capsys.readouterr()
    rows = _rows(out_path)
    assert rows and all(r["strategy"] == strategy for r in rows)


# --------------------------------------------------------------- exit codes


def test_exit_1_when_config_unreadable(tmp_path, capsys):
    rc = main(["converge", "--config", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_exit_2_on_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    rc = main(["converge", "--config", str(p)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_2_on_kind_mismatch(tmp_path, capsys):
    cfg = _converge_config(kind="limit")
    del cfg["schedule"]
    cfg_path = _write(tmp_path, cfg)
    rc = main(["converge", "--config", cfg_path])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_exit_3_on_budget_refusal(tmp_path, capsys):
    cfg_path = _write(tmp_path, _converge_config(strategy="presum"))
    rc = main(["converge", "--config", cfg_path, "--budget", "10"])
    assert rc == 3
    assert "budget refused" in capsys.readouterr().err
    assert not (tmp_path / "entlab-converge.csv").exists()


def test_exit_3_on_counterexample_checkpoint_from_2_pow_53(tmp_path, capsys):
    cfg = {"kind": "counterexample", "checkpoints": [8, 2**53], "window": 4}
    out_path = tmp_path / "r.csv"
    rc = main(["counterexample", "--config", _write(tmp_path, cfg), "--out", str(out_path)])
    assert rc == 3
    assert "2^53" in capsys.readouterr().err
    assert not out_path.exists()


def test_continuous_runs_at_horizons_up_to_1e9(tmp_path, capsys):
    # CLI generators are synthesized, so their means read eigenbasis records and form no
    # exponential for expm's norm cap to refuse; this config exited 4 from t = 1e5 while
    # every generator's ||t B||_1 was checked.  The distance to the limit falls as 1/t:
    # t x error_fro reads 1.94 at every horizon
    cfg = _continuous_config(horizons=[1.0e5, 1.0e6, 1.0e9])
    out_path = tmp_path / "r.csv"
    rc = main(["continuous", "--config", _write(tmp_path, cfg), "--out", str(out_path)])
    assert rc == 0
    capsys.readouterr()
    with open(out_path, newline="") as fh:
        scaled = [float(r["checkpoint"]) * float(r["error_fro"]) for r in csv.DictReader(fh)]
    assert len(scaled) == 3 and max(scaled) <= 1.01 * min(scaled) and max(scaled) < 2.0


def test_exit_4_on_a_non_finite_result_with_nothing_on_stdout(tmp_path, capsys):
    # entries ~ 1e308 / sqrt(3): the chain's norms overflow to inf, which strict
    # JSON cannot print; the run fails naming the checkpoint, and writes nothing
    cfg = _converge_config(connectors=[{"type": "gaussian", "seed": 2, "scale": 1e308}],
                           schedule=[4, 16])
    out_path = tmp_path / "r.csv"
    with np.errstate(over="ignore"):
        rc = main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert rc == 4
    assert "numerical failure: non-finite value at checkpoint 4.error_fro" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("top", [2_000_000, 10**18])
def test_exit_2_on_an_alpha_with_a_huge_block_id(tmp_path, capsys, top):
    cfg = _converge_config(alpha=[1, top])
    rc = main(["converge", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"$.alpha: alpha skips {top - 2} of blocks 1..{top}, first [2, 3, 4]" in err
    assert len(err) < 200


def test_exit_3_on_auto_grid_beyond_the_float_range(tmp_path, capsys):
    # per_period * t * f_max overflows to inf: refused like any oversized grid
    cfg_path = _write(tmp_path, _continuous_config(horizons=[1e307]))
    rc = main(["continuous", "--config", cfg_path, "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "budget refused" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


# ------------------------------------------------------------ run_experiment


def test_run_experiment_summary_envelope():
    cfg = parse_config(json.dumps(_converge_config(schedule=[8])))
    records, summary = run_experiment(cfg)
    assert summary["kind"] == "converge"
    assert summary["config_hash"] == cfg.config_hash
    assert summary["records"] == len(records) == 1
    assert set(records[0]) == set(CSV_HEADER)


# ------------------------------------------------------- malformed values


def _set_basis_seed(c):
    c["operators"][0]["basis"]["seed"] = "x"


@pytest.mark.parametrize(
    "make, mutate, path",
    [
        (_continuous_config, lambda c: c["generators"][0].update(frequencies=[[1, 0]]),
         "$.generators[0].frequencies[0]"),
        (_continuous_config, lambda c: c["generators"][0].update(frequencies=[[1.5, 2]]),
         "$.generators[0].frequencies[0]"),
        (_converge_config, lambda c: c["operators"][0].update(angles=[[1.5, 2]]),
         "$.operators[0].angles[0]"),
        (_converge_config, lambda c: c.update(seed="abc"), "$.seed"),
        (_converge_config, lambda c: c.update(seed=1.5), "$.seed"),
        (_converge_config, lambda c: c.update(tolerance="abc"), "$.tolerance"),
        (_converge_config, lambda c: c.update(tolerance=float("nan")), "$.tolerance"),
        (_converge_config, lambda c: c.update(tolerance=float("inf")), "$.tolerance"),
        (_converge_config, _set_basis_seed, "$.operators[0].basis.seed"),
        (_converge_config, lambda c: c.update(budget="abc"), "$.budget"),
        (_converge_config, lambda c: c.update(budget=float("nan")), "$.budget"),
        (_converge_config, lambda c: c.update(budget=float("inf")), "$.budget"),
        (_converge_config, lambda c: c.update(budget=float("-inf")), "$.budget"),
        (_converge_config, lambda c: c.update(connectors=[{"type": "haar", "seed": "x"}]),
         "$.connectors[0].seed"),
        (_converge_config,
         lambda c: c.update(connectors=[{"type": "gaussian", "scale": "big"}]),
         "$.connectors[0].scale"),
        (_converge_config, lambda c: c.update(state_seed="x"), "$.state_seed"),
        (_converge_config,
         lambda c: c.update(connectors=[{"type": "haar", "seed": 2, "bogus": 1}]),
         "$.connectors[0]"),
        (_converge_config,
         lambda c: c.update(connectors=[{"type": "gaussian", "seed": 2, "bogus": 1}]),
         "$.connectors[0]"),
        (_continuous_config, lambda c: c.update(richardson="no"), "$.richardson"),
        (_continuous_config, lambda c: c.update(strategy="naive"), "$.strategy"),
        pytest.param(_converge_config, lambda c: c.update(strategy="naive"), "$.strategy",
                     id="_converge_config-naive-$.strategy"),
        (_converge_config, lambda c: c.update(threads=2), "unknown fields ['threads']"),
        (_converge_config, lambda c: c.update(strategy="cached"), "$.strategy"),
        (_converge_config, lambda c: c["operators"][1].update(stable=[{"re": 0.1, "phase": 2.0}]),
         "$.operators[1].stable[0]"),
        (_converge_config, lambda c: c.update(connectors=[{"type": []}]), "$.connectors[0]"),
        (_converge_config, lambda c: c.update(tolerance=10**400), "$.tolerance"),
        (_continuous_config, lambda c: c.update(horizons=[10**400]), "$.horizons[0]"),
        (_converge_config, lambda c: c["operators"][0].update(stable=[[10**400, 0.0]]),
         "$.operators[0].stable[0][0]"),
        (_continuous_config, lambda c: c.update(quadrature={"scheme": "midpoint", "pionts": 3}),
         "$.quadrature"),
        (lambda: {"kind": "counterexample", "checkpoints": [4]}, lambda c: c.update(window=256),
         "$.window"),
        (lambda: {"kind": "counterexample", "checkpoints": [4]},
         lambda c: c.update(window=1000000), "$.window"),
        (_converge_config, lambda c: c["operators"][0]["basis"].update(condition_cap=10.0),
         "$.operators[0].basis"),
    ],
)
def test_main_malformed_value_exits_2_with_its_path(tmp_path, capsys, make, mutate, path):
    cfg = make()
    mutate(cfg)
    kind = cfg["kind"]
    rc = main([kind, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert path in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_main_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads refuses an integer literal this long on interpreters that cap
    # int-string conversion, and _real refuses it as a float on the others
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_converge_config(tolerance=0)).replace(
        '"tolerance": 0', '"tolerance": 1' + "0" * 5000))
    rc = main(["converge", "--config", str(p), "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    argv = ["converge", "--config", _write(tmp_path, _converge_config(schedule=[8])),
            "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(argparse, "ArgumentParser", Counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def test_main_rejects_non_finite_budget_flag(tmp_path, capsys):
    cfg_path = _write(tmp_path, _converge_config())
    rc = main(["converge", "--config", cfg_path, "--budget", "nan",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "--budget" in capsys.readouterr().err


def test_main_gauss_legendre_node_matrix_refused_before_allocation(
    tmp_path, capsys, monkeypatch
):
    # t=2000 with 'auto' points asks for Q=20000 (past the 2^14-node cap),
    # and Richardson doubles it; the cost budget alone would let it run
    def never(q):
        raise AssertionError(f"_gauss_legendre({q}) called")

    monkeypatch.setattr(continuous, "_gauss_legendre", never)
    cfg = _continuous_config(
        horizons=[2000.0], quadrature={"scheme": "gauss-legendre", "points": "auto"}
    )
    rc = main(["continuous", "--config", _write(tmp_path, cfg),
               "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Gauss-Legendre" in err
