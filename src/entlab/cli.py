"""Command-line driver: JSON experiment configs in, CSV/JSON records out.

Subcommands map onto the library surface: converge (averages vs limit on a
checkpoint schedule), limit (assemble the limit operator), resonances
(enumerate resonant tuples), counterexample (exact divergence means on the
shift lattice), stacking-test (direct vs block-companion evaluation),
continuous (semigroup averages vs the continuous limit).

Each kind accepts exactly the fields its runner reads, and every run stamps
into each record a hash (FNV-1a 64) of the normalized ones that change
results, so result files are traceable to the exact configuration that made
them; out, format and budget (which admits or refuses a run) are not hashed.
A one-object JSON summary goes to stdout; records go to --out in --format.

Exit codes: 0 success, 2 config validation, 3 budget refusal, 4 numerical
failure, 1 anything else (IO, unexpected).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import continuous as cont
from . import entangle, linalg, operators, shiftlab, spectral_limit
from .errors import (
    BadAngleError,
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    EmptyAlphaError,
    EmptySequenceError,
    EntlabError,
    NotSurjectiveError,
    ParseError,
    ValidationError,
)
from .rng import CounterRng

CSV_HEADER = (
    "checkpoint",
    "error_fro",
    "error_op",
    "runtime_ms",
    "strategy",
    "seed",
    "config_hash",
)


def fnv1a64(data: bytes) -> str:
    """FNV-1a 64-bit hash, as 16 hex digits."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: data holds the hashed fields, kind included; budget (None where no
    mean runs), out and format, which change no result, are kept beside it."""

    data: dict
    budget: float | None
    out: str | None
    format: str
    config_hash: str

    kind = property(lambda self: self.data["kind"])


def _fail(path: str, msg: str):
    raise ValidationError(f"{path}: {msg}")


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        _fail(path, msg)


# Readers: (value, path) -> normalized value, refusing a bad value with its JSON path.


def _check(test, says: str, read=None):
    """A reader refusing a value that fails test, once read (if given) has normalized it."""
    def checked(raw, path: str):
        value = raw if read is None else read(raw, path)
        _expect(test(value), path, f"{says}, got {raw!r}")
        return value
    return checked


def _integer(low=None, high=None, says: str = "must be an integer"):
    return _check(lambda n: isinstance(n, int) and not isinstance(n, bool)
                  and (low is None or n >= low) and (high is None or n <= high), says)


def _one_of(*choices):
    return _check(lambda v: v in choices, f"must be {'|'.join(choices)}")


_bool = _check(lambda v: isinstance(v, bool), "must be true or false")


def _real(raw, path: str) -> float:
    try:  # math.isfinite refuses non-numbers and integers past the float range
        finite = not isinstance(raw, bool) and math.isfinite(raw)
    except (TypeError, OverflowError):
        finite = False
    _expect(finite, path, f"must be a finite number, got {raw!r}")
    return float(raw)


def _complex(raw, path: str) -> list[float]:
    """A number, an [re, im] pair or an {re, im} object, as [re, im]."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return [_real(raw, path), 0.0]
    if isinstance(raw, list) and len(raw) == 2:
        return [_real(raw[0], f"{path}[0]"), _real(raw[1], f"{path}[1]")]
    if isinstance(raw, dict) and set(raw) <= {"re", "im"}:
        return [_real(raw.get("re", 0.0), f"{path}.re"), _real(raw.get("im", 0.0), f"{path}.im")]
    _fail(path, f"expected a number, [re, im] pair or {{re, im}}, got {raw!r}")


def _either(literal, read):
    """The literal itself, or what read makes of any other value."""
    return lambda raw, path: raw if raw == literal else read(raw, path)


def _list(read, as_set: bool = False):
    """A list of read entries; as_set: a nonempty list, sorted and deduplicated."""
    def read_list(raw, path: str) -> list:
        _expect(isinstance(raw, list) and (raw or not as_set), path,
                f"must be a {'nonempty ' * as_set}list")
        values = [read(v, f"{path}[{i}]") for i, v in enumerate(raw)]
        return sorted(set(values)) if as_set else values
    return read_list


def _exact(clock):
    """Canonical 'p/q' of an angle or frequency; warns when reduce moved the value."""
    def read(raw, path: str) -> str:
        try:
            literal = clock.literal(tuple(raw) if isinstance(raw, list) else raw)
        except clock.exact_error as exc:
            _fail(path, str(exc))
        fr = clock.reduce(literal)
        canon = f"{fr.numerator}/{fr.denominator}"
        # warn only when the mod-1 wrap moved the value, not on respellings
        if literal != fr:
            warnings.warn(f"{path}: {clock.exact_noun} {raw!r} normalized to {canon!r}",
                          stacklevel=2)
        return canon
    return read


def _alpha(raw, path: str) -> list[int]:
    _expect(isinstance(raw, list) and raw, path, "must be a nonempty list")
    try:
        entangle.make_partition(raw)
    except (NotSurjectiveError, EmptyAlphaError) as exc:
        _fail(path, str(exc))
    return [int(v) for v in raw]


# A field table maps each field of an object to (default, reader).  A field
# whose default is _OPTIONAL is left out when it is absent or null.
_OPTIONAL = object()


def _fields(raw: dict, table: dict, path: str, of: str = "") -> dict:
    extra = set(raw) - set(table)
    _expect(not extra, path, f"unknown fields {sorted(extra)}{of}")
    return {name: read(raw.get(name, default), f"{path}.{name}")
            for name, (default, read) in table.items()
            if not (default is _OPTIONAL and raw.get(name) is None)}


def _object(table: dict):
    def read(raw, path: str) -> dict:
        _expect(isinstance(raw, dict), path, "must be an object")
        return _fields(raw, table, path)
    return read


def _typed(key: str, tables: dict, noun: str, default=None):
    """An object whose key field picks the table of its other fields; null reads as {}."""
    def read(raw, path: str) -> dict:
        raw = {} if raw is None else raw
        _expect(isinstance(raw, dict), path, "must be an object")
        choice = raw.get(key, default)
        _expect(isinstance(choice, str) and choice in tables, f"{path}.{key}",
                f"{noun} {key} must be one of {list(tables)}, got {choice!r}")
        rest = {k: v for k, v in raw.items() if k != key}
        return {key: choice, **_fields(rest, tables[choice], path, f" for {key} {choice!r}")}
    return read


_BASIS = _typed("type", {
    "orthonormal": {"seed": (0, _integer())},
    "similarity": {"seed": (0, _integer()),
                   "condition_cap": (50.0, _check(lambda c: c >= 1, "must be >= 1", _real))},
}, "basis", default="orthonormal")
_CONNECTOR = _typed("type", {
    "identity": {},
    "haar": {"seed": (0, _integer())},
    "gaussian": {"seed": (0, _integer()), "scale": (1.0, _real)},
}, "connector", default="identity")


def _system_spec(kind: str):
    """(members key, exact-values key, clock) of a system kind."""
    if kind == "continuous":
        return "generators", "frequencies", cont.CONTINUOUS
    return "operators", "angles", operators.DISCRETE


def _system(kind: str) -> dict:
    """The fields of a kind's system: alpha, its members, the connectors between them and the
    seed that the connectors' seeds are XORed with."""
    key, keyword, clock = _system_spec(kind)
    member = _object({keyword: ([], _list(_exact(clock))), "stable": ([], _list(_complex)),
                      "basis": (None, _BASIS)})
    return {
        "seed": (0, _integer()),
        "alpha": (None, _alpha),
        key: (None, _list(_check(lambda spec: spec[keyword] or spec["stable"],
                                 "needs at least one eigenvalue", member))),
        "connectors": (_OPTIONAL, _list(_CONNECTOR)),
    }


_UNHASHED = ("budget", "format", "out")  # they change no result: out of data and the hash
_OUTPUT = {
    "format": ("csv", _one_of("csv", "json")),
    "out": (None, _either(None, _check(lambda v: isinstance(v, str), "must be a string path"))),
}
_MEAN = {  # what a finite mean runs with
    "strategy": ("spectral", _one_of(*entangle.STRATEGIES)),
    "budget": (1e8, _either(None, _real)),
    "state_seed": (_OPTIONAL, _integer()),
}
_DISCRETE = _system("converge")
_DEPTHS = _list(_integer(1, says="depths are positive integers"), as_set=True)
_WINDOW_CAP = (linalg.DIM_CAP - 1) // 2  # the widest finite section, 2w+1 <= DIM_CAP
_TABLES = {
    "converge": {**_OUTPUT, **_DISCRETE, **_MEAN, "schedule": (None, _DEPTHS)},
    "limit": {**_OUTPUT, **_DISCRETE},
    "resonances": {**_OUTPUT, **_DISCRETE},
    "counterexample": {
        **_OUTPUT,
        "checkpoints": (None, _list(_integer(1, says="checkpoints are positive integers"),
                                    as_set=True)),
        "window": (64, _integer(0, _WINDOW_CAP, f"must be an integer in 0..{_WINDOW_CAP}")),
    },
    "stacking-test": {**_OUTPUT, **_DISCRETE, **_MEAN, "schedule": (None, _DEPTHS)},
    "continuous": {
        **_OUTPUT,
        **_system("continuous"),
        **_MEAN,
        "horizons": (None, _list(_check(lambda t: t > 0, "horizons are positive", _real),
                                 as_set=True)),
        "quadrature": ({}, _object({
            "scheme": ("midpoint", _one_of("midpoint", "gauss-legendre")),
            "points": ("auto", _either("auto", _integer(
                2, says="must be 'auto' or an integer >= 2"))),
        })),
        "richardson": (True, _bool),
    },
}
_CONFIG = _typed("kind", _TABLES, "config")
KINDS = tuple(_TABLES)
FIELDS = {kind: {"kind", *table} for kind, table in _TABLES.items()}  # what each kind reads


def parse_config(text: str) -> ExperimentConfig:
    """Parse, validate and normalize a JSON experiment configuration.

    The kind's field table (_TABLES) reads every field, and refuses any
    field its runner does not read.  Angles and frequencies are reduced to
    canonical 'p/q' strings before the config is hashed, so equivalent
    spellings ('2/4' vs '1/2') and key order produce the same FNV-1a hash.
    The hash covers the fields that change results, which data holds; out,
    format and budget are taken out of it.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    data = _CONFIG(raw, "$")
    budget, fmt, out = (data.pop(key, None) for key in _UNHASHED)
    if "alpha" in data:  # a system: alpha's m positions size its members and connectors
        m = len(data["alpha"])
        for key, want in ((_system_spec(data["kind"])[0], m), ("connectors", m - 1)):
            got = len(data.get(key, [None] * want))
            _expect(got == want, f"$.{key}",
                    f"needs {want} entries for alpha's m={m} positions, got {got}")
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return ExperimentConfig(data, budget, out, fmt, fnv1a64(canonical.encode("utf-8")))


def _build_basis(spec: dict):
    if spec["type"] == "orthonormal":
        return operators.OrthonormalBasis(spec["seed"])
    return operators.RandomSimilarity(spec["seed"], spec["condition_cap"])


def _build_connectors(specs, d: int, seed: int):
    out = []
    for i, spec in enumerate(specs):
        if spec["type"] == "identity":
            out.append(np.eye(d, dtype=np.complex128))
        elif spec["type"] == "haar":
            out.append(linalg.haar_unitary(d, spec["seed"] ^ seed))
        else:  # gaussian, entries ~ scale/sqrt(d) times standard complex normal
            rng = CounterRng(spec["seed"] ^ seed)
            out.append(rng.complex_normal((d, d)) * (spec["scale"] / np.sqrt(d)))
    return out


def _build_system(cfg: ExperimentConfig):
    """The system of cfg.data, built by the public constructors of its clock."""
    key, keyword, clock = _system_spec(cfg.kind)
    continuous = clock is cont.CONTINUOUS
    synth = cont.synth_semigroup if continuous else operators.synth_operator
    members = [
        synth(spec[keyword], [complex(re, im) for re, im in spec["stable"]],
              _build_basis(spec["basis"]))
        for spec in cfg.data[key]
    ]
    conn_specs = cfg.data.get(
        "connectors", [{"type": "identity"}] * (len(members) - 1)
    )
    conns = _build_connectors(conn_specs, members[0].dim, cfg.data["seed"])
    make = cont.make_continuous_system if continuous else entangle.make_system
    return make(cfg.data["alpha"], members, conns)


def _state(cfg: ExperimentConfig, d: int):
    if "state_seed" not in cfg.data:
        return None
    v = CounterRng(cfg.data["state_seed"]).complex_normal((d,))
    return v / np.linalg.norm(v)


def _record(cfg: ExperimentConfig, checkpoint, err_f, err_o, ms, strategy="") -> dict:
    """One output row; strategy is left empty where no evaluator strategy ran, and seed is None
    (an empty CSV cell, JSON null) where the kind has none."""
    return {
        "checkpoint": checkpoint,
        "error_fro": float(err_f),
        "error_op": float(err_o),
        "runtime_ms": float(ms),
        "strategy": strategy,
        "seed": cfg.data.get("seed"),
        "config_hash": cfg.config_hash,
    }


def _norms(diff) -> tuple[float, float]:
    if diff.ndim == 1:
        n = float(np.linalg.norm(diff))
        return n, n
    return float(np.linalg.norm(diff)), linalg.spectral_norm(diff)


def _sweep(cfg: ExperimentConfig, points, diff) -> list[dict]:
    """One record per checkpoint p, timing diff(p), the mean minus its reference."""
    records = []
    for p in points:
        t0 = time.perf_counter()
        err_f, err_o = _norms(diff(p))
        ms = 1e3 * (time.perf_counter() - t0)
        records.append(_record(cfg, p, err_f, err_o, ms, cfg.data["strategy"]))
    return records


def _run_converge(cfg: ExperimentConfig):
    system = _build_system(cfg)
    x = _state(cfg, system.dim)
    limit = spectral_limit.limit_operator(system)
    reference = limit if x is None else limit @ x

    def diff(n: int):
        avg = entangle.entangled_average(
            system, n, strategy=cfg.data["strategy"], x=x, budget=cfg.budget
        )
        return avg - reference

    records = _sweep(cfg, cfg.data["schedule"], diff)
    summary = {
        "verifies": "mean ergodic convergence of entangled Cesaro averages",
        "limit_frobenius_norm": float(np.linalg.norm(limit)),
    }
    return records, summary


def _serialize_tuples(tuples):
    """ResonantTuples as JSON, read off their arrays; CLI systems are synthesized, so every
    entry is an exact angle."""
    angles = [[f"{fr.numerator}/{fr.denominator}" for _, fr in cands]
              for cands in tuples.candidates]
    entries = zip(*([names[i] for i in col.tolist()]
                    for names, col in zip(angles, tuples.columns)))
    residuals = zip(*(r.tolist() for r in tuples.residuals))
    return [
        {"entries": [{"angle": a} for a in row], "residuals": list(res), "fragile": fragile}
        for row, res, fragile in zip(entries, residuals, tuples.fragile.tolist())
    ]


def _worst_residuals(tuples) -> list[float]:
    """Each resonant tuple's largest block residual."""
    return np.max(tuples.residuals, axis=0).tolist()


def _run_limit(cfg: ExperimentConfig):
    system = _build_system(cfg)
    t0 = time.perf_counter()
    limit, tuples = spectral_limit.limit_operator_with_tuples(system)
    ms = 1e3 * (time.perf_counter() - t0)
    worst = max(_worst_residuals(tuples), default=0.0)
    records = [_record(cfg, len(tuples), worst, worst, ms)]
    summary = {
        "verifies": "Jacobs-Glicksberg-de Leeuw decomposition",
        "resonant_tuples": _serialize_tuples(tuples),
        "matrix": [[[z.real, z.imag] for z in row] for row in limit],
    }
    return records, summary


def _run_resonances(cfg: ExperimentConfig):
    system = _build_system(cfg)
    t0 = time.perf_counter()
    tuples = spectral_limit.resonant_tuples(system.operators, system.partition)
    ms = 1e3 * (time.perf_counter() - t0)
    # one enumeration yields every row, so each row carries an equal share
    records = [
        _record(cfg, i + 1, worst, worst, ms / len(tuples))
        for i, worst in enumerate(_worst_residuals(tuples))
    ]
    summary = {
        "verifies": "resonant unimodular spectrum enumeration",
        "count": len(tuples),
        "enumeration_ms": ms,
        "resonant_tuples": _serialize_tuples(tuples),
    }
    return records, summary


def _run_counterexample(cfg: ExperimentConfig):
    values, records = [], []
    t0 = time.perf_counter()
    # one sweep; each row is timed from the previous checkpoint
    for n, val in shiftlab.iter_divergence(cfg.data["checkpoints"]):
        t1 = time.perf_counter()
        values.append((n, val))
        records.append(_record(cfg, n, float(val), float(val), 1e3 * (t1 - t0)))
        t0 = t1
    section = shiftlab.finite_section(shiftlab.counterexample_A, cfg.data["window"])
    norm = linalg.spectral_norm(section)
    summary = {
        "verifies": "divergence of entangled Cesaro averages for a bounded weight",
        "exact_values": {
            str(n): f"{v.numerator}/{v.denominator}" for n, v in values
        },
        "window": cfg.data["window"],
        "finite_section_norm": norm,
    }
    return records, summary


def _run_stacking(cfg: ExperimentConfig):
    system = _build_system(cfg)
    st = entangle.stacked_system(system)
    x = _state(cfg, system.dim)

    def diff(n: int):
        kw = dict(strategy=cfg.data["strategy"], x=x, budget=cfg.budget)
        return entangle.entangled_average(system, n, **kw) - entangle.stacked_average(st, n, **kw)

    records = _sweep(cfg, cfg.data["schedule"], diff)
    summary = {"verifies": "block companion dilation identity"}
    return records, summary


def _run_continuous(cfg: ExperimentConfig):
    system = _build_system(cfg)
    x = _state(cfg, system.dim)
    limit = cont.continuous_limit_operator(system)
    reference = limit if x is None else limit @ x
    quad_cfg = cfg.data["quadrature"]
    estimates = {}

    def diff(t: float):
        points = quad_cfg["points"]
        if points == "auto":
            points = cont.suggest_points(system, t)
        avg = cont.continuous_entangled_average(
            system, t, cont.QuadratureSpec(quad_cfg["scheme"], points), x=x,
            budget=cfg.budget, richardson=cfg.data["richardson"], strategy=cfg.data["strategy"],
        )
        estimates[t] = {"points": avg.points, "richardson": avg.error_estimate}
        return avg.value - reference

    records = _sweep(cfg, cfg.data["horizons"], diff)
    summary = {
        "verifies": "continuous-time mean ergodic convergence",
        "limit_frobenius_norm": float(np.linalg.norm(limit)),
        "quadrature": {str(t): estimates[t] for t in sorted(estimates)},
    }
    return records, summary


_RUNNERS = {
    "converge": _run_converge,
    "limit": _run_limit,
    "resonances": _run_resonances,
    "counterexample": _run_counterexample,
    "stacking-test": _run_stacking,
    "continuous": _run_continuous,
}


def run_experiment(cfg: ExperimentConfig):
    """Dispatch to the runner for cfg.kind; returns (records, summary)."""
    records, summary = _RUNNERS[cfg.kind](cfg)
    summary = {
        "kind": cfg.kind,
        "config_hash": cfg.config_hash,
        "records": len(records),
        **summary,
    }
    return records, summary


def _require_finite(value, path: str):
    """Refuse nan or inf anywhere in value, naming where: strict JSON holds neither."""
    if isinstance(value, float) and not math.isfinite(value):
        raise FloatingPointError(f"non-finite value at {path}")
    if isinstance(value, (dict, list)):
        for key, item in (value if isinstance(value, dict) else dict(enumerate(value))).items():
            _require_finite(item, f"{path}.{key}")


def emit_results(records, fmt: str, path: str):
    """Write records to path: RFC-4180 CSV with the fixed header, or a JSON array."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow([rec[k] for k in CSV_HEADER])  # floats as repr
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once per process."""
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="entangled ergodic average laboratory",
    )
    parser.add_argument("kind", choices=KINDS, help="the experiment; must match the config's kind")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="records file (default entlab-<kind>.<format>)")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--budget", default=None, type=float,
                        help="cost budget override, for the kinds that run a mean")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
        if cfg.kind != args.kind:
            raise ValidationError(
                f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"
            )
        if args.budget is not None:
            _expect("budget" in FIELDS[cfg.kind], "--budget", f"kind {cfg.kind!r} runs no mean")
            _real(args.budget, "--budget")  # argparse gave a float; refuse nan and inf
        cfg = replace(cfg, **{k: getattr(args, k) for k in _UNHASHED
                              if getattr(args, k) is not None})
        records, summary = run_experiment(cfg)
        for rec in records:
            _require_finite(rec, f"checkpoint {rec['checkpoint']}")
        _require_finite(summary, "summary")
        out_path = cfg.out or f"entlab-{cfg.kind}.{cfg.format}"
        emit_results(records, cfg.format, out_path)
        summary["out"] = out_path
        print(json.dumps(summary, indent=2))
        return 0
    except (
        ConfigError,
        NotSurjectiveError,
        EmptyAlphaError,
        BadAngleError,
        DimensionMismatchError,
        EmptySequenceError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    except (EntlabError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
