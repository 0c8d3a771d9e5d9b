"""Command-line driver: JSON experiment configs in, CSV/JSON records out.

Subcommands map onto the library surface: converge (averages vs limit on a
checkpoint schedule), limit (assemble the limit operator), resonances
(enumerate resonant tuples), counterexample (exact divergence means on the
shift lattice), stacking-test (direct vs block-companion evaluation),
continuous (semigroup averages vs the continuous limit).

Every run hashes the normalized fields of its config that change results
(FNV-1a 64) and stamps the hash into each record, so result files are
traceable to the exact configuration that produced them; where the records
go (out, format) is not hashed.  A one-object JSON summary goes to stdout;
records go to --out in the chosen --format.

Exit codes: 0 success, 2 config validation, 3 budget refusal, 4 numerical
failure, 1 anything else (IO, unexpected).
"""

from __future__ import annotations

import argparse
import csv
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

KINDS = (
    "converge",
    "limit",
    "resonances",
    "counterexample",
    "stacking-test",
    "continuous",
)
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
    kind: str
    seed: int
    strategy: str
    tolerance: float
    budget: float | None
    out: str | None
    format: str
    data: dict
    config_hash: str


def _fail(path: str, msg: str):
    raise ValidationError(f"{path}: {msg}")


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        _fail(path, msg)


def _int(raw, path: str) -> int:
    _expect(
        isinstance(raw, int) and not isinstance(raw, bool),
        path,
        f"must be an integer, got {raw!r}",
    )
    return raw


def _number(raw, path: str) -> float:
    _expect(
        isinstance(raw, (int, float)) and not isinstance(raw, bool)
        and math.isfinite(raw),
        path,
        f"must be a finite number, got {raw!r}",
    )
    return float(raw)


def _positive_ints(raw, key: str) -> list[int]:
    """Nonempty list of positive integers at $.key, sorted and deduplicated."""
    values = raw.get(key)
    _expect(isinstance(values, list) and values, f"$.{key}", "must be a nonempty list")
    for i, n in enumerate(values):
        _expect(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1,
            f"$.{key}[{i}]",
            f"checkpoints are positive integers, got {n!r}",
        )
    return sorted(set(values))


def _norm_exact(raw, path: str, clock) -> str:
    """Canonical 'p/q' of an angle or frequency; warns when reduce moved the value."""
    try:
        literal = clock.literal(tuple(raw) if isinstance(raw, list) else raw)
    except clock.exact_error as exc:
        _fail(path, str(exc))
    fr = clock.reduce(literal)
    canon = f"{fr.numerator}/{fr.denominator}"
    # warn only when the mod-1 wrap moved the value, not on respellings
    if literal != fr:
        warnings.warn(
            f"{path}: {clock.exact_noun} {raw!r} normalized to {canon!r}", stacklevel=2
        )
    return canon


def _norm_complex(raw, path: str) -> list[float]:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return [_number(raw, path), 0.0]
    if isinstance(raw, list) and len(raw) == 2:
        return [_number(raw[0], f"{path}[0]"), _number(raw[1], f"{path}[1]")]
    if isinstance(raw, dict) and set(raw) <= {"re", "im"}:
        return [
            _number(raw.get("re", 0.0), f"{path}.re"),
            _number(raw.get("im", 0.0), f"{path}.im"),
        ]
    _fail(path, f"expected a number, [re, im] pair or {{re, im}}, got {raw!r}")


def _norm_basis(raw, path: str) -> dict:
    if raw is None:
        return {"type": "orthonormal", "seed": 0}
    _expect(isinstance(raw, dict), path, "basis must be an object")
    btype = raw.get("type", "orthonormal")
    _expect(
        btype in ("orthonormal", "similarity"),
        path,
        f"basis type must be 'orthonormal' or 'similarity', got {btype!r}",
    )
    out = {"type": btype, "seed": _int(raw.get("seed", 0), f"{path}.seed")}
    if btype == "similarity":
        out["condition_cap"] = _number(
            raw.get("condition_cap", 50.0), f"{path}.condition_cap"
        )
        _expect(out["condition_cap"] >= 1.0, path, "condition_cap must be >= 1")
    extra = set(raw) - {"type", "seed", "condition_cap"}
    _expect(not extra, path, f"unknown basis fields {sorted(extra)}")
    return out


def _system_spec(kind: str):
    """(members key, exact-values key, clock, synthesize, assemble) of a system kind."""
    if kind == "continuous":
        return (
            "generators", "frequencies", cont.CONTINUOUS,
            cont.synth_semigroup, cont.make_continuous_system,
        )
    return (
        "operators", "angles", operators.DISCRETE,
        operators.synth_operator, entangle.make_system,
    )


def _norm_operator(raw, path: str, keyword: str, clock) -> dict:
    _expect(isinstance(raw, dict), path, "operator spec must be an object")
    known = {keyword, "stable", "basis"}
    extra = set(raw) - known
    _expect(not extra, path, f"unknown fields {sorted(extra)}; expected {sorted(known)}")
    exacts = raw.get(keyword, [])
    _expect(isinstance(exacts, list), f"{path}.{keyword}", "must be a list")
    norm_exact = [
        _norm_exact(a, f"{path}.{keyword}[{i}]", clock) for i, a in enumerate(exacts)
    ]
    stable = raw.get("stable", [])
    _expect(isinstance(stable, list), f"{path}.stable", "must be a list")
    norm_stable = [
        _norm_complex(s, f"{path}.stable[{i}]") for i, s in enumerate(stable)
    ]
    _expect(
        len(norm_exact) + len(norm_stable) > 0, path, "needs at least one eigenvalue"
    )
    return {
        keyword: norm_exact,
        "stable": norm_stable,
        "basis": _norm_basis(raw.get("basis"), f"{path}.basis"),
    }


def _norm_connector(raw, path: str) -> dict:
    if raw is None:
        return {"type": "identity"}
    _expect(isinstance(raw, dict), path, "connector must be an object")
    ctype = raw.get("type", "identity")
    if ctype == "identity":
        _expect(set(raw) <= {"type"}, path, "identity takes no other fields")
        return {"type": "identity"}
    fields = {"haar": {"type", "seed"}, "gaussian": {"type", "seed", "scale"}}
    _expect(ctype in fields, path, f"unknown connector type {ctype!r}")
    extra = set(raw) - fields[ctype]
    _expect(not extra, path, f"unknown {ctype} fields {sorted(extra)}")
    out = {"type": ctype, "seed": _int(raw.get("seed", 0), f"{path}.seed")}
    if ctype == "gaussian":
        out["scale"] = _number(raw.get("scale", 1.0), f"{path}.scale")
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse, validate and normalize a JSON experiment configuration.

    Angles and frequencies are reduced to canonical 'p/q' strings before the
    config is hashed, so equivalent spellings ('2/4' vs '1/2') and key order
    produce the same FNV-1a hash.  The hash covers the fields that change
    results; out and format are left out of it.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    _expect(isinstance(raw, dict), "$", "top level must be a JSON object")
    kind = raw.get("kind")
    _expect(kind in KINDS, "$.kind", f"must be one of {list(KINDS)}, got {kind!r}")

    data: dict = {"kind": kind}
    data["seed"] = _int(raw.get("seed", 0), "$.seed")
    strategy = raw.get("strategy", "presum")
    _expect(
        strategy in entangle.STRATEGIES,
        "$.strategy",
        f"must be {'|'.join(entangle.STRATEGIES)}, got {strategy!r}",
    )
    data["strategy"] = strategy
    data["tolerance"] = _number(raw.get("tolerance", 1e-8), "$.tolerance")
    _expect(data["tolerance"] > 0, "$.tolerance", "must be positive")
    budget = raw.get("budget", 1e8)
    data["budget"] = None if budget is None else _number(budget, "$.budget")
    fmt = raw.get("format", "csv")
    _expect(fmt in ("csv", "json"), "$.format", f"must be csv|json, got {fmt!r}")
    out = raw.get("out")
    _expect(out is None or isinstance(out, str), "$.out", "must be a string path")

    needs_system = kind in ("converge", "limit", "resonances", "stacking-test")
    if needs_system or kind == "continuous":
        alpha = raw.get("alpha")
        _expect(isinstance(alpha, list) and alpha, "$.alpha", "must be a nonempty list")
        try:
            part = entangle.make_partition(alpha)
        except (NotSurjectiveError, EmptyAlphaError) as exc:
            _fail("$.alpha", str(exc))
        data["alpha"] = [int(v) for v in alpha]
        key, keyword, clock, _, _ = _system_spec(kind)
        ops = raw.get(key)
        _expect(isinstance(ops, list), f"$.{key}", "must be a list")
        _expect(
            len(ops) == part.m,
            f"$.{key}",
            f"alpha has m={part.m} positions, got {len(ops)} entries",
        )
        data[key] = [
            _norm_operator(o, f"$.{key}[{i}]", keyword, clock)
            for i, o in enumerate(ops)
        ]
        conns = raw.get("connectors")
        if conns is not None:
            _expect(isinstance(conns, list), "$.connectors", "must be a list")
            _expect(
                len(conns) == part.m - 1,
                "$.connectors",
                f"need m-1={part.m - 1} connectors, got {len(conns)}",
            )
            data["connectors"] = [
                _norm_connector(c, f"$.connectors[{i}]") for i, c in enumerate(conns)
            ]
        if "state_seed" in raw and raw["state_seed"] is not None:
            data["state_seed"] = _int(raw["state_seed"], "$.state_seed")

    if kind in ("converge", "stacking-test"):
        data["schedule"] = _positive_ints(raw, "schedule")

    if kind == "counterexample":
        data["checkpoints"] = _positive_ints(raw, "checkpoints")
        window = raw.get("window", 64)
        _expect(
            isinstance(window, int) and not isinstance(window, bool) and window >= 0,
            "$.window",
            f"must be a nonnegative integer, got {window!r}",
        )
        data["window"] = window

    if kind == "continuous":
        horizons = raw.get("horizons")
        _expect(
            isinstance(horizons, list) and horizons,
            "$.horizons",
            "must be a nonempty list of times",
        )
        hs = []
        for i, t in enumerate(horizons):
            hs.append(_number(t, f"$.horizons[{i}]"))
            _expect(hs[-1] > 0, f"$.horizons[{i}]", f"horizons are positive, got {t!r}")
        data["horizons"] = sorted(set(hs))
        quad = raw.get("quadrature", {})
        _expect(isinstance(quad, dict), "$.quadrature", "must be an object")
        scheme = quad.get("scheme", "midpoint")
        _expect(
            scheme in ("midpoint", "gauss-legendre"),
            "$.quadrature.scheme",
            f"must be midpoint|gauss-legendre, got {scheme!r}",
        )
        points = quad.get("points", "auto")
        if points != "auto":
            _expect(
                isinstance(points, int) and not isinstance(points, bool) and points >= 2,
                "$.quadrature.points",
                f"must be 'auto' or an integer >= 2, got {points!r}",
            )
        data["quadrature"] = {"scheme": scheme, "points": points}
        richardson = raw.get("richardson", True)
        _expect(
            isinstance(richardson, bool),
            "$.richardson",
            f"must be true or false, got {richardson!r}",
        )
        data["richardson"] = richardson

    known_top = {
        "kind", "seed", "strategy", "tolerance", "budget", "format",
        "out", "alpha", "operators", "generators", "connectors", "state_seed",
        "schedule", "checkpoints", "window", "horizons", "quadrature", "richardson",
    }
    extra = set(raw) - known_top
    _expect(not extra, "$", f"unknown fields {sorted(extra)}")

    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return ExperimentConfig(
        kind=kind,
        seed=data["seed"],
        strategy=data["strategy"],
        tolerance=data["tolerance"],
        budget=data["budget"],
        out=out,
        format=fmt,
        data=data,
        config_hash=fnv1a64(canonical.encode("utf-8")),
    )


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
    """EntangledSystem, or ContinuousSystem for kind 'continuous', from cfg.data."""
    key, keyword, _, synth, make = _system_spec(cfg.kind)
    members = [
        synth(
            spec[keyword],
            [complex(re, im) for re, im in spec["stable"]],
            _build_basis(spec["basis"]),
        )
        for spec in cfg.data[key]
    ]
    conn_specs = cfg.data.get(
        "connectors", [{"type": "identity"}] * (len(members) - 1)
    )
    conns = _build_connectors(conn_specs, members[0].dim, cfg.seed)
    return make(cfg.data["alpha"], members, conns)


def _state(cfg: ExperimentConfig, d: int):
    if "state_seed" not in cfg.data:
        return None
    v = CounterRng(cfg.data["state_seed"]).complex_normal((d,))
    return v / np.linalg.norm(v)


def _record(cfg: ExperimentConfig, checkpoint, err_f, err_o, ms, strategy="") -> dict:
    """One output row; strategy is left empty where no evaluator strategy ran."""
    return {
        "checkpoint": checkpoint,
        "error_fro": float(err_f),
        "error_op": float(err_o),
        "runtime_ms": float(ms),
        "strategy": strategy,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
    }


def _norms(diff) -> tuple[float, float]:
    if diff.ndim == 1:
        n = float(np.linalg.norm(diff))
        return n, n
    return float(np.linalg.norm(diff)), linalg.spectral_norm(diff)


def _sweep(cfg: ExperimentConfig, points, diff, strategy: str = "") -> list[dict]:
    """One record per checkpoint p, timing diff(p), the result minus its reference."""
    records = []
    for p in points:
        t0 = time.perf_counter()
        err_f, err_o = _norms(diff(p))
        ms = 1e3 * (time.perf_counter() - t0)
        records.append(_record(cfg, p, err_f, err_o, ms, strategy))
    return records


def _run_converge(cfg: ExperimentConfig):
    system = _build_system(cfg)
    x = _state(cfg, system.dim)
    limit = spectral_limit.limit_operator(system, cfg.tolerance)
    reference = limit if x is None else limit @ x

    def diff(n: int):
        avg = entangle.entangled_average(
            system, n, strategy=cfg.strategy, x=x, budget=cfg.budget
        )
        return avg - reference

    records = _sweep(cfg, cfg.data["schedule"], diff, cfg.strategy)
    summary = {
        "verifies": "mean ergodic convergence of entangled Cesaro averages",
        "limit_frobenius_norm": float(np.linalg.norm(limit)),
    }
    return records, summary


def _serialize_tuples(tuples):
    out = []
    for tup in tuples:
        entry_list = []
        for e, fr in zip(tup.entries, tup.exact):
            if fr is not None:
                entry_list.append({"angle": f"{fr.numerator}/{fr.denominator}"})
            elif isinstance(e, complex):
                entry_list.append({"value": [e.real, e.imag]})
            else:
                entry_list.append({"value": float(e)})
        out.append(
            {
                "entries": entry_list,
                "residuals": [float(r) for r in tup.residuals],
                "fragile": tup.fragile,
            }
        )
    return out


def _run_limit(cfg: ExperimentConfig):
    system = _build_system(cfg)
    t0 = time.perf_counter()
    limit, tuples = spectral_limit.limit_operator_with_tuples(system, cfg.tolerance)
    ms = 1e3 * (time.perf_counter() - t0)
    worst = max((max(t.residuals) for t in tuples), default=0.0)
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
    tuples = spectral_limit.resonant_tuples(
        system.operators, system.partition, cfg.tolerance
    )
    ms = 1e3 * (time.perf_counter() - t0)
    # one enumeration yields every row, so each row carries an equal share
    records = [
        _record(cfg, i + 1, max(t.residuals), max(t.residuals), ms / len(tuples))
        for i, t in enumerate(tuples)
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
        kw = dict(strategy=cfg.strategy, x=x, budget=cfg.budget)
        return entangle.entangled_average(system, n, **kw) - entangle.stacked_average(st, n, **kw)

    records = _sweep(cfg, cfg.data["schedule"], diff, cfg.strategy)
    summary = {"verifies": "block companion dilation identity"}
    return records, summary


def _run_continuous(cfg: ExperimentConfig):
    system = _build_system(cfg)
    x = _state(cfg, system.dim)
    limit = cont.continuous_limit_operator(system, cfg.tolerance)
    reference = limit if x is None else limit @ x
    quad_cfg = cfg.data["quadrature"]
    estimates = {}

    def diff(t: float):
        points = quad_cfg["points"]
        if points == "auto":
            points = cont.suggest_points(system, t)
        avg = cont.continuous_entangled_average(
            system, t, cont.QuadratureSpec(quad_cfg["scheme"], points), x=x,
            budget=cfg.budget, richardson=cfg.data["richardson"],
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


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_results(records, fmt: str, path: str):
    """Write records to path: RFC-4180 CSV with the fixed header, or a JSON array."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow([_format_cell(rec[k]) for k in CSV_HEADER])
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="entangled ergodic average laboratory",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="records file (default entlab-<kind>.<format>)")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--budget", default=None, type=float, help="cost budget override")
    args = parser.parse_args(argv)

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
            _number(args.budget, "--budget")  # argparse gave a float; refuse nan and inf
        cfg = replace(cfg, **{k: getattr(args, k) for k in ("budget", "format", "out")
                              if getattr(args, k) is not None})
        records, summary = run_experiment(cfg)
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
