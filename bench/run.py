"""entlab benchmark: time to a verified result, set-up time and memory per workload.

    python3 bench/run.py --workload discrete --seed 0 --seconds 30 --trace 0

One process, one caller: each item of a pass is run, waited for, and its
result kept; the pass is timed as a whole and then every result is checked
against an independent reference (closed loop, no extra threads).  Passes
repeat until ``--seconds`` have gone by and at least MIN_PASSES were made.
Set-up is timed in fresh interpreters (``setup_probe.py``).  Reported times
are scaled by a calibration kernel timed between samples (``Calibration``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones:
alternate passes run with every traced entlab function rebound to a timing
wrapper (see tracing.py), and the spans are written to ``.bench_out/``.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A missing source tree or config exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# One BLAS thread: the box is shared and the matrices are small.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
TRACED_BUILDS = 3
MIN_PASSES = 21        # ten samples beyond the tail percentile, which stays >= the median
HARD_CAP_S = 140.0     # stop passes here whatever --seconds says; runs end in 180 s
TAIL_BEYOND = 10
CAL_NOMINAL_S = 0.030  # reported seconds are scaled to a calibration kernel of this length


def metric_specs() -> tuple[dict[str, str], dict[str, str]]:
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json.

    Per-layer names read "<module>.<function>.<stat>" off the traced spans,
    apart from import.*, trace.* and the derived hit_ratio.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("discrete", "continuous", "limits"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("standard", "smoke"), default="standard")
    return p.parse_args(argv)


class Calibration:
    """A fixed kernel timed between every two timed samples (a "tick").

    The benchmark runs on shared virtual machines whose speed drifts by up to
    2x over minutes (measured with one BLAS thread and no steal time), which
    no amount of repetition inside a 30 s run averages away.  Every reported
    time is the measured wall time times CAL_NOMINAL_S over the median kernel
    time of the ticks around that sample; the raw wall times go to the run
    record.  The kernel mixes what the workloads do: small matmuls driven
    from Python, batched small matmuls, a dense eigensolve and Fraction
    arithmetic.  It uses numpy only, so a change to entlab cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(1008_2907)
        self.small = np.linalg.qr(rng.standard_normal((1500, 6, 6)))[0]  # orthogonal: no underflow
        self.batch = self.small[:256]
        self.square = rng.standard_normal((48, 48))
        self.fracs = [Fraction(int(p), int(q)) for p, q in rng.integers(1, 97, (3000, 2))]
        self.ticks: list[float] = []

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            x = np.eye(6)
            for m in self.small:
                x = m @ x
            for _ in range(40):
                self.batch @ self.batch
            for _ in range(6):
                np.linalg.eigvals(self.square)
            sum(self.fracs, Fraction(0))
        return time.perf_counter() - t0

    def tick(self) -> int:
        """Time the kernel once; returns the tick's index."""
        self.ticks.append(self.kernel_s())
        return len(self.ticks) - 1

    def factor(self, tick: int) -> float:
        """Speed around the sample that followed ``tick``: the median of ticks
        tick-2 .. tick+3 over CAL_NOMINAL_S.  Six ticks span a few seconds, so
        one noisy kernel reading does not move a sample, and a change of
        machine speed that lasts longer than that is followed."""
        return statistics.median(self.ticks[max(0, tick - 2):tick + 4]) / CAL_NOMINAL_S


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_setup_probes(args, cal: Calibration) -> list[dict]:
    """SETUP_PROBES fresh interpreters, one after another, a tick before each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = []
    for _ in range(SETUP_PROBES):
        tick = cal.tick()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append({**json.loads(proc.stdout.strip().splitlines()[-1]), "tick": tick})
    return out


def run_pass(items) -> tuple[float, list]:
    """Run every item once, closed loop; returns (wall seconds, results).

    A full garbage collection first, outside the timing, so that each pass
    starts from the same collector state.
    """
    gc.collect()
    results = []
    t0 = time.perf_counter()
    for item in items:
        try:
            results.append(item.run())
        except Exception as exc:  # an item that raises counts as failed
            results.append(exc)
    return time.perf_counter() - t0, results


def verdicts(items, results) -> list[str | None]:
    out = []
    for item, res in zip(items, results):
        if isinstance(res, Exception):
            out.append(f"raised {type(res).__name__}: {res}")
            continue
        try:
            out.append(item.check(res))
        except Exception:
            out.append("check raised: " + traceback.format_exc(limit=2))
    return out


def run_record(args, n_passes, tail_pct) -> dict:
    import numpy as np
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "entlab").glob("*.py")):
        src_hash.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "passes": n_passes, "tail_percentile": tail_pct, "tail_samples_beyond": TAIL_BEYOND,
    }


def git_commit() -> str:
    """HEAD of the source tree when it is a git checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def layer_metrics(names, tracer, builds, traced, untraced, probes) -> dict[str, float]:
    """Per-layer values: median over traced builds plus median over traced passes."""
    from tracing import NAMES

    phases = tracer.per_phase()

    def stat(func, key, which):
        return statistics.median(phases[p][func][key] if func in phases.get(p, {}) else 0.0
                                 for p in which)

    out = {}
    for name in names:
        func, key = name.rsplit(".", 1)
        if func in ("import", "trace") or key == "hit_ratio":
            continue
        if func not in NAMES:
            raise KeyError(f"per-layer metric {name} names an untraced function")
        out[name] = stat(func, key, builds) + stat(func, key, [p for p, _ in traced])
    combos = out["spectral_limit.resonant_tuples.combinations"]
    out["spectral_limit.resonant_tuples.hit_ratio"] = (
        out["spectral_limit.resonant_tuples.tuples"] / combos if combos else 0.0)
    out["import.entlab_s"] = statistics.median(p["import_scaled_s"] for p in probes)
    out["trace.unattributed_s"] = statistics.median(
        t - tracer.top_level_s(p) for p, t in traced)
    out["trace.overhead_ratio"] = (statistics.median(t for _, t in traced)
                                   / statistics.median(untraced))
    return {name: out[name] for name in names}


def dominance(workload, tracer, builds, traced, probes) -> dict[str, float]:
    """Shares behind the predicted dominant layers, from the traced builds and
    passes, each as (phase, wall seconds); set-up adds the probes' import time."""
    phases = tracer.per_phase()

    def share(names, key, which, totals):
        return statistics.median(
            sum(phases[p][n][key] for n in names if n in phases.get(p, {})) / total
            for p, total in zip(which, totals))

    passes, walls = [p for p, _ in traced], [t for _, t in traced]
    if workload == "discrete":
        return {"lattice_chain_mean.self_s / solve_s":
                share(["entangle.lattice_chain_mean"], "self_s", passes, walls)}
    if workload == "continuous":
        return {"(expm + nodes).self_s / solve_s":
                share(["linalg.expm", "continuous.QuadratureSpec.nodes"], "self_s", passes, walls)}
    phases_b, walls_b = [p for p, _ in builds], [t for _, t in builds]
    import_s = statistics.median(p["import_s"] for p in probes)
    solve_names = ["spectral_limit.resonant_tuples", "operators.mean_ergodic_projection",
                   "operators.schur_spectral_projection", "spectral_limit.limit_operator",
                   "shiftlab.divergence_experiment", "shiftlab.finite_section"]
    return {
        "from_matrix.incl_s / setup_s": share(["operators.from_matrix"], "incl_s", phases_b,
                                              [import_s + t for t in walls_b]),
        "from_matrix.incl_s / build_s": share(["operators.from_matrix"], "incl_s", phases_b,
                                              walls_b),
        "(from_matrix + make_system).incl_s / build_s":
            share(["operators.from_matrix", "entangle.make_system"], "incl_s", phases_b, walls_b),
        "(resonance + projection + assembly + shift).self_s / solve_s":
            share(solve_names, "self_s", passes, walls),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "entlab" / "__init__.py", ROOT / "configs")
               if not p.exists()]
    if missing:
        print(f"benchmark: source tree incomplete, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    cal = Calibration()
    try:
        probes = run_setup_probes(args, cal)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    tracer = Tracer()
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    builds = [f"build-{b}" for b in range(TRACED_BUILDS if args.trace else 1)]
    if args.trace:
        tracer.install()
    build_walls = []
    for phase in builds:
        tracer.phase = phase
        t0 = time.perf_counter()
        systems = workloads.build_systems(args.workload, inputs)
        build_walls.append(time.perf_counter() - t0)
    tracer.uninstall()
    items = workloads.make_items(args.workload, inputs, systems, OUT, ROOT)

    attempted = failed = 0
    failures: dict[str, str] = {}
    verdicts_by_mode: dict[bool, set] = {False: set(), True: set()}

    def account(results, traced):
        nonlocal attempted, failed
        vs = verdicts(items, results)
        attempted += len(vs)
        for item, v in zip(items, vs):
            if v is not None:
                failed += 1
                failures.setdefault(item.name, v)
        verdicts_by_mode[traced].add(tuple(v is None for v in vs))

    _, warm = run_pass(items)  # first calls (leggauss, lazy imports) stay out of the timing
    account(warm, False)

    untraced: list[tuple[int, float]] = []  # (tick before the pass, wall seconds)
    traced: list[tuple[str, float]] = []
    start = time.perf_counter()
    p = 0
    while True:
        on = bool(args.trace) and p % 2 == 0
        if on:
            tracer.phase = f"pass-{p}"
            tracer.install()
        tick = cal.tick()
        wall, results = run_pass(items)
        tracer.uninstall()
        if on:
            traced.append((f"pass-{p}", wall))
        else:
            untraced.append((tick, wall))
        account(results, on)
        p += 1
        elapsed = time.perf_counter() - start
        enough = min(len(untraced), len(traced) if args.trace else MIN_PASSES) >= MIN_PASSES
        if (elapsed >= args.seconds and enough) or elapsed >= HARD_CAP_S:
            break

    cal.tick()  # closes the last pass's window
    samples = [wall / cal.factor(tick) for tick, wall in untraced]
    walls = [wall for _, wall in untraced]
    for probe in probes:
        factor = cal.factor(probe["tick"])
        probe["setup_s"] = (probe["import_s"] + probe["build_s"]) / factor
        probe["import_scaled_s"] = probe["import_s"] / factor
    setup_s = statistics.median(p["setup_s"] for p in probes)
    solve_s = statistics.median(samples)
    tail_s, tail_pct = tail(samples) if len(samples) > TAIL_BEYOND else (max(samples), 100.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    observed: dict[str, float] = {}
    for item in items:
        for key, value in item.observed.items():
            observed[key] = max(observed.get(key, 0.0), value)
    consistent = not args.trace or verdicts_by_mode[True] == verdicts_by_mode[False]
    record = run_record(args, len(samples), tail_pct)
    record.update(items=[it.name for it in items], pass_s=samples, pass_wall_s=walls,
                  setup_probes=probes, speed_factor_median=statistics.median(cal.ticks) / CAL_NOMINAL_S,
                  fail_ratio=failed / attempted,
                  failures=failures, observed=observed, trace_verdicts_match=consistent)

    end_to_end, per_layer = metric_specs()
    if args.trace:
        units = per_layer
        metrics = layer_metrics(list(units), tracer, builds, traced, walls, probes)
        record["dominance"] = dominance(args.workload, tracer, list(zip(builds, build_walls)),
                                        traced, probes)
        tag = f"{args.workload}-seed{args.seed}-{args.size}"
        tracer.write(OUT / f"spans-{tag}.jsonl")
    else:
        units = end_to_end
        measured = {"solve_s": solve_s, "solve_s_tail": tail_s, "setup_s": setup_s,
                    "peak_rss_mb": peak_rss_mb}
        metrics = {name: measured[name] for name in units}

    for name, value in metrics.items():
        print(f"{name:<48} {value:.6g} {units[name]}")
    print(f"{'fail_ratio':<48} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, value in observed.items():
        print(f"observed {name} {value:.3g} (recorded, not a failure; see bench/NOTES.md)")
    for name, why in failures.items():
        print(f"FAILED {name}: {why}")
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("run_record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
