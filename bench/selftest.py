"""Self-test of the benchmark harness; run from the repository root:

    python3 bench/selftest.py

1. A reduced-size (``--size smoke``) run of each workload, with tracing off
   and on, is correct and emits exactly the metrics BENCHMARK.json names.
2. Negative control: ``limit_operator(system)`` handed in as the N = 2048
   average of pinned system 5.  Gate 3's bound (1e-2 from the limit) accepts
   it; the benchmark's exact finite-N reference must count it as failed.
3. In a directory holding only BENCHMARK.json and bench/, run.py exits with a
   non-zero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from entlab import spectral_limit  # noqa: E402


def _bench_run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = _bench_run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stdout)
            printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line.strip()}
            assert set(want) | {"fail_ratio"} <= printed, (workload, trace)
            print(f"ok  {workload:<10} trace={trace}  {len(got)} metrics, "
                  f"{result['attempted']} items checked")


def check_negative_control() -> None:
    inputs = workloads.make_inputs("discrete", 0, "standard")
    system, _ = workloads.build_systems("discrete", inputs)[4]
    bases, bases_inv, lams, angles = workloads._cert_parts(system.operators)
    conns, alpha = list(system.connectors), system.partition.alpha
    ref = workloads.chain_mean(bases, bases_inv, conns, alpha, workloads.cesaro_weight(lams, 2048))
    limit_ref = workloads._unimodular_limit(bases, bases_inv, conns, alpha, angles)
    item = workloads.discrete_average_item(5, system, 2048, ref, limit_ref)
    lim = spectral_limit.limit_operator(system)
    assert np.linalg.norm(lim - limit_ref, 2) <= workloads.GATE3_LIMIT_BOUND  # gate 3 accepts it
    item.run = lambda: (lim, lim, 0.0)
    _, results = run.run_pass([item])
    (verdict,) = run.verdicts([item], results)
    assert verdict is not None, "the limit passed as the N=2048 average was not caught"
    print(f"ok  negative control counted as failed: {verdict}")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench_run(bare, "discrete", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok  bare directory exits {proc.returncode} without a result")


if __name__ == "__main__":
    check_negative_control()
    check_bare_directory()
    check_metric_names()
    print("self-test passed")
