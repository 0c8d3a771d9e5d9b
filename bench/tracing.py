"""Spans around calls into entlab's public functions, recorded from outside.

``Tracer.install()`` rebinds each function in ``TRACED`` to a timing wrapper
in every module namespace that binds it (``continuous`` imports
``lattice_chain_mean`` and ``resonant_tuples`` by name, ``spectral_limit``
imports ``mean_ergodic_projection`` by name, and the package re-exports most
names), and ``QuadratureSpec.nodes`` on its class.  ``uninstall()`` restores
the originals, so untraced passes run the library untouched.  Private helpers
(``_power_stack``, ``_apply``, ``_block_solutions``) and trivial validators stay
unwrapped; their time lands in the caller's self time.

Spans are kept in memory as (name, start, end, parent, pass id, counts) and
written out at the end of the run.  Counts marked *computed* are derived from
the call's arguments or result, not counted inside the library.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import entlab
from entlab import cli, continuous, entangle, linalg, operators, shiftlab, spectral_limit

MODULES = {
    "linalg": linalg,
    "operators": operators,
    "entangle": entangle,
    "spectral_limit": spectral_limit,
    "continuous": continuous,
    "shiftlab": shiftlab,
    "cli": cli,
}


def _lattice_points(args, kwargs, result):
    factors = args[0] if args else kwargs["factors"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    axes = {spec[1] for spec in factors if spec[0] == "stack"}
    return {"points": float(n) ** len(axes)}


def _cost_units(args, kwargs, result):
    """entangle's documented cost model, evaluated on the call's arguments."""
    system, n = args[0], args[1]
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "presum")
    part = system.partition
    m = part.m
    blocks = part.blocks
    if strategy == "naive":
        return {"cost_units": float(n) ** part.k * (2 * m - 1 + m * max(1, math.ceil(math.log2(max(n, 2)))))}
    k_eff = part.k if strategy == "cached" else sum(1 for pos in blocks.values() if len(pos) > 1)
    return {"cost_units": m * n + float(n) ** k_eff * (2 * m - 1)}


def _expm_matrices(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs.get("t", 1.0)
    return {"matrices": float(getattr(t, "size", 1) if getattr(t, "ndim", 0) else 1)}


def _nodes_points(args, kwargs, result):
    return {"points": float(args[0].points)}


def _cluster_pairs(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) / 2.0}


def _resonance_counts(args, kwargs, result):
    spectra = args[0]
    combos = 1.0
    for sp in spectra:
        pts = sp.unimodular_spectrum if isinstance(sp, operators.SpectralOperator) else list(sp)
        combos *= len(pts)
    return {"combinations": combos, "tuples": float(len(result))}


def _divergence_terms(args, kwargs, result):
    return {"terms": float(max(int(c) for c in args[0]))}


# (module, function, computed-count function or None)
TRACED = (
    ("linalg", "eig", None),
    ("linalg", "cluster_eigenvalues", _cluster_pairs),
    ("linalg", "expm", _expm_matrices),
    ("linalg", "spectral_norm", None),
    ("linalg", "haar_unitary", None),
    ("operators", "synth_operator", None),
    ("operators", "from_matrix", None),
    ("operators", "schur_spectral_projection", None),
    ("operators", "mean_ergodic_projection", None),
    ("operators", "jdl_split", None),
    ("entangle", "make_system", None),
    ("entangle", "entangled_average", _cost_units),
    ("entangle", "lattice_chain_mean", _lattice_points),
    ("entangle", "stacked_system", None),
    ("entangle", "stacked_average", None),
    ("spectral_limit", "unimodular_spectrum", None),
    ("spectral_limit", "resonant_tuples", _resonance_counts),
    ("spectral_limit", "limit_operator", None),
    ("continuous", "synth_semigroup", None),
    ("continuous", "make_continuous_system", None),
    ("continuous", "continuous_entangled_average", None),
    ("continuous", "continuous_limit_operator", None),
    ("continuous", "suggest_points", None),
    ("continuous", "QuadratureSpec.nodes", _nodes_points),
    ("shiftlab", "divergence_experiment", _divergence_terms),
    ("shiftlab", "finite_section", None),
    ("cli", "parse_config", None),
    ("cli", "run_experiment", None),
    ("cli", "emit_results", None),
    ("cli", "main", None),
)
NAMES = frozenset(f"{m}.{q}" for m, q, _ in TRACED)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; ``phase`` labels the spans that follow."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), math.nan, parent, tracer.phase)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Rebind every traced function wherever a module or the package binds it."""
        if self._saved:
            return
        namespaces = [entlab, *MODULES.values()]
        for mod_name, qual, counter in TRACED:
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(MODULES[mod_name], cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
                continue
            original = getattr(MODULES[mod_name], qual)
            wrapper = self._wrap(name, original, counter)
            for ns in namespaces:
                if ns.__dict__.get(qual) is original:
                    self._saved.append((ns, qual, original))
                    setattr(ns, qual, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct traced children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def per_phase(self) -> dict[str, dict[str, dict[str, float]]]:
        """phase -> function -> {calls, self_s, incl_s, <computed counts>}."""
        out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        selfs = self.self_times()
        for s, st in zip(self.spans, selfs):
            rec = out[s.pass_id][s.name]
            rec["calls"] += 1
            rec["self_s"] += st
            rec["incl_s"] += s.end - s.start
            for k, v in s.counts.items():
                rec[k] += v
        return out

    def top_level_s(self, phase: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None and s.pass_id == phase)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "pass": s.pass_id, **s.counts}) + "\n")
