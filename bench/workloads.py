"""Workloads of the entlab benchmark: seeded inputs, system builds, timed items
and the independent references their results are checked against.

A workload is built in three steps, so that the set-up probe can time exactly
the library's share of set-up:

* ``make_inputs(workload, seed, size)`` draws every seed-derived number
  (bases seeds, connector seeds, stable eigenvalues, states, raw matrices)
  with numpy alone.  The seed never changes the shape of a workload (alpha,
  d, N, Q, spectrum sizes), so the cost stays the same from seed to seed;
  seed 0 reproduces the systems of acceptance gates 3, 4 and 8.
* ``build_systems(workload, inputs)`` turns the inputs into library objects
  (``synth_operator``, ``synth_semigroup``, ``from_matrix``, ``make_system``,
  ``make_continuous_system``, ``stacked_system``).  This is what ``setup_s``
  times, after ``import entlab`` in a fresh interpreter.
* ``make_items(workload, inputs, systems, out_dir)`` computes every reference
  (outside any timed region) and returns the items of one pass.  An item's
  ``run`` calls the library; its ``check`` returns None when the result is
  right and a reason when it is not.

Sizes: ``standard`` (the default) keeps every kind of item of the specified
shape but caps N, t and d so that one pass takes about half a second and a
30 s run yields enough passes for a tail percentile with ten samples beyond
it.  ``smoke`` is the reduced run the self-test uses.  NOTES.md lists the
shapes and why they are capped.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from entlab import cli, continuous, entangle, linalg, operators, shiftlab, spectral_limit

WORKLOADS = ("discrete", "continuous", "limits")

# Gate bounds kept from tests/test_acceptance.py, next to the tighter
# reference bounds that make fail_ratio meaningful.
GATE3_LIMIT_BOUND = 1e-2     # ||avg - limit||_2 at N = 2048
GATE4_STACK_RESIDUAL = 1e-12  # relative, stacked vs direct
GATE5_SECTION_NORM_TOL = 1e-3
GATE8_BRACKET = 5.0          # true quadrature error <= this x the Richardson estimate
DISCRETE_REF_RTOL = 1e-9
LIMIT_REF_RTOL = 1e-9
# Absolute Frobenius bound on the quadrature error, times t: the bound at
# horizon t is CONTINUOUS_REF_ATOL_T / t.  The midpoint rule at suggest_points'
# step leaves an absolute error that falls as 1/t (error x t was 4.6e-4 to
# 2.0e-3 on 40 seeds at t = 50 and 100), so this is 1e-4 at t = 50 and 5e-5
# at t = 100.  It is not relative to ||ref||: that falls to 0.05 on seeds whose
# connector nearly cancels the resonant part, where the same error reads as
# 3e-4 relative.
CONTINUOUS_REF_ATOL_T = 5e-3

# Per-size shapes.  Discrete N lists are keyed by the number of lattice axes
# the presum strategy keeps (blocks with two or more positions): the walk
# costs N^k_eff chain products, so only k_eff = 2 needs a smaller N.
DISCRETE_SIZES = {
    "standard": dict(ns={0: (256, 512, 1024, 2048), 1: (256, 512, 1024, 2048),
                         2: (128, 256)},
                     vec_n={0: 1024, 1: 1024, 2: 256}, stack_ns=(8, 32, 128)),
    "smoke": dict(ns={0: (16, 32), 1: (16, 32), 2: (16, 32)},
                  vec_n={0: 16, 1: 16, 2: 16}, stack_ns=(8,)),
}
CONTINUOUS_SIZES = {
    "standard": dict(midpoint_ts=(50.0, 100.0), gauss=(100.0, 250)),
    "smoke": dict(midpoint_ts=(50.0,), gauss=(50.0, 125)),
}
# d per limit system (a, b, c, d), angles per resonance position, top j of the
# shift checkpoints 4^j and 2*4^j (j from 4)
LIMITS_SIZES = {
    "standard": dict(dims=(48, 24, 32, 128), resonance_angles=60, shift_top=6),
    "smoke": dict(dims=(28, 20, 12, 20), resonance_angles=10, shift_top=5),
}
# limit systems: (label, alpha, angles j/denominator, multiplicity of each angle)
LIMIT_SHAPES = (
    ("a", (1, 1), 12, 2),
    ("b", (1, 1, 1, 1), 18, 1),
    ("c", (1, 2, 2, 1), 10, 1),
    ("d", (1,), 16, 1),
)

# The five pinned systems of acceptance gates 3 and 4 at seed 0:
# (alpha, [(angles, stable, basis kind, basis seed, condition cap)], connector seeds)
PINNED = (
    ((1,), [(("0/1",), (0.5, -0.3 + 0.2j), "orthonormal", 101, None)], ()),
    ((1, 1), [(("1/3",), (0.6j, -0.4, 0.2 - 0.3j), "orthonormal", 102, None),
              (("2/3", "0/1"), (0.5, -0.5j), "orthonormal", 103, None)], (201,)),
    ((1, 2), [(("1/2", "0/1"), (0.7, -0.2 + 0.4j, 0.3j), "orthonormal", 104, None),
              (("1/4", "0/1"), (0.8, -0.6, 0.1 + 0.1j), "orthonormal", 105, None)],
     (202,)),
    ((1, 2, 1), [(("1/6",), (0.5, -0.3, 0.4j), "orthonormal", 106, None),
                 (("1/2", "1/3"), (0.6, -0.5j), "orthonormal", 107, None),
                 (("5/6", "0/1"), (0.7j, -0.4), "orthonormal", 108, None)],
     (203, 204)),
    ((1, 2, 2, 1), [(("1/4",), (0.5, -0.2j, 0.3), "orthonormal", 109, None),
                    (("1/3", "0/1"), (0.6j, -0.3), "similarity", 110, 5.0),
                    (("2/3",), (0.4, 0.2 - 0.2j, -0.5), "orthonormal", 111, None),
                    (("3/4", "1/2"), (0.7, -0.1 + 0.3j), "orthonormal", 112, None)],
     (205, 206, 207)),
)
# Gate 8: two 3x3 generators with frequencies {1/2, 0}, alpha = [1, 1].
GATE8 = (((("1/2", "0"), -0.3 + 0.9j, 301), (("1/2", "0"), -0.2 - 0.5j, 302)), 303)
SEED_STRIDE = 1000  # library seeds move by this much per benchmark seed


@dataclass
class Item:
    """One timed unit of a pass: ``run`` calls the library, ``check`` judges it."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # deviations a check records without failing (see NOTES.md, findings)
    observed: dict = field(default_factory=dict)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _stable_values(rng, count: int, rmin: float, rmax: float) -> tuple[complex, ...]:
    radius = rng.uniform(rmin, rmax, count)
    phase = rng.uniform(0.0, 2.0 * np.pi, count)
    return tuple(complex(z) for z in radius * np.exp(1j * phase))


def _unit_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def k_eff(alpha) -> int:
    """Lattice axes the presum strategy keeps: blocks holding two or more positions."""
    return sum(1 for a in set(alpha) if list(alpha).count(a) > 1)


# ------------------------------------------------------------------ inputs
def make_inputs(workload: str, seed: int, size: str) -> dict:
    """Every seed-derived number of a workload; numpy only, no library calls."""
    if workload == "discrete":
        return _discrete_inputs(seed, size)
    if workload == "continuous":
        return _continuous_inputs(seed, size)
    if workload == "limits":
        return _limits_inputs(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def _discrete_inputs(seed: int, size: str) -> dict:
    systems = []
    for i, (alpha, ops, conns) in enumerate(PINNED):
        op_specs = []
        for j, (angles, stable, kind, bseed, cap) in enumerate(ops):
            if seed:
                stable = _stable_values(_rng(seed, 1, i, j), len(stable), 0.1, 0.8)
            op_specs.append((angles, stable, kind, bseed + SEED_STRIDE * seed, cap))
        d = len(ops[0][0]) + len(ops[0][1])
        systems.append(dict(
            alpha=alpha, ops=op_specs,
            conn_seeds=tuple(c + SEED_STRIDE * seed for c in conns),
            state=_unit_state(_rng(seed, 2, i), d),
        ))
    return dict(seed=seed, size=DISCRETE_SIZES[size], systems=systems)


def _continuous_inputs(seed: int, size: str) -> dict:
    gens = []
    for j, (freqs, stable, bseed) in enumerate(GATE8[0]):
        if seed:
            rng = _rng(seed, 3, j)
            stable = complex(-rng.uniform(0.15, 0.5), rng.uniform(-1.0, 1.0))
        gens.append((freqs, (stable,), bseed + SEED_STRIDE * seed))
    return dict(seed=seed, size=CONTINUOUS_SIZES[size], generators=gens,
                conn_seed=GATE8[1] + SEED_STRIDE * seed)


def _orthonormal(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :]
    return q, q.conj().T


def _similarity(rng, d: int, cap: float) -> tuple[np.ndarray, np.ndarray]:
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
    c = 1.0
    while True:
        s = np.eye(d) + c * g
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[0] / sv[-1] <= cap:
            return s, np.linalg.inv(s)
        c *= 0.5


def _limits_inputs(seed: int, size: str) -> dict:
    shape = LIMITS_SIZES[size]
    systems = []
    for i, ((label, alpha, denom, mult), d) in enumerate(zip(LIMIT_SHAPES, shape["dims"])):
        ops = []
        for j in range(len(alpha)):
            rng = _rng(seed, 4, i, j)
            angles = [Fraction(a, denom) for a in range(denom) for _ in range(mult)]
            stable = _stable_values(rng, d - len(angles), 0.05, 0.9)
            lam = np.array([np.exp(2j * np.pi * float(a)) for a in angles] + list(stable))
            s, s_inv = _orthonormal(rng, d) if j % 2 == 0 else _similarity(rng, d, 20.0)
            ops.append(dict(angles=tuple(angles), basis=s, basis_inv=s_inv,
                            matrix=(s * lam[np.newaxis, :]) @ s_inv))
        conn_seeds = tuple(500 + 10 * i + j + SEED_STRIDE * seed for j in range(len(alpha) - 1))
        systems.append(dict(label=label, alpha=alpha, d=d, ops=ops, conn_seeds=conn_seeds))

    q = shape["resonance_angles"]
    rng = _rng(seed, 5)
    offsets = [int(o) for o in rng.integers(0, q, 2)]
    offsets.append(-sum(offsets) % q)  # keeps the resonant count at q^2
    numerators = [[(a + off) % q for a in rng.permutation(q)] for off in offsets]
    top = shape["shift_top"]
    checkpoints = [4 ** j for j in range(4, top + 1)] + [2 * 4 ** j for j in range(4, top + 1)]
    return dict(seed=seed, size=shape, systems=systems, resonance_q=q,
                resonance_numerators=numerators, shift_checkpoints=checkpoints)


# ------------------------------------------------------------------ builds
def _basis(kind: str, seed: int, cap):
    if kind == "orthonormal":
        return operators.OrthonormalBasis(seed)
    return operators.RandomSimilarity(seed, cap)


def build_systems(workload: str, inputs: dict) -> list:
    """Library objects for a workload; this is the timed part of set-up."""
    if workload == "discrete":
        out = []
        for spec in inputs["systems"]:
            ops = [operators.synth_operator(a, s, _basis(k, b, c)) for a, s, k, b, c in spec["ops"]]
            conns = [linalg.haar_unitary(ops[0].dim, cs) for cs in spec["conn_seeds"]]
            system = entangle.make_system(spec["alpha"], ops, conns or None)
            out.append((system, entangle.stacked_system(system)))
        return out
    if workload == "continuous":
        sgs = [continuous.synth_semigroup(f, s, operators.OrthonormalBasis(b))
               for f, s, b in inputs["generators"]]
        conn = linalg.haar_unitary(sgs[0].dim, inputs["conn_seed"])
        return [continuous.make_continuous_system([1, 1], sgs, [conn])]
    if workload == "limits":
        out = []
        for spec in inputs["systems"]:
            ops = [operators.from_matrix(op["matrix"]) for op in spec["ops"]]
            conns = [linalg.haar_unitary(spec["d"], cs) for cs in spec["conn_seeds"]]
            out.append(entangle.make_system(spec["alpha"], ops, conns or None))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# -------------------------------------------------------------- references
def chain_mean(bases, bases_inv, conns, alpha, block_weight, index_sets=None):
    """Reference chain mean assembled in the eigenbases.

    With T_j = S_j diag(lam_j) S_j^{-1} and cores C_j = S_{j+1}^{-1} A_j S_j,
    the mean is S_m W S_1^{-1}, where W sums over eigen-index tuples the
    product of core entries times a weight that factorizes over the index
    blocks of alpha.  ``block_weight(positions, grids)`` returns that weight for
    one block, given the broadcast eigen-index grids of its positions.
    ``index_sets`` restricts each position to some eigen-indices (the limit
    only needs the unimodular ones).
    """
    m = len(alpha)
    idx = index_sets or [np.arange(b.shape[1]) for b in bases]
    shape = tuple(len(ix) for ix in idx)
    weight = np.ones(shape, dtype=np.complex128)
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    for a in sorted(set(alpha)):
        positions = [j for j in range(m) if alpha[j] == a]
        weight = weight * block_weight(positions, [grids[j] for j in positions])
    tensor = weight
    for j in range(m - 1):
        core = np.linalg.solve(bases[j + 1], conns[j] @ bases[j])[np.ix_(idx[j + 1], idx[j])]
        view = [1] * m
        view[j], view[j + 1] = shape[j], shape[j + 1]
        tensor = tensor * core.T.reshape(view)
    if m == 1:
        inner = np.diag(tensor)
    else:
        inner = tensor.sum(axis=tuple(range(1, m - 1))).T
    left = bases[m - 1][:, idx[m - 1]]
    right = bases_inv[0][idx[0], :]
    return left @ inner @ right


def cesaro_weight(lams, n: int):
    """Block weight g_N(z) = mean of z^k for k = 1..N, z the block's eigenvalue product."""
    powers = np.arange(1, n + 1)

    def weight(positions, grids):
        z = np.ones(grids[0].shape, dtype=np.complex128)
        for j, g in zip(positions, grids):
            z = z * lams[j][g]
        flat = z.reshape(-1)
        return np.mean(flat[:, np.newaxis] ** powers[np.newaxis, :], axis=1).reshape(z.shape)

    return weight


def resonance_weight(angles, additive: bool = False):
    """Block weight of the limit: 1 where the block's exact angles sum to 0 mod 1
    (discrete time), or where its exact frequencies sum to 0 (``additive``)."""

    def weight(positions, grids):
        shape = grids[0].shape
        out = np.zeros(shape, dtype=np.complex128)
        for flat in np.ndindex(shape):
            total = sum((angles[j][g[flat]] for j, g in zip(positions, grids)), Fraction(0))
            out[flat] = 1.0 if (total if additive else total % 1) == 0 else 0.0
        return out

    return weight


def integral_weight(mus, t: float):
    """Block weight of the continuous mean: expm1(mu t) / (mu t), mu the block's eigenvalue sum."""

    def weight(positions, grids):
        z = np.zeros(grids[0].shape, dtype=np.complex128)
        for j, g in zip(positions, grids):
            z = z + mus[j][g]
        zt = z * t
        small = np.abs(zt) < 1e-14
        safe = np.where(small, 1.0, zt)
        return np.where(small, 1.0, np.expm1(safe) / safe)

    return weight


def _rel(a, b) -> float:
    """Relative Frobenius distance; absolute when the reference is zero (no resonance)."""
    scale = float(np.linalg.norm(b))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / (scale if scale > 0 else 1.0)


def _cert_parts(ops):
    certs = [op.certificate for op in ops]
    return ([c.basis for c in certs], [c.basis_inv for c in certs],
            [c.eigenvalues for c in certs], [c.angles for c in certs])


def _unimodular_limit(bases, bases_inv, conns, alpha, angle_lists):
    """Limit reference from exact angles; the unimodular part sits first in each basis."""
    index_sets = [np.arange(len(a)) for a in angle_lists]
    return chain_mean(bases, bases_inv, conns, alpha, resonance_weight(angle_lists), index_sets)


# ------------------------------------------------------------------- items
def make_items(workload: str, inputs: dict, systems: list, out_dir: Path, root: Path) -> list[Item]:
    """Items of one pass, with every reference computed here, once per seed."""
    if workload == "discrete":
        return _discrete_items(inputs, systems, out_dir, root)
    if workload == "continuous":
        return _continuous_items(inputs, systems, out_dir, root)
    return _limits_items(inputs, systems, out_dir, root)


def cli_item(kind: str, out_dir: Path, root: Path) -> Item:
    """A shipped config run through ``entlab.cli.main``.

    Checked for exit 0 and one record per checkpoint in both the summary and
    the CSV file, then every record's numbers against the benchmark's own
    references, which ``CLI_REFERENCES[kind]`` builds from the config's fields.
    """
    config = root / "configs" / f"{kind}.json"
    out = out_dir / f"cli-{kind}.csv"
    raw = json.loads(config.read_text(encoding="utf-8"))
    key = {"converge": "schedule", "continuous": "horizons", "counterexample": "checkpoints"}[kind]
    expected = sorted({float(v) for v in raw[key]})
    check_records = CLI_REFERENCES[kind](raw)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([kind, "--config", str(config), "--out", str(out)])
        return code, buf.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return f"cli {kind} exited {code}"
        summary = json.loads(text)
        if summary.get("records") != len(expected):
            return f"cli {kind} summary has {summary.get('records')} records, want {len(expected)}"
        with open(out, newline="", encoding="utf-8") as fh:
            rows = {float(r["checkpoint"]): r for r in csv.DictReader(fh)}
        if sorted(rows) != expected:
            return f"cli {kind} rows {sorted(rows)} != checkpoints {expected}"
        return check_records(summary, rows, item)

    item = Item(f"cli.{kind}", run, check)
    return item


def _config_connectors(raw: dict, d: int) -> list:
    """Haar connectors of a config, seeded as the CLI documents: own seed XOR config seed."""
    if any(c.get("type") != "haar" for c in raw["connectors"]) or "state_seed" in raw:
        raise ValueError("the CLI references cover Haar connectors and matrix mode only")
    return [linalg.haar_unitary(d, c["seed"] ^ raw.get("seed", 0)) for c in raw["connectors"]]


def _config_basis(spec: dict):
    return _basis(spec["type"], spec["seed"], spec.get("condition_cap", 50.0))


def _error_rows(diffs: dict, tols: dict):
    """Each row's ``error_fro`` must be ||diffs[checkpoint]||_F within tols[checkpoint].

    ``error_op`` comes from the library's power-iteration norm and is compared
    with LAPACK's 2-norm as a recorded deviation only (see ``observe_norm``).
    """

    def check(summary, rows, item):
        for cp, diff in diffs.items():
            want, got = float(np.linalg.norm(diff)), float(rows[cp]["error_fro"])
            if not abs(got - want) <= tols[cp]:
                return f"checkpoint {cp:g}: error_fro {got:.9e}, reference {want:.9e}"
            observe_norm(item, float(rows[cp]["error_op"]), float(np.linalg.norm(diff, 2)))
        return None

    return check


def converge_reference(raw: dict):
    """``converge``: error_fro is ||avg_N - limit||_F; both are assembled here from
    the certificate eigendata of operators rebuilt from the config."""
    ops = [operators.synth_operator(s["angles"], [complex(*z) for z in s["stable"]],
                                    _config_basis(s["basis"])) for s in raw["operators"]]
    conns = _config_connectors(raw, ops[0].dim)
    alpha = tuple(raw["alpha"])
    bases, bases_inv, lams, angles = _cert_parts(ops)
    limit_ref = _unimodular_limit(bases, bases_inv, conns, alpha, angles)
    diffs, tols = {}, {}
    for n in raw["schedule"]:
        ref = chain_mean(bases, bases_inv, conns, alpha, cesaro_weight(lams, n))
        diffs[float(n)] = ref - limit_ref
        tols[float(n)] = DISCRETE_REF_RTOL * float(np.linalg.norm(ref)) + \
            LIMIT_REF_RTOL * float(np.linalg.norm(limit_ref))
    return _error_rows(diffs, tols)


def continuous_reference(raw: dict):
    """``continuous``: error_fro is ||avg_t - limit||_F, with avg_t the closed form
    and the limit from exact frequencies, for semigroups rebuilt from the config."""
    sgs = [continuous.synth_semigroup(s["frequencies"], [complex(*z) for z in s["stable"]],
                                      _config_basis(s["basis"])) for s in raw["generators"]]
    conns = _config_connectors(raw, sgs[0].dim)
    alpha = tuple(raw["alpha"])
    bases, bases_inv, mus, freqs = _cert_parts(sgs)
    limit_ref = chain_mean(bases, bases_inv, conns, alpha, resonance_weight(freqs, additive=True),
                           [np.arange(len(f)) for f in freqs])
    diffs, tols = {}, {}
    for t in raw["horizons"]:
        diffs[float(t)] = chain_mean(bases, bases_inv, conns, alpha,
                                     integral_weight(mus, t)) - limit_ref
        tols[float(t)] = CONTINUOUS_REF_ATOL_T / t + LIMIT_REF_RTOL * float(np.linalg.norm(limit_ref))
    return _error_rows(diffs, tols)


def counterexample_reference(raw: dict):
    """``counterexample``: every exact mean is (N - ones(N))/N, every row's error_fro
    is that mean as a float, and the window-64 finite section has norm sqrt(3)."""
    means = {n: Fraction(n - ones_count(n), n) for n in raw["checkpoints"]}

    def check(summary, rows, item):
        for n, mean in means.items():
            if Fraction(summary["exact_values"][str(n)]) != mean:
                return f"exact mean at N={n} is {summary['exact_values'][str(n)]}, want {mean}"
            if float(rows[float(n)]["error_fro"]) != float(mean):
                return f"row N={n} has {rows[float(n)]['error_fro']}, want {float(mean)!r}"
        norm = summary["finite_section_norm"]
        if summary["window"] != 64 or not abs(norm - np.sqrt(3.0)) <= GATE5_SECTION_NORM_TOL:
            return f"window-{summary['window']} finite-section norm {norm} is not sqrt(3)"
        return None

    return check


def _discrete_items(inputs, systems, out_dir, root) -> list[Item]:
    shape = inputs["size"]
    items = []
    for i, (spec, (system, stacked)) in enumerate(zip(inputs["systems"], systems), start=1):
        alpha = spec["alpha"]
        bases, bases_inv, lams, angles = _cert_parts(system.operators)
        conns = list(system.connectors)
        limit_ref = _unimodular_limit(bases, bases_inv, conns, alpha, angles)
        keff = k_eff(alpha)

        def exact(n, bases=bases, bases_inv=bases_inv, conns=conns, alpha=alpha, lams=lams):
            return chain_mean(bases, bases_inv, conns, alpha, cesaro_weight(lams, n))

        for n in shape["ns"][keff]:
            items.append(discrete_average_item(i, system, n, exact(n), limit_ref))
        n = shape["vec_n"][keff]
        x = spec["state"]
        ref_x = exact(n) @ x
        items.append(Item(
            f"sys{i}.vector.N{n}",
            lambda system=system, n=n, x=x: entangle.entangled_average(system, n, x=x),
            lambda got, ref_x=ref_x: _rel_check(got, ref_x, DISCRETE_REF_RTOL),
        ))
        for n in shape["stack_ns"]:
            items.append(_stacked_item(i, system, stacked, n, exact(n)))
    items.append(cli_item("converge", out_dir, root))
    return items


def discrete_average_item(i, system, n, ref, limit_ref) -> Item:
    """Gate 3's evaluation (average, limit, spectral-norm error) at depth n.

    Checked against the exact finite-N reference; at N = 2048 also against
    gate 3's bound on the distance to the benchmark's own limit.
    """

    def run():
        avg = entangle.entangled_average(system, n)
        lim = spectral_limit.limit_operator(system)
        return avg, lim, linalg.spectral_norm(avg - lim)

    def check(result):
        avg, lim, err = result
        bad = _rel_check(avg, ref, DISCRETE_REF_RTOL) or _rel_check(lim, limit_ref, LIMIT_REF_RTOL)
        if bad:
            return bad
        true_err = float(np.linalg.norm(avg - limit_ref, 2))
        observe_norm(item, err, true_err)
        if n == 2048 and true_err > GATE3_LIMIT_BOUND:
            return f"distance to limit {true_err:.3e} above gate 3's {GATE3_LIMIT_BOUND}"
        return None

    item = Item(f"sys{i}.N{n}", run, check)
    return item


def observe_norm(item: Item, got: float, lapack: float) -> None:
    """Record how far the library's power-iteration spectral_norm is from LAPACK's.

    It stops when the Rayleigh quotient stops moving, which promises no
    accuracy; the deviation is a finding, reported in the run record.
    """
    dev = abs(got - lapack) / lapack if lapack > 0 else abs(got)
    key = "spectral_norm_rel_dev"
    item.observed[key] = max(item.observed.get(key, 0.0), dev)


def _stacked_item(i, system, stacked, n, ref) -> Item:
    def run():
        return entangle.entangled_average(system, n), entangle.stacked_average(stacked, n)

    def check(result):
        direct, block = result
        resid = float(np.linalg.norm(block - direct))
        if resid > GATE4_STACK_RESIDUAL * float(np.linalg.norm(direct)):
            return f"stacked residual {resid:.3e} above gate 4's bound"
        return _rel_check(direct, ref, DISCRETE_REF_RTOL)

    return Item(f"sys{i}.stacked.N{n}", run, check)


def _rel_check(got, ref, rtol) -> str | None:
    rel = _rel(got, ref)
    if not rel <= rtol:  # also catches NaN
        return f"relative error {rel:.3e} above {rtol:.0e}"
    return None


def _continuous_items(inputs, systems, out_dir, root) -> list[Item]:
    shape = inputs["size"]
    (system,) = systems
    certs = [sg.certificate for sg in system.semigroups]
    bases = [c.basis for c in certs]
    bases_inv = [c.basis_inv for c in certs]
    mus = [c.eigenvalues for c in certs]
    conns = list(system.connectors)
    alpha = system.partition.alpha
    freqs = [c.angles for c in certs]
    limit_ref = chain_mean(bases, bases_inv, conns, alpha, resonance_weight(freqs, additive=True),
                           [np.arange(len(f)) for f in freqs])
    cases = [("midpoint", t, None) for t in shape["midpoint_ts"]]
    t_gl, q_gl = shape["gauss"]
    cases.append(("gauss-legendre", t_gl, q_gl))
    items = [
        continuous_average_item(system, scheme, t, q,
                                chain_mean(bases, bases_inv, conns, alpha, integral_weight(mus, t)),
                                limit_ref)
        for scheme, t, q in cases
    ]
    items.append(cli_item("continuous", out_dir, root))
    return items


def continuous_average_item(system, scheme, t, q, ref, limit_ref) -> Item:
    """Gate 8's evaluation at horizon t: quadrature average (Richardson on), limit, error.

    Q is ``suggest_points`` when q is None.  Checked against the closed form,
    to CONTINUOUS_REF_ATOL_T / t absolute, with gate 8's bracket on the
    Richardson estimate.
    """

    def run():
        points = continuous.suggest_points(system, t) if q is None else q
        res = continuous.continuous_entangled_average(
            system, t, continuous.QuadratureSpec(scheme, points))
        lim = continuous.continuous_limit_operator(system)
        return res, lim, linalg.spectral_norm(res.value - lim)

    atol = CONTINUOUS_REF_ATOL_T / t

    def check(result):
        res, lim, err = result
        quad_err = float(np.linalg.norm(res.value - ref))
        if not quad_err <= atol:
            return f"quadrature error {quad_err:.3e} above {atol:.1e} (absolute)"
        if res.error_estimate is None or not quad_err <= GATE8_BRACKET * res.error_estimate:
            return f"Richardson estimate {res.error_estimate} does not bracket {quad_err:.3e}"
        bad = _rel_check(lim, limit_ref, LIMIT_REF_RTOL)
        if bad:
            return bad
        observe_norm(item, err, float(np.linalg.norm(res.value - limit_ref, 2)))
        return None

    item = Item(f"{scheme}.t{t:g}" + ("" if q is None else f".Q{q}"), run, check)
    return item


def _limits_items(inputs, systems, out_dir, root) -> list[Item]:
    items = []
    for spec, system in zip(inputs["systems"], systems):
        ops = spec["ops"]
        ref = _unimodular_limit([o["basis"] for o in ops], [o["basis_inv"] for o in ops],
                                list(system.connectors), spec["alpha"],
                                [o["angles"] for o in ops])
        items.append(Item(
            f"limit.{spec['label']}.d{spec['d']}",
            lambda system=system: spectral_limit.limit_operator(system),
            lambda got, ref=ref: _rel_check(got, ref, LIMIT_REF_RTOL),
        ))
    items += resonance_items(inputs["resonance_numerators"], inputs["resonance_q"])
    items.append(shift_item(inputs["shift_checkpoints"]))
    items.append(cli_item("counterexample", out_dir, root))
    return items


def resonance_items(numerators, q: int) -> list[Item]:
    """Exact-Fraction and float enumeration over one block of three positions.

    The reference count comes from integer arithmetic on the numerators; each
    returned tuple must be resonant and distinct, so count equality pins the set.
    """
    hist = [np.bincount(np.asarray(nums) % q, minlength=q) for nums in numerators]
    want = int(sum(hist[0][a] * hist[1][b] * hist[2][(-a - b) % q]
                   for a in range(q) for b in range(q)))
    exact = [[Fraction(int(a), q) for a in nums] for nums in numerators]
    floats = [[complex(np.exp(2j * np.pi * a / q)) for a in nums] for nums in numerators]

    def to_numerator(entry, fr):
        if fr is not None:
            return int(fr * q) % q
        return int(round(np.angle(entry) / (2 * np.pi) * q)) % q

    def check(tuples):
        if len(tuples) != want:
            return f"{len(tuples)} resonant tuples, want {want}"
        seen = set()
        for tup in tuples:
            key = tuple(to_numerator(e, fr) for e, fr in zip(tup.entries, tup.exact))
            if sum(key) % q or key in seen or max(tup.residuals) > spectral_limit.DEFAULT_TOL:
                return f"tuple {key} is not a distinct resonant tuple"
            seen.add(key)
        return None

    return [
        Item(f"resonance.exact.{q}^3",
             lambda: spectral_limit.resonant_tuples(exact, [1, 1, 1]), check),
        Item(f"resonance.float.{q}^3",
             lambda: spectral_limit.resonant_tuples(floats, [1, 1, 1]), check),
    ]


def ones_count(n: int) -> int:
    """#{j <= n : floor(log2 j) odd}, counted over whole binary blocks."""
    total, e = 0, 1
    while (1 << e) <= n:
        total += min(n + 1, 1 << (e + 1)) - (1 << e)
        e += 2
    return total


def shift_item(checkpoints) -> Item:
    """Gate 5: exact divergence means and the sqrt(3) finite-section norm."""

    def run():
        values = shiftlab.divergence_experiment(checkpoints)
        section = shiftlab.finite_section(shiftlab.counterexample_A, 64)
        return values, linalg.spectral_norm(section)

    def check(result):
        values, norm = result
        got = dict(values)
        for n in checkpoints:
            if got.get(n) != Fraction(n - ones_count(n), n):
                return f"mean at N={n} is {got.get(n)}"
        for n in checkpoints:
            if 2 * n in got and n & (n - 1) == 0 and (n.bit_length() - 1) % 2 == 0:
                if got[2 * n] - got[n] < Fraction(1, 4):
                    return f"dyadic gap at N={n} below 1/4"
        if abs(norm - np.sqrt(3.0)) > GATE5_SECTION_NORM_TOL:
            return f"finite-section norm {norm:.6f} is not sqrt(3)"
        return None

    return Item(f"shift.N{max(checkpoints)}", run, check)


CLI_REFERENCES = {"converge": converge_reference, "continuous": continuous_reference,
                  "counterexample": counterexample_reference}
