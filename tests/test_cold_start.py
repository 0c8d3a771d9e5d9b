"""Which runs load SciPy.

Only the matrix exponential and the Schur split of a raw operator need
scipy.linalg, and each imports it when called.  Each case runs in a fresh
interpreter with src/ on the path and reports the scipy modules it loaded:
importing the package, the certified runs, a stacked one and continuous ones included (a
Gauss-Legendre rule of 250 nodes, whose interior nodes take the asymptotic
series, among them), and runs on well-conditioned raw operators and
generators (which read their float eigenbasis records) must load none; a continuous run on a raw
generator and a raw limit without a record (a defective stable part) must
still load scipy.linalg, which shows the import moved into the functions
rather than went missing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_CERTIFIED_LIMIT = """
from entlab import OrthonormalBasis, limit_operator, make_system, synth_operator
ops = [synth_operator(["0", "1/3"], [0.4], OrthonormalBasis(5)),
       synth_operator(["0", "2/3"], [0.3], OrthonormalBasis(6))]
assert limit_operator(make_system([1, 1], ops)).shape == (3, 3)
"""

_RAW_LIMIT = """
import numpy as np
from entlab import from_matrix, limit_operator, make_system
a = np.diag([1.0, -1.0, 0.5, 0.5])
a[2, 3] = 1.0  # a Jordan block in the stable part: the eigenbasis is singular
lim = limit_operator(make_system([1], [from_matrix(a)]))
assert np.allclose(lim, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)
"""

_RAW_LIMIT_D128 = """
import numpy as np
from entlab import from_matrix, limit_operator, make_system
from entlab.linalg import haar_unitary
q = haar_unitary(128, 3)
lam = np.concatenate([[1.0, -1.0], 0.9 * np.exp(2j * np.pi * np.arange(126) / 126)])
lim = limit_operator(make_system([1], [from_matrix((q * lam) @ q.conj().T)]))
assert np.allclose(lim, np.outer(q[:, 0], q[:, 0].conj()), atol=1e-12)
"""

_RAW_CONTINUOUS = """
import numpy as np
from entlab import QuadratureSpec, continuous_entangled_average, make_continuous_system
from entlab import semigroup_from_generator
b = np.zeros((4, 4))
b[:2, :2] = [[0.0, -np.pi], [np.pi, 0.0]]
b[2:, 2:] = [[-0.5, 1.0], [0.0, -0.5]]  # a Jordan block in the stable part: no eigenbasis
sg = semigroup_from_generator(b)
system = make_continuous_system([1, 1], [sg, sg])
assert continuous_entangled_average(system, 2.0, QuadratureSpec("midpoint", 16)).value.shape == (4, 4)
"""

_RAW_CONTINUOUS_RECORD = """
import numpy as np
from entlab import QuadratureSpec, continuous_entangled_average, make_continuous_system
from entlab import semigroup_from_generator
sg = semigroup_from_generator(np.array([[0.0, -np.pi], [np.pi, 0.0]]))
system = make_continuous_system([1, 1], [sg, sg])
for scheme in ("midpoint", "gauss-legendre"):
    quad = QuadratureSpec(scheme, 16)
    assert continuous_entangled_average(system, 2.0, quad).value.shape == (2, 2)
"""

_CERTIFIED_GAUSS_LEGENDRE = """
from entlab import (OrthonormalBasis, QuadratureSpec, continuous_entangled_average,
                    make_continuous_system, synth_semigroup)
sgs = [synth_semigroup(["1/2"], [-1.0], OrthonormalBasis(seed)) for seed in (1, 2)]
out = continuous_entangled_average(make_continuous_system([1, 1], sgs), 10.0,
                                   QuadratureSpec("gauss-legendre", 250))
assert out.value.shape == (2, 2) and out.error_estimate < 1e-12
"""

_CERTIFIED_STACKED = """
from entlab import OrthonormalBasis, make_system, stacked_average, stacked_system, synth_operator
ops = [synth_operator(["0", "1/3"], [0.4], OrthonormalBasis(5)),
       synth_operator(["0", "2/3"], [0.3], OrthonormalBasis(6))]
st = stacked_system(make_system([1, 1], ops))
assert st.records and stacked_average(st, 10**6).shape == (3, 3)
"""

_REFUSED_EXPM = """
import numpy as np
from entlab import ValidationError, expm
for t in (float("nan"), [1.0, float("nan")], float("inf")):
    try:
        expm(np.eye(2), t)
    except ValidationError:
        continue
    raise AssertionError(f"expm accepted t={t!r}")
"""


def _cli(kind):
    config = ROOT / "configs" / f"{kind}.json"
    return (f"from entlab.cli import main\n"
            f"assert main([{kind!r}, '--config', {str(config)!r}, '--out', 'out.csv']) == 0\n")


def _scipy_modules(code, cwd):
    """Names of the scipy modules a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport sys, json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", [
    pytest.param("import entlab\n", id="import"),
    pytest.param(_cli("converge"), id="cli-converge"),
    pytest.param(_cli("counterexample"), id="cli-counterexample"),
    pytest.param(_cli("continuous"), id="cli-continuous"),
    pytest.param(_CERTIFIED_LIMIT, id="certified-limit"),
    pytest.param(_CERTIFIED_STACKED, id="certified-stacked"),
    pytest.param(_REFUSED_EXPM, id="refused-expm"),
    pytest.param(_RAW_LIMIT_D128, id="raw-limit-d128"),
    pytest.param(_RAW_CONTINUOUS_RECORD, id="raw-continuous-record"),
    pytest.param(_CERTIFIED_GAUSS_LEGENDRE, id="certified-gauss-legendre-q250"),
])
def test_run_leaves_scipy_unloaded(code, tmp_path):
    assert _scipy_modules(code, tmp_path) == []


@pytest.mark.parametrize("code", [
    pytest.param(_RAW_CONTINUOUS, id="raw-continuous"),
    pytest.param(_RAW_LIMIT, id="raw-limit"),
])
def test_run_that_needs_scipy_still_loads_it(code, tmp_path):
    assert "scipy.linalg" in _scipy_modules(code, tmp_path)
