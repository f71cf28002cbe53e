"""What a fresh interpreter loads: ``import moikit`` brings numpy and the
standard library only, without ``multiprocessing``, and scipy waits for the
one complex Schur decomposition of a unitary given as a matrix.

Every check runs in a subprocess, because the test modules themselves
import ``scipy.stats``."""

import json
import os
import subprocess
import sys

import moikit as mk

from conftest import assert_golden, golden_json

# the source tree this process imported moikit from
SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(mk.__file__)))

PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""

# the eigenvalues and basis that spectral_decompose gives for each unitary,
# as [re, im] pairs; pinned in tests/golden/unitary_schur.json when
# scipy.linalg was still imported with moikit
DECOMPOSE = PRELUDE + """
import numpy as np
import moikit as mk

before = scipy_modules()
t = 0.7
unitaries = {
    "diagonal": np.diag(np.exp(1j * np.array([2.5, -0.3, 1.0]))),
    "rotation": np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]),
    "haar": mk.sample_haar_unitary(5, np.random.default_rng(2024)).matrix,
}
spectra = {}
for name, matrix in unitaries.items():
    decomp = mk.spectral_decompose(mk.UnitaryOperator(matrix))
    spectra[name] = {key: np.stack([a.real, a.imag], axis=-1).tolist()
                     for key, a in (("eigenvalues", decomp.eigenvalues),
                                    ("basis", decomp.basis))}
print(json.dumps({"before": before, "after": "scipy.linalg" in sys.modules,
                  "spectra": spectra}))
"""


def run_fresh(code: str):
    """The JSON that ``code`` prints last in a fresh interpreter that finds
    moikit where this process found it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    code = PRELUDE + "import moikit, moikit.cli\nprint(json.dumps(scipy_modules()))"
    assert run_fresh(code) == []


def test_import_loads_no_multiprocessing():
    # --workers runs threads: nothing in moikit starts a process
    code = PRELUDE + ("import moikit, moikit.cli\n"
                      "print(json.dumps(sorted(m for m in sys.modules"
                      " if m.split('.')[0] == 'multiprocessing')))")
    assert run_fresh(code) == []


def test_unitary_schur_loads_scipy_and_keeps_its_bits():
    result = run_fresh(DECOMPOSE)
    assert result["before"] == []
    assert result["after"]
    assert_golden({"unitary_schur.json": golden_json(result["spectra"])})
