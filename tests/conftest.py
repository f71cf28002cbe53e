import json
import os
import reprlib
import struct
import sys

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
import pytest

import moikit as mk
from moikit import serialization as ser

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def rng():
    return np.random.default_rng(0xA11CE)


@pytest.fixture
def uniform_model():
    return mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0))


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def grid_path(psi):
    """``psi`` with its separable representation stripped, so that
    ``moi_core`` evaluates it on the n^m eigenvalue grid instead of in
    factored form."""
    return mk.MultivariateFunction(psi.arity, psi.evaluate)


def golden_json(value) -> bytes:
    """The bytes of an array pin: ``value`` as deterministic JSON, arrays as
    nested lists and complex numbers as [re, im] pairs.  Floats are written
    by ``repr``, so every finite float reads back to its own bits."""
    return ser.dumps_deterministic(_plain(value)).encode()


def _plain(value):
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    value = np.asarray(value)
    if np.iscomplexobj(value):
        value = np.stack([value.real, value.imag], axis=-1)
    return value.tolist()


def assert_golden(pins: dict):
    """Fail unless each ``pins[name]`` is, byte for byte, the golden file
    ``tests/golden/<name>``.

    Every pin that differs, or whose file is missing, gets its bytes written
    to ``<name>.new`` beside the golden file, and the failure lists each JSON
    value that moved: its path, old value, new value, and for floats the
    distance in ulps.  Renaming the ``.new`` files over the golden ones
    accepts the change."""
    failures = []
    for name, data in pins.items():
        path = os.path.join(GOLDEN_DIR, name)
        try:
            with open(path, "rb") as handle:
                old = handle.read()
        except FileNotFoundError:
            old = None
        if data == old:
            continue
        with open(path + ".new", "wb") as handle:
            handle.write(data)
        if old is None:
            failures.append(f"tests/golden/{name} is missing; wrote {name}.new")
            continue
        lines = list(_json_diff(json.loads(old), json.loads(data), ""))
        if not lines:
            lines = ["no JSON value moved: only formatting or key order"]
        shown = lines[:20]
        if len(lines) > len(shown):
            shown.append(f"... and {len(lines) - len(shown)} more")
        failures.append(f"tests/golden/{name} differs; wrote {name}.new\n  "
                        + "\n  ".join(shown))
    if failures:
        pytest.fail("\n".join(failures), pytrace=False)


def _json_diff(old, new, path):
    """One line per value that differs between two parsed JSON documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(key for key in new if key not in old)]:
            at = f"{path}.{key}" if path else key
            if key not in new:
                yield f"{at}: {reprlib.repr(old[key])} -> (removed)"
            elif key not in old:
                yield f"{at}: (added) -> {reprlib.repr(new[key])}"
            else:
                yield from _json_diff(old[key], new[key], at)
    elif isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_diff(a, b, f"{path}[{i}]")
        if len(old) != len(new):
            yield f"{path or '(root)'}: length {len(old)} -> {len(new)}"
    elif type(old) is not type(new) or repr(old) != repr(new):
        ulps = f" ({_ulps(old, new)} ulp)" if type(old) is type(new) is float else ""
        yield f"{path or '(root)'}: {old!r} -> {new!r}{ulps}"


def _ulps(a: float, b: float) -> int:
    """The number of float64 steps between ``a`` and ``b``."""
    bits = struct.unpack("<2q", struct.pack("<2d", a, b))
    low, high = sorted(r if r >= 0 else -2**63 - r for r in bits)
    return high - low
