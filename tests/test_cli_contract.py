"""The command-line contract, checked on one-leaf edits of every shipped
payload: when ``validate`` says ok, the command exits 0, 3 or 4 (3 with one
``error:`` line); when it says not ok, the command exits 2 with that
diagnostic as its one ``error:`` line.  No payload ends in a traceback,
and none prints a numpy warning, which the suite turns into an error.

The edits come from a fixed, seeded table: each case picks a shipped
config, one of its fields (every entry of a matrix, list or tensor counts
as one field), one leaf of that field, and an edit that applies to the
leaf: scale a number by 1e150 or 1e300, set it to 0, NaN or inf, move an
integer by one, or swap the leaf's type.  Sample counts are cut first, to
1000 for a tail bound and 2 samples by 2 steps for ``conv-mean``.
"""

import copy
import json
import os
import random
from collections import Counter

import pytest

from moikit.cli import _COMMANDS, main

from conftest import CONFIG_DIR

SHIPPED = sorted(os.listdir(CONFIG_DIR))
CASES_PER_CONFIG = 20
SEED = 37


def _load(name):
    with open(os.path.join(CONFIG_DIR, name)) as handle:
        return json.load(handle)


def _command(payload) -> str:
    return next(name for name, c in _COMMANDS.items() if c.request == payload["kind"])


def _cut(payload):
    """The payload at the contract's sample counts."""
    if payload["kind"] == "tail_bound_experiment":
        return {**payload, "samples": 1000}
    if payload["kind"] == "convergence_request":
        return {**payload, "samples": 2, "steps": 2}
    return payload


def _leaves(value, path=()):
    """The path of every scalar in a JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path


def _field(path) -> str:
    """The field a leaf belongs to: its path with the list indices dropped."""
    return ".".join(str(key) for key in path if isinstance(key, str))


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


EDITS = {
    "times_1e150": (_number, lambda v: v * 1e150),
    "times_1e300": (_number, lambda v: v * 1e300),
    "zero": (_number, lambda v: 0),
    "nan": (_number, lambda v: float("nan")),
    "inf": (_number, lambda v: float("inf")),
    "plus_one": (lambda v: isinstance(v, int) and not isinstance(v, bool), lambda v: v + 1),
    "minus_one": (lambda v: isinstance(v, int) and not isinstance(v, bool), lambda v: v - 1),
    "to_string": (lambda v: not isinstance(v, str), lambda v: json.dumps(v)),
    "to_number": (lambda v: not _number(v), lambda v: 1),
    "to_list": (lambda v: True, lambda v: [v]),
}


def _cases():
    """(config, leaf path, edit name) for every case, from the seeded table."""
    rng = random.Random(SEED)
    cases = []
    for name in SHIPPED:
        payload = _cut(_load(name))
        fields = {}
        for path in _leaves(payload):
            fields.setdefault(_field(path), []).append(path)
        keys = sorted(fields)
        for _ in range(CASES_PER_CONFIG):
            path = rng.choice(fields[rng.choice(keys)])
            value = _at(payload, path)
            edit = rng.choice([e for e, (applies, _) in EDITS.items() if applies(value)])
            cases.append((name, path, edit))
    return cases


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _edited(payload, path, edit):
    payload = copy.deepcopy(payload)
    parent = _at(payload, path[:-1])
    parent[path[-1]] = EDITS[edit][1](parent[path[-1]])
    return payload


def _case_id(name, path, edit) -> str:
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return f"{name[:-len('.json')]}{where}-{edit}"


CASES = _cases()

# cases whose disagreement the parse step cannot mend, with the reason
KNOWN = {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def test_the_table_is_large_and_fixed():
    assert len(CASES) >= 300
    assert len({_case_id(*case) for case in CASES}) > 250
    assert {edit for _, _, edit in CASES} == set(EDITS)
    assert CASES == _cases()


@pytest.mark.parametrize("name, path, edit", [
    pytest.param(*case, id=_case_id(*case),
                 marks=[pytest.mark.xfail(strict=True, reason=KNOWN[_case_id(*case)])]
                 if _case_id(*case) in KNOWN else [])
    for case in CASES
])
def test_validate_and_the_command_agree(workdir, capsys, name, path, edit):
    payload = _cut(_load(name))
    command = _command(payload)
    _check_the_contract(workdir, capsys, command, _edited(payload, path, edit))


def _scaled_fields():
    """(config, field, factor) for each field that holds two numbers or more."""
    cases = []
    for name in SHIPPED:
        payload = _cut(_load(name))
        counts = Counter(_field(path) for path in _leaves(payload) if _number(_at(payload, path)))
        cases += [(name, field, factor) for field in sorted(counts) if counts[field] > 1
                  for factor in (1e200, 1e300)]
    return cases


@pytest.mark.parametrize("name, field, factor", [
    pytest.param(*case, id=f"{case[0][:-len('.json')]}.{case[1]}-{case[2]:g}")
    for case in _scaled_fields()
])
def test_a_whole_field_scaled_toward_overflow(workdir, capsys, name, field, factor):
    # every number of a matrix, list or tensor at once: a numpy warning on
    # the way to the error line would be a second stderr line
    payload = _cut(_load(name))
    for path in _leaves(payload):
        value = _at(payload, path)
        if _field(path) == field and _number(value):
            _at(payload, path[:-1])[path[-1]] = value * factor
    _check_the_contract(workdir, capsys, _command(payload), payload)


def _check_the_contract(workdir, capsys, command, payload):
    source = workdir / "input.json"
    source.write_text(json.dumps(payload))
    report_path = workdir / "validate.json"
    assert main(["validate", "--input", str(source), "--command", command,
                 "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    capsys.readouterr()
    code = main([command, "--input", str(source), "--output", str(workdir / "out.json")])
    errors = capsys.readouterr().err.splitlines()
    if report["ok"]:
        assert code in (0, 3, 4)
        assert len(errors) == (1 if code == 3 else 0)
        assert all(line.startswith("error: ") for line in errors)
    else:
        assert code == 2
        assert len(report["diagnostics"]) == 1
        assert errors == [f"error: {report['diagnostics'][0]}"]
