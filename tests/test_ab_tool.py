"""``tools/ab.py``: the interleaved A/B of two source trees."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_ab(old, new, *options):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab.py"), *options, "calculus_nonpoly",
         old, new, "2"], capture_output=True, text=True, timeout=60)


def scaled_tree(tmp_path, factor):
    """A copy of the package whose ``kth_derivative`` results are scaled by
    ``factor``."""
    shutil.copytree(os.path.join(SRC, "moikit"), tmp_path / "moikit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "moikit" / "calculus.py", "a") as handle:
        handle.write("\n_kth_derivative = kth_derivative\n\n\n"
                     "def kth_derivative(*args):\n"
                     f"    return _kth_derivative(*args) * {factor!r}\n")
    return str(tmp_path)


def test_same_tree_matches_and_reports_each_part():
    done = run_ab(SRC, SRC)
    assert done.returncode == 0, done.stderr
    header, row, *metrics = done.stdout.splitlines()
    assert header.split()[:3] == ["part", "old", "us/op"]
    assert row.split()[0] == "instance" and row.split()[-1].endswith("/2")
    assert [line.split()[0] for line in metrics] == ["ops_per_s", "part_us_gmean"]
    # with one part, the gmean is that part's median
    assert float(metrics[1].split()[1]) == pytest.approx(float(row.split()[1]), abs=0.1)
    assert all(line.split()[-1].endswith("/2") for line in metrics)


def test_a_changed_output_names_the_part(tmp_path):
    done = run_ab(SRC, scaled_tree(tmp_path, 1 + 2**-52))
    assert done.returncode == 1
    assert done.stderr.strip() == "outputs differ: round 0, part instance"


def test_rtol_passes_a_one_ulp_change_and_reports_it(tmp_path):
    done = run_ab(SRC, scaled_tree(tmp_path, 1 + 2**-52), "--rtol", "1e-12")
    assert done.returncode == 0, done.stderr
    header, row, *metrics = done.stdout.splitlines()
    assert header.split()[-2:] == ["max", "dev"]
    # the remainders subtract the derivatives, which amplifies their change
    assert 2**-53 <= float(row.split()[-1]) <= 1e-12
    assert [line.split()[0] for line in metrics] == ["ops_per_s", "part_us_gmean"]


def test_rtol_fails_a_larger_change(tmp_path):
    done = run_ab(SRC, scaled_tree(tmp_path, 1 + 1e-9), "--rtol", "1e-12")
    assert done.returncode == 1
    head, tail = done.stderr.strip().split(" > ")
    assert head.startswith("outputs differ by ") and float(head.split()[-1]) >= 1e-9
    assert tail == "1e-12: round 0, part instance"
