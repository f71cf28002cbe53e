"""The shipped configs are what ``tools/make_configs.py`` builds: each
payload it builds, serialized, is its file under ``configs/`` byte for
byte (the script is loaded and its builders called; nothing is written)."""

import importlib.util
import os

import pytest

from moikit import serialization as ser

from conftest import CONFIG_DIR, config_path

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "tools", "make_configs.py")


@pytest.fixture(scope="module")
def payloads():
    spec = importlib.util.spec_from_file_location("make_configs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return {**script.build_tailbound_configs(), **script.build_demo_configs()}


def test_every_shipped_config_is_built(payloads):
    shipped = sorted(name[: -len(".json")] for name in os.listdir(CONFIG_DIR)
                     if name.endswith(".json"))
    assert sorted(payloads) == shipped


def test_the_built_configs_are_the_shipped_bytes(payloads):
    for name, payload in payloads.items():
        with open(config_path(f"{name}.json")) as handle:
            assert ser.dumps_deterministic(payload) == handle.read(), name
