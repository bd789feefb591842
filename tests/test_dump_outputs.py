"""``scripts/dump_outputs.py --compare``: changed, removed and added
leaves are told apart, and only changed or removed ones fail."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dump_outputs.py"


@pytest.fixture(scope="module")
def dump_outputs():
    spec = importlib.util.spec_from_file_location("dump_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compare(dump_outputs, tmp_path, capsys):
    """Run ``--compare`` on two dicts; returns ``(exit code, stdout)``."""

    def run(a: dict, b: dict):
        paths = []
        for name, data in (("a.json", a), ("b.json", b)):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            paths.append(str(path))
        code = dump_outputs.main(["--compare", *paths])
        return code, capsys.readouterr().out

    return run


BASE = {"solve": {"value": 2.0, "lp_stats": {"iterations": 5}}, "k": [4, 6]}


def test_equal_dumps_exit_zero(compare):
    code, out = compare(BASE, json.loads(json.dumps(BASE)))
    assert code == 0
    assert "4 of 4 shared values bitwise-identical" in out
    assert "0 values removed" in out and "0 values added" in out


def test_added_leaf_is_listed_and_exits_zero(compare):
    code, out = compare(BASE, {**BASE, "figures": {"series": [1.5]}})
    assert code == 0
    assert "1 values added\n  /figures/series[0]: 1.5\n" in out
    assert "0 output values changed" in out


def test_removed_leaf_exits_one(compare):
    code, out = compare(BASE, {"solve": BASE["solve"]})
    assert code == 1
    assert "2 values removed\n  /k[0]: 4\n  /k[1]: 6\n" in out


def test_changed_float_exits_one_and_reports_its_relative_change(compare):
    code, out = compare(BASE, {**BASE, "solve": {**BASE["solve"], "value": 2.5}})
    assert code == 1
    assert "largest relative float change: 0.2 at /solve/value" in out
    assert "1 output values changed\n  /solve/value: 2.0 -> 2.5\n" in out


def test_changed_work_count_is_listed_not_counted(compare):
    code, out = compare(
        BASE, {**BASE, "solve": {"value": 2.0, "lp_stats": {"iterations": 6}}}
    )
    assert code == 0
    assert "1 lp_stats work-count values changed" in out
