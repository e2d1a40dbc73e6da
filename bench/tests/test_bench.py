"""Tests of the benchmark's own code; not part of the library's suite.

    python3 -m pytest -q bench/tests
"""

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dgres import exactla, resolve  # noqa: E402


def test_self_times_on_nested_tree():
    # q [0,20] > a [1,9] > (b [2,4], c [5,8] > d [6,7]);  q > e [10,16]
    spans = [
        ("q", 0, 20, -1),
        ("a", 1, 9, 0),
        ("b", 2, 4, 1),
        ("c", 5, 8, 1),
        ("d", 6, 7, 3),
        ("e", 10, 16, 0),
    ]
    assert tracer.self_times(spans) == [20 - 8 - 6, 8 - 2 - 3, 2, 3 - 1, 1, 6]
    # self times partition the root interval
    assert sum(tracer.self_times(spans)) == 20


def test_self_times_clip_overlapping_children():
    # children that overlap each other or stick out of the parent are
    # counted once, and only inside the parent's interval
    spans = [("p", 0, 10, -1), ("x", 2, 6, 0), ("y", 4, 12, 0)]
    assert tracer.self_times(spans)[0] == 2


def test_group_totals_count_outermost_spans_only():
    spans = [
        ("q", 0, 20, -1),
        ("validate", 1, 9, 0),
        ("validate_module", 2, 8, 1),
        ("validate_module", 10, 13, 0),
        ("other", 14, 19, 0),
        ("validate_module", 15, 16, 4),
    ]
    totals = tracer.group_totals(spans, {"v": ("validate", "validate_module"), "o": ("other",)})
    assert totals == {"v": 8 + 3 + 1, "o": 5}


def snapshot():
    return {(name, attr): obj for name, mod in tracer.MODULES.items() for attr, obj in vars(mod).items()}


def test_traced_run_restores_every_attribute(capsys):
    before = snapshot()
    with tracer.Tracer():
        assert exactla.rref is not before[("exactla", "rref")]
        assert resolve._strict_map_to_psi is not before[("resolve", "_strict_map_to_psi")]
    assert run.main(["--workload", "battery-gldim", "--seed", "0", "--seconds", "1", "--trace", "1"]) == 0
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["exactla.rref.calls"]["value"] > 0
    assert metrics["textio.parse.total_s"]["value"] > 0
    assert metrics["dgcore.validate.total_s"]["value"] > 0


def test_timed_run_keeps_the_original_modules(capsys):
    # the set-up probes import dgres afresh; the queries must keep the originals
    before = {k: m for k, m in sys.modules.items() if k.startswith("dgres")}
    assert run.main(["--workload", "battery-gldim", "--seed", "0", "--seconds", "1", "--trace", "0"]) == 0
    assert {k: m for k, m in sys.modules.items() if k.startswith("dgres")} == before
    assert sys.modules["workloads"] is workloads
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["metrics"]["setup_s"]["value"] > 0


def test_wrong_pinned_value_is_a_failure():
    reference = workloads.load_reference()
    wrong = copy.deepcopy(reference)
    wrong["pd-k2"]["pd(S)"]["value"] = {"at_least": 7}
    inst = workloads.WORKLOADS["pd-k2"].setup(0)
    loop = run.timed_loop("pd-k2", inst, 0, 0, wrong)
    assert len(loop.walls) == 1 and len(loop.errors) == 1
    assert "pd(S)" in loop.errors[0][0]
    assert run.timed_loop("pd-k2", inst, 0, 0, reference).errors == []


def test_route_disagreement_is_a_failure():
    reference = workloads.load_reference()
    outputs = copy.deepcopy(reference["tables-k2"])
    outputs["rhom(S,S)"] = {"dims": {"0": 1}}
    wrong = copy.deepcopy(reference)
    wrong["tables-k2"]["rhom(S,S)"] = {"dims": {"0": 1}}
    bad = workloads.problems("tables-k2", outputs, wrong)
    assert len(bad) == 1 and bad[0].startswith("routes disagree")


def test_another_seed_reproduces_the_pins():
    reference = workloads.load_reference()
    for name, wl in workloads.WORKLOADS.items():
        assert workloads.problems(name, wl.query(wl.setup(7), 7), reference) == [], name
