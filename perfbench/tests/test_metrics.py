import json
import os

import pytest

from perfbench import metrics, plan
from perfbench.instrument import HOOKS
from perfbench.metrics import END_TO_END, NAME_RE, PER_LAYER, SPAN_METRICS, UNIT_RE
from perfbench.tests.conftest import ROOT

ALL = END_TO_END + PER_LAYER


def test_names_and_units_are_well_formed():
    names = [m.name for m in ALL]
    assert len(names) == len(set(names))
    for m in ALL:
        assert NAME_RE.fullmatch(m.name), m.name
        assert UNIT_RE.fullmatch(m.unit), (m.name, m.unit)
        assert m.better in ("lower", "higher")


def test_end_to_end_bounds():
    for m in END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    for m in PER_LAYER:
        assert m.bound is None


def test_span_metrics_are_reported():
    layer = {m.name for m in PER_LAYER}
    assert set(SPAN_METRICS.values()) <= layer
    for _, _, span, _ in HOOKS:
        assert span in SPAN_METRICS


def test_schemes_match_the_registry():
    from repro.baselines.protocol import registered_schemes

    assert metrics.SCHEMES == registered_schemes()


def test_result_line_carries_units():
    line = metrics.result_line(True, 3, 0, {"setup_s": 1.5, "sim.fetches": 10})
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            "setup_s": {"value": 1.5, "unit": "s"},
            "sim.fetches": {"value": 10, "unit": "count"},
        },
    }


def test_benchmark_json_matches():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside the benchmark")
    with open(path) as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
