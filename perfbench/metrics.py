"""Metric names, units and directions: the one list ``run.py`` reports
from and ``BENCHMARK.json`` must match (a test compares them)."""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_s", "s", "lower", 0.25),
    Metric("op_tail_s", "s", "lower", 0.25),
    Metric("fetches_per_s", "1/s", "higher", 0.25),
    Metric("reduction_pct", "%", "higher", 0.01),
    Metric("ok_ops_ratio", "ratio", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: encoder backends, as ``repro.baselines.protocol.registered_schemes()``
#: returns them (a test keeps the two in step)
SCHEMES = ("bus-invert", "frequency", "gray", "low-weight", "memoryless", "t0")

#: span name -> per-layer metric of its mean self seconds per op
SPAN_METRICS = {
    "workloads.build": "workloads.build_s",
    "workloads.verify": "workloads.verify_s",
    "isa.assemble": "isa.assemble_s",
    "sim.run": "sim.run_s",
    "sim.count_transitions": "sim.count_transitions_s",
    "cfg.build": "cfg.build_s",
    "cfg.profile": "cfg.profile_s",
    "cfg.loops": "cfg.loops_s",
    "cfg.select": "cfg.select_s",
    "core.encode": "core.encode_s",
    "core.codebook": "core.codebook_s",
    "hw.decode_trace": "hw.decode_trace_s",
    "pipeline.flow": "pipeline.flow_self_s",
    "pipeline.selector": "pipeline.selector_self_s",
    "pipeline.bundle_build": "pipeline.bundle_build_s",
    "pipeline.bundle_load": "pipeline.bundle_load_s",
    "pipeline.deploy_check": "pipeline.deploy_check_s",
    **{
        f"baselines.{scheme}.{step}": f"baselines.{scheme}.{step}_s"
        for scheme in SCHEMES
        for step in ("fit", "encode", "decode")
    },
}

_s = lambda name: Metric(name, "s", "lower")  # noqa: E731

PER_LAYER = (
    _s("workloads.build_s"),
    _s("workloads.verify_s"),
    _s("isa.assemble_s"),
    _s("sim.run_s"),
    Metric("sim.fetches", "count", "lower"),
    Metric("sim.fetches_per_s", "1/s", "higher"),
    _s("sim.count_transitions_s"),
    _s("cfg.build_s"),
    _s("cfg.profile_s"),
    _s("cfg.loops_s"),
    _s("cfg.select_s"),
    _s("core.encode_s"),
    _s("core.codebook_s"),
    Metric("core.blocks_encoded", "count", "lower"),
    Metric("core.codebook_hit_ratio", "ratio", "higher"),
    _s("hw.decode_trace_s"),
    Metric("hw.fetches_decoded", "count", "lower"),
    _s("pipeline.flow_self_s"),
    _s("pipeline.selector_self_s"),
    _s("pipeline.bundle_build_s"),
    _s("pipeline.bundle_load_s"),
    _s("pipeline.deploy_check_s"),
    Metric("pipeline.regions", "count", "lower"),
    Metric("pipeline.selector_useful_fit_ratio", "ratio", "higher"),
    Metric("pipeline.disqualified_ratio", "ratio", "lower"),
    *(
        _s(f"baselines.{scheme}.{step}_s")
        for scheme in SCHEMES
        for step in ("fit", "encode", "decode")
    ),
    Metric("baselines.words_fitted", "count", "lower"),
    _s("cli.interpreter_s"),
    _s("cli.import_s"),
    _s("cli.import_numpy_s"),
    _s("cli.import_networkx_s"),
    _s("cli.command_s"),
    _s("trace.op_p50_s"),
    _s("trace.overhead_s"),
    _s("trace.unattributed_s"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def result_line(correct: bool, attempted: int, failed: int, values: dict) -> dict:
    """The benchmark's final JSON object."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }
