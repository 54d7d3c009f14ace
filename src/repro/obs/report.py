"""Machine-readable run reports: ``RUN_report.json``.

A run report is one self-describing snapshot of a process's
observability state — the metric registry, the span tree, and enough
provenance (git SHA, platform, Python version, seed, command) to
compare the same command across machines and PRs.  ``repro encode
--metrics`` writes one; ``repro metrics`` / ``repro trace`` read them
back; CI uploads them as artifacts so the perf trajectory has a
durable, diffable record.

The schema is deliberately flat and versioned
(:data:`REPORT_SCHEMA_VERSION`); :func:`validate_run_report` performs
the structural check both the tests and the ``repro metrics --check``
gate rely on, without any external JSON-schema dependency.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "EXPECTED_ENCODE_FAMILIES",
    "EXPECTED_SERVE_FAMILIES",
    "EXPECTED_STORAGE_FAMILIES",
    "RunReport",
    "git_revision",
    "load_run_report",
    "validate_run_report",
]

REPORT_SCHEMA_VERSION = 1

#: Metric families a ``repro encode --metrics`` run is expected to
#: populate, layer by layer.  ``repro metrics --check`` (and the CI
#: observability smoke job) fails when any of these is absent — the
#: canary for silently dropped instrumentation.
EXPECTED_ENCODE_FAMILIES = (
    "sim.instructions",
    "sim.fetches",
    "sim.block_runs",
    "flow.runs",
    "flow.baseline_transitions",
    "flow.encoded_transitions",
    "flow.hot_coverage",
    "codec.blocks_encoded",
    "codec.words_encoded",
    "decoder.decoded_instructions",
    "decoder.tt_reads",
    "decoder.bbit_lookups",
    "codec.bitplane_words_decoded",
    "bus.transitions_measured",
    "bus.trace_histograms",
)

#: Metric families a ``repro serve --metrics`` run must populate —
#: the server pre-registers every one at startup, so even a run with
#: zero sheds / retries / timeouts exposes the family (a zero is an
#: answer; an absent family is dropped instrumentation).
EXPECTED_SERVE_FAMILIES = (
    "serve.jobs_accepted",
    "serve.jobs_completed",
    "serve.jobs_shed",
    "serve.jobs_retried",
    "serve.jobs_deadline_exceeded",
    "serve.queue_depth",
    "serve.job_seconds",
    # PR 8 telemetry plane: cross-process delta merge + SLO layer.
    "serve.telemetry_deltas_merged",
    "serve.worker_spans_adopted",
    "serve.pool_rebuilds",
    "slo.jobs_observed",
    "slo.bad_jobs",
    "slo.burn_rate",
    # PR 9 storage hardening: the ENOSPC degradation path.
    "serve.storage_degraded",
)

#: Metric families a ``repro faults --storage --metrics`` run must
#: populate — the storage campaign pre-registers every one, so even a
#: sweep whose cache/flight legs found nothing exposes the family (the
#: canary for a silently skipped leg).
EXPECTED_STORAGE_FAMILIES = (
    "storage.injected_faults",
    "cache.corrupt_entries",
    "flight.dump_errors",
)


@lru_cache(maxsize=1)
def git_revision() -> str:
    """The repository HEAD SHA, or ``"unknown"`` outside a checkout.

    ``REPRO_GIT_SHA`` overrides (for containers that ship the source
    without its ``.git``).
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata(command: str | None = None, seed: int | None = None) -> dict:
    """The provenance block every report and benchmark file carries."""
    return {
        "git_sha": git_revision(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timestamp_unix": time.time(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "command": command,
        "seed": seed,
    }


@dataclass
class RunReport:
    """One observability snapshot, ready to serialise."""

    meta: dict
    metrics: dict
    trace: dict
    schema_version: int = REPORT_SCHEMA_VERSION
    extra: dict = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        registry: MetricsRegistry,
        tracer: Tracer,
        command: str | None = None,
        seed: int | None = None,
        extra: dict | None = None,
    ) -> "RunReport":
        meta = run_metadata(command=command, seed=seed)
        meta["run_id"] = tracer.run_id
        return cls(
            meta=meta,
            metrics=registry.snapshot(),
            trace=tracer.snapshot(),
            extra=dict(extra or {}),
        )

    def to_dict(self) -> dict:
        data = {
            "generated_by": "repro.obs.report",
            "schema_version": self.schema_version,
            "meta": self.meta,
            "metrics": self.metrics,
            "trace": self.trace,
        }
        if self.extra:
            data["extra"] = self.extra
        return data

    def write(self, path: str | Path = "RUN_report.json", vfs=None) -> Path:
        from repro.runtime import atomic_write_text

        path = Path(path)
        # Atomic: a crash mid-write never leaves a truncated report —
        # readers see the complete old report or the complete new one.
        atomic_write_text(
            path, json.dumps(self.to_dict(), indent=1) + "\n", vfs=vfs
        )
        return path


def load_run_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def validate_run_report(data: dict) -> list[str]:
    """Structural schema check; returns problems (empty == valid)."""
    problems: list[str] = []

    def need(container: dict, key: str, where: str, types) -> object:
        if key not in container:
            problems.append(f"{where}: missing key {key!r}")
            return None
        value = container[key]
        if not isinstance(value, types):
            problems.append(
                f"{where}.{key}: expected {types}, got {type(value).__name__}"
            )
            return None
        return value

    if not isinstance(data, dict):
        return ["report must be a JSON object"]
    version = need(data, "schema_version", "report", int)
    if version is not None and version > REPORT_SCHEMA_VERSION:
        problems.append(
            f"report: schema_version {version} is newer than the "
            f"supported {REPORT_SCHEMA_VERSION}"
        )
    meta = need(data, "meta", "report", dict)
    if meta is not None:
        for key in ("run_id", "git_sha", "platform", "python", "timestamp_unix"):
            need(meta, key, "meta", (str, int, float))
    metrics = need(data, "metrics", "report", dict)
    if metrics is not None:
        for name, family in metrics.items():
            if not isinstance(family, dict):
                problems.append(f"metrics.{name}: family must be an object")
                continue
            type_ = need(family, "type", f"metrics.{name}", str)
            if type_ is not None and type_ not in (
                "counter",
                "gauge",
                "histogram",
            ):
                problems.append(f"metrics.{name}: unknown type {type_!r}")
            series = need(family, "series", f"metrics.{name}", list)
            if series is not None:
                for i, entry in enumerate(series):
                    if not isinstance(entry, dict) or "labels" not in entry:
                        problems.append(
                            f"metrics.{name}.series[{i}]: must be an object "
                            "with labels"
                        )
    trace = need(data, "trace", "report", dict)
    if trace is not None:
        need(trace, "run_id", "trace", str)
        need(trace, "by_name", "trace", dict)
        spans = need(trace, "spans", "trace", list)
        if spans is not None:
            for i, span in enumerate(spans):
                if not isinstance(span, dict):
                    problems.append(f"trace.spans[{i}]: must be an object")
                    continue
                for key in ("name", "duration_s", "depth"):
                    need(span, key, f"trace.spans[{i}]", (str, int, float))
    return problems


def missing_families(data: dict, expected=EXPECTED_ENCODE_FAMILIES) -> list[str]:
    """Expected metric families absent from a report's snapshot."""
    metrics = data.get("metrics", {})
    return [name for name in expected if name not in metrics]
