"""What one op of each workload does, and how its output is checked.

``execute`` is the timed part: exactly the calls a user of the
library or CLI makes.  ``check`` runs after the op's clock stopped and
raises :class:`CheckFailed` when an output is wrong; it returns the
op's measured quantities and the fields that enter the output digest.

``repro`` is imported inside :meth:`setup` and the op bodies, never at
module import, because what importing costs is part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

from perfbench.plan import BLOCK_SIZES, Op
from perfbench.spans import SpanRecorder, now

CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An op produced a wrong or unverifiable output."""


@dataclass
class Outcome:
    """The measured quantities of one op, known once it was checked."""

    fetches: int
    baseline: int
    encoded: int
    #: output identity (bundle sha256 per k, ...) for the digest
    outputs: list
    #: per-op figures the traced run reports (regions, fits ...)
    extra: dict = field(default_factory=dict)

    def record(self) -> dict:
        return {
            "fetches": self.fetches,
            "baseline": self.baseline,
            "encoded": self.encoded,
            "outputs": self.outputs,
        }


def recount_transitions(image, text_base: int, trace) -> int:
    """Bus transitions over ``trace`` fetching from ``image``: XOR of
    consecutive fetched words, popcount, summed.  Written apart from
    ``repro.sim.bus`` so that it can check it."""
    import numpy as np

    words = np.asarray(image, dtype=np.uint32)
    index = (np.asarray(trace, dtype=np.int64) - text_base) >> 2
    if index.size and (index.min() < 0 or index.max() >= words.size):
        raise CheckFailed("trace fetches outside the text image")
    fetched = words[index]
    toggles = fetched[1:] ^ fetched[:-1]
    return int(np.unpackbits(toggles.view(np.uint8)).sum())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class InProcess:
    """Shared set-up of the two workloads that call the library."""

    def setup(self) -> list:
        """Import the entry points and compile the codebooks of every
        block size, so that ops run against a warm cache; returns the
        compiled codebooks."""
        import repro.baselines  # noqa: F401  (registers the encoder zoo)
        import repro.pipeline.bundle  # noqa: F401
        import repro.pipeline.flow  # noqa: F401
        import repro.pipeline.selector  # noqa: F401
        import repro.sim.cpu  # noqa: F401
        import repro.workloads.registry  # noqa: F401
        from repro.core import get_codebook

        return [get_codebook(k) for k in BLOCK_SIZES]

    @staticmethod
    def simulate(op: Op):
        """Build, assemble, simulate and verify the op's kernel."""
        from repro.sim import cpu as cpu_module
        from repro.workloads import registry

        workload = registry.build_workload(op.kernel, **op.params)
        program = workload.assemble()
        cpu, trace = cpu_module.run_program(program)
        if workload.verify is not None:
            workload.verify(cpu)
        return program, trace


class Fig6Suite(InProcess):
    """One kernel through ``EncodingFlow`` at k=4..7, as ``repro suite``."""

    def execute(self, op: Op, rec: SpanRecorder | None = None):
        from repro.pipeline import flow

        program, trace = self.simulate(op)
        results = [
            flow.EncodingFlow(block_size=k).run(program, trace, op.kernel)
            for k in op.block_sizes
        ]
        return program, trace, results

    def check(self, op: Op, out) -> Outcome:
        from repro.pipeline.bundle import EncodingBundle

        program, trace, results = out
        base = program.text_base
        baseline = recount_transitions(program.words, base, trace)
        outputs = []
        for result in results:
            k = result.block_size
            _require(result.decode_verified, f"k={k}: decode not verified")
            _require(
                result.baseline_transitions == baseline,
                f"k={k}: baseline {result.baseline_transitions} != "
                f"recount {baseline}",
            )
            encoded = recount_transitions(result.encoded_image, base, trace)
            _require(
                result.encoded_transitions == encoded,
                f"k={k}: encoded {result.encoded_transitions} != "
                f"recount {encoded}",
            )
            bundle = EncodingBundle.from_flow_result(program, result).to_json()
            outputs.append([k, _sha256(bundle)])
        return Outcome(
            fetches=len(trace),
            baseline=sum(r.baseline_transitions for r in results),
            encoded=sum(r.encoded_transitions for r in results),
            outputs=outputs,
        )


@dataclass
class SelectOutput:
    program: object
    trace: list
    result: object
    best_single: int
    bundle_json: str | None
    roundtrip_ok: bool | None


class SelectPerRegion(InProcess):
    """``repro encode --select-per-region``'s path, in process."""

    def execute(self, op: Op, rec: SpanRecorder | None = None) -> SelectOutput:
        from repro.pipeline import bundle as bundle_module
        from repro.pipeline import selector

        program, trace = self.simulate(op)
        (k,) = op.block_sizes
        result = selector.SchemeSelector(block_size=k).run(
            program, trace, name=op.kernel
        )
        # the CLI's never-worse gate ...
        schemes = {s for choice in result.choices for s in choice.candidates}
        best_single = min(
            (result.single_scheme_transitions(s) for s in schemes),
            default=result.baseline_transitions,
        )
        if result.mixed_transitions > best_single:
            return SelectOutput(program, trace, result, best_single, None, None)
        # ... then deploy-and-check through the serialised bundle
        bundle_json = result.bundle.to_json()
        reloaded = bundle_module.EncodingBundle.from_json(bundle_json)
        ok = reloaded.deploy_and_check(program, trace)
        return SelectOutput(program, trace, result, best_single, bundle_json, ok)

    def check(self, op: Op, out: SelectOutput) -> Outcome:
        from repro.baselines.protocol import registered_schemes

        result = out.result
        _require(
            result.mixed_transitions <= out.best_single,
            f"never-worse gate: mixed {result.mixed_transitions} > best "
            f"single scheme {out.best_single}",
        )
        _require(out.roundtrip_ok is True,
                 "bundle JSON round trip failed deploy_and_check")
        baseline = recount_transitions(
            out.program.words, out.program.text_base, out.trace
        )
        _require(
            result.baseline_transitions == baseline,
            f"baseline {result.baseline_transitions} != recount {baseline}",
        )
        zoo = set(registered_schemes())
        evaluated = sum(1 for c in result.choices for s in c.candidates if s in zoo)
        disqualified = sum(
            1 for c in result.choices for s, cost in c.candidates.items()
            if s in zoo and cost is None
        )
        return Outcome(
            fetches=len(out.trace),
            baseline=result.baseline_transitions,
            encoded=result.mixed_transitions,
            outputs=[[op.block_sizes[0], _sha256(out.bundle_json)]],
            extra={
                "regions": len(result.choices),
                "zoo_wins": sum(1 for c in result.choices if c.scheme in zoo),
                "candidates": evaluated,
                "disqualified": disqualified,
            },
        )


_TRACE_RE = re.compile(r"^trace:\s+(\d+) fetches$", re.M)
_TRANSITIONS_RE = re.compile(r"^transitions:\s+(\d+) -> (\d+) ", re.M)
_BUNDLE_RE = re.compile(r"^bundle:\s+sha256 ([0-9a-f]{64}) ", re.M)


class CliEncodeCold:
    """``python -m repro encode <kernel> -k <k>`` in a fresh process."""

    def __init__(self, root: str, env: dict, spans_dir: str) -> None:
        self.root = root
        self.env = env
        self.spans_dir = spans_dir

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def setup(self) -> list:
        """Import the CLI once in a child: it proves the package imports
        and warms the file cache, so op 1 is not an outlier."""
        probe = self._python("-c", "import repro.cli")
        if probe.returncode != 0:
            raise RuntimeError(f"import repro.cli failed:\n{probe.stderr}")
        return []

    def execute(self, op: Op, rec: SpanRecorder | None = None):
        (k,) = op.block_sizes
        command = ["encode", op.kernel, "-k", str(k)]
        if rec is None:
            return self._python("-m", "repro", *command)
        # traced: the same command under a shim that records spans
        path = os.path.join(self.spans_dir, f"op{op.index}.json")
        spawned = now()
        done = self._python("-m", "perfbench.cli_child", path, *command)
        with open(path) as handle:
            child = json.load(handle)
        os.unlink(path)
        root = rec.current
        startup = rec.begin("cli.startup", spawned)
        rec.end(startup, child["started"])
        rec.adopt(child["spans"], root)
        for name, amount in child["counts"].items():
            rec.count(name, amount)
        return done

    def check(self, op: Op, out: subprocess.CompletedProcess) -> Outcome:
        _require(out.returncode == 0,
                 f"exit status {out.returncode}: {out.stderr.strip()[-300:]}")
        _require("decode:        verified bit-exact" in out.stdout,
                 "no 'verified bit-exact' line")
        trace = _TRACE_RE.search(out.stdout)
        transitions = _TRANSITIONS_RE.search(out.stdout)
        bundle = _BUNDLE_RE.search(out.stdout)
        _require(bool(trace and transitions and bundle),
                 "unparseable encode report")
        baseline, encoded = int(transitions[1]), int(transitions[2])
        _require(0 <= encoded <= baseline,
                 f"encoded {encoded} exceeds baseline {baseline}")
        return Outcome(
            fetches=int(trace[1]),
            baseline=baseline,
            encoded=encoded,
            outputs=[[op.block_sizes[0], bundle[1]]],
        )


def make(workload: str, root: str, env: dict, spans_dir: str):
    if workload == "fig6-suite":
        return Fig6Suite()
    if workload == "select-per-region":
        return SelectPerRegion()
    if workload == "cli-encode-cold":
        return CliEncodeCold(root, env, spans_dir)
    raise KeyError(workload)
