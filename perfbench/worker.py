"""One benchmark process: set up, then run a workload's ops in a closed
loop with one client, and print the measurements as one JSON line.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker``: each
worker is a fresh interpreter, so the time from spawning it to its
first op is the workload's set-up time.  ``--setup-only`` stops there.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from collections import Counter, defaultdict

from perfbench import ops as ops_module
from perfbench import plan, speed, stats
from perfbench.metrics import PER_LAYER, SPAN_METRICS
from perfbench.spans import OP_SPAN, SpanRecorder, now, self_times

RESULT_MARK = "PERFBENCH_RESULT "
PROBES = 3


def emit(payload: dict) -> None:
    print(RESULT_MARK + json.dumps(payload), flush=True)


class Run:
    """The op loop of one workload and what it measured."""

    def __init__(self, workload: str, bench, trace: bool, books) -> None:
        self.workload = workload
        self.bench = bench
        self.trace = trace
        self.rec = SpanRecorder()
        self.instrumentation = None
        if trace:
            from perfbench.instrument import Instrumentation

            self.instrumentation = Instrumentation(self.rec, books)
        self.walls = {False: [], True: []}  # traced -> op wall times
        self.scaled = {False: [], True: []}  # ... at reference speed
        self.calibrations: list[float] = []
        self.calibration: float | None = None  # the latest sample
        self.first: dict[tuple, dict] = {}  # op inputs -> first output
        self.records: dict[int, dict] = {}  # op index -> untraced outcome
        self.extras: dict[int, dict] = {}
        self.traced_ops: list[int] = []
        self.errors: list[str] = []
        self.attempted = 0

    def run(self, op_list) -> None:
        for op in op_list:
            passes = [False]
            if self.trace:
                passes = [False, True] if op.index % 2 == 0 else [True, False]
            for traced in passes:
                self.one(op, traced)

    def one(self, op, traced: bool) -> None:
        self.attempted += 1
        root = None
        # the calibration right after the previous op is close enough in
        # time to stand for "right before" this one
        before = self.calibration or speed.calibration_s()
        if traced:
            self.instrumentation.install()
        start = now()
        if traced:
            root = self.rec.begin_op(op.index, start)
        try:
            out, error = self.bench.execute(op, self.rec if traced else None), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = now()
        if traced:
            self.rec.end_op(root, end)
            self.instrumentation.uninstall()
            self.traced_ops.append(op.index)
        self.calibration = speed.calibration_s()
        calibration = (before + self.calibration) / 2
        self.calibrations.append(calibration)
        scaled = speed.scaled(end - start, calibration)
        self.walls[traced].append(end - start)
        self.scaled[traced].append(scaled)
        # ---- untimed: check the op's outputs ------------------------
        outcome = None
        if error is None:
            try:
                outcome = self.bench.check(op, out)
            except Exception as exc:  # CheckFailed or a crash while checking
                error = f"{type(exc).__name__}: {exc}"
        if outcome is not None:
            record = outcome.record()
            if self.first.setdefault(op.key(), record) != record:
                error = "output differs from an earlier op with the same inputs"
            self.extras[op.index] = outcome.extra
        if error is not None:
            self.errors.append(f"op {op.index} {op.describe()}: {error}")
            record = {"error": error}
        self.records.setdefault(op.index, {**op.describe(), **record})
        if not traced:
            self.records[op.index].update(wall_s=end - start, scaled_s=scaled)

    # ---- results -------------------------------------------------------

    def summary(self, op_list) -> dict:
        good = [r for r in self.records.values() if "error" not in r]
        baseline = sum(r["baseline"] for r in good)
        encoded = sum(r["encoded"] for r in good)
        digest = hashlib.sha256()
        for op in op_list:
            record = {k: v for k, v in self.records[op.index].items()
                      if k not in ("wall_s", "scaled_s")}
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        shares = Counter(op.kernel for op in op_list)
        items: dict[str, list[float]] = defaultdict(list)
        for record in self.records.values():
            if "scaled_s" in record:
                items[f"{record['kernel']}/{record['size']}"].append(record["scaled_s"])
        lengths = sorted(r["fetches"] for r in good) or [0]
        return {
            "ops": len(op_list),
            "attempted": self.attempted,
            "failed": len(self.errors),
            "errors": self.errors[:5],
            "digest": digest.hexdigest(),
            "reduction_pct": 100.0 * (baseline - encoded) / baseline if baseline else 0.0,
            "kernel_shares": {k: n / len(op_list) for k, n in sorted(shares.items())},
            "block_size_shares": {
                str(k): n / len(op_list)
                for k, n in sorted(Counter(k for op in op_list for k in op.block_sizes).items())
            },
            "trace_length": {
                "min": lengths[0],
                "p50": stats.median(lengths),
                "max": lengths[-1],
            },
            "fetches": sum(r["fetches"] for r in good),
            "item_p50_s": {
                item: stats.median(times) for item, times in sorted(items.items())
            },
        }

    def end_to_end(self) -> dict:
        """End-to-end metrics, times at reference speed; the same
        figures in raw wall time go in ``wall``."""
        good = [r for r in self.records.values() if "error" not in r]
        fetches = sum(r["fetches"] for r in good)
        children = self.workload == "cli-encode-cold"
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        )
        tail = stats.tail(self.scaled[False])
        wall_tail = stats.tail(self.walls[False])
        return {
            "op_p50_s": stats.median(self.scaled[False]),
            "op_tail_s": tail.value,
            "op_tail": {"percentile": tail.percentile, "ops": tail.ops,
                        "beyond": tail.beyond},
            "fetches_per_s": fetches / sum(r["scaled_s"] for r in good),
            "ok_ops_ratio": (self.attempted - len(self.errors)) / self.attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "wall": {
                "op_p50_s": stats.median(self.walls[False]),
                "op_tail_s": wall_tail.value,
                "fetches_per_s": fetches / sum(r["wall_s"] for r in good),
                "calibration_p50_s": stats.median(self.calibrations),
            },
        }

    def per_layer(self, probes: dict) -> tuple[dict, dict]:
        """Per-layer metrics (means per traced op) and the share table."""
        n = len(self.traced_ops)
        spans = self.rec.spans
        own = self_times(spans)
        by_name: dict[str, float] = defaultdict(float)
        per_op_sum: dict[int, float] = defaultdict(float)
        roots = {}
        for span in spans:
            by_name[span.name] += own[span.id]
            per_op_sum[span.op] += own[span.id]
            if span.name == OP_SPAN:
                roots[span.op] = span
        gap = max(abs(per_op_sum[i] - roots[i].duration) for i in roots)
        counts: Counter = Counter()
        for op_counts in self.rec.counts.values():
            counts.update(op_counts)
        values = {m.name: 0.0 for m in PER_LAYER}
        for span_name, metric in SPAN_METRICS.items():
            values[metric] = by_name.get(span_name, 0.0) / n
        for name in ("sim.fetches", "core.blocks_encoded", "hw.fetches_decoded",
                     "baselines.words_fitted"):
            values[name] = counts[name] / n
        run_s = by_name.get("sim.run", 0.0)
        values["sim.fetches_per_s"] = counts["sim.fetches"] / run_s if run_s else 0.0
        calls = counts["core.codebook_calls"]
        values["core.codebook_hit_ratio"] = (
            (calls - counts["core.codebook_compiles"]) / calls if calls else 0.0
        )
        extras = [self.extras[i] for i in self.traced_ops if i in self.extras]
        values["pipeline.regions"] = sum(e.get("regions", 0) for e in extras) / n
        fits = counts["baselines.fits"]
        values["pipeline.selector_useful_fit_ratio"] = (
            sum(e.get("zoo_wins", 0) for e in extras) / fits if fits else 0.0
        )
        candidates = sum(e.get("candidates", 0) for e in extras)
        values["pipeline.disqualified_ratio"] = (
            sum(e.get("disqualified", 0) for e in extras) / candidates
            if candidates else 0.0
        )
        untraced_p50 = stats.median(self.walls[False])
        values.update(probes)
        if self.workload == "cli-encode-cold":
            values["cli.command_s"] = (
                untraced_p50 - probes["cli.interpreter_s"] - probes["cli.import_s"]
            )
        # at reference speed, like op_p50_s of the untraced run
        traced_p50 = stats.median(self.scaled[True])
        values["trace.op_p50_s"] = traced_p50
        values["trace.overhead_s"] = traced_p50 - stats.median(self.scaled[False])
        values["trace.unattributed_s"] = by_name.get(OP_SPAN, 0.0) / n
        total = sum(by_name.values())
        detail = {
            "traced_ops": n,
            "accounting_gap_max_s": gap,
            "untraced_op_p50_s": untraced_p50,
            "self_share": {
                name: by_name[name] / total
                for name in sorted(by_name, key=by_name.get, reverse=True)
            },
        }
        return values, detail


def cli_probes(root: str, env: dict) -> dict:
    """Interpreter start and ``import repro.cli`` cost, from fresh
    processes; numpy and networkx from ``-X importtime`` of an encode."""

    def timed(*args: str) -> tuple[float, str]:
        start = now()
        done = subprocess.run([sys.executable, *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        wall = now() - start
        if done.returncode != 0:
            raise RuntimeError(f"probe {args} failed:\n{done.stderr}")
        return wall, done.stderr

    interpreter = stats.median([timed("-c", "pass")[0] for _ in range(PROBES)])
    imported = stats.median(
        [timed("-c", "import repro.cli")[0] for _ in range(PROBES)]
    )
    packages: dict[str, list[float]] = {"numpy": [], "networkx": []}
    for _ in range(PROBES):
        # a whole encode: networkx is imported by the command, not the CLI
        _, report = timed("-X", "importtime", "-m", "repro", "encode", "conv2d")
        for line in report.splitlines():
            # "import time: self [us] | cumulative | imported package"
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in packages:
                packages[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": imported - interpreter,
        "cli.import_numpy_s": stats.median(packages["numpy"] or [0.0]),
        "cli.import_networkx_s": stats.median(packages["networkx"] or [0.0]),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-dir", required=True)
    args = parser.parse_args(argv)

    # one CPU for the worker, its calibration loop and its children, so
    # that the calibration measures the speed of the CPU the ops ran on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:  # not permitted here: run unpinned, only noisier
        pass
    root = os.getcwd()
    env = dict(os.environ)
    bench = ops_module.make(args.workload, root, env, args.spans_dir)
    books = bench.setup()
    ready = now()
    calibration = speed.calibration_s()
    if args.setup_only:
        emit({"ready": ready, "calibration": calibration})
        return 0

    op_list = plan.generate(args.workload, args.seed, args.seconds)
    run = Run(args.workload, bench, bool(args.trace), books)
    run.run(op_list)
    result = {"ready": ready, "calibration": calibration,
              "summary": run.summary(op_list)}
    if args.trace:
        values, detail = run.per_layer(cli_probes(root, env))
        result["per_layer"] = values
        result["trace"] = detail
    else:
        result["end_to_end"] = run.end_to_end()
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
