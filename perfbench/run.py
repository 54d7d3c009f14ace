"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig6-suite --seed 1 --seconds 20 --trace 0

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 0 only if every op passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import plan, speed, stats  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, UNITS, result_line  # noqa: E402
from perfbench.spans import now  # noqa: E402
from perfbench.worker import RESULT_MARK  # noqa: E402

#: fresh processes whose set-up time is measured; ``setup_s`` is their median
SETUP_SAMPLES = 5
#: a run, set-up included, must end well inside three minutes
DEADLINE_S = 170.0


def _worker(args, extra: list[str], env: dict, timeout: float) -> tuple[dict, float, float]:
    """Run a worker; returns its result and its set-up time, raw and at
    reference speed."""
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    calibration = speed.calibration_s()
    spawned = now()
    # a session of its own, so a timeout also ends the CLI children
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker overran the {DEADLINE_S:.0f} s deadline")
    lines = [l for l in stdout.splitlines() if l.startswith(RESULT_MARK)]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    result = json.loads(lines[-1][len(RESULT_MARK):])
    setup = result["ready"] - spawned
    return result, setup, speed.scaled(setup, (calibration + result["calibration"]) / 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = now() + DEADLINE_S

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    # the build: byte-compile the package so no measured process pays it
    subprocess.run([sys.executable, "-m", "compileall", "-q", source, "perfbench"],
                   cwd=ROOT, check=True, timeout=120)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([source, ROOT])
    spans_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        extra = ["--spans-dir", spans_dir]
        setups, walls = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                _, wall, scaled = _worker(args, extra + ["--setup-only"], env,
                                          deadline - now())
                setups.append(scaled)
                walls.append(wall)
        result, wall, scaled = _worker(args, extra, env, deadline - now())
        setups.append(scaled)
        walls.append(wall)
    finally:
        shutil.rmtree(spans_dir, ignore_errors=True)

    summary = result["summary"]
    if args.trace:
        values = result["per_layer"]
        names = [m.name for m in PER_LAYER]
        detail = {"trace": result["trace"]}
    else:
        values = dict(result["end_to_end"])
        values["setup_s"] = stats.median(setups)
        values["reduction_pct"] = summary["reduction_pct"]
        names = [m.name for m in END_TO_END]
        wall = values.pop("wall")
        wall["setup_s"] = stats.median(walls)
        detail = {"op_tail": values.pop("op_tail"), "setup_samples_s": setups,
                  "wall": wall}
    values = {name: values[name] for name in names}
    spec = plan.WORKLOADS[args.workload]
    detail.update(workload=args.workload, seed=args.seed, why=spec.why,
                  draws={"kernels": spec.kernels, "sizes": spec.sizes,
                         "k": "4..7 every op" if spec.all_block_sizes
                         else "one of 4..7 per op, Latin-square balanced"},
                  **summary)
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {UNITS[name]}")
    for error in summary["errors"]:
        print(f"FAILED {error}")
    print(json.dumps(detail))
    correct = summary["failed"] == 0
    print(json.dumps(result_line(correct, summary["attempted"], summary["failed"], values)))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
