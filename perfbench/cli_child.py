"""Traced twin of ``python -m repro``: run one CLI command with the span
wrappers installed and write the spans to a file when it ends.

Usage: ``python -m perfbench.cli_child <spans.json> <repro arguments>``.
The parent grafts the spans under its op span.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from perfbench.spans import SpanRecorder, now  # noqa: E402


def main(argv: list[str]) -> int:
    path, command = argv[0], argv[1:]
    rec = SpanRecorder()
    root = rec.begin_op(0, STARTED)
    span = rec.begin("cli.import")
    import repro.cli

    rec.end(span)
    # installing imports every hooked module, some of which the command
    # would import later anyway: tracing overhead, kept in its own span
    span = rec.begin("trace.install")
    from perfbench.instrument import Instrumentation

    instrumentation = Instrumentation(rec)
    instrumentation.install()
    rec.end(span)
    span = rec.begin("cli.main")
    try:
        code = repro.cli.main(command)
    finally:
        rec.end(span)
        instrumentation.uninstall()
    rec.end_op(root, now())
    children = [s for s in rec.spans if s is not root]
    with open(path, "w") as handle:
        json.dump(
            {
                "started": STARTED,
                "spans": rec.export(children),
                "counts": dict(rec.counts[0]),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
