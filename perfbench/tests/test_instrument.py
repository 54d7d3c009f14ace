import importlib
import inspect

from perfbench import ops, plan
from perfbench.instrument import HOOKS, Instrumentation
from perfbench.spans import OP_SPAN, SpanRecorder, now, self_time_by_name


def _targets():
    for module, path, _, _ in HOOKS:
        owner = importlib.import_module(module)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield owner, name


def test_uninstall_restores_every_attribute():
    before = [(o, n, inspect.getattr_static(o, n), n in vars(o)) for o, n in _targets()]
    from repro.baselines.protocol import ENCODER_REGISTRY

    encoders = {cls: dict(vars(cls)) for cls in ENCODER_REGISTRY.values()}
    instrumentation = Instrumentation(SpanRecorder())
    instrumentation.install()
    assert any(inspect.getattr_static(o, n) is not s for o, n, s, _ in before)
    instrumentation.uninstall()
    for owner, name, static, own in before:
        assert inspect.getattr_static(owner, name) is static
        assert (name in vars(owner)) == own
    for cls, attrs in encoders.items():
        assert dict(vars(cls)) == attrs


def _traced(bench, op, books=()):
    rec = SpanRecorder()
    instrumentation = Instrumentation(rec, books)
    instrumentation.install()
    try:
        root = rec.begin_op(op.index, now())
        out = bench.execute(op, rec)
        rec.end_op(root, now())
    finally:
        instrumentation.uninstall()
    return rec, root, bench.check(op, out)


def test_traced_fig6_op_covers_the_layers():
    bench = ops.Fig6Suite()
    books = bench.setup()
    rec, root, _ = _traced(bench, plan.Op(0, 0, "fft", "quarter", (4, 5)), books)
    by_name = self_time_by_name(rec.spans)
    for span in ("workloads.build", "workloads.verify", "isa.assemble", "sim.run",
                 "cfg.build", "cfg.profile", "cfg.loops", "cfg.select",
                 "core.encode", "core.codebook", "hw.decode_trace",
                 "pipeline.flow", "sim.count_transitions"):
        assert by_name.get(span, 0) > 0, span
    assert abs(sum(by_name.values()) - root.duration) < 1e-9
    counts = rec.counts[0]
    assert counts["core.codebook_compiles"] == 0  # warm cache
    assert counts["hw.fetches_decoded"] == 2 * counts["sim.fetches"]


def test_traced_selector_op_covers_the_baselines():
    bench = ops.SelectPerRegion()
    books = bench.setup()
    rec, _, outcome = _traced(bench, plan.Op(0, 0, "fir", "quarter", (5,)), books)
    names = {s.name for s in rec.spans}
    for span in ("pipeline.selector", "pipeline.bundle_build", "pipeline.bundle_load",
                 "pipeline.deploy_check", "baselines.frequency.fit",
                 "baselines.low-weight.fit", "baselines.memoryless.fit",
                 "baselines.gray.encode", "baselines.t0.decode"):
        assert span in names, span
    assert rec.counts[0]["baselines.fits"] == 6 * outcome.extra["regions"]
    assert all(s.op == 0 for s in rec.spans)
    assert rec.spans[0].name == OP_SPAN
