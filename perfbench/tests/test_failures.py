"""Failure counting: an op that raises and one whose reported transitions
disagree with the recount both count as failed, and the rest do not."""

import dataclasses

import pytest

from perfbench import ops, plan
from perfbench.worker import Run


def op(index, kernel="mmul", size="quarter", ks=(4, 5)):
    return plan.Op(index, 0, kernel, size, ks)


class Faulty(ops.Fig6Suite):
    """The real fig6 op, sabotaged for chosen op indices."""

    def __init__(self, raises=(), misreports=()):
        self.raises = set(raises)
        self.misreports = set(misreports)

    def execute(self, op, rec=None):
        if op.index in self.raises:
            raise RuntimeError("simulated crash")
        program, trace, results = super().execute(op, rec)
        if op.index in self.misreports:
            results[-1] = dataclasses.replace(
                results[-1], encoded_transitions=results[-1].encoded_transitions - 1
            )
        return program, trace, results


def test_fig6_check_passes_a_correct_op():
    bench = ops.Fig6Suite()
    outcome = bench.check(op(0), bench.execute(op(0)))
    assert 0 < outcome.encoded < outcome.baseline
    assert [k for k, _ in outcome.outputs] == [4, 5]


def test_fig6_check_catches_misreported_transitions():
    bench = Faulty(misreports={0})
    with pytest.raises(ops.CheckFailed, match="recount"):
        bench.check(op(0), bench.execute(op(0)))


def test_raising_and_misreporting_ops_are_counted():
    ops_list = [op(i) for i in range(12)]
    run = Run("fig6-suite", Faulty(raises={3}, misreports={7}), trace=False, books=())
    run.run(ops_list)
    summary = run.summary(ops_list)
    assert summary["attempted"] == 12
    assert summary["failed"] == 2
    assert any("simulated crash" in e for e in summary["errors"])
    assert any("recount" in e for e in summary["errors"])
    assert run.end_to_end()["ok_ops_ratio"] == pytest.approx(10 / 12)


def test_clean_run_has_no_failures_and_a_stable_digest():
    ops_list = [op(i, ks=(4,)) for i in range(11)]
    digests = []
    for _ in range(2):
        run = Run("fig6-suite", ops.Fig6Suite(), trace=False, books=())
        run.run(ops_list)
        summary = run.summary(ops_list)
        assert summary["failed"] == 0
        digests.append((summary["digest"], summary["reduction_pct"]))
    assert digests[0] == digests[1]


class Drifting(ops.Fig6Suite):
    """Same inputs, different output on the second call."""

    calls = 0

    def check(self, op, out):
        outcome = super().check(op, out)
        Drifting.calls += 1
        if Drifting.calls == 2:
            outcome.encoded += 1
        return outcome


def test_a_repeat_with_a_different_output_fails():
    run = Run("fig6-suite", Drifting(), trace=False, books=())
    run.run([op(0, ks=(4,)), op(1, ks=(4,))])
    assert run.summary([op(0), op(1)])["failed"] == 1
    assert "differs" in run.errors[0]
