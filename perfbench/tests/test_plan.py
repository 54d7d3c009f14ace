from collections import Counter, defaultdict

import pytest

from perfbench import plan


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_same_seed_same_ops(workload):
    assert plan.generate(workload, 7, 20) == plan.generate(workload, 7, 20)


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_seed_changes_order_not_mix(workload):
    a = plan.generate(workload, 1, 20)
    b = plan.generate(workload, 2, 20)
    assert [op.key() for op in a] != [op.key() for op in b]
    items = lambda ops: Counter((op.kernel, op.size) for op in ops)  # noqa: E731
    assert items(a) == items(b)


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_rounds_hold_every_kernel_at_every_size(workload):
    spec = plan.WORKLOADS[workload]
    ops = plan.generate(workload, 3, 20)
    assert len(ops) >= plan.MIN_OPS
    assert [op.index for op in ops] == list(range(len(ops)))
    rounds = max(op.round for op in ops) + 1
    assert rounds % spec.round_multiple == 0
    for r in range(rounds):
        main = sorted(op.kernel for op in ops if op.round == r and op.size == spec.size)
        assert main == sorted(spec.kernels)
        assert len([op for op in ops if op.round == r]) == len(spec.sizes) - 1 + len(
            spec.kernels
        )
    if spec.extra_size:
        for r in range(0, rounds, spec.round_multiple):
            extra = sorted(
                op.kernel for op in ops
                if r <= op.round < r + spec.round_multiple and op.size == spec.extra_size
            )
            assert extra == sorted(spec.kernels)


def test_fig6_runs_every_block_size():
    assert {op.block_sizes for op in plan.generate("fig6-suite", 5, 20)} == {
        plan.BLOCK_SIZES
    }


@pytest.mark.parametrize("workload", ["select-per-region", "cli-encode-cold"])
def test_block_sizes_are_balanced(workload):
    spec = plan.WORKLOADS[workload]
    ops = plan.generate(workload, 11, 40)
    for r in {op.round for op in ops}:
        counts = Counter(op.block_sizes for op in ops if op.round == r and op.size == spec.size)
        assert max(counts.values()) - min(counts.values()) <= 1
    # an item's first four ops draw each block size once
    first4 = defaultdict(list)
    for op in ops:
        if len(first4[op.kernel, op.size]) < 4:
            first4[op.kernel, op.size].append(op.block_sizes[0])
    for drawn in first4.values():
        assert len(drawn) == len(set(drawn))


def test_rounds_follow_seconds_with_a_floor():
    spec = plan.WORKLOADS["fig6-suite"]
    assert len(plan.generate("fig6-suite", 0, 1)) >= plan.MIN_OPS
    assert plan.rounds_for(spec, 100) > plan.rounds_for(spec, 20)


def test_sizes_cover_every_kernel():
    for spec in plan.WORKLOADS.values():
        for kernel in spec.kernels:
            assert set(spec.sizes) <= set(plan.SIZES[kernel])
