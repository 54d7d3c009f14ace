"""Seeded op sequences for the three workloads.

An op is one closed-loop request: the next op starts only after the
previous one returned.  Ops are grouped in *rounds*.  A round runs every
kernel of the workload once at its main size and, where the workload
has a second size, one kernel more at that size; the second-size
kernel cycles through a seeded order, so ``len(kernels)`` rounds run
every kernel at both sizes.  The seed picks the order within each
round, the order the second size visits the kernels in, and which
kernel draws which block size.  Without this stratification a seed that
happened to draw many large kernels would read as a slowdown.

Why one op at the second size per round: op times cluster by kernel
and size.  With equal shares of two sizes the median fell in the gap
between the two size clusters and moved 20% from run to run.  With one
extra op per round it lands inside a band of near-equal main-size ops
(sor and ej for fig6-suite, sor and fir for select-per-region), each
repeated once per round.

The number of rounds follows from ``--seconds`` and a nominal round
cost measured on the reference machine (2 cores, CPython 3.11), not
from the clock during the run, so one (workload, seed, seconds) always
runs the same ops: that keeps ``reduction_pct`` and the output digest
identical across runs, and the tail percentile on the same rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PAPER_KERNELS = ("mmul", "sor", "ej", "fft", "tri", "lu")
ALL_KERNELS = PAPER_KERNELS + ("fir", "iir", "conv2d")
BLOCK_SIZES = (4, 5, 6, 7)

#: Builder parameters per size level.  ``default`` is each builder's
#: own default (the scale ``repro encode`` and ``repro suite`` run);
#: ``half`` and ``quarter`` shrink the dominant dimension (fft keeps
#: a power of two).
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "mmul": {"default": {}, "half": {"n": 12}, "quarter": {"n": 6}},
    "sor": {"default": {}, "half": {"n": 16}, "quarter": {"n": 8}},
    "ej": {"default": {}, "half": {"n": 16}, "quarter": {"n": 8}},
    "fft": {"default": {}, "half": {"n": 128}, "quarter": {"n": 64}},
    "tri": {"default": {}, "half": {"n": 64}, "quarter": {"n": 32}},
    "lu": {"default": {}, "half": {"n": 16}, "quarter": {"n": 8}},
    "fir": {"default": {}, "half": {"samples": 96}, "quarter": {"samples": 48}},
    "iir": {"default": {}, "half": {"samples": 128}, "quarter": {"samples": 64}},
    "conv2d": {"default": {}, "half": {"n": 12}, "quarter": {"n": 6}},
}

#: The fewest ops a run makes, so that ``op_tail_s`` has a sample
#: with ten ops beyond it.
MIN_OPS = 11


@dataclass(frozen=True)
class WorkloadSpec:
    """What one workload draws from, and why."""

    name: str
    kernels: tuple[str, ...]
    #: every kernel runs once per round at ``size`` ...
    size: str
    #: ... and, when set, one kernel more at ``extra_size``
    extra_size: str | None
    #: every op runs all of ``BLOCK_SIZES`` (fig6-suite) rather than
    #: one k drawn per op
    all_block_sizes: bool
    #: wall seconds one round takes on the reference machine, checks
    #: and calibration included
    nominal_round_s: float
    why: str

    @property
    def sizes(self) -> tuple[str, ...]:
        return (self.size,) + ((self.extra_size,) if self.extra_size else ())

    @property
    def round_multiple(self) -> int:
        """Rounds come in multiples of this, so that every (kernel,
        size) pair, and for a drawn k every (kernel, k) pair, gets its
        equal share."""
        if self.extra_size:
            return len(self.kernels)
        return 1 if self.all_block_sizes else len(BLOCK_SIZES)


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="fig6-suite",
            kernels=PAPER_KERNELS,
            size="half",
            extra_size="default",
            all_block_sizes=True,
            nominal_round_s=1.2,
            why="the paper's experiment: six kernels simulated, checked and "
            "encoded at k=4..7 with a warm codebook cache (sim, cfg, hw)",
        ),
        WorkloadSpec(
            name="select-per-region",
            kernels=ALL_KERNELS,
            size="quarter",
            extra_size="half",
            all_block_sizes=False,
            nominal_round_s=3.7,
            why="per-region scheme selection with the never-worse gate and "
            "bundle JSON round trip (baselines fit/encode/decode)",
        ),
        WorkloadSpec(
            name="cli-encode-cold",
            kernels=ALL_KERNELS,
            size="default",
            extra_size=None,
            all_block_sizes=False,
            nominal_round_s=5.9,
            why="`python -m repro encode` in a fresh process: interpreter, "
            "imports and a cold codebook, what a user waits for",
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One request of a workload."""

    index: int
    round: int
    kernel: str
    size: str
    block_sizes: tuple[int, ...]

    @property
    def params(self) -> dict[str, int]:
        return dict(SIZES[self.kernel][self.size])

    def key(self) -> tuple:
        """Identity of the op's inputs: equal keys must give equal
        outputs, which the benchmark checks on every repeat."""
        return (self.kernel, self.size, self.block_sizes)

    def describe(self) -> dict:
        return {
            "kernel": self.kernel,
            "size": self.size,
            "params": self.params,
            "k": list(self.block_sizes),
        }


def rounds_for(spec: WorkloadSpec, seconds: float) -> int:
    """Whole rounds a run of ``seconds`` makes: a positive multiple of
    ``round_multiple`` with at least ``MIN_OPS`` ops."""
    step = spec.round_multiple
    per_round = len(spec.kernels) + (1 if spec.extra_size else 0)
    least = step * -(-MIN_OPS // (per_round * step))
    return max(least, step * round(seconds / (spec.nominal_round_s * step)))


def generate(workload: str, seed: int, seconds: float) -> list[Op]:
    """The op sequence of one run; a pure function of its arguments."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    extra_order = list(spec.kernels)
    rng.shuffle(extra_order)
    # Block sizes go round-robin per item from a seeded starting slot:
    # an item's n-th op takes k index (slot + n) mod 4, so every item
    # draws every k equally often and one round draws each k about
    # equally often.
    slots = list(spec.kernels)
    rng.shuffle(slots)
    seen: dict[tuple[str, str], int] = {}
    ops: list[Op] = []
    for r in range(rounds_for(spec, seconds)):
        order = [(kernel, spec.size) for kernel in spec.kernels]
        if spec.extra_size:
            order.append((extra_order[r % len(extra_order)], spec.extra_size))
        rng.shuffle(order)
        for kernel, size in order:
            n = seen.get((kernel, size), 0)
            seen[kernel, size] = n + 1
            if spec.all_block_sizes:
                ks = BLOCK_SIZES
            else:
                k = (slots.index(kernel) + n) % len(BLOCK_SIZES)
                ks = (BLOCK_SIZES[k],)
            ops.append(Op(len(ops), r, kernel, size, ks))
    return ops
