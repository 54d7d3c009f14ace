"""Span wrappers around each layer's public entry points.

Every hook wraps a name at the place the caller looks it up: the
module attribute a ``from x import f`` bound (``repro.pipeline.flow``'s
``encode_basic_blocks``), a class attribute (``FetchDecoder.decode_trace``)
or each registered encoder class's ``fit``/``encode``/``decode``.  The
patches live in memory only, and :meth:`Instrumentation.uninstall`
restores every attribute, so untraced ops run the unwrapped code.

Span names are ``<layer>.<what>`` with the layer named after the
``repro`` subpackage; ``perfbench.metrics.SPAN_METRICS`` maps them to
per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from typing import Callable

from perfbench.spans import SpanRecorder


def _len_arg(position: int, counter: str):
    """Counter factory: add the length of positional argument ``position``."""
    def count(rec: SpanRecorder):
        return lambda args, kwargs, result: rec.count(counter, len(args[position]))
    return count


def _once(counter: str):
    """Counter factory: add one per call."""
    def count(rec: SpanRecorder):
        return lambda args, kwargs, result: rec.count(counter)
    return count


#: (module, attribute path, span name, counter factory or None)
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.workloads.common", "Workload.assemble", "isa.assemble", None),
    ("repro.cfg.graph", "ControlFlowGraph.build", "cfg.build", None),
    ("repro.pipeline.flow", "profile_trace", "cfg.profile", None),
    ("repro.pipeline.selector", "profile_trace", "cfg.profile", None),
    ("repro.pipeline.flow", "find_natural_loops", "cfg.loops", None),
    ("repro.pipeline.regional", "find_natural_loops", "cfg.loops", None),
    ("repro.pipeline.flow", "select_hot_blocks", "cfg.select", None),
    ("repro.pipeline.regional", "select_hot_blocks", "cfg.select", None),
    ("repro.pipeline.selector", "plan_regions", "cfg.select", None),
    ("repro.pipeline.flow", "count_trace_transitions", "sim.count_transitions", None),
    ("repro.pipeline.selector", "count_trace_transitions", "sim.count_transitions", None),
    ("repro.pipeline.flow", "encode_basic_blocks", "core.encode",
     _len_arg(0, "core.blocks_encoded")),
    ("repro.pipeline.selector", "encode_basic_block", "core.encode",
     _once("core.blocks_encoded")),
    ("repro.pipeline.regional", "encode_basic_block", "core.encode",
     _once("core.blocks_encoded")),
    ("repro.hw.fetch_decoder", "FetchDecoder.decode_trace", "hw.decode_trace",
     _len_arg(1, "hw.fetches_decoded")),
    ("repro.pipeline.flow", "EncodingFlow.run", "pipeline.flow", None),
    ("repro.pipeline.selector", "SchemeSelector.run", "pipeline.selector", None),
    ("repro.pipeline.bundle", "EncodingBundle.from_flow_result",
     "pipeline.bundle_build", None),
    ("repro.pipeline.bundle", "EncodingBundle.to_json", "pipeline.bundle_build", None),
    ("repro.pipeline.bundle", "EncodingBundle.from_json", "pipeline.bundle_load", None),
    ("repro.pipeline.bundle", "EncodingBundle.deploy_and_check",
     "pipeline.deploy_check", None),
)


class Instrumentation:
    """Installs and removes the span wrappers for one recorder.

    ``known_codebooks`` are codebook objects compiled before tracing
    began (the warm-up), so that fetching them again counts as a hit.
    """

    def __init__(self, recorder: SpanRecorder, known_codebooks=()) -> None:
        self.rec = recorder
        self._undo: list[tuple[object, str, bool, object]] = []
        # strong references, so an id is never reused by a new object
        self._books = {id(book): book for book in known_codebooks}

    # -- patching ------------------------------------------------------

    def _patch(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        static = inspect.getattr_static(owner, name)
        if isinstance(static, (classmethod, staticmethod)):
            new = type(static)(make(static.__func__))
        else:
            new = make(static)
        own = name in vars(owner)
        self._undo.append((owner, name, own, vars(owner).get(name)))
        setattr(owner, name, new)

    def _wrap(self, owner, name: str, span: str, counter=None) -> None:
        self._patch(owner, name, lambda fn: self.rec.wrap(span, fn, counter))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("instrumentation already installed")
        rec = self.rec
        for module, path, span, counter in HOOKS:
            owner = importlib.import_module(module)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._wrap(owner, name, span, counter(rec) if counter else None)

        import repro.core.program_codec as program_codec
        import repro.core.stream_codec as stream_codec
        for module in (program_codec, stream_codec):
            self._wrap(module, "get_codebook", "core.codebook", self._count_codebook)

        import repro.sim.cpu as cpu
        self._wrap(cpu, "run_program", "sim.run",
                   lambda a, k, result: rec.count("sim.fetches", len(result[1])))

        import repro.workloads.registry as registry
        self._patch(registry, "build_workload", self._wrap_build_workload)

        from repro.baselines.protocol import ENCODER_REGISTRY
        for scheme, cls in sorted(ENCODER_REGISTRY.items()):
            self._wrap(cls, "fit", f"baselines.{scheme}.fit", self._count_fit)
            self._wrap(cls, "encode", f"baselines.{scheme}.encode")
            self._wrap(cls, "decode", f"baselines.{scheme}.decode")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, own, original = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- counters ------------------------------------------------------

    def _count_codebook(self, args, kwargs, book) -> None:
        self.rec.count("core.codebook_calls")
        if id(book) not in self._books:
            self._books[id(book)] = book
            self.rec.count("core.codebook_compiles")

    def _count_fit(self, args, kwargs, result) -> None:
        self.rec.count("baselines.fits")
        self.rec.count("baselines.words_fitted", len(args[1]))

    def _wrap_build_workload(self, build: Callable) -> Callable:
        """``build_workload`` spanned, returning a workload whose
        ``verify`` callback is spanned too."""

        def built(*args, **kwargs):
            workload = build(*args, **kwargs)
            if workload.verify is None:
                return workload
            return dataclasses.replace(
                workload, verify=self.rec.wrap("workloads.verify", workload.verify)
            )

        return self.rec.wrap("workloads.build", built)
