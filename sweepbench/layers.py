"""Span tracing around the public layer boundaries of the ``repro`` stack.

Nothing inside ``src/`` is changed: :class:`Tracer` replaces public
functions and methods (module attributes, class attributes, registry
entries, store-instance methods) with wrappers that record one span per
call, and restores the originals on :meth:`Tracer.uninstall`.

A span is ``(span_id, parent_id, name, start_ns, end_ns, trial, pid)``.
Spans nest per process (every wrapped call is synchronous), so a span's
*self* time is its duration minus the durations of its direct children.
Self time and call counts are aggregated as spans close; the spans
themselves are kept in memory and exported once, as Chrome trace-event
JSON, when the run ends.

Pool workers fork after :meth:`Tracer.install`, inherit the wrappers and
start with empty buffers; after each ``harness.run_trial`` span they append
their spans and totals to ``<spool>/spans-<pid>.jsonl``, which the driver
merges (:meth:`Tracer.merge_spool`).  Clocks are ``time.perf_counter_ns``
(``CLOCK_MONOTONIC``, shared by every process of the host).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: The wrapped boundaries, in report order.  Each reports ``.calls`` and
#: ``.s`` (self seconds; ``harness.run_trial.s`` is inclusive).
LAYERS = (
    "protocols.compile_transition_table",
    "engine.build",
    "backend.advance",
    "engine.convergence_check",
    "scheduler.draw_round",
    "core.apply_round",
    "crn.compile_crn",
    "crn.multiscale.run",
    "harness.run_trial",
    "store.claim",
    "store.append",
    "store.pending",
    "store.get",
)

#: Layers that also report ``.share`` (self s / harness.run_trial.s).
SHARED_LAYERS = (
    "engine.build",
    "backend.advance",
    "scheduler.draw_round",
    "core.apply_round",
    "crn.multiscale.run",
)

ROOT = "harness.run_trial"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``stall`` is ``(layer, seconds)``: every call of that layer sleeps for
    ``seconds`` inside its span, for the layer-attribution self-check; the
    time actually slept is summed in :attr:`stalled_ns`.  Sleeping, not
    spinning, keeps the stall off the CPUs the pool workers share.
    """

    def __init__(self, spool_dir: Path, stall: tuple[str, float] | None = None):
        self.spool_dir = Path(spool_dir)
        self.stall = stall
        self._pid = os.getpid()
        self._driver_pid = self._pid
        self._patches: list[tuple[object, str, object, bool]] = []
        self._restores: list = []
        self._next_id = 0
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.stalled_ns = 0
        # Open spans: [span_id, name, start_ns, child_ns, trial].
        self._stack: list[list] = []

    def _own_process(self) -> None:
        # A forked pool worker inherits the driver's buffers: drop them once.
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._next_id = 0
            self._reset()

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, trial_of=None, counters=None, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``trial_of(args)`` names the trial a root span belongs to (nested
        spans inherit their parent's).  ``counters(args)`` returns a dict of
        cumulative counters read before and after the call; the deltas are
        added to :attr:`counts` under ``name.<counter>``.  ``on_result``
        maps the return value to counts added the same way.  A call made
        while a span of the same name is open is not traced again, so a
        layer reached through two wrapped entry points counts once.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._own_process()
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            trial = stack[-1][4] if stack else (trial_of(args) if trial_of else None)
            tracer._next_id += 1
            span = [tracer._next_id, name, 0, 0, trial]
            before = counters(args) if counters else None
            stack.append(span)
            span[2] = time.perf_counter_ns()
            try:
                if tracer.stall is not None and tracer.stall[0] == name:
                    t0 = time.perf_counter_ns()
                    time.sleep(tracer.stall[1])
                    tracer.stalled_ns += time.perf_counter_ns() - t0
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._close(span, end, stack[-1] if stack else None)
            if counters:
                for key, value in counters(args).items():
                    tracer.counts[f"{name}.{key}"] += value - before[key]
            if on_result:
                for key, value in on_result(result).items():
                    tracer.counts[f"{name}.{key}"] += value
            if name == ROOT and tracer._pid != tracer._driver_pid:
                tracer.flush_spool()
            return result

        return traced

    def _close(self, span: list, end: int, parent: list | None) -> None:
        span_id, name, start, child_ns, trial = span
        duration = end - start
        if parent is not None:
            parent[3] += duration
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
        self.spans.append(
            (span_id, parent[0] if parent else 0, name, start, end, trial, self._pid)
        )

    # -- worker spool --------------------------------------------------------

    def flush_spool(self) -> None:
        """Append this worker's spans and totals to its spool file, then clear."""
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": self.spans,
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "calls": self.calls,
            "counts": self.counts,
            "stalled_ns": self.stalled_ns,
        }
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")
        self._reset()

    def merge_spool(self) -> None:
        """Fold every worker spool file into the driver's buffers."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    payload = json.loads(line)
                    self.spans.extend(tuple(span) for span in payload["spans"])
                    for field in ("self_ns", "total_ns", "calls", "counts"):
                        target = getattr(self, field)
                        for key, value in payload[field].items():
                            target[key] += value
                    self.stalled_ns += payload["stalled_ns"]
            path.unlink()

    # -- installing the wrappers ---------------------------------------------

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` by its traced wrapper (undone on uninstall)."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original, attribute in vars(owner)))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def patch_function(self, module_name: str, attribute: str, name: str) -> None:
        """Trace a module-level function everywhere it was imported by name."""
        original = getattr(sys.modules[module_name], attribute)
        wrapper = self.wrap(name, original)
        for module_name_, module in list(sys.modules.items()):
            if module_name_.split(".")[0] != "repro" or module is None:
                continue
            if getattr(module, attribute, None) is original:
                self._patches.append((module, attribute, original, True))
                setattr(module, attribute, wrapper)

    def install(self, store) -> None:
        """Wrap every layer boundary of the stack and of ``store``."""
        from repro.core.array_simulator import LogSizeVectorProtocol
        from repro.crn.compile import CompiledCRN
        from repro.crn.library import CRN_WORKLOADS, register_crn_workload
        from repro.crn.multiscale import MultiscaleSimulator
        from repro.engine import scheduler as scheduler_module
        from repro.engine.batched_simulator import BatchedCountSimulator
        from repro.engine.vector import VectorSimulator
        from repro.harness import parallel

        self.patch_function(
            "repro.protocols.compiled",
            "compile_transition_table",
            "protocols.compile_transition_table",
        )
        self.patch_function("repro.crn.compile", "compile_crn", "crn.compile_crn")
        self.patch(BatchedCountSimulator, "__init__", "engine.build")
        self.patch(VectorSimulator, "__init__", "engine.build")
        self.patch(CompiledCRN, "build", "engine.build")
        self.patch(
            BatchedCountSimulator,
            "run_interactions",
            "backend.advance",
            counters=lambda args: {
                "batched_batches": args[0].batched_batches,
                "fallback_batches": args[0].fallback_batches,
            },
        )
        for cls in vars(scheduler_module).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, scheduler_module.RoundScheduler)
                and cls is not scheduler_module.RoundScheduler
                and "draw_round" in vars(cls)
            ):
                self.patch(cls, "draw_round", "scheduler.draw_round")
        self.patch(LogSizeVectorProtocol, "apply_round", "core.apply_round")
        self.patch(LogSizeVectorProtocol, "all_done", "engine.convergence_check")
        self.patch(MultiscaleSimulator, "run_until", "crn.multiscale.run")
        # Convergence predicates are resolved from the workload registries
        # at trial time; re-registering wrapped copies leaves cache keys alone.
        for registry, register in (
            (parallel.WORKLOADS, parallel.register_workload),
            (CRN_WORKLOADS, register_crn_workload),
        ):
            for workload in list(registry.values()):
                traced = dataclasses.replace(
                    workload,
                    predicate=self.wrap("engine.convergence_check", workload.predicate),
                )
                register(traced)
                self._restores.append((register, workload))
        self.patch(parallel, "run_trial", ROOT, trial_of=lambda args: args[0].cache_key())
        self.patch(
            store,
            "claim",
            "store.claim",
            trial_of=lambda args: args[0],
            on_result=lambda claim: {"acquired": int(claim.acquired)},
        )
        self.patch(store, "append", "store.append", trial_of=lambda args: args[0])
        self.patch(store, "get", "store.get", trial_of=lambda args: args[0])
        self.patch(store, "pending", "store.pending")

    def uninstall(self) -> None:
        """Restore every original patched by :meth:`install`."""
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:  # an instance override of a class method (the store)
                delattr(owner, attribute)
        for register, workload in self._restores:
            register(workload)
        self._patches.clear()
        self._restores.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``.calls`` / ``.s`` / ``.share`` per layer plus the derived ratios."""
        root_s = self.total_ns[ROOT] / 1e9
        metrics: dict[str, float] = {}
        for name in LAYERS:
            seconds = (self.total_ns if name == ROOT else self.self_ns)[name] / 1e9
            metrics[f"{name}.calls"] = self.calls[name]
            metrics[f"{name}.s"] = seconds
            if name in SHARED_LAYERS:
                metrics[f"{name}.share"] = seconds / root_s if root_s else 0.0
        metrics["harness.unattributed_share"] = (
            self.self_ns[ROOT] / self.total_ns[ROOT] if self.total_ns[ROOT] else 0.0
        )
        batched = self.counts["backend.advance.batched_batches"]
        fallback = self.counts["backend.advance.fallback_batches"]
        metrics["backend.fallback_frac"] = (
            fallback / (batched + fallback) if batched + fallback else 0.0
        )
        claims = self.calls["store.claim"]
        metrics["store.claim_acquired_ratio"] = (
            self.counts["store.claim.acquired"] / claims if claims else 0.0
        )
        return metrics

    def trace_events(self) -> list[dict]:
        """The spans as Chrome trace-event ``X`` events (µs since the first)."""
        if not self.spans:
            return []
        origin = min(span[3] for span in self.spans)
        return [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": pid,
                "args": {"span": span_id, "parent": parent_id, "trial": trial},
            }
            for span_id, parent_id, name, start, end, trial, pid in sorted(
                self.spans, key=lambda span: (span[6], span[3])
            )
        ]
