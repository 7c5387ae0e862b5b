"""Spans around the calls into each layer's public functions.

The wrappers live in the benchmark, not in the program: :func:`install`
replaces each traced function where its caller looks it up (a module
global or a class attribute) with a wrapper that records one span per
call.  Spans are aggregated in memory per name and per thread (count,
busy time, self time, work units) and read out when the run ends; self
time is a span's duration minus the time covered by spans it caused on
the same thread.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable, Optional

# (span name, module, attribute path, work units of one call, side counter).
# "Work" is what the layer did in that call: rows bounded, bytes coded,
# requests fused; the callables take (args, kwargs, result).  The side
# counter names a Tracer method called with (args, result) after the call.


def _rows_arg(index: int) -> Callable:
    return lambda a, k, out: len(a[index])


def _launch_rows(a, k, out) -> int:
    return sum(len(member.block) for member in a[1])


def _coded_bytes(a, k, out) -> int:
    return len(out) if isinstance(out, str) else len(a[0])


TARGETS: tuple[tuple[str, str, str, Optional[Callable], Optional[str]], ...] = (
    ("bb.driver.run", "repro.bb.driver", "SearchDriver.run", None, None),
    ("flowshop.bounds", "repro.bb.driver", "bound_block", _rows_arg(1), "_after_block"),
    ("flowshop.bounds", "repro.bb.driver", "bound_children_batch", _rows_arg(0), None),
    ("flowshop.bounds", "repro.bb.sequential", "bound_block", _rows_arg(1), "_after_block"),
    ("flowshop.bounds", "repro.service.session", "bound_block", _rows_arg(1), "_after_block"),
    ("gpu.evaluate_block", "repro.gpu.executor", "GpuExecutor.evaluate_block", _rows_arg(1),
     "_after_evaluate"),
    ("bb.frontier.branch", "repro.bb.driver", "branch_block", _rows_arg(0), None),
    ("bb.frontier.branch", "repro.bb.driver", "branch_row", None, None),
    ("bb.frontier.select", "repro.bb.frontier", "BlockFrontier.pop_min_tie_batch", None, None),
    ("bb.frontier.select", "repro.bb.frontier", "BlockFrontier.pop_batch", None, None),
    ("bb.frontier.select", "repro.bb.frontier", "BlockFrontier.peek_best", None, None),
    ("bb.frontier.select", "repro.bb.frontier", "BlockFrontier.discard", None, None),
    ("bb.frontier.push", "repro.bb.frontier", "BlockFrontier.push_block", None, "_after_push"),
    ("bb.frontier.prune", "repro.bb.frontier", "BlockFrontier.prune_to", None, None),
    ("flowshop.neh", "repro.bb.sequential", "neh_heuristic", None, None),
    ("flowshop.neh", "repro.core.gpu_bb", "neh_heuristic", None, None),
    ("flowshop.neh", "repro.service.session", "neh_heuristic", None, None),
    ("service.protocol", "repro.service.protocol", "encode", _coded_bytes, None),
    ("service.protocol", "repro.service.protocol", "decode", _coded_bytes, None),
    ("service.dispatch.flush", "repro.service.dispatch", "BatchDispatcher._execute",
     lambda a, k, out: len(a[1]), "_after_flush"),
    ("service.dispatch.launch", "repro.service.dispatch", "BatchDispatcher._evaluate_group",
     _launch_rows, "_after_launch"),
    ("service.dispatch.park", "repro.service.dispatch", "BatchingOffload.bound_block", None,
     None),
    ("service.session.run", "repro.service.session", "SolveSession.run", None, None),
)


class Tracer:
    """Per-thread span aggregates plus a few side counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._lock = threading.Lock()
        self.peak_pending = 0
        self.pair_evals = 0
        self.sim_device_s = 0.0
        self.timeout_flushes = 0

    def _state(self) -> tuple[list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn: Callable, work: Optional[Callable],
             after: Optional[Callable] = None) -> Callable:
        perf_counter = time.perf_counter
        state = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, table = state()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                record = table.get(name)
                if record is None:
                    record = table[name] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
            if work is not None:
                record[3] += work(args, kwargs, out)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. an untimed warm-up)."""
        with self._lock:
            for table in self._tables:
                table.clear()
        self.peak_pending = 0
        self.pair_evals = 0
        self.sim_device_s = 0.0
        self.timeout_flushes = 0

    def totals(self) -> dict[str, Any]:
        """Spans merged over threads: name -> {calls, busy_s, self_s, work}."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            tables = [dict(table) for table in self._tables]
        for table in tables:
            for name, (calls, busy, self_s, work) in table.items():
                entry = merged.setdefault(
                    name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0}
                )
                entry["calls"] += calls
                entry["busy_s"] += busy
                entry["self_s"] += self_s
                entry["work"] += work
        return {
            "spans": merged,
            "peak_pending": self.peak_pending,
            "pair_evals": self.pair_evals,
            "sim_device_s": self.sim_device_s,
            "timeout_flushes": self.timeout_flushes,
        }

    # side counters (service spans run on several threads, hence the lock)
    def _after_push(self, args: tuple, out: Any) -> None:
        size = len(args[0])
        with self._lock:
            self.peak_pending = max(self.peak_pending, size)

    def _count_pairs(self, rows: int, n_machines: int) -> None:
        with self._lock:
            self.pair_evals += rows * (n_machines * (n_machines - 1) // 2)

    def _after_block(self, args: tuple, out: Any) -> None:
        block = args[1]
        self._count_pairs(len(block), block.release.shape[1])

    def _after_evaluate(self, args: tuple, out: Any) -> None:
        self._after_block(args, out)
        with self._lock:
            self.sim_device_s += out.simulated.total_s

    def _after_launch(self, args: tuple, out: Any) -> None:
        members = args[1]
        rows = sum(len(member.block) for member in members)
        self._count_pairs(rows, members[0].block.release.shape[1])

    def _after_flush(self, args: tuple, out: Any) -> None:
        if args[2] == "timeout":
            with self._lock:
                self.timeout_flushes += 1


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    originals = []
    for name, module_name, path, work, side in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        after = getattr(tracer, side) if side is not None else None
        setattr(owner, attr, tracer.wrap(name, original, work, after))
        originals.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall


def capture_frontiers() -> tuple[list, Callable[[], None]]:
    """Record every ``BlockFrontier`` built, so a run can read what was
    still pending when a budgeted solve stopped.  Returns (list, undo)."""
    from repro.bb.frontier import BlockFrontier

    built: list = []
    original = BlockFrontier.__init__

    def init(self, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        built.append(self)

    BlockFrontier.__init__ = init

    def undo() -> None:
        BlockFrontier.__init__ = original

    return built, undo
