"""Span tracing of one solve's layers, recorded from outside the program.

The program has no timers of its own, so the traced run replaces the
module-level functions that ``step`` and ``run_study`` look up at call time
with timing wrappers, and restores them afterwards.  Each span records a
name, start, end, its parent span and the solve it belongs to; spans are kept
in per-thread arrays in memory and written out once at the end.  A target
function that no longer exists is reported as absent.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

STEP = "stepper.step"
LOAD = "stepper.assemble_load_columns"
RHS = "stepper.assemble_rhs"
HISTORY = "stepper._history_sum"
WOODBURY = "stepper.woodbury_solve"
THOMAS = "stepper.thomas_solve"
COMPACT = "spatial.compact_average"
SOLVE = "study.solve"
OBSERVER = "study.observer"
CHECK = "study.check"
EVALS = ("problems.coefficient", "problems.forcing", "problems.integral_load", "problems.exact")


class _Buffer:
    """Spans of one thread, as parallel arrays."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.solve = -1
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.cpu = array.array("d")
        self.id = array.array("q")
        self.parent = array.array("q")
        self.solve_id = array.array("q")
        self.history_madds = 0
        self.state_bytes: list[int] = []


def _nbytes(obj, depth: int = 2) -> int:
    """Bytes of the numpy arrays an object holds, a couple of attribute levels deep."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item, depth - 1) for item in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(value, depth - 1) for value in vars(obj).values())
    return 0


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self.names: list[str] = []
        self.absent: set[str] = set()
        self.origin = time.perf_counter()
        self.windows: list[tuple[float, float]] = []  # traced rounds, relative to origin

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, after=None, is_solve: bool = False):
        """``fn`` recorded as a span named ``name``; ``after(buf, args, result)`` adds counts."""
        code = self._code(name)
        ids = self._ids
        perf = time.perf_counter
        cpu = time.thread_time
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1] if stack else -1
            outer_solve = buf.solve
            if is_solve:
                buf.solve = sid
            stack.append(sid)
            c0 = cpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                buf.name.append(code)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.cpu.append(c1 - c0)
                buf.id.append(sid)
                buf.parent.append(parent)
                buf.solve_id.append(buf.solve)
                buf.solve = outer_solve
            if after is not None:
                after(buf, args, result)
            return result

        return traced

    def spans(self) -> dict:
        """All spans so far as numpy arrays, times relative to the tracer's start."""
        bufs = self._buffers

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return {
            "name": cat("name", np.int32),
            "start": cat("start", np.float64) - self.origin,
            "end": cat("end", np.float64) - self.origin,
            "cpu": cat("cpu", np.float64),
            "id": cat("id", np.int64),
            "parent": cat("parent", np.int64),
            "solve": cat("solve_id", np.int64),
            "thread": np.concatenate([np.full(len(b.id), b.thread) for b in bufs]) if bufs else np.zeros(0, int),
        }

    def history_madds(self) -> int:
        return sum(b.history_madds for b in self._buffers)

    def state_bytes(self) -> list[int]:
        return [n for b in self._buffers for n in b.state_bytes]


def _count_history(buf, args, result):
    # _history_sum(hlevels, w, j) folds levels 0..j, each of result.size values.
    try:
        buf.history_madds += (int(args[2]) + 1) * int(np.asarray(result).size)
    except (IndexError, TypeError, ValueError):
        pass


def _record_state(buf, args, result):
    buf.state_bytes.append(_nbytes(result))


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Patch the traced functions into the program for the duration of the block."""
    stepper, study = modules["stepper"], modules["study"]
    targets = [
        (stepper, "step", STEP, None, False),
        (stepper, "assemble_load_columns", LOAD, None, False),
        (stepper, "assemble_rhs", RHS, None, False),
        (stepper, "_history_sum", HISTORY, _count_history, False),
        (stepper, "woodbury_solve", WOODBURY, None, False),
        (stepper, "thomas_solve", THOMAS, None, False),
        (stepper, "compact_average", COMPACT, None, False),
        (stepper, "solve", SOLVE, _record_state, True),
        (study, "solve", SOLVE, _record_state, True),
        (getattr(study, "_ErrorTracker", None), "__call__", OBSERVER, None, False),
        (modules["checks"].ClosedFormError, "__call__", OBSERVER, None, False),
        (modules["workloads"], "run_check", CHECK, None, False),
    ]
    saved = []
    for owner, attr, name, after, is_solve in targets:
        if owner is None or not hasattr(owner, attr):
            tracer.absent.add(name)
            continue
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, after, is_solve))
    if hasattr(study, "make_problem"):
        original = study.make_problem
        saved.append((study, "make_problem", original))
        study.make_problem = _traced_factory(tracer, original)
    else:
        tracer.absent.update(EVALS)
    began = time.perf_counter() - tracer.origin
    try:
        yield tracer
    finally:
        tracer.windows.append((began, time.perf_counter() - tracer.origin))
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _traced_factory(tracer: Tracer, make_problem):
    """Problem factory whose coefficient, forcing, integral-load and exact evaluators are spans."""
    wrap = tracer.wrap

    def traced_make_problem(name, alpha):
        problem = make_problem(name, alpha)
        changes = {
            "loads": tuple(
                dataclasses.replace(ld, coefficient=wrap(ld.coefficient, EVALS[0])) for ld in problem.loads
            ),
            "forcing": wrap(problem.forcing, EVALS[1]),
        }
        if problem.integral_load is not None:
            changes["integral_load"] = wrap(problem.integral_load, EVALS[2])
        if problem.exact is not None:
            changes["exact"] = wrap(problem.exact, EVALS[3])
        return dataclasses.replace(problem, **changes)

    return traced_make_problem


def layer_metrics(tracer: Tracer, rounds: int, traced_walls, untraced_walls) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, and the step-time accounting behind them.

    ``_s`` metrics are wall time inside the layer's spans, ``_cpu_s`` the
    thread CPU time of the same spans; under the worker pool the difference
    is mostly time spent waiting for the interpreter lock.
    """
    sp = tracer.spans()
    n = sp["id"].size
    wall = sp["end"] - sp["start"]
    order = np.argsort(sp["id"])
    has_parent = sp["parent"] >= 0
    parent_pos = np.full(n, -1)
    parent_pos[has_parent] = order[np.searchsorted(sp["id"], sp["parent"][has_parent], sorter=order)]

    def self_part(total):
        return total - np.bincount(parent_pos[has_parent], weights=total[has_parent], minlength=n)

    times = {("wall", False): wall, ("wall", True): self_part(wall),
             ("cpu", False): sp["cpu"], ("cpu", True): self_part(sp["cpu"])}
    codes = {name: i for i, name in enumerate(tracer.names)}
    absent = tracer.absent

    def select(names):
        if any(nm in absent for nm in names) or not any(nm in codes for nm in names):
            return None
        return np.isin(sp["name"], [codes[nm] for nm in names if nm in codes])

    def layer(names, clock="wall", self_time=False):
        sel = select(names)
        return None if sel is None else float(times[clock, self_time][sel].sum()) / rounds

    def count(names):
        sel = select(names)
        return None if sel is None else int(sel.sum()) / rounds

    steps, solves = select([STEP]), select([SOLVE])
    step_us = wall[steps] * 1e6 if steps is not None else np.zeros(0)
    solve_threads = None
    if solves is not None:
        solve_threads = max(
            np.unique(sp["thread"][solves & (sp["start"] >= lo) & (sp["start"] < hi)]).size
            for lo, hi in tracer.windows
        )

    # Every span nested in a step, so that step time splits into self times.
    in_step = steps if steps is not None else np.zeros(n, bool)
    for _ in range(8):
        inherited = np.zeros(n, bool)
        inherited[has_parent] = in_step[parent_pos[has_parent]]
        grown = in_step | inherited
        if (grown == in_step).all():
            break
        in_step = grown
    in_step_self = {
        name: float(times["wall", True][in_step & (sp["name"] == code)].sum()) / rounds
        for name, code in codes.items() if (in_step & (sp["name"] == code)).any()
    }

    untraced = float(np.median(untraced_walls))
    traced = float(np.median(traced_walls))
    madds = tracer.history_madds()
    state = tracer.state_bytes()
    history = select([HISTORY]) is not None
    timed = {
        "stepper.step": ([STEP], False),
        "stepper.linear_solve": ([WOODBURY], False),
        "stepper.tridiag_solve": ([THOMAS], False),
        "stepper.load_assembly": ([LOAD], True),
        "stepper.rhs": ([RHS], True),
        "stepper.history": ([HISTORY], False),
        "spatial.compact_average": ([COMPACT], False),
        "problems.eval": (list(EVALS), False),
        "study.solve": ([SOLVE], False),
        "study.observer": ([OBSERVER], True),
    }
    metrics = {}
    for key, (names, self_time) in timed.items():
        metrics[f"{key}_s"] = (layer(names, "wall", self_time), "s")
        metrics[f"{key}_cpu_s"] = (layer(names, "cpu", self_time), "s")
    solve_wall, solve_cpu = metrics["study.solve_s"][0], metrics["study.solve_cpu_s"][0]
    metrics.update({
        "stepper.steps": (count([STEP]), "count"),
        "stepper.step_us_p50": (float(np.percentile(step_us, 50)) if step_us.size else None, "us"),
        "stepper.step_us_p99": (float(np.percentile(step_us, 99)) if step_us.size else None, "us"),
        "stepper.step_other_s": (layer([STEP], "wall", True), "s"),
        "stepper.tridiag_solves": (count([THOMAS]), "count"),
        "stepper.history_madds": (madds / rounds if history else None, "madds_computed"),
        "stepper.history_bytes": (8 * madds / rounds if history else None, "bytes_computed"),
        "stepper.state_bytes": (max(state) if state else None, "B"),
        "spatial.compact_average_calls": (count([COMPACT]), "count"),
        "problems.evals": (count(list(EVALS)), "count"),
        "study.solves": (count([SOLVE]), "count"),
        "study.threads": (solve_threads, "count"),
        "study.solve_wait_s": (None if solve_wall is None else solve_wall - solve_cpu, "s"),
        "study.check_s": (layer([CHECK]), "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_pct": (100.0 * (traced - untraced) / untraced, "%"),
        "trace.spans": (n / rounds, "count"),
    })
    accounting = {
        "step_s": metrics["stepper.step_s"][0],
        "self_s_within_step": in_step_self,
        "accounted_s": sum(in_step_self.values()),
        "untraced_remainder_s": in_step_self.get(STEP, 0.0),
        "absent": sorted(absent),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}, accounting


def write_spans(tracer: Tracer, path: Path, extra: dict) -> None:
    """Spans as compressed arrays, with their name table and the run's facts."""
    path.parent.mkdir(parents=True, exist_ok=True)
    sp = tracer.spans()
    np.savez_compressed(path, names=np.array(tracer.names), **sp)
    path.with_suffix(".json").write_text(json.dumps(extra, indent=1, sort_keys=True) + "\n")
