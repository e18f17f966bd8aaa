"""Solver benchmark of the hallaire package.

    python3 perfbench/run.py --workload long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                   # every workload, one process each
    python3 perfbench/run.py --self-test       # the checks' own self-test

Run from the root of a checkout: the program is imported from its ``src``
directory, never from an installed copy.  A run repeats whole rounds of one
workload (see ``workloads.py``) for about ``--seconds`` and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  Earlier lines give the machine facts and each round.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("long", "wide", "deep", "integral")
SETUP_PROBES = 7


class Round(NamedTuple):
    wall: float
    # ``wall`` at the machine speed of ``probe.REFERENCE_S``: see probe.py.
    norm_wall: float
    # CPU time of the whole process, all its threads.
    cpu: float
    traced: bool
    outcome: object


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src``; stop if it is not there."""
    package = SRC / "hallaire"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no program source at {package}; run the benchmark from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import hallaire

    if Path(hallaire.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: hallaire was imported from {hallaire.__file__}, not from {package}")


def machine_facts() -> dict:
    """Recorded as found; the benchmark changes none of them."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": openblas,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def setup_probe(workload: str) -> None:
    """Child process: import, build the workload's configs, load its table, report the time."""
    use_checkout_source()
    import workloads

    workloads.prepare(workload)
    print(repr(time.monotonic()), flush=True)


def setup_seconds(workload: str, probes: int) -> list[float]:
    """Process start to ready-to-solve, measured in fresh child processes."""
    times = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def measure(w, seconds: float, install=None) -> list[Round]:
    """Whole rounds until the next would overrun ``seconds``.

    The first round warms up (the worker pool, first calls, caches) and is
    left out of the timing; its operations are checked and counted like
    those of every other round.  After it, rounds are plain, or with
    ``install`` (a context manager that turns tracing on) alternate traced
    and plain; there is at least one timed round of each kind.  The machine
    probe runs before the first round and after every round.
    """
    rounds = []
    probes = [probe.probe()]
    start = time.perf_counter()
    least = 3 if install is not None else 2
    while True:
        traced = install is not None and len(rounds) % 2 == 1
        with install() if traced else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            outcome = w.round()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        probes.append(probe.probe())
        scaled = wall * probe.REFERENCE_S / statistics.fmean(probes[-2:])
        rounds.append(Round(wall, scaled, cpu, traced, outcome))
        emit({"round": len(rounds), "warmup": len(rounds) == 1, "traced": traced, "wall_s": wall,
              "probe_s": probes[-2:], "norm_wall_s": scaled, "cpu_s": cpu,
              "attempted": outcome.attempted, "failed": outcome.failed, "notes": outcome.notes})
        elapsed = time.perf_counter() - start
        if len(rounds) >= least and elapsed + max(r.wall for r in rounds) + max(probes) > seconds:
            return rounds


def run_workload(args) -> int:
    use_checkout_source()
    import checks
    import selftest
    import workloads
    from hallaire import stepper, study

    emit({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
          "inputs": "fixed presets; the seed is recorded and does not change them",
          "facts": machine_facts()})
    # Set-up is timed first, while this process is idle: set-up probes taken
    # after the rounds, on `deep` above all, were up to twice as slow as those
    # taken before them.  A traced run reports no set-up time.
    setups = [] if args.trace else setup_seconds(args.workload, SETUP_PROBES)
    if setups:
        emit({"setup_s": setups})
    cases = selftest.run()
    selftest_ok = all(ok for _, ok, _ in cases)
    emit({"selftest_ok": selftest_ok, "failing": [f"{n}: {d}" for n, ok, d in cases if not ok]})

    w = workloads.prepare(args.workload)

    tracer = install = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        modules = {"stepper": stepper, "study": study, "checks": checks, "workloads": workloads}
        install = lambda: tracing.installed(tracer, modules)  # noqa: E731
    rounds = measure(w, args.seconds, install)

    attempted = sum(r.outcome.attempted for r in rounds)
    failed = sum(r.outcome.failed for r in rounds)
    plain = [r for r in rounds[1:] if not r.traced]
    result = {"correct": selftest_ok and failed == 0, "attempted": attempted, "failed": failed}
    if args.trace:
        traced = [r for r in rounds if r.traced]
        metrics, accounting = tracing.layer_metrics(
            tracer, len(traced), [r.wall for r in traced], [r.wall for r in plain]
        )
        spans_path = OUT / f"{args.workload}-spans.npz"
        tracing.write_spans(tracer, spans_path, {"workload": args.workload, "seed": args.seed,
                                                 "metrics": metrics, "step_accounting": accounting})
        emit({"spans": str(spans_path.relative_to(ROOT)), "step_accounting": accounting})
    else:
        wall = statistics.median(r.wall for r in plain)
        norm_wall = statistics.median(r.norm_wall for r in plain)
        emit({"wall_s": wall, "node_steps_per_s": plain[0].outcome.node_steps / wall,
              "cpu_s": statistics.median(r.cpu for r in plain)})
        errs = [r.outcome.err_max for r in plain if r.outcome.err_max == r.outcome.err_max]
        metrics = {
            "norm_wall_s": {"value": norm_wall, "unit": "s"},
            "norm_node_steps_per_s": {"value": plain[0].outcome.node_steps / norm_wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "err_max": {"value": max(errs) if errs else None, "unit": "1"},
        }
    result["metrics"] = metrics
    emit(result)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one summary line each and a combined last line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    emit(total)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="recorded with the result; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="run only the checks' self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.self_test:
        use_checkout_source()
        import selftest

        cases = selftest.run()
        for name, ok, detail in cases:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        return 0 if all(ok for _, ok, _ in cases) else 1
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
