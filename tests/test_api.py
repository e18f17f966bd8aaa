"""The top-level API is exactly the list the README documents, and the
package needs nothing beyond numpy."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hallaire
import hallaire.stepper as stepper

README = Path(__file__).resolve().parents[1] / "README.md"

# The module attributes the traced benchmark run (perfbench/tracing.py)
# replaces by name, with their parameters; it reads the third argument of
# _history_sum as the step index.  Each stepper name is the one route of its
# layer that the march runs (see test_march_runs_every_traced_layer): the
# load sampler of a block, the right-hand side, the history sum, the
# Woodbury close, the tridiagonal sweep and the compact average.  A name
# that moves, changes shape or is left off the march reads 0 in that run.
TRACED = {
    "hallaire.stepper": {
        "step": ["state"],
        "assemble_load_columns": ["state", "t_half"],
        "assemble_rhs": ["state", "load_parts"],
        "_history_sum": ["increments", "kernel", "j", "modes"],
        "woodbury_solve": ["factor", "columns", "row_solves", "inverse", "b"],
        "thomas_solve": ["factor", "b"],
        "compact_average": ["v"],
        "solve": ["problem", "grid", "observers"],
    },
    "hallaire.study": {
        "solve": ["problem", "grid", "observers"],
        "_ErrorTracker.__call__": ["self", "j", "t", "level"],
        "make_problem": ["name", "alpha"],
    },
}


def _readme_api() -> dict:
    """Names per module from the README's "Top-level API" section."""
    text = README.read_text()
    section = text.split("\n## Top-level API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for bullet in re.split(r"\n- ", section)[1:]:
        module, names = bullet.split(":", 1)
        api[module.strip("` ")] = re.findall(r"`([A-Za-z_]\w*)`", names)
    return api


def test_all_matches_readme():
    listed = [name for names in _readme_api().values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(hallaire.__all__) == sorted(listed)


def test_every_name_resolves_to_its_module():
    for module, names in _readme_api().items():
        mod = importlib.import_module(module)
        for name in names:
            assert getattr(hallaire, name) is getattr(mod, name), (module, name)


def test_traced_names_keep_their_call_shapes():
    for module, names in TRACED.items():
        for dotted, params in names.items():
            obj = importlib.import_module(module)
            for part in dotted.split("."):
                obj = getattr(obj, part)
            assert callable(obj), (module, dotted)
            assert list(inspect.signature(obj).parameters) == params, (module, dotted)


def test_march_runs_every_traced_layer(monkeypatch):
    # every traced stepper layer is on the march: the close once per step,
    # the sampler once per load block, the others at least once per step
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in TRACED["hallaire.stepper"].keys() - {"step", "solve"}:
        monkeypatch.setattr(stepper, name, counted(name, getattr(stepper, name)))
    grid = hallaire.Grid1D(1.0, 1.0, 24, 3 * stepper.LOAD_BLOCK + 5)
    state = stepper.solve(hallaire.benchmark_problem(0.5), grid)
    steps = grid.nt
    blocks = -(-steps // state.block_steps)
    assert blocks == 4
    assert calls["woodbury_solve"] == steps
    assert calls["assemble_load_columns"] == blocks
    for name in ("assemble_rhs", "_history_sum", "thomas_solve", "compact_average"):
        assert calls[name] >= steps, name


def test_solve_does_not_import_scipy():
    # scipy is a test-only dependency; a solve across a load-block boundary
    # must run without it
    code = (
        "import sys, hallaire\n"
        "from hallaire import Grid1D, benchmark_problem, make_problem, solve\n"
        "solve(benchmark_problem(0.5), Grid1D(1.0, 1.0, 12, 40))\n"
        "solve(make_problem('integral-load', 0.5), Grid1D(1.0, 1.0, 12, 40))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(hallaire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert len(names["errors"]) == names["grid"].nt + 1
