"""The top-level API is exactly the list the README documents, and the
package needs nothing beyond numpy."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import hallaire

README = Path(__file__).resolve().parents[1] / "README.md"


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
