"""The top-level API is exactly the list the README documents."""

import importlib
import re
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
