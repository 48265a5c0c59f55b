import importlib
import re
import sys
from pathlib import Path

import pytest

import boxworld

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(boxworld.__file__).parent


def _name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9._-]+", requirement)[0].lower()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_numpy_is_the_only_runtime_dependency_and_scipy_is_for_tests():
    import tomllib

    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert [_name(r) for r in project["dependencies"]] == ["numpy"]
    extras = {
        extra: {_name(r) for r in requirements}
        for extra, requirements in project.get("optional-dependencies", {}).items()
    }
    assert [extra for extra, names in extras.items() if "scipy" in names] == ["test"]


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
)
def test_every_name_in_all_resolves(module):
    module = importlib.import_module(f"boxworld.{module}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
