import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import boxworld
from boxworld.boxes import pr_box
from reference import dumps_csv

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


# Public functions that no command reaches, each kept for what names it
# outside the package.
UNREACHED_BY_COMMANDS = {
    "hybrid.bob_state",  # bench/test_oracles.py
    "protocol.copy_distance",  # bench/test_oracles.py
    "audit.effective_box",  # bench/test_oracles.py
}

# Runs cli.main on each argv of the JSON list argv[1] under a profile hook,
# then prints the exit codes and every function of a layer's __all__ whose
# code never ran.
REACH_PROBE = """
import contextlib, inspect, io, json, sys
from boxworld import cli

called = set()

def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(record)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
unreached = []
for layer in ("quantum", "boxes", "hybrid", "protocol", "dsl", "audit"):
    module = sys.modules["boxworld." + layer]
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__code__ not in called:
            unreached.append(layer + "." + name)
print(json.dumps([codes, unreached]))
"""


def test_commands_reach_every_public_function(tmp_path):
    readme = (PYPROJECT.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("boxworld ")]
    box = tmp_path / "pr.csv"
    box.write_text(dumps_csv(pr_box()))
    corpus = [shlex.split(line, comments=True)[1:] for line in lines]
    corpus += [[command, "--box", str(box)] for command in ("verify", "chsh", "local")]
    corpus += [
        ["audit", "--theta-min", "0", "--theta-max", "3.2", "--steps", "40"],
        ["parse", "--expr", "|01> (+) s|10>", "--theta", "0.3", "--dump-rho"],
    ]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", REACH_PROBE, json.dumps(corpus)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    codes, unreached = json.loads(proc.stdout)
    assert len(lines) >= 9 and codes == [0] * len(corpus)
    assert set(unreached) == UNREACHED_BY_COMMANDS


# The underscore names one layer may import from another, each with the
# reason it may. A key is (importer, layer, name), the importer being a
# module or, for an import inside a function, module.function.
PRIVATE_IMPORTS = {
    ("hybrid.bob_state", "audit", "_numerators"): "the chain's integers at one angle, "
    "imported on call so that parse does not load audit",
    ("hybrid", "quantum", "_trace"): "numpy's summation order of a trace, which a density "
    "and its check both divide or compare by",
}


def _private_imports(path: Path) -> set[tuple[str, str, str]]:
    """(importer, layer, name) for each underscore name ``path`` imports from
    a sibling layer, the importer being the module or its enclosing function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
            elif isinstance(child, ast.ImportFrom) and child.module:
                layer = child.module if child.level == 1 else child.module.partition("boxworld.")[2]
                found.update(
                    (owner, layer, alias.name)
                    for alias in child.names
                    if layer and alias.name.startswith("_")
                )
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_layers_import_only_the_allowed_private_names():
    found = set().union(*map(_private_imports, PACKAGE.glob("*.py")))
    assert found == set(PRIVATE_IMPORTS)


# The functions that take a ``digits`` parameter, each with the reason it
# may: only cli decides how a printed figure looks, so every key is in cli.
DIGITS_PARAMETERS = {
    "cli._floats": "the %-pattern of every figure a command prints",
}


def _digits_parameters(path: Path) -> set[str]:
    """module.function for each function in ``path`` with a ``digits`` parameter."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if "digits" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                found.add(f"{path.stem}.{node.name}")
    return found


def test_only_the_cli_formats_printed_figures():
    found = set().union(*map(_digits_parameters, PACKAGE.glob("*.py")))
    assert found == set(DIGITS_PARAMETERS)
    assert all(name.startswith("cli.") for name in DIGITS_PARAMETERS)
