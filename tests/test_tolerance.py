import ast
from pathlib import Path

import boxworld
from boxworld import tolerance

PACKAGE = Path(boxworld.__file__).parent


def _tree(name: str) -> ast.Module:
    path = PACKAGE / name
    return ast.parse(path.read_text(), str(path))


def _small_float_literals(tree: ast.Module) -> list[tuple[int, float]]:
    """(line, value) of every nonzero float literal below 1e-3 in magnitude."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3
    ]


def test_every_tolerance_lives_in_the_tolerance_module():
    names = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert "tolerance.py" in names and len(names) > 5
    stray = {
        name: found
        for name in names
        if name != "tolerance.py" and (found := _small_float_literals(_tree(name)))
    }
    assert stray == {}


def test_three_values_and_no_imports():
    assert {name: getattr(tolerance, name) for name in tolerance.__all__} == {
        "ROUNDING": 1e-12,
        "EIGEN_ROUNDING": 1e-10,
        "DEFAULT_TOL": 1e-9,
    }
    # So the command line reads DEFAULT_TOL without loading numpy or a layer.
    tree = _tree("tolerance.py")
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
