"""The package's exports are the layer modules' __all__ lists, nothing more."""

import ast
import importlib
from pathlib import Path

import wavefall

ROOT = Path(__file__).resolve().parents[1]

LAYERS = (
    "action",
    "analytic",
    "checks",
    "config",
    "core",
    "errors",
    "interferometry",
    "oracle",
    "relativistic",
    "splitstep",
)
MARGIN_HELPERS = {
    "MARGIN_AMPLITUDE",
    "MARGIN_FRACTION",
    "margin_nodes",
    "boundary_amplitude",
    "check_margin",
}
REMOVED = {
    "bvp_trajectory",
    "to_position",
    "matrix_element",
    "position_operator",
    "momentum_operator",
    "MomentumPacket",
    "to_momentum",
    "apply_linear_phase",
}


def test_exports_are_the_union_of_the_layer_lists():
    modules = [importlib.import_module(f"wavefall.{name}") for name in LAYERS]
    declared = {name for module in modules for name in module.__all__}
    assert MARGIN_HELPERS <= declared
    assert len(wavefall.__all__) == len(set(wavefall.__all__))
    assert set(wavefall.__all__) == {"__version__"} | (declared - MARGIN_HELPERS)
    for module in modules:
        for name in set(module.__all__) - MARGIN_HELPERS:
            assert getattr(wavefall, name) is getattr(module, name), name
    for name in MARGIN_HELPERS | REMOVED:
        assert name not in wavefall.__all__
        assert not hasattr(wavefall, name), name


def _referenced_names(node, owners=frozenset()) -> set[str]:
    """Names read by a Name, Attribute or import node, outside each name's own def.

    owners holds the names of the enclosing functions and classes; a name
    used inside its own definition, such as a recursive call, does not count.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners = owners | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    else:
        name = None
    found = {name} if name is not None and name not in owners else set()
    for child in ast.iter_child_nodes(node):
        found |= _referenced_names(child, owners)
    return found


def test_every_export_is_used_by_the_package_demos_or_benchmarks():
    # an export that only its own tests call is dead surface
    files = [
        path
        for folder in ("src/wavefall", "demos", "benchmarks")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    used = set()
    for path in files:
        used |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(wavefall.__all__) - used) == []
