"""The package's exports are the layer modules' __all__ lists, nothing more."""

import ast
import dataclasses
import importlib
import inspect
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
REMOVED = {
    "bvp_trajectory",
    "to_position",
    "matrix_element",
    "position_operator",
    "momentum_operator",
    "MomentumPacket",
    "to_momentum",
    "apply_linear_phase",
    "BadQuadrature",
    "convergence_report",
    "ConvergenceRow",
    "fourier_matrix",
    "free_evolve",
    "heisenberg_position",
    "dense_propagator",
    "MARGIN_AMPLITUDE",
    "MARGIN_FRACTION",
    "margin_nodes",
    "boundary_amplitude",
    "check_margin",
    "ActionValue",
}


def test_exports_are_the_union_of_the_layer_lists():
    modules = [importlib.import_module(f"wavefall.{name}") for name in LAYERS]
    declared = {name for module in modules for name in module.__all__}
    assert not REMOVED & declared
    assert len(wavefall.__all__) == len(set(wavefall.__all__))
    assert set(wavefall.__all__) == {"__version__"} | declared
    for module in modules:
        for name in module.__all__:
            assert getattr(wavefall, name) is getattr(module, name), name
    for name in REMOVED:
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


def test_no_quadrature_size_or_start_time_comes_back():
    # every path starts at t = 0 and every proper-time quadrature has one size
    for name in (
        "proper_time",
        "rel_action",
        "nr_limit_check",
        "free_fall_trajectory",
        "classical_action",
    ):
        params = inspect.signature(getattr(wavefall, name)).parameters
        assert not {"n_quad", "t0"} & set(params), name
    fields = {f.name for f in dataclasses.fields(wavefall.Trajectory)}
    assert not {"n_quad", "t0"} & fields
    assert not hasattr(wavefall.Trajectory, "from_initial")


def test_interferometry_reaches_the_colocated_kernel_through_analytic_alone():
    # the colocated fringe kernel, its workspace and its margin read live in
    # analytic; interferometry keeps the protocol and imports only the
    # kernel, the segment check and the segment loop among analytic's
    # private names, no margin internal of core, and from action only the
    # two closed forms its predicted columns read
    tree = ast.parse((ROOT / "src/wavefall/interferometry.py").read_text("utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    from_analytic = {name for module, name in imported if module == "analytic"}
    assert {name for name in from_analytic if name.startswith("_")} == {
        "_colocated_fringes",
        "_require_finite_segments",
        "_segment_chain",
    }
    names = {name for _, name in imported}
    assert not {"_MARGIN_AMPLITUDE", "_check_margin", "_guard_index", "_fall"} & names
    from_action = {name for module, name in imported if module == "action"}
    assert from_action == {"_branch_prediction", "_colocated_prediction"}


# The fringe closed forms that the predicted columns read
CLOSED_FORMS = {
    "predicted_phase",
    "gaussian_visibility",
    "_branch_prediction",
    "_colocated_prediction",
    "_free_flight",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((ROOT / f"src/wavefall/{module}.py").read_text("utf-8"))


def _package_imports(tree: ast.Module) -> set[str]:
    """The wavefall modules a module imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("wavefall"):
            found.add(node.module.removeprefix("wavefall.") or "wavefall")
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.removeprefix("wavefall.")
                for alias in node.names
                if alias.name.split(".")[0] == "wavefall"
            }
    return found


def test_the_routes_and_the_closed_forms_import_only_core_and_errors():
    # the three routes stay independent of each other, and the closed forms
    # that check their fringes live in action, which can reach no propagator
    for module in ("analytic", "splitstep", "oracle", "action"):
        assert _package_imports(_tree(module)) <= {"core", "errors"}, module
    defined = {
        module: {
            node.name
            for node in ast.walk(_tree(module))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for module in ("action", "interferometry")
    }
    assert CLOSED_FORMS <= defined["action"]
    assert not CLOSED_FORMS & defined["interferometry"]
