"""The package's exports are the layer modules' __all__ lists, nothing more."""

import importlib

import wavefall

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
