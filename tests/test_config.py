"""Config schema: strict validation, defaults, scheme parsing."""

import re
from functools import reduce

import pytest

from wavefall import (
    BranchSchedules,
    Colocated,
    ConfigError,
    default_config,
    load_config,
    parse_config,
)

MINIMAL = {
    "params": {"hbar": 1.0, "m": 1.0, "g": 1.0},
    "grid": {"x_min": -20.0, "x_max": 20.0, "n": 256},
    "initial": {"x0": 0.0, "p0": 0.0, "sigma0": 1.0},
}


def with_extra(**extra):
    cfg = {k: dict(v) for k, v in MINIMAL.items()}
    cfg.update(extra)
    return cfg


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.params.c == 10.0  # c defaults when omitted
    assert cfg.evolve is None
    assert cfg.interfere is None
    assert cfg.verify.n_oracle == 256
    assert cfg.seed == 12345


def test_default_config_matches_shipped_file():
    import json
    from pathlib import Path

    shipped = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    cfg = parse_config(json.loads(shipped.read_text()))
    assert cfg == default_config()


def test_unknown_root_key_rejected():
    with pytest.raises(ConfigError, match="unknown key extra"):
        parse_config(with_extra(extra=1))


def test_missing_sections_named():
    with pytest.raises(ConfigError, match="params"):
        parse_config({"grid": MINIMAL["grid"], "initial": MINIMAL["initial"]})


def test_booleans_are_not_numbers():
    bad = with_extra()
    bad["params"]["g"] = True
    with pytest.raises(ConfigError, match="params.g"):
        parse_config(bad)


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
def test_non_finite_numbers_are_rejected_with_their_path(value):
    bad = with_extra()
    bad["params"]["g"] = value
    with pytest.raises(ConfigError, match=r"params\.g: expected a finite number"):
        parse_config(bad)
    listed = with_extra(interfere={"t_values": [0.5, value]})
    with pytest.raises(ConfigError, match=r"interfere\.t_values\[1\]"):
        parse_config(listed)


def test_integer_literal_too_long_to_parse_is_a_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"seed": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_grid_validation():
    bad = with_extra()
    bad["grid"]["n"] = 100
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(bad)
    bad["grid"] = {"x_min": 5.0, "x_max": -5.0, "n": 64}
    with pytest.raises(ConfigError, match="x_max > x_min"):
        parse_config(bad)
    bad["grid"] = {"x_min": -1e308, "x_max": 1e308, "n": 64}
    with pytest.raises(ConfigError, match="grid: need finite"):
        parse_config(bad)


def test_params_domain_errors_name_the_block():
    bad = with_extra()
    bad["params"]["hbar"] = 0.0
    with pytest.raises(ConfigError, match="params: hbar must be positive"):
        parse_config(bad)


def test_evolve_times_must_increase():
    cfg = with_extra(evolve={"t_values": [1.0, 0.5], "n_steps": 64})
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(cfg)


def test_interfere_scheme_strings_and_objects():
    cfg = with_extra(interfere={"t_values": [0.5], "scheme": "colocated"})
    assert isinstance(parse_config(cfg).interfere.scheme, Colocated)
    cfg = with_extra(
        interfere={
            "t_values": [1.0],
            "scheme": {"branch_a": [[1.0, 1.0]], "branch_b": [[0.0, 1.0]]},
        }
    )
    scheme = parse_config(cfg).interfere.scheme
    assert isinstance(scheme, BranchSchedules)
    assert scheme.accelerated.total_duration == 1.0
    cfg = with_extra(interfere={"t_values": [0.5], "scheme": "drifting"})
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_schedule_pairs_validated():
    cfg = with_extra(
        interfere={
            "t_values": [1.0],
            "scheme": {"branch_a": [[1.0, -1.0]], "branch_b": [[0.0, 1.0]]},
        }
    )
    with pytest.raises(ConfigError, match="duration must be positive"):
        parse_config(cfg)
    # the error names the branch and the segment
    cfg["interfere"]["scheme"] = {
        "branch_a": [[0.0, 1.0]],
        "branch_b": [[1.0, 0.5], [0.0, 0.0]],
    }
    with pytest.raises(
        ConfigError, match=r"interfere\.scheme\.branch_b: segment 1: duration"
    ):
        parse_config(cfg)


def test_backend_restricted():
    cfg = with_extra(interfere={"t_values": [0.5], "backend": "exact-diag"})
    with pytest.raises(ConfigError, match="backend"):
        parse_config(cfg)


def test_verify_bounds():
    # the oracle's one size guard, MAX_DENSE_N = 1024
    assert parse_config(with_extra(verify={"n_oracle": 1024})).verify.n_oracle == 1024
    with pytest.raises(ConfigError, match="n_oracle: must be at most 1024, got 2048"):
        parse_config(with_extra(verify={"n_oracle": 2048}))
    with pytest.raises(ConfigError, match=r"n_oracle: n must be a power of two"):
        parse_config(with_extra(verify={"n_oracle": 12}))
    with pytest.raises(ConfigError, match="c_values"):
        parse_config(with_extra(verify={"c_values": [10.0, 20.0]}))
    with pytest.raises(ConfigError, match="step_counts"):
        parse_config(with_extra(verify={"step_counts": [64]}))


@pytest.mark.parametrize(
    "counts, message",
    [
        ([64], ": need at least two step counts"),
        ([64, 64], ": step counts must be strictly increasing, got [64, 64]"),
        ([128, 64], ": step counts must be strictly increasing, got [128, 64]"),
        ([0, 8], ": n_steps must be >= 1, got 0"),
        ([8.9, 16], "[0]: expected an integer, got 8.9"),
        ([8, True], "[1]: expected an integer, got True"),
        ([], ": expected a non-empty list of numbers"),
    ],
    ids=["one", "repeated", "decreasing", "zero", "float", "bool", "empty"],
)
def test_step_counts_rule(counts, message):
    # at least two strictly increasing integers, the smallest a valid run;
    # 8.9 must not be truncated to a run of 8 steps
    with pytest.raises(ConfigError) as info:
        parse_config(with_extra(verify={"step_counts": counts}))
    assert str(info.value) == "verify.step_counts" + message
    assert parse_config(with_extra(verify={"step_counts": [1, 2]})).verify.step_counts == (1, 2)


def test_seed_range():
    assert parse_config(with_extra(seed=7)).seed == 7
    with pytest.raises(ConfigError, match="seed"):
        parse_config(with_extra(seed=-1))
    with pytest.raises(ConfigError, match="seed"):
        parse_config(with_extra(seed=2**64))


# Each config block: a valid instance, its required keys, and its optional
# keys with the defaults they take when omitted.
BLOCKS = {
    "params": (MINIMAL["params"], ("hbar", "m", "g"), {"c": 10.0}),
    "grid": (MINIMAL["grid"], ("x_min", "x_max", "n"), {}),
    "initial": (MINIMAL["initial"], ("x0", "p0", "sigma0"), {}),
    "evolve": ({"t_values": [0.5], "n_steps": 8}, ("t_values", "n_steps"), {}),
    "interfere": (
        {"t_values": [0.5]},
        ("t_values",),
        {"scheme": Colocated(), "backend": "analytic", "n_steps": 2048},
    ),
    "interfere.scheme": (
        {"branch_a": [[1.0, 1.0]], "branch_b": [[0.0, 1.0]]},
        ("branch_a", "branch_b"),
        {},
    ),
    "verify": (
        {},
        (),
        {
            "n_oracle": 256,
            "n_random": 1000,
            "step_counts": (64, 128, 256, 512),
            "c_values": (10.0, 20.0, 40.0, 80.0),
        },
    ),
}


def with_block(path, block):
    if path == "interfere.scheme":
        return with_extra(interfere={"t_values": [1.0], "scheme": block})
    return with_extra(**{path: block})


@pytest.mark.parametrize("path", list(BLOCKS))
def test_every_block_has_a_strict_schema(path):
    block, required, defaults = BLOCKS[path]
    dotted = re.escape(path)
    with pytest.raises(ConfigError, match=rf"^unknown key {dotted}\.bogus$"):
        parse_config(with_block(path, dict(block, bogus=1)))
    for key in required:
        short = {k: v for k, v in block.items() if k != key}
        with pytest.raises(ConfigError, match=rf"^missing required key {dotted}\.{key}$"):
            parse_config(with_block(path, short))
    parsed = reduce(getattr, path.split("."), parse_config(with_block(path, block)))
    assert {key: getattr(parsed, key) for key in defaults} == defaults
