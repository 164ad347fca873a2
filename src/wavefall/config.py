"""Strict JSON run configuration for the command-line tools.

The schema is flat and explicit: params/grid/initial are required, the
evolve/interfere/verify blocks are optional until their command runs, and any
unknown key anywhere is an error naming its dotted path, as is a non-finite
number (Python's json accepts NaN and Infinity).  Identical configs
produce identical runs; the seed drives every randomized sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .analytic import AccelSchedule
from .core import Grid, PhysicalParams
from .errors import ConfigError
from .interferometry import _BACKENDS, BranchSchedules, Colocated
from .oracle import MAX_COMMUTATOR_N
from .splitstep import SolverConfig

__all__ = [
    "DEFAULT_SEED",
    "InitialState",
    "EvolveSettings",
    "InterfereSettings",
    "VerifySettings",
    "RunConfig",
    "parse_config",
    "load_config",
    "default_config",
]

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class InitialState:
    x0: float
    p0: float
    sigma0: float


@dataclass(frozen=True)
class EvolveSettings:
    t_values: tuple[float, ...]
    n_steps: int


@dataclass(frozen=True)
class InterfereSettings:
    t_values: tuple[float, ...]
    scheme: Colocated | BranchSchedules = Colocated()
    backend: str = "analytic"
    n_steps: int = 2048


@dataclass(frozen=True)
class VerifySettings:
    n_oracle: int = 256
    n_random: int = 1000
    step_counts: tuple[int, ...] = (64, 128, 256, 512)
    c_values: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0)


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    grid: Grid
    initial: InitialState
    evolve: EvolveSettings | None = None
    interfere: InterfereSettings | None = None
    verify: VerifySettings = field(default_factory=VerifySettings)
    seed: int = DEFAULT_SEED


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key}")


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"missing required key {path}{key}")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _number_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _strictly_increasing(values: tuple[float, ...], path: str) -> None:
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{path}: values must be strictly increasing")


def _build(path: str, make, *args):
    """make(*args), the domain constructor's ValueError re-raised naming path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _seed(value, path: str) -> int:
    """The seed rule, shared with the CLI's --seed: an unsigned 64-bit integer."""
    seed = _integer(value, path)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{path} must fit an unsigned 64-bit range, got {seed}")
    return seed


def _times_and_steps(obj: dict, path: str, steps=None) -> tuple[tuple[float, ...], int]:
    """t_values and n_steps of a block; n_steps is required unless steps is given."""
    t_values = _number_list(_get(obj, "t_values", path), path + "t_values")
    _strictly_increasing(t_values, path + "t_values")
    if t_values[0] < 0:
        raise ConfigError(f"{path}t_values: times must be non-negative")
    if steps is None or "n_steps" in obj:
        steps = _integer(_get(obj, "n_steps", path), path + "n_steps")
    return t_values, _build(path + "n_steps", SolverConfig, steps).n_steps


def _parse_params(obj, path="params.") -> PhysicalParams:
    obj = _require_mapping(obj, "params")
    _reject_unknown(obj, {"hbar", "m", "g", "c"}, path)
    hbar = _number(_get(obj, "hbar", path), path + "hbar")
    m = _number(_get(obj, "m", path), path + "m")
    g = _number(_get(obj, "g", path), path + "g")
    c = _number(obj.get("c", 10.0), path + "c")
    return _build(path[:-1], PhysicalParams, hbar, m, g, c)


def _parse_grid(obj, path="grid.") -> Grid:
    obj = _require_mapping(obj, "grid")
    _reject_unknown(obj, {"x_min", "x_max", "n"}, path)
    x_min = _number(_get(obj, "x_min", path), path + "x_min")
    x_max = _number(_get(obj, "x_max", path), path + "x_max")
    n = _integer(_get(obj, "n", path), path + "n")
    return _build(path[:-1], Grid, x_min, x_max, n)


def _parse_initial(obj, path="initial.") -> InitialState:
    obj = _require_mapping(obj, "initial")
    _reject_unknown(obj, {"x0", "p0", "sigma0"}, path)
    x0 = _number(_get(obj, "x0", path), path + "x0")
    p0 = _number(_get(obj, "p0", path), path + "p0")
    sigma0 = _number(_get(obj, "sigma0", path), path + "sigma0")
    if sigma0 <= 0:
        raise ConfigError(f"initial.sigma0: must be positive, got {sigma0}")
    return InitialState(x0=x0, p0=p0, sigma0=sigma0)


def _parse_evolve(obj, path="evolve.") -> EvolveSettings:
    obj = _require_mapping(obj, "evolve")
    _reject_unknown(obj, {"t_values", "n_steps"}, path)
    return EvolveSettings(*_times_and_steps(obj, path))


def _parse_schedule(value, path: str) -> AccelSchedule:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of [g, duration] pairs")
    segments = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]: expected a [g, duration] pair")
        segments.append(
            (_number(pair[0], f"{path}[{i}][0]"), _number(pair[1], f"{path}[{i}][1]"))
        )
    return _build(path, AccelSchedule, tuple(segments))


def _parse_scheme(value, path: str):
    if value == "colocated":
        return Colocated()
    if isinstance(value, dict):
        _reject_unknown(value, {"branch_a", "branch_b"}, path + ".")
        a = _parse_schedule(_get(value, "branch_a", path + "."), path + ".branch_a")
        b = _parse_schedule(_get(value, "branch_b", path + "."), path + ".branch_b")
        return BranchSchedules(accelerated=a, reference=b)
    raise ConfigError(
        f"{path}: expected \"colocated\" or an object with branch_a/branch_b"
    )


def _parse_interfere(obj, path="interfere.") -> InterfereSettings:
    obj = _require_mapping(obj, "interfere")
    _reject_unknown(obj, {"t_values", "scheme", "backend", "n_steps"}, path)
    t_values, n_steps = _times_and_steps(obj, path, InterfereSettings.n_steps)
    scheme = _parse_scheme(obj.get("scheme", "colocated"), path + "scheme")
    backend = obj.get("backend", "analytic")
    if backend not in _BACKENDS:
        raise ConfigError(
            f"{path}backend: expected one of {_BACKENDS}, got {backend!r}"
        )
    return InterfereSettings(
        t_values=t_values, scheme=scheme, backend=backend, n_steps=n_steps
    )


def _parse_verify(obj, grid: Grid, path="verify.") -> VerifySettings:
    obj = _require_mapping(obj, "verify")
    _reject_unknown(obj, {"n_oracle", "n_random", "step_counts", "c_values"}, path)
    defaults = VerifySettings()
    n_oracle = _integer(obj.get("n_oracle", defaults.n_oracle), path + "n_oracle")
    # The checks run the oracle on this grid; the commutator guard is the tighter.
    _build(path + "n_oracle", Grid, grid.x_min, grid.x_max, n_oracle)
    if n_oracle > MAX_COMMUTATOR_N:
        raise ConfigError(
            f"{path}n_oracle: must be at most {MAX_COMMUTATOR_N}, got {n_oracle}"
        )
    n_random = _integer(obj.get("n_random", defaults.n_random), path + "n_random")
    if n_random < 1:
        raise ConfigError(f"{path}n_random: must be >= 1, got {n_random}")
    if "step_counts" in obj:
        raw = obj["step_counts"]
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError(f"{path}step_counts: expected a list of >= 2 integers")
        counts = tuple(
            _integer(v, f"{path}step_counts[{i}]") for i, v in enumerate(raw)
        )
        if any(b <= a for a, b in zip(counts, counts[1:])) or counts[0] < 1:
            raise ConfigError(f"{path}step_counts: must be strictly increasing and >= 1")
    else:
        counts = defaults.step_counts
    if "c_values" in obj:
        cs = _number_list(obj["c_values"], path + "c_values")
        _strictly_increasing(cs, path + "c_values")
        if len(cs) < 3 or cs[0] <= 0:
            raise ConfigError(f"{path}c_values: need >= 3 positive increasing values")
    else:
        cs = defaults.c_values
    return VerifySettings(
        n_oracle=n_oracle, n_random=n_random, step_counts=counts, c_values=cs
    )


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig; raises ConfigError."""
    raw = _require_mapping(raw, "config root")
    _reject_unknown(
        raw,
        {"params", "grid", "initial", "evolve", "interfere", "verify", "seed"},
        "",
    )
    params = _parse_params(_get(raw, "params", ""))
    grid = _parse_grid(_get(raw, "grid", ""))
    initial = _parse_initial(_get(raw, "initial", ""))
    evolve = _parse_evolve(raw["evolve"]) if "evolve" in raw else None
    interfere = _parse_interfere(raw["interfere"]) if "interfere" in raw else None
    verify = _parse_verify(raw["verify"], grid) if "verify" in raw else VerifySettings()
    seed = _seed(raw["seed"], "seed") if "seed" in raw else DEFAULT_SEED
    return RunConfig(
        params=params,
        grid=grid,
        initial=initial,
        evolve=evolve,
        interfere=interfere,
        verify=verify,
        seed=seed,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file; raises ConfigError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def default_config() -> RunConfig:
    """Built-in defaults: the canonical grid and parameters used by verify."""
    return RunConfig(
        params=PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0),
        grid=Grid(x_min=-20.0, x_max=20.0, n=256),
        initial=InitialState(x0=0.0, p0=0.0, sigma0=1.0),
        evolve=EvolveSettings(
            t_values=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0), n_steps=1024
        ),
        interfere=InterfereSettings(
            t_values=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        ),
        verify=VerifySettings(),
        seed=DEFAULT_SEED,
    )
