"""Strict JSON run configuration for the command-line tools.

The schema is flat and explicit: params/grid/initial are required, the
evolve/interfere/verify blocks are optional until their command runs, and any
unknown key anywhere is an error naming its dotted path, as is a non-finite
number (Python's json accepts NaN and Infinity).  Identical configs
produce identical runs; the seed drives every randomized sweep.

Each block is one dict from key to parser, read by _block; omitted keys take
the settings dataclasses' defaults.  No domain rule is copied: blocks go to
their constructors, and verify.step_counts and verify.c_values to the rules
of convergence_report and nr_limit_check, each failure naming its path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

from . import relativistic, splitstep
from .analytic import AccelSchedule
from .core import Grid, PhysicalParams, WavePacket, make_gaussian
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
    verify: VerifySettings = VerifySettings()
    seed: int = DEFAULT_SEED


def _block(obj, path: str, kinds: dict, defaults=None) -> dict:
    """Read one config object: kinds maps each allowed key to its parser.

    path is the block's dotted prefix ("" for the root).  An unknown key is
    rejected and a missing key without an entry in defaults is named, each by
    its dotted path; an omitted key in defaults takes that default.
    """
    if not isinstance(obj, dict):
        name = path[:-1] or "config root"
        raise ConfigError(f"{name}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in kinds:
            raise ConfigError(f"unknown key {path}{key}")
    values = {}
    for key, parse in kinds.items():
        if key in obj:
            values[key] = parse(obj[key], path + key)
        elif key in (defaults or {}):
            values[key] = defaults[key]
        else:
            raise ConfigError(f"missing required key {path}{key}")
    return values


def _field_defaults(cls) -> dict:
    """The defaults of a settings dataclass, so that config restates none."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


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


def _list(value, path: str, item=_number) -> tuple:
    # A tuple is a settings value built in code; JSON gives lists only.
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), the domain rule's ValueError re-raised naming path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _seed(value, path: str) -> int:
    """The seed rule, shared with the CLI's --seed: an unsigned 64-bit integer."""
    seed = _integer(value, path)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{path} must fit an unsigned 64-bit range, got {seed}")
    return seed


def _positive(value, path: str) -> float:
    number = _number(value, path)
    if number <= 0:
        raise ConfigError(f"{path}: must be positive, got {number}")
    return number


def _times(value, path: str) -> tuple[float, ...]:
    times = _list(value, path)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"{path}: values must be strictly increasing")
    if times[0] < 0:
        raise ConfigError(f"{path}: times must be non-negative")
    return times


def _steps(value, path: str) -> int:
    return _build(path, SolverConfig, _integer(value, path)).n_steps


def _step_counts(value, path: str) -> tuple[int, ...]:
    return tuple(_build(path, splitstep._step_counts, _list(value, path, _integer)))


def _c_values(value, path: str) -> tuple[float, ...]:
    return tuple(_build(path, relativistic._c_values, _list(value, path)))


def _backend(value, path: str) -> str:
    if value not in _BACKENDS:
        raise ConfigError(f"{path}: expected one of {_BACKENDS}, got {value!r}")
    return value


def _n_random(value, path: str) -> int:
    n_random = _integer(value, path)
    if n_random < 1:
        raise ConfigError(f"{path}: must be >= 1, got {n_random}")
    return n_random


def _schedule(value, path: str) -> AccelSchedule:
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


def _scheme(value, path: str):
    if value == "colocated":
        return Colocated()
    if isinstance(value, dict):
        kinds = {"branch_a": _schedule, "branch_b": _schedule}
        branches = _block(value, path + ".", kinds)
        return BranchSchedules(branches["branch_a"], branches["branch_b"])
    raise ConfigError(
        f"{path}: expected \"colocated\" or an object with branch_a/branch_b"
    )


def _reader(make, kinds: dict, defaults=None):
    """The parser of one block: its values read by _block, built by make."""
    return lambda obj, path: _build(path, make, **_block(obj, path + ".", kinds, defaults))


_VERIFY = {
    "n_oracle": _integer,
    "n_random": _n_random,
    "step_counts": _step_counts,
    "c_values": _c_values,
}

_ROOT = {
    "params": _reader(
        PhysicalParams,
        {"hbar": _number, "m": _number, "g": _number, "c": _number},
        {"c": PhysicalParams.c},
    ),
    "grid": _reader(Grid, {"x_min": _number, "x_max": _number, "n": _integer}),
    "initial": _reader(InitialState, {"x0": _number, "p0": _number, "sigma0": _positive}),
    "evolve": _reader(EvolveSettings, {"t_values": _times, "n_steps": _steps}),
    "interfere": _reader(
        InterfereSettings,
        {"t_values": _times, "n_steps": _steps, "scheme": _scheme, "backend": _backend},
        _field_defaults(InterfereSettings),
    ),
    "verify": _reader(VerifySettings, _VERIFY, _field_defaults(VerifySettings)),
    "seed": _seed,
}


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig; raises ConfigError."""
    cfg = RunConfig(**_block(raw, "", _ROOT, _field_defaults(RunConfig)))
    # The checks run the oracle on this grid; the commutator guard is the tighter.
    n_oracle = _oracle_grid(cfg).n
    if n_oracle > MAX_COMMUTATOR_N:
        raise ConfigError(
            f"verify.n_oracle: must be at most {MAX_COMMUTATOR_N}, got {n_oracle}"
        )
    return cfg


def _verify_setting(cfg: RunConfig, key: str):
    """cfg.verify.<key> read through its config rule; ConfigError names the key.

    The checks read every setting this way, so a VerifySettings built in
    code, which no rule has seen, fails the checks that use a bad value.
    """
    return _VERIFY[key](getattr(cfg.verify, key), f"verify.{key}")


def _oracle_grid(cfg: RunConfig) -> Grid:
    """The configured bounds with verify.n_oracle nodes; ConfigError names the key."""
    n_oracle = _verify_setting(cfg, "n_oracle")
    return _build("verify.n_oracle", Grid, cfg.grid.x_min, cfg.grid.x_max, n_oracle)


def _start_packet(cfg: RunConfig, grid: Grid | None = None) -> WavePacket:
    """The configured Gaussian start state, on grid or else the configured grid."""
    init = cfg.initial
    return make_gaussian(grid or cfg.grid, init.x0, init.p0, init.sigma0, cfg.params)


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
