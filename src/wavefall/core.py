"""Shared domain types: physical constants, spectral grid, wave packets, observables.

Everything downstream (the factored propagator, the split-step solver, the
dense oracle, the interference protocol) works on the value types defined
here.  States are complex amplitudes sampled on a periodic lattice and carry
the normalization sum |amp|^2 dx = 1; momentum space uses the wavenumber
lattice k_j = 2 pi j / (x_max - x_min) for j in {-n/2, ..., n/2 - 1} with the
measure dk, so the two representations are unitarily equivalent (Parseval
holds on the lattice exactly).
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    BadSigma,
    GridMismatch,
    GridOverflow,
    NegativeTime,
    NonFiniteState,
)

__all__ = [
    "PhysicalParams",
    "Grid",
    "WavePacket",
    "Moments",
    "Trajectory",
    "make_gaussian",
    "moments",
    "overlap",
    "l2_distance",
]

# Amplitude allowed on the guarded boundary nodes; anything at or above this
# means the packet is touching the edge and periodic wrap-around would silently
# corrupt the evolution, so producing operations raise GridOverflow instead.
_MARGIN_AMPLITUDE = 1.0e-10
# Fraction of nodes guarded at each end of the grid.
_MARGIN_FRACTION = 0.05

# Argument types read as one value per row; anything else, a 0-d ndarray
# included, broadcasts.
_SEQUENCES = (list, tuple, np.ndarray)


@dataclass(frozen=True)
class PhysicalParams:
    """Problem constants in natural units.

    hbar and m are the quantum scale and mass, g is the uniform acceleration
    entering the potential V = +m*g*x (so packets accelerate toward -x for
    g > 0), and c is the signal speed used only by the proper-time module.
    Every field must be finite; g may carry either sign or be zero.
    """

    hbar: float = 1.0
    m: float = 1.0
    g: float = 1.0
    c: float = 10.0

    def __post_init__(self) -> None:
        for name in ("hbar", "m", "g", "c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not self.m > 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic position lattice with its spectral companion.

    The bounds and their span must be finite, n must be an integer power of
    two, at least 8, and the span large enough for n nodes: dx positive and
    every wavenumber finite.  Position nodes are
    x_i = x_min + i*dx with dx = (x_max - x_min)/n; x_max itself is the wrap
    point and carries no node.  The wavenumber array k is stored in FFT layout
    (non-negative frequencies first), matching numpy.fft conventions.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.length))):
            raise ValueError(
                f"need finite x_min, x_max and x_max - x_min, "
                f"got [{self.x_min}, {self.x_max}]"
            )
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        _require_count("n", self.n)
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.dx > 0:
            raise ValueError(
                f"span {self.length} is too small for n={self.n}: dx={self.dx}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(self.k).all():
                raise ValueError(
                    f"span {self.length} is too small for n={self.n}: "
                    f"the wavenumbers overflow"
                )

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dk(self) -> float:
        return 2.0 * math.pi / self.length

    @cached_property
    def x(self) -> np.ndarray:
        nodes = self.x_min + self.dx * np.arange(self.n)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def k(self) -> np.ndarray:
        wav = 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx)
        wav.setflags(write=False)
        return wav


def _frozen(value, shape: tuple[int, ...], name: str, keep_real=False) -> np.ndarray:
    """A read-only complex copy, float64 if keep_real and real; ValueError off shape."""
    real = keep_real and not np.iscomplexobj(value)
    a = np.array(value, dtype=np.float64 if real else np.complex128, copy=True)
    if a.shape != shape:
        raise ValueError(f"{name} shape {a.shape} does not match grid n={shape[0]}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class WavePacket:
    """Position-space state: complex amplitudes on a Grid.

    Normalization convention: sum |amp|^2 dx = 1.  Instances are value
    objects; the amplitude array is frozen read-only and operations return
    new packets.
    """

    grid: Grid
    amp: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp", _frozen(self.amp, (self.grid.n,), "amp"))

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2) * self.grid.dx)


@dataclass(frozen=True)
class Moments:
    """Lattice observables of a state: norm, means, and spreads."""

    norm: float
    mean_x: float
    mean_p: float
    sigma_x: float
    sigma_p: float


@dataclass(frozen=True)
class Trajectory:
    """Classical path under constant acceleration, convention xddot = -g.

    The path leaves x0 with velocity v0 at time 0.
    """

    x0: float
    v0: float
    g: float

    def position(self, t):
        """x(t); accepts a scalar or ndarray of times."""
        t = np.asarray(t)
        out = self.x0 + self.v0 * t - 0.5 * self.g * t * t
        return out if np.ndim(t) else float(out)

    def velocity(self, t):
        """xdot(t); accepts a scalar or ndarray of times."""
        out = self.v0 - self.g * np.asarray(t)
        return out if np.ndim(t) else float(out)


@cache
def _guard_index(n: int) -> np.ndarray:
    """Indices of the outer max(1, 5% of n) nodes at each end of an n-node grid."""
    m = max(1, int(n * _MARGIN_FRACTION))
    index = np.r_[0:m, n - m : n]
    index.setflags(write=False)
    return index


@lru_cache(maxsize=8)
def _extremes(grid: Grid) -> tuple[float, float]:
    """k_max and x_max, the grid's largest |k| and |x|, which bound phase angles."""
    return float(np.abs(grid.k).max()), float(np.abs(grid.x).max())


def _in_row(row: int, batched: bool) -> str:
    """How every refusal names a row: " in row R" if batched, else nothing."""
    return f" in row {row}" if batched else ""


def _check_margin(
    stack: np.ndarray, context: str, batched: bool, rows=None, at=None
) -> None:
    """Raise GridOverflow at the first row of a (rows, n) stack over the margin.

    The message reads "<context>: boundary amplitude A on the outer M
    nodes[ in row R][ at step k/N (t=T)] exceeds the 1e-10 margin; enlarge
    the grid or shorten the evolution".  R is named and mapped through rows
    as in _require_finite, and carried as .row; at, when given, maps R to
    (k, N, T).  The clean case costs one gather of the guarded nodes of
    every row, one abs and one global max.  Only a max that is not below
    _MARGIN_AMPLITUDE, a NaN max included so the check fails closed on NaN
    and inf, reduces that same gathered array to per-row maxima to find R
    and its amplitude A.
    """
    index = _guard_index(stack.shape[-1])
    edges = np.abs(stack.take(index, axis=-1))
    if edges.max() < _MARGIN_AMPLITUDE:
        return
    worst = edges.max(axis=-1)
    first = int(np.flatnonzero(~(worst < _MARGIN_AMPLITUDE))[0])
    row = first if rows is None else rows[first]
    when = "" if at is None else " at step {}/{} (t={:.6g})".format(*at(row))
    raise GridOverflow(
        f"{context}: boundary amplitude {worst[first]:.3e} on the outer "
        f"{len(index) // 2} nodes{_in_row(row, batched)}{when} "
        f"exceeds the {_MARGIN_AMPLITUDE:.0e} margin; enlarge the grid or "
        f"shorten the evolution",
        row=row,
    )


def _require_finite(
    stack: np.ndarray, context: str, batched: bool, rows=None
) -> None:
    """Raise NonFiniteState naming the first NaN or inf node of a (rows, n) stack.

    The message reads "<context>: non-finite amplitude[ in row R] at node N",
    the row named only for a batched call.  When stack row i stands for row
    rows[i] of the caller's stack, R is the caller's row, carried as .row.
    A finite sum proves every node finite, since a NaN or inf never sums to
    a finite value; only a sum that is not finite, which finite nodes near
    the float limit can also give, pays for the node-by-node search.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if cmath.isfinite(stack.sum()):
            return
    finite = np.isfinite(stack)
    if not finite.all():
        row, node = divmod(int(np.argmin(finite)), stack.shape[-1])
        if rows is not None:
            row = rows[row]
        raise NonFiniteState(
            f"{context}: non-finite amplitude{_in_row(row, batched)} at node {node}",
            row=row,
        )


def _require_finite_scalars(
    context: str, result: bool = False, row: int | None = None, **values: float
) -> None:
    """Raise NonFiniteState naming the first scalar that is NaN or inf.

    The message reads "<context>: <name>=<value> is not finite" for an
    argument, and "<context>: result <name>=<value> is not finite" when
    result is True; the exception carries row as .row.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            kind = "result " if result else ""
            raise NonFiniteState(
                f"{context}: {kind}{name}={value} is not finite", row=row
            )


def _require_finite_rows(
    context: str, batched: bool, result: bool = True, **columns: list
) -> None:
    """Raise NonFiniteState at the first value, row by row, that is NaN or inf.

    Each column holds one value per row, searched row by row and, within a
    row, in the order given.  The message reads "<context>[ in row R]:
    [result ]<name>=<value> is not finite", the row named only for a batched
    call and carried as .row; result=False, for the arguments of a call,
    leaves out "result ".  Entry points pass each row's largest phase
    angles formed in the kernel's order, before building any phase: numpy
    divides a complex array by a real d as a product with 1/d, so a finite
    angle means the phase is built without overflow.
    """
    for row, values in enumerate(zip(*columns.values())):
        if not all(map(math.isfinite, values)):
            _require_finite_scalars(
                f"{context}{_in_row(row, batched)}", result, row,
                **dict(zip(columns, values)),
            )


def _shared_hbar_m(context: str, pars) -> tuple[float, float]:
    """The hbar and m that every row's params share; ValueError if they differ."""
    hbar, m = pars[0].hbar, pars[0].m
    if any((p.hbar, p.m) != (hbar, m) for p in pars):
        raise ValueError(f"{context}: rows must share hbar and m")
    return hbar, m


class _RefuseOverflow:
    """`with _RefuseOverflow(context):` turns float overflow into NonFiniteState.

    Python float arithmetic raises OverflowError (x**3 past the float range)
    or ZeroDivisionError (a divisor that underflowed to 0) where numpy would
    give inf or NaN, and numpy raises FloatingPointError under
    np.errstate(..., "raise"); inside the block each is re-raised as
    NonFiniteState, "<context>: a result overflows the float range (<type>)",
    carrying row as .row.  A class, not a contextlib generator, which costs
    three times as much per block.
    """

    def __init__(self, context: str, row: int | None = None) -> None:
        self.context, self.row = context, row

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(
            kind, (OverflowError, ZeroDivisionError, FloatingPointError)
        ):
            raise NonFiniteState(
                f"{self.context}: a result overflows the float range ({kind.__name__})",
                row=self.row,
            ) from exc


def _require_count(name: str, value) -> None:
    """Raise ValueError naming a count that is not an integer; bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_times(context: str, times, batched: bool = False) -> None:
    """Raise NonFiniteState at a NaN or inf time, else NegativeTime at a negative one.

    Finiteness comes first over every time, as _require_finite_rows decides
    it: "<context>[ in row R]: t=<value> is not finite", the row named only
    for a batched call and carried as .row.  Then the first negative time
    raises NegativeTime, "<context>: t must be finite and >= 0, got <t>";
    -0.0 is accepted.
    """
    for t in times:
        if not 0 <= t < math.inf:
            _require_finite_rows(context, batched, result=False, t=list(times))
            raise NegativeTime(f"{context}: t must be finite and >= 0, got {t}")


def _as_rows(context: str, *values) -> tuple[bool, list[list]]:
    """Broadcast single values against equal-length sequences, one entry per row.

    Returns (batched, columns): batched is True when any value is a sequence
    (list, tuple or ndarray of at least one dimension), and each column
    holds its argument's value for every row.
    """
    columns = [
        list(v) if isinstance(v, _SEQUENCES) and getattr(v, "ndim", 1) else None
        for v in values
    ]
    lengths = sorted({len(c) for c in columns if c is not None})
    if len(lengths) > 1:
        raise ValueError(f"{context}: sequence arguments differ in length: {lengths}")
    rows = lengths[0] if lengths else 1
    return bool(lengths), [
        c if c is not None else [v] * rows for c, v in zip(columns, values)
    ]


def _stack(psis: list[WavePacket]) -> np.ndarray:
    """The amplitudes of packets on one grid as a fresh C-contiguous (rows, n) stack."""
    for psi in psis[1:]:
        _require_same_grid(psis[0], psi)
    return np.stack([psi.amp for psi in psis])


def _packets(grid: Grid, amp: np.ndarray, batched: bool):
    """One WavePacket per row of a stack; the bare packet for a single call.

    amp must be the caller's own fresh (rows, n) complex stack: it is frozen
    read-only and each packet's amp is a view of its row, not a copy, so a
    packet that is kept holds the whole stack alive.
    """
    amp.setflags(write=False)
    out = []
    for row in amp:
        psi = object.__new__(WavePacket)
        object.__setattr__(psi, "grid", grid)
        object.__setattr__(psi, "amp", row)
        out.append(psi)
    return out if batched else out[0]


def make_gaussian(
    grid: Grid, x0: float, p0: float, sigma0: float, params: PhysicalParams
) -> WavePacket:
    """Normalized Gaussian packet centered at x0 with mean momentum p0.

    Parameters
    ----------
    grid : Grid
        Lattice the packet lives on.
    x0, p0 : float
        Center and mean momentum, both finite.  x0 must sit at least
        6*sigma0 away from both grid edges; |p0| must stay below half the
        largest lattice momentum hbar*pi/dx.
    sigma0 : float
        Position spread; must be positive, finite and at least 2*dx so the
        packet is resolved.

    Returns
    -------
    WavePacket
        Lattice-normalized state with sigma_x = sigma0 and
        sigma_p = hbar/(2*sigma0) up to grid truncation.
    """
    # Every check is written to fail closed: a NaN input is refused here.
    if not 0 < sigma0 < math.inf:
        raise BadSigma(f"sigma0 must be positive and finite, got {sigma0}")
    _require_finite_scalars("make_gaussian", x0=x0, p0=p0)
    if not (grid.x_min <= x0 - 6.0 * sigma0 and x0 + 6.0 * sigma0 <= grid.x_max):
        raise GridOverflow(
            f"make_gaussian: 6-sigma support [{x0 - 6 * sigma0:.4g}, "
            f"{x0 + 6 * sigma0:.4g}] of x0={x0} leaves the grid "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    if sigma0 < 2.0 * grid.dx:
        raise BadSigma(
            f"sigma0={sigma0} narrower than 2*dx={2 * grid.dx:.4g}; refine the grid"
        )
    p_nyquist = params.hbar * math.pi / grid.dx
    if not abs(p0) < 0.5 * p_nyquist:
        raise GridOverflow(
            f"make_gaussian: |p0|={abs(p0):.4g} is not below half the lattice "
            f"momentum limit {p_nyquist:.4g}"
        )
    x = grid.x
    amp = np.exp(
        -((x - x0) ** 2) / (4.0 * sigma0**2) + 1j * p0 * x / params.hbar
    )
    amp = amp / math.sqrt(float(np.sum(np.abs(amp) ** 2)) * grid.dx)
    psi = WavePacket(grid, amp)
    _check_margin(psi.amp[None], "make_gaussian", False)
    return psi


def _momentum_amp(amp: np.ndarray, g: Grid) -> np.ndarray:
    """Momentum amplitudes of a position stack, transformed in place.

    Convention: amp_k(k_j) = dx/sqrt(2 pi) * sum_i amp(x_i) e^{-i k_j x_i},
    in FFT layout, which preserves the lattice norm (Parseval).
    """
    np.fft.fft(amp, out=amp)
    amp *= np.exp(-1j * g.k * g.x_min)
    amp *= g.dx / math.sqrt(2.0 * math.pi)
    return amp


def moments(
    psi: WavePacket | Sequence[WavePacket],
    params: PhysicalParams | Sequence[PhysicalParams],
):
    """Norm, position and momentum means, and spreads of a state.

    Position moments come from the lattice quadrature of |amp|^2; momentum
    moments from the momentum representation with p = hbar*k.  Both are
    normalized by the measured norm so slightly unnormalized inputs still
    give meaningful means.

    psi and params may each be a single value or an equal-length sequence;
    the rows, which must share the grid and hbar, are reduced as one
    (rows, n) stack, each bit-identical to a single call, and a list is
    returned when either argument is a sequence.  Raises NonFiniteState,
    itself a ValueError, when a row's norm is NaN or infinite, and ValueError
    when it is zero or subnormal (below np.finfo(float).tiny), naming the
    first such row: a subnormal norm has lost its precision to underflow,
    and so would every density taken from the state.
    """
    batched, (psis, pars) = _as_rows("moments", psi, params)
    if not psis:
        return []
    g, hbar = psis[0].grid, pars[0].hbar
    if any(p.hbar != hbar for p in pars):
        raise ValueError("moments: rows must share hbar")
    amp = _stack(psis)
    prob = np.abs(amp) ** 2
    norm = np.sum(prob, axis=-1) * g.dx
    tiny = np.finfo(float).tiny
    # Fail closed: a NaN norm is not inside the interval either.
    bad = np.flatnonzero(~((tiny <= norm) & (norm < math.inf)))
    if bad.size:
        row = int(bad[0])
        what = "subnormal" if 0 < norm[row] < tiny else "not positive and finite"
        message = (
            f"moments: norm {norm[row]}{_in_row(row, batched)} is {what}; "
            f"cannot take moments"
        )
        if norm[row] < tiny:
            raise ValueError(message)
        raise NonFiniteState(message, row=row)
    mean_x = np.sum(g.x * prob, axis=-1) * g.dx / norm
    var_x = np.sum((g.x - mean_x[:, None]) ** 2 * prob, axis=-1) * g.dx / norm
    del prob  # freed before the momentum transform: peak memory

    prob_k = np.abs(_momentum_amp(amp, g)) ** 2
    norm_k = np.sum(prob_k, axis=-1) * g.dk
    p = hbar * g.k
    mean_p = np.sum(p * prob_k, axis=-1) * g.dk / norm_k
    var_p = np.sum((p - mean_p[:, None]) ** 2 * prob_k, axis=-1) * g.dk / norm_k

    out = [
        Moments(
            norm=float(n),
            mean_x=float(mx),
            mean_p=float(mp),
            sigma_x=math.sqrt(max(float(vx), 0.0)),
            sigma_p=math.sqrt(max(float(vp), 0.0)),
        )
        for n, mx, vx, mp, vp in zip(norm, mean_x, var_x, mean_p, var_p)
    ]
    return out if batched else out[0]


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatch(
            f"grids differ: [{a.grid.x_min}, {a.grid.x_max}] n={a.grid.n} vs "
            f"[{b.grid.x_min}, {b.grid.x_max}] n={b.grid.n}"
        )


def overlap(
    a: WavePacket | Sequence[WavePacket], b: WavePacket | Sequence[WavePacket]
):
    """Inner product <a|b> = sum conj(a) b dx on a shared grid.

    a and b may each be a single packet or an equal-length sequence; all
    rows share one grid and are reduced as one (rows, n) stack, each
    bit-identical to a single call, and a list is returned when either
    argument is a sequence.
    """
    batched, (bras, kets) = _as_rows("overlap", a, b)
    if not bras:
        return []
    _require_same_grid(bras[0], kets[0])
    prod = np.conj(_stack(bras))
    prod *= _stack(kets)
    dx = bras[0].grid.dx
    out = [complex(s * dx) for s in np.sum(prod, axis=-1)]
    return out if batched else out[0]


def l2_distance(a: WavePacket, b: WavePacket) -> float:
    """Lattice L2 distance sqrt(sum |a - b|^2 dx)."""
    _require_same_grid(a, b)
    return float(math.sqrt(np.sum(np.abs(a.amp - b.amp) ** 2) * a.grid.dx))
