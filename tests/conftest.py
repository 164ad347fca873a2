import numpy as np
import pytest
from hypothesis import settings

from wavefall import Grid, PhysicalParams, make_gaussian

# Every property test draws the same fixed set of examples on every run, so
# the suite stays deterministic; no example database is read or written.
settings.register_profile(
    "wavefall", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("wavefall")


@pytest.fixture
def params():
    return PhysicalParams(hbar=1.0, m=1.0, g=1.0, c=10.0)


@pytest.fixture
def grid():
    # canonical lattice used throughout: wide enough for t up to ~2
    return Grid(x_min=-20.0, x_max=20.0, n=256)


@pytest.fixture
def psi0(grid, params):
    return make_gaussian(grid, 0.0, 0.0, 1.0, params)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record (shape, dtype) of every np.linalg.eigh call made during the test."""
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append((a.shape, a.dtype))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name; returns its list of calls."""

    def install(module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.fixture
def fft_rows(monkeypatch):
    """Rows transformed by np.fft.fft and np.fft.ifft during the test, by name.

    A (rows, n) stack counts its rows, a single state one.
    """
    rows = {"fft": 0, "ifft": 0}
    for name in rows:
        real = getattr(np.fft, name)

        def counting(a, *args, _real=real, _name=name, **kwargs):
            rows[_name] += len(a) if np.ndim(a) == 2 else 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return rows


@pytest.fixture
def free_flight():
    """free_flight(psi, params, t): the amplitudes of e^{-i hbar t k^2/(2m)} psi.

    Built with numpy alone, in the operation order of the exact route's
    free-flight factor, so a state it flies matches that factor bit for bit.
    """

    def fly(psi, params, t):
        k = psi.grid.k
        phase = np.exp(-0.5j * params.hbar * t * k * k / params.m)
        return np.fft.ifft(np.fft.fft(psi.amp) * phase)

    return fly
