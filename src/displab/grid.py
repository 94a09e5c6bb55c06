"""Periodic grids and sampled complex fields.

The spatial box is [-L, L)^d sampled at N points per axis,
x_n = -L + n * (2L/N).  The dual lattice carries the frequencies
xi_m = (pi/L) * m for m = -N/2 .. N/2 - 1 per axis, so the largest
representable frequency magnitude per axis is the Nyquist value
pi*N/(2L).  Frequency-space samples are stored in FFT (wrapped) order;
``GridSpec.axis_frequencies`` exposes the signed values in that order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import EnvironmentSettingError, FieldDumpError, RepresentationError

PHYSICAL = "physical"
FREQUENCY = "frequency"

_MAGIC = b"PSLF1\n"
_HEADER_KEYS = {"dim", "points", "half_width", "representation"}


def _env_int(name: str, default: int) -> int:
    """A positive integer from the environment; ``default`` when the variable is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise EnvironmentSettingError(name, raw, "a positive integer")
    return value


def max_grid_points() -> int:
    """The memory cap of automatic grid sizing: DISPLAB_MAX_GRID_POINTS, default 2^22."""
    return _env_int("DISPLAB_MAX_GRID_POINTS", 2**22)


def quadrature_node_budget() -> int:
    """Most nodes a chirp-z quadrature may allocate: 64 x `max_grid_points`.

    The folded lattice sums form their weights in bounded blocks of whole
    lattice periods, so nodes may outnumber the points of a grid held whole.
    """
    return 64 * max_grid_points()


def _block_workers() -> int:
    """Threads for independent blocks of work: the CPUs this process may run on, at most two."""
    if not hasattr(os, "sched_getaffinity"):  # not Linux: no affinity to read
        return 1
    return min(2, len(os.sched_getaffinity(0)))


@cache
def _block_pool(pid: int):
    """Process ``pid``'s block threads, built on first use; a forked child builds its own.

    The one pool: `propagator`'s frame blocks and `chirpquad`'s band windows run on it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=2, thread_name_prefix="displab-blocks")


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_width, half_width)^dim."""

    dim: int
    points: int
    half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 8, got {n}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points**self.dim

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def frequency_spacing(self) -> float:
        return np.pi / self.half_width

    @property
    def frequency_cell_volume(self) -> float:
        return self.frequency_spacing**self.dim

    @property
    def nyquist(self) -> float:
        return np.pi * self.points / (2.0 * self.half_width)

    def axis_points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def axis_frequencies(self, index=None) -> np.ndarray:
        """Signed frequencies of one axis, in wrapped (FFT) order.

        With ``index``, only the frequencies at those lattice indices, read
        modulo ``points`` as numpy reads a negative index; each equals the
        whole axis's entry bit for bit (both are the signed index times
        ``1 / (points * spacing)``, then times 2 pi, as in `np.fft.fftfreq`),
        and the whole axis is not formed.
        """
        if index is None:
            return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)
        n = self.points
        signed = (np.asarray(index) + n // 2) % n - n // 2
        return 2.0 * np.pi * (signed * (1.0 / (n * self.spacing)))

    def point_mesh(self) -> np.ndarray:
        """Stacked physical coordinates, shape (dim, N, ..., N)."""
        return np.stack(np.meshgrid(*[self.axis_points()] * self.dim, indexing="ij"))

    def frequency_mesh(self) -> np.ndarray:
        """Stacked frequency coordinates in wrapped order, shape (dim, N, ..., N)."""
        return np.stack(np.meshgrid(*[self.axis_frequencies()] * self.dim, indexing="ij"))


@dataclass(frozen=True)
class Field:
    """A sampled complex function, in either physical or frequency representation.

    ``samples`` has shape ``grid.shape`` (row-major axis order).  Frequency
    samples are indexed by the wrapped lattice of ``GridSpec``.
    """

    grid: GridSpec
    representation: str
    samples: np.ndarray

    def __post_init__(self):
        if self.representation not in (PHYSICAL, FREQUENCY):
            raise RepresentationError(
                f"representation must be {PHYSICAL!r} or {FREQUENCY!r}, "
                f"got {self.representation!r}"
            )
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            if arr.size == self.grid.size:
                arr = arr.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"samples shape {arr.shape} does not match grid shape {self.grid.shape}"
                )
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)  # fields are immutable once constructed
        object.__setattr__(self, "samples", arr)

    @property
    def is_physical(self) -> bool:
        return self.representation == PHYSICAL

    @property
    def is_frequency(self) -> bool:
        return self.representation == FREQUENCY

    def with_samples(self, samples: np.ndarray, representation: str | None = None) -> "Field":
        return Field(self.grid, representation or self.representation, samples)

    def require(self, representation: str) -> None:
        if self.representation != representation:
            raise RepresentationError(
                f"expected a {representation} field, got {self.representation}"
            )

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        """Physical field sampled from ``fn(x)`` with x stacked, shape (dim, ...)."""
        return cls(grid, PHYSICAL, np.asarray(fn(grid.point_mesh()), dtype=np.complex128))

    @classmethod
    def zeros(cls, grid: GridSpec, representation: str = PHYSICAL) -> "Field":
        return cls(grid, representation, np.zeros(grid.shape, dtype=np.complex128))


def save_field(field: Field, path) -> None:
    """Write a field dump: magic, one JSON header line, then raw samples.

    Samples are complex128 stored as interleaved little-endian float64
    (re, im) pairs in row-major axis order.
    """
    header = {
        "dim": field.grid.dim,
        "points": field.grid.points,
        "half_width": field.grid.half_width,
        "representation": field.representation,
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        interleaved = np.empty((field.grid.size, 2), dtype="<f8")
        flat = field.samples.reshape(-1)
        interleaved[:, 0] = flat.real
        interleaved[:, 1] = flat.imag
        fh.write(interleaved.tobytes())


def load_field(path) -> Field:
    """Read a `save_field` dump; a malformed file raises `FieldDumpError` naming it."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FieldDumpError(path, f"not a field dump: bad magic {magic!r}")
        try:
            header = json.loads(fh.readline().decode("ascii"))
        except ValueError as exc:
            raise FieldDumpError(path, f"unreadable header: {exc}") from None
        keys = set(header) if isinstance(header, dict) else set()
        if keys != _HEADER_KEYS:
            raise FieldDumpError(
                path, f"header keys {sorted(keys)} are not {sorted(_HEADER_KEYS)}"
            )
        grid = GridSpec(header["dim"], header["points"], header["half_width"])
        payload = fh.read()
    if len(payload) != grid.size * 16:
        raise FieldDumpError(
            path, f"payload holds {len(payload)} bytes, expected {grid.size * 16}"
        )
    raw = np.frombuffer(payload, dtype="<f8").reshape(-1, 2)
    samples = (raw[:, 0] + 1j * raw[:, 1]).reshape(grid.shape)
    return Field(grid, header["representation"], samples)
