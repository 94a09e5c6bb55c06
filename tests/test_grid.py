import json
import os
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from displab import grid as grid_module
from displab.errors import FieldDumpError, RepresentationError, SizingError
from displab.extremizers import smoothing_grid_requirements
from displab.grid import FREQUENCY, PHYSICAL, Field, GridSpec, load_field, save_field, sized_grid
from displab.propagator import DispersionParams, ball_constant, evolve
from displab.spectral import dft_forward, dft_inverse


def test_gridspec_invariants():
    g = GridSpec(1, 64, 10.0)
    assert g.spacing == pytest.approx(20.0 / 64)
    assert g.nyquist == pytest.approx(np.pi * 64 / 20.0)
    with pytest.raises(ValueError):
        GridSpec(4, 64, 10.0)
    with pytest.raises(ValueError):
        GridSpec(1, 48, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(1, 4, 10.0)  # too small
    with pytest.raises(ValueError):
        GridSpec(1, 64, -1.0)
    with pytest.raises(ValueError, match="half_width must be positive and finite"):
        GridSpec(1, 16, np.inf)  # would read nyquist 0


def test_sample_points_and_frequencies():
    g = GridSpec(1, 16, 4.0)
    x = g.axis_points()
    assert x[0] == -4.0
    assert x[1] - x[0] == pytest.approx(0.5)
    xi = g.axis_frequencies()
    assert xi[0] == 0.0
    assert xi[1] == pytest.approx(np.pi / 4.0)
    # wrapped order exposes signed values with the most negative at N/2
    assert xi[8] == pytest.approx(-g.nyquist)
    assert np.abs(xi).max() == pytest.approx(g.nyquist)


@pytest.mark.parametrize("log2_points", [10, 15, 17, 22])
def test_axis_frequencies_at_indices_are_the_axis_entries(log2_points):
    """Frequencies at given indices, signed or not, equal the whole axis's entries bit for bit."""
    g = GridSpec(1, 2**log2_points, 37.3)
    n = g.points
    whole = g.axis_frequencies()
    signed = np.arange(-n // 2, n // 2)  # negative indices count from the top, as numpy reads them
    assert g.axis_frequencies(signed).tobytes() == whole[signed].tobytes()
    assert g.axis_frequencies(np.arange(n)).tobytes() == whole.tobytes()


def test_field_shape_and_representation(rng):
    g = GridSpec(2, 8, 1.0)
    flat = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = Field(g, PHYSICAL, flat)  # accepts flat row-major samples
    assert f.samples.shape == (8, 8)
    with pytest.raises(RepresentationError):
        Field(g, "spectral", flat)
    with pytest.raises(ValueError):
        Field(g, PHYSICAL, flat[:-1])
    with pytest.raises(RepresentationError):
        f.require(FREQUENCY)


def test_serialization_round_trip(tmp_path, rng):
    g = GridSpec(2, 16, 3.0)
    f = Field(g, FREQUENCY, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    path = tmp_path / "dump.fld"
    save_field(f, path)
    back = load_field(path)
    assert back.grid == g
    assert back.representation == FREQUENCY
    np.testing.assert_array_equal(back.samples, f.samples)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "junk.fld"
    path.write_bytes(b"not a field dump")
    with pytest.raises(ValueError):
        load_field(path)


def test_load_rejects_bad_header_keys(tmp_path, rng):
    g = GridSpec(1, 16, 3.0)
    path = tmp_path / "dump.fld"
    save_field(Field(g, PHYSICAL, rng.standard_normal(16) + 0j), path)
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    for edit in ({"units": "m"}, {"representation": None}):
        fields = {**json.loads(header), **edit}
        fields = {k: v for k, v in fields.items() if v is not None}
        path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + payload)
        with pytest.raises(FieldDumpError, match="header keys") as info:
            load_field(path)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("edit", [
    {"points": "16"}, {"points": 16.0}, {"half_width": "x"}, {"points": 12}, {"dim": 4},
    {"half_width": -1.0}, {"half_width": float("inf")}, {"representation": "spatial"},
], ids=lambda edit: "-".join(f"{k}={v!r}" for k, v in edit.items()))
def test_load_rejects_header_values_naming_the_file(tmp_path, rng, edit):
    """Right keys, values GridSpec or Field reject: a FieldDumpError naming the file."""
    path = tmp_path / "dump.fld"
    save_field(Field(GridSpec(1, 16, 3.0), PHYSICAL, rng.standard_normal(16) + 0j), path)
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    fields = {**json.loads(header), **edit}
    path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + payload)
    with pytest.raises(FieldDumpError) as info:
        load_field(path)
    assert str(path) in str(info.value)


def test_load_rejects_truncated_payload(tmp_path, rng):
    g = GridSpec(1, 16, 3.0)
    path = tmp_path / "dump.fld"
    save_field(Field(g, PHYSICAL, rng.standard_normal(16) + 0j), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FieldDumpError, match="payload holds 246 bytes, expected 256") as info:
        load_field(path)
    assert str(path) in str(info.value)


def test_fields_are_immutable(rng):
    g = GridSpec(1, 16, 1.0)
    source = rng.standard_normal(16) + 0j
    f = Field(g, PHYSICAL, source)
    with pytest.raises(ValueError):
        f.samples[0] = 1.0
    source[0] = 123.0  # mutating the source array must not reach the field
    assert f.samples[0] != 123.0


def test_caller_arrays_are_copied_library_results_are_read_only(rng):
    g = GridSpec(1, 16, 1.0)
    kept = rng.standard_normal(16) + 0j
    fields = [
        Field.from_function(g, lambda x: kept),
        Field(g, FREQUENCY, kept),
        Field(g, PHYSICAL, np.zeros(16, dtype=complex)).with_samples(kept),
    ]
    kept[:] = 123.0  # the symbol's or caller's array, mutated after construction
    for f in fields:
        assert not f.samples.flags.writeable
        assert f.samples[0] != 123.0
    f = fields[0]
    for out in (dft_forward(f), dft_inverse(dft_forward(f)), evolve(f, 0.5, DispersionParams(2.0))):
        assert not out.samples.flags.writeable
        with pytest.raises(ValueError):
            out.samples[0] = 1.0


@pytest.mark.parametrize("workers", [1, 2])
def test_run_blocks_keeps_item_order(monkeypatch, workers):
    """`_run_blocks` returns job(item) in item order.  With one worker, or at most one item, the
    jobs run in the calling thread and no pool is built; with two, two jobs run at once."""
    real_pool = grid_module._block_pool
    pools = []
    monkeypatch.setattr(grid_module, "_block_pool", lambda pid: pools.append(pid) or real_pool(pid))
    monkeypatch.setattr(grid_module, "_block_workers", lambda: workers)
    caller = threading.get_ident()
    second_started = threading.Event()
    threads = []

    def job(item):
        threads.append(threading.get_ident())
        if item == 1:
            second_started.set()
        elif item == 0 and workers == 2:  # only a second thread can start item 1 now
            assert second_started.wait(timeout=30)
        time.sleep(0.002 * (5 - item))  # on two threads the later items finish first
        return item * item

    assert grid_module._run_blocks(job, list(range(6))) == [item * item for item in range(6)]
    assert bool(pools) == (workers == 2)
    assert (caller in threads) == (workers == 1)
    pools.clear()
    threads.clear()
    assert grid_module._run_blocks(job, [3]) == [9]
    assert grid_module._run_blocks(job, []) == []
    assert pools == [] and threads == [caller]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_blocks_reraises_the_error_of_a_job(monkeypatch, workers):
    monkeypatch.setattr(grid_module, "_block_workers", lambda: workers)

    def job(item):
        if item == 2:
            raise RuntimeError("job failed")
        return item

    with pytest.raises(RuntimeError, match="job failed"):
        grid_module._run_blocks(job, list(range(4)))
    assert grid_module._run_blocks(job, [0, 1, 3]) == [0, 1, 3]  # the pool serves on after it


# a cap no request in the rule's tests reaches, so they see the rule's points uncapped
_NO_CAP = {"DISPLAB_MAX_GRID_POINTS": str(2**62)}


@given(half_width=st.floats(1e-3, 1e6), nyquist=st.floats(1e-3, 1e6), log2_cap=st.integers(3, 30))
@example(half_width=np.pi, nyquist=4.0, log2_cap=3)  # need exactly 8 points
@example(half_width=np.pi, nyquist=4.0 + 1e-9, log2_cap=3)  # just past 8: refused under cap 8
def test_sized_grid_is_the_least_power_of_two_reaching_the_nyquist(half_width, nyquist, log2_cap):
    """A power of two >= 8 of points on the given half width; once the need passes 8 points
    its nyquist lies in [target, 2 target), and past the cap SizingError names those points."""
    need = 2.0 * half_width * nyquist / np.pi
    with mock.patch.dict(os.environ, _NO_CAP):
        points = sized_grid(half_width, nyquist, "test grid").points
    assert points >= 8 and points & (points - 1) == 0
    if need > 8.0:
        grid = GridSpec(1, points, half_width)
        assert nyquist * (1.0 - 1e-12) <= grid.nyquist < 2.0 * nyquist
    else:
        assert points == 8
    with mock.patch.dict(os.environ, {"DISPLAB_MAX_GRID_POINTS": str(2**log2_cap)}):
        if points > 2**log2_cap:
            with pytest.raises(SizingError, match=f"test grid needs {points} points, over the cap "
                               f"of {2**log2_cap}") as refused:
                sized_grid(half_width, nyquist, "test grid")
            assert refused.value.required_points == points
            assert refused.value.required_half_width == half_width
        else:
            assert sized_grid(half_width, nyquist, "test grid") == GridSpec(1, points, half_width)


@pytest.mark.parametrize("half_width, nyquist", [
    (np.nan, 8.0), (1.0, np.nan), (0.0, 8.0), (-1.0, 8.0), (1.0, 0.0),
])
def test_sized_grid_refuses_a_request_that_is_not_positive(half_width, nyquist):
    with pytest.raises(ValueError, match="^the probe grid: half width .* must be positive"):
        sized_grid(half_width, nyquist, "the probe grid")


@pytest.mark.parametrize("half_width, nyquist", [
    (np.inf, 8.0), (1.0, np.inf), (1e300, 1e300),  # the last need overflows the float range
])
def test_sized_grid_counts_an_infinite_need_as_past_the_cap(half_width, nyquist):
    with mock.patch.dict(os.environ, _NO_CAP):
        with pytest.raises(SizingError, match="^the probe grid needs more than 2\\^1024 points") as err:
            sized_grid(half_width, nyquist, "the probe grid")
    assert err.value.required_points is None


# the benchmark's dyadic scales and their +-3% jitter, the largest focusing scale under the
# default cap, and scales whose focusing need 3200 lam falls on a power of two
_WORKLOAD_SCALES = [16.0, 32.0, 64.0, 128.0, 256.0, 15.52, 16.48, 31.04, 32.96, 124.16, 131.84,
                    248.32, 263.68, 1310.0, 10.24, 20.48, 40.96, 81.92, 163.84, 1310.72]


@settings(max_examples=500)
@given(lam=st.one_of(st.sampled_from(_WORKLOAD_SCALES), st.floats(8.0, 2000.0)),
       alpha=st.sampled_from([1.5, 2.0, 3.0]), scale=st.floats(-2.0**24, 2.0**24))
def test_sized_grid_is_the_old_formulas(lam, alpha, scale):
    """The rule gives the points the kernel (16 hw / pi), direct (1.1 hw and 1.05 nyquist) and
    focusing (3200 lam) grids were sized with by their own roundings."""
    kernel_hw = 1.2 * (ball_constant(alpha) * abs(scale) + 120.0)
    need_nyq, need_hw = smoothing_grid_requirements(lam, alpha)
    direct_hw = 1.1 * need_hw
    old = {
        "kernel": (kernel_hw, 8.0, int(2 ** max(3, int(np.ceil(np.log2(16.0 * kernel_hw / np.pi)))))),
        "direct": (direct_hw, 1.05 * need_nyq,
                   int(2 ** np.ceil(np.log2(2.0 * direct_hw * need_nyq * 1.05 / np.pi)))),
        "focusing": (40.0, 40.0 * np.pi * lam, int(2 ** np.ceil(np.log2(2.0 * 40.0 * 40.0 * lam)))),
    }
    with mock.patch.dict(os.environ, _NO_CAP):
        for what, (half_width, nyquist, points) in old.items():
            assert sized_grid(half_width, nyquist, what) == GridSpec(1, points, half_width), what
