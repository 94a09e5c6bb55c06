import json
import threading
import time

import numpy as np
import pytest

from displab import grid as grid_module
from displab.errors import FieldDumpError, RepresentationError
from displab.grid import FREQUENCY, PHYSICAL, Field, GridSpec, load_field, save_field
from displab.propagator import DispersionParams, evolve
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
