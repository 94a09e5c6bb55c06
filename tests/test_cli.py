import json

import numpy as np
import pytest

from displab.cli import main
from displab.extremizers import ExtremizerSpec, maximal_spectrum, smoothing_spectrum
from displab.grid import GridSpec, load_field
from displab.harness import SweepConfig, verify_sharpness
from displab.norms import airy_exponent, maximal_necessary_exponent, smoothing_exponent
from displab.propagator import DispersionParams, evolve_trajectory


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_table(capsys):
    code, out, _ = run(capsys, "exponents", "--alpha", "2", "--d", "1", "--p", "6")
    assert code == 0
    assert "smoothing_exponent,0.333" in out
    assert "admissibility_threshold,4.0" in out
    assert out.startswith("# displab exponents")


def test_evolve_reproduces_datum(capsys):
    code, out, _ = run(capsys, "evolve", "--alpha", "2", "--d", "1",
                       "--datum", "gaussian", "--t", "0", "--frames", "1")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "t,l2_norm,sup_norm,min_modulus"
    t, l2, sup, _ = rows[1].split(",")
    assert float(t) == 0.0
    assert float(sup) == pytest.approx(1.0, rel=1e-9)


def test_evolve_plane_wave_unitary(capsys):
    code, out, _ = run(capsys, "evolve", "--alpha", "2", "--datum", "plane-wave",
                       "--xi0", "1", "--t", "1", "--frames", "5")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
    l2 = np.array([float(r[1]) for r in rows[1:]])
    assert np.abs(l2 / l2[0] - 1.0).max() < 1e-11
    sup = np.array([float(r[2]) for r in rows[1:]])
    assert np.abs(sup - 1.0).max() < 1e-9  # |e^{i t xi^3...}| = 1 pointwise


def test_evolve_dumps_fields(tmp_path, capsys):
    out_dir = tmp_path / "frames"
    code, _, _ = run(capsys, "evolve", "--datum", "gaussian", "--t", "0.5", "--frames", "2",
                     "--dump-fields", str(out_dir), "--output", str(tmp_path / "t.csv"))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["frames"]) == 2
    field = load_field(out_dir / manifest["frames"][0]["file"])
    assert field.grid.dim == 1


def test_evolve_negative_time_samples_increasing_times(capsys):
    code, out, _ = run(capsys, "evolve", "--datum", "gaussian", "--t", "-1", "--frames", "3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
    assert [float(r[0]) for r in rows[1:]] == [-1.0, -0.5, 0.0]
    l2 = np.array([float(r[1]) for r in rows[1:]])
    assert np.abs(l2 / l2[-1] - 1.0).max() < 1e-12


@pytest.mark.parametrize("argv,message", [
    (("--t", "nan"), "evolution times must be finite"),
    (("--t", "inf"), "evolution times must be finite"),
    (("--frames", "0"), "frames must be a positive integer"),
    (("--frames", "-3"), "frames must be a positive integer"),
    (("--t", "0", "--frames", "5"), "--frames 5 needs a nonzero --t"),
    (("--half-width", "inf"), "half_width must be positive and finite"),
])
def test_evolve_bad_times_and_frames_are_config_errors(capsys, argv, message):
    code, out, err = run(capsys, "evolve", "--datum", "gaussian", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_sweep_critical_pass_and_csv_columns(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--family", "smoothing", "--alpha", "2", "--p", "6",
                     "--lambdas", "16,32,64,128", "--output", str(out_path),
                     "--plot-script", str(tmp_path / "plot.gp"))
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "lambda,N,L,t_samples,numerator,denominator,ratio,log_lambda,log_ratio"
    assert any(line.startswith("# passed = true") for line in lines)
    assert (tmp_path / "plot.gp").read_text().startswith("set datafile separator")


def test_sweep_expect_flag(capsys):
    # beta lowered by 0.2: slope ~ +0.2; --expect overrides the default
    # expectation, so slope=0 fails and slope=0.2 passes
    beta = 1.0 / 3.0 - 0.2
    args = ["sweep", "--family", "smoothing", "--alpha", "2", "--p", "6",
            "--beta", str(beta), "--lambdas", "16,32,64,128"]
    code, _, _ = run(capsys, *args, "--expect", "slope=0")
    assert code == 1
    code, out, _ = run(capsys, *args, "--expect", "slope=0.2")
    assert code == 0
    assert "# passed = true" in out


@pytest.mark.parametrize("family,alpha,critical", [
    ("smoothing", 2.0, smoothing_exponent(2.0, 1, 6.0)),
    ("airy", 3.0, airy_exponent(6.0)),
    ("maximal", 3.0, maximal_necessary_exponent(3.0, 6.0)),
])
def test_sweep_default_expectation_is_critical_minus_beta(capsys, family, alpha, critical):
    code, out, _ = run(capsys, "sweep", "--family", family, "--alpha", str(alpha), "--p", "6",
                       "--beta", str(critical + 0.2), "--lambdas", "16,32,64,128",
                       "--format", "json")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["expected_slope"] == pytest.approx(-0.2, abs=1e-12)
    assert verdict["passed"] is True


def test_sweep_bad_expectation_is_config_error(capsys):
    code, _, err = run(capsys, "sweep", "--family", "smoothing", "--lambdas", "16,32",
                       "--expect", "intercept=0")
    assert code == 2
    assert "unknown expectation" in err


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "maximal", "--alpha", "3", "--p", "6",
                       "--lambdas", "16,32,64,128", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["passed"] is True
    assert len(payload["records"]) == 4
    assert payload["records"][0]["lambda"] == 16.0


def test_sweep_missing_flag_is_config_error(capsys):
    code, _, err = run(capsys, "sweep", "--family", "smoothing", "--lambdas", "32,16")
    assert code == 2
    assert "error" in err


def test_sweep_infinite_p_is_config_error(capsys):
    code, _, err = run(capsys, "sweep", "--family", "maximal", "--alpha", "3", "--p", "inf",
                       "--lambdas", "16,32")
    assert code == 2
    assert "p must be finite" in err


@pytest.mark.parametrize("argv,message", [
    (("sweep", "--lambdas", "16,inf"), "lambdas must be finite"),
    (("sweep", "--lambdas", "16,nan"), "lambdas must be finite"),
    (("sweep", "--lambdas", "16,32", "--beta", "inf"), "beta must be finite"),
    (("diagnostics", "envelope", "--lam", "inf"), "lam must be finite"),
    (("diagnostics", "focusing", "--lam", "inf"), "lam must be finite"),
    (("diagnostics", "ridge", "--lam", "inf"), "lam must be finite"),
    (("diagnostics", "ridge", "--lam", "nan"), "lam must be finite"),
])
def test_nonfinite_scale_is_config_error(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("exponents", "--p", "0"),
    ("exponents", "--p", "nan"),
    ("sweep", "--p", "0", "--lambdas", "16,32"),
])
def test_exponent_p_outside_its_range_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "p must be finite and >= 1" in err
    assert "Traceback" not in err and out == ""


ALPHA = "alpha must be finite and positive"


@pytest.mark.parametrize("argv,message", [
    (("exponents", "--alpha", "inf"), ALPHA),
    (("exponents", "--alpha", "nan"), ALPHA),
    (("exponents", "--alpha", "-2"), ALPHA),
    (("sweep", "--alpha", "inf", "--lambdas", "16,32"), ALPHA),
    (("diagnostics", "ridge", "--alpha", "inf"), ALPHA),
    (("diagnostics", "envelope", "--alpha", "inf"), ALPHA),
    (("diagnostics", "kernel-tail", "--alpha", "inf"), ALPHA),
])
def test_alpha_or_tolerance_outside_its_range_is_config_error(capsys, argv, message):
    """A bad --tolerance is refused by its flag at parse time, so its cases sit in
    `test_sweep_tolerance_is_checked_before_the_sweep_runs`."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
def test_sweep_tolerance_is_checked_before_the_sweep_runs(capsys, monkeypatch, value):
    from displab import harness

    def refuse(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "run_sweep", refuse)
    code, out, err = run(capsys, "sweep", "--tolerance", value, "--lambdas", "16")
    assert code == 2 and out == ""
    assert f"argument --tolerance: tolerance must be finite and >= 0, got {value}\n" in err


@pytest.mark.parametrize("which", ["bilinear-reconstruction", "bilinear-ratio"])
def test_bilinear_diagnostics_neither_read_nor_check_alpha(capsys, which):
    code, out, err = run(capsys, "diagnostics", which, "--alpha", "1")
    assert code == 0 and err == ""
    _, reference, _ = run(capsys, "diagnostics", which, "--alpha", "2")
    assert out.splitlines()[2:] == reference.splitlines()[2:]  # the rows; the headers echo alpha


@pytest.mark.parametrize("argv, quantity", [
    (("diagnostics", "kernel-tail", "--k", "600"), "the band spread 2^(alpha k) at k = 600, alpha = 2"),
    (("diagnostics", "ridge", "--lam", "1e300"), "the time scale lam^alpha at lam = 1e+300, alpha = 2"),
    (("diagnostics", "focusing", "--alpha", "1e308"),
     "the time scale lam^alpha at lam = 32, alpha = 1e+308"),
])
def test_overflow_names_the_quantity_and_its_inputs(capsys, argv, quantity):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: numerical overflow: {quantity} overflows the float range\n"


@pytest.mark.parametrize("argv", [
    ("diagnostics", "kernel-tail", "--k", "600"),
    ("diagnostics", "kernel-tail", "--alpha", "1e300"),
    ("diagnostics", "kernel-tail", "--k", "100"),  # a nan tail bound
    ("diagnostics", "ridge", "--lam", "1e300"),
    ("diagnostics", "focusing", "--alpha", "1e308"),
    ("evolve", "--datum", "f_lambda", "--lam", "1e300", "--allow-wrapped"),
])
def test_overflow_is_numerical_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: numerical overflow: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["DISPLAB_MAX_GRID_POINTS"])
def test_sweep_bad_environment_is_config_error(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    code, _, err = run(capsys, "sweep", "--family", "smoothing", "--lambdas", "16,32")
    assert code == 2
    assert name in err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "d": 1, "p": 6.0, "lambdas": "16,32,64,128"}))
    code, out, _ = run(capsys, "sweep", "--family", "smoothing", "--config", str(cfg),
                       "--lambdas", "16,32")
    assert code == 0
    assert '"lambdas": "16,32"' in out.splitlines()[1]  # flag overrode the file


def test_config_file_that_is_not_an_object_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--lambdas", "16,32")
    assert code == 2
    assert err.startswith("error:") and "JSON object" in err
    assert "Traceback" not in err and out == ""


def test_config_file_unknown_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lamdbas": "16,32", "alpha": 2.0}))
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert "unknown keys ['lamdbas']" in err
    assert out == ""  # nothing ran


@pytest.mark.parametrize("command,config,flag", [
    ("evolve", {"allow_wrapped": "false"}, "--allow-wrapped"),
    ("evolve", {"format": "xml"}, "--format"),
    ("evolve", {"frames": 2.7}, "--frames"),
    ("sweep", {"sobolev_denominator": "false"}, "--sobolev-denominator"),
    ("sweep", {"lambdas": [16, 32]}, "--lambdas"),
    ("sweep", {"expect": "intercept=0"}, "--expect"),
])
def test_config_value_its_flag_rejects_is_config_error(tmp_path, capsys, command, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert out == ""  # nothing ran


@pytest.mark.parametrize("argv", [
    ("exponents", "--alpha", "3", "--p", "8"),
    ("evolve", "--datum", "plane-wave", "--xi0", "2", "--t", "-0.5", "--frames", "3",
     "--points", "64", "--half-width", "8", "--allow-wrapped", "--dump-fields", "{tmp}/frames"),
    ("sweep", "--family", "airy", "--alpha", "3", "--lambdas", "16,32", "--sobolev-denominator",
     "--expect", "slope=0.1", "--tolerance", "0.5", "--output", "{tmp}/out.csv",
     "--plot-script", "{tmp}/plot.gp"),
    ("diagnostics", "kernel-tail", "--alpha", "3", "--k", "3", "--t", "0.5"),
], ids=["exponents", "evolve", "sweep", "diagnostics"])
def test_echoed_config_round_trips(tmp_path, capsys, argv):
    """The echoed settings, fed back as a config file, resolve to the same echo and exit."""
    argv = [a.format(tmp=tmp_path) for a in argv]

    def echo(out):
        return (out or (tmp_path / "out.csv").read_text()).splitlines()[1]

    code, out, _ = run(capsys, *argv)
    first = echo(out)
    assert first.startswith("# config: ")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(first.removeprefix("# config: "))
    again, out, _ = run(capsys, argv[0], "--config", str(cfg))
    assert (again, echo(out)) == (code, first)


def test_config_file_may_name_the_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"which": "nope", "k": 3}))
    code, out, err = run(capsys, "diagnostics", "--config", str(cfg))
    assert code == 2 and "invalid choice: 'nope'" in err and out == ""
    code, out, _ = run(capsys, "diagnostics", "kernel-tail", "--config", str(cfg))
    assert code == 0
    echoed = json.loads(out.splitlines()[1].removeprefix("# config: "))
    assert (echoed["which"], echoed["k"]) == ("kernel-tail", 3)  # the command line named it


@pytest.mark.parametrize("argv", [("sweep", "--lambdas", "16,32"), ("evolve", "--frames", "2")])
def test_plot_script_is_sweep_only_and_needs_output(tmp_path, capsys, argv):
    script = tmp_path / "plot.gp"
    code, out, _ = run(capsys, *argv, "--plot-script", str(script))
    assert code == 2 and out == ""
    assert not script.exists()


def test_plot_script_needs_csv_output(tmp_path, capsys):
    """The gnuplot script reads a CSV separator and column 7, which a JSON file does not have."""
    script, output = tmp_path / "plot.gp", tmp_path / "o.json"
    code, out, err = run(capsys, "sweep", "--lambdas", "16,32", "--format", "json",
                         "--output", str(output), "--plot-script", str(script))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--plot-script" in err and "Traceback" not in err
    assert not script.exists() and not output.exists()


@pytest.mark.parametrize("xi0", ["inf", "-inf", "nan", "1e308"])
def test_evolve_nonfinite_plane_wave_frequency_is_config_error(capsys, xi0):
    code, out, err = run(capsys, "evolve", "--datum", "plane-wave", f"--xi0={xi0}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--xi0" in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [("--alpha", "3", "--lam", "20"), ()])
def test_evolve_refuses_a_lattice_that_cannot_resolve_the_bump(capsys, extra):
    """No lattice frequency (alpha 3, lam 20) or one (the defaults) inside the traveling bump:
    exit 2 naming the half width that resolves it, where nine rows of a plane wave or of
    zeros were written."""
    code, out, err = run(capsys, "evolve", "--datum", "g_lambda", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "need half width" in err and "Traceback" not in err


@pytest.mark.parametrize("datum, points, half_width, extra", [
    ("f_lambda", 1024, 20.0, ("--allow-wrapped",)),
    # spacing 0.0112 against the bump radius 0.045, nyquist 23
    ("g_lambda", 4096, 280.0, ("--points", "4096", "--half-width", "280")),
])
def test_evolve_extremizers_start_from_their_exact_spectra(tmp_path, capsys, datum, points,
                                                           half_width, extra):
    """The dumped frames are bit for bit `evolve_trajectory`'s evolution of the exact spectrum, so
    the phase is formed on the datum's support alone."""
    code, _, _ = run(capsys, "evolve", "--datum", datum, *extra,
                     "--dump-fields", str(tmp_path), "--output", str(tmp_path / "t.csv"))
    assert code == 0
    params, grid = DispersionParams(2.0, 1), GridSpec(1, points, half_width)
    if datum == "f_lambda":
        spectrum = smoothing_spectrum(ExtremizerSpec("smoothing", 16.0, params, grid),
                                      allow_wrapped=True)
    else:
        spectrum = maximal_spectrum(ExtremizerSpec("maximal", 16.0, params, grid))
    frames = json.loads((tmp_path / "manifest.json").read_text())["frames"]
    want = evolve_trajectory(spectrum, [frame["t"] for frame in frames], params)
    assert len(frames) == 9
    for frame, expected in zip(frames, want.frames):
        assert np.array_equal(load_field(tmp_path / frame["file"]).samples, expected.samples)


def test_sweep_verdict_is_the_library_verdict(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "smoothing", "--alpha", "2", "--p", "6",
                       "--lambdas", "16,32,64,128", "--format", "json")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, smoothing_exponent(2.0, 1, 6.0),
                      (16.0, 32.0, 64.0, 128.0))
    library = verify_sharpness(cfg, 0.1)
    assert (verdict["slope"], verdict["expected_slope"], verdict["passed"]) == (
        library.slope, library.expected_slope, library.passed)


def test_unknown_diagnostic(capsys):
    code, out, err = run(capsys, "diagnostics", "nope")
    assert code == 2 and out == ""
    assert "invalid choice: 'nope'" in err


def test_kernel_diagnostic(capsys):
    code, out, _ = run(capsys, "diagnostics", "kernel-tail", "--alpha", "2", "--k", "6", "--t", "1")
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("kernel_tail_mass")][0]
    assert row.endswith("true")


def test_kernel_diagnostic_below_band_one_is_config_error(capsys):
    code, out, err = run(capsys, "diagnostics", "kernel-tail", "--k", "0")
    assert code == 2
    assert "band index" in err and "Traceback" not in err
    assert "kernel_tail_mass" not in out


def test_envelope_diagnostic_over_the_node_budget_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "256")  # budget 16384 quadrature nodes
    # the banded peak quadrature at lam 1024 needs 100,774 nodes
    code, _, err = run(capsys, "diagnostics", "envelope", "--alpha", "2", "--lam", "1024")
    assert code == 2
    assert "budget" in err and "Traceback" not in err


def test_focusing_diagnostic(capsys):
    code, out, _ = run(capsys, "diagnostics", "focusing", "--alpha", "2", "--lam", "16")
    assert code == 0
    assert "focusing_min_modulus_ratio" in out


def test_usage_without_command(capsys):
    assert main([]) == 2


def test_nonfinite_evolution_is_numerical_failure(capsys, monkeypatch):
    import displab.propagator as propagator
    from displab.grid import Field

    real = propagator.evolve_trajectory

    def poisoned(field, ts, params):
        traj = real(field, ts, params)
        bad = np.array(traj.frames[0].samples)
        bad[0] = np.nan
        frames = (Field(traj.grid, "physical", bad),) + traj.frames[1:]
        return propagator.Trajectory(traj.grid, traj.t_samples, frames)

    monkeypatch.setattr(propagator, "evolve_trajectory", poisoned)
    code, _, err = run(capsys, "evolve", "--datum", "gaussian", "--t", "0.5")
    assert code == 3
    assert "non-finite" in err


def test_focusing_past_the_grid_cap_is_config_error(capsys):
    """lam 1e6 needs a 2^32-point focusing lattice, over the default cap of 2^22."""
    code, out, err = run(capsys, "diagnostics", "focusing", "--lam", "1e6")
    assert code == 2 and out == ""
    assert err.startswith("error: the focusing lattice at lam=1e+06 needs 4294967296 points, "
                          "over the cap of 4194304") and err.count("\n") == 1


def test_sweep_time_scale_overflow_names_the_time_scale(capsys):
    """The focusing samples read lam^alpha through `_time_scale`, so a huge lam names it."""
    code, out, err = run(capsys, "sweep", "--lambdas", "16,32,64,1e200")
    assert code == 3 and out == ""
    assert err == ("error: numerical overflow: the time scale lam^alpha at lam = 1e+200, "
                   "alpha = 2 overflows the float range\n")


def test_focusing_time_scale_overflow_names_the_time_scale(capsys):
    """lam 1e306 overflows lam^alpha before the lattice is sized, so the error names lam^alpha."""
    code, out, err = run(capsys, "diagnostics", "focusing", "--lam", "1e306")
    assert code == 3 and out == ""
    assert err == ("error: numerical overflow: the time scale lam^alpha at lam = 1e+306, "
                   "alpha = 2 overflows the float range\n")
