"""Command-line front end: experiment dispatch with reproducible outputs.

Commands
    evolve       run the flow on a built-in datum, write per-frame norms
    sweep        run a scaling sweep and render a slope verdict; the expected
                 slope defaults to critical - beta (`harness.expected_slope`)
    diagnostics  one-shot checks (kernel tails, bilinear residuals, ...)
    exponents    print the critical-exponent table for (alpha, d, p)

Configuration precedence: command-line flags override JSON config-file
values, which override defaults; the resolved configuration is echoed in
every output header.  Exit codes: 0 success / verdict pass, 1 verdict
fail, 2 invalid configuration, 3 numerical failure.

Environment: DISPLAB_MAX_GRID_POINTS caps automatic grid sizing.  It must
be a positive integer when set; any other value is a configuration error
(exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_COLUMNS = (
    "lambda", "N", "L", "t_samples", "numerator", "denominator",
    "ratio", "log_lambda", "log_ratio",
)


class ConfigError(ValueError):
    pass


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit flags.

    The config file must hold a JSON object whose keys are the command's
    settings; anything else raises `ConfigError`.
    """
    merged = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            loaded = json.loads(Path(cfg_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {cfg_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(
                f"config file {cfg_path} must hold a JSON object, not {type(loaded).__name__}"
            )
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(
                f"config file {cfg_path} has unknown keys {unknown}; known keys: {sorted(defaults)}"
            )
        merged.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _header_lines(command: str, resolved: dict) -> list[str]:
    return [
        f"# displab {command}",
        f"# config: {json.dumps(resolved, sort_keys=True)}",
    ]


def _write_table(path, header_lines, columns, rows, fmt, verdict=None):
    """CSV ('.' decimals, ',' delimiter, LF endings) or JSON mirror."""
    if fmt == "json":
        payload = {
            "command": header_lines[0].lstrip("# "),
            "config": json.loads(header_lines[1].split("config: ", 1)[1]),
            "records": [dict(zip(columns, row)) for row in rows],
        }
        if verdict is not None:
            payload["verdict"] = verdict
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = list(header_lines)
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        if verdict is not None:
            for key, val in verdict.items():
                lines.append(f"# {key} = {_cell(val)}")
        text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_plot_script(path, csv_path, xlabel, ylabel):
    script = "\n".join(
        [
            "set datafile separator ','",
            "set logscale xy",
            f"set xlabel '{xlabel}'",
            f"set ylabel '{ylabel}'",
            f"plot '{csv_path}' using 1:7 with linespoints title 'ratio'",
            "pause -1",
        ]
    )
    Path(path).write_text(script + "\n", newline="\n")


# -- evolve ---------------------------------------------------------------------


def _build_datum(resolved):
    from .extremizers import (
        ExtremizerSpec,
        make_maximal_extremizer,
        make_smoothing_extremizer,
    )
    from .grid import Field, GridSpec
    from .propagator import DispersionParams

    name = resolved["datum"]
    dim = int(resolved["d"])
    grid = GridSpec(dim, int(resolved["points"]), float(resolved["half_width"]))
    if name == "gaussian":
        return Field.from_function(grid, lambda x: np.exp(-(np.asarray(x) ** 2).sum(axis=0) / 2.0))
    if name == "plane-wave":
        m = round(float(resolved["xi0"]) / grid.frequency_spacing)
        xi0 = m * grid.frequency_spacing  # snap to the lattice
        return Field.from_function(grid, lambda x: np.exp(1j * xi0 * np.asarray(x)[0]))
    params = DispersionParams(float(resolved["alpha"]), dim)
    lam = float(resolved["lam"])
    if name == "f_lambda":
        return make_smoothing_extremizer(
            ExtremizerSpec("smoothing", lam, params, grid), allow_wrapped=bool(resolved["allow_wrapped"])
        )
    if name == "g_lambda":
        return make_maximal_extremizer(ExtremizerSpec("maximal", lam, params, grid))
    raise ConfigError(f"unknown datum {name!r} (gaussian, plane-wave, f_lambda, g_lambda)")


def cmd_evolve(args) -> int:
    from .grid import save_field
    from .norms import lp_norm
    from .propagator import DispersionParams, evolve_trajectory

    defaults = {
        "alpha": 2.0, "d": 1, "datum": "gaussian", "t": 1.0, "frames": 9,
        "points": 1024, "half_width": 20.0, "xi0": 1.0, "lam": 16.0,
        "allow_wrapped": False, "output": None, "format": "csv",
        "dump_fields": None, "plot_script": None,
    }
    try:
        resolved = _resolve(args, defaults)
        datum = _build_datum(resolved)
        params = DispersionParams(float(resolved["alpha"]), int(resolved["d"]))
        t_final, n_frames = float(resolved["t"]), int(resolved["frames"])
        if n_frames < 1:
            raise ConfigError(f"frames must be a positive integer, got {n_frames}")
        # increasing from min(0, t) to max(0, t); evolve_trajectory rejects inf and nan
        ts = [t_final] if n_frames == 1 or not 0.0 < abs(t_final) < np.inf else np.linspace(
            *sorted((0.0, t_final)), n_frames)
        traj = evolve_trajectory(datum, ts, params)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = []
    for t, frame in zip(traj.t_samples, traj.frames):
        if not np.all(np.isfinite(frame.samples)):
            print("error: non-finite values in evolution", file=sys.stderr)
            return EXIT_NUMERICAL
        rows.append(
            (t, lp_norm(frame, 2.0), lp_norm(frame, np.inf), float(np.abs(frame.samples).min()))
        )
    header = _header_lines("evolve", resolved)
    _write_table(resolved["output"], header, ("t", "l2_norm", "sup_norm", "min_modulus"), rows,
                 resolved["format"])
    if resolved["dump_fields"]:
        outdir = Path(resolved["dump_fields"])
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = {"config": resolved, "frames": []}
        for i, (t, frame) in enumerate(zip(traj.t_samples, traj.frames)):
            name = f"frame_{i:04d}.fld"
            save_field(frame, outdir / name)
            manifest["frames"].append({"t": t, "file": name})
        (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return EXIT_OK


# -- sweep ----------------------------------------------------------------------


def cmd_sweep(args) -> int:
    from .harness import SweepConfig, critical_exponent, expected_slope, run_sweep, slope_verdict

    defaults = {
        "family": "smoothing", "alpha": 2.0, "d": 1, "p": 6.0, "beta": None,
        "lambdas": "16,32,64,128", "tolerance": 0.1,
        "expect": None, "sobolev_denominator": False,
        "output": None, "format": "csv", "plot_script": None,
    }
    try:
        resolved = _resolve(args, defaults)
        family = resolved["family"]
        alpha, dim, p = float(resolved["alpha"]), int(resolved["d"]), float(resolved["p"])
        critical = critical_exponent(family, alpha, dim, p)
        beta = critical if resolved["beta"] is None else float(resolved["beta"])
        lambdas = tuple(float(v) for v in str(resolved["lambdas"]).split(","))
        cfg = SweepConfig(
            family=family, alpha=alpha, dim=dim, p=p, beta=beta, lambdas=lambdas,
            use_sobolev_denominator=bool(resolved["sobolev_denominator"]),
        )
        resolved["beta"] = beta
        # default: the slope the family's sharp exponent predicts, critical - beta
        expected = (
            expected_slope(cfg) if resolved["expect"] is None else _parse_expect(resolved["expect"])
        )
        tolerance = float(resolved["tolerance"])
        records = run_sweep(cfg)
        decision = slope_verdict(records, expected, tolerance) if len(records) >= 2 else None
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = [
        (r.lam, r.points, r.half_width, r.t_count, r.numerator, r.denominator,
         r.ratio, float(np.log(r.lam)), float(np.log(r.ratio)))
        for r in records
    ]
    verdict = None
    status = EXIT_OK
    if decision is not None:
        verdict = {
            "slope": decision.slope, "intercept": decision.fit.intercept,
            "max_residual": decision.fit.max_residual, "expected_slope": decision.expected_slope,
            "tolerance": decision.tolerance, "passed": decision.passed,
        }
        status = EXIT_OK if decision.passed else EXIT_VERDICT_FAIL
    header = _header_lines("sweep", resolved)
    _write_table(resolved["output"], header, SWEEP_COLUMNS, rows, resolved["format"], verdict)
    if resolved["plot_script"] and resolved["output"]:
        _emit_plot_script(resolved["plot_script"], resolved["output"], "lambda", "ratio")
    return status


def _parse_expect(text) -> float:
    text = str(text)
    if "=" in text:
        key, val = text.split("=", 1)
        if key.strip() != "slope":
            raise ConfigError(f"unknown expectation {key!r}")
        return float(val)
    return float(text)


# -- diagnostics ------------------------------------------------------------------


def cmd_diagnostics(args) -> int:
    from .propagator import DispersionParams

    defaults = {
        "which": "kernel-tail", "alpha": 2.0, "k": 6, "t": 1.0, "lam": 32.0,
        "p": 6.0, "epsilon": 0.05, "output": None, "format": "csv",
    }
    try:
        resolved = _resolve(args, defaults)
        which = resolved["which"]
        alpha = float(resolved["alpha"])
        rows = []
        if which == "kernel-tail":
            from .propagator import kernel_tail_mass

            value = kernel_tail_mass(int(resolved["k"]), float(resolved["t"]),
                                     DispersionParams(alpha, 1))
            rows.append(("kernel_tail_mass", value, 0.01, value < 0.01))
        elif which == "bilinear-reconstruction":
            value = _default_bilinear_residual()
            rows.append(("bilinear_reconstruction_residual", value, 1e-10, value <= 1e-10))
        elif which == "bilinear-ratio":
            value = _default_restriction_slope(float(resolved["p"]))
            rows.append(("bilinear_restriction_ratio_slope", value, 0.05, value <= 0.05))
        elif which == "envelope":
            from .extremizers import ExtremizerSpec, envelope_check

            rep = envelope_check(
                ExtremizerSpec("smoothing", float(resolved["lam"]), DispersionParams(alpha, 1))
            )
            rows.append(("envelope_peak_ratio", rep.peak_ratio, float("inf"), True))
            rows.append(("envelope_tail_ratio", rep.tail_ratio, 1e-4, rep.tail_ratio <= 1e-4))
        elif which == "focusing":
            from .extremizers import ExtremizerSpec, focusing_check

            rep = focusing_check(
                ExtremizerSpec("smoothing", float(resolved["lam"]), DispersionParams(alpha, 1))
            )
            rows.append(("focusing_min_modulus_ratio", rep.min_modulus_ratio, 0.1,
                         rep.min_modulus_ratio >= 0.1))
        elif which == "ridge":
            from .extremizers import ExtremizerSpec, ridge_check

            rep = ridge_check(
                ExtremizerSpec("maximal", float(resolved["lam"]), DispersionParams(alpha, 1),
                               epsilon=float(resolved["epsilon"]))
            )
            rows.append(("ridge_min_ratio", rep.min_ridge_ratio, 0.1, rep.min_ridge_ratio >= 0.1))
        else:
            print(f"error: unknown diagnostic {which!r}", file=sys.stderr)
            return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    header = _header_lines("diagnostics", resolved)
    _write_table(resolved["output"], header, ("diagnostic", "value", "threshold", "passed"),
                 rows, resolved["format"])
    return EXIT_OK if all(r[3] for r in rows) else EXIT_VERDICT_FAIL


def _default_bilinear_residual() -> float:
    from .decomposition import bilinear_reconstruction_residual
    from .grid import Field, GridSpec
    from .propagator import quadratic_phase

    rng = np.random.default_rng(0)
    grid = GridSpec(1, 512, 160.0)
    mesh = grid.axis_frequencies()
    idx = np.flatnonzero(np.abs(mesh) < 1.0)
    cf = np.zeros(512, dtype=complex)
    cg = np.zeros(512, dtype=complex)
    cf[rng.choice(idx, 64, replace=False)] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    cg[rng.choice(idx, 64, replace=False)] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f, g = Field(grid, "frequency", cf), Field(grid, "frequency", cg)
    return bilinear_reconstruction_residual(f, g, 256.0, [0.0, 0.5, 1.0], quadratic_phase())


def _default_restriction_slope(p: float) -> float:
    from .decomposition import bilinear_restriction_ratio
    from .grid import Field, GridSpec
    from .propagator import quadratic_phase

    grid = GridSpec(1, 512, 200.0)
    mesh = grid.axis_frequencies()
    h1 = Field(grid, "frequency", np.where((mesh > -1.0) & (mesh < -0.25), 1.0, 0.0))
    h2 = Field(grid, "frequency", np.where((mesh > 0.25) & (mesh < 1.0), 1.0, 0.0))
    ep = quadratic_phase()
    lams = np.array([16.0, 32.0, 64.0, 128.0])
    ratios = [bilinear_restriction_ratio(h1, h2, p, lam, ep) for lam in lams]
    return float(np.polyfit(np.log(lams), np.log(ratios), 1)[0])


# -- exponents --------------------------------------------------------------------


def cmd_exponents(args) -> int:
    from .norms import (
        admissibility_threshold,
        airy_exponent,
        maximal_exponent,
        maximal_necessary_exponent,
        smoothing_exponent,
    )

    defaults = {"alpha": 2.0, "d": 1, "p": 6.0, "output": None, "format": "csv"}
    try:
        resolved = _resolve(args, defaults)
        alpha, dim, p = float(resolved["alpha"]), int(resolved["d"]), float(resolved["p"])
        if dim < 1:
            raise ConfigError("d must be >= 1")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = [
        ("smoothing_exponent", smoothing_exponent(alpha, dim, p)),
        ("maximal_exponent", maximal_exponent(alpha, dim, p)),
        ("maximal_necessary_exponent", maximal_necessary_exponent(alpha, p)),
        ("admissibility_threshold", admissibility_threshold(dim)),
    ]
    if dim == 1:
        rows.append(("airy_exponent", airy_exponent(p)))
    header = _header_lines("exponents", resolved)
    _write_table(resolved["output"], header, ("name", "value"), rows, resolved["format"])
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="displab", description="dispersive-flow laboratory experiments"
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))

    ev = sub.add_parser("evolve", help="run the flow on a built-in datum")
    common(ev)
    ev.add_argument("--alpha", type=float)
    ev.add_argument("--d", type=int)
    ev.add_argument("--datum", choices=("gaussian", "plane-wave", "f_lambda", "g_lambda"))
    ev.add_argument("--t", type=float)
    ev.add_argument("--frames", type=int)
    ev.add_argument("--points", type=int)
    ev.add_argument("--half-width", dest="half_width", type=float)
    ev.add_argument("--xi0", type=float)
    ev.add_argument("--lam", type=float)
    ev.add_argument("--allow-wrapped", dest="allow_wrapped", action="store_const", const=True)
    ev.add_argument("--dump-fields", dest="dump_fields")
    ev.add_argument("--plot-script", dest="plot_script")

    sw = sub.add_parser("sweep", help="scaling sweep with slope verdict")
    common(sw)
    sw.add_argument("--family", choices=("smoothing", "maximal", "airy"))
    sw.add_argument("--alpha", type=float)
    sw.add_argument("--d", type=int)
    sw.add_argument("--p", type=float)
    sw.add_argument("--beta", type=float)
    sw.add_argument("--lambdas", help="comma-separated increasing scales")
    sw.add_argument("--tolerance", type=float)
    sw.add_argument("--expect", help="override the expected slope (default: critical - beta), "
                                      "e.g. slope=0.2")
    sw.add_argument("--sobolev-denominator", dest="sobolev_denominator",
                    action="store_const", const=True)
    sw.add_argument("--plot-script", dest="plot_script")

    dg = sub.add_parser("diagnostics", help="one-shot numerical checks")
    common(dg)
    dg.add_argument("which", nargs="?", help="kernel-tail | bilinear-reconstruction | "
                                             "bilinear-ratio | envelope | focusing | ridge")
    dg.add_argument("--alpha", type=float)
    dg.add_argument("--k", type=int)
    dg.add_argument("--t", type=float)
    dg.add_argument("--lam", type=float)
    dg.add_argument("--p", type=float)
    dg.add_argument("--epsilon", type=float)

    ex = sub.add_parser("exponents", help="critical-exponent table")
    common(ex)
    ex.add_argument("--alpha", type=float)
    ex.add_argument("--d", type=int)
    ex.add_argument("--p", type=float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "evolve": cmd_evolve,
        "sweep": cmd_sweep,
        "diagnostics": cmd_diagnostics,
        "exponents": cmd_exponents,
    }
    if args.command not in handlers:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
