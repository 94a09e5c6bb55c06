"""Command-line front end: experiment dispatch with reproducible outputs.

Commands
    evolve       run the flow on a built-in datum, write per-frame norms
    sweep        run a scaling sweep and render a slope verdict; the expected
                 slope defaults to critical - beta (`harness.expected_slope`)
    diagnostics  one-shot checks (kernel tails, bilinear residuals, ...)
    exponents    print the critical-exponent table for (alpha, d, p)

Each setting is declared once, as a flag with its type, choices and
default in `build_parser`.  A JSON `--config` file sets them by the names
the output header echoes; its values pass through those same flags, ahead
of the command line's, so flags override them.  Exit codes: 0 success /
verdict pass, 1 verdict fail, 2 invalid configuration, 3 numerical failure
(non-finite frames, or a value that overflows the float range).

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


def _setting_actions(command_parser: argparse.ArgumentParser) -> dict:
    """A command's settings by name: every argument but --help and --config."""
    return {a.dest: a for a in command_parser._actions if a.dest not in ("help", "config")}


def _settings(args: argparse.Namespace) -> dict:
    """The resolved settings, sorted by name, as a config file would set them."""
    return {key: getattr(args, key) for key in sorted(_setting_actions(args.command_parser))}


def _config_argv(command_parser: argparse.ArgumentParser, path) -> list[str]:
    """Turn a JSON config file into the command's own flags.

    `null` keeps a setting's default.  A positional setting (the diagnostic
    name) becomes the positional's default, so one named on the command
    line still overrides it.  Anything else the flags could not take, or a
    key the command does not have, raises `ConfigError`.
    """
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, not {type(loaded).__name__}")
    actions = _setting_actions(command_parser)
    unknown = sorted(set(loaded) - set(actions))
    if unknown:
        raise ConfigError(
            f"config file {path} has unknown keys {unknown}; known keys: {sorted(actions)}"
        )
    argv = []
    for key, value in loaded.items():
        if value is None:
            continue
        action = actions[key]
        flag = action.option_strings[0] if action.option_strings else key
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(
                    f"config key {key!r} sets the switch {flag}: give true or false, not {value!r}"
                )
            if value:
                argv.append(flag)
        elif isinstance(value, (bool, list, dict)):
            raise ConfigError(
                f"config key {key!r} sets {flag}: give a number or a string, not {value!r}"
            )
        elif action.option_strings:
            argv.append(f"{flag}={value}")
        else:
            command_parser.set_defaults(**{key: value})
    return argv


def _write_table(args, columns, rows, verdict=None):
    """CSV ('.' decimals, ',' delimiter, LF endings) or JSON mirror."""
    settings = _settings(args)
    if args.format == "json":
        payload = {
            "command": f"displab {args.command}",
            "config": settings,
            "records": [dict(zip(columns, row)) for row in rows],
        }
        if verdict is not None:
            payload["verdict"] = verdict
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"# displab {args.command}",
            f"# config: {json.dumps(settings)}",
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        if verdict is not None:
            for key, val in verdict.items():
                lines.append(f"# {key} = {_cell(val)}")
        text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_plot_script(path, csv_path):
    script = "\n".join(
        [
            "set datafile separator ','",
            "set logscale xy",
            "set xlabel 'lambda'",
            "set ylabel 'ratio'",
            f"plot '{csv_path}' using 1:7 with linespoints title 'ratio'",
            "pause -1",
        ]
    )
    Path(path).write_text(script + "\n", newline="\n")


# -- evolve ---------------------------------------------------------------------


def _build_datum(args):
    """The evolve datum: the gaussian and the plane wave as physical fields, f_lambda and
    g_lambda as their exact spectra, so the flow forms its phase on their supports alone."""
    from .extremizers import ExtremizerSpec, maximal_spectrum, smoothing_spectrum
    from .grid import Field, GridSpec
    from .propagator import DispersionParams

    grid = GridSpec(args.d, args.points, args.half_width)
    if args.datum == "gaussian":
        return Field.from_function(grid, lambda x: np.exp(-(np.asarray(x) ** 2).sum(axis=0) / 2.0))
    if args.datum == "plane-wave":
        index = args.xi0 / grid.frequency_spacing
        if not np.isfinite(index):  # inf, nan, or past the float range once divided by the spacing
            raise ConfigError(f"--xi0 must be a finite lattice frequency, got {args.xi0}")
        xi0 = round(index) * grid.frequency_spacing  # snap to the lattice
        return Field.from_function(grid, lambda x: np.exp(1j * xi0 * np.asarray(x)[0]))
    params = DispersionParams(args.alpha, args.d)
    if args.datum == "f_lambda":
        return smoothing_spectrum(
            ExtremizerSpec("smoothing", args.lam, params, grid), allow_wrapped=args.allow_wrapped
        )
    return maximal_spectrum(ExtremizerSpec("maximal", args.lam, params, grid))


def cmd_evolve(args) -> int:
    from .grid import save_field
    from .norms import lp_norm
    from .propagator import DispersionParams, evolve_trajectory

    datum = _build_datum(args)
    if args.frames < 1:
        raise ConfigError(f"frames must be a positive integer, got {args.frames}")
    if args.frames > 1 and args.t == 0.0:
        raise ConfigError(f"--frames {args.frames} needs a nonzero --t: --t 0 gives one time")
    # increasing from min(0, t) to max(0, t); evolve_trajectory rejects inf and nan
    ts = [args.t] if args.frames == 1 or not np.isfinite(args.t) else np.linspace(
        *sorted((0.0, args.t)), args.frames)
    traj = evolve_trajectory(datum, ts, DispersionParams(args.alpha, args.d))

    rows = []
    for t, frame in zip(traj.t_samples, traj.frames):
        if not np.all(np.isfinite(frame.samples)):
            print("error: non-finite values in evolution", file=sys.stderr)
            return EXIT_NUMERICAL
        rows.append(
            (t, lp_norm(frame, 2.0), lp_norm(frame, np.inf), float(np.abs(frame.samples).min()))
        )
    _write_table(args, ("t", "l2_norm", "sup_norm", "min_modulus"), rows)
    if args.dump_fields:
        outdir = Path(args.dump_fields)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = {"config": _settings(args), "frames": []}
        for i, (t, frame) in enumerate(zip(traj.t_samples, traj.frames)):
            name = f"frame_{i:04d}.fld"
            save_field(frame, outdir / name)
            manifest["frames"].append({"t": t, "file": name})
        (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return EXIT_OK


# -- sweep ----------------------------------------------------------------------


def cmd_sweep(args) -> int:
    from .harness import SweepConfig, critical_exponent, expected_slope, run_sweep, slope_verdict

    if args.plot_script and not args.output:
        raise ConfigError("--plot-script needs --output, the CSV file its script plots")
    if args.plot_script and args.format != "csv":
        raise ConfigError(f"--plot-script plots CSV output; it cannot read --format {args.format}")
    if args.beta is None:  # resolved here so the header echoes the beta that ran
        args.beta = critical_exponent(args.family, args.alpha, args.d, args.p)
    cfg = SweepConfig(
        family=args.family, alpha=args.alpha, dim=args.d, p=args.p, beta=args.beta,
        lambdas=tuple(float(v) for v in args.lambdas.split(",")),
        use_sobolev_denominator=args.sobolev_denominator,
    )
    # default: the slope the family's sharp exponent predicts, critical - beta
    expected = expected_slope(cfg) if args.expect is None else args.expect
    records = run_sweep(cfg)
    decision = slope_verdict(records, expected, args.tolerance) if len(records) >= 2 else None

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
    _write_table(args, SWEEP_COLUMNS, rows, verdict)
    if args.plot_script:
        _emit_plot_script(args.plot_script, args.output)
    return status


def tolerance(text: str) -> float:
    """A `--tolerance` value: a finite float >= 0, checked before any sweep runs."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return value


def slope(text: str) -> float:
    """An `--expect` value: a slope, bare or as slope=<s> (argparse says "invalid slope value")."""
    key, _, val = text.rpartition("=")
    if key.strip() not in ("", "slope"):
        raise argparse.ArgumentTypeError(f"unknown expectation {key!r}")
    return float(val)


# -- diagnostics ------------------------------------------------------------------


def cmd_diagnostics(args) -> int:
    from .extremizers import ExtremizerSpec, envelope_check, focusing_check, ridge_check
    from .propagator import DispersionParams, kernel_tail_mass

    # the bilinear diagnostics ignore --alpha, so they neither read nor check it
    params = None if args.which.startswith("bilinear") else DispersionParams(args.alpha, 1)
    rows = []
    if args.which == "kernel-tail":
        value = kernel_tail_mass(args.k, args.t, params)
        rows.append(("kernel_tail_mass", value, 0.01, value < 0.01))
    elif args.which == "bilinear-reconstruction":
        value = _default_bilinear_residual()
        rows.append(("bilinear_reconstruction_residual", value, 1e-10, value <= 1e-10))
    elif args.which == "bilinear-ratio":
        value = _default_restriction_slope(args.p)
        rows.append(("bilinear_restriction_ratio_slope", value, 0.05, value <= 0.05))
    elif args.which == "envelope":
        rep = envelope_check(ExtremizerSpec("smoothing", args.lam, params))
        rows.append(("envelope_peak_ratio", rep.peak_ratio, float("inf"), True))
        rows.append(("envelope_tail_ratio", rep.tail_ratio, 1e-4, rep.tail_ratio <= 1e-4))
    elif args.which == "focusing":
        rep = focusing_check(ExtremizerSpec("smoothing", args.lam, params))
        rows.append(("focusing_min_modulus_ratio", rep.min_modulus_ratio, 0.1,
                     rep.min_modulus_ratio >= 0.1))
    else:  # ridge
        rep = ridge_check(ExtremizerSpec("maximal", args.lam, params, epsilon=args.epsilon))
        rows.append(("ridge_min_ratio", rep.min_ridge_ratio, 0.1, rep.min_ridge_ratio >= 0.1))

    _write_table(args, ("diagnostic", "value", "threshold", "passed"), rows)
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

    alpha, dim, p = args.alpha, args.d, args.p
    if dim < 1:
        raise ConfigError("d must be >= 1")
    rows = [
        ("smoothing_exponent", smoothing_exponent(alpha, dim, p)),
        ("maximal_exponent", maximal_exponent(alpha, dim, p)),
        ("maximal_necessary_exponent", maximal_necessary_exponent(alpha, p)),
        ("admissibility_threshold", admissibility_threshold(dim)),
    ]
    if dim == 1:
        rows.append(("airy_exponent", airy_exponent(p)))
    _write_table(args, ("name", "value"), rows)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="displab", description="dispersive-flow laboratory experiments"
    )
    commands = parser.add_subparsers(dest="command")

    def command(name, handler, help):
        p = commands.add_parser(name, help=help)
        p.set_defaults(handler=handler, command_parser=p)
        p.add_argument("--config", help="JSON config file of settings; flags override its values")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    ev = command("evolve", cmd_evolve, "run the flow on a built-in datum")
    ev.add_argument("--alpha", type=float, default=2.0)
    ev.add_argument("--d", type=int, default=1)
    ev.add_argument("--datum", choices=("gaussian", "plane-wave", "f_lambda", "g_lambda"),
                    default="gaussian")
    ev.add_argument("--t", type=float, default=1.0)
    ev.add_argument("--frames", type=int, default=9)
    ev.add_argument("--points", type=int, default=1024)
    ev.add_argument("--half-width", type=float, default=20.0)
    ev.add_argument("--xi0", type=float, default=1.0)
    ev.add_argument("--lam", type=float, default=16.0)
    ev.add_argument("--allow-wrapped", action="store_true")
    ev.add_argument("--dump-fields", help="directory for per-frame field dumps")

    sw = command("sweep", cmd_sweep, "scaling sweep with slope verdict")
    sw.add_argument("--family", choices=("smoothing", "maximal", "airy"), default="smoothing")
    sw.add_argument("--alpha", type=float, default=2.0)
    sw.add_argument("--d", type=int, default=1)
    sw.add_argument("--p", type=float, default=6.0)
    sw.add_argument("--beta", type=float, help="default: the family's critical exponent")
    sw.add_argument("--lambdas", default="16,32,64,128", help="comma-separated increasing scales")
    sw.add_argument("--tolerance", type=tolerance, default=0.1)
    sw.add_argument("--expect", type=slope, help="override the expected slope "
                                                 "(default: critical - beta), e.g. slope=0.2")
    sw.add_argument("--sobolev-denominator", action="store_true")
    sw.add_argument("--plot-script", help="gnuplot script plotting the --output CSV")

    dg = command("diagnostics", cmd_diagnostics, "one-shot numerical checks")
    dg.add_argument("which", nargs="?", default="kernel-tail",
                    choices=("kernel-tail", "bilinear-reconstruction", "bilinear-ratio",
                             "envelope", "focusing", "ridge"), help="the check to run")
    dg.add_argument("--alpha", type=float, default=2.0,
                    help="read by kernel-tail, envelope, focusing and ridge")
    dg.add_argument("--k", type=int, default=6, help="read by kernel-tail")
    dg.add_argument("--t", type=float, default=1.0, help="read by kernel-tail")
    dg.add_argument("--lam", type=float, default=32.0, help="read by envelope, focusing and ridge")
    dg.add_argument("--p", type=float, default=6.0, help="read by bilinear-ratio")
    dg.add_argument("--epsilon", type=float, default=0.05, help="read by ridge")

    ex = command("exponents", cmd_exponents, "critical-exponent table")
    ex.add_argument("--alpha", type=float, default=2.0)
    ex.add_argument("--d", type=int, default=1)
    ex.add_argument("--p", type=float, default=6.0)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_CONFIG
        if args.config:  # the file's values as flags, ahead of the command line's so those win
            args = parser.parse_args(
                [argv[0], *_config_argv(args.command_parser, args.config), *argv[1:]]
            )
        return args.handler(args)
    except SystemExit as exc:  # argparse's exit after --help or a value a flag rejects
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    except ValueError as exc:  # ConfigError and the library's typed input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # finite input whose scales overflow the float range
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
