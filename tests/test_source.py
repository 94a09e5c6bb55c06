import ast
import inspect
import os

import displab

SRC = os.path.dirname(displab.__file__)


def test_library_has_no_assert_statements():
    """`python -O` strips asserts, so no check in the library may be one."""
    found = []
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert modules  # the walk must see the package
    for name in modules:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_apply_symbol_reads_the_frequency_mesh():
    """Every phase e^{i t phi} is formed on the spectral support, so only the
    time-independent multipliers of `spectral.apply_symbol` see the full mesh."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "frequency_mesh":
                readers.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read(), filename=name), name[:-3])
    assert readers == ["spectral.apply_symbol"]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the checks the system runs besides the library and its CLI
CHECKS = (os.path.join(ROOT, "tests", "test_acceptance.py"), os.path.join(ROOT, "perfbench", "workloads.py"))
# nothing in the library calls it, but it is the documented reader of the CLI's --dump-fields format
REACHED_BY_DOCUMENTATION = {"load_field"}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _references(tree) -> set:
    """Names loaded in ``tree``, bare or as attributes; a definition's use of its own name is not counted."""
    found = set()
    for statement in tree.body:
        names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(statement.name)
        found |= names
    return found


def _public_definitions(module: str, tree) -> dict:
    """Qualified name -> name of each public function, class, and method of a public class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            found.update(
                (f"{module}.{node.name}.{member.name}", member.name)
                for member in node.body
                if isinstance(member, functions) and not member.name.startswith("_")
            )
    return found


def test_every_public_name_is_reached():
    """Every public function, class and method is used by the library, its CLI or a check."""
    library = {
        name: _parse(os.path.join(SRC, name))
        for name in sorted(os.listdir(SRC))
        if name.endswith(".py") and name != "__init__.py"  # re-exports reach nothing
    }
    public = {}
    for module, tree in library.items():
        public.update(_public_definitions(module[:-3], tree))
    assert "grid.GridSpec.frequency_mesh" in public  # the walk must see methods too
    reached = set().union(*map(_references, library.values()), *map(_references, map(_parse, CHECKS)))
    unreached = sorted(
        qualified for qualified, name in public.items()
        if name not in reached and name not in REACHED_BY_DOCUMENTATION
    )
    assert unreached == []


def _load_trace_layers():
    import importlib.util

    path = os.path.join(ROOT, "perfbench", "trace_layers.py")
    spec = importlib.util.spec_from_file_location("trace_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_counter_name_resolves():
    """Each `displab.<layer>.<name>` a per-layer counter needs exists as the trace patches it.

    A renamed or removed function turns its counters into absent entries,
    which the benchmark reports as null instead of a count.
    """
    import importlib

    trace_layers = _load_trace_layers()
    needed = sorted({name for _, names in trace_layers.COUNTERS.values() for name in names})
    assert "propagator.evolve" in needed  # the walk must see the counters
    unresolved = []
    for name in needed:
        layer, *path = name.split(".")
        module = importlib.import_module(f"displab.{layer}")
        if path == ["CZT"] and layer == "chirpquad":
            ok = isinstance(getattr(module, "CZT", None), type)
        elif len(path) == 1:
            ok = not path[0].startswith("_") and trace_layers._is_layer_function(
                getattr(module, path[0], None), module.__name__)
        else:
            cls_name, method = path
            ok = method in trace_layers.METHODS.get(layer, {}).get(cls_name, ()) and callable(
                vars(getattr(module, cls_name, object)).get(method))
        if not ok:
            unresolved.append(name)
    assert unresolved == []


def test_options_that_only_tests_set_stay_gone():
    """No caller set these knobs, so the library has none: `evolve`'s headroom, the chirp-z
    route's method, the cutoffs' sharpness and smoothness scale, the separation weight's
    cutoffs, the datum amplitude of the extremizer layer (`harness._record` applies
    `datum_scale`), the unit profile grid's nyquist, the representation a field's copy could
    switch to, and the public headroom check, stacked inverse, array-target coercion,
    packet norm, physical smoothing datum, power-sum entry and spectral radius that went
    with them; nor the measured kernel L1 mass, whose floor 1 the tail share divides by, and
    the datum node count that only a sweep pre-check read; nor the grid-adequacy error and
    the kernel grid's own power-of-two rounding, which `grid.sized_grid` replaced; nor the
    elliptic phase's per-route check and per-point phase reader, now that construction
    runs the one vectorized Hessian probe."""
    from displab import (chirpquad, cutoffs, decomposition, errors, extremizers, grid, propagator,
                         spectral)

    knobs = [
        (propagator.evolve, "headroom"),
        (chirpquad.chirp_profile, "method"),
        (chirpquad._route, "method"),
        (cutoffs.make_cutoffs, "smoothness_scale"),
        (cutoffs.make_cutoffs, "sharpness"),
        (cutoffs.CutoffSpec, "sharpness"),
        (cutoffs.smooth_step, "sharpness"),
        (decomposition.separation_weight, "cutoffs"),
        (extremizers.datum_lp_norm, "amplitude_scale"),
        (extremizers.unit_annulus_field, "scale"),
        (extremizers.unit_profile_grid, "nyquist"),
        (grid.Field.with_samples, "representation"),
    ]
    assert [(fn.__name__, knob) for fn, knob in knobs if knob in inspect.signature(fn).parameters] == []
    gone = {
        spectral: ("ensure_headroom", "dft_inverse_samples", "_inverse_in_place",
                   "spectral_radius", "_RADIUS_REL_TOL"),
        chirpquad: ("as_segments",),
        extremizers: ("packet_lp_norm", "make_smoothing_extremizer", "datum_quadrature_nodes"),
        propagator: ("evolved_lp_norms", "_kernel_l1_mass", "_SERIAL_MASS_POINTS", "_pow2_at_least",
                     "_ph"),
        propagator.EllipticPhase: ("require_elliptic",),
        errors: ("GridAdequacyError",),
    }
    assert [name for module, names in gone.items() for name in names
            if hasattr(module, name) or hasattr(displab, name)] == []


def _callers(function: str) -> list:
    """The library scopes (module.function, module.Class.method) that call ``function`` by name."""
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == function:
                    callers.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            visit(_parse(os.path.join(SRC, name)), name[:-3])
    return callers


def test_only_the_record_builder_builds_records():
    """Every family's record goes through `harness._record`, the one place that picks the
    denominator and applies `datum_scale`."""
    assert _callers("SweepRecord") == ["harness._record"]


def test_one_route_per_power_sum():
    """Every sum of |frame|^p goes through the slice routine `propagator._power_sums`, called
    by the profile curve and the direct record with no entry between; whole
    frames are evolved by `evolve_trajectory` alone, in its own array, with no block engine
    between, and the stacked inverse transform serves its block job and `dft_inverse` only."""
    from displab import propagator

    assert _callers("_power_sums") == ["harness._ProfileCurve.fill", "harness.direct_smoothing_record"]
    assert not hasattr(propagator, "_frame_blocks")
    assert _callers("_inverse_signed_in_place") == [
        "propagator.evolve_trajectory.run", "spectral.dft_inverse"]


def test_only_grid_builds_threads():
    """One pool: no module but `grid` constructs a `ThreadPoolExecutor` or a `threading.Thread`."""
    builders = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            for node in ast.walk(_parse(os.path.join(SRC, name))):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if called in ("ThreadPoolExecutor", "Thread"):
                        builders.append(f"{name[:-3]}.{called}")
    assert builders == ["grid.ThreadPoolExecutor"]


def test_only_grid_names_the_block_pool():
    """One way onto the pool: no module but `grid` names `_block_pool` or `_block_workers`;
    the others go through `grid._run_blocks`."""
    pool_names = {"_block_pool", "_block_workers"}
    naming = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            tree = _parse(os.path.join(SRC, name))
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                        for alias in node.names}
            named = (_references(tree) | imported) & pool_names
            naming += [f"{name[:-3]}.{n}" for n in sorted(named)]
    assert naming == ["grid._block_pool", "grid._block_workers"]


def test_readme_names_resolve():
    """Every backticked `<module>.<name>` in README.md whose module is a displab module names
    something that module has, so a deleted or renamed function cannot stay documented."""
    import importlib
    import re

    modules = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py") and not name.startswith("_")}
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        named = set(re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", fh.read()))
    named = sorted((module, name) for module, name in named if module in modules)
    assert ("propagator", "kernel_tail_mass") in named  # the walk must see the README's names
    unresolved = [f"{module}.{name}" for module, name in named
                  if not hasattr(importlib.import_module(f"displab.{module}"), name)]
    assert unresolved == []


def test_only_grid_sizes_grids():
    """One sizing rule: within the library only `grid` reads the cap `max_grid_points` or
    rounds a size up to a power of two as 2 ** (... np.log2(...) ...)."""
    rounders = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            for node in ast.walk(_parse(os.path.join(SRC, name))):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                        and isinstance(node.left, ast.Constant) and node.left.value == 2
                        and any(isinstance(n, ast.Attribute) and n.attr == "log2"
                                for n in ast.walk(node.right))):
                    rounders.append(name[:-3])
    assert rounders == ["grid"]
    assert {scope.split(".")[0] for scope in _callers("max_grid_points")} == {"grid"}
