"""Outside-in layer trace: spans and counters around displab's public functions.

``Tracer.install`` replaces every public function of each traced layer, a
few class methods, and the ``chirpquad.CZT`` plan constructor with timing
wrappers.  A name is patched wherever displab code looks it up: in its
defining module and in every displab module that imported it by name
(``from .propagator import evolve`` binds ``harness.evolve`` at import).  A
function that a layer function returns, such as the symbol closure of
``propagator.dispersion_symbol``, runs as a span of the same layer.
``uninstall`` puts every original back and checks that it did.

Each call is a span with its parent span; a layer's ``self_s`` is the time
its spans cover minus the time their child spans cover.  Counters are taken
at the same boundaries.  A counted name that no longer exists is reported
as absent with the reason, never as 0.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import threading
import time
import types

LAYERS = ("grid", "spectral", "cutoffs", "propagator", "chirpquad", "norms", "extremizers", "harness")

# cutoff evaluations, counted when they are entered from another layer
CUTOFF_EVALS = ("lowpass", "bandpass", "annulus", "diagonal_lowpass", "cell_1d", "cell")
# class methods traced besides each layer's public module-level functions
METHODS = {
    "grid": {
        "GridSpec": ("axis_points", "axis_frequencies", "point_mesh", "frequency_mesh",
                     "frequency_radii"),
        "Field": ("__post_init__",),
    },
    "cutoffs": {"CutoffSpec": CUTOFF_EVALS + ("band_symbol", "lowpass_sum")},
    "harness": {"SweepRecord": ("__post_init__",)},
}

# What each layer's metrics should move end to end:
#   chirpquad            wall_s on localization and sweep, peak_rss_mb on sweep, nothing on direct
#   propagator, spectral wall_s on direct and sweep
#   harness              wall_s on sweep only
#   cutoffs              wall_s on localization
#   norms                wall_s on sweep and direct
#   extremizers          wall_s on sweep and localization
#   grid                 wall_s and peak_rss_mb on direct and localization
#   <module>.import_s    setup_s on every workload (run.py measures these)

# per-layer counters: name -> (unit, traced names it needs)
COUNTERS = {
    "chirpquad.profiles": ("count", ("chirpquad.chirp_profile",)),
    "chirpquad.targets": ("count", ("chirpquad.chirp_profile",)),
    "chirpquad.dense_nodes": ("count", ("chirpquad.chirp_profile", "chirpquad.dense_node_estimate")),
    "chirpquad.czt_plans": ("count", ("chirpquad.CZT",)),
    "chirpquad.czt_plans_distinct": ("count", ("chirpquad.CZT",)),
    "chirpquad.bounds": ("count", ("chirpquad.nonstationary_bound",)),
    "propagator.frames": ("count", ("propagator.evolve",)),
    "propagator.frames_distinct": ("count", ("propagator.evolve",)),
    "propagator.band_kernels": ("count", ("propagator.band_kernel",)),
    "propagator.kernel_tails": ("count", ("propagator.kernel_tail_mass",)),
    "spectral.transforms": ("count", ("spectral.dft_forward", "spectral.dft_inverse")),
    "spectral.points": ("count", ("spectral.dft_forward", "spectral.dft_inverse")),
    "harness.sweeps": ("count", ("harness.run_sweep",)),
    "harness.records": ("count", ("harness.SweepRecord.__post_init__",)),
    "cutoffs.evals": ("count", ("cutoffs.CutoffSpec.annulus", "cutoffs.CutoffSpec.bandpass")),
    "cutoffs.points": ("count", ("cutoffs.CutoffSpec.annulus", "cutoffs.CutoffSpec.bandpass")),
    "norms.lp_calls": ("count", ("norms.lp_norm",)),
    "norms.lp_points": ("count", ("norms.lp_norm",)),
    "extremizers.datum_norms": ("count", ("extremizers.datum_lp_norm",)),
    "extremizers.datum_norm_misses": ("count", ("extremizers.datum_lp_norm",)),
    "grid.fields": ("count", ("grid.Field.__post_init__",)),
    "grid.field_mb": ("MB", ("grid.Field.__post_init__",)),
}
# time spent inside scipy's CZT at the chirpquad.CZT boundary: plan builds and applications
CZT_TIMES = {"chirpquad.czt_plan_s": "czt_plan", "chirpquad.czt_apply_s": "czt_apply"}


def _is_layer_function(obj, module_name: str) -> bool:
    if isinstance(obj, types.FunctionType):
        return obj.__module__ == module_name
    wrapped = getattr(obj, "__wrapped__", None)  # functools.lru_cache
    return hasattr(obj, "cache_info") and getattr(wrapped, "__module__", None) == module_name


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, parent span or None, start, end, seconds in children]
        self.counts = {name: 0 for name in COUNTERS}
        self.found = set()
        self.missing = {}
        self._local = threading.local()
        self._undo = []
        self._frames = set()
        self._plans = set()
        self._misses0 = 0
        self._originals = {}
        self._hooks = self._make_hooks()

    # -- spans -----------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn, module_name: str | None = None):
        tracer, hook = self, self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = [name, layer, parent, time.perf_counter(), 0.0, 0.0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[5] += span[4] - span[3]
            if hook is not None:
                parent_name = parent[0] if parent is not None else None
                for key, amount in hook(args, kwargs, result, parent_name).items():
                    tracer.counts[key] += amount
            if (module_name and isinstance(result, types.FunctionType)
                    and result.__module__ == module_name):
                result = tracer.wrap(f"{layer}.{result.__qualname__}", layer, result, module_name)
            return result

        return traced

    # -- counters --------------------------------------------------------------------

    def _make_hooks(self) -> dict:
        """Traced name -> hook(args, kwargs, result, parent span name) -> counter increments."""

        def cutoff_eval(args, kwargs, result, parent):
            if parent is None or not parent.startswith("cutoffs."):  # entered from outside
                return {"cutoffs.evals": 1, "cutoffs.points": int(getattr(result, "size", 1))}
            return {}

        evolve_signature = functools.cache(
            lambda: inspect.signature(self._originals["propagator.evolve"]))

        def frame(args, kwargs, result, parent):
            # a frame is distinct by its datum, grid, flow and time
            bound = evolve_signature().bind(*args, **kwargs)
            field, t, params = (bound.arguments[k] for k in ("field", "t", "params"))
            flat = field.samples.reshape(-1)
            datum = hashlib.blake2b(flat[:: max(1, flat.size // 64)].tobytes(), digest_size=16)
            self._frames.add((field.grid, field.representation, params, float(t), datum.digest()))
            return {"propagator.frames": 1}

        def transform(args, kwargs, result, parent):
            return {"spectral.transforms": 1, "spectral.points": result.grid.size}

        hooks = {
            "chirpquad.chirp_profile": lambda a, k, r, p: {
                "chirpquad.profiles": 1, "chirpquad.targets": sum(v.size for v in r)},
            "chirpquad.dense_node_estimate": lambda a, k, r, p: (
                {"chirpquad.dense_nodes": int(r)} if p == "chirpquad.chirp_profile" else {}),
            "chirpquad.nonstationary_bound": lambda a, k, r, p: {"chirpquad.bounds": 1},
            "propagator.evolve": frame,
            "propagator.band_kernel": lambda a, k, r, p: {"propagator.band_kernels": 1},
            "propagator.kernel_tail_mass": lambda a, k, r, p: {"propagator.kernel_tails": 1},
            "spectral.dft_forward": transform,
            "spectral.dft_inverse": transform,
            "harness.run_sweep": lambda a, k, r, p: {"harness.sweeps": 1},
            "harness.SweepRecord.__post_init__": lambda a, k, r, p: {"harness.records": 1},
            "norms.lp_norm": lambda a, k, r, p: {
                "norms.lp_calls": 1, "norms.lp_points": a[0].samples.size},
            "extremizers.datum_lp_norm": lambda a, k, r, p: {"extremizers.datum_norms": 1},
            "grid.Field.__post_init__": lambda a, k, r, p: {
                "grid.fields": 1, "grid.field_mb": a[0].samples.nbytes / 2**20},
        }
        hooks.update({f"cutoffs.CutoffSpec.{m}": cutoff_eval for m in CUTOFF_EVALS})
        return hooks

    # -- patching --------------------------------------------------------------------

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "displab" or n.startswith("displab.")]
        by_layer = {layer: sys.modules.get(f"displab.{layer}") for layer in LAYERS}
        for layer, module in by_layer.items():
            if module is None:
                self.missing[layer] = f"module displab.{layer} no longer exists"
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_layer_function(obj, module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.found.add(name)
                self._originals[name] = obj
                self._patch_everywhere(modules, obj, self.wrap(name, layer, obj, module.__name__))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    original = getattr(cls, "__dict__", {}).get(method)
                    if not callable(original):
                        continue
                    name = f"{layer}.{cls_name}.{method}"
                    self.found.add(name)
                    setattr(cls, method, self.wrap(name, layer, original, module.__name__))
                    self._undo.append((cls, method, original))
        self._install_czt(by_layer["chirpquad"], modules)
        if "extremizers.datum_lp_norm" in self.found:
            self._misses0 = self._originals["extremizers.datum_lp_norm"].cache_info().misses

    def _install_czt(self, chirpquad, modules) -> None:
        plan_class = getattr(chirpquad, "CZT", None)
        if plan_class is None:
            return
        self.found.add("chirpquad.CZT")
        signature = inspect.signature(plan_class)
        build = self.wrap("chirpquad.CZT", "czt_plan", plan_class)

        def plan(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._plans.add(tuple(bound.arguments[k] for k in ("n", "m", "w")))
            self.counts["chirpquad.czt_plans"] += 1
            return self.wrap("chirpquad.CZT.__call__", "czt_apply", build(*args, **kwargs))

        self._patch_everywhere(modules, plan_class, plan)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._undo
                if vars(o).get(a) is not orig]
        self._undo.clear()
        if left:
            raise RuntimeError(f"trace wrappers still installed: {left}")

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric: {"value", "unit"}, or {"value": None, "absent": reason}."""
        if "extremizers.datum_lp_norm" in self.found:
            cached = self._originals["extremizers.datum_lp_norm"].cache_info()
            self.counts["extremizers.datum_norm_misses"] = cached.misses - self._misses0
        self.counts["propagator.frames_distinct"] = len(self._frames)
        self.counts["chirpquad.czt_plans_distinct"] = len(self._plans)

        self_s = dict.fromkeys(LAYERS + tuple(CZT_TIMES.values()), 0.0)
        for _, layer, _, start, end, child in self.spans:
            self_s[layer] += end - start - child
        def entry(value, unit, absent=None):
            return {"value": None, "unit": unit, "absent": absent} if absent else {
                "value": value, "unit": unit}

        out = {}
        for name, (unit, needs) in COUNTERS.items():
            gone = [f"displab.{n} no longer exists" for n in needs if n not in self.found]
            out[name] = entry(self.counts[name], unit, gone[0] if gone else None)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = entry(self_s[layer], "s", self.missing.get(layer))
        czt_gone = None if "chirpquad.CZT" in self.found else "displab.chirpquad.CZT no longer exists"
        for name, layer in CZT_TIMES.items():
            out[name] = entry(self_s[layer], "s", czt_gone)
        return out
