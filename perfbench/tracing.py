"""Span tracing of the eisgan_soh layers from outside the package.

`Tracer.install()` replaces every public function and public method of the
seven modules with a wrapper that records one span per call: name, start,
end, parent span and the run it belongs to (a timed unit's index, or -1 for
set-up). A function is replaced under every name it is bound to in those
modules, including names imported from another module (`pipeline.normalize`)
and values of module-level dicts (`cli.COMMANDS`). Nothing under `src/` is
edited; `uninstall()` puts the originals back.

Spans stay in memory while the benchmark runs; `write()` dumps them as JSON
lines at the end and `layer_metrics()` derives per-layer counts and times.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import tracemalloc

MODULES = ("ndgrad", "eisdata", "ecm", "eisgan", "gpr", "pipeline", "cli")
SETUP_RUN = -1

# a span is a list, for speed: id, name, start, end, parent id, run, child seconds, extra
ID, NAME, START, END, PARENT, RUN, CHILD_S, EXTRA = range(8)

#: calls tagged by the width of their `inputs` argument (d120 raw, d9 latent)
WIDTH_TAGGED = ("gpr.fit", "gpr.log_marginal_likelihood", "gpr.GprModel.build")


def conv1d_flop(x_shape, kernel_shape, padding) -> int:
    """2 * K_out * R_in * K_w * B * L_out for one forward conv1d."""
    k_out, r_in, k_w = kernel_shape
    batch = x_shape[0] if len(x_shape) == 3 else 1
    l_out = x_shape[-1] + 2 * padding - k_w + 1
    return 2 * k_out * r_in * k_w * batch * l_out


def _argument_reader(fn, name):
    """fn(args, kwargs) -> value of parameter `name` of `fn` for one call."""
    sig = inspect.signature(fn)
    default = sig.parameters[name].default

    def read(args, kwargs):
        return sig.bind_partial(*args, **kwargs).arguments.get(name, default)
    return read


def _annotators(name, fn):
    """(tag, extra) callbacks for the spans of `name`, or None."""
    tag = extra = None
    if name in WIDTH_TAGGED:
        inputs = _argument_reader(fn, "inputs")

        def tag(args, kwargs):
            shape = getattr(inputs(args, kwargs), "shape", ())
            return f"d{shape[-1] if len(shape) > 1 else 1}"
    if name == "ndgrad.conv1d":
        x, bank, padding = (_argument_reader(fn, p) for p in ("x", "bank", "padding"))

        def extra(args, kwargs, result):
            return conv1d_flop(x(args, kwargs).shape, bank(args, kwargs).kernels.shape,
                               padding(args, kwargs))
    elif name == "eisgan.train":
        config = _argument_reader(fn, "config")

        def extra(args, kwargs, result):
            return config(args, kwargs).epochs
    elif name == "eisdata.load_eis_csv":
        def extra(args, kwargs, result):
            return sum(c.n_points for c in result)
    return tag, extra


class Tracer:
    """Records spans around the package's public callables while `enabled`."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = SETUP_RUN
        self.enabled = False
        self.lml_d120_call = None
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = {short: getattr(package, short) for short in MODULES}
        wrapped: dict[int, object] = {}

        def wrap(name, fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, fn)
            return wrapped[id(fn)]

        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    self._set(mod, attr, wrap(f"{short}.{attr}", value))
                elif inspect.isclass(value):
                    for meth, raw in list(vars(value).items()):
                        label = f"{short}.{attr}.{meth}"
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, staticmethod):
                            self._set(value, meth, staticmethod(wrap(label, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._set(value, meth, wrap(label, raw))
        # every other binding of a wrapped function: imports by name, dispatch dicts
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in wrapped:
                            self._restore.append((dict.__setitem__, value, key, item))
                            value[key] = wrapped[id(item)]

    def _set(self, owner, attr, value):
        self._restore.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._restore):
            setter(owner, key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        tag, extra = _annotators(name, fn)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        is_lml = name == "gpr.log_marginal_likelihood"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name if tag is None else f"{name}.{tag(args, kwargs)}"
            if is_lml and self.lml_d120_call is None and label.endswith(".d120"):
                self.lml_d120_call = (args, kwargs)
            parent = stack[-1] if stack else None
            span = [len(spans), label, 0.0, 0.0,
                    -1 if parent is None else parent[ID], self.run, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD_S] += span[END] - span[START]
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def lml_d120_peak_mb(self, package) -> float:
        """Peak traced allocation of one recorded d=120 LML evaluation (0 if none ran)."""
        if self.lml_d120_call is None:
            return 0.0
        args, kwargs = self.lml_d120_call
        tracemalloc.start()
        try:
            package.gpr.log_marginal_likelihood(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 1e6

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[ID], s[NAME], s[START], s[END], s[PARENT], s[RUN]])
                         + "\n")

    def layer_stats(self, units) -> dict:
        """Per-label statistics; counts and self time are per traced unit in `units`."""
        units = set(units)
        n_units = max(len(units), 1)
        by_label: dict[str, list] = {}
        for s in self.spans:
            by_label.setdefault(s[NAME], []).append(s)
        out = {}
        for label, spans in by_label.items():
            in_units = [s for s in spans if s[RUN] in units]
            self_by_unit = dict.fromkeys(units, 0.0)
            for s in in_units:
                self_by_unit[s[RUN]] += s[END] - s[START] - s[CHILD_S]
            durations = [s[END] - s[START] for s in spans]
            out[label] = {
                "calls": len(in_units) / n_units,
                "self_s": statistics.median(self_by_unit.values()) if units else 0.0,
                "total_s": sum(durations) / len(durations),
                "p50_ms": statistics.median(durations) * 1e3,
                "unit_spans": in_units,
                "spans": spans,
            }
        return out


def layer_metrics(tracer: Tracer, units, lml_peak_mb: float) -> dict[str, float]:
    """Every `<layer>.<stat>` value the benchmark reports from one traced run."""
    stats = tracer.layer_stats(units)
    n_units = max(len(set(units)), 1)
    out = {}
    for label, st in stats.items():
        for key in ("calls", "self_s", "total_s", "p50_ms"):
            out[f"{label}.{key}"] = st[key]
    empty = {"calls": 0.0, "self_s": 0.0, "total_s": 0.0, "p50_ms": 0.0,
             "unit_spans": [], "spans": []}

    conv = stats.get("ndgrad.conv1d", empty)
    gflop = sum(s[EXTRA] for s in conv["unit_spans"]) / n_units / 1e9
    out["ndgrad.conv1d.gflop"] = gflop
    out["ndgrad.conv1d.gflop_per_s"] = gflop / conv["self_s"] if conv["self_s"] else 0.0

    train = stats.get("eisgan.train", empty)
    epochs = sum(s[EXTRA] for s in train["unit_spans"])
    out["eisgan.epoch_s"] = (sum(s[END] - s[START] for s in train["unit_spans"]) / epochs
                             if epochs else 0.0)

    fits = sum(st["calls"] for label, st in stats.items() if label.startswith("gpr.fit."))
    lmls = sum(st["calls"] for label, st in stats.items()
               if label.startswith("gpr.log_marginal_likelihood."))
    out["gpr.lml_per_fit"] = lmls / fits if fits else 0.0
    out["gpr.log_marginal_likelihood.d120.peak_mb"] = lml_peak_mb

    load = stats.get("eisdata.load_eis_csv", empty)
    busy = sum(s[END] - s[START] for s in load["spans"])
    out["eisdata.load_eis_csv.rows_per_s"] = (
        sum(s[EXTRA] for s in load["spans"]) / busy if busy else 0.0)
    return out
