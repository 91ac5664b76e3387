"""Span recorder that traces debtkit from outside, by swapping module attributes.

`Tracer.install` replaces each target attribute, such as
``debtkit.regress.cross_section``, with a wrapper that records a span
(parent, name, layer, start, end, returned normally, size) and then restores
the original on `uninstall`. Calls that go through module globals, such as
`convergence_regression` calling `cross_section` inside `regress`, resolve
the swapped attribute at call time, so inner calls are traced too. Nothing
under ``src/`` is edited.

A span is named after the attribute that was swapped, ``<module>.<name>``,
so that ``regress.cross_section`` and ``scaling.cross_section`` count the
calls made from each module. Its layer is the module that defines the
function (``fn.__module__``): time spent in `cross_section`, which
``panel`` defines, counts to ``panel`` whichever module called it. The
subcommand functions ``cli.cmd_<sub>`` are the root spans of each operation
and are named ``cli.<sub>``.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("panel", "regress", "distributions", "scaling", "dynamics", "cli")
SUBCOMMANDS = ("converge", "dist", "scaling", "threshold", "synth", "simulate")


def _rows_ingested(args, result):
    return len(result.records)


def _rows_scanned(args, result):
    return len(args[0])


def _fits(args, result):
    return len(result)


def _steps(args, result):
    return len(result.times) - 1


# (module, attribute, size of the work the call did, or None)
TARGETS = [
    *[("cli", f"cmd_{sub}", None) for sub in SUBCOMMANDS],
    ("panel", "ingest_csv", _rows_ingested),
    ("panel", "normalize", None),
    ("panel", "filter_income_group", None),
    ("panel", "records_from_observations", None),
    ("panel", "write_panel_csv", None),
    ("panel", "write_deflator_csv", None),
    ("regress", "slope_surface", None),
    ("regress", "convergence_regression", None),
    ("regress", "cross_section", _rows_scanned),
    ("regress", "ols", None),
    ("regress", "write_surface_csv", None),
    ("distributions", "histogram_pdf", None),
    ("distributions", "zipf_ranks", None),
    ("distributions", "fit_zipf_exponent", None),
    ("distributions", "fit_gamma_mle", None),
    ("distributions", "digamma", None),
    ("distributions", "ols", None),
    ("distributions", "write_histogram_csv", None),
    ("distributions", "write_ranks_csv", None),
    ("scaling", "gamma_trend", _fits),
    ("scaling", "fit_gdp_debt_scaling", None),
    ("scaling", "cross_section", _rows_scanned),
    ("scaling", "ols", None),
    ("scaling", "write_trend_csv", None),
    ("dynamics", "simulate_model", _steps),
    ("dynamics", "write_simpath_csv", None),
    ("dynamics", "synthetic_convergent_panel", None),
    ("dynamics", "step_debt", None),
]

# per-layer metrics that are the inclusive time of one span name
TIMED = [
    "panel.ingest_csv", "panel.normalize", "panel.write_panel_csv",
    "regress.slope_surface", "regress.write_surface_csv",
    "distributions.fit_gamma_mle", "distributions.zipf_ranks",
    "distributions.write_ranks_csv", "distributions.write_histogram_csv",
    "scaling.gamma_trend", "scaling.write_trend_csv",
    "dynamics.simulate_model", "dynamics.write_simpath_csv",
    "dynamics.synthetic_convergent_panel", "dynamics.step_debt",
]


def _span_name(module: str, attr: str) -> str:
    return f"cli.{attr[4:]}" if module == "cli" else f"{module}.{attr}"


class Tracer:
    """Records spans while installed; `spans` holds one list per pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack
        layer = fn.__module__.rpartition(".")[2]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [stack[-1] if stack else -1, name, layer, perf_counter(),
                    0.0, False, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            span[5] = True
            if size is not None:
                span[6] = size(args, result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, size in TARGETS:
            mod = importlib.import_module(f"debtkit.{module}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(_span_name(module, attr), fn, size))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def derive(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass: inclusive and self times, and counters.

    A span's self time is its duration minus its children's durations; the
    children of one span never overlap because the program is single-threaded.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = defaultdict(float)
    calls = defaultdict(int)
    ok = defaultdict(int)
    size = defaultdict(int)
    child = [0.0] * len(spans)
    for parent, _name, _layer, t0, t1, _ok, _size in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (_parent, name, layer, t0, t1, returned, n) in enumerate(spans):
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - child[i]
        layer_self[layer] += t1 - t0 - child[i]
        calls[name] += 1
        ok[name] += returned
        size[name] += n

    m = {f"{name}.s": total[name] for name in TIMED}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.self_s"] = self_time[f"cli.{sub}"]
    cells = calls["regress.convergence_regression"]
    fits = ok["regress.convergence_regression"]
    m.update({
        "panel.rows_ingested": size["panel.ingest_csv"],
        "regress.cells": cells,
        "regress.fits": fits,
        "regress.useful_ratio": fits / cells if cells else 0.0,
        "regress.cross_section.calls": calls["regress.cross_section"],
        "regress.obs_scanned": (size["regress.cross_section"]
                                + size["scaling.cross_section"]),
        "regress.ols.calls": sum(v for k, v in calls.items()
                                 if k.endswith(".ols")),
        "distributions.newton_iters": calls["distributions.digamma"],
        "scaling.fits": size["scaling.gamma_trend"],
        "dynamics.steps": size["dynamics.simulate_model"],
    })
    return m


COUNTERS = ["panel.rows_ingested", "regress.cells", "regress.fits",
            "regress.cross_section.calls", "regress.obs_scanned",
            "regress.ols.calls", "distributions.newton_iters", "scaling.fits",
            "dynamics.steps"]
