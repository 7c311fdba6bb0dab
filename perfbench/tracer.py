"""Outside-in tracer for the extropy layers.

Installed in a benchmark child after ``import extropy.cli`` and before
``extropy.cli.main`` runs.  It rebinds the layer functions in every module
that holds a binding of them (the package imports names directly, so
patching only the defining module would miss most calls) and never edits
the package source.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by its child spans; spans are strictly nested because the
program is single-threaded.  Counters are recorded at the same boundaries.
Only the callables *passed to* ``integrate``, ``truncation_point`` and
``brentq`` are wrapped as counters, not spans, so their time stays with the
layer that called them.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

_PARAMETRIC_CALLERS = ("measures", "dynamic", "models")


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


class Tracer:
    """Span stack plus per-layer counters for one traced process."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._stack: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []
        self._sj_pairs = 0

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, fn, on_call=None, on_result=None):
        """Wrap ``fn`` so each call is a span charged to ``layer``.

        ``on_call(args, kwargs)`` may return replacement (args, kwargs);
        ``on_result(result, args, kwargs)`` records counters from the outcome.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._stack.pop()
                self.self_s[layer] += duration - children
                if self._stack:
                    self._stack[-1] += duration
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a callable so that each evaluation increments ``name``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- layers --------------------------------------------------------------

    def install(self) -> None:
        from extropy import cli, dynamic, estimation, grouping, measures, models, quadrature, reports

        self._install_quadrature(quadrature, {
            "measures": measures, "dynamic": dynamic, "models": models, "estimation": estimation,
        })
        self._install_measures(measures, dynamic, quadrature.QuadratureSpec)
        self._install_estimation(estimation, (estimation, grouping, cli))
        self._install_grouping(grouping, (grouping, cli))
        self._install_reports(reports, (reports, cli))
        self._patch(cli, "main", self.span("cli", cli.main))

    def _install_quadrature(self, quadrature, callers: dict) -> None:
        integrate = quadrature.integrate
        truncation_point = quadrature.truncation_point

        def trunc_call(args, kwargs):
            survivals, pdfs, lo, spec = args
            survivals, pdfs = list(survivals), list(pdfs)
            self.counts["quadrature.truncation_point.calls"] += 1
            self.keys["quadrature.truncation_point"].add((tuple(survivals), tuple(pdfs), lo))
            probe = "quadrature.truncation_point.probe_evals"
            return (
                [self.counted(probe, f) for f in survivals],
                [self.counted(probe, f) for f in pdfs],
                lo,
                spec,
            ), kwargs

        trunc = self.span("quadrature.truncation_point", truncation_point, on_call=trunc_call)
        integrate_wrappers = {
            group: self._integrate_wrapper(integrate, group)
            for group in ("parametric", "estimation")
        }
        for name, module in callers.items():
            if hasattr(module, "truncation_point"):
                self._patch(module, "truncation_point", trunc)
            group = "parametric" if name in _PARAMETRIC_CALLERS else "estimation"
            self._patch(module, "integrate", integrate_wrappers[group])

    def _integrate_wrapper(self, integrate, group: str):
        from extropy.errors import QuadratureFailure

        layer = f"quadrature.integrate.{group}"

        def on_call(args, kwargs):
            self.counts[f"{layer}.calls"] += 1
            return (self.counted(f"{layer}.evals", args[0]),) + args[1:], kwargs

        def on_result(result, args, kwargs):
            self.counts[f"{layer}.subdivisions"] += result.subdivisions

        inner = self.span(layer, integrate, on_call, on_result)

        @functools.wraps(integrate)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except QuadratureFailure:
                self.counts[f"{layer}.failures"] += 1
                raise

        return wrapper

    def _install_measures(self, measures, dynamic, spec_type) -> None:
        for module, layer in ((measures, "measures"), (dynamic, "dynamic")):
            for name in module.__all__:
                fn = getattr(module, name)
                if not callable(fn) or isinstance(fn, type):
                    continue

                def on_call(args, kwargs, layer=layer, name=name):
                    self.counts[f"{layer}.calls"] += 1
                    self.counts[f"{layer}.{name}.calls"] += 1
                    key = (name,) + tuple(
                        _hashable(a) for a in args if not isinstance(a, spec_type)
                    ) + tuple(sorted((k, _hashable(v)) for k, v in kwargs.items() if k != "q"))
                    self.keys[layer].add(key)
                    return args, kwargs

                self._patch(module, name, self.span(layer, fn, on_call))

    def _install_estimation(self, estimation, bindings) -> None:
        def sj_call(args, kwargs):
            (batch,) = args
            self.counts["estimation.sheather_jones_bandwidth.calls"] += 1
            # every solve evaluates the td and sd pilots and the two bracket
            # ends, then one sd functional per Brent step (counted below)
            self._sj_pairs = batch.n * (batch.n - 1) // 2
            self.counts["estimation.sheather_jones_bandwidth.pair_terms_computed"] += 4 * self._sj_pairs
            return args, kwargs

        sj = self.span("estimation.sheather_jones_bandwidth", estimation.sheather_jones_bandwidth, sj_call)

        brentq = estimation.brentq

        @functools.wraps(brentq)
        def traced_brentq(f, *args, **kwargs):
            counts = self.counts
            pairs = self._sj_pairs

            def counted(x):
                counts["estimation.sheather_jones_bandwidth.brent_evals"] += 1
                counts["estimation.sheather_jones_bandwidth.pair_terms_computed"] += pairs
                return f(x)

            return brentq(counted, *args, **kwargs)

        def est_call(args, kwargs):
            self.counts["estimation.estimate_relative_extropy.calls"] += 1
            return args, kwargs

        est = self.span("estimation.estimate_relative_extropy", estimation.estimate_relative_extropy, est_call)

        def mc_result(row, args, kwargs):
            self.counts["estimation.mc_bias_mse.reps"] += row.reps
            self.counts["estimation.mc_bias_mse.failed_reps"] += row.failures

        mc = self.span("estimation.mc_bias_mse", estimation.mc_bias_mse, on_result=mc_result)

        kde_cls = estimation.KdeModel

        def kde_call(args, kwargs):
            model, x = args
            points = int(getattr(x, "size", 1))
            self.counts["estimation.kde.points"] += points
            raw_sums = 1 if model.reflect_at is None else 2
            self.counts["estimation.kde.kernel_terms_computed"] += points * model.sample.n * raw_sums
            return args, kwargs

        self._patch(kde_cls, "pdf", self.span("estimation.kde", kde_cls.pdf, kde_call))
        self._patch(estimation, "brentq", traced_brentq)
        for module in bindings:
            for name, wrapper in (
                ("sheather_jones_bandwidth", sj),
                ("estimate_relative_extropy", est),
                ("mc_bias_mse", mc),
            ):
                if hasattr(module, name):
                    self._patch(module, name, wrapper)

    def _install_grouping(self, grouping, bindings) -> None:
        def load_result(ds, args, kwargs):
            self.counts["grouping.load_csv.rows"] += sum(b.n for _, b in ds.groups) + ds.dropped_rows

        def matrix_result(matrix, args, kwargs):
            k = len(matrix.labels)
            self.counts["grouping.pairwise_matrix.pairs"] += k * (k - 1) // 2

        load = self.span("grouping.load_csv", grouping.load_csv, on_result=load_result)
        pairwise = self.span("grouping.pairwise_matrix", grouping.pairwise_matrix, on_result=matrix_result)
        for module in bindings:
            self._patch(module, "load_csv", load)
            self._patch(module, "pairwise_matrix", pairwise)

    def _install_reports(self, reports, bindings) -> None:
        def written(path, args, kwargs):
            self.counts["reports.bytes"] += os.path.getsize(path)

        for name in ("write_report", "write_matrix_csv", "write_study_csv", "write_heatmap"):
            wrapper = self.span("reports", getattr(reports, name), on_result=written)
            for module in bindings:
                if hasattr(module, name):
                    self._patch(module, name, wrapper)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters, self times and waste ratios, keyed by metric prefix."""
        ratios = {}
        for layer in ("quadrature.truncation_point", "dynamic"):
            total = self.counts[f"{layer}.calls"]
            # distinct argument sets over total calls; 1.0 when never called
            ratios[layer] = len(self.keys[layer]) / total if total else 1.0
        return {
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "distinct_ratio": ratios,
        }
