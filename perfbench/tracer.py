"""Spans and counts around the public functions of each radialmasa layer.

``Tracer.install`` replaces each target function with a wrapper that
records a span (request, parent span, name, start, end) and, through
small hooks, the work counts of that layer.  radialmasa imports functions
by name (``from .algebra import multiply``), so each wrapper is put in
place at every radialmasa module that holds the original object, and in
``cli.COMMANDS``.  Nothing under ``src/`` is changed on disk.

Every ``.s`` metric is self time: the span's duration minus the time
covered by its child spans, so the layer times of a run add up to the
traced wall time less the untraced glue.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import radialmasa.algebra as algebra
import radialmasa.cli as cli
import radialmasa.density as density
import radialmasa.identities as identities
import radialmasa.spectral as spectral

BLOCK_FAMILIES = {
    "inner_block": "sandwich_inner",
    "expansion_block": "sandwich_expansion",
    "pairing_block": "pairing_cases",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans kept in memory for one child process; one request per CLI call."""

    def __init__(self):
        self.request = 0
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._chi_args = set()
        self._reports = defaultdict(list)

    # -- wrapping ------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            record = [self.request, stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, before hook, after hook) for every layer."""
        c = self.counts
        element = algebra.GroupAlgebraElement
        cache_cls = getattr(identities, "_SandwichCache", None)
        quad_cls = getattr(density, "_DensityQuadrature", None)

        def multiply_after(result, args, kwargs):
            x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
            c["words.concat"] += len(x) * len(y)
            c["algebra.multiply.out_terms"] += len(result)

        def inner_after(result, args, kwargs):
            x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
            c["algebra.inner.lookups"] += min(len(x), len(y))

        def chi_after(result, args, kwargs):
            n, rank = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "rank")
            c["words.enumerated"] += algebra.chi_support_size(n, rank)
            self._chi_args.add((n, rank))

        def build_after(result, args, kwargs):
            c["algebra.max_terms"] = max(c["algebra.max_terms"], len(args[0]))

        def project_after(result, args, kwargs):
            c["algebra.project.in_terms"] += len(args[0])
            c["algebra.project.kept_terms"] += len(result)

        def component_before(args, kwargs):
            cache, key, r, s = args[0], args[2], args[3], args[4]
            c["identities.cache.requests"] += 1
            if r >= 0 and s >= 0 and (key, r, s) not in getattr(cache, "_components", {}):
                c["identities.cache.misses"] += 1

        def block_after(family):
            def after(result, args, kwargs):
                # kept, not counted: cmd_verify --inject-error marks a report failed later
                self._reports[family].append(result)
            return after

        def rule_before(args, kwargs):
            order = _arg(args, kwargs, 0, "order")
            c["spectral.quad.max_order"] = max(c["spectral.quad.max_order"], order)

        def closed_after(result, args, kwargs):
            values, guarded = result
            c["density.closed.points"] += values.size
            c["density.guard.points"] += int(guarded.sum())

        def series_after(result, args, kwargs):
            values, _ = result
            c["density.series.point_terms"] += values.size * _arg(args, kwargs, 2, "truncation")

        def level_before(args, kwargs):
            quad, order = args[0], _arg(args, kwargs, 1, "order")
            if order not in getattr(quad, "_levels", {}):
                c["density.quad.levels"] += 1
                c["density.quad.grid_points"] += order * order

        def rows_after(result, args, kwargs):
            body = result[0]
            if isinstance(body, str):
                c["cli.rows"] += body.count("\n") - 1
            else:
                c["cli.rows"] += len(body.get("rows") or body.get("checks") or ())

        yield algebra, "multiply", "algebra.multiply", None, multiply_after
        yield algebra, "inner_product", "algebra.inner", None, inner_after
        yield algebra, "chi", "algebra.chi", None, chi_after
        yield element, "__init__", "algebra.build", None, build_after
        yield element, "__add__", "algebra.add", None, None
        yield element, "__sub__", "algebra.add", None, None
        yield element, "project_length", "algebra.project", None, project_after
        yield algebra, "radial_moment_exact", "algebra.moment", None, None
        for fn_name, family in BLOCK_FAMILIES.items():
            yield identities, fn_name, f"identities.block.{family}", None, block_after(family)
        for fn_name in ("sandwich_inner_closed", "pairing_closed", "sandwich_expansion_indices"):
            yield identities, fn_name, "identities.closed", None, None
        yield cache_cls, "component", "identities.cache", component_before, None
        yield spectral, "lambda_rule", "spectral.rule", rule_before, None
        yield spectral, "quad_lambda", "spectral.quad", None, None
        yield spectral, "trig_sum", "spectral.trig_sum", None, None
        yield spectral, "chi_eval_recurrence", "spectral.chi_eval", None, None
        yield density, "density_closed_grid", "density.closed", None, closed_after
        yield density, "density_series_grid", "density.series", None, series_after
        yield quad_cls, "chi_pair_integral", "density.quad", None, None
        yield quad_cls, "_level", "density.quad", level_before, None
        yield density, "pairing_exact", "density.exact", None, None
        yield density, "zero_scan", "density.scan", None, None
        yield cli, "main", "cli.main", None, None
        yield cli, "build_parser", "cli.config", None, None
        yield cli, "resolve_config", "cli.config", None, None
        for command in cli.COMMANDS.values():
            yield cli, command.__name__, "cli.rows", None, rows_after
        yield cli, "csv_text", "cli.csv", None, None
        yield cli, "json_report", "cli.json", None, None
        yield cli, "emit", "cli.write", None, None

    def install(self):
        self._rule = spectral.lambda_rule
        wrappers = {}
        for owner, attr, name, before, after in self._targets():
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', None)}.{attr}")
                continue
            wrapper = self.wrap(name, fn, before, after)
            wrappers[id(fn)] = (fn, wrapper)
            setattr(owner, attr, wrapper)
        # by-name imports: every radialmasa module attribute bound to an original
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "radialmasa"]:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        for key, fn in cli.COMMANDS.items():
            hit = wrappers.get(id(fn))
            if hit is not None and hit[0] is fn:
                cli.COMMANDS[key] = hit[1]

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, own = Counter(), defaultdict(float)
        for index, (_, _, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child[index]
        return calls, own

    def metrics(self, output_bytes):
        """Every per-layer metric as {name: (value, unit)}."""
        c = self.counts
        calls, own = self.self_times()
        checks = {f: sum(len(r) for r in lists) for f, lists in self._reports.items()}
        failed = sum(1 for lists in self._reports.values() for r in lists
                     for report in r if not report.passed)
        info = self._rule.cache_info() if hasattr(self._rule, "cache_info") else None
        block = {f: own[f"identities.block.{f}"] for f in BLOCK_FAMILIES.values()}
        out = {
            "words.concat": (c["words.concat"], "count"),
            "words.enumerated": (c["words.enumerated"], "count"),
            "algebra.multiply.calls": (calls["algebra.multiply"], "count"),
            "algebra.multiply.s": (own["algebra.multiply"], "s"),
            "algebra.multiply.out_terms": (c["algebra.multiply.out_terms"], "count"),
            "algebra.multiply.yield": (
                _ratio(c["algebra.multiply.out_terms"], c["words.concat"]), "ratio"),
            "algebra.inner.calls": (calls["algebra.inner"], "count"),
            "algebra.inner.lookups": (c["algebra.inner.lookups"], "count"),
            "algebra.inner.s": (own["algebra.inner"], "s"),
            "algebra.chi.calls": (calls["algebra.chi"], "count"),
            "algebra.chi.distinct": (len(self._chi_args), "count"),
            "algebra.chi.s": (own["algebra.chi"], "s"),
            "algebra.build.calls": (calls["algebra.build"], "count"),
            "algebra.build.s": (own["algebra.build"], "s"),
            "algebra.add.s": (own["algebra.add"], "s"),
            "algebra.project.s": (own["algebra.project"], "s"),
            "algebra.project.kept_frac": (
                _ratio(c["algebra.project.kept_terms"], c["algebra.project.in_terms"]), "ratio"),
            "algebra.max_terms": (c["algebra.max_terms"], "count"),
            "algebra.moment.s": (own["algebra.moment"], "s"),
            "identities.block.s": (sum(block.values()), "s"),
            "identities.closed.s": (own["identities.closed"], "s"),
            "identities.cache.requests": (c["identities.cache.requests"], "count"),
            "identities.cache.misses": (c["identities.cache.misses"], "count"),
            "identities.cache.hit_frac": (
                _ratio(c["identities.cache.requests"] - c["identities.cache.misses"],
                       c["identities.cache.requests"]), "ratio"),
            "identities.failed": (failed, "count"),
            "spectral.rule.calls": (info.hits + info.misses if info else 0, "count"),
            "spectral.rule.misses": (info.misses if info else 0, "count"),
            "spectral.quad.calls": (calls["spectral.quad"], "count"),
            "spectral.quad.s": (own["spectral.quad"], "s"),
            "spectral.quad.max_order": (c["spectral.quad.max_order"], "count"),
            "spectral.trig_sum.calls": (calls["spectral.trig_sum"], "count"),
            "spectral.trig_sum.s": (own["spectral.trig_sum"], "s"),
            "spectral.chi_eval.s": (own["spectral.chi_eval"], "s"),
            "density.closed.points": (c["density.closed.points"], "count"),
            "density.closed.s": (own["density.closed"], "s"),
            "density.guard.points": (c["density.guard.points"], "count"),
            "density.guard_frac": (
                _ratio(c["density.guard.points"], c["density.closed.points"]), "ratio"),
            "density.series.point_terms": (c["density.series.point_terms"], "count"),
            "density.series.s": (own["density.series"], "s"),
            "density.quad.levels": (c["density.quad.levels"], "count"),
            "density.quad.grid_points": (c["density.quad.grid_points"], "count"),
            "density.quad.s": (own["density.quad"], "s"),
            "density.exact.s": (own["density.exact"], "s"),
            "density.scan.s": (own["density.scan"], "s"),
            "cli.config.s": (own["cli.config"], "s"),
            "cli.rows.s": (own["cli.rows"], "s"),
            "cli.csv.s": (own["cli.csv"], "s"),
            "cli.json.s": (own["cli.json"], "s"),
            "cli.write.s": (own["cli.write"], "s"),
            "cli.output_bytes": (output_bytes, "B"),
            "cli.rows": (c["cli.rows"], "count"),
            "trace.spans": (len(self.spans), "count"),
        }
        for family in BLOCK_FAMILIES.values():
            out[f"identities.checks.{family}"] = (checks.get(family, 0), "count")
            out[f"identities.block.{family}.s"] = (block[family], "s")
        return out

    def write_spans(self, path):
        """One JSON object per span; ``parent`` indexes the span list."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (request, parent, name, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "request": request, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")
