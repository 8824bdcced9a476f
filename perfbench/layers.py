"""Traced in-process run: spans and counts around each layer of ``ftig``.

The spans are recorded from the benchmark's side.  While a run is traced,
the public functions that the CLI calls in the other layers are replaced,
in the caller's namespace, by wrappers.  A wrapper records a span (name,
layer, parent, request, start, end) and counts taken from the call's
result.  The spans stay in memory and are written out with the result.

After each traced ``cli.run``, a sweep on the same inputs calls, under its
own root span:

- the public pieces of the closedness check on every architecture:
  ``globalize``, ``interface_sum``, ``expand_motives`` and
  ``reduce_modulo_reflection``;
- each of ``lint``, ``check_closed``, ``read_event_log`` and
  ``comply_events`` that the command itself did not call.  The last two
  get an empty log.

So every layer time is measured on every workload.  A layer's self time is
its span time minus the part its child spans cover.  Each instance also
runs once untraced; the difference between the traced and untraced
``cli.run`` times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from collections import Counter
from pathlib import Path

import gen

LAYERS = ("lexer", "parser", "resolver", "algebra", "locglob", "transform", "reflection",
          "architecture", "report", "cli")

# span name -> per-layer time metric
TIMES = {
    "lexer.tokenize": "lexer.tokenize_s",
    "parser.parse_module": "parser.parse_self_s",
    "resolver.resolve": "resolver.resolve_s",
    "resolver.lint": "resolver.lint_s",
    "architecture.check_closed": "architecture.check_closed_s",
    "locglob.globalize": "locglob.globalize_s",
    "algebra.interface_sum": "algebra.interface_sum_s",
    "transform.expand_motives": "transform.expand_motives_s",
    "reflection.reduce": "reflection.reduce_s",
    "report.emit": "report.emit_s",
    "architecture.read_event_log": "architecture.read_event_log_s",
    "architecture.comply": "architecture.comply_s",
}
COUNTS = ("lexer.tokens", "parser.items", "resolver.interfaces", "resolver.errors",
          "resolver.lint_warnings", "algebra.sum_terms", "transform.expanded_terms",
          "reflection.residual_terms", "transform.assignments", "report.bytes",
          "architecture.events", "architecture.violations", "architecture.warnings",
          *(f"{layer}.failed" for layer in LAYERS))


def _len(key):
    return lambda result: {key: len(result)}


def _check_counts(rep):
    cases = len(rep.conditional.cases) if rep.conditional is not None else 0
    return {"transform.assignments": cases}


def _comply_counts(rep):
    return {"architecture.violations": len(rep.violations),
            "architecture.warnings": len(rep.warnings)}


class Tracer:
    def __init__(self):
        # span: [name, layer, parent index or None, request, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0
        self.last_resolution = None

    def wrap(self, layer: str, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            # calls inside the same layer belong to the caller's span
            if self.stack and self.spans[self.stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, layer, self.stack[-1] if self.stack else None, self.request,
                    time.perf_counter(), None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{layer}.failed"] += 1
                raise
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                self.counts.update(counts(result))
            return result
        return traced

    def self_times(self, root: str | None = None) -> Counter:
        """Self time per span name: duration minus the children's durations.
        With ``root``, only spans under a root span of that name count."""
        roots: list[int] = []
        own = Counter()
        for index, (name, _, parent, _, start, end) in enumerate(self.spans):
            roots.append(index if parent is None else roots[parent])
            if root is not None and self.spans[roots[index]][0] != root:
                continue
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced functions in their callers' namespaces."""
        from ftig import cli, report
        from ftig.speclang import parser

        def keep_resolution(res):
            self.last_resolution = res
            return {"resolver.interfaces": len(res.interfaces),
                    "resolver.errors": len(res.errors)}

        patches = [
            (parser, "tokenize", "lexer", "lexer.tokenize", _len("lexer.tokens")),
            (cli, "parse_module", "parser", "parser.parse_module",
             lambda m: {"parser.items": len(m.items)}),
            (cli, "resolve", "resolver", "resolver.resolve", keep_resolution),
            (cli, "lint", "resolver", "resolver.lint", _len("resolver.lint_warnings")),
            (cli, "check_closed", "architecture", "architecture.check_closed",
             _check_counts),
            (cli, "read_event_log", "architecture", "architecture.read_event_log",
             _len("architecture.events")),
            (cli, "comply_events", "architecture", "architecture.comply", _comply_counts),
            (report, "dumps", "report", "report.emit",
             lambda text: {"report.bytes": len(text.encode())}),
        ]
        patches += [(report, fn, "report", "report.emit", None)
                    for fn in ("document", "interface_terms", "term_object",
                               "generator_object", "diagnostic_object")]
        saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in patches]
        try:
            for module, attr, layer, name, counts in patches:
                setattr(module, attr, self.wrap(layer, name, getattr(module, attr), counts))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def sweep(self, called: set[str]):
        """Time the closedness pieces, and the layers the command did not
        call, on the resolution of the last traced run."""
        from ftig.algebra import interface_sum
        from ftig.architecture import check_closed, comply_events, read_event_log
        from ftig.locglob import globalize
        from ftig.reflection import reduce_modulo_reflection
        from ftig.speclang import lint
        from ftig.transform import expand_motives

        res = self.last_resolution
        host = self.wrap("locglob", "locglob.globalize", globalize)
        total = self.wrap("algebra", "algebra.interface_sum", interface_sum,
                          _len("algebra.sum_terms"))
        expand = self.wrap("transform", "transform.expand_motives", expand_motives,
                           _len("transform.expanded_terms"))
        reduce = self.wrap("reflection", "reflection.reduce", reduce_modulo_reflection,
                           lambda r: {"reflection.residual_terms": len(r.canonical)})
        for arch in res.architectures.values():
            parts = [host(m.entity, iface, res.catalog) for m in arch.members
                     for iface in (m.interface.unconditional,
                                   *(i for _, i in m.interface.branches))]
            reduce(expand(total(parts)))
        if "resolver.lint" not in called:
            self.wrap("resolver", "resolver.lint", lint, _len("resolver.lint_warnings"))(res)
        if "architecture.check_closed" not in called:
            check = self.wrap("architecture", "architecture.check_closed", check_closed,
                              _check_counts)
            for arch in res.architectures.values():
                check(arch, res.catalog)
        if "architecture.read_event_log" not in called:
            self.wrap("architecture", "architecture.read_event_log", read_event_log,
                      _len("architecture.events"))("")
        if "architecture.comply" not in called:
            comply = self.wrap("architecture", "architecture.comply", comply_events,
                               _comply_counts)
            assignment = {var: False for var in res.catalog.condition_vars}
            for arch in res.architectures.values():
                comply([], arch, assignment)


def _cli_run(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    from ftig import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    wall = time.perf_counter() - start
    return code, out.getvalue().encode(), err.getvalue().encode(), wall


def traced_run(instances: list[gen.Instance], work: Path, seconds: float, src: Path,
               correct) -> tuple[dict, dict]:
    """Whole rounds over the instances, each run traced and untraced, until
    ``seconds`` have passed.  ``correct(inst, code, stdout, stderr)`` checks
    one run's answer."""
    sys.path.insert(0, str(src))
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    runs = failed = 0
    deadline = time.perf_counter() + seconds
    here = os.getcwd()
    os.chdir(work)
    try:
        while runs == 0 or time.perf_counter() < deadline:
            for inst in instances:
                tracer.request += 1
                tracer.last_resolution = None
                first = len(tracer.spans)
                with tracer.installed():
                    code, out, err, wall = tracer.wrap("cli", "cli.run", _cli_run)(inst.argv)
                traced_s += wall
                failed += not correct(inst, code, out, err)
                called = {span[0] for span in tracer.spans[first:]}
                try:
                    tracer.wrap("bench", "sweep", tracer.sweep)(called)
                except Exception:
                    # the failing layer has counted it; the run goes on
                    failed += 1
                code, out, err, wall = _cli_run(inst.argv)
                untraced_s += wall
                failed += not correct(inst, code, out, err)
                runs += 1
    finally:
        os.chdir(here)

    own = tracer.self_times()
    in_cli = tracer.self_times(root="cli.run")
    metrics = {metric: (own[name] / runs, "s") for name, metric in TIMES.items()}
    metrics["cli.run_s"] = (traced_s / runs, "s")
    metrics.update({key: (tracer.counts[key] / runs, "count") for key in COUNTS})
    metrics["report.bytes"] = (metrics["report.bytes"][0], "bytes")
    layer_self = sum(v for k, v in in_cli.items() if k != "cli.run")
    metrics["trace.coverage"] = (layer_self / traced_s, "fraction")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / runs, "s")
    info = {
        "invocations": 2 * runs, "failed": failed, "traced_runs": runs,
        "untraced_run_s": untraced_s / runs,
        "spans": [{"name": n, "parent": p, "request": r, "start": s, "end": e}
                  for n, _, p, r, s, e in tracer.spans],
    }
    return metrics, info
