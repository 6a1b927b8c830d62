"""Run one CLI job in this interpreter with wrappers around each layer's calls.

Usage: python tracer.py OUT_JSON -- <skewseries CLI arguments>

The wrappers are installed from outside the program: every module of the
package that binds a traced function gets the wrapped one, so calls made
through `from .rings import ...` are seen too.  Spans (name, start, end,
parent) are kept in memory; hot methods keep per-name aggregates only.  A
layer's self time is its duration minus the time of the traced calls made
inside it.  Everything is written to OUT_JSON when the job ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter

import skewseries
from skewseries import cli, monoids, properties, rings, series, specfile, verify

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.t0 = _perf()
        self.stack = []  # open frames: [name, child_time, span_id]
        self.spans = []
        self.span_ids = itertools.count()
        self.calls = Counter()
        self.self_s = Counter()
        self.tallies = Counter()  # work counts read off arguments and results

    def timed(self, name, fn, keep_spans=True, on_result=None):
        """Wrap fn as a span of layer `name`; a call nested in the same layer
        is folded into the outer one and not counted again."""
        stack, spans, span_ids = self.stack, self.spans, self.span_ids
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, next(span_ids)]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if parent is None or parent[0] != name:
                    calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                if keep_spans:
                    spans.append((frame[2], parent[2] if parent else None, name,
                                  start - self.t0, end - self.t0))
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _patch_function(module, attr, wrapper):
    """Rebind module.attr in every package module that holds the same object."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "skewseries" or name.startswith("skewseries."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _armendariz_pairs(tracer):
    # Pairs an exhaustive search scanned: all of them when nothing was found,
    # else up to and including the witness pair in itertools.product order.
    def on_result(cert, ctx, support_box, mode="exhaustive", *rest, **kwargs):
        if mode != "exhaustive":
            return
        n = ctx.ring.order
        slots = sorted({e if isinstance(e, tuple) else (e,) for e in support_box})
        side = n ** len(slots)
        if cert.verdict != "no":
            tracer.tallies["series.armendariz_search.pairs"] += side * side
            return

        def rank(f):
            terms = dict(f.sort_key)
            r = 0
            for s in slots:
                r = r * n + terms.get(s, ctx.ring.zero)
            return r

        f, g = cert.witness[0], cert.witness[1]
        tracer.tallies["series.armendariz_search.pairs"] += rank(f) * side + rank(g) + 1

    return on_result


def install(tracer):
    """Wrap every traced entry point; returns nothing, patches in place."""
    T = tracer

    def add_count(name, value_of):
        def on_result(result, *args, **kwargs):
            T.tallies[name] += value_of(result, *args, **kwargs)
        return on_result

    for attr in ("ring_zn", "ring_product", "ring_matrix", "ring_upper_triangular",
                 "build_ring_from_tables"):
        _patch_function(rings, attr, T.timed("rings.build", getattr(rings, attr)))
    rings.FiniteRing.__init__ = T.timed("rings.build", rings.FiniteRing.__init__)
    _patch_function(rings, "enumerate_ideals", T.timed(
        "rings.enumerate_ideals", rings.enumerate_ideals,
        on_result=add_count("rings.enumerate_ideals.found", lambda r, *a, **k: len(r))))
    _patch_function(rings, "ideal_generated",
                    T.counted("rings.ideal_generated", rings.ideal_generated))
    _patch_function(rings, "enumerate_endomorphisms",
                    T.timed("rings.enumerate_endomorphisms", rings.enumerate_endomorphisms))
    _patch_function(rings, "annihilator",
                    T.timed("rings.annihilator", rings.annihilator, keep_spans=False))

    for attr in ("resolve_ring", "resolve_monoid", "resolve_sigma", "builtin_ring"):
        _patch_function(specfile, attr, T.timed("specfile.resolve", getattr(specfile, attr)))

    accepted = add_count("properties.instances_accepted", lambda r, *a, **k: len(r.per_instance))
    for attr in ("decide_baer", "decide_quasi_baer", "decide_generalized"):
        _patch_function(properties, attr, T.timed(
            f"properties.{attr}", getattr(properties, attr), on_result=accepted))

    monoids.OrderedMonoid.op = T.counted("monoids.op", monoids.OrderedMonoid.op)
    monoids.OrderedMonoid.validate = T.counted("monoids.validate", monoids.OrderedMonoid.validate)

    series.SkewSeries.__mul__ = T.timed("series.mul", series.SkewSeries.__mul__,
                                        keep_spans=False)
    series.SkewSeries.__init__ = T.counted("series.construct", series.SkewSeries.__init__)
    series.SkewContext.omega = T.counted("series.omega", series.SkewContext.omega)
    _patch_function(series, "armendariz_search", T.timed(
        "series.armendariz_search", series.armendariz_search,
        on_result=_armendariz_pairs(T)))

    def candidates(result, ctx, gens, n, box, *rest, **kwargs):
        slots = {e if isinstance(e, tuple) else (e,) for e in box}
        return ctx.ring.order ** len(slots)

    _patch_function(verify, "bounded_annihilator_in_A", T.timed(
        "verify.bounded_annihilator", verify.bounded_annihilator_in_A,
        on_result=add_count("verify.bounded_annihilator.candidates", candidates)))
    for attr in ("verify_prop34", "verify_thm37", "verify_corollaries"):
        _patch_function(verify, attr, T.timed("verify.harness", getattr(verify, attr)))
    _patch_function(verify, "counterexample_search",
                    T.timed("verify.search", verify.counterexample_search))

    _patch_function(cli, "run", T.timed("cli.run", cli.run))


class CountingStream:
    """Forwards writes to a stream and counts the records and bytes written."""

    def __init__(self, stream):
        self.stream = stream
        self.records = 0
        self.bytes = 0

    def write(self, text):
        self.records += text.count("\n")
        self.bytes += len(text.encode())
        return self.stream.write(text)


def main(argv):
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_JSON -- <skewseries arguments>")
    tracer = Tracer()
    install(tracer)
    stream = CountingStream(sys.stdout)
    code = cli.run(cli_args, stream=stream)
    sys.stdout.flush()
    metrics = dict(tracer.tallies)
    metrics.update((f"{name}.calls", n) for name, n in tracer.calls.items())
    metrics.update((f"{name}.self_s", t) for name, t in tracer.self_s.items())
    metrics["cli.records"] = stream.records
    metrics["cli.output_bytes"] = stream.bytes
    with open(out_path, "w") as fh:
        json.dump({"argv": cli_args, "exit": code, "package": skewseries.__file__,
                   "metrics": metrics, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
