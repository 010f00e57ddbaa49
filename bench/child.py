"""One fresh-process call of the fraccons CLI, timed and optionally traced.

Started by ``bench/run.py``; not meant to be run by hand.  The process
imports ``fraccons`` from the checkout's ``src/``, parses the workload
config, and records when that set-up ended.  Unless ``--setup-only`` is
given it then calls ``fraccons.cli.main`` once, with the layer tracer
installed when ``--trace`` is given, and writes its measurements as JSON to
``--stats``.  The CLI's own output goes to this process's stdout.

Times use ``time.monotonic`` so that the parent's spawn stamp and this
process's stamps share one clock.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("specialfn", "fracops", "tfde", "symcat", "conslaw", "cli", "acceptance")


class LayerTracer:
    """Spans around the public functions of each fraccons layer.

    Every span is closed into an in-memory aggregate keyed by span name
    (``<layer>.<qualname>``): its call count and its self time, which is
    the span's duration minus the durations of the spans it directly
    encloses.  Self times of all spans therefore add up to the root span
    without double counting.  Count-only probes record calls without a
    span, so their time stays with the caller.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []  # child-span time of each open span

    def span(self, name: str, fn):
        clock = time.perf_counter
        stack = self._child_s
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur

        return traced

    def counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind every fraccons.* attribute that holds a wrapped function.

        A function is wrapped when it is public in its defining layer, or
        when another layer imports it (it crosses a layer boundary).
        Public methods of the classes a layer defines are wrapped on the
        class.  ``tfde.solve_banded`` gets a count-only probe.
        """
        import fraccons.tfde

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "fraccons" or name.startswith("fraccons.")}
        layer_of = {f"fraccons.{layer}": layer for layer in LAYERS}
        holders = defaultdict(list)  # id(function) -> [(module, attribute)]
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    holders[id(obj)].append((mod, attr))

        for modname, layer in layer_of.items():
            mod = modules.get(modname)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    imported = any(m is not mod for m, _ in holders[id(obj)])
                    if attr.startswith("_") and not imported:
                        continue
                    wrapped = self.span(f"{layer}.{obj.__name__}", obj)
                    for holder, name in holders[id(obj)]:
                        setattr(holder, name, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_methods(layer, obj)

        tfde = fraccons.tfde
        tfde.solve_banded = self.counter("tfde.banded_solves", tfde.solve_banded)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.span(name, raw))

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=float, required=True,
                    help="parent's time.monotonic() just before the spawn")
    ap.add_argument("--src", required=True, help="directory holding the fraccons package")
    ap.add_argument("--workload-config", default=None, help="workload config JSON, if any")
    ap.add_argument("--stats", required=True, help="where to write this call's measurements")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments after --")
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import fraccons
    import fraccons.cli

    if not fraccons.__file__.startswith(args.src):
        raise SystemExit(f"fraccons was imported from {fraccons.__file__}, not {args.src}")
    if args.workload_config is not None:
        with open(args.workload_config, "r", encoding="utf-8") as fh:
            fraccons.cli.parse_config(json.load(fh))
    setup_done = time.monotonic()

    stats = {"setup_s": setup_done - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.trace:
            if cli_args[:1] == ["selftest"]:
                import fraccons.acceptance  # noqa: F401  (imported lazily by the CLI)
            tracer = LayerTracer()
            tracer.install()
        start = time.perf_counter()
        rc = fraccons.cli.main(cli_args)
        stats["wall_s"] = time.perf_counter() - start
        stats["exit_code"] = rc
        if tracer is not None:
            stats["trace"] = tracer.summary()
        sys.stdout.flush()

    import numpy
    import scipy

    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__}
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
