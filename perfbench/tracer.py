"""Layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces zenochain's public functions with timing wrappers
at every attribute of every loaded ``zenochain`` module that refers to them.
That matters because callers look functions up in different places: ``cli``
goes through the ``partitions.``/``apparatus.``/``spectrum.`` namespaces,
``spectrum`` binds ``gaps``, ``simulate_intensity`` and ``ApparatusConfig`` by
name, and library users go through the package. ``ApparatusConfig``'s
constructors are wrapped on the class itself.

Calls into ``spectrum`` and ``cli`` are kept as spans (name, argument, start,
end, parent). The hot leaf calls of ``partitions`` and ``apparatus`` (hundreds
of thousands in ``verify``) are only aggregated. Every wrapped function gets a
call count, a total time and a self time, which is its total minus the time of
the wrapped calls made inside it.

Run as a child process with ``PYTHONPATH=src``:
``python3 perfbench/tracer.py PLAN_JSON``. The plan runs CLI invocations
in-process through ``zenochain.cli.main`` or a stream of library calls
(``streams.py``), with or without the tracer, or a ``tracemalloc`` pass. The
child prints one JSON line.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tracemalloc
from time import perf_counter

import judge
import streams

#: Wrapped functions whose calls are kept as spans; every other one is a hot leaf.
SPAN_MODULES = ("spectrum", "cli")

#: (module, function) pairs wrapped by the tracer. ``enumerate_partitions``
#: returns a generator, so its wrapper times the walk item by item.
TRACED = (
    ("partitions", "count_partitions"),
    ("partitions", "enumerate_partitions"),
    ("partitions", "state_count"),
    ("apparatus", "gaps"),
    ("apparatus", "quantum_intensity"),
    ("apparatus", "simulate_intensity"),
    ("spectrum", "quantum_spectrum"),
    ("spectrum", "brute_force_spectrum"),
    ("spectrum", "classical_spectrum"),
    ("spectrum", "information_series"),
    ("cli", "main"),
    ("cli", "cmd_spectrum"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_partitions"),
    ("cli", "cmd_compare"),
    ("cli", "cmd_zeno"),
)
TRACED_CONSTRUCTORS = ("from_index", "from_bits")

MIB = float(1 << 20)


def replace_everywhere(original, replacement) -> int:
    """Point every attribute of every loaded zenochain module that is
    ``original`` at ``replacement``; returns how many were replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "zenochain" or name.startswith("zenochain.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


class Tracer:
    """Call counts, total and self times, and spans of the wrapped functions."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self.walked = 0
        self.quantum_first: dict[int, float] = {}  # n -> time of its first call
        self.quantum_repeat_s = 0.0
        self.quantum_repeat_calls = 0
        self.classes = 0
        self.merges = 0
        self.missing: list[str] = []
        self._child = [0.0]  # time of wrapped calls inside each open frame
        self._open = [-1]  # span index of each open frame, -1 for a leaf or the root
        self._origin = perf_counter()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _account(self, stat: list, elapsed: float, inner: float) -> None:
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - inner
        self._child[-1] += elapsed

    def _leaf(self, name: str, fn):
        stat = self._stat(name)
        child = self._child
        account = self._account

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                account(stat, elapsed, child.pop())

        return wrapper

    def _walk(self, name: str, fn):
        stat = self._stat(name)
        tracer = self

        def items(it):
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stat[1] += elapsed
                    stat[2] += elapsed
                    tracer._child[-1] += elapsed
                tracer.walked += 1
                yield item

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return items(iter(fn(*args, **kwargs)))

        return wrapper

    def _span(self, name: str, fn):
        spans = self.spans
        child = self._child
        opened = self._open
        origin = self._origin
        tracer = self

        def wrapper(*args, **kwargs):
            arg = _span_arg(name, args, kwargs)
            key = f"{name}.{arg}" if name == "cli.cmd_spectrum" else name
            index = len(spans)
            spans.append({"name": name, "arg": arg, "parent": opened[-1]})
            child.append(0.0)
            opened.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                opened.pop()
                spans[index]["start"] = start - origin
                spans[index]["end"] = start - origin + elapsed
                tracer._account(tracer._stat(key), elapsed, child.pop())
            if name == "spectrum.quantum_spectrum":
                tracer._quantum(arg, elapsed, result)
            return result

        return wrapper

    def _quantum(self, n, elapsed: float, report) -> None:
        if n in self.quantum_first:
            self.quantum_repeat_s += elapsed
            self.quantum_repeat_calls += 1
        else:
            self.quantum_first[n] = elapsed
        self.classes += len(report.classes)
        self.merges += len(report.merges)

    def install(self) -> None:
        import zenochain.cli  # noqa: F401  (loads every module wrapped below)

        for module_name, attr in TRACED:
            module = sys.modules.get(f"zenochain.{module_name}")
            original = getattr(module, attr, None)
            name = f"{module_name}.{attr}"
            if original is None:
                self.missing.append(name)
                continue
            if attr == "enumerate_partitions":
                wrapper = self._walk(name, original)
            elif module_name in SPAN_MODULES:
                wrapper = self._span(name, original)
            else:
                wrapper = self._leaf(name, original)
            replace_everywhere(original, wrapper)
        cls = getattr(sys.modules["zenochain.apparatus"], "ApparatusConfig", None)
        for attr in TRACED_CONSTRUCTORS:
            raw = vars(cls).get(attr) if cls is not None else None
            if not isinstance(raw, classmethod):
                self.missing.append(f"apparatus.ApparatusConfig.{attr}")
                continue
            setattr(cls, attr, classmethod(self._leaf(f"apparatus.{attr}", raw.__func__)))

    def calibrate_walks(self, zc) -> float:
        """Exhaust ``enumerate_partitions(n)`` once per n that got a first
        ``quantum_spectrum`` call; returns the summed first-call time minus
        these walks, an estimate of the spectrum's own build time."""
        stat = self._stat("partitions.enumerate_partitions")
        build = 0.0
        for n, first in sorted(self.quantum_first.items()):
            before = stat[1]
            for _ in zc.enumerate_partitions(n):
                pass
            build += first - (stat[1] - before)
        return build

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "walked": self.walked,
            "quantum_first_s": sum(self.quantum_first.values()),
            "quantum_first_n": sorted(self.quantum_first),
            "quantum_repeat_s": self.quantum_repeat_s,
            "quantum_repeat_calls": self.quantum_repeat_calls,
            "classes": self.classes,
            "merges": self.merges,
            "missing": self.missing,
        }


def _span_arg(name: str, args: tuple, kwargs: dict):
    """The argument a span is labelled with: n for spectra, the format for cmd_spectrum."""
    if name == "cli.cmd_spectrum":
        out = args[3] if len(args) > 3 else kwargs.get("out")
        return getattr(out, "format", "?")
    if name in ("spectrum.quantum_spectrum", "spectrum.brute_force_spectrum",
                "spectrum.classical_spectrum"):
        return args[0] if args else kwargs.get("n")
    return None


def run_cli(zc, argv: list[str], stdout_path: str) -> tuple[object, float]:
    """``zenochain.cli.main(argv)`` in-process with stdout sent to a file;
    returns the exit status (or the exception) and the time the call took."""
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = perf_counter()
        try:
            status = zc.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # reported to the parent as a failed operation
            status = repr(exc)
        return status, perf_counter() - start


def memory_pass(zc, n: int, spectrum_runs: list[list]) -> dict:
    """Peak ``tracemalloc`` memory of one cold ``quantum_spectrum(n)``, and of
    each ``cli.main`` spectrum invocation with that spectrum already built."""
    tracemalloc.start()
    report = zc.spectrum.quantum_spectrum(n)
    quantum_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    original = zc.spectrum.quantum_spectrum

    def prebuilt(*args, **kwargs):
        return report

    render_peak = 0
    statuses = []
    replace_everywhere(original, prebuilt)
    try:
        for argv, stdout_path in spectrum_runs:
            tracemalloc.start()
            statuses.append(run_cli(zc, argv, stdout_path)[0])
            render_peak = max(render_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    finally:
        replace_everywhere(prebuilt, original)
    return {"quantum_peak_mb": quantum_peak / MIB, "render_peak_mb": render_peak / MIB,
            "statuses": statuses}


def main(argv: list[str]) -> int:
    plan = json.loads(argv[1])
    import zenochain
    import zenochain.cli

    if "memory" in plan:
        memory = plan["memory"]
        print(json.dumps(memory_pass(zenochain, memory["n"], memory["cli"])))
        return 0

    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install()
    result: dict = {"timed_s": 0.0, "statuses": [], "calls": 0, "failed": 0, "problems": []}
    for op in plan["ops"]:
        if "cli" in op:
            status, elapsed = run_cli(zenochain, op["cli"], op["stdout"])
            result["statuses"].append(status)
            result["timed_s"] += elapsed
        else:
            spec = op["stream"]
            runner = streams.Runner(zenochain, judge.load_reference(spec["reference"]))
            runner.run(streams.build_stream(spec["workload"], spec["seed"], spec["size"]))
            done = runner.result()
            result["timed_s"] += sum(wall for wall, _ in done["items"])
            for key in ("calls", "failed", "problems"):
                result[key] += done[key]
    if tracer is not None:
        result["build_s"] = tracer.calibrate_walks(zenochain)
        result.update(tracer.summary())
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
