"""Seeded streams of zenochain library calls, timed item by item and judged.

Two workloads run as such a stream, one fresh process per round:

``library-session``
    The way the test suite and a notebook use the package. It opens with
    ``information_series(1, S)``, the core of ``compare``, then mixes, in
    seeded order, ``quantum_spectrum`` on both sides of the package's n = 32
    cache cut, ``brute_force_spectrum`` + ``quantum_spectrum`` +
    ``reports_match``, ``classical_spectrum``, ``count_partitions`` and
    ``enumerate_partitions`` + ``state_count``. The costly calls (the builds
    above the cache cut, the first brute-force sweep at each large n and the
    largest classical spectrum) are the same for every seed; the seed draws the order and the cheap calls, so
    a session's cost barely depends on the seed.
``verify-oracle``
    The oracle work of ``zenochain verify`` in short calls: every
    configuration of n slots through ``ApparatusConfig.from_index``,
    ``quantum_intensity`` and the stepwise ``simulate_intensity``, in chunks,
    and ``brute_force_spectrum(n)`` against ``quantum_spectrum(n)``. The seed
    only orders the items.

Each stream item is timed on its own (wall and CPU time of its library calls
only, not of the judging that follows), so the parent can take each item's
best time over rounds. Every call is looked up on the ``zenochain`` package at
call time, so a tracer that replaces those attributes sees it. A call that
raises or whose result ``judge`` rejects is a failed operation.

Run as a child process with ``PYTHONPATH=src``::

    python3 perfbench/streams.py --workload W --seed S [--size full|tiny]

It prints one JSON line: calls, failures, and per-item wall and CPU times.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from time import perf_counter, process_time

import judge

ALPHA = 0.5
WORKLOADS = ("library-session", "verify-oracle")

SIZES = {
    "full": {
        "series_max": 34,
        "rebuild_ns": (33, 34, 35, 36, 37, 38),
        "cached_calls": 100,
        "cached_max": 32,
        "brute_fixed": (10, 11, 12, 13),
        "brute_random": 15,
        "classical_fixed": (10_000,),
        "classical": 30,
        "classical_max": 1000,
        "count": 30,
        "count_max": 2000,
        "walks": 15,
        "walk_max": 20,
        "oracle_max": 14,
        "oracle_chunk": 2048,
    },
    "tiny": {
        "series_max": 12,
        "rebuild_ns": (),
        "cached_calls": 12,
        "cached_max": 12,
        "brute_fixed": (8, 9, 10),
        "brute_random": 3,
        "classical_fixed": (1000,),
        "classical": 4,
        "classical_max": 100,
        "count": 4,
        "count_max": 200,
        "walks": 3,
        "walk_max": 10,
        "oracle_max": 8,
        "oracle_chunk": 64,
    },
}


def build_stream(workload: str, seed: int, size: str) -> list[tuple]:
    """The stream's items; the same arguments give the same list."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    if workload == "verify-oracle":
        items = [
            ("sweep", n, lo, min(lo + cfg["oracle_chunk"], 1 << n))
            for n in range(1, cfg["oracle_max"] + 1)
            for lo in range(0, 1 << n, cfg["oracle_chunk"])
        ]
        items += [("brute", n) for n in range(1, cfg["oracle_max"] + 1)]
        rng.shuffle(items)
        return items
    items = [("quantum", n) for n in cfg["rebuild_ns"]]
    items += [("quantum", rng.randint(1, cfg["cached_max"])) for _ in range(cfg["cached_calls"])]
    items += [("brute", n) for n in cfg["brute_fixed"]]
    brute_max = max(cfg["brute_fixed"])
    items += [("brute", rng.randint(1, brute_max)) for _ in range(cfg["brute_random"])]
    # The large classical spectra set much of a session's time and its peak
    # memory, so they are fixed rather than drawn.
    items += [("classical", n) for n in cfg["classical_fixed"]]
    log_max = math.log10(cfg["classical_max"])
    items += [("classical", round(10 ** rng.uniform(0.0, log_max))) for _ in range(cfg["classical"])]
    items += [("count", rng.randint(1, cfg["count_max"])) for _ in range(cfg["count"])]
    items += [("walk", rng.randint(1, cfg["walk_max"])) for _ in range(cfg["walks"])]
    rng.shuffle(items)
    return [("series", cfg["series_max"])] + items


def stream_n_values(stream: list[tuple]) -> dict[str, list[int]]:
    values: dict[str, set[int]] = {}
    for kind, n, *_ in stream:
        values.setdefault(kind, set()).add(n)
    return {kind: sorted(ns) for kind, ns in sorted(values.items())}


class Runner:
    """Runs a stream against the package, timing each item and judging each result."""

    def __init__(self, zc, reference: dict) -> None:
        self.zc = zc
        self.reference = reference
        self.p = judge.PartitionTable()
        self.calls = 0
        self.failed = 0
        self.problems: list[str] = []
        self.items: list[tuple[float, float]] = []  # (wall_s, cpu_s) per item
        self._wall = 0.0
        self._cpu = 0.0
        # Reports are immutable, so one judged already stays correct; holding
        # the object keeps its id from being reused.
        self._judged: dict[int, object] = {}

    def _call(self, fn, *args, calls: int = 1):
        """Time ``fn(*args)``, which makes ``calls`` library calls."""
        self.calls += calls
        wall, cpu = perf_counter(), process_time()
        try:
            return fn(*args)
        except Exception as exc:  # a call that raises is a failed operation
            self._fail([f"{getattr(fn, '__name__', fn)}{args} raised {exc!r}"])
            return None
        finally:
            self._cpu += process_time() - cpu
            self._wall += perf_counter() - wall

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    def _judge_report(self, report, n: int, digests: dict) -> None:
        if report is None or self._judged.get(id(report)) is report:
            return
        self._fail(judge.check_partition_report(report, n, digests, self.p))
        self._judged[id(report)] = report

    def _walk(self, n: int) -> list:
        return list(self.zc.enumerate_partitions(n))

    def _sweep(self, n: int, lo: int, hi: int) -> list[tuple[float, float]]:
        zc = self.zc
        pairs = []
        for index in range(lo, hi):
            config = zc.ApparatusConfig.from_index(n, index)
            pairs.append((zc.quantum_intensity(config), zc.simulate_intensity(config)))
        return pairs

    def run(self, stream: list[tuple]) -> None:
        for item in stream:
            self._wall = self._cpu = 0.0
            self._run_item(item)
            self.items.append((self._wall, self._cpu))

    def _run_item(self, item: tuple) -> None:
        zc = self.zc
        ref = self.reference
        kind, n = item[0], item[1]
        if kind == "series":
            points = self._call(zc.information_series, 1, n)
            if points is not None:
                self._fail(judge.check_series(points, ref["series"][:n]))
        elif kind == "quantum":
            self._judge_report(self._call(zc.quantum_spectrum, n), n, ref["quantum"])
        elif kind == "brute":
            brute = self._call(zc.brute_force_spectrum, n)
            self._judge_report(brute, n, ref["brute"])
            quantum = self._call(zc.quantum_spectrum, n)
            self._judge_report(quantum, n, ref["quantum"])
            if brute is not None and quantum is not None:
                match = self._call(zc.reports_match, quantum, brute)
                self._fail([] if match is True else [f"reports_match(n={n}) gave {match!r}"])
        elif kind == "classical":
            report = self._call(zc.classical_spectrum, n, ALPHA)
            if report is not None:
                self._fail(judge.check_classical_report(report, n, ALPHA))
        elif kind == "count":
            value = self._call(zc.count_partitions, n)
            if value is not None:
                self._fail([] if value == self.p[n] else [f"count_partitions({n}) = {value}"])
        elif kind == "walk":
            walked = self._call(self._walk, n)
            if walked is not None:
                self._fail(judge.check_walk(n, walked, self.p))
                counts = [self._call(zc.state_count, part) for part in walked]
                if None not in counts:
                    self._fail(judge.check_state_counts(n, walked, counts))
        elif kind == "sweep":
            lo, hi = item[2], item[3]
            pairs = self._call(self._sweep, n, lo, hi, calls=3 * (hi - lo))
            if pairs is not None:
                self._fail(judge.check_sweep(n, lo, pairs))
        else:
            raise ValueError(f"unknown stream item {kind!r}")

    def result(self) -> dict:
        return {
            "calls": self.calls,
            "failed": self.failed,
            "problems": self.problems,
            "items": self.items,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--reference", default=str(judge.REFERENCE_PATH))
    args = parser.parse_args(argv)

    import zenochain

    runner = Runner(zenochain, judge.load_reference(args.reference))
    runner.run(build_stream(args.workload, args.seed, args.size))
    print(json.dumps(runner.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
