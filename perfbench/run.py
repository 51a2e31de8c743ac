"""zenochain benchmark: three workloads, end-to-end metrics and a traced per-layer pass.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads. One child process runs at a time and each round is a closed loop:
the next call starts when the previous one has returned.

``spectrum-large``
    Three fresh ``zenochain spectrum --n 38`` processes per round, one per
    ``--format`` (table, csv, json; the seed orders them), writing under
    ``.bench_build/perfbench``. The work is the partition walk, the
    intensity/sort/merge of ``quantum_spectrum`` and the renderers; the
    spectrum cache is bypassed (n > 32, fresh process) and ``apparatus`` is
    idle. Each output's sha256 must equal the recorded one.
``verify-oracle``
    One fresh process per round running the oracle work of ``zenochain
    verify`` as short library calls (``streams.py``): every configuration of
    n <= 14 slots through the gap rule and the stepwise oracle, and
    ``brute_force_spectrum(1..14)``. ``apparatus`` does nearly all the work
    and partition walks stay small. The traced run also runs ``zenochain
    verify`` itself, in-process, and checks that every line is ``ok``.
``library-session``
    One fresh process per round running ``streams.py``'s seeded stream of
    library calls: the same ``spectrum`` layer as ``spectrum-large`` used as
    many small and mid-size builds with repeats, so the in-process caches hit
    here and nowhere else; ``cli`` is idle.

``--trace 0`` runs rounds until the next one would end after ``--seconds``.
``wall_s`` and ``cpu_s`` add up, over the ops of a round (a CLI process, or a
stream item), each op's best time over the rounds. The best time rather than
the median, and short ops rather than one long one, because on a shared
2-vCPU Xeon VM the same work ran up to 1.6x slower for 5-60 s at a time, and
the medians of 10 s ``zenochain verify`` runs spread 31% (interquartile range
over median) between seeds.
``peak_rss_mb`` is the median over rounds of the largest ``ru_maxrss`` of the
round's children (per-child ``wait4`` usage). ``setup_s`` is the median of
fresh ``import zenochain.cli`` processes, two before each round and after
the last. For the streams, times count the library calls only: the
interpreter start is what ``setup_s`` measures, and judging a result is the
benchmark's own work.

``--trace 1`` runs each child of one round twice in-process, untraced and
traced (``tracer.py``), then a ``tracemalloc`` pass, and reports the
per-layer metrics plus ``trace.overhead_frac``. It does a fixed amount of
work and ignores ``--seconds``.

Both modes check every output and print a table, an environment stamp and,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``. The full
result, with per-round samples (and spans when traced), goes to
``.bench_build/perfbench/results/``. ``--size tiny`` and ``--reference`` are
for ``selfcheck.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import judge
import streams

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("spectrum-large", "verify-oracle", "library-session")
FORMATS = ("table", "csv", "json")
SPECTRUM_N = {"full": 38, "tiny": 12}
#: Fresh-import samples taken before each round and after the last, so that
#: setup_s is spread over the run like the rounds are.
SETUP_PER_ROUND = 2
#: A run kills its child and starts no more rounds past this many seconds.
RUN_LIMIT_S = 165.0

PER_LAYER = (
    ("partitions.walk_s", "s"),
    ("partitions.walked", "count"),
    ("partitions.count_s", "s"),
    ("partitions.count_calls", "count"),
    ("partitions.state_count_s", "s"),
    ("partitions.state_count_calls", "count"),
    ("apparatus.config_s", "s"),
    ("apparatus.config_calls", "count"),
    ("apparatus.gaps_s", "s"),
    ("apparatus.gaps_calls", "count"),
    ("apparatus.intensity_s", "s"),
    ("apparatus.intensity_calls", "count"),
    ("apparatus.simulate_s", "s"),
    ("apparatus.simulate_calls", "count"),
    ("spectrum.quantum_s", "s"),
    ("spectrum.quantum_calls", "count"),
    ("spectrum.build_s", "s"),
    ("spectrum.quantum_first_s", "s"),
    ("spectrum.quantum_repeat_s", "s"),
    ("spectrum.repeat_share", "ratio"),
    ("spectrum.classes", "count"),
    ("spectrum.merges", "count"),
    ("spectrum.classes_per_partition", "ratio"),
    ("spectrum.brute_s", "s"),
    ("spectrum.brute_calls", "count"),
    ("spectrum.brute_self_s", "s"),
    ("spectrum.classical_s", "s"),
    ("spectrum.series_s", "s"),
    ("cli.main_s", "s"),
    ("cli.render_table_s", "s"),
    ("cli.render_csv_s", "s"),
    ("cli.render_json_s", "s"),
    ("cli.deliver_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.verify_checks", "count"),
    ("cli.verify_failed", "count"),
    ("spectrum.quantum_peak_mb", "MiB"),
    ("cli.render_peak_mb", "MiB"),
    ("trace.overhead_frac", "ratio"),
)


class RunLimit(Exception):
    """The run reached RUN_LIMIT_S while a child was still running."""


def _on_alarm(signum, frame):
    raise RunLimit


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    stdout: Path
    stderr: str

    def last_json(self) -> dict | None:
        lines = self.stdout.read_text(encoding="utf-8", errors="replace").splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None


class Bench:
    """One invocation: spawns children one at a time and checks their outputs."""

    def __init__(self, args) -> None:
        self.args = args
        self.started = perf_counter()
        self.reference = judge.load_reference(args.reference)
        self.partitions = judge.PartitionTable()
        self.python = sys.executable
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    # -- children ---------------------------------------------------------

    def spawn(self, argv: list[str], stdout_name: str) -> Child:
        """Run one child to completion; its own rusage comes from ``wait4``."""
        stdout = SCRATCH / stdout_name
        stderr = SCRATCH / "stderr.txt"
        left = RUN_LIMIT_S - (perf_counter() - self.started)
        if left <= 0:
            raise RunLimit
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except RunLimit:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, stdout, stderr.read_text(errors="replace")[-2000:])

    def record(self, problems: list[str], attempted: int = 1, failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])

    # -- workload definitions ---------------------------------------------

    def round_ops(self, rng: random.Random, traced: bool = False) -> list[dict]:
        """The operations of one round; ``key`` names an op across rounds."""
        workload = self.args.workload
        if workload == "spectrum-large":
            n = SPECTRUM_N[self.args.size]
            return [
                {"cli": ["spectrum", "--n", str(n), "--format", fmt,
                         "--out", str(SCRATCH / f"spectrum-{n}.{fmt}")],
                 "stdout": f"spectrum-{fmt}.stdout", "spectrum": (n, fmt), "key": fmt}
                for fmt in rng.sample(FORMATS, len(FORMATS))
            ]
        ops = [{"stream": {"workload": workload, "seed": self.args.seed, "size": self.args.size,
                           "reference": str(self.args.reference)},
                "stdout": "stream.stdout"}]
        if workload == "verify-oracle" and traced:
            ops.append({"cli": ["verify"], "stdout": "verify.stdout", "key": "verify"})
        return ops

    def n_values(self) -> dict:
        if self.args.workload == "spectrum-large":
            return {"spectrum": [SPECTRUM_N[self.args.size]]}
        return streams.stream_n_values(
            streams.build_stream(self.args.workload, self.args.seed, self.args.size))

    def check_cli(self, op: dict, status, stdout: Path, stderr: str = "") -> list[str]:
        """Exit status 0 and correct output; removes the output file."""
        out = _out_path(op)
        try:
            if status != 0:
                return [f"zenochain {' '.join(op['cli'])} exited with {status} {stderr}"]
            if "spectrum" in op:
                n, fmt = op["spectrum"]
                problems = []
                expected = self.reference["spectrum"][str(n)][fmt]
                if judge.file_sha256(out) != expected:
                    problems.append(f"spectrum --n {n} --format {fmt}: output sha256 differs")
                if fmt == "csv":
                    problems += judge.check_spectrum_csv(out, n, self.partitions)
                return problems
            text = stdout.read_text(encoding="utf-8", errors="replace")
            return judge.check_verify_output(text, self.reference["verify_checks"])
        finally:
            if out is not None and out.exists():
                out.unlink()

    # -- end-to-end mode --------------------------------------------------

    def setup_times(self, count: int) -> list[float]:
        times = []
        for _ in range(count):
            child = self.spawn([self.python, "-c", "import zenochain.cli"], "setup.stdout")
            if child.status != 0:
                raise SystemExit(f"error: cannot import zenochain.cli from {SRC}:\n{child.stderr}")
            times.append(child.wall_s)
        return times

    def run_round(self, rng: random.Random) -> tuple[dict, float]:
        """``(wall_s, cpu_s)`` per op key, and the largest RSS of the round's children."""
        items: dict = {}
        rss = 0.0
        for op in self.round_ops(rng):
            if "cli" in op:
                child = self.spawn([self.python, "-m", "zenochain.cli", *op["cli"]], op["stdout"])
                self.record(self.check_cli(op, child.status, child.stdout, child.stderr))
                items[op["key"]] = (child.wall_s, child.cpu_s)
            else:
                spec = op["stream"]
                child = self.spawn([self.python, str(BENCH_DIR / "streams.py"),
                                    "--workload", spec["workload"], "--seed", str(spec["seed"]),
                                    "--size", spec["size"], "--reference", spec["reference"]],
                                   op["stdout"])
                data = child.last_json()
                if child.status != 0 or data is None:
                    self.record([f"stream exited with {child.status}: {child.stderr}"])
                    continue
                self.record(data["problems"], data["calls"], data["failed"])
                items.update((i, tuple(times)) for i, times in enumerate(data["items"]))
            rss = max(rss, child.rss_mb)
        return items, rss

    def end_to_end(self) -> tuple[dict, dict]:
        rng = random.Random(self.args.seed)
        setup: list[float] = []
        times: dict = {}  # op key -> [(wall_s, cpu_s) of each round]
        round_wall: list[float] = []
        round_rss: list[float] = []
        durations: list[float] = []
        start = perf_counter()
        try:
            while True:
                began = perf_counter()
                setup += self.setup_times(SETUP_PER_ROUND)
                items, rss = self.run_round(rng)
                for key, sample in items.items():
                    times.setdefault(key, []).append(sample)
                round_wall.append(sum(wall for wall, _ in items.values()))
                round_rss.append(rss)
                durations.append(perf_counter() - began)
                finish = perf_counter() + statistics.median(durations)
                if finish - start > self.args.seconds or finish - self.started > RUN_LIMIT_S:
                    break
            setup += self.setup_times(SETUP_PER_ROUND)
        except RunLimit:
            self.record(["run limit reached while a child was running"])
        if not times:
            raise SystemExit("error: no round finished within the run limit")
        rounds = len(round_rss)
        metrics = {
            "wall_s": {"value": sum(min(w for w, _ in s) for s in times.values()),
                       "unit": "s", "samples": rounds},
            "cpu_s": {"value": sum(min(c for _, c in s) for s in times.values()),
                      "unit": "s", "samples": rounds},
            "peak_rss_mb": {"value": statistics.median(round_rss), "unit": "MiB",
                            "samples": rounds},
            "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(setup)},
        }
        detail = {"round_wall_s": round_wall, "round_peak_rss_mb": round_rss,
                  "setup_samples": setup, "ops": len(times)}
        return metrics, detail

    # -- traced mode ------------------------------------------------------

    def trace_child(self, plan: dict, name: str) -> dict:
        child = self.spawn([self.python, str(BENCH_DIR / "tracer.py"), json.dumps(plan)], name)
        data = child.last_json()
        if child.status != 0 or data is None:
            raise SystemExit(f"error: traced child failed with {child.status}:\n{child.stderr}")
        return data

    def traced(self) -> tuple[dict, dict]:
        rng = random.Random(self.args.seed)
        untraced_s = traced_s = 0.0
        summaries = []
        output_bytes = verify_checks = verify_failed = 0
        spectrum_ops = []
        for op in self.round_ops(rng, traced=True):
            child_op = {"cli": op["cli"], "stdout": str(SCRATCH / op["stdout"])} if "cli" in op \
                else {"stream": op["stream"]}
            for trace in (False, True):
                data = self.trace_child({"trace": trace, "ops": [child_op]}, "trace-child.json")
                if "cli" in op:
                    stdout = Path(child_op["stdout"])
                    text = stdout.read_text(encoding="utf-8", errors="replace")
                    if trace:
                        out = _out_path(op)
                        output_bytes += out.stat().st_size if out and out.exists() else 0
                        output_bytes += len(text.encode())
                        verify_checks += sum(line.endswith((": ok", ": FAIL"))
                                             for line in text.splitlines())
                        verify_failed += sum(line.endswith(": FAIL") for line in text.splitlines())
                    self.record(self.check_cli(op, data["statuses"][0], stdout))
                else:
                    self.record(data["problems"], data["calls"], data["failed"])
                if trace:
                    traced_s += data["timed_s"]
                    summaries.append(data)
                else:
                    untraced_s += data["timed_s"]
            if "spectrum" in op:
                spectrum_ops.append(op)
        built = sorted({n for s in summaries for n in s["quantum_first_n"]})
        memory_n = SPECTRUM_N[self.args.size] if spectrum_ops else (built[-1] if built else 1)
        memory = self.trace_child({"memory": {
            "n": memory_n,
            "cli": [[op["cli"], str(SCRATCH / op["stdout"])] for op in spectrum_ops],
        }}, "memory-child.json")
        for op, status in zip(spectrum_ops, memory["statuses"]):
            self.record(self.check_cli(op, status, SCRATCH / op["stdout"]))
        metrics = layer_metrics(summaries, memory, untraced_s, traced_s)
        metrics["cli.output_bytes"] = output_bytes
        metrics["cli.verify_checks"] = verify_checks
        metrics["cli.verify_failed"] = verify_failed
        units = dict(PER_LAYER)
        result = {name: {"value": metrics[name], "unit": units[name]} for name, _ in PER_LAYER}
        detail = {"traced_quantum_n": built, "memory_n": memory_n,
                  "unwrapped": sorted({m for s in summaries for m in s["missing"]}),
                  "spans": [s["spans"] for s in summaries]}
        return result, detail


def _out_path(op: dict) -> Path | None:
    argv = op["cli"]
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def layer_metrics(summaries: list[dict], memory: dict, untraced_s: float,
                  traced_s: float) -> dict:
    """Per-layer metrics from the traced children's summed statistics."""
    stats: dict[str, list] = {}
    for summary in summaries:
        for name, (calls, total, self_s) in summary["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def summed(key):
        return sum(s[key] for s in summaries)

    quantum_calls = calls("spectrum.quantum_spectrum")
    classes, merges = summed("classes"), summed("merges")
    m = {
        "partitions.walk_s": total("partitions.enumerate_partitions"),
        "partitions.walked": summed("walked"),
        "partitions.count_s": total("partitions.count_partitions"),
        "partitions.count_calls": calls("partitions.count_partitions"),
        "partitions.state_count_s": total("partitions.state_count"),
        "partitions.state_count_calls": calls("partitions.state_count"),
        "apparatus.config_s": total("apparatus.from_index") + total("apparatus.from_bits"),
        "apparatus.config_calls": calls("apparatus.from_index") + calls("apparatus.from_bits"),
        "apparatus.gaps_s": total("apparatus.gaps"),
        "apparatus.gaps_calls": calls("apparatus.gaps"),
        "apparatus.intensity_s": total("apparatus.quantum_intensity"),
        "apparatus.intensity_calls": calls("apparatus.quantum_intensity"),
        "apparatus.simulate_s": total("apparatus.simulate_intensity"),
        "apparatus.simulate_calls": calls("apparatus.simulate_intensity"),
        "spectrum.quantum_s": total("spectrum.quantum_spectrum"),
        "spectrum.quantum_calls": quantum_calls,
        "spectrum.build_s": summed("build_s"),
        "spectrum.quantum_first_s": summed("quantum_first_s"),
        "spectrum.quantum_repeat_s": summed("quantum_repeat_s"),
        "spectrum.repeat_share": summed("quantum_repeat_calls") / quantum_calls
        if quantum_calls else 0.0,
        "spectrum.classes": classes,
        "spectrum.merges": merges,
        "spectrum.classes_per_partition": classes / (classes + merges) if classes else 0.0,
        "spectrum.brute_s": total("spectrum.brute_force_spectrum"),
        "spectrum.brute_calls": calls("spectrum.brute_force_spectrum"),
        "spectrum.brute_self_s": own("spectrum.brute_force_spectrum"),
        "spectrum.classical_s": total("spectrum.classical_spectrum"),
        "spectrum.series_s": total("spectrum.information_series"),
        "cli.main_s": total("cli.main"),
        "cli.deliver_s": own("cli.main"),
        "spectrum.quantum_peak_mb": memory["quantum_peak_mb"],
        "cli.render_peak_mb": memory["render_peak_mb"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    for fmt in FORMATS:
        m[f"cli.render_{fmt}_s"] = own(f"cli.cmd_spectrum.{fmt}")
    return m


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "zenochain").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(bench: Bench) -> dict:
    args = bench.args
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "n_values": bench.n_values(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="zenochain benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SPECTRUM_N), default="full")
    parser.add_argument("--reference", type=Path, default=judge.REFERENCE_PATH)
    args = parser.parse_args(argv)

    if not (SRC / "zenochain" / "__init__.py").is_file():
        print(f"error: no zenochain package under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    bench = Bench(args)
    env = environment(bench)
    try:
        metrics, detail = bench.traced() if args.trace else bench.end_to_end()
    except RunLimit:
        print(f"error: the run did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1

    fail_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{'metric':34} {'value':>16} {'unit':6} samples")
    for name, entry in metrics.items():
        print(f"{name:34} {entry['value']:16.6g} {entry['unit']:6} {entry.get('samples', 1)}")
    print(f"{'fail_rate':34} {fail_rate:16.6g} {'ratio':6} {bench.attempted} ops")
    for problem in bench.problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "fail_rate": fail_rate,
              "attempted": bench.attempted, "failed": bench.failed,
              "problems": bench.problems, "detail": detail}
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
