"""Self-check of the benchmark harness; not part of the pytest suite.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py                # tiny sizes, under a minute
    python3 perfbench/selfcheck.py --second-seed  # adds full library-session runs

The tiny check runs every workload in both modes at ``--size tiny``
(``spectrum --n 12``, a few dozen session calls; ``verify`` has no smaller
form and runs in full). It confirms that each run is correct, that the last
line carries exactly the metrics ``BENCHMARK.json`` names with their units, and
that the table names ``fail_rate``. It then corrupts one recorded spectrum
digest and one session digest and confirms each is counted as a failure.

``--second-seed`` runs the traced ``library-session`` on ``DEFAULT_SEED`` and
on ``OTHER_SEED``: both must have no failures and a ``spectrum.repeat_share``
within ``REPEAT_SHARE_TOL`` of each other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import judge
import run

DEFAULT_SEED = 1
OTHER_SEED = 20261017
REPEAT_SHARE_TOL = 0.05


def bench(workload: str, trace: int, *extra: str, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), proc.stdout


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_checks(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, stdout = bench(workload, trace, "--size", "tiny")
            label = f"{workload} trace {trace}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: correct, {result['attempted']} ops, no failures", failures)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == wanted[trace], f"{label}: every metric emitted with its unit",
                   failures)
            expect(any(line.startswith("fail_rate ") for line in stdout.splitlines()),
                   f"{label}: fail_rate printed", failures)

    reference = judge.load_reference()
    n = str(run.SPECTRUM_N["tiny"])
    reference["spectrum"][n]["csv"] = "0" * 64
    reference["quantum"]["5"] = "0" * 64
    corrupt = run.SCRATCH / "corrupt-reference.json"
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    corrupt.write_text(json.dumps(reference), encoding="utf-8")
    for workload in ("spectrum-large", "library-session"):
        result, _ = bench(workload, 0, "--size", "tiny", "--reference", str(corrupt))
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: corrupted digest counted as a failure "
               f"({result['failed']} of {result['attempted']})", failures)


def second_seed(failures: list[str]) -> None:
    shares = {}
    for seed in (DEFAULT_SEED, OTHER_SEED):
        result, _ = bench("library-session", 1, seed=seed)
        shares[seed] = result["metrics"]["spectrum.repeat_share"]["value"]
        expect(result["correct"] and result["failed"] == 0,
               f"library-session seed {seed}: fail_rate 0 over {result['attempted']} ops",
               failures)
    expect(abs(shares[DEFAULT_SEED] - shares[OTHER_SEED]) <= REPEAT_SHARE_TOL,
           f"repeat_share {shares[DEFAULT_SEED]:.4f} (seed {DEFAULT_SEED}) vs "
           f"{shares[OTHER_SEED]:.4f} (seed {OTHER_SEED})", failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--second-seed", action="store_true")
    args = parser.parse_args()
    failures: list[str] = []
    tiny_checks(failures)
    if args.second_seed:
        second_seed(failures)
    print("self-check passed" if not failures else f"self-check FAILED: {len(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
