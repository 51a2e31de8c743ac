"""Record ``reference.json``, the digests the benchmark judges outputs against.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record_reference.py

It records, from the package under ``src/``: the sha256 of every
``zenochain spectrum --n N --format F`` output at the benchmark's sizes, the
names of the ``verify`` checks, the label/count/merge digest of
``quantum_spectrum(n)`` and ``brute_force_spectrum(n)`` for every n a
stream can ask for, and the ``information_series`` rows. Results must
never change under a refactor, so re-recording is only for a deliberate
change of output, and says so in the change that does it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import judge
import run
import streams


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    sys.path.insert(0, str(run.SRC))
    import zenochain

    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    spectrum = {}
    for n in sorted(set(run.SPECTRUM_N.values())):
        spectrum[str(n)] = {}
        for fmt in run.FORMATS:
            out = run.SCRATCH / f"reference-{n}.{fmt}"
            subprocess.run([sys.executable, "-m", "zenochain.cli", "spectrum", "--n", str(n),
                            "--format", fmt, "--out", str(out)], cwd=run.ROOT, env=env, check=True)
            spectrum[str(n)][fmt] = judge.file_sha256(out)
            out.unlink()

    verify = subprocess.run([sys.executable, "-m", "zenochain.cli", "verify"], cwd=run.ROOT,
                            env=env, check=True, capture_output=True, text=True).stdout
    names = judge.verify_check_names(verify)

    sizes = streams.SIZES.values()
    brute_max = max(max(*c["brute_fixed"], c["oracle_max"]) for c in sizes)
    quantum_max = max(max(c["series_max"], c["cached_max"], *c["rebuild_ns"], brute_max)
                      for c in sizes)
    series = [
        [pt.n, pt.classical_bits, pt.quantum_bits, pt.classical_bound_bits,
         pt.quantum_bound_bits, pt.quantum_classical_ratio]
        for pt in zenochain.information_series(1, max(c["series_max"] for c in sizes))
    ]
    reference = {
        "spectrum": spectrum,
        "verify_checks": names,
        "quantum": {str(n): judge.report_digest(zenochain.quantum_spectrum(n))
                    for n in range(1, quantum_max + 1)},
        "brute": {str(n): judge.report_digest(zenochain.brute_force_spectrum(n))
                  for n in range(1, brute_max + 1)},
        "series": series,
    }
    judge.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {judge.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
