"""Record the bym_lattice latent means that later commits are checked against.

    python3 bench/record_bym_reference.py

Runs ``iterlace fit`` on the bym_lattice dataset, exactly as a
benchmark pass does, and writes the intercept-then-BYM posterior means,
rounded to 1e-7, to ``bench/bym_reference.json``.  Record only at a
commit whose fits are trusted: the file is what later commits are held
to, within ``BymLattice.mean_tolerance``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def main():
    workload = wl.BymLattice(0, wl.FULL, HERE / "out" / "work" / "bym_reference")
    rec = wl.Pass(None)
    workload.fit_command(rec)
    # the old reference is what is being replaced, so its check does not count
    failing = [c for c in rec.checks if not c["ok"] and "reference" not in c["name"]]
    if failing:
        raise SystemExit(f"not recording a failed fit: {failing}")
    doc = json.loads((workload.config.parent / "out" / "fit.json").read_text())
    means = doc["components"]["b0"]["mean"] + doc["components"]["s"]["mean"]
    wl.BYM_REFERENCE.write_text(
        '{"latent_mean": ' + json.dumps([round(v, 7) for v in means]) + "}\n")
    print(f"recorded {len(means)} latent means to {wl.BYM_REFERENCE}")


if __name__ == "__main__":
    main()
