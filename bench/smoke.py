"""Smoke test of the benchmark at reduced sizes.

    python3 bench/smoke.py

Runs every workload at the smoke sizes (a 3x3 lattice, K = 2 SBC
replicates, a few draws), untraced and traced, and asserts that the
last output line has exactly the contract's keys, that every metric
BENCHMARK.json names is emitted with its unit and a numeric value, and
that each workload's correctness checks ran.  It also asserts that the
benchmark refuses, without printing a result, to run in a directory
that holds only BENCHMARK.json and bench/.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# each must be part of the name of at least one check the run made
EXPECTED_CHECKS = {
    "toy_sbc": ["fit converged", "finite draws of lam", "diagnostics finite and non-negative",
                "sbc: no failed replicates", "sbc: KS p-value > 0.01"],
    "joint_fit": ["fit converged within 10 outer iterations", "finite draws of beta1_latent",
                  "95% interval for beta1 covers 0.5", "diagnostics finite and non-negative"],
    "bym_lattice": ["iterlace fit exits 0", "fit.json converged",
                    "fit.json byte-identical to the run's first pass",
                    "latent means match the recorded reference", "finite draws of b0 + s",
                    "diagnostics finite and non-negative"],
}
TRACE_CHECKS = [f"exact count {key} repeats" for key in (
    "sparse.chol.calls", "sparse.chol.nnz_L",
    "engine.log_posterior_theta.calls", "engine.generate.draws")]


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def check_run(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)

    record = json.loads((HERE / "out" / f"BENCH_{workload}-seed0-trace{trace}-smoke.json")
                        .read_text())
    ran = [c["name"] for c in record["checks"]]
    expected = EXPECTED_CHECKS[workload] + (TRACE_CHECKS if trace else [])
    missing = [e for e in expected if not any(e in name for name in ran)]
    assert not missing, f"{workload}: checks did not run: {missing}"
    assert record["environment"]["blas_threads"] == "1"
    failing = [c for c in record["checks"] if not c["ok"]]
    print(f"{workload} trace={trace}: {len(result['metrics'])} metrics, "
          f"{len(record['checks'])} checks, correct={result['correct']}, failing={failing}")


def check_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copy(HERE / "bym_reference.json", bare / "bench")
    proc = run("toy_sbc", 0, cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("refuses to run without the package sources: ok")


def main():
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_refuses_without_sources()
    print("smoke: ok")


if __name__ == "__main__":
    main()
