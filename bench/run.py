"""iterlace benchmark: one workload per process, end-to-end or traced by layer.

    python3 bench/run.py --workload toy_sbc --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.
A run generates the workload's inputs from ``--seed``, then runs whole
passes of the workload's workflow, at least ``MIN_PASSES``, for about
``--seconds``, timing the model set-up before each operation and
checking every output.  With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` a warm-up pass is
followed by traced and untraced passes in turn, at least two of each;
it reports the per-layer metrics and the tracing overhead, and fails if
the exact counts differ between traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record -- environment, per-pass samples, checks, and with tracing the
spans -- goes to ``bench/out/``.  ``--workload all`` runs every
workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread, set before numpy loads, so timings do not depend on
# how many cores the machine lends the process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("toy_sbc", "joint_fit", "bym_lattice")
#: fewest passes in a run, so that every check comparing passes runs
MIN_PASSES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, for the benchmark's smoke test")
    return p.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without running git."""
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


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
    }


def run_pass(workload, rec):
    models = workload.setup()
    t0 = time.perf_counter()
    try:
        workload.run_pass(models, rec)
    except Exception:  # a pass that raises is a failed operation, reported
        rec.check("pass completed", False, traceback.format_exc(limit=5))
    rec.wall_s = time.perf_counter() - t0
    return rec


def more_passes(n_done, t_start, seconds):
    """Whether to start another pass: until ``MIN_PASSES`` are done, then
    while the next, as long as the mean so far, would end less than half
    of it past ``seconds`` -- so a run lasts ``seconds`` on average."""
    if n_done < MIN_PASSES:
        return True
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * elapsed / n_done < seconds


def median(values):
    """The median; for whole-number counts, the lower middle count."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_one(args):
    if not (ROOT / "src" / "iterlace" / "__init__.py").is_file():
        sys.exit(f"error: no iterlace sources under {ROOT / 'src'}; "
                 "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads as wl

    size = wl.SMOKE if args.smoke else wl.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = OUT / "work" / tag
    workload = wl.WORKLOADS[args.workload](args.seed, size, workdir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    passes, traced, warm_up = [], [], []
    per_layer, tracer = [], None
    t_start = time.perf_counter()
    if not args.trace:
        while more_passes(len(passes), t_start, args.seconds):
            passes.append(run_pass(workload, wl.Pass(workload.setup)))
    else:
        # the warm-up pass fills caches and finishes lazy set-up; then traced
        # and untraced passes alternate, so drift in the machine's speed
        # reaches both sides of the overhead alike
        warm_up.append(run_pass(workload, wl.Pass(None)))
        tracer = tracing.Tracer()
        t_pairs = time.perf_counter()
        while more_passes(len(traced), t_pairs, args.seconds - (t_pairs - t_start)):
            tracer.install()
            try:
                tracer.reset_counts()
                begin = tracer.mark()
                traced.append(run_pass(workload, wl.Pass(None)))
                per_layer.append(tracer.pass_metrics(begin, tracer.mark()))
            finally:
                tracer.uninstall()
            passes.append(run_pass(workload, wl.Pass(None)))

    setup_times = [t for p in passes for t in p.setup_s]
    every = passes + traced + warm_up
    checks = [c for p in every for c in p.checks]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)

    if not args.trace:
        values = wl.metrics(passes)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    else:
        for key in tracing.EXACT_COUNTS:
            seen = [layer[key] for layer in per_layer]
            same = all(v == seen[0] for v in seen)
            checks.append({"name": f"exact count {key} repeats", "ok": same, "detail": seen})
            attempted += 1
            failed += not same
        values = {k: median([layer[k] for layer in per_layer]) for k in per_layer[0]}
        untraced = wl.metrics(passes)["workflow_s"]
        traced_s = wl.metrics(traced)["workflow_s"]
        values["trace.untraced_workflow_s"] = untraced
        values["trace.traced_workflow_s"] = traced_s
        values["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
        wanted = spec["per_layer"]

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "environment": environment(),
        "result": result,
        "checks": checks,
        "setup_s": setup_times,
        "passes": [wl.metrics([p]) for p in passes],
        "traced_passes": [dict(wl.metrics([p]), per_layer=layer)
                          for p, layer in zip(traced, per_layer)],
    }
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"SPANS_{tag}.json").write_text(json.dumps(tracer.dump(t_start)) + "\n")
    print(json.dumps(result))


def run_all(args):
    """Each workload in a fresh process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:12s} {metric:40s} {entry['value']!s:>24} {entry['unit']}")
        print(f"{name:12s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
    print(json.dumps(combined))


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
