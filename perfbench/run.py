"""leoqsim benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload hotspot --seed 42 --seconds 60 --trace 0

Run from the root of a source checkout. Each job is one closed simulation
(perfbench/job.py) in a fresh interpreter, started one at a time with
BLAS/OpenMP pinned to one thread, so its timings and peak RSS are its own.

--trace 0 repeats the job until --seconds is spent and reports the
end-to-end metrics as medians over the jobs. The host-time metrics (setup_s,
wall_s, packets_per_s) are scaled to a reference host speed by a fixed probe
workload timed during each job (perfbench/probe.py), because the wall time
of a shared host drifts by more than their bounds; the raw medians are
printed above the result line. --trace 1 runs the job once
untraced and once under the per-layer wrappers (perfbench/tracer.py), prints
the per-layer table and reports the per-layer metrics.

Every job must pass the conservation audit and produce the same export
digest as the other jobs of the run and as earlier runs of the same source
tree, scenario, horizon and seed (kept in .perfbench_out/digests.json). A job that
raises, fails the audit, disagrees on the digest or, when traced, does not
restore the wrapped functions counts as failed. The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from job import WORKLOADS
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
DIGESTS = WORK / "digests.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "packets_per_s": "1/s",
    "peak_rss_mb": "MB",
    "delivered_ratio_A": "ratio",
    "delivered_ratio_B": "ratio",
    "p90_delay_ms_A": "ms",
}

# Whole run, set-up included, stays well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def tree_hash(*dirs: Path) -> str:
    """sha256 of the files under dirs, so digests are kept per source tree."""
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(d.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(f"{p.relative_to(d.parent)}\0".encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def judge(jobs: list[dict], reference: str | None) -> tuple[list[dict], int, str | None]:
    """Split job results into passing jobs and a failure count.

    A job fails when it raised (it has an "error"), failed the conservation
    audit, left a wrapper installed, or exported a digest other than the
    reference: the digest recorded by an earlier run when there is one, else
    that of the first job that produced a digest.
    """
    if reference is None:
        reference = next((j["digest"] for j in jobs if "digest" in j), None)
    good = [j for j in jobs
            if "error" not in j and j["audit"] and j["restored"] and j["digest"] == reference]
    return good, len(jobs) - len(good), reference


def run_job(workload: str, seed: int, timeout_s: float, spans: Path | None = None) -> dict:
    """One job in a fresh interpreter; its JSON result, or {"error": ...}."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    out = Path(tempfile.mkdtemp(prefix="export-", dir=WORK))
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout_s:.0f} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def _save_digest(key: str, digest: str) -> None:
    record = _load_digests()
    record[key] = digest
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, DIGESTS)


def end_to_end(good: list[dict]) -> dict[str, float]:
    out = {
        "setup_s": statistics.median(s for j in good for s in j["setup_s"]),
        "wall_s": statistics.median(j["wall_s"] for j in good),
        "packets_per_s": statistics.median(j["generated"] / j["wall_s"] for j in good),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in good),
    }
    out.update(good[0]["modelled"])  # equal digests: equal across jobs
    return out


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    out = dict(traced["counters"])
    out["trace.overhead_s"] = traced["raw_wall_s"] - untraced["raw_wall_s"]
    return out


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="leoqsim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src" / "leoqsim"
    if not (src / "__init__.py").is_file():
        print(f"no leoqsim sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    key = (f"{tree_hash(src, HERE / 'scenarios')}/{args.workload}"
           f"/horizon={WORKLOADS[args.workload]!r}/seed={args.seed}")
    recorded = _load_digests().get(key)

    start = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - start)

    jobs: list[dict] = []
    if args.trace:
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        jobs.append(run_job(args.workload, args.seed, remaining()))
        jobs.append(run_job(args.workload, args.seed, remaining(), spans))
    else:
        durations: list[float] = []
        while True:
            t0 = time.perf_counter()
            jobs.append(run_job(args.workload, args.seed, remaining()))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > min(args.seconds, RUN_BUDGET_S):
                break

    good, failed, digest = judge(jobs, recorded)
    for j in jobs:
        if "error" in j:
            print(f"job failed: {j['error']}", file=sys.stderr)
    if not good:
        print("no job succeeded", file=sys.stderr)
        return 1
    if recorded is None and failed == 0:
        _save_digest(key, digest)
    print(f"digest {args.workload} seed={args.seed} horizon={WORKLOADS[args.workload]:g}s "
          f"sha256={digest}")

    if args.trace:
        if any("error" in j for j in jobs):
            return 1
        values = per_layer(*jobs)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        print(f"per-layer table: {args.workload} seed={args.seed}")
        for name in PER_LAYER:
            v = values[name]
            print(f"  {name:34s} {v:>16}" if isinstance(v, int) else f"  {name:34s} {v:>16.6f}",
                  units[name])
    else:
        values = end_to_end(good)
        units = END_TO_END
        print(f"jobs: {len(jobs)} attempted, {failed} failed")
        for name in ("setup_s", "raw_setup_s"):
            print(f"  {name} {_spread([s for j in good for s in j[name]])}")
        for name in ("wall_s", "raw_wall_s"):
            print(f"  {name} {_spread([j[name] for j in good])}")

    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
