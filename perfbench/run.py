"""The repository benchmark: experiment documents through ``noisy-mbqc run``.

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The documents of the workload are made
from ``--seed`` (perfbench/workloads.py) and written under
``.perfbench_work/``.  Each pass runs all of them in a fresh interpreter
(perfbench/worker.py), in-process through ``noisy_mbqc.cli.main``, one at a
time: a closed loop with one client and one Python thread, BLAS pinned to
the workload's ``blas_threads`` (perfbench/table.json).  Passes repeat
until ``--seconds`` is used up and the tail percentile has ten documents
above it.  Every report is checked: exit code, ``summary.pass``,
``summary.n_cases``, and the same bytes (apart from ``meta.timestamp``) on
every pass.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed
(perfbench/spans.py), with ``doc_s_tail`` taken from the untraced passes.  The last line of standard output is the JSON result;
the lines before it are a readable summary and the recorded environment.
perfbench/table.json holds each workload's settings and the layer table:
which end-to-end metric each layer metric should move, on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_documents  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 165.0
WORK_DIR = ".perfbench_work"
TIMESTAMP = re.compile(rb'\n    "timestamp": "[^"\n]*"')

with open(os.path.join(HERE, "table.json"), encoding="utf-8") as _fh:
    TABLE = json.load(_fh)
LAYER_METRICS = [m for layer in TABLE["layers"] for m in layer["metrics"]]
UNITS = {m["name"]: m["unit"] for m in TABLE["end_to_end"] + LAYER_METRICS}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def blas_threads(workload: str) -> int:
    """BLAS threads of the workload's worker, at most the CPUs we may use.

    Two threads pay only on oracle_wide's large matrices; on the small ones
    of the other workloads the idle thread spins and adds noise.
    """
    return min(TABLE["workloads"][workload]["blas_threads"], len(os.sched_getaffinity(0)))


def start_worker(root: str, threads: int, extra: list[str], deadline: float):
    """Start a worker; return it and its set-up time (start to ``ready``)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root] + extra
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def report_digest(path: str) -> tuple[str, dict, int]:
    """Hash of the report without its timestamp, its summary, its size.

    The summary is the report's last key; only that tail is parsed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    stripped, n = TIMESTAMP.subn(b"", data)
    if n != 1:
        raise BenchError(f"{path}: expected one meta.timestamp line, found {n}")
    at = data.rfind(b'\n  "summary": ')
    summary = json.loads(b"{" + data[at:]) if at >= 0 else {}
    return hashlib.sha256(stripped).hexdigest(), summary.get("summary", {}), len(data)


def check_pass(docs, manifest, result, digests: dict, problems: list) -> tuple[int, int]:
    """Check every report of one pass; return (failed, report bytes)."""
    failed = 0
    total_bytes = 0
    for doc, entry, run in zip(docs, manifest, result["docs"]):
        rc = run["rc"]
        try:
            digest, summary, size = report_digest(entry["report"])
        except (OSError, ValueError, KeyError, BenchError) as exc:
            digest, summary, size = None, {}, 0
            problems.append(f"{doc.name}: unreadable report ({exc}); rc={rc} {run['error']}")
        if os.path.exists(entry["report"]):
            os.remove(entry["report"])
        total_bytes += size
        if digest is not None and digests.setdefault(doc.name, digest) != digest:
            problems.append(f"{doc.name}: report differs from an earlier pass")
        cases_ok = summary.get("n_cases") == doc.expected_cases
        if rc == 0 and summary.get("pass") is True and cases_ok:
            continue
        failed += 1
        # a known-defect document may only fail as a tolerance failure
        if not (doc.defect and rc == 1 and summary.get("pass") is False and cases_ok):
            problems.append(
                f"{doc.name}: rc={rc} pass={summary.get('pass')} "
                f"n_cases={summary.get('n_cases')}/{doc.expected_cases} {run['error'][-300:]}"
            )
    return failed, total_bytes


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile; at least ten values must lie above it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    if len(ordered) - rank < 10:
        raise BenchError(f"p{p} of {len(ordered)} documents has fewer than ten above it")
    return ordered[rank - 1]


def min_passes(docs_per_pass: int, p: int) -> int:
    """Fewest passes that leave ten documents above the p-th percentile."""
    k = 1
    while k * docs_per_pass - math.ceil(p / 100.0 * k * docs_per_pass) < 10:
        k += 1
    return k


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment(root: str, threads: int) -> dict:
    import numpy as np

    sha = None  # an exported checkout is no git repository
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read_text(os.path.join(base, index, "level"))
        kind = read_text(os.path.join(base, index, "type"))
        size = read_text(os.path.join(base, index, "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model.group(1).strip() if model else platform.machine(),
        "caches": caches,
    }


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "noisy_mbqc", "cli.py")):
        raise BenchError("no src/noisy_mbqc here; run from the root of a checkout")
    deadline = time.monotonic() + DEADLINE_S
    tail_p = TABLE["workloads"][args.workload]["tail_percentile"]
    threads = blas_threads(args.workload)

    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "docs"))
    os.makedirs(os.path.join(work, "reports"))
    docs = make_documents(args.workload, args.seed)
    manifest = []
    for doc in docs:
        path = os.path.join(work, "docs", doc.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc.text)
        manifest.append({"spec": path, "report": os.path.join(work, "reports", doc.name + ".json")})
    manifest_path = os.path.join(work, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)

    setup = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, setup_s = start_worker(root, threads, ["--setup-only"], deadline)
        finish(proc, deadline)
        setup.append(setup_s)

    passes = {False: [], True: []}
    digests: dict = {}
    problems: list = []
    attempted = failed = 0
    needed = min_passes(len(docs), tail_p)  # untraced passes, for doc_s_tail
    t_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes[False]) > len(passes[True])
        out = os.path.join(work, f"pass{len(passes[False]) + len(passes[True])}.json")
        extra = ["--manifest", manifest_path, "--out", out] + (["--trace"] if traced else [])
        proc, setup_s = start_worker(root, threads, extra, deadline)
        finish(proc, deadline)
        setup.append(setup_s)
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        n_failed, result["report_bytes"] = check_pass(docs, manifest, result, digests, problems)
        attempted += len(docs)
        failed += n_failed
        passes[traced].append(result)

        if len(passes[False]) < needed or (args.trace and not passes[True]):
            continue
        elapsed = time.monotonic() - t_start
        mean_pass = elapsed / (len(passes[False]) + len(passes[True]))
        if elapsed + mean_pass > args.seconds or time.monotonic() + 2 * mean_pass > deadline:
            break

    env = environment(root, threads)
    summary = {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted}
    times = [d["s"] for p in passes[False] for d in p["docs"]]
    if args.trace:
        metrics = layer_metrics(passes, args.workload)
        metrics["doc_s_tail"] = percentile(times, tail_p)
        summary["traced_wall_s"] = statistics.median(p["wall_s"] for p in passes[True])
        summary["calls"] = passes[True][0]["layers"]["calls"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            # the mean over passes: machine speed here drifts between levels for
            # seconds at a time, and a mean follows the share of slow passes
            # smoothly where a median jumps between the levels (measured: the
            # run-to-run spread is lower or equal on every workload)
            "wall_s": statistics.fmean(p["wall_s"] for p in passes[False]),
            "doc_s_p50": statistics.median(times),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes[False]),
        }
    summary["documents_timed"] = len(times)
    summary["tail_percentile"] = tail_p
    summary["pass_walls"] = {
        ("traced" if k else "untraced"): [round(p["wall_s"], 4) for p in v]
        for k, v in passes.items() if v
    }
    summary["setup_samples"] = [round(x, 4) for x in setup]
    summary["doc_times"] = [[round(d["s"], 5) for d in p["docs"]] for p in passes[False]]
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "summary": summary, "metrics": metrics,
                   "problems": problems}, fh, indent=1)
    return {"env": env, "summary": summary, "metrics": metrics, "problems": problems,
            "correct": not problems}


def layer_metrics(passes: dict, workload: str) -> dict:
    """Median over traced passes of each per-layer metric, plus the overhead."""
    traced = [p["layers"] for p in passes[True]]
    for span, users in TABLE["wrappers"].items():
        if workload in users and not any(t["calls"].get(span) for t in traced):
            print(f"warning: {span} recorded no calls on {workload}", file=sys.stderr)
    metrics = {}
    for name in (m["name"] for m in LAYER_METRICS):
        if name == "doc_s_tail":
            continue  # from the untraced passes, by the caller
        if name == "cli.report_bytes":
            values = [p["report_bytes"] for p in passes[True]]
        elif name == "trace.overhead_ratio":
            untraced = statistics.median(p["wall_s"] for p in passes[False])
            values = [statistics.median(p["wall_s"] for p in passes[True]) / untraced - 1]
        else:
            values = [t[name] for t in traced]
        metrics[name] = statistics.median(values)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    computed = {m["name"] for m in LAYER_METRICS if m["source"] == "computed"}
    s = out["summary"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{sum(map(len, s['pass_walls'].values()))} passes, {s['attempted']} documents, "
          f"{s['failed']} failed (fail_ratio {s['fail_ratio']:.4f})")
    for name, value in out["metrics"].items():
        label = " (computed)" if name in computed else ""
        print(f"  {name} = {value:.6g} {UNITS[name]}{label}")
    for problem in out["problems"]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
