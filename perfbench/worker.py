"""One benchmark pass in a fresh interpreter.

Imports ``noisy_mbqc.cli`` from the checkout's ``src``, prints ``ready`` (the
parent times set-up up to that line), then runs every document of the
manifest in order through ``cli.main(["run", doc, "--out", report])``: one
document at a time, on this one thread.  With ``--trace`` the span wrappers
are installed for the pass and removed afterwards.  The per-document times,
exit codes, peak RSS and, when traced, the layer totals go to ``--out``.

    python3 perfbench/worker.py --root . --manifest m.json --out res.json [--trace]
    python3 perfbench/worker.py --root . --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--manifest")
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    from noisy_mbqc import cli, densemath, mpo, oracle

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"noisy_mbqc imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)

    modules = {"cli": cli, "oracle": oracle, "mpo": mpo, "densemath": densemath}
    rec = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        rec = spans.Recorder()
        spans.install(rec, modules)

    docs = []
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        t_pass = time.perf_counter()
        for entry in manifest:
            argv = ["run", entry["spec"], "--out", entry["report"]]
            stderr = io.StringIO()
            error = None
            with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    if rec is None:
                        rc = cli.main(argv)
                    else:
                        rc = rec.call(spans.ROOT, cli.main, (argv,), {})
                except Exception:  # a traceback is a result to report, not to die on
                    rc, error = None, traceback.format_exc(limit=3)
                t1 = time.perf_counter()
            docs.append({"rc": rc, "s": t1 - t0, "error": error or stderr.getvalue()})
        wall_s = time.perf_counter() - t_pass

    result = {
        "wall_s": wall_s,
        "docs": docs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        spans.uninstall(rec, modules)
        result["layers"] = spans.layer_metrics(rec)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
