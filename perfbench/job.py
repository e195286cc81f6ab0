"""One measured process: a set-up probe, or one CLI job through maxclass.cli.main.

    python3 perfbench/job.py setup P
    python3 perfbench/job.py run [--trace SPANS_PATH] -- <maxclass CLI arguments>

Each mode prints one JSON object as its last line of standard output.  The
job's own output is captured in memory, so the caller gets its digest, its
text and the exit code.  run.py starts a fresh process for each job, as a
user's shell would, so no cache survives from one job into the next.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(p: int) -> dict:
    """Time `import maxclass` plus loading and validating the packaged BCH table."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import maxclass.cli  # noqa: F401  (the entry point imports every layer)
    from maxclass.lazard import build_bch_table
    build_bch_table(p - 1, p=p)
    return {"setup_s": time.perf_counter() - t0}


def run(argv: list[str], spans_path: str | None) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import contextlib
    import hashlib
    import io
    import resource

    import maxclass.cli
    tracer = None
    if spans_path is not None:
        sys.path.insert(0, ROOT)
        from perfbench.tracer import Tracer
        tracer = Tracer().install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = maxclass.cli.main(argv)
    wall = time.perf_counter() - t0
    out = buf.getvalue()
    result = {
        "exit": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
        "output": out,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.dump_spans(spans_path)
    return result


def main() -> int:
    import json
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        result = setup(int(rest[0]))
    elif mode == "run":
        spans_path = None
        if rest[:1] == ["--trace"]:
            spans_path, rest = rest[1], rest[2:]
        if rest[:1] != ["--"]:
            raise SystemExit("usage: job.py run [--trace SPANS_PATH] -- ARGS...")
        result = run(rest[1:], spans_path)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
