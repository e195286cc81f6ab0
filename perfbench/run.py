"""Benchmark of the maxclass CLI: two long jobs, exact-output gates, layer counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job is a fresh single-threaded
process that calls the public entry point ``maxclass.cli.main``; jobs run
one at a time (a closed loop with one client).

--trace 0 runs the workload's job while the next one is expected to end
within S seconds, and reports the end-to-end metrics: median job wall time,
median set-up time and median peak RSS.  --trace 1 runs the job once untraced and twice traced, under two
PYTHONHASHSEED values, and reports the per-layer metrics.  The traced jobs
must agree on every count, and the tracer's accounting is tested on a scan
with known undecided outcomes.

Every job's output is checked, outside the timed region: a pinned sha256
digest of the output, a seeded oracle audit against tests/oracles.py, and
a fault-injected verify that must FAIL.  The last line of standard output
is one JSON object; the exit code is nonzero when any check failed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join(ROOT, "perfbench", "job.py")
OUT = os.path.join(ROOT, "perfbench", "out")

# Digests of the `--format json` output, pinned at the commit that
# introduced this benchmark.  The output is deterministic, so any change
# in it is a change in an answer.
WORKLOADS = {
    "enumerate-p7": {
        "p": 7,
        "argv": "enumerate --p 7 --i 9 --m-max 18 --coeff-mod 1 --format json",
        "sha256": "2ff70a90cb16b258c188f2bafbcf0756bd1ccad8b48530af22fdb146e97affb4",
    },
    "scan-p7": {
        "p": 7,
        "argv": "scan-conjecture1 --p 7 --i-max 14 --format json",
        "sha256": "90376987470adde85218df2cb6522c16440395428ad62db6cf1343a61854278a",
    },
}

SETUP_PROBES = 4   # per slot: before each job and after the last
AUDIT_SAMPLES = 12
CHILD_TIMEOUT_S = 170
# --inject-fault bch corrupts a BCH coefficient; verify must report FAIL
FAULT_CONTROL = "verify --p 5 --quick --inject-fault bch --format json"
# At M_work = 20, 15 grid points of this scan raise PrecisionExhausted inside
# in_Hhat and the scan drops them; the tracer must still count all 15.
SELFTEST = "scan-conjecture1 --p 5 --i-max 12 --m-work 20 --format json"
SELFTEST_RAISES = 15


class Ledger:
    """Operations attempted and failed: jobs, gates and self-tests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


def log(msg: str) -> None:
    sys.stderr.write(f"[perfbench] {msg}\n")
    sys.stderr.flush()


def spawn(args: list[str], hashseed: int) -> dict | None:
    """Run job.py in a fresh interpreter; its last stdout line is a JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed % 2**32))
    try:
        proc = subprocess.run([sys.executable, JOB, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timeout after {CHILD_TIMEOUT_S} s: {' '.join(args)}")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        log(f"exit {proc.returncode}: {' '.join(args)}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_job(argv: list[str], hashseed: int, spans_path: str | None = None) -> dict | None:
    trace = ["--trace", spans_path] if spans_path else []
    return spawn(["run", *trace, "--", *argv], hashseed)


def job_ok(w: dict, res: dict | None) -> bool:
    """The exact-output gate for one job of workload w."""
    return res is not None and res["exit"] == 0 and res["sha256"] == w["sha256"]


# ---- oracle audit ----

def load_oracles():
    spec = importlib.util.spec_from_file_location(
        "maxclass_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def integer_coeffs(key: str) -> dict[int, int] | None:
    """Coefficients {a: c_a} of a grid key when every c_a is a rational integer."""
    coeffs = {}
    for a_idx, (den_exp, digits) in enumerate(ast.literal_eval(key)):
        if den_exp != 0 or any(digits[1:]):
            return None
        coeffs[a_idx + 2] = digits[0]
    return coeffs


def audit(name: str, output: str, seed: int, ledger: Ledger) -> None:
    """Recompute lambda for a seeded sample of outputs with the independent oracle."""
    oracles = load_oracles()
    report = json.loads(output)
    rng = random.Random(seed)
    p = report["p"]
    if name == "scan-p7":
        for e in rng.sample(report["entries"], AUDIT_SAMPLES):
            coeffs = integer_coeffs(e["coeffs"])
            ok = (coeffs is not None and e["exact"]
                  and oracles.jacobi_exponent(p, e["i"], coeffs) == e["lambda"])
            ledger.check(ok, f"oracle lambda for scan entry i={e['i']} {e['coeffs']}")
    elif name == "enumerate-p7":
        # a grid vector labels one vertex at each level m = i .. min(lambda, m_max)
        levels: dict[str, list[int]] = {}
        for node in report["nodes"]:
            for key in node["members"]:
                levels.setdefault(key, []).append(node["m"])
        i, m_max = report["i"], report["m_max"]
        for key in rng.sample(sorted(levels), min(AUDIT_SAMPLES, len(levels))):
            coeffs = integer_coeffs(key)
            lam = None if coeffs is None else oracles.jacobi_exponent(p, i, coeffs)
            top = m_max if lam is None else min(lam, m_max)
            ok = coeffs is not None and sorted(levels[key]) == list(range(i, top + 1))
            ledger.check(ok, f"oracle lambda for frame member {key}")


# ---- measurement ----

def probe_setup(p: int, n: int, ledger: Ledger) -> list[float]:
    samples = []
    for k in range(n):
        res = spawn(["setup", str(p)], k)
        if ledger.check(res is not None, "set-up probe"):
            samples.append(res["setup_s"])
    return samples


def layer_metrics(report: dict, output: str, untraced_wall: float) -> dict:
    """Per-layer metric values from one traced job's report."""
    counts = report["counts"]
    n = lambda key: counts.get(key, 0)   # noqa: E731
    self_s, incl = report["self_s"], report["inclusive_s"]
    tree = json.loads(output)
    frame = {"vertices": 0, "edges": 0, "merges": 0}
    if "nodes" in tree:   # only enumerate prints a frame tree
        frame = {"vertices": len(tree["nodes"]), "edges": len(tree["edges"]),
                 "merges": len(tree["merged_by"])}
    candidates = n("isom.move_congruent.calls")
    grid = n("frame._coefficient_grid.items")
    undecided = n("homs.in_Hhat.raised") + n("liering.jacobi_exponent.atleast")
    return {
        "cyclotomic.mul.calls": n("cyclotomic.CycElt.__mul__.calls"),
        "cyclotomic.galois.calls": n("cyclotomic.CycElt.galois.calls"),
        "cyclotomic.unit_inverse.calls": n("cyclotomic.CycElt.unit_inverse.calls"),
        "cyclotomic.div_kappa.calls": n("cyclotomic.CycElt.div_kappa.calls"),
        "cyclotomic.add.calls": (n("cyclotomic.CycElt.__add__.calls")
                                 + n("cyclotomic.CycElt.__sub__.calls")
                                 + n("cyclotomic.CycElt.__neg__.calls")),
        "cyclotomic.valuation.calls": n("cyclotomic.CycElt.valuation.calls"),
        "cyclotomic.self_s": self_s["cyclotomic"],
        "cyclotomic.precision_exhausted": n("cyclotomic.precision_exhausted"),
        "homs.gamma_eval.calls": n("homs.gamma_eval.calls"),
        "homs.theta_a_eval.calls": n("homs.theta_a_eval.calls"),
        "homs.in_Hhat.calls": n("homs.in_Hhat.calls"),
        "homs.in_Hhat.accepted": n("homs.in_Hhat.accepted"),
        "homs.in_Hhat.raised": n("homs.in_Hhat.raised"),
        "homs.self_s": self_s["homs"],
        "liering.jacobi_exponent.calls": n("liering.jacobi_exponent.calls"),
        "liering.jacobi_exponent.atleast": n("liering.jacobi_exponent.atleast"),
        "liering.jacobiator.calls": n("liering.jacobiator.calls"),
        "liering.bracket.calls": n("liering.LieElt.bracket.calls"),
        "liering.lcs_profile.calls": n("liering.lcs_profile.calls"),
        "liering.self_s": self_s["liering"],
        "freelie.self_s": self_s["freelie"],
        "lazard.bch_multiply.calls": n("lazard.bch_multiply.calls"),
        "lazard.theta_power_map.calls": n("lazard.theta_power_map.calls"),
        "lazard.build_bch_table.calls": n("lazard.build_bch_table.calls"),
        "lazard.self_s": self_s["lazard"],
        "frame.verify_maximal_class.calls": n("frame.verify_maximal_class.calls"),
        "frame.maxclass_phase_s": incl["frame.verify_maximal_class"],
        "frame.commutator.calls": n("frame.SGroup.commutator.calls"),
        "frame.multiply.calls": n("frame.SGroup.multiply.calls"),
        "frame.vertices": frame["vertices"],
        "frame.edges": frame["edges"],
        "frame.merges": frame["merges"],
        "frame.self_s": self_s["frame"],
        "isom.find_certified_move.calls": n("isom.find_certified_move.calls"),
        "isom.merge_phase_s": incl["isom.find_certified_move"],
        "isom.candidates": candidates,
        "isom.certified": n("isom.certified"),
        "isom.certified_ratio": n("isom.certified") / candidates if candidates else 0.0,
        "isom.rho.calls": n("isom.rho.calls"),
        "isom.verify_witness.calls": n("isom.verify_witness.calls"),
        "isom.self_s": self_s["isom"],
        "verify.self_s": self_s["verify"],
        "trace.overhead_ratio": report["wall_s"] / untraced_wall,
        "unresolved_ratio": undecided / grid if grid else 0.0,
    }


def measure_untraced(w, argv, seed, seconds, ledger):
    """Jobs while the next is expected to end within `seconds`; at least one.

    Starting a job only when it should fit keeps a run near `seconds` long,
    so a slow host runs fewer jobs rather than a longer run.

    Set-up probes run before each job and after the last, so they sample the
    same stretch of host load as the jobs do.
    """
    walls, rss, setup, output = [], [], [], None
    spawn(["setup", str(w["p"])], 0)   # untimed: fills the bytecode cache
    start = time.perf_counter()
    while True:
        setup += probe_setup(w["p"], SETUP_PROBES, ledger)
        if walls and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        res = run_job(argv, seed)
        if not ledger.check(job_ok(w, res), f"job {' '.join(argv)}"):
            break
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        output = res["output"]
    log(f"{len(walls)} job(s), wall {[round(x, 2) for x in walls]}")
    if not walls or not setup:
        return None, output
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss)}, output


def measure_traced(name, w, argv, seed, ledger):
    """One untraced and two traced jobs; returns per-layer metrics and the output."""
    os.makedirs(OUT, exist_ok=True)
    base = run_job(argv, seed)
    if not ledger.check(job_ok(w, base), f"job {' '.join(argv)}"):
        return None, None
    reports = []
    for hashseed in (seed, seed + 1):
        spans = os.path.join(OUT, f"{name}-seed{seed}-hash{hashseed}.spans.jsonl")
        res = run_job(argv, hashseed, spans)
        if ledger.check(job_ok(w, res), f"traced job (PYTHONHASHSEED={hashseed})"):
            res["trace"]["wall_s"] = res["wall_s"]
            reports.append((res["trace"], res["output"]))
    if len(reports) < 2:
        return None, None
    per_run = [layer_metrics(r, out, base["wall_s"]) for r, out in reports]
    ledger.check(reports[0][0]["counts"] == reports[1][0]["counts"],
                 "exact counts differ between PYTHONHASHSEED values")
    metrics = {}
    for key in per_run[0]:
        values = [m[key] for m in per_run]
        metrics[key] = statistics.median(values) if isinstance(values[0], float) else values[0]

    st = run_job(SELFTEST.split(), seed, os.path.join(OUT, "selftest.spans.jsonl"))
    raised = None if st is None else st["trace"]["counts"].get("homs.in_Hhat.raised")
    ledger.check(raised == SELFTEST_RAISES,
                 f"self-test counted {raised} swallowed PrecisionExhausted, want {SELFTEST_RAISES}")
    return metrics, reports[0][1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/maxclass/cli.py", "tests/oracles.py", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log(f"not a maxclass checkout, missing: {', '.join(missing)}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    w = WORKLOADS[args.workload]
    argv = w["argv"].split()
    ledger = Ledger()
    if args.trace:
        values, output = measure_traced(args.workload, w, argv, args.seed, ledger)
    else:
        values, output = measure_untraced(w, argv, args.seed, args.seconds, ledger)

    fault = run_job(FAULT_CONTROL.split(), args.seed)
    ledger.check(fault is not None and fault["exit"] == 1
                 and json.loads(fault["output"])["all_passed"] is False,
                 "fault-injected verify did not FAIL")
    if output is not None:
        audit(args.workload, output, args.seed, ledger)

    if values is not None and args.trace:
        values["failed_ratio"] = ledger.failed / ledger.attempted
    metrics = None
    if values is not None:
        if set(values) != set(units):
            log(f"metrics out of step with BENCHMARK.json: {sorted(set(values) ^ set(units))}")
            return 2
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = ledger.failed == 0 and metrics is not None
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
