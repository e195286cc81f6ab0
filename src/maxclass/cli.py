"""Command-line surface: jacobi, build, enumerate, verify, scan-conjecture1, bch-regen.

Reports show computed values and reference bounds side by side; JSON output
is deterministic (sorted keys, no timestamps).  Exit codes: 0 ok, 1 suite
violation, 2 config error, 3 budget or precision exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from .cyclotomic import (
    BudgetExceeded,
    CycElt,
    MaxclassError,
    PrecisionExhausted,
    PrimeContext,
    _is_prime,
)
from .homs import GammaCoeffs, NotInHhat, images_to_coeffs, in_Hhat
from .lazard import BCH_DATA_VERSION, generate_bch_table
from .liering import LieRingSpec, jacobi_exponent
from .frame import SGroup, classify, enumerate_frame, is_maximal_class_chain, s_group_lcs
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    p: int = 5
    i: int | None = None
    m: int | None = None
    m_max: int | None = None
    coeff: str | None = None
    coeff_mod: int = 1
    m_work: int | None = None
    budget: int = 100_000
    fmt: str = "text"
    seed: int = 0
    out: str | None = None

    def validate(self) -> None:
        if self.p < 5 or not _is_prime(self.p):
            raise ValueError(f"p must be a prime >= 5, got {self.p}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.coeff_mod < 1:
            raise ValueError("coeff-mod must be >= 1")
        for name in ("i", "m", "m_max", "m_work"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative")


def _read_config_file(path: str) -> list[tuple[int, str, list[str]]]:
    """The lines 'key = value' of a config file as (line number, key, ['--key', value])."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: config line is not 'key = value': {line!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            if key != "quick":
                out.append((lineno, key, [f"--{key}", val]))
            elif val.lower() in ("1", "true", "yes"):
                out.append((lineno, key, ["--quick"]))
            elif val.lower() in ("0", "false", "no"):
                out.append((lineno, key, ["--no-quick"]))
            else:
                raise ValueError(f"{path}:{lineno}: quick must be 1/true/yes or 0/false/no, "
                                 f"got {val!r}")
    return out


def _parse_coeffs(ctx: PrimeContext, i: int, text: str, check: bool) -> GammaCoeffs:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != ctx.l:
        raise ValueError(f"expected {ctx.l} comma-separated coefficients, got {len(parts)}")
    return GammaCoeffs.from_integers(ctx, i, [int(t) for t in parts], check=check)


def _resolve_gamma(ctx: PrimeContext, i: int, coeff: str | None,
                   images_path: str | None) -> GammaCoeffs:
    """Coefficients either explicitly or through a probe-image list (JSON file)."""
    if images_path:
        with open(images_path, encoding="utf-8") as fh:
            images = [CycElt.from_json(ctx, obj) for obj in json.load(fh)]
        g = images_to_coeffs(ctx, i, images)
        if not in_Hhat(g, i):
            raise NotInHhat(f"probe images do not define a member of Hhat_{i}")
        return g
    if coeff is None:
        raise ValueError("need --coeff or --images-json")
    return _parse_coeffs(ctx, i, coeff, check=True)


def _emit(payload, fmt: str, out: str | None, text_lines) -> None:
    if fmt == "json":
        blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        blob = "\n".join(text_lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


# ---- commands ----

def cmd_jacobi(cfg: RunConfig, images_json: str | None = None) -> int:
    if cfg.i is None:
        raise ValueError("jacobi needs --i")
    m_work = cfg.m_work or 3 * (cfg.i + cfg.p) + 12
    ctx = PrimeContext(cfg.p, m_work)
    g = _resolve_gamma(ctx, cfg.i, cfg.coeff, images_json)
    lam = jacobi_exponent(g, cfg.i)
    bound = 3 * cfg.i + 3 - cfg.p
    applicable = cfg.i > cfg.p - 2
    ok = (lam.bound >= bound) if applicable else None
    payload = {
        "p": cfg.p, "i": cfg.i, "m_work": m_work,
        "coeffs": g.to_json(),
        "lambda": {"value": lam.value, "exact": lam.exact},
        "lower_bound_3i+3-p": bound,
        "bound_applicable": applicable,
        "bound_satisfied": ok,
    }
    text = [
        f"J_{cfg.i}(gamma) = P^lambda with lambda {'=' if lam.exact else '>='} {lam.value}"
        f"  (lower bound 3i+3-p = {bound}"
        + (f", satisfied: {ok})" if applicable else ", skipped: i <= p-2)"),
    ]
    _emit(payload, cfg.fmt, cfg.out, text)
    return EXIT_OK if ok in (True, None) else EXIT_VIOLATION


def cmd_build(cfg: RunConfig, images_json: str | None = None) -> int:
    if cfg.i is None or cfg.m is None:
        raise ValueError("build needs --i and --m")
    m_work = cfg.m_work or max(cfg.m + 2 * (cfg.p - 1), 3 * (cfg.i + cfg.p) + 12)
    ctx = PrimeContext(cfg.p, m_work)
    g = _resolve_gamma(ctx, cfg.i, cfg.coeff, images_json)
    lam = jacobi_exponent(g, cfg.i)
    spec = LieRingSpec(ctx, cfg.i, cfg.m, g, lam=lam)
    group = SGroup(spec)
    s_prof = s_group_lcs(group)
    maximal = is_maximal_class_chain(s_prof)
    l_prof = spec.lcs_profile()
    payload = {
        "p": cfg.p, "i": cfg.i, "m": cfg.m, "m_work": m_work,
        "gamma": g.to_json(),
        "lambda": {"value": lam.value, "exact": lam.exact},
        "order_exp": group.order_exp,
        "classification": classify(cfg.i, cfg.m),
        "mainline_threshold_2i+1": 2 * cfg.i + 1,
        "s_lcs_exponents": list(s_prof.exponents),
        "maximal_class_verified": maximal,
        "lie_lcs_exponents": list(l_prof.exponents),
        "lie_class": l_prof.nilpotency_class,
    }
    text = [
        f"S_({cfg.i},{cfg.m})(gamma): order p^{group.order_exp} (expected p^(m-i+1) = p^{cfg.m - cfg.i + 1})",
        f"classification: {classify(cfg.i, cfg.m)} (mainline iff m <= 2i+1 = {2 * cfg.i + 1})",
        f"maximal class verified: {maximal} via chain {list(s_prof.exponents)}",
        f"Lie ring lcs: {list(l_prof.exponents)}, class {l_prof.nilpotency_class}",
    ]
    _emit(payload, cfg.fmt, cfg.out, text)
    return EXIT_OK if maximal else EXIT_VIOLATION


def cmd_enumerate(cfg: RunConfig, out_dot: str | None, out_json: str | None) -> int:
    if cfg.i is None:
        raise ValueError("enumerate needs --i")
    m_max = cfg.m_max if cfg.m_max is not None else 2 * cfg.i + 4
    m_work = cfg.m_work or max(m_max + 2 * (cfg.p - 1), 3 * (cfg.i + cfg.p) + 12)
    ctx = PrimeContext(cfg.p, m_work)
    tree = enumerate_frame(ctx, cfg.i, m_max, coeff_mod=cfg.coeff_mod, budget=cfg.budget)
    payload = tree.to_json()
    payload["membership_shift_note"] = (
        f"the same coefficient grid defines frames at every i' == {cfg.i} mod p-1 = "
        f"{cfg.i % (cfg.p - 1)}; lambda shifts by 3(p-1) per step of p-1 in i")
    if out_json:
        with open(out_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if out_dot:
        with open(out_dot, "w", encoding="utf-8") as fh:
            fh.write(tree.to_dot())
    lines = [
        f"frame grid p={cfg.p}, i={cfg.i}, m <= {m_max}, coefficients mod P^{cfg.coeff_mod}",
        f"{len(tree.nodes)} vertices (upper bounds on isomorphism types), "
        f"{len(tree.edges)} quotient edges, {len(tree.merged_by)} certified merges",
    ]
    if not out_dot and not out_json:
        lines.append(tree.to_dot())
    if cfg.fmt == "json":
        _emit(payload, "json", cfg.out, lines)
    else:
        _emit(None, "text", cfg.out, lines)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, quick: bool, fault: str | None) -> int:
    results = verify_mod.run_all(cfg.p, quick=quick, seed=cfg.seed, fault=fault)
    payload = {"p": cfg.p, "quick": quick, "seed": cfg.seed,
               "results": [r.to_json() for r in results],
               "all_passed": all(r.passed for r in results)}
    text = []
    for r in results:
        text.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.summary}")
        text.extend(f"    violation: {v}" for v in r.violations[:10])
    text.append("overall: " + ("PASS" if payload["all_passed"] else "FAIL"))
    _emit(payload, cfg.fmt, cfg.out, text)
    return EXIT_OK if payload["all_passed"] else EXIT_VIOLATION


def cmd_scan_conjecture1(cfg: RunConfig, i_max: int) -> int:
    m_work = cfg.m_work or 60
    report = verify_mod.scan_conjecture1(cfg.p, i_max, coeff_mod=cfg.coeff_mod,
                                         m_work=m_work, budget=cfg.budget)
    text = [
        f"conjecture-1 evidence scan: p={cfg.p}, i <= {i_max}, grid mod P^{cfg.coeff_mod}, "
        f"M_work={m_work}",
        f"{len(report['entries'])} grid points in Hhat_i or undecided, "
        f"{report['unresolved_atleast']} unresolved (AtLeast lambda or undecided membership)",
        f"slack histogram lambda - (3i+3-p): {report['slack_histogram']}",
        report["note"],
    ]
    _emit(report, cfg.fmt, cfg.out, text)
    return EXIT_OK


def cmd_bch_regen(max_class: int, out: str) -> int:
    table = generate_bch_table(max_class)
    if not table.self_test(min(max_class, 5)):
        raise MaxclassError("generated table fails its associativity self-test")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(table.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote BCH table (version {BCH_DATA_VERSION}, max class {max_class}) to {out}\n")
    return EXIT_OK


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    ap = argparse.ArgumentParser(prog="maxclass",
                                 description="frame computations for p-groups of maximal class")
    # each subcommand matches flags in full, so a config-file key names one flag
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, *names):
        if "p" in names:
            sp.add_argument("--p", type=int, default=None, help="odd prime >= 5")
        if "i" in names:
            sp.add_argument("--i", type=int, default=None)
        if "coeff" in names:
            sp.add_argument("--coeff", type=str, default=None,
                            help="comma-separated integer coefficients c_2..c_{(p-1)/2}")
            sp.add_argument("--images-json", type=str, default=None, dest="images_json",
                            help="JSON file with the probe-wedge images instead of --coeff")
        sp.add_argument("--m-work", type=int, default=None, dest="m_work")
        sp.add_argument("--budget", type=int, default=None)
        sp.add_argument("--format", choices=("text", "json"), default=None, dest="fmt")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None,
                        help="key = value file supplying defaults for these flags")

    sp = sub.add_parser("jacobi", allow_abbrev=False,
                        help="compute the Jacobi ideal exponent lambda")
    common(sp, "p", "i", "coeff")

    sp = sub.add_parser("build", allow_abbrev=False,
                        help="build S_(i,m)(gamma) and verify maximal class")
    common(sp, "p", "i", "coeff")
    sp.add_argument("--m", type=int, default=None)

    sp = sub.add_parser("enumerate", allow_abbrev=False,
                        help="enumerate a frame tree over a coefficient grid")
    common(sp, "p", "i")
    sp.add_argument("--m-max", type=int, default=None, dest="m_max")
    sp.add_argument("--coeff-mod", type=int, default=None, dest="coeff_mod")
    sp.add_argument("--out-dot", type=str, default=None)
    sp.add_argument("--out-json", type=str, default=None)

    sp = sub.add_parser("verify", allow_abbrev=False,
                        help="run every verification suite")
    common(sp, "p")
    sp.add_argument("--quick", action=argparse.BooleanOptionalAction, default=False)
    sp.add_argument("--inject-fault", choices=("bch", "epsilon"), default=None,
                    help="deliberately corrupt one ingredient to demonstrate detection")

    sp = sub.add_parser("scan-conjecture1", allow_abbrev=False,
                        help="evidence scan: lambda over a coefficient grid")
    common(sp, "p")
    sp.add_argument("--i-max", type=int, default=12, dest="i_max")
    sp.add_argument("--coeff-mod", type=int, default=None, dest="coeff_mod")

    sp = sub.add_parser("bch-regen", allow_abbrev=False,
                        help="regenerate the packaged BCH coefficient table")
    sp.add_argument("--max-class", type=int, required=True, dest="max_class")
    sp.add_argument("--out", type=str, required=True)
    return ap, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap, subparsers = _build_parser()
    args = ap.parse_args(argv)
    try:
        path = getattr(args, "config", None)
        if path:
            lines = _read_config_file(path)
            # the file's flags go first, so the explicit ones win; the explicit
            # ones parsed already, so an unrecognized flag comes from the file
            args, unknown = ap.parse_known_args(
                argv[:1] + [f for _, _, flags in lines for f in flags] + argv[1:])
            for lineno, key, flags in lines:
                if flags[0] in unknown:
                    subparsers[args.command].error(f"{path}:{lineno}: unknown key {key!r}")
        if args.command == "bch-regen":
            return cmd_bch_regen(args.max_class, args.out)
        given = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        cfg = RunConfig(**{k: v for k, v in given.items() if v is not None})
        cfg.validate()
        if args.command == "jacobi":
            return cmd_jacobi(cfg, args.images_json)
        if args.command == "build":
            return cmd_build(cfg, args.images_json)
        if args.command == "enumerate":
            return cmd_enumerate(cfg, args.out_dot, args.out_json)
        if args.command == "verify":
            return cmd_verify(cfg, args.quick, args.inject_fault)
        if args.command == "scan-conjecture1":
            return cmd_scan_conjecture1(cfg, args.i_max)
        raise ValueError(f"unknown command {args.command}")
    except (BudgetExceeded, PrecisionExhausted) as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (ValueError, NotInHhat, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
