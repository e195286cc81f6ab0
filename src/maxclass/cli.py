"""Command-line surface: jacobi, build, enumerate, verify, scan-conjecture1, bch-regen.

Reports show computed values and reference bounds side by side; JSON output
is deterministic (sorted keys, no timestamps).  Exit codes: 0 ok, 1 suite
violation, 2 config error, 3 budget or precision exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from json.encoder import encode_basestring_ascii

from .cyclotomic import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ContextMismatch,
    CycElt,
    InsufficientValuation,
    MaxclassError,
    PrecisionExhausted,
    PrimeContext,
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


def _config_flags(path: str, sp: argparse.ArgumentParser, explicit: list[str]) -> list[str]:
    """Flags of a 'key = value' config file, to go before the explicit flags.

    sp parses each line after the lines before it and before the explicit flags,
    so an error names its line, a clash of mutually exclusive flags included.
    help and config are not keys: --help would print and exit 0, and a second
    --config would be ignored.
    """
    out = []
    sp.exit_on_error = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: config line is not 'key = value': {line!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            flags = [f"--{key}", val]
            if key == "quick":
                if val.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise ValueError(f"{path}:{lineno}: quick must be 1/true/yes or 0/false/no, "
                                     f"got {val!r}")
                flags = ["--quick" if val.lower() in ("1", "true", "yes") else "--no-quick"]
            try:
                if key in ("help", "config") or sp.parse_known_args(out + flags + explicit)[1]:
                    sp.error(f"{path}:{lineno}: unknown key {key!r}")
            except argparse.ArgumentError as exc:
                sp.error(f"{path}:{lineno}: {exc}")
            out += flags
    sp.exit_on_error = True
    return out


def _resolve_gamma(ctx: PrimeContext, i: int, coeff: str | None,
                   images_path: str | None) -> GammaCoeffs:
    """Coefficients either explicitly or through a probe-image list (JSON file)."""
    if images_path:
        with open(images_path, encoding="utf-8") as fh:
            try:
                objs = json.load(fh)
                images = [CycElt.from_json(ctx, obj) for obj in objs]
            except (KeyError, TypeError, ValueError, ContextMismatch) as exc:
                raise ValueError(f'{images_path}: not a list of {{"p": {ctx.p}, "prec": ..., '
                                 f'"digits": [...]}} images: {type(exc).__name__}: {exc}') from exc
        for j, obj in enumerate(objs, 1):
            # images_to_coeffs divides each image by kappa^{2i+1}; --m-work cannot lift a file's
            # precision, and from_json reads an image known beyond M_work at M_work
            if (prec := obj["prec"]) <= 2 * i + 1:
                raise ValueError(f"{images_path}: image {j} is known only mod P^{prec}; at i = {i} "
                                 f"every image needs a precision above {2 * i + 1}")
        try:
            g = images_to_coeffs(ctx, i, images)
        except ValueError as exc:   # the wrong number of images
            raise ValueError(f"{images_path}: {exc}") from exc
        except InsufficientValuation as exc:
            raise ValueError(f"{images_path}: an image lies outside P^{2 * i + 1}, so the images "
                             f"define no member of Hhat_{i}") from exc
        if not in_Hhat(g):
            raise NotInHhat(f"{images_path}: probe images do not define a member of Hhat_{i}")
        return g
    if coeff is None:
        raise ValueError("need --coeff or --images-json")
    try:
        values = [int(t) for t in coeff.split(",")]
    except ValueError:
        values = []
    if len(values) != ctx.l:
        raise ValueError(f"--coeff {coeff!r}: expected {ctx.l} comma-separated integer(s) c_2..c_{{(p-1)/2}}")
    return GammaCoeffs.from_integers(ctx, i, values)


@contextlib.contextmanager
def _output(*paths: str | None):
    """A write function into each file at paths, opened for writing; None is standard output."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8")) if path else sys.stdout
                 for path in paths]

        def write(text: str) -> None:
            for fh in files:
                fh.write(text)

        yield write


def _write(path: str | None, blob: str) -> None:
    with _output(path) as write:
        write(blob)


# json's text of a value of exactly this type, None for a container
_TEXT = {str: encode_basestring_ascii, int: repr,
         bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null",
         **dict.fromkeys((list, tuple, dict), lambda _: None)}
_FLUSH_EVERY = 4096   # chunks that _write_json holds before it writes them


def _refuse(o) -> None:
    raise TypeError(f"{o.__class__.__name__} is not a payload type: dict, list, tuple, str, "
                    f"int, bool or None")


def _write_json(obj, write) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) + "\\n" through write, byte for byte.

    obj is a payload, as every command builds one: dicts with str keys, and
    lists, tuples, str, int, bool and None, each value of exactly its type.
    Anything else raises TypeError, even where json would write it: a float,
    a value of a subclass, a key that is not a str.  With indent set, json
    formats in pure Python and returns the whole text.  Here scalars go
    through json's C routines, and whenever a container is closed with
    _FLUSH_EVERY chunks waiting, they are written and dropped, so the text is
    never all held at once.  A circular container is not detected.
    """
    chunks = []
    append = chunks.append
    newline = ["\n"]   # newline[d]: a line break and the indent of depth d
    text_of = _TEXT.get

    def container(o, depth: int) -> None:
        if not o:
            append("{}" if isinstance(o, dict) else "[]")
            return
        if len(newline) == depth + 1:
            newline.append(newline[depth] + "  ")
        inner = newline[depth + 1]
        comma = "," + inner
        # the dict and list loops differ only in the head of an item; one loop was slower
        if isinstance(o, dict):
            sep, close = "{" + inner, newline[depth] + "}"
            for k, v in sorted(o.items()):
                head = sep + encode_basestring_ascii(k) + ": "
                sep = comma
                text = text_of(v.__class__, _refuse)(v)
                if text is None:
                    append(head)
                    container(v, depth + 1)
                else:
                    append(head + text)
        else:
            sep, close = "[" + inner, newline[depth] + "]"
            for v in o:
                head, sep = sep, comma
                text = text_of(v.__class__, _refuse)(v)
                if text is None:
                    append(head)
                    container(v, depth + 1)
                else:
                    append(head + text)
        append(close)
        if len(chunks) >= _FLUSH_EVERY:
            write("".join(chunks))
            chunks.clear()

    text = text_of(obj.__class__, _refuse)(obj)
    if text is None:
        container(obj, 0)
    else:
        append(text)
    append("\n")
    write("".join(chunks))


def _emit(payload, fmt: str, out: str | None, text_lines) -> None:
    with _output(out) as write:
        if fmt == "json":
            _write_json(payload, write)
        else:
            write("\n".join(text_lines) + "\n")


# ---- commands: each reads the parsed namespace of its subcommand ----

def cmd_jacobi(args: argparse.Namespace) -> int:
    p, i = args.p, args.i
    if i is None:
        raise ValueError("jacobi needs --i")
    m_work = 3 * (i + p) + 12 if args.m_work is None else args.m_work
    ctx = PrimeContext(p, m_work)
    g = _resolve_gamma(ctx, i, args.coeff, args.images_json)
    lam = jacobi_exponent(g)
    bound = 3 * i + 3 - p
    applicable = i > p - 2
    # lambda >= a bound below 3i+3-p decides nothing: undecided at this --m-work
    undecided = applicable and not lam.exact and lam.bound < bound
    ok = lam.bound >= bound if applicable and not undecided else None
    payload = {
        "p": p, "i": i, "m_work": m_work,
        "coeffs": g.to_json(),
        "lambda": {"value": lam.value, "exact": lam.exact},
        "lower_bound_3i+3-p": bound,
        "bound_applicable": applicable,
        "bound_satisfied": ok,
    }
    text = [
        f"J_{i}(gamma) = P^lambda with lambda {'=' if lam.exact else '>='} {lam.value}"
        f"  (lower bound 3i+3-p = {bound}"
        + (", skipped: i <= p-2)" if not applicable
           else f", undecided at --m-work {m_work})" if undecided else f", satisfied: {ok})"),
    ]
    _emit(payload, args.fmt, args.out, text)
    if undecided:
        return EXIT_RESOURCE
    return EXIT_OK if ok in (True, None) else EXIT_VIOLATION


def cmd_build(args: argparse.Namespace) -> int:
    p, i, m = args.p, args.i, args.m
    if i is None or m is None:
        raise ValueError("build needs --i and --m")
    if i < 1:
        raise ValueError(f"i = {i}: build needs i >= 1; L_(0,m)(gamma) is not nilpotent")
    m_work = max(m + 2 * (p - 1), 3 * (i + p) + 12) if args.m_work is None else args.m_work
    ctx = PrimeContext(p, m_work)
    g = _resolve_gamma(ctx, i, args.coeff, args.images_json)
    lam = jacobi_exponent(g)
    spec = LieRingSpec(g, m, lam=lam)
    group = SGroup(spec)
    s_prof = s_group_lcs(group)
    maximal = is_maximal_class_chain(s_prof)
    l_prof = spec.lcs_profile()
    payload = {
        "p": p, "i": i, "m": m, "m_work": m_work,
        "gamma": g.to_json(),
        "lambda": {"value": lam.value, "exact": lam.exact},
        "order_exp": group.order_exp,
        "classification": classify(i, m),
        "mainline_threshold_2i+1": 2 * i + 1,
        "s_lcs_exponents": list(s_prof.exponents),
        "maximal_class_verified": maximal,
        "lie_lcs_exponents": list(l_prof.exponents),
        "lie_class": l_prof.nilpotency_class,
    }
    text = [
        f"S_({i},{m})(gamma): order p^{group.order_exp} (expected p^(m-i+1) = p^{m - i + 1})",
        f"classification: {classify(i, m)} (mainline iff m <= 2i+1 = {2 * i + 1})",
        f"maximal class verified: {maximal} via chain {list(s_prof.exponents)}",
        f"Lie ring lcs: {list(l_prof.exponents)}, class {l_prof.nilpotency_class}",
    ]
    _emit(payload, args.fmt, args.out, text)
    return EXIT_OK if maximal else EXIT_VIOLATION


def cmd_enumerate(args: argparse.Namespace) -> int:
    p, i = args.p, args.i
    if i is None:
        raise ValueError("enumerate needs --i")
    m_max = 2 * i + 4 if args.m_max is None else args.m_max
    m_work = max(m_max + 2 * (p - 1), 3 * (i + p) + 12) if args.m_work is None else args.m_work
    ctx = PrimeContext(p, m_work)
    tree = enumerate_frame(ctx, i, m_max, coeff_mod=args.coeff_mod, budget=args.budget)
    # the JSON and the dot text are built only when they are written, and the
    # JSON is formatted once for all of its destinations
    json_paths = ([args.out_json] if args.out_json else []) + ([args.out] if args.fmt == "json" else [])
    if json_paths:
        payload = tree.to_json()
        payload["membership_shift_note"] = (
            f"the same coefficient grid defines frames at every i' == {i} mod p-1 = "
            f"{i % (p - 1)}; lambda shifts by 3(p-1) per step of p-1 in i")
        with _output(*json_paths) as write:
            _write_json(payload, write)
    if args.out_dot:
        _write(args.out_dot, tree.to_dot())
    if args.fmt == "json":
        return EXIT_OK
    lines = [
        f"frame grid p={p}, i={i}, m <= {m_max}, coefficients mod P^{args.coeff_mod}",
        f"{len(tree.nodes)} vertices (upper bounds on isomorphism types), "
        f"{len(tree.edges)} quotient edges, {len(tree.merged_by)} certified merges",
    ]
    if not args.out_dot and not args.out_json:
        lines.append(tree.to_dot())
    _emit(None, "text", args.out, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_all(args.p, quick=args.quick, seed=args.seed, fault=args.inject_fault)
    payload = {"p": args.p, "quick": args.quick, "seed": args.seed,
               "results": [r.to_json() for r in results],
               "all_passed": all(r.passed for r in results)}
    text = []
    for r in results:
        text.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.summary}")
        text.extend(f"    violation: {v}" for v in r.violations[:10])
    text.append("overall: " + ("PASS" if payload["all_passed"] else "FAIL"))
    _emit(payload, args.fmt, args.out, text)
    return EXIT_OK if payload["all_passed"] else EXIT_VIOLATION


def cmd_scan_conjecture1(args: argparse.Namespace) -> int:
    report = verify_mod.scan_conjecture1(args.p, args.i_max, coeff_mod=args.coeff_mod,
                                         m_work=args.m_work, budget=args.budget)
    text = [
        f"conjecture-1 evidence scan: p={args.p}, i <= {args.i_max}, "
        f"grid mod P^{args.coeff_mod}, M_work={args.m_work}",
        f"{len(report['entries'])} grid points in Hhat_i or undecided, "
        f"{report['unresolved_atleast']} unresolved (AtLeast lambda or undecided membership)",
        f"slack histogram lambda - (3i+3-p): {report['slack_histogram']}",
        report["note"],
    ]
    _emit(report, args.fmt, args.out, text)
    return EXIT_OK


def cmd_bch_regen(args: argparse.Namespace) -> int:
    table = generate_bch_table(args.max_class)
    if not table.self_test(min(args.max_class, 5)):
        raise MaxclassError("generated table fails its associativity self-test")
    _write(args.out, json.dumps(table.to_json(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote BCH table (version {BCH_DATA_VERSION}, max class {args.max_class}) "
                     f"to {args.out}\n")
    return EXIT_OK


def _int_at_least(lo: int):
    """An argparse type: an integer >= lo, else a usage error (exit 2) naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in its message for a non-integer
    return parse


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name.

    Each subcommand registers only the flags its command reads, so a flag or a
    config key that the command would ignore is an error.  Constant defaults
    live here, where --help shows them; a default derived from other flags is
    applied by the command, and only when the flag is absent.
    """
    ap = argparse.ArgumentParser(prog="maxclass",
                                 description="frame computations for p-groups of maximal class")
    # each subcommand matches flags in full, so a config-file key names one flag
    sub = ap.add_subparsers(dest="command", required=True)
    natural, positive = _int_at_least(0), _int_at_least(1)

    def command(name, run, help):
        sp = sub.add_parser(name, allow_abbrev=False, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--p", type=int, default=5, help="odd prime >= 5 (default: %(default)s)")
        sp.add_argument("--format", choices=("text", "json"), default="text", dest="fmt",
                        help="report format (default: %(default)s)")
        sp.add_argument("--out", help="write the report to this file instead of standard output")
        sp.add_argument("--config", help="key = value file supplying defaults for these flags")
        return sp

    def gamma(sp):
        sp.add_argument("--i", type=natural, help="level i of the homomorphism gamma")
        given = sp.add_mutually_exclusive_group()
        given.add_argument("--coeff", help="comma-separated integer coefficients c_2..c_{(p-1)/2}")
        given.add_argument("--images-json", dest="images_json",
                           help="JSON file with the probe-wedge images instead of --coeff")

    def m_work(sp, shown, default=None):
        sp.add_argument("--m-work", type=int, default=default, dest="m_work",
                        help=f"working kappa-adic precision M_work (default: {shown})")

    def grid(sp):
        sp.add_argument("--coeff-mod", type=positive, default=1, dest="coeff_mod",
                        help="grid of coefficients mod P^coeff-mod (default: %(default)s)")
        sp.add_argument("--budget", type=positive, default=DEFAULT_BUDGET,
                        help="most grid points, units or moves to enumerate (default: %(default)s)")

    sp = command("jacobi", cmd_jacobi, "compute the Jacobi ideal exponent lambda")
    gamma(sp)
    m_work(sp, "3(i+p)+12")

    sp = command("build", cmd_build, "build S_(i,m)(gamma) and verify maximal class")
    gamma(sp)
    sp.add_argument("--m", type=natural, help="level m of the quotient")
    m_work(sp, "max(m+2(p-1), 3(i+p)+12)")

    sp = command("enumerate", cmd_enumerate, "enumerate a frame tree over a coefficient grid")
    sp.add_argument("--i", type=natural, help="level i of the tree's root")
    sp.add_argument("--m-max", type=natural, dest="m_max", help="top level (default: 2i+4)")
    grid(sp)
    m_work(sp, "max(m-max+2(p-1), 3(i+p)+12)")
    sp.add_argument("--out-dot", help="write the tree as Graphviz dot to this file")
    sp.add_argument("--out-json", help="write the tree as JSON to this file")

    sp = command("verify", cmd_verify, "run every verification suite")
    sp.add_argument("--quick", action=argparse.BooleanOptionalAction, default=False,
                    help="fewer samples, no exhaustive Lazard instance (default: %(default)s)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the sampled suites (default: %(default)s)")
    sp.add_argument("--inject-fault", choices=("bch", "epsilon"),
                    help="deliberately corrupt one ingredient to demonstrate detection")

    sp = command("scan-conjecture1", cmd_scan_conjecture1,
                 "evidence scan: lambda over a coefficient grid")
    sp.add_argument("--i-max", type=natural, default=12, dest="i_max",
                    help="scan the levels i = 0..i-max (default: %(default)s)")
    grid(sp)
    m_work(sp, "%(default)s", verify_mod.SCAN_M_WORK)

    sp = sub.add_parser("bch-regen", allow_abbrev=False,
                        help="regenerate the packaged BCH coefficient table")
    sp.set_defaults(run=cmd_bch_regen)
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
            # the file's flags go first, so the explicit ones win
            args = ap.parse_args(argv[:1] + _config_flags(path, subparsers[args.command], argv[1:])
                                 + argv[1:])
        return args.run(args)
    except (BudgetExceeded, PrecisionExhausted) as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (ValueError, NotInHhat, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
