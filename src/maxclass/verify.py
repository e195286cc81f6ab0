"""Verification suites: every quantitative statement, checked at desk scale.

Each suite returns a CheckResult with the violations it found; arithmetic is
exact throughout, so there are no tolerances anywhere.  The fault parameter
deliberately corrupts one ingredient (a BCH coefficient, or the epsilon rule)
to demonstrate that the suites actually detect wrong tables.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cyclotomic import (DEFAULT_BUDGET, CycElt, PrecisionExhausted, PrimeContext, Valuation,
                         enumerate_units)
from .homs import (
    CycFrac,
    GammaCoeffs,
    epsilon,
    gamma_eval,
    images_to_coeffs,
    in_Hhat,
    min_probe_valuation,
    shift_check,
    theta_a_eval,
)
from .isom import IsoMove, apply_move, move_congruent, orbit_canonical, verify_witness
from .lazard import (
    bch_multiply,
    build_bch_table,
    group_commutator,
    group_commutator_closed3,
    group_lcs,
    theta_power_map,
)
from .liering import LieElt, LieRingSpec, check_class_bounds, jacobi_exponent, lcs_profile
from .frame import (SGroup, _coefficient_grid, _line_lambda, classify, quotient_edge,
                    verify_maximal_class)


class CheckResult:
    def __init__(self, name: str, passed: bool, summary: str, violations: list):
        self.name = name
        self.passed = passed
        self.summary = summary
        self.violations = violations

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "summary": self.summary,
                "violations": self.violations}


def _random_element(ctx: PrimeContext, rng: random.Random, depth: int = 2) -> CycElt:
    return ctx.element([rng.randrange(ctx.p ** depth) for _ in range(ctx.d)])


def _random_coset(spec: LieRingSpec, rng: random.Random) -> LieElt:
    """sum a_t kappa^{i+t} over t < m - i, with each a_t drawn from 0..p-1."""
    acc = [0] * spec.ctx.d
    for t in range(spec.m - spec.i):
        a = rng.randrange(spec.ctx.p)
        if a:
            acc = [u + a * v for u, v in zip(acc, spec.kappa_power(spec.i + t).digits)]
    return LieElt(spec, spec._canon(acc))


def _theta2(ctx: PrimeContext, i: int) -> GammaCoeffs:
    """theta_2 alone, the coefficient vector (1, 0, ..., 0), checked to lie in Hhat_i."""
    return GammaCoeffs.from_integers(ctx, i, [1] + [0] * (ctx.l - 1))


def _random_gamma(ctx: PrimeContext, i: int, rng: random.Random,
                  require_hhat: bool = False) -> GammaCoeffs:
    for _ in range(64):
        g = GammaCoeffs(ctx, i, [CycFrac(_random_element(ctx, rng)) for _ in range(ctx.l)],
                        check=False)
        if not require_hhat or in_Hhat(g):
            return g
    # theta_2 always works
    return _theta2(ctx, i)


# ---- image valuations of the elementary homomorphisms ----

def suite_image_valuations(p: int, i_max: int | None = None, fault: str | None = None) -> CheckResult:
    i_max = 3 * p if i_max is None else i_max
    ctx = PrimeContext(p, 2 * i_max + 8)
    kp = [ctx.kappa_power(e) for e in range(i_max + 1)]
    th = [ctx.theta(h) for h in range(p - 1)]
    violations = []
    checked = 0
    for a in range(2, (p - 1) // 2 + 1):
        for i in range(i_max + 1):
            left = [t * kp[i] for t in th]
            for j in range(i_max + 1):
                vals = [theta_a_eval(a, x, kp[j]).valuation() for x in left]
                got = Valuation.minimum(vals)
                eps = epsilon(p, a, i, j)
                if fault == "epsilon":
                    eps = 1 - eps
                want = i + j + eps
                checked += 1
                if not (got.exact and got.value == want):
                    violations.append(f"a={a} i={i} j={j}: min valuation {got!r}, expected {want}")
    return CheckResult("image_valuations", not violations,
                       f"{checked} image valuations over p={p}, i,j <= {i_max}", violations)


# ---- lower bound for images of arbitrary homomorphisms ----

def suite_image_lower_bound(p: int, samples: int = 200, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    ctx = PrimeContext(p, 7 * p + 8)
    violations = []
    for n in range(samples):
        g = _random_gamma(ctx, 0, rng)
        i, j = rng.randrange(3 * p + 1), rng.randrange(3 * p + 1)
        x = ctx.theta(rng.randrange(p - 1)) * ctx.kappa_power(i)
        y = ctx.theta(rng.randrange(p - 1)) * ctx.kappa_power(j)
        v = gamma_eval(g, x, y).valuation()
        if v.bound < i + j - (p - 2):
            violations.append(f"sample {n}: i={i} j={j} valuation {v!r} < {i + j - (p - 2)}")
    return CheckResult("image_lower_bound", not violations,
                       f"{samples} random homomorphism images, bound i+j-(p-2)", violations)


# ---- coefficient coordinates: membership consistency and inversion ----

def suite_coefficient_coordinates(p: int, samples: int = 200, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    ctx = PrimeContext(p, 7 * p + 10)
    violations = []
    roundtrips = 0
    for n in range(samples):
        i = rng.randrange(2 * p + 1)
        g = _random_gamma(ctx, i, rng)
        member = in_Hhat(g)
        probe = min_probe_valuation(g)
        probe_member = probe.exact and probe.value == 2 * i + 1
        if member != probe_member:
            violations.append(f"sample {n}: in_Hhat={member} but probe valuation {probe!r}")
        if n % 4 == 0:
            probes = [(ctx.kappa_power(i + j), ctx.kappa_power(i + j - 1))
                      for j in range(1, ctx.l + 1)]
            images = [gamma_eval(g, x, y) for x, y in probes]
            g2 = images_to_coeffs(ctx, i, images)
            images2 = [gamma_eval(g2, x, y) for x, y in probes]
            for im1, im2 in zip(images, images2):
                prec = min(im1.prec, im2.prec)
                if im1.reduce_to(prec) != im2.reduce_to(prec):
                    violations.append(f"sample {n}: images_to_coeffs round trip failed")
                    break
            else:
                roundtrips += 1
    return CheckResult("coefficient_coordinates", not violations,
                       f"{samples} membership consistency checks, {roundtrips} exact round trips",
                       violations)


# ---- Jacobi exponent: lower bound and shift law ----

def suite_jacobi_exponent(p: int, per_i: int = 2, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    ctx = PrimeContext(p, 13 * p + 10)
    violations = []
    pairs = 0
    for i in range(p - 1, 3 * p + 1):
        gs = [_theta2(ctx, i)]
        gs += [_random_gamma(ctx, i, rng, require_hhat=True) for _ in range(per_i)]
        for g in gs:
            lam = jacobi_exponent(g)
            if lam.bound < 3 * i + 3 - p:
                violations.append(f"i={i}: lambda {lam!r} below 3i+3-p = {3 * i + 3 - p}")
            lam_up = jacobi_exponent(GammaCoeffs(ctx, i + p - 1, g.coeffs, check=False))
            if lam.exact and lam_up.exact:
                pairs += 1
                if lam_up.value != lam.value + 3 * (p - 1):
                    violations.append(
                        f"i={i}: lambda({i + p - 1})={lam_up.value} != lambda({i})+3(p-1)={lam.value + 3 * (p - 1)}")
    return CheckResult("jacobi_exponent", not violations,
                       f"bound and shift law over p-2 < i <= 3p, {pairs} exact shift pairs",
                       violations)


# ---- nilpotency class bounds for the maximal rings ----

def suite_class_bounds(p: int, per_i: int = 1, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    ctx = PrimeContext(p, 13 * p + 10)
    violations = []
    checked = 0
    for i in range(p - 1, 3 * p + 1):
        gs = [_theta2(ctx, i)]
        gs += [_random_gamma(ctx, i, rng, require_hhat=True) for _ in range(per_i)]
        for g in gs:
            lam = jacobi_exponent(g)
            if not lam.exact:
                violations.append(f"i={i}: lambda not exact at working precision")
                continue
            spec = LieRingSpec(g, lam.value, lam=lam)
            report = check_class_bounds(spec)
            checked += 1
            violations.extend(f"i={i}: {v}" for v in report["violations"])
    return CheckResult("class_bounds", not violations,
                       f"{checked} maximal Lie rings over p-2 < i <= 3p", violations)


# ---- Lazard correspondence ----

def _multiplication_table(spec: LieRingSpec, table) -> tuple[list, dict, list[list[int]]]:
    elements = list(spec.enumerate_elements())
    index = {e.digits: n for n, e in enumerate(elements)}
    prod = [[0] * len(elements) for _ in range(len(elements))]
    for ax, x in enumerate(elements):
        for ay, y in enumerate(elements):
            prod[ax][ay] = index[bch_multiply(x, y, table).digits]
    return elements, index, prod


def suite_lazard(p: int, samples: int = 10_000, seed: int = 0, fault: str | None = None,
                 exhaustive: bool = True) -> CheckResult:
    rng = random.Random(seed)
    violations = []
    notes = []

    def corrupt(table):
        if fault == "bch" and table.max_class >= 2:
            # the class-3 associativity defect carries the factor w^2 - 1/4,
            # so the corrupted w must keep that a p-adic unit to be visible
            tree, _ = table.terms[2][0]
            table.terms[2][0] = (tree, Fraction(1))
        return table

    # exhaustive instance: p = 5, L_{1,4}, 125 elements
    if p == 5 and exhaustive:
        ctx = PrimeContext(5, 14)
        g = GammaCoeffs.from_integers(ctx, 1, [1])
        spec = LieRingSpec(g, 4)
        table = corrupt(build_bch_table(max(spec.nilpotency_class, 1), p=5))
        elements, _, prod = _multiplication_table(spec, table)
        n = len(elements)
        bad = 0
        for ax in range(n):
            rowx = prod[ax]
            for ay in range(n):
                rowxy = prod[rowx[ay]]
                rowy = prod[ay]
                for az in range(n):
                    if rowxy[az] != rowx[rowy[az]]:
                        bad += 1
        if bad:
            violations.append(f"exhaustive associativity: {bad} of {n ** 3} triples fail on L_(1,4)")
        notes.append(f"exhaustive {n}^3 triples on L_(1,4)")

    # sampled larger instance: the maximal ring L_{i,lambda} at i = p+2
    ctx = PrimeContext(p, 7 * p + 10)
    i = p + 2
    g = _theta2(ctx, i)
    lam = jacobi_exponent(g)
    m = lam.value
    spec = LieRingSpec(g, m, lam=lam)
    table = corrupt(build_bch_table(max(spec.nilpotency_class, 1), p=p))

    def rnd_elt():
        return _random_coset(spec, rng)

    bad = sum(
        1 for _ in range(samples)
        if bch_multiply(bch_multiply((x := rnd_elt()), (y := rnd_elt()), table), (z := rnd_elt()), table)
        != bch_multiply(x, bch_multiply(y, z, table), table)
    )
    if bad:
        violations.append(f"sampled associativity: {bad} of {samples} triples fail on L_({i},{m})")
    notes.append(f"{samples} sampled triples on L_({i},{m}), class {spec.nilpotency_class}")

    # commutator two-path agreement on all basis pairs of a class-3 truncation
    prof = spec.lcs_profile()
    m3 = prof.exponents[2] + 1 if len(prof.exponents) > 2 else spec.m
    spec3 = LieRingSpec(g, min(m3, lam.value), lam=lam)
    basis = spec3.basis()
    for r in range(len(basis)):
        for s in range(r + 1, len(basis)):
            c1 = group_commutator(basis[r], basis[s], table)
            c2 = group_commutator_closed3(basis[r], basis[s])
            if c1 != c2:
                violations.append(f"commutator paths disagree on basis pair ({r},{s})")
    notes.append(f"two-path commutators on L_({i},{spec3.m}), class {spec3.nilpotency_class}")

    # theta is an automorphism of the group structure, of order p
    x, y = rnd_elt(), rnd_elt()
    if theta_power_map(bch_multiply(x, y, table), 1) != \
            bch_multiply(theta_power_map(x, 1), theta_power_map(y, 1), table):
        violations.append("theta is not a group homomorphism")
    w = x
    for _ in range(p):
        w = theta_power_map(w, 1)
    if w != x:
        violations.append("theta does not have order p")

    # the central series of G(L) and L coincide
    for m_test in {2 * i + 1, m}:
        spec_t = LieRingSpec(g, m_test, lam=lam)
        if group_lcs(spec_t, table) != lcs_profile(spec_t):
            violations.append(f"group and Lie central series differ at m={m_test}")

    return CheckResult("lazard", not violations, "; ".join(notes), violations)


# ---- construction of the maximal-class groups ----

def suite_group_construction(p: int, seed: int = 0) -> CheckResult:
    violations = []
    checked = []
    ctx = PrimeContext(p, 4 * p + 18)
    i = p + 2
    g = _theta2(ctx, i)
    lam = jacobi_exponent(g)
    for m in sorted({i + 1, i + 3, 2 * i + 1, 2 * i + 2, min(lam.value, 3 * i)}):
        spec = LieRingSpec(g, m, lam=lam)
        group = SGroup(spec)
        if group.order_exp != m - i + 1:
            violations.append(f"m={m}: order exponent {group.order_exp} != m-i+1")
        if m - i <= 3:
            count = sum(1 for _ in group.enumerate_elements())
            if count != p ** (m - i + 1):
                violations.append(f"m={m}: brute element count {count} != p^{m - i + 1}")
        if not verify_maximal_class(group):
            violations.append(f"m={m}: maximal-class chain check failed")
        want = "mainline" if m <= 2 * i + 1 else "branch"
        if classify(i, m) != want:
            violations.append(f"m={m}: classified {classify(i, m)}, expected {want}")
        checked.append(m)
    return CheckResult("group_construction", not violations,
                       f"S_({i},m) for m in {checked}, p={p}", violations)


# ---- quotient edges ----

def suite_quotient(p: int, samples: int = 40, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    violations = []
    ctx = PrimeContext(p, 4 * p + 18)
    i = p + 2
    g = _theta2(ctx, i)
    lam = jacobi_exponent(g)
    m = min(lam.value, 2 * i + 4)
    spec = LieRingSpec(g, m, lam=lam)
    group = SGroup(spec)
    target, project = quotient_edge(group)

    def rnd_elt():
        return group.element(_random_coset(spec, rng), rng.randrange(p))

    for n in range(samples):
        x, y = rnd_elt(), rnd_elt()
        if project(group.multiply(x, y)) != target.multiply(project(x), project(y)):
            violations.append(f"sample {n}: truncation is not multiplicative")
            break
    kernel = [group.element(ctx.kappa_power(m - 1) * a, 0) for a in range(p)]
    if len({k.g.digits for k in kernel}) != p:
        violations.append("kernel does not have p distinct elements")
    for k in kernel:
        if not project(k).is_identity():
            violations.append("kernel element does not project to the identity")
        x = rnd_elt()
        if not group.commutator(k, x).is_identity():
            violations.append("kernel element is not central")
    return CheckResult("quotient_edges", not violations,
                       f"{samples} random pairs, kernel of order {p} central, p={p}", violations)


# ---- isomorphism moves and orbits ----

def suite_isomorphism_moves(p: int, moves: int = 100, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    violations = []
    ctx = PrimeContext(p, 6 * p + 16)
    i = p + 2
    m = 2 * i + 3
    units = [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, 2)]
    base = [_theta2(ctx, i)]
    for _ in range(3):
        base.append(_random_gamma(ctx, i, rng, require_hhat=True))

    for n in range(moves):
        c = base[rng.randrange(len(base))]
        mv = IsoMove(units[rng.randrange(len(units))], rng.randrange(1, p))
        c2 = apply_move(c, mv, m)
        if not move_congruent(c, c2, mv, m):
            violations.append(f"move {n}: congruence fails after apply_move")
        if not verify_witness(c, c2, mv, m):
            violations.append(f"move {n}: witness verification fails")
        if n < 20:
            # fault injection: perturb below P^m in a unit direction
            delta = CycFrac(ctx.kappa_power(max(m - (2 * i + 1) - 1, 0)))
            pert = GammaCoeffs(ctx, i, [c2.coeffs[0] + delta] + list(c2.coeffs[1:]), check=False)
            if move_congruent(c, pert, mv, m) or verify_witness(c, pert, mv, m):
                violations.append(f"move {n}: perturbed vector not detected")

    # orbit canonicalization: idempotent, move invariant, matches brute force at M_c = 1
    units1 = [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, 1)]
    for n in range(10):
        c = base[rng.randrange(len(base))]
        can = orbit_canonical(c, 1)
        can2 = orbit_canonical(can, 1)
        if can.key != can2.key:
            violations.append(f"orbit {n}: canonical form not idempotent")
        mv = IsoMove(units1[rng.randrange(len(units1))], rng.randrange(1, p))
        moved = apply_move(c, mv, 1)
        if orbit_canonical(moved, 1).key != can.key:
            violations.append(f"orbit {n}: canonical form not move-invariant")

    if p == 5:
        # all unit residues c_2 mod P fall into orbits; brute-force the partition
        gs = [GammaCoeffs.from_integers(ctx, i, [v], check=False) for v in range(1, p)]
        canon = {orbit_canonical(g, 1).key for g in gs}
        # brute force: saturate each vector under every move
        reach = {}
        for v, g in zip(range(1, p), gs):
            orb = set()
            for u in units1:
                for k in range(1, p):
                    orb.add(apply_move(g, IsoMove(u, k), 1).key)
            reach[v] = frozenset(orb)
        brute = len(set(reach.values()))
        if brute != len(canon):
            violations.append(f"orbit count {len(canon)} != brute-force {brute}")

    return CheckResult("isomorphism_moves", not violations,
                       f"{moves} certified moves at m={m}, orbit canonicalization at M_c=1",
                       violations)


# ---- membership shift i -> i+(p-1) ----

def suite_membership_shift(p: int, samples: int = 30, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    ctx = PrimeContext(p, 8 * p + 10)
    violations = []
    for n in range(samples):
        i = rng.randrange(2 * p + 1)
        g = _random_gamma(ctx, i, rng, require_hhat=True)
        if not shift_check(g):
            violations.append(f"sample {n}: membership lost at i+(p-1) from i={i}")
    return CheckResult("membership_shift", not violations,
                       f"{samples} membership shifts i -> i+(p-1)", violations)


# ---- evidence scan: is the Jacobi ideal ever zero? (non-assertive) ----

SCAN_M_WORK = 60   # the default M_work of scan_conjecture1, and of scan-conjecture1 --m-work


def scan_conjecture1(p: int, i_max: int, coeff_mod: int = 1, m_work: int = SCAN_M_WORK,
                     budget: int = DEFAULT_BUDGET) -> dict:
    """Sweep the coefficient grid and report lambda for every member of Hhat_i.

    AtLeast outcomes, and grid points whose Hhat_i membership is undecided at
    working precision, are flagged as unresolved, never asserted either way;
    exact outcomes are summarized by the slack lambda - (3i+3-p).  lambda comes
    from frame._line_lambda, once per line mod P where its proof allows.
    """
    ctx = PrimeContext(p, m_work)
    lam_of = _line_lambda(coeff_mod)
    entries = []
    unresolved = 0
    slack_hist: dict[int, int] = {}
    for i in range(i_max + 1):
        for coeffs in _coefficient_grid(ctx, coeff_mod, budget):
            g = GammaCoeffs(ctx, i, coeffs, check=False)
            try:
                if not in_Hhat(g):
                    continue
            except PrecisionExhausted:
                unresolved += 1
                entries.append({"i": i, "coeffs": repr(g.key),
                                "lambda": None, "exact": False,
                                "flag": "Hhat_i membership undecided at working precision; "
                                        "raise M_work"})
                continue
            lam = lam_of(g)
            entry = {"i": i, "coeffs": repr(g.key),
                     "lambda": lam.value, "exact": lam.exact}
            if lam.exact:
                if i > p - 2:
                    slack = lam.value - (3 * i + 3 - p)
                    entry["slack"] = slack
                    slack_hist[slack] = slack_hist.get(slack, 0) + 1
            else:
                unresolved += 1
                entry["flag"] = "unresolved at working precision; raise M_work"
            entries.append(entry)
    return {
        "p": p,
        "i_max": i_max,
        "coeff_mod": coeff_mod,
        "m_work": m_work,
        "entries": entries,
        "unresolved_atleast": unresolved,
        "slack_histogram": {str(k): v for k, v in sorted(slack_hist.items())},
        "note": "evidence only: an AtLeast outcome is never asserted as a zero ideal",
    }


def run_all(p: int, quick: bool = False, seed: int = 0, fault: str | None = None) -> list[CheckResult]:
    scale = 10 if quick else 1
    results = [
        suite_image_valuations(p, i_max=(2 * p if quick else None), fault=fault),
        suite_image_lower_bound(p, samples=200 // scale, seed=seed),
        suite_coefficient_coordinates(p, samples=200 // scale, seed=seed),
        suite_jacobi_exponent(p, per_i=max(2 // scale, 1), seed=seed),
        suite_class_bounds(p, per_i=1, seed=seed),
        suite_lazard(p, samples=10_000 // scale, seed=seed, fault=fault, exhaustive=not quick),
        suite_group_construction(p, seed=seed),
        suite_quotient(p, samples=40 // scale + 4, seed=seed),
        suite_isomorphism_moves(p, moves=100 // scale, seed=seed),
        suite_membership_shift(p, samples=30 // scale + 3, seed=seed),
    ]
    return results
