"""The coordinate layer of L_{i,m}(gamma), G(L) and S_{i,m}(gamma) against the CycElt route.

Elements are digit tuples of x/kappa^i mod P^{m-i} and the bracket contracts
them with one table of basis brackets; tests/cycelt_route.py keeps the route
that lifts every coset to M_work and calls gamma_eval per bracket.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from maxclass import (
    CycFrac,
    GammaCoeffs,
    LieRingSpec,
    MaxclassError,
    PrecisionExhausted,
    PrimeContext,
    SGroup,
    bch_multiply,
    build_bch_table,
    gamma_eval,
    group_commutator,
    homs,
    images_to_coeffs,
    in_Hhat,
    is_maximal_class_chain,
    jacobi_exponent,
    lcs_profile,
    liering,
    s_group_lcs,
    theta_power_map,
)
import cycelt_route as route


def theta2_spec(p, i, m_work, m=None):
    ctx = PrimeContext(p, m_work)
    g = GammaCoeffs.from_integers(ctx, i, [1] + [0] * (ctx.l - 1))
    lam = jacobi_exponent(g)
    return LieRingSpec(g, lam.value if m is None else m, lam=lam)


def grid_gammas(ctx, i, coeff_mod, count, seed):
    """A seeded sample of the grid vectors mod P^coeff_mod that lie in Hhat_i."""
    residues = [ctx.element(digs) for digs in product(*map(range, ctx.digit_moduli(coeff_mod)))]
    members = []
    for coeffs in product(residues, repeat=ctx.l):
        g = GammaCoeffs(ctx, i, coeffs, check=False)
        if in_Hhat(g):
            members.append(g)
    return random.Random(seed).sample(members, min(count, len(members)))


def random_lift(spec, rng):
    """A random element of P^i at working precision: its digits beyond P^m must drop out."""
    ctx = spec.ctx
    return ctx.kappa_power(spec.i) * ctx.element([rng.randrange(ctx.p ** 12) for _ in range(ctx.d)])


@pytest.mark.parametrize("p, i, m_work", [(5, 7, 44), (7, 9, 60), (11, 13, 84)])
def test_structure_constants_equal_gamma_eval_on_basis_pairs(p, i, m_work):
    spec = theta2_spec(p, i, m_work)
    ctx, n = spec.ctx, spec.m - spec.i
    assert n >= ctx.d   # every basis element kappa^{i+r} is a unit digit vector
    pairs, cols = spec._structure_constants()
    assert pairs == tuple(combinations(range(ctx.d), 2))
    basis = spec.basis()
    for k, (r, s) in enumerate(pairs):
        want = gamma_eval(spec.gamma, ctx.kappa_power(i + r), ctx.kappa_power(i + s))
        entry = tuple(col[k] for col in cols)
        assert entry == ctx._canonical(want.reduce_to(spec.m).div_kappa(i).digits, n)
        got = basis[r].bracket(basis[s])
        assert got.digits == entry
        assert got.value.congruent(want, spec.m)
        assert got.value.digits == route.bracket(
            spec, route.element(spec, ctx.kappa_power(i + r)),
            route.element(spec, ctx.kappa_power(i + s))).digits


@pytest.mark.parametrize("p, i, m_work", [(5, 7, 44), (7, 9, 60)])
def test_ring_operations_agree_with_cycelt_route(p, i, m_work):
    ctx = PrimeContext(p, m_work)
    rng = random.Random(p)
    for g in grid_gammas(ctx, i, 1, 3, seed=p):
        lam = jacobi_exponent(g)
        spec = LieRingSpec(g, min(lam.value, i + 2 * ctx.d + 1), lam=lam)
        for _ in range(25):
            x, y = random_lift(spec, rng), random_lift(spec, rng)
            ex, ey = spec.element(x), spec.element(y)
            rx, ry = route.element(spec, x), route.element(spec, y)
            assert ex.value.digits == rx.digits
            assert (ex + ey).value.digits == route.reduce(spec, rx + ry).digits
            assert (ex - ey).value.digits == route.reduce(spec, rx - ry).digits
            assert (-ex).value.digits == route.reduce(spec, -rx).digits
            q = Fraction(rng.randrange(1, 50), rng.choice([1, 2, 3, 4, 6]))
            assert (ex * q).value.digits == route.reduce(spec, rx.scalar_mul(q)).digits
            assert ex.bracket(ey).value.digits == route.bracket(spec, rx, ry).digits
            assert ex.valuation() == spec.element(rx).valuation()
            t = rng.randrange(p)
            assert theta_power_map(ex, t).value.digits == route.theta_power_map(spec, rx, t).digits


@pytest.mark.parametrize("p, i, m_work, m, cls", [
    (5, 7, 44, 20, 2), (5, 7, 44, 24, 3), (7, 9, 60, 26, 2), (7, 9, 60, 32, 3)])
def test_bch_products_agree_with_cycelt_route(p, i, m_work, m, cls):
    spec = theta2_spec(p, i, m_work, m)
    assert spec.nilpotency_class == cls
    table = build_bch_table(cls, p=p)
    rng = random.Random(m)
    for _ in range(30):
        x, y = random_lift(spec, rng), random_lift(spec, rng)
        got = bch_multiply(spec.element(x), spec.element(y), table)
        want = route.bch_multiply(spec, route.element(spec, x), route.element(spec, y), table)
        assert got.value.digits == want.digits


@pytest.mark.parametrize("p, i, m_max, coeff_mod, count", [(7, 9, 18, 1, 4), (5, 7, 20, 2, 3)])
def test_s_series_agree_with_cycelt_route(p, i, m_max, coeff_mod, count):
    # the enumerate-p7 grid (class 1) and the p = 5 grid mod P^2 (class 2)
    ctx = PrimeContext(p, 60 if p == 7 else 40)
    classes = set()
    for g in grid_gammas(ctx, i, coeff_mod, count, seed=coeff_mod):
        lam = jacobi_exponent(g)
        spec = LieRingSpec(g, min(lam.value, m_max), lam=lam)
        table = build_bch_table(max(spec.nilpotency_class, 1), p=p)
        classes.add(spec.nilpotency_class)
        prof = s_group_lcs(SGroup(spec, table))
        assert prof == route.s_group_lcs(spec, table)
        assert prof.exponents == tuple(range(i, spec.m + 1))
    assert classes == {coeff_mod}


def kappa_denominator_gamma(ctx):
    """The gamma of the --images-json pins: probe images kappa^19 u at p = 7, i = 9."""
    images = [ctx.kappa_power(19) * ctx.element(digs)
              for digs in ([1, 2, 0, 3, 0, 1], [2, 0, 1, 0, 4, 0])]
    g = images_to_coeffs(ctx, 9, images)
    assert any(c.den_exp > 0 for c in g.coeffs) and in_Hhat(g)
    return g


def below_precision_gamma():
    """gamma at M_work = 20 whose bracket gamma(kappa^9 ^ kappa^10) is known only mod P^18."""
    rng = random.Random(3)
    hi = PrimeContext(7, 60)
    g_hi = images_to_coeffs(hi, 9, [hi.kappa_power(19) * hi.element(
        [rng.randrange(7) for _ in range(hi.d)]) for _ in range(hi.l)])
    assert max(c.den_exp for c in g_hi.coeffs) == 2
    lam = jacobi_exponent(g_hi)
    assert lam.exact and lam.value >= 20
    ctx = PrimeContext(7, 20)
    g = GammaCoeffs(ctx, 9, [CycFrac(ctx.element(c.num.digits, min(c.num.prec, 20)), c.den_exp)
                             for c in g_hi.coeffs])
    return g, lam


@pytest.mark.parametrize("case", ["p11-class2", "kappa-denominators"])
def test_s_series_agree_with_cycelt_route_on_pinned_rings(case):
    # the rings of the pinned p = 11 class-2 build and of the class-2 --images-json build
    if case == "p11-class2":
        ctx = PrimeContext(11, 84)
        spec = LieRingSpec(GammaCoeffs.from_integers(ctx, 13, [1, 0, 0, 0]), 32)
    else:
        ctx = PrimeContext(7, 60)
        spec = LieRingSpec(kappa_denominator_gamma(ctx), 24)
    assert spec.nilpotency_class == 2
    table = build_bch_table(2, p=ctx.p)
    prof = s_group_lcs(SGroup(spec, table))
    assert prof == route.s_group_lcs(spec, table)
    assert is_maximal_class_chain(prof)


@pytest.mark.parametrize("p, i, m_work", [(5, 7, 44), (7, 9, 60), (11, 13, 84), (7, 9, 10), (7, 9, 9)])
def test_bracket_table_is_divided_basis_brackets(p, i, m_work):
    # the ring's structure constants at every level m, built fresh or truncated
    # from the top level, are the digits of the ring route's basis brackets
    # divided by kappa^i, mod P^{m-i}: for integral gamma, whose numerator_table
    # they equal, and for gamma with kappa-denominators.  Below M_work = 2i+2 the
    # Hhat_i test runs out of precision, so no ring is built, and at i >= M_work
    # the division too
    ctx = PrimeContext(p, m_work)
    gammas = [GammaCoeffs(ctx, i, [ctx.element([r + 1, 2 * r + 1]) for r in range(1, ctx.l + 1)],
                          check=False)]
    if p == 7 and m_work == 60:
        gammas.append(kappa_denominator_gamma(ctx))
    pairs = tuple(combinations(range(ctx.d), 2))
    for g in gammas:
        if i >= m_work:
            with pytest.raises(PrecisionExhausted):
                route.basis_brackets(g, i)[0, 1].div_kappa(i)
        else:
            quotients = [e.div_kappa(i) for e in route.basis_brackets(g, i).values()]
            if g.is_integral():
                assert homs.numerator_table(g) == [e.digits for e in quotients]
        if m_work < 2 * i + 2:
            with pytest.raises(PrecisionExhausted):
                LieRingSpec(g, i)
            continue
        lam = jacobi_exponent(g)
        top = LieRingSpec(g, lam.value, lam=lam)
        for m in range(i + 1, lam.value + 1):
            assert all(e.prec >= m - i for e in quotients)
            want = (pairs, tuple(zip(*(ctx._canonical(e.digits, m - i) for e in quotients))))
            assert LieRingSpec(g, m, lam=lam)._structure_constants() == want
            assert top.truncate(m)._structure_constants() == want
        with pytest.raises(PrecisionExhausted):
            LieRingSpec(g, m_work + 1, lam=lam)


@pytest.mark.parametrize("m, cls", [(20, 2), (24, 3)])
def test_s_commutators_are_ring_expressions(m, cls):
    # in S = G(L) x| P: [(a, 0), (0, 1)] = ((-a) theta^{-1}(a), 0) and
    # [(a, 0), (b, 0)] = (group_commutator(a, b), 0), the forms s_group_lcs takes
    spec = theta2_spec(5, 7, 44, m)
    assert spec.nilpotency_class == cls
    table = build_bch_table(cls, p=5)
    group = SGroup(spec, table)
    rng = random.Random(m)
    for _ in range(20):
        a, b = spec.element(random_lift(spec, rng)), spec.element(random_lift(spec, rng))
        assert bch_multiply(a, spec.zero(), table) == a
        c = group.commutator(group.element(a), group.p_generator())
        assert c.t == 0 and c.g == bch_multiply(-a, theta_power_map(a, -1), table)
        c = group.commutator(group.element(a), group.element(b))
        assert c.t == 0 and c.g == group_commutator(a, b, table)


def outcome(f, spec):
    """The profile f gives on spec, or the class of the error it raises."""
    try:
        return f(spec)
    except MaxclassError as exc:
        return type(exc)


def images_gammas(count, seed):
    """Seeded images_to_coeffs gamma at p = 5 and 7, with kappa-denominators or short coefficients."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice([5, 7])
        i = rng.choice([p - 1, p + 2])
        ctx = PrimeContext(p, rng.randrange(max(16, 2 * i + 3), 41))
        images = [ctx.kappa_power(2 * i + 1 + rng.choice([0, 0, 1, 2])) * ctx.element(
            [rng.randrange(1, p)] + [rng.randrange(p ** 2) for _ in range(ctx.d - 1)])
            for _ in range(ctx.l)]
        try:
            g = images_to_coeffs(ctx, i, images)
            if in_Hhat(g):
                out.append((g, i, jacobi_exponent(g)))
        except PrecisionExhausted:
            continue
    return out


def lcs_cases():
    """Rings on which the table-based Lie series must equal the gamma_eval route."""
    specs = []
    for p, i, m_work, m_max, coeff_mod, count in [(7, 9, 60, 18, 1, 3), (5, 7, 48, 20, 2, 3)]:
        ctx = PrimeContext(p, m_work)
        for g in grid_gammas(ctx, i, coeff_mod, count, seed=coeff_mod):
            lam = jacobi_exponent(g)
            specs += [LieRingSpec(g, m, lam=lam) for m in range(i, min(lam.value, m_max) + 1)]
    specs.append(theta2_spec(11, 13, 84))
    ctx = PrimeContext(7, 60)
    g = kappa_denominator_gamma(ctx)
    specs += [LieRingSpec(g, m) for m in range(16, 27)]
    for g, i, lam in images_gammas(30, seed=8):
        specs += [LieRingSpec(g, m, lam=lam) for m in range(i, min(lam.value, g.ctx.M_work) + 1)]
    return specs


def test_lcs_profile_equals_gamma_eval_route():
    # the same profile, or the same error, as gamma_eval on every ordered layer pair
    for spec in lcs_cases():
        assert outcome(lcs_profile, spec) == outcome(route.lcs_profile, spec), spec
    g, lam = below_precision_gamma()
    for m in (19, 20):
        spec = LieRingSpec(g, m, lam=lam)
        assert outcome(lcs_profile, spec) is outcome(route.lcs_profile, spec) is PrecisionExhausted


def test_table_entry_below_precision_raises():
    # kappa-denominators 2 leave gamma(kappa^9 ^ kappa^10) known only mod P^18
    # at M_work = 20: the ring mod P^20 cannot be built, its quotient mod P^18 can
    g, lam = below_precision_gamma()
    ctx = g.ctx
    spec = LieRingSpec(g, 20, lam=lam)
    x, y = spec.basis()[:2]
    with pytest.raises(PrecisionExhausted, match="known mod P\\^18 < P\\^20"):
        x.bracket(y)
    with pytest.raises(PrecisionExhausted):
        route.bracket(spec, route.element(spec, ctx.kappa_power(9)),
                      route.element(spec, ctx.kappa_power(10)))
    cut = spec.truncate(18)
    assert cut.basis()[0].bracket(cut.basis()[1]).value.congruent(
        gamma_eval(g, ctx.kappa_power(9), ctx.kappa_power(10)), 18)


def test_truncate_evaluates_no_gamma(monkeypatch):
    # lambda builds one numerator_table, and so does each ring that reads its
    # structure constants: the truncations at m = 8..24 and the top ring, but
    # not the ring at m = i = 7, which has none; no theta_a and no gamma is
    # evaluated on the way, as the quotients theta_a/kappa^7 on the basis
    # wedges are read off the theta_a table
    spec = theta2_spec(5, 7, 44)
    fresh = {m: LieRingSpec(spec.gamma, m, lam=spec.lam) for m in range(7, 25)}
    want = {m: ([x.bracket(y) for x, y in combinations(s.basis(), 2)], lcs_profile(s))
            for m, s in fresh.items()}

    def boom(*args):
        raise AssertionError("integral gamma must not be evaluated")

    built, real = [], homs.numerator_table

    def counted(*args):
        built.append(args)
        return real(*args)

    ctx = PrimeContext(5, 44)
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    monkeypatch.setattr(liering, "numerator_table", counted)
    monkeypatch.setattr(homs, "numerator_table", counted)
    for module in (liering, homs):
        monkeypatch.setattr(module, "gamma_eval", boom)
    monkeypatch.setattr(homs, "theta_a_eval", boom)
    lam = jacobi_exponent(g)
    assert lam == spec.lam and built == [(g,)]
    top = LieRingSpec(g, lam.value, lam=lam)
    for m in range(24, 6, -1):
        cut = top.truncate(m)
        assert [x.bracket(y) for x, y in combinations(cut.basis(), 2)] == want[m][0]
        assert lcs_profile(cut) == want[m][1]
    assert top.lcs_profile() == want[24][1]
    assert built == [(g,)] * (1 + len(range(8, 25)) + 1)
