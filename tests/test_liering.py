import random
from itertools import combinations, product
from math import comb
from operator import mul, neg

import pytest

from maxclass import (
    CycElt,
    CycFrac,
    GammaCoeffs,
    LcsProfile,
    LieRingSpec,
    MaxclassError,
    NotInHhat,
    NotNilpotent,
    PrecisionExhausted,
    PrimeContext,
    Valuation,
    check_class_bounds,
    gamma_eval,
    homs,
    images_to_coeffs,
    in_Hhat,
    jacobi_exponent,
    jacobiator,
    lcs_profile,
    liering,
    lower_central_series,
)
from maxclass.frame import _coefficient_grid
import cycelt_route as route
import oracles


@pytest.fixture(scope="module")
def ctx5():
    return PrimeContext(5, 44)


@pytest.fixture(scope="module")
def g5(ctx5):
    return GammaCoeffs.from_integers(ctx5, 7, [1])


def test_lcs_profile_is_a_value():
    # equal and hashed by (exponents, m), and never equal to another class
    a = LcsProfile((3, 5, 6), 6)
    assert a == LcsProfile((3, 5, 6), 6) and hash(a) == hash(((3, 5, 6), 6))
    assert a != LcsProfile((3, 5, 6), 7) and a != LcsProfile((3, 5), 6)
    assert a != ((3, 5, 6), 6) and a.__eq__(((3, 5, 6), 6)) is NotImplemented
    assert len({a, LcsProfile((3, 5, 6), 6), LcsProfile((3, 5), 6)}) == 2
    assert repr(a) == "LcsProfile([3, 5, 6], m=6, class=2)"


def test_jacobiator_alternating(ctx5, g5):
    x, y, z = ctx5.kappa_power(7), ctx5.kappa_power(8), ctx5.kappa_power(9)
    assert jacobiator(g5, x, x, z).is_zero()
    assert (jacobiator(g5, x, y, z) + jacobiator(g5, y, x, z)).is_zero()


def test_jacobi_exponent_pinned_against_oracle(ctx5):
    # frozen by the exact Z[theta] oracle: lambda(i) = 3i+3 for every unit c_2
    for i in (1, 4, 7, 11):
        for c in (1, 2, 3):
            g = GammaCoeffs.from_integers(ctx5, i, [c])
            lam = jacobi_exponent(g)
            assert lam == Valuation.exactly(3 * i + 3)
            assert oracles.jacobi_exponent(5, i, {2: c}) == 3 * i + 3


def test_jacobi_exponent_oracle_p7():
    ctx = PrimeContext(7, 60)
    for coeffs, want in [({2: 1}, 27), ({3: 1}, 29), ({2: 1, 3: 1}, 27)]:
        g = GammaCoeffs.from_integers(ctx, 8, [coeffs.get(2, 0), coeffs.get(3, 0)])
        assert jacobi_exponent(g) == Valuation.exactly(want)
        assert oracles.jacobi_exponent(7, 8, coeffs) == want


@pytest.mark.parametrize("p, i, evaluations", [(5, 7, 18), (7, 9, 75)])
def test_jacobi_exponent_brackets_each_basis_pair_once(p, i, evaluations, monkeypatch):
    # integral gamma: the basis triples are contracted from theta_a quotients
    # cached per (context, i), read off the theta_a table with no theta_a_eval
    # and no gamma_eval; the nested route, kept for other
    # gamma, evaluates gamma on the binom(d, 2) basis pairs first, in
    # combinations order, then on three outer wedges per triple
    ctx = PrimeContext(p, 60)
    d = ctx.d
    calls, thetas = [], []
    real_theta = homs.theta_a_eval
    monkeypatch.setattr(liering, "gamma_eval", lambda *a: calls.append(a) or gamma_eval(*a))
    monkeypatch.setattr(homs, "theta_a_eval", lambda *a: thetas.append(a) or real_theta(*a))
    jacobi_exponent(GammaCoeffs.from_integers(ctx, i, [1] + [3] * (ctx.l - 1)))
    assert calls == [] and thetas == []
    jacobi_exponent(GammaCoeffs.from_integers(ctx, i, [2] + [1] * (ctx.l - 1)))
    assert calls == [] and thetas == []
    # probe images give coefficients known below M_work, and at p = 7 kappa-denominators
    images = [ctx.kappa_power(2 * i + 1) * ctx.element(digs)
              for digs in ([1, 2, 0, 3, 0, 1], [2, 0, 1, 0, 4, 0])[:ctx.l]]
    g = images_to_coeffs(ctx, i, images)
    assert any(c.den_exp > 0 for c in g.coeffs) == (p == 7)
    assert all(c.num.prec < ctx.M_work for c in g.coeffs)
    jacobi_exponent(g)
    basis = [ctx.kappa_power(i + r) for r in range(d)]
    assert [(x, y) for _, x, y in calls[:comb(d, 2)]] == [(basis[r], basis[s])
                                                         for r, s in combinations(range(d), 2)]
    assert len(calls) == comb(d, 2) + 3 * comb(d, 3) == evaluations


def nested_jacobiator_lambda(g):
    ctx = g.ctx
    basis = [ctx.kappa_power(g.i + r) for r in range(ctx.d)]
    return Valuation.minimum(jacobiator(g, *(basis[k] for k in rst)).valuation()
                             for rst in combinations(range(ctx.d), 3))


@pytest.mark.parametrize("p, m_work, i", [(5, 44, 7), (5, 20, 12), (7, 40, 9), (7, 24, 9),
                                          (11, 48, 13), (11, 40, 13)])
def test_jacobi_exponent_equals_nested_jacobiators(p, m_work, i):
    # integer vectors, integral vectors with every digit nonzero, at p = 7 probe-image
    # solutions with kappa-denominators, and i >= M_work; M_work = 20, 24 and 40
    # leave lambda undecided (AtLeast)
    ctx = PrimeContext(p, m_work)
    rng = random.Random(p * m_work + i)
    # small coefficients: a sign slip in gamma(z ^ x) shows on vectors such as (0, 1)
    vectors = [[rng.randrange(-3, 4) for _ in range(ctx.l)] for _ in range(12)]
    gammas = [GammaCoeffs.from_integers(ctx, i, v, check=False) for v in vectors if any(v)][:6]
    if p == 7:
        gammas += [images_to_coeffs(ctx, i, [
            ctx.kappa_power(2 * i + 1) * ctx.element([rng.randrange(p) for _ in range(ctx.d)])
            for _ in range(ctx.l)]) for _ in range(4)]
        assert all(any(c.den_exp > 0 for c in g.coeffs) for g in gammas[6:])
    lams = [jacobi_exponent(g) for g in gammas]
    assert lams == [nested_jacobiator_lambda(g) for g in gammas]
    assert all(lam.exact for lam in lams) == (m_work >= {5: 44, 7: 40, 11: 48}[p])
    full = [GammaCoeffs(ctx, i, [CycFrac(ctx.element([rng.randrange(1, p ** 3) for _ in range(ctx.d)]))
                                 for _ in range(ctx.l)], check=False) for _ in range(2)]
    assert all(all(c.num.digits) for g in full for c in g.coeffs)
    assert [jacobi_exponent(g) for g in full] == [nested_jacobiator_lambda(g) for g in full]
    for j, g in zip((m_work, m_work + 5), (gammas[0], full[0])):
        g_j = GammaCoeffs(ctx, j, g.coeffs, check=False)
        assert jacobi_exponent(g_j) == nested_jacobiator_lambda(g_j) == Valuation.at_least(m_work)


def test_jacobi_exponent_equals_nested_jacobiators_on_p5_grid():
    # every point of the grid behind the pinned scan-conjecture1 --p 5 --i-max 12
    # --m-work 20, and of its --coeff-mod 2 grid, Hhat_i members or not: the
    # AtLeast cases of that scan
    ctx = PrimeContext(5, 20)
    lams = []
    for i, coeff_mod in product(range(13), (1, 2)):
        for coeffs in _coefficient_grid(ctx, coeff_mod, 100_000):
            g = GammaCoeffs(ctx, i, coeffs, check=False)
            lams.append(jacobi_exponent(g))
            assert lams[-1] == nested_jacobiator_lambda(g)
    assert any(not lam.exact for lam in lams) and any(lam.exact for lam in lams)


def divided_brackets(g):
    """C[r][s] = gamma(kappa^{i+r} ^ kappa^{i+s})/kappa^i by pair r < s, i = g.i, as digits mod
    P^{M_work-i}: the ring route's basis_brackets(g) divided by kappa^i, so no numerator_table is read."""
    return [e.div_kappa(g.i).digits for e in route.basis_brackets(g).values()]


def full_contraction(g, rows=None):
    """lambda of an integral gamma from every basis triple, and each triple's residue valuation.

    jacobi_exponent's contraction before the floor order and the early stop, kept
    as the oracle: J(r, s, t)/kappa^i mod P^{M_work-i} contracted on rows, by
    default divided_brackets(g), for all binom(p-1, 3) triples, i = g.i, with no early stop.
    """
    ctx, d, i = g.ctx, g.ctx.d, g.i
    n = ctx.M_work - i
    if n <= 0:
        return Valuation.at_least(ctx.M_work), {}
    table = [[(0,) * d for _ in range(d)] for _ in range(d)]
    for (r, s), e in zip(combinations(range(d), 2), divided_brackets(g) if rows is None else rows):
        table[r][s] = e
        table[s][r] = tuple(map(neg, e))
    # cols[t][k]: digit k of C[u][t], as a tuple over u
    cols = [tuple(zip(*(row[t] for row in table))) for t in range(d)]
    vals = {}
    for r, s, t in combinations(range(d), 3):
        x = table[r][s] + table[s][t] + table[t][r]
        jac = [sum(map(mul, x, a + b + c)) for a, b, c in zip(cols[t], cols[r], cols[s])]
        vals[r, s, t] = CycElt(ctx, ctx._canonical(jac, n), n).valuation()
    v = Valuation.minimum(vals.values())
    return Valuation.exactly(i + v.value) if v.exact else Valuation.at_least(ctx.M_work), vals


def floors_met(g, rows=None):
    """jacobi_exponent equals the full contraction on rows, exact or AtLeast; returns
    the triples whose exact residue valuation is the floor 2i + r + s + t, after
    asserting that none lies below it."""
    want, vals = full_contraction(g, rows)
    assert jacobi_exponent(g) == want, g
    floors = {rst: 2 * g.i + sum(rst) for rst in vals}
    assert all(v.value >= floors[rst] for rst, v in vals.items() if v.exact), g
    return want, [rst for rst, v in vals.items() if v.exact and v.value == floors[rst]]


def scan_members(p, m_work, i_max, coeff_mod):
    """The decided Hhat_i members of the scan-conjecture1 grid, by level i <= i_max."""
    ctx = PrimeContext(p, m_work)
    for i in range(i_max + 1):
        for coeffs in _coefficient_grid(ctx, coeff_mod, 100_000):
            g = GammaCoeffs(ctx, i, coeffs, check=False)
            try:
                if in_Hhat(g):
                    yield g
            except PrecisionExhausted:
                continue


@pytest.mark.parametrize("p, m_work, i_max, coeff_mod, members, atleast", [
    (5, 20, 12, 1, 40, 16), (5, 20, 12, 2, 200, 80), (5, 60, 12, 1, 52, 0), (5, 60, 12, 2, 260, 0),
    (7, 60, 14, 1, 630, 0), (7, 60, 14, 2, 30870, 0)])
def test_jacobi_exponent_equals_full_contraction_on_scan_grids(monkeypatch, p, m_work, i_max,
                                                               coeff_mod, members, atleast):
    # every decided member, its table walked in floor order with the early stop;
    # the floor 2i + r + s + t of the lemma holds on every triple, and is met on some.
    # This tests the walk: the route and the oracle contract one table per gamma,
    # its numerator_table, built once.  The tests that run the route unpatched,
    # and test_bracket_table_is_divided_basis_brackets, compare that table with
    # the divided brackets of the ring route, which cost several numerator_tables
    rows = {}
    monkeypatch.setattr(liering, "numerator_table", lambda g: rows[g])
    lams, met = [], 0
    for g in scan_members(p, m_work, i_max, coeff_mod):
        rows.clear()
        rows[g] = homs.numerator_table(g)
        lam, at_floor = floors_met(g, rows[g])
        lams.append(lam)
        met += bool(at_floor)
    assert (len(lams), sum(not lam.exact for lam in lams)) == (members, atleast)
    assert met > 0


@pytest.mark.parametrize("p, m_work", [(5, 20), (5, 44), (7, 24), (7, 60), (11, 40), (11, 84)])
def test_jacobi_exponent_equals_full_contraction_off_the_grid(p, m_work):
    # seeded integer vectors with large entries and zeros, and integral vectors
    # with every digit drawn, at levels from 0 to past M_work
    ctx = PrimeContext(p, m_work)
    rng = random.Random(17 * p + m_work)
    lams = []
    for _ in range(12 if p == 11 else 40):
        i = rng.randrange(m_work + 2)
        ints = [rng.choice([0, rng.randrange(-p ** 4, p ** 4)]) for _ in range(ctx.l)]
        digits = [CycFrac(ctx.element([rng.randrange(p ** 3) for _ in range(ctx.d)]))
                  for _ in range(ctx.l)]
        for g in (GammaCoeffs.from_integers(ctx, i, ints, check=False),
                  GammaCoeffs(ctx, i, digits, check=False)):
            assert g.is_integral()
            lams.append(floors_met(g)[0])
    assert any(lam.exact for lam in lams) and any(not lam.exact for lam in lams)


def test_jacobi_exponent_walks_triples_in_floor_order(monkeypatch):
    # the residues jacobi_exponent forms are those of the listed triples, in
    # order.  lambda = 3i+3 is the floor of (0, 1, 2), so nothing after it is
    # walked; at lambda = 3i+5, (0, 1, 3) has the floor 2i+4 < 2i+5.  At p = 7,
    # i = 3 the residue of (0, 1, 2) lies above its floor and (0, 2, 3) is walked
    # before (0, 1, 5), which lexicographic order would stop at; at p = 11 the
    # floors interleave further.  Each lambda contracts one numerator_table,
    # built afresh
    residues, tables = [], []
    monkeypatch.setattr(liering, "CycElt", lambda *a: residues.append(CycElt(*a)) or residues[-1])
    monkeypatch.setattr(liering, "numerator_table",
                        lambda *a: tables.append(a) or homs.numerator_table(*a))
    cases = [
        (7, 9, [1, 3], 30, [(0, 1, 2)]),
        (7, 8, [0, 1], 29, [(0, 1, 2), (0, 1, 3)]),
        (7, 3, [1, 2], 15, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)]),
        (11, 0, [1, 2, 8, 4], 8, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 1, 5), (0, 2, 4),
                                  (1, 2, 3), (0, 1, 6), (0, 2, 5), (0, 3, 4), (1, 2, 4)])]
    for p, i, coeffs, lam, walked in cases:
        ctx = PrimeContext(p, 60)
        g = GammaCoeffs.from_integers(ctx, i, coeffs, check=False)
        residues.clear()
        assert jacobi_exponent(g) == Valuation.exactly(lam)
        want, vals = full_contraction(g)
        assert want == Valuation.exactly(lam)
        assert [e.valuation() for e in residues] == [vals[rst] for rst in walked]
    h = GammaCoeffs(ctx, 9, [ctx.element([1, 1]), ctx.from_int(3)] + [ctx.zero()] * (ctx.l - 2))
    assert jacobi_exponent(h) == full_contraction(GammaCoeffs(ctx, 9, h.coeffs))[0]
    assert len(tables) == len(cases) + 1


def test_jacobi_lower_bound_and_shift(ctx5, g5):
    lam7 = jacobi_exponent(g5)
    assert lam7.value >= 3 * 7 + 3 - 5
    g11 = GammaCoeffs.from_integers(ctx5, 11, [1])
    assert jacobi_exponent(g11).value == lam7.value + 12


def test_spec_construction_guards(ctx5, g5):
    with pytest.raises(ValueError):
        LieRingSpec(g5, 25)  # m > lambda = 24
    with pytest.raises(ValueError):
        LieRingSpec(g5, 6)  # m < i
    with pytest.raises(NotInHhat):
        LieRingSpec(GammaCoeffs.from_integers(ctx5, 7, [0], check=False), 10)
    from maxclass import PrecisionExhausted
    # an unchecked gamma on a context too short for P^12: the M_work guard, not
    # the Hhat_7 test, which would need P^15
    with pytest.raises(PrecisionExhausted, match=r"^M_work=10 cannot represent cosets mod P\^12$"):
        LieRingSpec(GammaCoeffs.from_integers(PrimeContext(5, 10), 7, [1], check=False), 12)
    # the ring's context and level are its gamma's
    spec = LieRingSpec(g5, 20)
    assert spec.ctx is g5.ctx and spec.i == g5.i == 7
    assert (spec.truncate(9).ctx, spec.truncate(9).i) == (g5.ctx, 7)


def test_bracket_identities(ctx5, g5):
    spec = LieRingSpec(g5, 24)
    basis = spec.basis()
    for x in basis:
        assert x.bracket(x).is_zero()
    for r, s, t in combinations(range(4), 3):
        x, y, z = basis[r], basis[s], basis[t]
        jac = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y)))
        assert jac.is_zero()
    th = ctx5.theta()
    x, y = basis[0], basis[1]
    assert spec.element(th * x.value).bracket(spec.element(th * y.value)) == \
        spec.element(th * x.bracket(y).value)


def test_lcs_profile_pinned(ctx5, g5):
    spec = LieRingSpec(g5, 24)
    prof = spec.lcs_profile()
    assert prof.exponents == (7, 15, 23, 24)
    assert prof.nilpotency_class == 3
    assert oracles.lcs_chain(5, 7, {2: 1}, 24)[:3] == [7, 15, 23]


def test_lcs_w2_and_increments(ctx5):
    rng = random.Random(0)
    for i in (5, 8, 10):
        g = GammaCoeffs.from_integers(ctx5, i, [1 + rng.randrange(4)])
        lam = jacobi_exponent(g)
        spec = LieRingSpec(g, min(lam.value, ctx5.M_work - 6), lam=lam)
        prof = spec.lcs_profile()
        assert prof.exponents[1] == 2 * i + 1
        for w, w_next in zip(prof.exponents[1:], prof.exponents[2:]):
            if w_next < spec.m:  # the final exponent is clamped at m
                assert w_next >= w + i - 3


def test_lcs_prefix_property(ctx5, g5):
    lam = jacobi_exponent(g5)
    full = LieRingSpec(g5, 24, lam=lam).lcs_profile()
    short = LieRingSpec(g5, 16, lam=lam).lcs_profile()
    clamped = tuple(min(w, 16) for w in full.exponents[:len(short.exponents)])
    assert short.exponents == clamped


@pytest.mark.parametrize("p, i", [(5, 7), (7, 9)])
def test_truncate_equals_fresh_spec(p, i, monkeypatch):
    # gamma = theta_2; lambda = 24 at (5, 7) and 32 at (7, 9)
    ctx = PrimeContext(p, 44)
    g = GammaCoeffs.from_integers(ctx, i, [1] + [0] * (ctx.l - 1))
    lam = jacobi_exponent(g)
    assert lam.exact
    cached = LieRingSpec(g, lam.value, lam=lam)
    cached.lcs_profile()
    lazy = LieRingSpec(g, lam.value, lam=lam)
    chain = oracles.lcs_chain(p, i, {2: 1}, lam.value)
    fresh = {m: LieRingSpec(g, m, lam=lam) for m in range(i, lam.value + 1)}

    def boom(*args):
        raise AssertionError("truncate must not recompute Hhat_i membership or lambda")

    monkeypatch.setattr(liering, "in_Hhat", boom)
    monkeypatch.setattr(liering, "jacobi_exponent", boom)
    for m, spec in fresh.items():
        want = lcs_profile(spec)
        assert want.exponents == tuple(w for w in chain if w < m) + (m,)
        for top in (cached, lazy):
            cut = top.truncate(m)
            assert cut == spec and hash(cut) == hash(spec)
            assert cut.gamma is g and cut.lam == lam
            assert cut.lcs_profile() == want
    for m in (i - 1, lam.value + 1):
        with pytest.raises(ValueError):
            cached.truncate(m)
    with pytest.raises(ValueError):
        cached.truncate(i + 3).truncate(i + 4)


def test_abelian_truncation_class_1(ctx5, g5):
    spec = LieRingSpec(g5, 15)
    assert spec.lcs_profile().nilpotency_class == 1
    assert spec.lcs_profile().exponents == (7, 15)


def test_class_bounds_report(ctx5, g5):
    spec = LieRingSpec(g5, 24)
    rep = check_class_bounds(spec)
    assert rep["class"] == 3
    assert rep["violations"] == []
    assert rep["lambda"] == 24
    # p = 5, i > 5: 3 + 2/(i-3) < 4 so class must be exactly 3
    assert rep["bounds"]["class_exactly_3"] is True
    assert rep["bounds"]["general"] == "7/2"

    def has_float(obj):
        if isinstance(obj, dict):
            return any(has_float(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return any(has_float(v) for v in obj)
        return isinstance(obj, float)

    assert not has_float(rep)


def test_class_bounds_preconditions(ctx5):
    g = GammaCoeffs.from_integers(ctx5, 2, [1])
    lam = jacobi_exponent(g)
    spec = LieRingSpec(g, min(lam.value, 9), lam=lam)
    with pytest.raises(ValueError):
        check_class_bounds(spec)


def test_enumerate_elements(ctx5, g5):
    spec = LieRingSpec(g5, 10)
    els = list(spec.enumerate_elements())
    assert len(els) == 125 and len(set(els)) == 125
    for e in els:
        assert e.valuation().bound >= 7


def test_element_valuation_guard(ctx5, g5):
    spec = LieRingSpec(g5, 12)
    with pytest.raises(ValueError):
        spec.element(ctx5.kappa_power(3))
    x = spec.element(ctx5.kappa_power(12))
    assert x.is_zero()


def test_lower_central_series_guards():
    step = lambda w: Valuation.exactly(w + 2)  # noqa: E731
    assert lower_central_series(3, 6, step) == LcsProfile((3, 5, 6), 6)
    assert lower_central_series(3, 6, lambda w: Valuation.at_least(6)).exponents == (3, 6)
    with pytest.raises(NotNilpotent):
        lower_central_series(3, 6, lambda w: Valuation.exactly(w))
    with pytest.raises(PrecisionExhausted):
        lower_central_series(3, 6, lambda w: Valuation.at_least(5))


def test_spec_equality_by_value(ctx5):
    a = LieRingSpec(GammaCoeffs.from_integers(ctx5, 7, [1]), 20)
    b = LieRingSpec(GammaCoeffs.from_integers(ctx5, 7, [1]), 20)
    assert a.gamma is not b.gamma
    assert a == b and hash(a) == hash(b)
    x, y = a.basis()[0], b.basis()[1]
    assert x + y == b.element(x.value + y.value)
    assert x.bracket(y) == b.basis()[0].bracket(a.basis()[1])
    c = LieRingSpec(GammaCoeffs.from_integers(ctx5, 7, [2]), 20)
    assert a != c
    with pytest.raises(MaxclassError):
        x + c.basis()[1]
    with pytest.raises(MaxclassError):
        x.bracket(c.basis()[1])
