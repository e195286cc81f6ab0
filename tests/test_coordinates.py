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
    PrecisionExhausted,
    PrimeContext,
    SGroup,
    basis_brackets,
    bch_multiply,
    build_bch_table,
    gamma_eval,
    images_to_coeffs,
    in_Hhat,
    jacobi_exponent,
    liering,
    s_group_lcs,
    theta_power_map,
)
import cycelt_route as route


def theta2_spec(p, i, m_work, m=None):
    ctx = PrimeContext(p, m_work)
    g = GammaCoeffs.from_integers(ctx, i, [1] + [0] * (ctx.l - 1))
    lam = jacobi_exponent(g, i)
    return LieRingSpec(ctx, i, lam.value if m is None else m, g, lam=lam)


def grid_gammas(ctx, i, coeff_mod, count, seed):
    """A seeded sample of the grid vectors mod P^coeff_mod that lie in Hhat_i."""
    residues = [ctx.element(digs) for digs in product(*map(range, ctx.digit_moduli(coeff_mod)))]
    members = []
    for coeffs in product(residues, repeat=ctx.l):
        g = GammaCoeffs(ctx, i, coeffs, check=False)
        if in_Hhat(g, i):
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
        lam = jacobi_exponent(g, i)
        spec = LieRingSpec(ctx, i, min(lam.value, i + 2 * ctx.d + 1), g, lam=lam)
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
        lam = jacobi_exponent(g, i)
        spec = LieRingSpec(ctx, i, min(lam.value, m_max), g, lam=lam)
        table = build_bch_table(max(spec.nilpotency_class, 1), p=p)
        classes.add(spec.nilpotency_class)
        prof = s_group_lcs(SGroup(spec, table))
        assert prof == route.s_group_lcs(spec, table)
        assert prof.exponents == tuple(range(i, spec.m + 1))
    assert classes == {coeff_mod}


def test_table_entry_below_precision_raises():
    # kappa-denominators 2 leave gamma(kappa^9 ^ kappa^10) known only mod P^18
    # at M_work = 20: the ring mod P^20 cannot be built, its quotient mod P^18 can
    rng = random.Random(3)
    hi = PrimeContext(7, 60)
    g_hi = images_to_coeffs(hi, 9, [hi.kappa_power(19) * hi.element(
        [rng.randrange(7) for _ in range(hi.d)]) for _ in range(hi.l)])
    assert max(c.den_exp for c in g_hi.coeffs) == 2
    lam = jacobi_exponent(g_hi, 9)
    assert lam.exact and lam.value >= 20
    ctx = PrimeContext(7, 20)
    g = GammaCoeffs(ctx, 9, [CycFrac(ctx.element(c.num.digits, min(c.num.prec, 20)), c.den_exp)
                             for c in g_hi.coeffs])
    spec = LieRingSpec(ctx, 9, 20, g, lam=lam)
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
    spec = theta2_spec(5, 7, 44)
    fresh = {m: LieRingSpec(spec.ctx, 7, m, spec.gamma, lam=spec.lam) for m in range(7, 25)}
    want = {m: [x.bracket(y) for x, y in combinations(s.basis(), 2)] for m, s in fresh.items()}
    b = spec.basis()
    b[0].bracket(b[1])

    def boom(*args):
        raise AssertionError("truncate must not evaluate gamma")

    monkeypatch.setattr(liering, "gamma_eval", boom)
    monkeypatch.setattr(liering, "basis_brackets", boom)
    for m in range(7, 25):
        cut = spec.truncate(m)
        assert [x.bracket(y) for x, y in combinations(cut.basis(), 2)] == want[m]
    # a truncation built before its top ring fills the shared brackets for both:
    # the binom(4, 2) basis pairs come from one basis_brackets call for the chain
    monkeypatch.undo()
    top = theta2_spec(5, 7, 44)
    calls, made = [], []
    monkeypatch.setattr(liering, "gamma_eval", lambda *a: calls.append(a) or gamma_eval(*a))
    monkeypatch.setattr(liering, "basis_brackets",
                        lambda *a: made.append(basis_brackets(*a)) or made[-1])
    cut = top.truncate(16)
    cut.basis()[0].bracket(cut.basis()[1])
    top.basis()[0].bracket(top.basis()[1])
    assert calls == [] and [len(b) for b in made] == [6]
