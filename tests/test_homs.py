import random
from fractions import Fraction
from itertools import islice

import pytest

from maxclass import (
    ContextMismatch,
    CycFrac,
    DenominatorCap,
    GammaCoeffs,
    InsufficientValuation,
    MaxclassError,
    NotInHhat,
    PrecisionExhausted,
    PrimeContext,
    Valuation,
    epsilon,
    frame,
    gamma_eval,
    homs,
    images_to_coeffs,
    in_Hhat,
    jacobi_exponent,
    min_probe_valuation,
    o_a,
    shift_check,
    theta_a_eval,
    vandermonde,
)
from maxclass.cyclotomic import DEFAULT_BUDGET
from oracles import o_a as o_a_oracle
import cycelt_route as route


@pytest.fixture(scope="module")
def ctx5():
    return PrimeContext(5, 40)


@pytest.fixture(scope="module")
def ctx7():
    return PrimeContext(7, 44)


def test_o_a_values():
    assert o_a(5, 2) == 4
    assert o_a(7, 3) == 3
    assert o_a(7, 2) == 6
    for p in (5, 7, 11, 13):
        for a in range(2, (p - 1) // 2 + 1):
            assert o_a(p, a) == o_a_oracle(p, a)
    with pytest.raises(ValueError):
        o_a(5, 3)


def test_epsilon():
    assert epsilon(5, 2, 9, 9) == 1
    assert epsilon(5, 2, 9, 7) == 0
    assert epsilon(7, 3, 12, 6) == 1


def test_theta_a_antisymmetric(ctx5):
    x = ctx5.element([1, 2, 3, 1])
    assert theta_a_eval(2, x, x).is_zero()
    y = ctx5.element([0, 3, 1, 2])
    assert (theta_a_eval(2, x, y) + theta_a_eval(2, y, x)).is_zero()
    with pytest.raises(ValueError):
        theta_a_eval(3, x, y)


def test_theta_a_probe_formula(ctx5):
    # theta_a(kappa^{i+j} ^ kappa^{i+j-1}) = u_a^{i+j-1} (theta^a - theta^{1-a})
    i, j = 4, 1
    lhs = theta_a_eval(2, ctx5.kappa_power(i + j), ctx5.kappa_power(i + j - 1))
    u2 = ctx5.kappa_power(1).galois(2) * ctx5.kappa_power(1).galois(4)
    rhs = u2.pow(i + j - 1) * (ctx5.theta(2) - ctx5.theta(4))
    assert (lhs - rhs).is_zero()


def test_theta_a_valuation_rule_p5(ctx5):
    # valuation i+j+1 iff 4 | (i-j), else i+j
    for i, j in [(3, 3), (7, 3), (6, 2), (5, 1), (2, 1), (9, 8)]:
        vals = [theta_a_eval(2, ctx5.theta(h) * ctx5.kappa_power(i), ctx5.kappa_power(j)).valuation()
                for h in range(4)]
        want = i + j + (1 if (i - j) % 4 == 0 else 0)
        assert Valuation.minimum(vals) == Valuation.exactly(want)


def test_gamma_eval_bilinear_equivariant(ctx7):
    rng = random.Random(0)
    g = GammaCoeffs.from_integers(ctx7, 5, [2, 3], check=False)
    for _ in range(20):
        x = ctx7.kappa_power(5) * ctx7.element([rng.randrange(49) for _ in range(6)])
        y = ctx7.kappa_power(5) * ctx7.element([rng.randrange(49) for _ in range(6)])
        assert gamma_eval(g, x, x).is_zero()
        th = ctx7.theta()
        assert (gamma_eval(g, th * x, th * y) - th * gamma_eval(g, x, y)).is_zero()


def test_gammimgs_bound(ctx7):
    rng = random.Random(1)
    for _ in range(60):
        g = GammaCoeffs(ctx7, 0, [CycFrac(ctx7.element([rng.randrange(49) for _ in range(6)]))
                                  for _ in range(2)], check=False)
        i, j = rng.randrange(15), rng.randrange(15)
        v = gamma_eval(g, ctx7.kappa_power(i), ctx7.theta(rng.randrange(6)) * ctx7.kappa_power(j))
        assert v.valuation().bound >= i + j - 5


def test_vandermonde_invariants(ctx7):
    for i in (0, 3, 8):
        vd = vandermonde(ctx7, i)
        for v in vd.V_diag:
            assert v.valuation() == Valuation.exactly(0)
        for u in vd.u:
            assert u.valuation() == Valuation.exactly(2)
        assert (vd.u[0] - vd.u[1]).valuation() == Valuation.exactly(2)
        for idx in range(2):
            assert vd.B[idx][0] == ctx7.one().reduce_to(vd.B[idx][0].prec)


def test_vandermonde_built_once_per_context_and_i(monkeypatch):
    built = []

    class Counted(homs.VandermondeData):
        def __init__(self, ctx, i, *rest):
            built.append((id(ctx), i))
            super().__init__(ctx, i, *rest)

    monkeypatch.setattr(homs, "VandermondeData", Counted)
    ctx, twin = PrimeContext(7, 44), PrimeContext(7, 44)
    for c, i in [(1, 9), (3, 9), (1, 10), (2, 9), (1, 10), (5, 11)] * 3:
        in_Hhat(GammaCoeffs.from_integers(ctx, i, [c, 1], check=False))
    assert sorted(built) == [(id(ctx), 9), (id(ctx), 10), (id(ctx), 11)]
    # an equal context has its own cache; the cached data equals that fresh build
    vd, fresh = vandermonde(ctx, 9), vandermonde(twin, 9)
    assert len(built) == 4 and vd is vandermonde(ctx, 9)
    assert (fresh.V_diag, fresh.B, fresh.u) == (vd.V_diag, vd.B, vd.u)


def test_vandermonde_row_products_formed_once(monkeypatch):
    ctx = PrimeContext(7, 44)
    rng = random.Random(5)
    i = 9
    vd = vandermonde(ctx, i)
    for a in range(ctx.l):
        for j in range(ctx.l):
            want = vd.V_diag[a] * vd.B[a][j]
            assert (vd.VB[a][j].digits, vd.VB[a][j].prec) == (want.digits, want.prec)
    gammas = [GammaCoeffs(ctx, i, [CycFrac(ctx.element([rng.randrange(49) for _ in range(6)]),
                                           rng.randrange(3)) for _ in range(2)], check=False)
              for _ in range(20)]
    # the entries of (c) V_i B, with the products formed on every call
    reference = []
    for g in gammas:
        row = []
        for j in range(ctx.l):
            acc = CycFrac(ctx.zero())
            for a, c in enumerate(g.coeffs):
                acc = acc + c * (vd.V_diag[a] * vd.B[a][j])
            row.append((acc.num.digits, acc.num.prec, acc.den_exp))
        reference.append(row)
    images = [[ctx.kappa_power(2 * i + 1) * ctx.element([rng.randrange(7) for _ in range(6)])
               for _ in range(ctx.l)] for _ in range(5)]
    solved = [images_to_coeffs(ctx, i, imgs).to_json() for imgs in images]

    # VB[a][0] is V_diag[a] itself, so a product is flagged by its two
    # factors: a V_diag entry times a B entry
    diag, row_b = {id(v) for v in vd.V_diag}, {id(x) for row in vd.B for x in row}
    products = []
    real_mul = homs.CycElt.__mul__

    def counted(self, other):
        pair = {id(self), id(other)}
        products.append(bool(pair & diag and pair & row_b))
        return real_mul(self, other)

    monkeypatch.setattr(homs.CycElt, "__mul__", counted)
    for g, row in zip(gammas, reference):
        got = [(e.num.digits, e.num.prec, e.den_exp) for e in homs._row_times_vib(g, vd)]
        assert got == row
        in_Hhat(g)
    assert [images_to_coeffs(ctx, i, imgs).to_json() for imgs in images] == solved
    assert products and not any(products)


def scratch_bracket_precisions(g, i):
    # _bracket_precisions with omega_a read as the valuation bound of theta_a on
    # the basis wedge mod P^M_work, from theta_a_eval (route.basis_thetas)
    ctx, top = g.ctx, g.ctx.M_work
    out, d_max = [top] * (ctx.d * (ctx.d - 1) // 2), max(c.den_exp for c in g.coeffs)
    for a, c in enumerate(g.coeffs):
        if c.num.prec < top and not c.is_zero():
            pi, nu, e = c.num.prec, c.num.valuation().bound, d_max - c.den_exp
            for j, t in enumerate(route.basis_thetas(ctx, i)[0][a]):
                om = t.valuation().bound
                out[j] = min(out[j], pi + om + min(e, nu + om))
    return out


def level_outcome(build, ctx, i):
    try:
        vd = build(ctx, i)
    except PrecisionExhausted as exc:
        return str(exc)
    return vd.V_diag, vd.B, vd.VB, vd.residue_cols, vd.u


@pytest.mark.parametrize("p, m_work", [(5, 20), (5, 60), (7, 20), (7, 60), (11, 20), (11, 60)])
def test_level_tables_equal_scratch_route(p, m_work, monkeypatch):
    # every level 0..M_work+1 of the theta_a quotients and the Vandermonde data,
    # read off level 0 with cached powers, against the tables built from scratch,
    # on fresh contexts visited in increasing, decreasing and shuffled order
    ref, levels = PrimeContext(p, m_work), list(range(m_work + 2))
    shuffled = random.Random(p * m_work).sample(levels, len(levels))
    rng = random.Random(p + m_work)
    # per level, coefficients cut below M_work and coefficients with kappa-denominators
    vectors = {i: [[(rng.randrange(1, p ** 3), rng.randrange(1, m_work), 0) for _ in range(ref.l)],
                   [(rng.randrange(1, p ** 3), rng.choice((rng.randrange(1, m_work), m_work)),
                     rng.randrange(3)) for _ in range(ref.l)]]
               for i in levels}

    def gammas(ctx, i):
        return [GammaCoeffs(ctx, i, [CycFrac(ctx.element([v, v + 1], prec), den) for v, prec, den in vec],
                            check=False) for vec in vectors[i]]

    want = {i: (route.basis_thetas(ref, i)[1], [scratch_bracket_precisions(g, i) for g in gammas(ref, i)],
                level_outcome(route.vandermonde, ref, i)) for i in levels}
    assert sum(isinstance(w[2], str) for w in want.values()) == m_work + 2 - (m_work // 2)

    def boom(*args):
        raise AssertionError("the level tables evaluate no theta_a")

    monkeypatch.setattr(homs, "theta_a_eval", boom)
    for order in (levels, levels[::-1], shuffled):
        ctx = PrimeContext(p, m_work)
        for i in order:
            quotients, precisions, vd = want[i]
            got = homs._basis_quotients(ctx, i)
            assert (got is None) == (i >= m_work) and got == quotients
            assert [homs._bracket_precisions(g) for g in gammas(ctx, i)] == precisions
            # a level that raises raises again, with the same message
            assert level_outcome(vandermonde, ctx, i) == vd == level_outcome(vandermonde, ctx, i)


def row_product_in_hhat(g):
    # the oracle: form (c) V_i B in K by CycFrac products and sums, entry by
    # entry, and read integrality and a unit entry off their valuations
    ctx = g.ctx
    vd = vandermonde(ctx, g.i)
    saw_unit = undecided_unit = False
    for j in range(ctx.l):
        acc = CycFrac(ctx.zero())
        for a, c in enumerate(g.coeffs):
            acc = acc + c * vd.VB[a][j]
        v = acc.valuation()
        if v.exact:
            if v.value < 0:
                return False
            saw_unit = saw_unit or v.value == 0
        else:
            if v.value < 0:
                raise PrecisionExhausted("entry valuation undecidable")
            undecided_unit = undecided_unit or v.value == 0
    if saw_unit:
        return True
    if undecided_unit:
        raise PrecisionExhausted("unit test undecidable")
    return False


def hhat_outcome(decide, g):
    try:
        return decide(g)
    except PrecisionExhausted:
        return "raised"


def reduced_precision_vectors(rng, count):
    # integral vectors with digits beyond digit 0, each coefficient known only
    # mod P^prec, prec in 0 .. M_work; i keeps V_i B formable
    contexts = {}
    for _ in range(count):
        p = rng.choice((5, 7, 11))
        m_work = rng.randrange(5, 61)
        ctx = contexts.setdefault((p, m_work), PrimeContext(p, m_work))
        i = rng.randrange((ctx.M_work - 1) // 2)
        coeffs = []
        for _ in range(ctx.l):
            digits = [rng.randrange(p ** 2) if rng.random() < 0.7 else 0 for _ in range(ctx.d)]
            prec = rng.choice((0, 1, ctx.M_work, rng.randrange(ctx.M_work + 1)))
            coeffs.append(CycFrac(ctx.element(digits, prec)))
        yield GammaCoeffs(ctx, i, coeffs, check=False)


def hhat_grid_cases():
    for m_work in (20, 60):
        ctx = PrimeContext(5, m_work)
        for coeff_mod in (1, 2):
            for i in range(13):
                yield from ((ctx, i, c) for c in frame._coefficient_grid(ctx, coeff_mod, DEFAULT_BUDGET))
    for m_work in (60, 16):
        ctx = PrimeContext(7, m_work)
        for i in range(15):
            yield from ((ctx, i, c) for c in frame._coefficient_grid(ctx, 1, DEFAULT_BUDGET))
    ctx = PrimeContext(11, 60)
    for i in (0, 13):
        yield from ((ctx, i, c) for c in islice(frame._coefficient_grid(ctx, 1, DEFAULT_BUDGET), 121))


def test_in_hhat_agrees_with_the_row_product():
    outcomes = {}
    for ctx, i, coeffs in hhat_grid_cases():
        g = GammaCoeffs(ctx, i, coeffs, check=False)
        want = hhat_outcome(row_product_in_hhat, g)
        assert hhat_outcome(in_Hhat, g) == want, (ctx, i, g)
        outcomes[want] = outcomes.get(want, 0) + 1
    # p = 7 at M_work 16 cannot form V_i B for i >= 8, as at p = 5, M_work 20, i >= 10
    assert set(outcomes) == {True, False, "raised"}
    outcomes = {}
    for g in reduced_precision_vectors(random.Random(15), 1500):
        want = hhat_outcome(row_product_in_hhat, g)
        assert hhat_outcome(in_Hhat, g) == want, g
        outcomes[want] = outcomes.get(want, 0) + 1
    # here V_i B is formed, so every raise is an entry of precision 0
    assert set(outcomes) == {True, False, "raised"} and min(outcomes.values()) >= 50
    # such vectors with kappa-denominators take the row product in K on both sides
    outcomes = {}
    for g in reduced_precision_vectors(random.Random(16), 100):
        g = GammaCoeffs(g.ctx, g.i, [CycFrac(c.num, (n + 1) % 3) for n, c in enumerate(g.coeffs)],
                        check=False)
        want = hhat_outcome(row_product_in_hhat, g)
        assert hhat_outcome(in_Hhat, g) == want, g
        outcomes[want] = outcomes.get(want, 0) + 1
    assert set(outcomes) == {True, False, "raised"}


def test_in_hhat_forms_no_product_on_integral_vectors(monkeypatch):
    built = []

    class Counted(homs.VandermondeData):
        def __init__(self, ctx, i, *rest):
            built.append(i)
            super().__init__(ctx, i, *rest)

    monkeypatch.setattr(homs, "VandermondeData", Counted)
    ctx = PrimeContext(7, 44)
    rng = random.Random(7)
    gammas = [GammaCoeffs(ctx, i, [CycFrac(ctx.element([rng.randrange(49) for _ in range(6)],
                                                       rng.randrange(45))) for _ in range(2)],
                          check=False)
              for i in (9, 10) for _ in range(30)]
    want = [hhat_outcome(row_product_in_hhat, g) for g in gammas]
    cols = {i: vandermonde(ctx, i).residue_cols for i in (9, 10)}
    vb = {id(x) for i in (9, 10) for row in vandermonde(ctx, i).VB for x in row}
    formed, vb_read = [], []
    real_mul, real_add, real_val = homs.CycElt.__mul__, homs.CycElt.__add__, homs.CycElt.valuation

    def mul(self, other):
        formed.append("mul")
        return real_mul(self, other)

    def add(self, other):
        formed.append("add")
        return real_add(self, other)

    def valuation(self):
        if id(self) in vb:
            vb_read.append(self)
        return real_val(self)

    monkeypatch.setattr(homs.CycElt, "__mul__", mul)
    monkeypatch.setattr(homs.CycElt, "__add__", add)
    monkeypatch.setattr(homs.CycElt, "valuation", valuation)
    assert [hhat_outcome(in_Hhat, g) for g in gammas] == want
    assert set(want) == {True, False, "raised"}
    assert formed == [] and vb_read == []
    assert built == [9, 10] and all(vandermonde(ctx, i).residue_cols is cols[i] for i in (9, 10))


def test_v_a_factor_is_the_diagonal_entry(ctx7):
    # the probe-wedge factor v_a in kappa^{2i+1} v_a u_a^{j-1} is the V_i diagonal
    i = 4
    vd = vandermonde(ctx7, i)
    for idx, a in enumerate((2, 3)):
        for j in (1, 2):
            lhs = theta_a_eval(a, ctx7.kappa_power(i + j), ctx7.kappa_power(i + j - 1))
            rhs = ctx7.kappa_power(2 * i + 1) * vd.V_diag[idx] * vd.u[idx].pow(j - 1)
            assert lhs.congruent(rhs, min(lhs.prec, rhs.prec))


def test_in_hhat_examples(ctx5, ctx7):
    g0 = GammaCoeffs.from_integers(ctx5, 7, [0], check=False)
    assert not in_Hhat(g0)
    for i in (0, 1, 5, 7, 12):
        g = GammaCoeffs.from_integers(ctx5, i, [1])
        assert in_Hhat(g)
    assert in_Hhat(GammaCoeffs.from_integers(ctx7, 5, [0, 1]))


def test_in_hhat_probe_consistency(ctx7):
    rng = random.Random(2)
    for _ in range(40):
        i = rng.randrange(10)
        g = GammaCoeffs(ctx7, i, [CycFrac(ctx7.element([rng.randrange(49) for _ in range(6)]))
                                  for _ in range(2)], check=False)
        probe = min_probe_valuation(g)
        assert in_Hhat(g) == (probe.exact and probe.value == 2 * i + 1)


def test_hhat_constructor_rejects(ctx5):
    with pytest.raises(NotInHhat):
        GammaCoeffs.from_integers(ctx5, 7, [0])
    with pytest.raises(NotInHhat):
        GammaCoeffs.from_integers(ctx5, 7, [5])  # 5 = p lands in P


def test_images_to_coeffs_round_trip(ctx7):
    rng = random.Random(3)
    i = 5
    probes = [(ctx7.kappa_power(i + j), ctx7.kappa_power(i + j - 1)) for j in (1, 2)]
    for _ in range(15):
        g = GammaCoeffs.from_integers(ctx7, i,
                                      [rng.randrange(49), rng.randrange(49)], check=False)
        images = [gamma_eval(g, x, y) for x, y in probes]
        g2 = images_to_coeffs(ctx7, i, images)
        images2 = [gamma_eval(g2, x, y) for x, y in probes]
        for a, b in zip(images, images2):
            prec = min(a.prec, b.prec)
            assert a.reduce_to(prec) == b.reduce_to(prec)


def test_images_to_coeffs_single(ctx5):
    i = 7
    g = images_to_coeffs(ctx5, i, [ctx5.kappa_power(2 * i + 1)])
    vinv = vandermonde(ctx5, i).V_diag[0].unit_inverse()
    assert g.coeffs[0].den_exp == 0
    assert (g.coeffs[0].num - vinv.reduce_to(g.coeffs[0].num.prec)).is_zero()
    assert in_Hhat(g)


def test_images_to_coeffs_denominator_cap(ctx7):
    # solutions carry kappa-denominators at most l(l-1)
    rng = random.Random(4)
    i = 3
    cap = ctx7.l * (ctx7.l - 1)
    for _ in range(10):
        images = [ctx7.kappa_power(2 * i + 1) * ctx7.element([rng.randrange(7) for _ in range(6)])
                  for _ in range(2)]
        try:
            g = images_to_coeffs(ctx7, i, images)
        except PrecisionExhausted:
            continue
        for c in g.coeffs:
            assert c.den_exp <= cap


def test_images_must_lie_in_target_ideal(ctx5):
    with pytest.raises(InsufficientValuation):
        images_to_coeffs(ctx5, 7, [ctx5.kappa_power(3)])


def test_shift_check(ctx5, ctx7, monkeypatch):
    rng = random.Random(5)
    assert shift_check(GammaCoeffs.from_integers(ctx5, 3, [1]))
    # membership is tested at g.i, then on the same coefficients at g.i + p - 1
    g, levels, real = GammaCoeffs.from_integers(ctx5, 3, [2]), [], homs.in_Hhat
    monkeypatch.setattr(homs, "in_Hhat", lambda g: levels.append((g.i, g.key)) or real(g))
    assert shift_check(g) and levels == [(3, g.key), (7, g.key)]
    monkeypatch.undo()
    for _ in range(10):
        i = rng.randrange(8)
        g = GammaCoeffs(ctx7, i, [CycFrac(ctx7.element([rng.randrange(49) for _ in range(6)]))
                                  for _ in range(2)], check=False)
        if in_Hhat(g):
            assert shift_check(g)
    with pytest.raises(NotInHhat):
        shift_check(GammaCoeffs.from_integers(ctx5, 7, [0], check=False))


def test_cycfrac_canonical_and_inverse(ctx5):
    q = CycFrac(ctx5.kappa_power(3), 2)  # kappa^3/kappa^2 -> kappa
    assert q.den_exp == 0 and q.num == ctx5.kappa_power(1, q.num.prec)
    w = CycFrac(ctx5.one() + ctx5.kappa_power(1), 3)
    wi = w.inverse()
    prod = w * wi
    assert prod.den_exp == 0
    assert prod.num == ctx5.one().reduce_to(prod.num.prec)
    z = CycFrac(ctx5.zero(), 4)
    assert z.den_exp == 0 and z.is_zero()


def test_cycfrac_valuation_reuses_the_numerators_without_a_denominator(ctx5):
    # den_exp 0: the numerator's cached Valuation itself; otherwise shifted by den_exp
    for num in (ctx5.from_int(3), ctx5.kappa_power(3), ctx5.zero(7)):
        c = CycFrac(num)
        assert c.valuation() is c.num.valuation()
    q = CycFrac(ctx5.one() + ctx5.kappa_power(1), 3)
    assert q.valuation() == Valuation.exactly(-3)


def test_cycfrac_galois_respects_denominator(ctx5):
    # sigma_k(num/kappa^d) * sigma_k(kappa)^d == sigma_k(num)
    q = CycFrac(ctx5.one() + ctx5.kappa_power(2), 2)
    for k in (2, 3):
        lhs = q.galois(k) * ctx5.kappa_power(1).galois(k).pow(q.den_exp)
        diff = lhs - CycFrac(q.num.galois(k))
        assert diff.is_zero() or diff.valuation().bound >= 30


def test_cycfrac_galois_memoised(ctx5):
    # each sigma_k is computed once per fraction and equals the direct formula;
    # only an integer without a kappa-denominator is its own image
    kappa = ctx5.kappa_power(1)
    for q, fixed in ((CycFrac(ctx5.from_int(3)), True), (CycFrac(ctx5.from_int(3).reduce_to(5)), True),
                     (CycFrac(ctx5.one() + kappa), False), (CycFrac(ctx5.from_int(3), 2), False),
                     (CycFrac(ctx5.one() + ctx5.kappa_power(2), 2), False)):
        assert q.is_galois_fixed() is fixed
        for k in range(1, 5):
            img = q.galois(k)
            assert q.galois(k) is img and (img is q) is fixed
            want = q.num.galois(k)
            if q.den_exp:
                s_k = kappa.galois(k).div_kappa(1)
                want = want * s_k.unit_inverse().pow(q.den_exp)
            assert (img.num.digits, img.num.prec, img.den_exp) == (want.digits, want.prec, q.den_exp)
        with pytest.raises(ValueError):
            q.galois(5)


def test_cycfrac_galois_keeps_the_numerator_precision():
    # s_k = sigma_k(kappa)/kappa is a fixed unit known mod P^(M_work-1), so a
    # kappa-denominator costs the image no precision below M_work
    ctx = PrimeContext(7, 30)
    assert CycFrac(ctx.element([1, 2], 10), 2).galois(2).num.prec == 10
    for prec in (1, 2, 10, 29, 30):
        num = ctx.element([1, 2], prec)
        for k in range(2, 7):
            img = CycFrac(num, 2).galois(k)
            assert (img.num.prec, img.den_exp) == (min(prec, 29), 2)
            s_k = ctx.kappa_power(1).galois(k).div_kappa(1)
            assert (img.num * s_k.pow(2)).congruent(num.galois(k), img.num.prec)


def test_denominator_cap_enforced(ctx5):
    with pytest.raises(DenominatorCap):
        GammaCoeffs(ctx5, 7, [CycFrac(ctx5.one(), 9)], check=False)


@pytest.mark.parametrize("den_exp", [-1, 1.5, True, "1"])
def test_cycfrac_from_json_refuses_a_bad_den_exp(ctx7, den_exp):
    # a negative den_exp made galois raise "pow needs n >= 0" later
    obj = {"num": ctx7.one().to_json(), "den_exp": den_exp}
    with pytest.raises(ValueError, match=f"^den_exp must be an int >= 0, got {den_exp!r}$"):
        CycFrac.from_json(ctx7, obj)
    q = CycFrac.from_json(ctx7, dict(obj, den_exp=2))
    assert q.den_exp == 2 and q.num == ctx7.one()


def test_gamma_serialization(ctx7):
    g = GammaCoeffs.from_integers(ctx7, 5, [4, 1])
    obj = g.to_json()
    g2 = GammaCoeffs.from_json(ctx7, obj)
    assert all((a.num - b.num).is_zero() and a.den_exp == b.den_exp
               for a, b in zip(g.coeffs, g2.coeffs))


def quotient_outcome(f, g):
    """The (digits, precision) of each quotient f(g) gives, in pair order, or the class and message of its error."""
    try:
        return [(e.digits, e.prec) for e in f(g)]
    except MaxclassError as exc:
        return type(exc), str(exc)


def ring_route_quotients(g):
    # the ring route: every basis bracket by CycElt ring operations, then each divided by kappa^i
    return [e.div_kappa(g.i) for e in route.basis_brackets(g, g.i).values()]


def test_bracket_quotients_equal_ring_route():
    # seeded gamma at p = 5, 7, 11, M_work 2..39 and i = 0..M_work+3, with zero
    # coefficients, coefficients known below M_work or of positive valuation, and
    # kappa-denominators up to 4: wherever both routes succeed, the table route
    # gives the ring route's digits and precision.  Where they raise, the error
    # class agrees on every member of Hhat_i; off Hhat_i the table route may
    # raise PrecisionExhausted where the ring route's first division raised
    # InsufficientValuation.  p = 11 takes most of the time, so it is drawn least
    rng = random.Random(20)
    contexts, outcomes = {}, []
    for _ in range(700):
        p, m_work = rng.choice((5, 5, 5, 5, 7, 7, 7, 11)), rng.randrange(2, 40)
        ctx = contexts.setdefault((p, m_work), PrimeContext(p, m_work))
        i = rng.randrange(m_work + 4)
        coeffs = []
        for _ in range(ctx.l):
            if rng.random() < 0.15:
                coeffs.append(CycFrac(ctx.zero()))
                continue
            digits = [rng.randrange(p ** 3) for _ in range(ctx.d)]
            zeros = rng.choice((0, 0, 1, 3))
            digits[:zeros] = [0] * zeros
            prec = m_work if rng.random() < 0.4 else rng.randrange(1, m_work + 1)
            coeffs.append(CycFrac(ctx.element(digits, prec), rng.randrange(5)))
        g = GammaCoeffs(ctx, i, coeffs, check=False, den_cap=4)
        got = quotient_outcome(homs.bracket_quotients, g)
        want = quotient_outcome(ring_route_quotients, g)
        try:
            member = in_Hhat(g)
        except MaxclassError:
            member = False
        raised = isinstance(got, tuple)
        assert raised == isinstance(want, tuple), g
        if not raised:
            assert got == want, g
        elif got[0] is not want[0]:
            assert not member and (got[0], want[0]) == (PrecisionExhausted, InsufficientValuation), g
        outcomes.append((member, raised, i >= m_work))
    assert any(member for member, _, _ in outcomes)
    assert any(raised for _, raised, _ in outcomes) and any(beyond for _, _, beyond in outcomes)
    # a coefficient of another context is refused when the vector is built
    with pytest.raises(ContextMismatch):
        GammaCoeffs(contexts[5, 20], 3, [CycFrac(PrimeContext(5, 21).one())], check=False)


def test_coefficient_of_another_context_is_refused_at_construction():
    # c_2 of the context M_work 61 at precision 60 in a vector at M_work 60: the
    # integral route of jacobi_exponent reads digits alone and would give a
    # lambda, where gamma_eval, in_Hhat and bracket_quotients raise
    ctx, other = PrimeContext(7, 60), PrimeContext(7, 61)
    for check in (False, True):
        with pytest.raises(ContextMismatch):
            GammaCoeffs(ctx, 9, [CycFrac(other.from_int(1, 60)), CycFrac(ctx.from_int(1))],
                        check=check)
    # an equal context held in another object passes, as in a ring operation
    twin = PrimeContext(7, 60)
    g = GammaCoeffs(ctx, 9, [CycFrac(twin.from_int(1)), CycFrac(ctx.from_int(1))], check=False)
    assert jacobi_exponent(g) == Valuation.exactly(30)
