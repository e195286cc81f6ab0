import random
from itertools import chain, islice

import pytest

from maxclass import (
    BudgetExceeded,
    ContextMismatch,
    CycElt,
    CycFrac,
    GammaCoeffs,
    InsufficientValuation,
    IsoMove,
    MaxclassError,
    NonUnit,
    NotInHhat,
    PrecisionExhausted,
    PrimeContext,
    apply_move,
    enumerate_frame,
    enumerate_units,
    find_certified_move,
    frame,
    gamma_eval,
    images_to_coeffs,
    in_Hhat,
    isom,
    move_congruent,
    orbit_canonical,
    rho,
    theta_a_eval,
    verify_witness,
    witness_map,
)
from maxclass.cyclotomic import DEFAULT_BUDGET
from maxclass.frame import _coefficient_grid
from maxclass import homs, liering
from maxclass.isom import (
    _decidable,
    _integer_congruent,
    _integer_quotients,
    _quotients,
    _witness_differences,
    _zp_units,
)
import cycelt_route as route


@pytest.fixture(scope="module")
def ctx():
    return PrimeContext(5, 40)


@pytest.fixture(scope="module")
def units(ctx):
    return [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, 2)]


I, M = 7, 18


def test_move_validation(ctx):
    with pytest.raises(NonUnit):
        IsoMove(ctx.kappa_power(1), 2)
    with pytest.raises(ValueError):
        IsoMove(ctx.one(), 0)
    IsoMove.identity(ctx)


def test_move_is_a_value(ctx):
    # equal and hashed by (u, k), never equal to another class, and checked
    # at construction: a bad index or a non-unit still raises
    u = ctx.element([2, 1])
    mv = IsoMove(u, 3)
    assert mv == IsoMove(ctx.element([2, 1]), 3) and hash(mv) == hash((u, 3))
    assert mv != IsoMove(u, 2) and mv != IsoMove(u.reduce_to(ctx.M_work - 1), 3)
    assert mv != (u, 3) and mv.__eq__((u, 3)) is NotImplemented
    assert len({mv, IsoMove(ctx.element([2, 1]), 3), IsoMove.identity(ctx)}) == 2
    assert repr(mv) == f"IsoMove(u={u!r}, k=3)" == f"IsoMove(u=CycElt(p=5, digits=[2, 1, 0, 0], prec=40), k=3)"
    for bad_k in (0, ctx.p, -1):
        with pytest.raises(ValueError, match="Galois index"):
            IsoMove(u, bad_k)
    for non_unit in (ctx.kappa_power(1), ctx.zero(), ctx.element([5])):
        with pytest.raises(NonUnit):
            IsoMove(non_unit, 2)


def test_rho_basics(ctx, units):
    assert (rho(2, ctx.one()) - ctx.one()).is_zero()
    assert (rho(2, ctx.theta(3)) - ctx.one()).is_zero()
    u, v = units[3], units[7]
    assert (rho(2, u * v) - rho(2, u) * rho(2, v)).is_zero()
    assert rho(2, u).valuation().value == 0


def test_rho_cached_per_index_and_unit(monkeypatch):
    rng = random.Random(6)
    for p in (5, 7):
        ctx = PrimeContext(p, 30)
        for prec in (1, 4, 17, 30):
            for _ in range(6):
                digits = [rng.randrange(1, p)] + [rng.randrange(p ** 8) for _ in range(ctx.d - 1)]
                u = ctx.element(digits, prec)
                for a in range(2, ctx.l + 2):
                    want = u.unit_inverse() * u.galois(a) * u.galois((1 - a) % p)
                    got = rho(a, u)
                    assert (got.digits, got.prec) == (want.digits, want.prec)
                    # an equal unit built anew hits the same entry
                    assert rho(a, ctx.element(digits, prec)) is got
    inversions = []
    real = CycElt.unit_inverse
    monkeypatch.setattr(CycElt, "unit_inverse", lambda self: inversions.append(self) or real(self))
    ctx = PrimeContext(7, 30)
    u = ctx.element([3, 1, 4, 1, 5, 9], 12)
    first = rho(2, u)
    assert len(inversions) == 1
    assert rho(2, u) is first and rho(2, ctx.element([3, 1, 4, 1, 5, 9], 12)) is first
    assert len(inversions) == 1
    rho(3, u)
    rho(2, u.lift_to(13))
    assert len(inversions) == 3


def test_scaling_identity(ctx, units):
    # theta_a(ux ^ uy) = u rho_a(u) theta_a(x ^ y); the twist rho_a absorbs
    # sigma_a(u) sigma_{1-a}(u) = u rho_a(u)
    rng = random.Random(0)
    for _ in range(10):
        u = units[rng.randrange(len(units))]
        x = ctx.element([rng.randrange(25) for _ in range(4)])
        y = ctx.element([rng.randrange(25) for _ in range(4)])
        lhs = theta_a_eval(2, u * x, u * y)
        rhs = u * rho(2, u) * theta_a_eval(2, x, y)
        assert (lhs - rhs).is_zero()


def test_galois_commutes_with_theta_a(ctx):
    rng = random.Random(1)
    for k in (2, 3, 4):
        x = ctx.element([rng.randrange(25) for _ in range(4)])
        y = ctx.element([rng.randrange(25) for _ in range(4)])
        assert (theta_a_eval(2, x.galois(k), y.galois(k))
                - theta_a_eval(2, x, y).galois(k)).is_zero()


def test_apply_move_identity_and_inverse(ctx, units):
    c = GammaCoeffs.from_integers(ctx, I, [2])
    assert all(a.congruent(b, M) for a, b in
               zip(c.coeffs, apply_move(c, IsoMove.identity(ctx), M).coeffs))
    mv = IsoMove(units[5], 3)
    c2 = apply_move(c, mv, M)
    c3 = apply_move(c2, mv.inverse(), M)
    assert all(a.congruent(b, M) for a, b in zip(c.coeffs, c3.coeffs))


def test_action_law(ctx, units):
    rng = random.Random(2)
    c = GammaCoeffs.from_integers(ctx, I, [1])
    for _ in range(10):
        m1 = IsoMove(units[rng.randrange(len(units))], rng.randrange(1, 5))
        m2 = IsoMove(units[rng.randrange(len(units))], rng.randrange(1, 5))
        lhs = apply_move(apply_move(c, m1, M), m2, M)
        rhs = apply_move(c, m1.compose(m2), M)
        assert all(a.congruent(b, M) for a, b in zip(lhs.coeffs, rhs.coeffs))


def test_moves_preserve_hhat(ctx, units):
    rng = random.Random(3)
    c = GammaCoeffs.from_integers(ctx, I, [3])
    for _ in range(10):
        mv = IsoMove(units[rng.randrange(len(units))], rng.randrange(1, 5))
        assert in_Hhat(apply_move(c, mv, M))


def test_witness_map_and_verify(ctx, units):
    rng = random.Random(4)
    c = GammaCoeffs.from_integers(ctx, I, [1])
    for n in range(25):
        mv = IsoMove(units[rng.randrange(len(units))], rng.randrange(1, 5))
        c2 = apply_move(c, mv, M)
        assert move_congruent(c, c2, mv, M)
        assert verify_witness(c, c2, mv, M)
    # identity witness map
    phi = witness_map(IsoMove.identity(ctx))
    x = ctx.element([1, 2, 3, 4])
    assert phi(x) == x
    assert verify_witness(c, c, IsoMove.identity(ctx), M)


def test_witness_rejects_perturbation(ctx, units):
    c = GammaCoeffs.from_integers(ctx, I, [1])
    mv = IsoMove(units[9], 2)
    c2 = apply_move(c, mv, M)
    delta = CycFrac(ctx.kappa_power(M - (2 * I + 1) - 1))
    pert = GammaCoeffs(ctx, I, [c2.coeffs[0] + delta], check=False)
    assert not move_congruent(c, pert, mv, M)
    assert not verify_witness(c, pert, mv, M)


def test_find_certified_move_scalar_twist(ctx):
    # integer coefficient rescalings are exact Z_p twists at every level
    cA = GammaCoeffs.from_integers(ctx, I, [1])
    for v in (2, 3, 4):
        cB = GammaCoeffs.from_integers(ctx, I, [v])
        mv = find_certified_move(cA, cB, M)
        assert mv is not None
        assert verify_witness(cA, cB, mv, M)


def test_orbit_canonical_idempotent_invariant(ctx, units):
    rng = random.Random(5)
    units1 = [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, 1)]
    for v in (1, 2, 3, 4):
        c = GammaCoeffs.from_integers(ctx, I, [v])
        can = orbit_canonical(c, 1)
        assert orbit_canonical(can, 1).key == can.key
        mv = IsoMove(units1[rng.randrange(len(units1))], rng.randrange(1, 5))
        assert orbit_canonical(apply_move(c, mv, 1), 1).key == can.key


def test_key_equals_reduce_to_digits():
    # the vectors the frame, the scan and the orbit scan name by .key are
    # canonical mod P^modulus: grid vectors at coeff_mod and apply_move
    # outputs at m, kappa-denominators included
    ctx = PrimeContext(7, 30)
    rng = random.Random(7)

    def reduced(g, modulus):
        return tuple((ca.den_exp, ca.num.reduce_to(min(ca.num.prec, modulus + ca.den_exp)).digits)
                     for ca in g.coeffs)

    for coeff_mod in (1, 2):
        for coeffs in _coefficient_grid(ctx, coeff_mod, 10 ** 5):
            g = GammaCoeffs(ctx, 9, coeffs, check=False)
            assert g.key == reduced(g, coeff_mod)
    for _ in range(100):
        coeffs = [CycFrac(ctx.element([rng.randrange(-10 ** 9, 10 ** 9) for _ in range(ctx.d)],
                                      rng.randrange(5, 31)), rng.randrange(0, 4))
                  for _ in range(ctx.l)]
        mv = IsoMove(ctx.element([rng.randrange(1, 7), rng.randrange(49)]), rng.randrange(1, 7))
        m = rng.choice([0, 1, 2, 7, 29, 40])
        moved = apply_move(GammaCoeffs(ctx, 9, coeffs, check=False), mv, m)
        assert moved.key == reduced(moved, m)


def test_orbit_count_p5_exhaustive(ctx):
    # brute force: all four unit residues form a single orbit mod P
    cans = {orbit_canonical(GammaCoeffs.from_integers(ctx, I, [v]), 1).key for v in (1, 2, 3, 4)}
    assert len(cans) == 1


def test_no_move_between_orbit_classes_mod_p():
    # the premise of enumerate_frame's pair filter at level i: a move certified
    # mod P^m (m >= 1) carries c to c2 mod P, so grid members in different move
    # orbits mod P never merge
    ctx = PrimeContext(7, 24)
    members = []
    for coeffs in _coefficient_grid(ctx, 1, 10 ** 5):
        try:
            members.append(GammaCoeffs(ctx, 9, coeffs))
        except NotInHhat:
            pass
    keys = [orbit_canonical(g, 1).key for g in members]
    assert len(members) == 42 and len(set(keys)) == 7
    pairs = [(a, b) for a in range(len(members)) for b in range(len(members))
             if keys[a] != keys[b]]
    assert len(pairs) == 42 * 36
    for a, b in pairs:
        assert find_certified_move(members[a], members[b], 9) is None


def test_budget_guard(ctx):
    from maxclass import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        orbit_canonical(GammaCoeffs.from_integers(ctx, I, [1]), 3, budget=5)


def test_move_serialization(ctx, units):
    mv = IsoMove(units[4], 3)
    obj = mv.to_json()
    mv2 = IsoMove.from_json(ctx, obj)
    assert mv2.k == mv.k and mv2.u == mv.u


@pytest.mark.parametrize("k", [2.9, True, "3", None])
def test_move_from_json_refuses_a_galois_index_that_is_not_an_int(ctx, units, k):
    # int() read 2.9 as k = 2 and True as k = 1
    obj = IsoMove(units[4], 3).to_json()
    with pytest.raises(ValueError, match=f"^k must be an int, got {k!r}$"):
        IsoMove.from_json(ctx, dict(obj, k=k))


def derived_units(c, c2, k):
    # the derived candidates of find_certified_move for Galois index k
    return _zp_units(_quotients(c, c2, k), c.ctx.p)


def test_derived_candidates_are_zp_units(ctx):
    # only Galois-fixed quotients are kept: 2 is, theta and 1 + 5 kappa^3 are not
    c = GammaCoeffs.from_integers(ctx, I, [1])
    for x, kept in ((ctx.from_int(2), 1), (ctx.theta(), 0),
                    (ctx.one() + ctx.kappa_power(3) * 5, 0)):
        c2 = GammaCoeffs(ctx, I, [x], check=False)
        assert len(derived_units(c, c2, 1)) == kept


@pytest.mark.parametrize("error", [NonUnit, ValueError, PrecisionExhausted])
def test_derived_candidates_propagate_division_errors(ctx, monkeypatch, error):
    c = GammaCoeffs.from_integers(ctx, I, [1])
    c2 = GammaCoeffs.from_integers(ctx, I, [2])
    assert len(derived_units(c, c2, 1)) == 1  # the Z_p unit 2

    def broken(self, other):
        raise error("the division fails")

    monkeypatch.setattr(CycFrac, "__truediv__", broken)
    with pytest.raises(error):
        derived_units(c, c2, 1)


def p7_grid_gammas():
    # the Hhat_9 members of the grid of enumerate --p 7 --i 9 --m-max 18 --coeff-mod 1
    ctx = PrimeContext(7, 60)
    gammas = [GammaCoeffs(ctx, 9, coeffs, check=False) for coeffs in _coefficient_grid(ctx, 1, 100)]
    return [g for g in gammas if in_Hhat(g)]


def quotient_candidates(c, c2, k):
    # the candidates as sigma_k(c2_a) / c_a, with every c_a inverted afresh
    out = []
    for ca, ca2 in zip(c.coeffs, c2.coeffs):
        if ca.is_zero() or ca2.is_zero():
            continue
        try:
            q = ca2.galois(k) / CycFrac(ca.num, ca.den_exp)
        except (InsufficientValuation, PrecisionExhausted):
            continue
        v = q.valuation()
        if q.den_exp == 0 and v.exact and v.value == 0 and not any(q.num.digits[1:]):
            out.append(q.num)
    return out


def test_derived_candidates_equal_quotients_on_p7_grid():
    gammas = p7_grid_gammas()
    assert len(gammas) == 42
    found = 0
    for a, c in enumerate(gammas):
        for c2 in gammas[a + 1:]:
            for k in range(1, 7):
                got = derived_units(c, c2, k)
                assert got == quotient_candidates(c, c2, k)
                found += len(got)
    assert found > 0


def test_find_certified_move_inverts_each_coefficient_once(monkeypatch):
    # grid vectors are integers, whose quotients the search forms in Z_p: no
    # inversion at all.  A c2 twisted off the integers takes the ring route,
    # which inverts each c_a once
    gammas = p7_grid_gammas()
    ctx = gammas[0].ctx
    grid = [(gammas[0], g) for g in gammas[1:8]] + [(gammas[3], gammas[5])]
    twist = IsoMove(ctx.element([2, 1]).lift_to(ctx.M_work), 3)
    ring = [(c, apply_move(c2, twist, 18)) for c, c2 in grid]
    assert all(c2.integer_coeffs is None for _, c2 in ring)
    for c, c2 in grid + ring:   # fills the rho cache, so only the quotients invert below
        find_certified_move(GammaCoeffs(ctx, 9, c.coeffs, check=False), c2, 18)
    inversions = []
    real = CycElt.unit_inverse
    monkeypatch.setattr(CycElt, "unit_inverse", lambda self: inversions.append(self) or real(self))
    counts = []
    for c, c2 in grid + ring:
        fresh = GammaCoeffs(ctx, 9, [CycFrac(ca.num) for ca in c.coeffs], check=False)
        inversions.clear()
        find_certified_move(fresh, c2, 18)
        counts.append(len(inversions))
        inversions.clear()
        find_certified_move(fresh, c2, 18)
        assert inversions == []
    assert counts[:len(grid)] == [0] * len(grid)
    # one inversion per nonzero c_a, whatever the Galois index
    assert max(counts) <= ctx.l and sum(counts) > 0


def witness_differences_by_gamma_eval(c, c2, mv):
    # the ring route of isom._witness_differences: gamma_c evaluated on the
    # images phi(e_r), phi(e_s) and phi applied to gamma_{c2}(e_r ^ e_s)
    ctx, i = c.ctx, c.i
    out = []
    phi = witness_map(mv)
    basis = [ctx.kappa_power(i + r) for r in range(ctx.d)]
    phis = [phi(x) for x in basis]
    brackets2 = route.basis_brackets(c2)
    theta, theta_k = ctx.theta(), ctx.theta(mv.k)
    for r in range(ctx.d):
        d = phi(theta * basis[r]) - theta_k * phis[r]
        out.append((d.prec, d.valuation().bound))
        for s in range(r + 1, ctx.d):
            d = phi(brackets2[r, s]) - gamma_eval(c, phis[r], phis[s])
            out.append((d.prec, d.valuation().bound))
    return tuple(out)


def tree_witnesses(monkeypatch, p, i, m_max, coeff_mod, points=None):
    # the arguments of every witness enumerate_frame computes, at the M_work of
    # `maxclass enumerate`, on the first points of the grid
    ctx = PrimeContext(p, max(m_max + 2 * (p - 1), 3 * (i + p) + 12))
    calls, real = [], isom._witness_differences
    monkeypatch.setattr(isom, "_witness_differences", lambda *args: calls.append(args) or real(*args))
    if points is not None:
        grid = frame._coefficient_grid
        monkeypatch.setattr(frame, "_coefficient_grid", lambda *args: islice(grid(*args), points))
    enumerate_frame(ctx, i, m_max, coeff_mod=coeff_mod, budget=10 ** 6)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("p, i, m_max, coeff_mod, points, witnesses", [
    (5, 7, 20, 1, None, 3), (5, 7, 20, 2, None, 9), (7, 9, 18, 1, None, 21),
    (11, 13, 16, 1, 1000, 197)])
def test_witness_differences_equal_gamma_eval_route_on_trees(monkeypatch, p, i, m_max, coeff_mod,
                                                             points, witnesses):
    # every stored (precision, bound) of every witness of the tree, entry by entry
    calls = tree_witnesses(monkeypatch, p, i, m_max, coeff_mod, points)
    assert len(calls) == witnesses
    for args in calls:
        assert _witness_differences(*args) == witness_differences_by_gamma_eval(*args)


def test_witness_differences_equal_gamma_eval_route_off_the_grid():
    # coefficients cut to a lower precision, scaled by kappa powers or given
    # random digits; c2 a move image or another vector; units of every
    # precision, on or off the integers; i up to and past M_work
    for p, i, m_work, count in [(5, 7, 24, 60), (7, 9, 30, 60), (7, 9, 60, 40), (5, 0, 20, 20),
                                (5, 18, 20, 20), (5, 23, 20, 10), (7, 9, 10, 20), (11, 13, 40, 10)]:
        ctx = PrimeContext(p, m_work)
        rng = random.Random(p * 1000 + i * 10 + m_work)
        grid = [GammaCoeffs(ctx, i, coeffs, check=False)
                for coeffs in islice(_coefficient_grid(ctx, 1, 10 ** 6), 200)]

        def vary(g):
            out = []
            for ca in g.coeffs:
                r = rng.random()
                if r < 0.3:
                    top = ca.num.prec if r < 0.15 else min(ca.num.prec, 6)
                    ca = CycFrac(ca.num.reduce_to(rng.randrange(1, top + 1)), ca.den_exp)
                elif r < 0.4:
                    ca = ca * ctx.kappa_power(rng.randrange(1, 4))
                elif r < 0.5:
                    ca = CycFrac(ctx.element([rng.randrange(p ** 5) for _ in range(ctx.d)],
                                             rng.randrange(1, m_work + 1)))
                out.append(ca)
            return GammaCoeffs(ctx, i, out, check=False)

        for _ in range(count):
            c = vary(rng.choice(grid)) if rng.random() < 0.7 else rng.choice(grid)
            c2 = vary(rng.choice(grid)) if rng.random() < 0.5 else rng.choice(grid)
            if rng.random() < 0.3:
                twist = IsoMove(ctx.element([rng.randrange(1, p)] + [rng.randrange(p ** 3)
                                                                     for _ in range(ctx.d - 1)]), 2)
                try:
                    c2 = apply_move(c, twist, rng.randrange(1, m_work + 1))
                except MaxclassError:
                    pass
            digits = [rng.randrange(1, p)] + ([rng.randrange(p ** 6) for _ in range(ctx.d - 1)]
                                              if rng.random() < 0.5 else [0] * (ctx.d - 1))
            prec = rng.choice([1, 2, 3, rng.randrange(1, m_work + 1), m_work, m_work])
            mv = IsoMove(ctx.element(digits, prec), rng.randrange(1, p))
            assert _witness_differences(c, c2, mv) == witness_differences_by_gamma_eval(c, c2, mv)


def test_merge_phase_evaluates_no_gamma(monkeypatch):
    # the p = 5 and p = 7 trees with gamma_eval raising: identical, so neither
    # lambda nor a merge evaluates gamma on these grids
    def configs():
        for p, i, m_max, coeff_mod in [(5, 7, 20, 1), (5, 7, 20, 2), (7, 9, 18, 1)]:
            ctx = PrimeContext(p, max(m_max + 2 * (p - 1), 3 * (i + p) + 12))
            yield enumerate_frame(ctx, i, m_max, coeff_mod=coeff_mod).to_json()

    want = list(configs())

    def refused(*args):
        raise AssertionError("gamma_eval called")

    for module in (homs, liering, isom):
        if hasattr(module, "gamma_eval"):
            monkeypatch.setattr(module, "gamma_eval", refused)
    assert list(configs()) == want
    assert [len(t["merged_by"]) for t in want] == [42, 126, 210]


def integer_vectors(ctx, i, rng, count):
    # integer vectors with precisions at most M_work, some coefficients zero
    # or in pO, and their move images by integer units
    for _ in range(count):
        out = []
        for _ in range(ctx.l):
            prec = rng.choice([ctx.M_work, ctx.M_work, rng.randrange(1, ctx.M_work + 1)])
            value = rng.choice([0, rng.randrange(1, ctx.p), rng.randrange(ctx.p ** 4),
                                ctx.p * rng.randrange(1, ctx.p)])
            out.append(CycFrac(ctx.from_int(value, prec)))
        yield GammaCoeffs(ctx, i, out, check=False)


def test_integer_coeffs_once_per_gamma():
    ctx = PrimeContext(5, 24)
    g = GammaCoeffs.from_integers(ctx, I, [2])
    assert g.integer_coeffs == ((2, 24, 0, pow(2, -1, 5 ** 6)),) and g.integer_coeffs is g.integer_coeffs
    assert GammaCoeffs(ctx, I, [CycFrac(ctx.theta())], check=False).integer_coeffs is None


def move_congruent_by_ring(c, c2, mv, m):
    # move_congruent with the ring operations at every a, integers included
    for a_idx, (ca, ca2) in enumerate(zip(c.coeffs, c2.coeffs)):
        if not ca2.galois(mv.k).congruent(ca * rho(a_idx + 2, mv.u), m):
            return False
    return True


def ring_decidable(c, c2, m, prec, ks):
    # _decidable by the ring operations: the congruence of each c2_a with the
    # stand-in c_a (1 + P^prec), for each k
    one = c.ctx.one(prec)
    try:
        for ca, ca2 in zip(c.coeffs, c2.coeffs):
            for k in ks:
                ca2.galois(k).congruent(ca * one, m)
    except MaxclassError:
        return False
    return True


@pytest.mark.parametrize("p, i, m_work", [(5, 7, 24), (7, 9, 40), (11, 13, 30)])
def test_integer_search_steps_equal_the_ring_route(p, i, m_work):
    # the Z_p quotients, keys and congruences give the values, precisions and
    # errors of their ring counterparts; _decidable's closed form that of its
    # ring loop, also off the integers
    ctx = PrimeContext(p, m_work)
    rng = random.Random(p)
    vectors = list(integer_vectors(ctx, i, rng, 40))
    units = [ctx.from_int(rng.randrange(1, p ** 3), rng.randrange(1, m_work + 1)) for _ in range(20)]
    units = [u for u in units if u.digits[0] % p]
    seen = set()
    for _ in range(300):
        c, c2 = rng.choice(vectors), rng.choice(vectors)
        zc, zc2 = c.integer_coeffs, c2.integer_coeffs
        m = rng.randrange(0, m_work + 3)
        for prec in (1, rng.randrange(1, m_work + 1), m_work):
            assert _decidable(c, c2, m, prec) == ring_decidable(c, c2, m, prec, range(1, p))
            twisted = apply_move(c2, IsoMove(ctx.element([1, 1]).lift_to(m_work), 2), m_work)
            assert _decidable(c, twisted, m, prec) == ring_decidable(c, twisted, m, prec, range(1, p))
        if any(inv is None for a, _, _, inv in zc if a):
            continue
        for q, want in zip(_integer_quotients(ctx, zc, zc2), _quotients(c, c2, 1), strict=True):
            assert (q is None) == (want is None)
            if q is not None:
                assert (q.num.digits, q.num.prec, q.den_exp) == (want.num.digits, want.num.prec, want.den_exp)
        for u in rng.sample(units, 3):
            want = outcome(move_congruent_by_ring, c, c2, IsoMove(u, 1), m)
            assert outcome(_integer_congruent, p, zc, zc2, u, m) == want
            assert outcome(move_congruent, c, c2, IsoMove(u, 1), m) == want
            seen.add(want)
    assert seen == {True, False, PrecisionExhausted}


@pytest.mark.parametrize("p, i, m_work", [(5, 7, 24), (7, 9, 40)])
def test_find_certified_move_equals_scan_on_integer_vectors(p, i, m_work):
    # every outcome on integer vectors of every precision and their move
    # images by integer units, on both unit grids and under a low budget
    ctx = PrimeContext(p, m_work)
    rng = random.Random(p + 1)
    vectors = list(integer_vectors(ctx, i, rng, 30))
    vectors += [apply_move(c, IsoMove(ctx.from_int(rng.randrange(1, p)), rng.randrange(1, p)),
                           rng.randrange(i, m_work + 1)) for c in vectors]
    seen = set()
    for _ in range(150):
        c, c2, m = rng.choice(vectors), rng.choice(vectors), rng.randrange(i, m_work + 2)
        for unit_modulus, budget in ((1, DEFAULT_BUDGET), (2, DEFAULT_BUDGET), (2, 10)):
            want = search_outcome(scan_certified_move, c, c2, m, unit_modulus, budget)
            assert search_outcome(find_certified_move, c, c2, m, unit_modulus, budget) == want
            seen.add(want if want is None or isinstance(want, type) else "move")
    assert {None, "move", PrecisionExhausted} <= seen


def verify_witness_by_gamma_eval(c, c2, mv, m):
    # verify_witness with gamma_{c2} evaluated on every basis pair by gamma_eval
    ctx, i = c.ctx, c.i
    if c2.i != i:
        return False
    phi = witness_map(mv)
    basis = [ctx.kappa_power(i + r) for r in range(ctx.d)]
    phis = [phi(x) for x in basis]
    for r in range(ctx.d):
        if not phi(ctx.theta() * basis[r]).congruent(ctx.theta(mv.k) * phis[r], m):
            return False
        for s in range(r + 1, ctx.d):
            if not phi(gamma_eval(c2, basis[r], basis[s])).congruent(
                    gamma_eval(c, phis[r], phis[s]), m):
                return False
    return True


def outcome(check, *args):
    # the verdict, or the type of the error raised
    try:
        return check(*args)
    except MaxclassError as exc:
        return type(exc)


@pytest.mark.parametrize("p, i, m, m_work", [(5, 7, 18, 40), (7, 9, 24, 60)])
def test_verify_witness_verdicts_equal_gamma_eval_route(p, i, m, m_work):
    # verify_witness replays its memoised differences at every level: each
    # verdict or error, in any order of levels, is the one computed afresh
    ctx = PrimeContext(p, m_work)
    rng, order = random.Random(p + m), random.Random(p)
    levels = list(range(i, m_work + 2))
    units = [u.lift_to(m_work) for u in enumerate_units(ctx, 2)]
    gammas = [GammaCoeffs(ctx, i, coeffs, check=False) for coeffs in _coefficient_grid(ctx, 1, 100)]
    gammas = [g for g in gammas if in_Hhat(g)]
    # probe-image vectors, times kappa^D to clear the kappa-denominators they bring at p = 7
    for _ in range(3):
        g = images_to_coeffs(ctx, i, [ctx.kappa_power(2 * i + 1) * ctx.element(
            [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(ctx.d - 1)]) for _ in range(ctx.l)])
        top = max(ca.den_exp for ca in g.coeffs)
        gammas.append(GammaCoeffs(ctx, i, [CycFrac(ca.num * ctx.kappa_power(top - ca.den_exp))
                                           for ca in g.coeffs], check=False))
    verdicts = []
    for _ in range(30):
        c = rng.choice(gammas)
        mv = IsoMove(rng.choice(units), rng.randrange(1, p))
        c2 = apply_move(c, mv, m)
        # a perturbation of one coefficient at level e; low levels must be rejected
        e = rng.randrange(m - 2 * i - 3, m)
        a = rng.randrange(ctx.l)
        pert = GammaCoeffs(ctx, i, [ca + CycFrac(ctx.kappa_power(e)) if b == a else ca
                                    for b, ca in enumerate(c2.coeffs)], check=False)
        for other in (c2, pert, rng.choice(gammas)):
            order.shuffle(levels)
            for n in levels:
                assert outcome(verify_witness, c, other, mv, n) == \
                    outcome(verify_witness_by_gamma_eval, c, other, mv, n)
            verdicts.append(verify_witness(c, other, mv, m))
            assert verdicts[-1] == verify_witness_by_gamma_eval(c, other, mv, m)
        # the same unit under every Galois index: the memo keys k
        for k in range(1, p):
            assert verify_witness(c, c2, IsoMove(mv.u, k), m) == \
                verify_witness_by_gamma_eval(c, c2, IsoMove(mv.u, k), m)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 10


def test_verify_witness_memo_keyed_by_content():
    ctx, i, m = PrimeContext(5, 40), I, M
    c = GammaCoeffs.from_integers(ctx, i, [1])
    mv = IsoMove(ctx.element([2, 1, 3]).lift_to(ctx.M_work), 3)
    c2 = apply_move(c, mv, m)
    assert verify_witness(c, c2, mv, m)
    entries = len(ctx._witness)
    # a distinct object with equal content replays the same entry
    twin = GammaCoeffs(ctx, i, [CycFrac(ctx.element(ca.num.digits, ca.num.prec), ca.den_exp)
                                for ca in c2.coeffs], check=False)
    assert twin is not c2 and verify_witness(c, twin, mv, m)
    assert len(ctx._witness) == entries
    del twin
    # a perturbed vector at c2's address, where an id() key would collide: c2's
    # object is re-initialised in place, so the address is shared by
    # construction, not by the allocator reusing freed memory
    coeffs = [c2.coeffs[0] + CycFrac(ctx.kappa_power(m - (2 * i + 1) - 1))]
    pert, addr = c2, id(c2)
    pert.__init__(ctx, i, coeffs, check=False)
    assert id(pert) == addr
    assert not verify_witness(c, pert, mv, m)
    assert not verify_witness_by_gamma_eval(c, pert, mv, m)
    assert len(ctx._witness) == entries + 1


REFUSALS = {
    # case: (which input is off the contract, the error, the words its message names)
    "c with a kappa-denominator": ("c", ValueError, "c has a kappa-denominator"),
    "c2 with a kappa-denominator": ("c2", ValueError, "c2 has a kappa-denominator"),
    "c2 of another context": ("c2", ContextMismatch, "c2 is of"),
    "a unit of another context": ("u", ContextMismatch, "the move unit is of"),
}


@pytest.mark.parametrize("search, case", [
    (search, case) for search in ("find_certified_move", "move_congruent", "verify_witness")
    for case in REFUSALS if not (search == "find_certified_move" and case == "a unit of another context")])
def test_move_search_refuses_other_input_at_entry(monkeypatch, search, case):
    # the search takes no unit, so it has no unit case
    ctx, other = PrimeContext(5, 40), PrimeContext(5, 41)
    with_den = GammaCoeffs(ctx, I, [CycFrac(ctx.from_int(3), 2)], check=False)
    args = {"c": GammaCoeffs.from_integers(ctx, I, [1]), "c2": GammaCoeffs.from_integers(ctx, I, [2]),
            "u": ctx.from_int(2)}
    where, error, message = REFUSALS[case]
    args[where] = {"c with a kappa-denominator": with_den, "c2 with a kappa-denominator": with_den,
                   "c2 of another context": GammaCoeffs.from_integers(other, I, [2]),
                   "a unit of another context": other.from_int(2)}[case]
    call = ((args["c"], args["c2"], M) if search == "find_certified_move"
            else (args["c"], args["c2"], IsoMove(args["u"], 1), M))

    def work(*_):
        raise AssertionError("arithmetic before the refusal")

    for cls, name in ((CycElt, "__mul__"), (CycElt, "galois"), (CycFrac, "galois"),
                      (CycFrac, "__truediv__")):
        monkeypatch.setattr(cls, name, work)
    monkeypatch.setattr(isom, "numerator_table", work)
    with pytest.raises(error, match=message):
        getattr(isom, search)(*call)


def test_move_search_accepts_an_equal_context():
    # c2 and the unit of a context equal to c's, but another object
    ctx, twin = PrimeContext(5, 40), PrimeContext(5, 40)
    c = GammaCoeffs.from_integers(ctx, I, [1])
    mv = IsoMove(twin.element([2, 1, 3]).lift_to(twin.M_work), 3)
    c2 = apply_move(GammaCoeffs.from_integers(twin, I, [1]), mv, M)
    assert move_congruent(c, c2, mv, M) and verify_witness(c, c2, mv, M)
    same = GammaCoeffs(ctx, I, [CycFrac(ctx.element(ca.num.digits, ca.num.prec)) for ca in c2.coeffs],
                       check=False)
    want = search_outcome(find_certified_move, c, same, M, 3)
    assert want is not None and search_outcome(find_certified_move, c, c2, M, 3) == want


def scan_certified_move(c, c2, m, unit_modulus=1, budget=DEFAULT_BUDGET):
    # the oracle: every derived candidate k-major, then every grid unit u-major
    # and k-minor, each tested by the ring congruence and then verify_witness
    ctx, ks = c.ctx, range(1, c.ctx.p)
    derived = ((u, k) for k in ks for u in quotient_candidates(c, c2, k))
    lifted = (u.lift_to(ctx.M_work) for u in enumerate_units(ctx, unit_modulus, budget))
    for u, k in chain(derived, ((u, k) for u in lifted for k in ks)):
        mv = IsoMove(u, k)
        if move_congruent_by_ring(c, c2, mv, m) and verify_witness(c, c2, mv, m):
            return mv
    return None


def search_outcome(search, *args, **kwargs):
    # the move as JSON, None, or the type of the error raised
    try:
        mv = search(*args, **kwargs)
    except MaxclassError as exc:
        return type(exc)
    return None if mv is None else mv.to_json()


def tree_searches(monkeypatch, p, i, m_max, coeff_mod):
    # the arguments of every find_certified_move call of enumerate_frame, at
    # the M_work that `maxclass enumerate` picks
    ctx = PrimeContext(p, max(m_max + 2 * (p - 1), 3 * (i + p) + 12))
    calls, real = [], frame.find_certified_move
    monkeypatch.setattr(frame, "find_certified_move",
                        lambda *args, **kwargs: calls.append((args, kwargs)) or real(*args, **kwargs))
    enumerate_frame(ctx, i, m_max, coeff_mod=coeff_mod)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("p, i, m_max, coeff_mod, searches, certified", [
    (5, 7, 20, 1, 42, 42), (5, 7, 20, 2, 294, 126), (7, 9, 18, 1, 263, 210)])
def test_find_certified_move_equals_scan_on_baseline_trees(monkeypatch, p, i, m_max, coeff_mod,
                                                           searches, certified):
    calls = tree_searches(monkeypatch, p, i, m_max, coeff_mod)
    got = [search_outcome(find_certified_move, *args, **kwargs) for args, kwargs in calls]
    assert got == [search_outcome(scan_certified_move, *args, **kwargs) for args, kwargs in calls]
    assert len(got) == searches and sum(g is not None for g in got) == certified


def test_find_certified_move_raises_where_the_scan_raises():
    # at M_work 20 the congruences of high levels, and of move images reduced
    # to a low level, are undecidable: the scan raises PrecisionExhausted.
    # With budget 10 the 20 units of O/P^2 exceed the budget: the scan raises
    # BudgetExceeded, but only once no derived candidate certifies
    ctx, i = PrimeContext(5, 20), I
    rng = random.Random(7)
    gammas = [GammaCoeffs(ctx, i, coeffs, check=False) for coeffs in _coefficient_grid(ctx, 2, 100)]
    gammas = [g for g in gammas if in_Hhat(g)]
    units = [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, 2)]
    pool = gammas + [apply_move(rng.choice(gammas), IsoMove(rng.choice(units), rng.randrange(1, 5)), m)
                     for m in (i + 3, 14, 18, 20) for _ in range(3)]
    seen = []
    for _ in range(300):
        c, c2, m = rng.choice(pool), rng.choice(pool), rng.randrange(i, ctx.M_work + 3)
        for unit_modulus, budget in ((1, DEFAULT_BUDGET), (2, DEFAULT_BUDGET), (2, 10)):
            want = search_outcome(scan_certified_move, c, c2, m, unit_modulus, budget)
            assert search_outcome(find_certified_move, c, c2, m, unit_modulus, budget) == want
            seen.append((budget, want))
    assert (DEFAULT_BUDGET, PrecisionExhausted) in seen and (10, BudgetExceeded) in seen
    # some searches certify a derived candidate under the low budget
    assert any(budget == 10 and isinstance(want, dict) for budget, want in seen)


def varied_searches(ctx, i, rng, count):
    # (c, c2, m) off the grid: move images of grid vectors whose coefficients
    # may be cut to a lower precision or scaled by kappa powers; c2 is a move
    # image of c at or near level m, perhaps perturbed at level m - 1, m or
    # m + 1, or varied in turn
    grid = [GammaCoeffs(ctx, i, coeffs, check=False) for coeffs in _coefficient_grid(ctx, 1, 100)]
    grid = [g for g in grid if in_Hhat(g)]
    units = [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, 2)]

    def vary(g):
        out = []
        for ca in g.coeffs:
            r = rng.random()
            if r < 0.15:
                ca = CycFrac(ca.num.reduce_to(rng.randrange(1, ca.num.prec + 1)), ca.den_exp)
            elif r < 0.3:
                ca = ca * ctx.kappa_power(rng.randrange(1, 4))
            out.append(ca)
        return GammaCoeffs(ctx, i, out, check=False)

    for _ in range(count):
        c = vary(rng.choice(grid))
        m = rng.randrange(i, ctx.M_work + 3)
        c2 = apply_move(c, IsoMove(rng.choice(units), rng.randrange(1, ctx.p)),
                        rng.choice((m, m + 1, ctx.M_work)))
        r = rng.random()
        if r < 0.3:
            e, a = m + rng.randrange(-1, 2), rng.randrange(ctx.l)
            c2 = GammaCoeffs(ctx, i, [ca + CycFrac(ctx.kappa_power(e)) if b == a else ca
                                      for b, ca in enumerate(c2.coeffs)], check=False)
        elif r < 0.5:
            c2 = vary(c2)
        yield c, c2, m


@pytest.mark.parametrize("p, i, m_work, count", [(5, 7, 24, 150), (7, 9, 30, 150)])
def test_find_certified_move_equals_scan_off_the_grid(p, i, m_work, count):
    # every outcome, move or error, on both unit grids and under a budget
    # below the 20 or 42 units of O/P^2
    ctx = PrimeContext(p, m_work)
    seen = set()
    for c, c2, m in varied_searches(ctx, i, random.Random(p), count):
        for unit_modulus, budget in ((1, DEFAULT_BUDGET), (2, DEFAULT_BUDGET), (2, 10)):
            want = search_outcome(scan_certified_move, c, c2, m, unit_modulus, budget)
            assert search_outcome(find_certified_move, c, c2, m, unit_modulus, budget) == want
            seen.add(want if want is None or isinstance(want, type) else "move")
    assert {None, "move", PrecisionExhausted, BudgetExceeded} <= seen


def test_find_certified_move_tries_a_derived_unit_where_the_scan_raises():
    # c2_0 is known only mod P^12, so at m = 15 every move_congruent raises at
    # a = 0.  The derived units (3 from a = 2 and 3) fail the pivot a* = 1, as
    # q_k = sigma_k(2 + kappa) is no integer, yet they are tried: the scan
    # raises PrecisionExhausted there, before its grid can exceed the budget
    ctx, i, m = PrimeContext(11, 40), 13, 15
    kappa = ctx.kappa_power(1)
    c = GammaCoeffs(ctx, i, [CycFrac(kappa), CycFrac(ctx.one()), CycFrac(ctx.one()),
                             CycFrac(ctx.one())], check=False)
    c2 = GammaCoeffs(ctx, i, [CycFrac((ctx.from_int(5) + kappa).reduce_to(11) * kappa),
                              CycFrac(ctx.from_int(2) + kappa), CycFrac(ctx.from_int(3)),
                              CycFrac(ctx.from_int(3))], check=False)
    assert [len(derived_units(c, c2, k)) for k in range(1, 11)] == [2] * 10
    for budget in (5, DEFAULT_BUDGET):
        want = search_outcome(scan_certified_move, c, c2, m, 2, budget)
        assert want is PrecisionExhausted
        assert search_outcome(find_certified_move, c, c2, m, 2, budget) is want


def test_move_congruent_calls_on_the_p7_tree(monkeypatch):
    # enumerate-p7: 263 searches, 210 certified; the scan made 2,754
    # move_congruent calls, the solve makes one per search here
    calls = {"move_congruent": 0, "verify_witness": 0}
    for name in calls:
        real = getattr(isom, name)
        monkeypatch.setattr(isom, name, lambda *args, _real=real, _name=name:
                            calls.__setitem__(_name, calls[_name] + 1) or _real(*args))
    searches = tree_searches(monkeypatch, 7, 9, 18, 1)
    assert len(searches) == 263
    assert calls["move_congruent"] <= 400 and calls["verify_witness"] == 210


def test_find_certified_move_applies_each_galois_index_once(monkeypatch):
    # c2 off the Galois-fixed integers: sigma_k of each of its coefficients is
    # computed at most once per k, and not again on a repeated search
    ctx, i, m = PrimeContext(7, 60), 9, 18
    rng = random.Random(8)
    units = [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, 2)]
    gammas = p7_grid_gammas()
    pairs = []
    for c in gammas[:8]:
        for other in (c, rng.choice(gammas)):
            c2 = apply_move(other, IsoMove(rng.choice(units), rng.randrange(1, 7)), m)
            if not all(ca.is_galois_fixed() for ca in c2.coeffs):
                pairs.append((c, c2))
    assert len(pairs) >= 8
    for c, c2 in pairs:   # fills the rho cache and the witness memo
        find_certified_move(c, c2, m)
    calls = []
    real = CycElt.galois
    monkeypatch.setattr(CycElt, "galois", lambda self, k: calls.append((self, k)) or real(self, k))
    counted = 0
    for c, c2 in pairs:
        fresh = GammaCoeffs(ctx, i, [CycFrac(ca.num, ca.den_exp) for ca in c2.coeffs], check=False)
        runs = []
        for _ in range(2):
            calls.clear()
            find_certified_move(c, fresh, m)
            runs.append([(a, k) for x, k in calls for a, ca in enumerate(fresh.coeffs) if x is ca.num])
        assert len(runs[0]) == len(set(runs[0])) and runs[1] == []
        counted += len(runs[0])
    assert counted > 0


def test_quotients_are_divided_once_per_k_on_the_p5_p2_tree(monkeypatch):
    # the derived candidates and the pivot key read one quotient list per
    # Galois index, so the pivot's sigma_k(c2_a) / c_a is not divided a second
    # time for the key: 768 divisions, where that second division made 1,536
    divisions, real = [], CycFrac.__truediv__
    monkeypatch.setattr(CycFrac, "__truediv__",
                        lambda self, other: divisions.append(other) or real(self, other))
    enumerate_frame(PrimeContext(5, 48), 7, 20, coeff_mod=2)
    assert len(divisions) == 768
