import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from maxclass import (
    BchTable,
    GammaCoeffs,
    LieRingSpec,
    MaxclassError,
    PrimeContext,
    bch_multiply,
    build_bch_table,
    generate_bch_table,
    group_commutator,
    group_commutator_closed3,
    group_lcs,
    jacobi_exponent,
    lazard,
    lcs_profile,
    theta_power_map,
)
from maxclass.cyclotomic import _is_prime
from maxclass.freelie import bch_coefficients, verify_associativity


def test_table_matches_closed_formulas_through_degree_3():
    tab = build_bch_table(3)
    deg1 = {t: c for t, c in tab.terms[1]}
    assert deg1 == {0: Fraction(1), 1: Fraction(1)}
    assert tab.terms[2] == [((0, 1), Fraction(1, 2))]
    # 1/12 on [a,[a,b]] and on [b,[b,a]] = [[a,b],b] in the Lyndon basis
    assert dict(tab.terms[3]) == {(0, (0, 1)): Fraction(1, 12),
                                  ((0, 1), 1): Fraction(1, 12)}


def test_generated_table_equals_shipped_data(monkeypatch):
    # the packaged file is present and is what build_bch_table reads: with
    # generation refused it still gives the class-8 table, equal to a fresh one
    data = resources.files("maxclass").joinpath("data").joinpath(lazard.BCH_DATA_FILE)
    assert data.is_file() and json.loads(data.read_text())["max_class"] >= 8

    def refused(max_class):
        raise AssertionError(f"class {max_class} table generated, not loaded")

    monkeypatch.setattr(lazard, "generate_bch_table", refused)
    shipped = build_bch_table(8)
    monkeypatch.undo()
    assert shipped.max_class == 8 and shipped.terms == generate_bch_table(8).terms


def test_missing_table_file_falls_back_to_generation(monkeypatch, tmp_path):
    # the table is read from data/ next to the module; without it, it is generated
    generated = []
    generate = lazard.generate_bch_table
    monkeypatch.setattr(lazard, "generate_bch_table", lambda c: generated.append(c) or generate(c))
    monkeypatch.setattr(lazard, "__file__", str(tmp_path / "lazard.py"))
    assert build_bch_table(4).terms == generate(4).terms and generated == [4]


def test_free_algebra_associativity_degree_4_and_5():
    terms = bch_coefficients(5)
    assert verify_associativity(terms, 4)
    assert verify_associativity(terms, 5)


def test_table_denominators_coprime_below_p():
    tab = build_bch_table(6, p=7)
    for terms in tab.terms.values():
        for _, c in terms:
            q = c.denominator
            f = 2
            while f * f <= q:
                while q % f == 0:
                    assert f < 7
                    q //= f
                f += 1
            if q > 1:
                assert q < 7


def test_table_rejects_class_p():
    with pytest.raises(ValueError):
        build_bch_table(5, p=5)


def test_table_anchor_rejects_corruption():
    tab = build_bch_table(3)
    bad = {d: list(v) for d, v in tab.terms.items()}
    bad[2] = [((0, 1), Fraction(1, 3))]
    with pytest.raises(MaxclassError):
        BchTable(3, bad)


def test_large_prime_denominator_rule_equals_prime_scan():
    # the former check: some q in max(d, 2)+1..den is prime and divides den; the
    # divisors of den are listed in pairs (q, den/q), q <= sqrt(den), to keep it fast
    for den in range(1, 5001):
        divisors = {x for q in range(1, math.isqrt(den) + 1) if den % q == 0 for x in (q, den // q)}
        for d in range(1, 11):
            want = any(_is_prime(q) for q in divisors if max(d, 2) < q <= den)
            assert lazard._large_prime_divides(den, d) == want, (den, d)


def test_table_rejects_a_large_prime_denominator():
    obj = build_bch_table(6).to_json()
    word, _ = obj["terms"]["6"][0]
    obj["terms"]["6"][0] = [word, "1/7"]
    with pytest.raises(MaxclassError, match="degree-6 coefficient 1/7 has too large a prime denominator"):
        BchTable.from_json(obj, 6)
    obj["terms"]["6"][0] = [word, "1/5"]
    assert BchTable.from_json(obj, 6).terms[6][0][1] == Fraction(1, 5)


def test_table_serialization_round_trip(tmp_path):
    tab = build_bch_table(5)
    blob = json.dumps(tab.to_json(), sort_keys=True)
    tab2 = BchTable.from_json(json.loads(blob))
    assert tab2.terms == tab.terms
    assert tab2.self_test(4)


@pytest.fixture(scope="module")
def ring5():
    ctx = PrimeContext(5, 44)
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    lam = jacobi_exponent(g)
    return LieRingSpec(g, 24, lam=lam)


@pytest.fixture(scope="module")
def table5():
    return build_bch_table(3, p=5)


def _random_elt(spec, rng):
    v = spec.ctx.zero()
    for t in range(spec.m - spec.i):
        a = rng.randrange(spec.ctx.p)
        if a:
            v = v + spec.ctx.kappa_power(spec.i + t) * a
    return spec.element(v)


def test_group_identity_inverse(ring5, table5):
    rng = random.Random(0)
    for _ in range(15):
        x = _random_elt(ring5, rng)
        assert bch_multiply(x, ring5.zero(), table5) == x
        assert bch_multiply(x, -x, table5).is_zero()


def test_abelian_case_is_addition():
    ctx = PrimeContext(5, 30)
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    spec = LieRingSpec(g, 15)
    tab = build_bch_table(1)
    x = spec.element(ctx.kappa_power(7))
    y = spec.element(ctx.kappa_power(8) * 3)
    assert bch_multiply(x, y, tab) == x + y


def test_power_is_scalar_multiple(ring5, table5):
    rng = random.Random(1)
    x = _random_elt(ring5, rng)
    assert x * 1 == x
    x3 = bch_multiply(bch_multiply(x, x, table5), x, table5)
    assert x3 == x * 3
    k = math.ceil((ring5.m - ring5.i) / 4)
    assert (x * 5 ** k).is_zero()


def test_commutator_two_paths(ring5, table5):
    basis = ring5.basis()
    for r in range(4):
        assert group_commutator(basis[r], basis[r], table5).is_zero()
        for s in range(r + 1, 4):
            assert group_commutator(basis[r], basis[s], table5) == \
                group_commutator_closed3(basis[r], basis[s])


def test_commutator_reduces_to_bracket_at_class_2():
    ctx = PrimeContext(5, 20)
    g = GammaCoeffs.from_integers(ctx, 1, [1])
    spec = LieRingSpec(g, 4)
    tab = build_bch_table(2, p=5)
    x = spec.element(ctx.kappa_power(1))
    y = spec.element(ctx.kappa_power(2) + ctx.kappa_power(1) * 3)
    assert group_commutator(x, y, tab) == x.bracket(y)


def test_theta_map_properties(ring5, table5):
    rng = random.Random(2)
    x, y = _random_elt(ring5, rng), _random_elt(ring5, rng)
    assert theta_power_map(bch_multiply(x, y, table5), 1) == \
        bch_multiply(theta_power_map(x, 1), theta_power_map(y, 1), table5)
    assert theta_power_map(x.bracket(y), 1) == theta_power_map(x, 1).bracket(theta_power_map(y, 1))
    w = x
    for _ in range(5):
        w = theta_power_map(w, 1)
    assert w == x
    assert theta_power_map(ring5.zero(), 1).is_zero()


def test_group_lcs_matches_lie_lcs(ring5, table5):
    assert group_lcs(ring5, table5) == lcs_profile(ring5)


def test_class_exceeding_table_rejected(ring5):
    small = build_bch_table(2)
    with pytest.raises(MaxclassError):
        bch_multiply(ring5.basis()[0], ring5.basis()[1], small)
