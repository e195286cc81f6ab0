import random
from fractions import Fraction
from itertools import product

import pytest

from maxclass import (
    ContextMismatch,
    CycElt,
    InsufficientValuation,
    NonUnit,
    PrecisionExhausted,
    PrimeContext,
    Valuation,
    enumerate_units,
)


@pytest.fixture(scope="module")
def ctx():
    return PrimeContext(5, 20)


def test_context_validation():
    with pytest.raises(ValueError):
        PrimeContext(4)
    with pytest.raises(ValueError):
        PrimeContext(9)
    with pytest.raises(ValueError):
        PrimeContext(3)
    with pytest.raises(ValueError):
        PrimeContext(5, 0)


def test_kappa_reduction_row(ctx):
    # every coefficient divisible by p, constant term -p
    assert ctx.kappa_reduction[0] == -5
    assert all(c % 5 == 0 for c in ctx.kappa_reduction)


def test_add_examples(ctx):
    k = ctx.kappa_power(1)
    assert (k + k).digits[1] == 2
    x = ctx.element([3, 1, 4, 1])
    assert x + ctx.zero() == x
    two_k3 = ctx.kappa_power(3) + ctx.kappa_power(3)
    assert two_k3.valuation() == Valuation.exactly(3)


def test_mul_examples(ctx):
    k = ctx.kappa_power(1)
    assert k * k == ctx.kappa_power(2)
    # kappa^{p-2} * kappa lands at valuation p-1, since pO = P^{p-1}
    assert (ctx.kappa_power(3) * k).valuation() == Valuation.exactly(4)
    th = ctx.theta()
    assert th * ctx.theta(4) == ctx.one()


def test_valuation_examples(ctx):
    assert ctx.kappa_power(3).valuation() == Valuation.exactly(3)
    assert ctx.from_int(5).valuation() == Valuation.exactly(4)
    v = ctx.zero().valuation()
    assert not v.exact and v.value == 20


def test_valuation_is_a_value():
    # equal and hashed by (value, exact), and never equal to another class
    a = Valuation.exactly(3)
    assert a == Valuation(3, True) and hash(a) == hash(Valuation(3, True)) == hash((3, True))
    assert a != Valuation.at_least(3) and a != Valuation.exactly(4)
    assert a != (3, True) and (3, True) != a
    assert a.__eq__((3, True)) is NotImplemented
    assert len({a, Valuation(3, True), Valuation.at_least(3)}) == 2
    assert (repr(a), repr(Valuation.at_least(5))) == ("Exact(3)", "AtLeast(5)")


def test_valuation_exact_below_prec(ctx):
    rng = random.Random(0)
    for _ in range(200):
        x = ctx.element([rng.randrange(5 ** 3) for _ in range(4)], rng.randrange(2, 20))
        v = x.valuation()
        if v.exact:
            assert v.value < x.prec
        else:
            assert v.value == x.prec


def test_valuation_additive(ctx):
    rng = random.Random(1)
    for _ in range(100):
        x = ctx.element([rng.randrange(25) for _ in range(4)])
        y = ctx.element([rng.randrange(25) for _ in range(4)])
        vx, vy = x.valuation(), y.valuation()
        if vx.exact and vy.exact and vx.value + vy.value < (x * y).prec:
            assert (x * y).valuation() == Valuation.exactly(vx.value + vy.value)


def test_galois_examples(ctx):
    x = ctx.element([2, 4, 1, 3])
    assert x.galois(1) == x
    # galois(a, kappa) = kappa * s_a with s_a = a mod P
    for a in (2, 3, 4):
        q = ctx.kappa_power(1).galois(a).div_kappa(1)
        assert q.digits[0] % 5 == a
        assert ctx.kappa_power(1).galois(a).valuation() == Valuation.exactly(1)
    assert x.galois(2).galois(4) == x.galois(3)  # 2*4 = 8 = 3 mod 5
    with pytest.raises(ValueError):
        x.galois(5)


def test_galois_is_ring_hom_and_preserves_valuation(ctx):
    rng = random.Random(2)
    for _ in range(50):
        x = ctx.element([rng.randrange(25) for _ in range(4)])
        y = ctx.element([rng.randrange(25) for _ in range(4)])
        k = rng.randrange(1, 5)
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)
        assert (x + y).galois(k) == x.galois(k) + y.galois(k)
        assert x.galois(k).valuation() == x.valuation()


def test_div_kappa_examples(ctx):
    assert ctx.kappa_power(3).div_kappa(2) == ctx.kappa_power(1, 18)
    u = ctx.from_int(5).div_kappa(4)
    assert u.valuation() == Valuation.exactly(0)
    prod = ctx.kappa_power(4) * u
    assert prod == ctx.from_int(5).reduce_to(prod.prec)
    with pytest.raises(InsufficientValuation):
        ctx.theta().div_kappa(1)
    with pytest.raises(PrecisionExhausted):
        ctx.kappa_power(1, 3).div_kappa(3)


def test_div_kappa_round_trip(ctx):
    rng = random.Random(3)
    for _ in range(50):
        e = rng.randrange(1, 6)
        x = ctx.kappa_power(e) * ctx.element([rng.randrange(25) for _ in range(4)])
        if x.is_zero():
            continue
        y = x.div_kappa(e)
        back = y * ctx.kappa_power(e)
        assert back == x.reduce_to(back.prec)


def test_unit_inverse(ctx):
    assert ctx.one().unit_inverse() == ctx.one()
    assert ctx.theta().unit_inverse() == ctx.theta(4)
    w = ctx.one() + ctx.kappa_power(2)
    assert w * w.unit_inverse() == ctx.one()
    with pytest.raises(NonUnit):
        ctx.kappa_power(1).unit_inverse()
    with pytest.raises(NonUnit):
        ctx.zero().unit_inverse()


def test_rational_scalars(ctx):
    h = ctx.from_rational(Fraction(1, 2))
    assert h * ctx.from_int(2) == ctx.one()
    x = ctx.element([1, 2, 0, 3])
    assert x.scalar_mul(Fraction(1, 12)).scalar_mul(12) == x
    with pytest.raises(NonUnit):
        ctx.from_rational(Fraction(1, 5))


def test_enumerate_units(ctx):
    us1 = list(enumerate_units(ctx, 1))
    assert len(us1) == 4
    us2 = list(enumerate_units(ctx, 2))
    assert len(us2) == 20 and len(set(us2)) == 20
    assert all(u.valuation() == Valuation.exactly(0) for u in us2)
    from maxclass import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        list(enumerate_units(ctx, 6, budget=100))


def test_ring_axioms_exhaustive_mod_p2():
    ctx = PrimeContext(5, 2)
    elements = [ctx.element([a, b], 2) for a in range(25) for b in range(5)]
    assert len(set(elements)) == 25  # 5^2 cosets
    elements = sorted(set(elements), key=lambda e: e.digits)
    for x, y in product(elements, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
    rng = random.Random(4)
    for _ in range(4000):
        x, y, z = (elements[rng.randrange(len(elements))] for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_ring_axioms_sampled_mod_p3():
    ctx = PrimeContext(5, 3)
    rng = random.Random(5)
    for _ in range(1500):
        x = ctx.element([rng.randrange(125) for _ in range(4)], 3)
        y = ctx.element([rng.randrange(125) for _ in range(4)], 3)
        z = ctx.element([rng.randrange(125) for _ in range(4)], 3)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_canonical_equality_is_coset_equality(ctx):
    # same coset of P^5, different lifts
    x = ctx.element([1, 2, 0, 0], 5)
    y = ctx.element([1 + 5 ** 2, 2, 0, 0], 5)  # 25 has valuation 8 > 5... adjust digit 0 mod 5^ceil(5/4)=25
    assert x == y
    z = ctx.element([1, 2, 0, 0], 5) + ctx.kappa_power(5, 5)
    assert z == x


@pytest.mark.parametrize("p", [5, 7, 11])
def test_canonical_matches_guarded_reduction(p):
    # x % 1 == 0 for every int, so the guard of the former expression changes nothing
    ctx = PrimeContext(p, 60)
    rng = random.Random(p)
    big = p ** 60
    for prec in range(-3, 66):
        mods = ctx.digit_moduli(prec)
        for _ in range(20):
            digits = [rng.choice((-1, 1)) * rng.randrange(3 * big) for _ in range(ctx.d)]
            want = tuple(d % m if m > 1 else 0 for d, m in zip(digits, mods))
            assert ctx._canonical(digits, prec) == want
            assert ctx._canonical(tuple(digits), prec) == want
    assert ctx._canonical([-1] * ctx.d, 0) == (0,) * ctx.d


def test_congruent(ctx):
    x = ctx.element([1, 2, 3, 4])
    y = x + ctx.kappa_power(7)
    assert x.congruent(y, 7)
    assert not x.congruent(y, 8)
    with pytest.raises(PrecisionExhausted):
        x.reduce_to(3).congruent(y, 8)


def test_serialization_round_trip(ctx):
    x = ctx.element([7, 2, 19, 3], 9)
    obj = x.to_json()
    assert obj["p"] == 5 and obj["prec"] == 9
    assert CycElt.from_json(ctx, obj) == x
    # a fifth digit at p = 5 is an error, not dropped
    with pytest.raises(ValueError, match="more than p-1"):
        CycElt.from_json(ctx, dict(obj, digits=obj["digits"] + ["1"]))


@pytest.mark.parametrize("field, message", [
    ({"digits": "1000"}, "^digits must be a list, got '1000'$"),
    ({"digits": ["1", 1.5]}, "^digits entry 1.5 is neither an int nor a decimal string of one$"),
    ({"digits": [True]}, "^digits entry True is neither an int nor a decimal string of one$"),
    ({"digits": ["1.5"]}, "^digits entry '1.5' is neither an int nor a decimal string of one$"),
    ({"digits": [" 1"]}, "^digits entry ' 1' is neither an int nor a decimal string of one$"),
    ({"prec": 10.9}, "^prec must be an int, got 10.9$"),
    ({"prec": True}, "^prec must be an int, got True$"),
    ({"prec": "10"}, "^prec must be an int, got '10'$")],
    ids=["digits-string", "digit-float", "digit-bool", "digit-not-decimal", "digit-space",
         "prec-float", "prec-bool", "prec-string"])
def test_from_json_refuses_malformed_fields(ctx, field, message):
    # a string of digits is not split into characters, and no precision is truncated
    with pytest.raises(ValueError, match=message):
        CycElt.from_json(ctx, dict({"p": 5, "prec": 10, "digits": ["1"]}, **field))


def test_from_json_reads_ints_and_decimal_strings(ctx):
    x = ctx.element([123, 0, 4], 10)
    assert CycElt.from_json(ctx, {"p": 5, "prec": 10, "digits": ["123", 0, "4"]}) == x
    assert CycElt.from_json(ctx, {"p": 5, "prec": 10, "digits": [123, "0", 4]}) == x
    assert CycElt.from_json(ctx, {"p": 5, "prec": 10, "digits": ["-1"]}) == ctx.element([-1], 10)


def test_precision_above_m_work_is_refused():
    # element is the one constructor and refuses a precision no ring operation
    # reaches; from_json reads an element known beyond M_work at M_work
    ctx = PrimeContext(5, 24)
    for build in (lambda: ctx.element([2], 25), lambda: ctx.from_int(2, 25),
                  lambda: ctx.from_rational(Fraction(1, 2), 25), lambda: ctx.kappa_power(0, 25),
                  lambda: ctx.kappa_power(30, 25), lambda: ctx.theta(1, 25),
                  lambda: ctx.from_int(2).lift_to(25)):
        with pytest.raises(PrecisionExhausted, match="^precision 25 exceeds M_work=24$"):
            build()
    beyond = PrimeContext(5, 25).element([7, 2, 19, 3], 25)
    read = CycElt.from_json(ctx, beyond.to_json())
    assert read == ctx.element([7, 2, 19, 3], 24) and read.prec == 24


def test_negative_exponents_raise():
    # on a fresh context, and once kappa^7 is cached, a negative exponent
    # raises instead of reading the cached kappa powers from their end
    ctx = PrimeContext(5, 20)
    for _ in range(2):
        for bad in (lambda: ctx.kappa_power(-1), lambda: ctx.kappa_power(-2, 10),
                    lambda: ctx.kappa_power(1).pow(-1)):
            with pytest.raises(ValueError):
                bad()
        assert ctx.kappa_power(1).pow(7) == ctx.kappa_power(7)
        assert ctx.kappa_power(7).pow(0) == ctx.one()


def test_theta_has_order_p(ctx):
    x = ctx.one()
    for _ in range(5):
        x = x * ctx.theta()
    assert x == ctx.one()
    assert ctx.theta() != ctx.one()


def test_equal_contexts_mix_and_others_raise():
    a, b = PrimeContext(5, 20), PrimeContext(5, 20)
    x, y = a.theta(2), b.kappa_power(3)
    assert a is not b and a == b
    assert (x + y).digits == (x + a.kappa_power(3)).digits
    assert (x * y).digits == (x * a.kappa_power(3)).digits
    assert (x - y).digits == (x - a.kappa_power(3)).digits
    for other in (PrimeContext(7, 20), PrimeContext(5, 21)):
        z = other.kappa_power(3)
        for op in (x.__add__, x.__sub__, x.__mul__):
            with pytest.raises(ContextMismatch):
                op(z)
