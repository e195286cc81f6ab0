"""The precision contract of CycElt, against the power-basis oracle.

Every digit an operation returns must agree with the exact computation in
Z[x]/Phi_p(x) modulo P^prec, where prec is the precision the result declares,
whichever lifts of the input cosets the oracle is given; a question that the
known precision cannot decide raises PrecisionExhausted.
"""

from functools import lru_cache

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from maxclass import CycElt, InsufficientValuation, PrecisionExhausted, PrimeContext, homs, theta_a_eval
import oracles

PRIMES = (5, 7, 11, 13)
M_WORK = 36
CTX = {p: PrimeContext(p, M_WORK) for p in PRIMES}

contract = settings(derandomize=True, deadline=None, max_examples=150)


@lru_cache(maxsize=None)
def kappa_pow(p, j):
    return oracles.kappa_pow(p, j)


def power_basis(x):
    """The canonical representative of x, as a vector over 1, theta, ..., theta^{p-2}."""
    p = x.ctx.p
    out = (0,) * (p - 1)
    for j, dig in enumerate(x.digits):
        out = oracles.padd(out, tuple(dig * c for c in kappa_pow(p, j)))
    return out


def agrees(p, a, b, prec):
    v = oracles.valuation(p, oracles.psub(a, b))
    return v is None or v >= prec


@st.composite
def cosets(draw, p, unit=False):
    """An element x + P^prec and a random lift of it to the power basis."""
    ctx = CTX[p]
    prec = draw(st.integers(1, M_WORK))
    digits = draw(st.lists(st.integers(-p ** 9, p ** 9), min_size=ctx.d, max_size=ctx.d))
    if unit:
        assume(digits[0] % p)
    x = ctx.element(digits, prec)
    r = draw(st.lists(st.integers(-p ** 2, p ** 2), min_size=ctx.d, max_size=ctx.d))
    return x, oracles.padd(power_basis(x), oracles.pmul(p, kappa_pow(p, prec), tuple(r)))


primes = st.sampled_from(PRIMES)


@contract
@given(st.data())
def test_products_agree_with_oracle(data):
    p = data.draw(primes)
    (x, xl), (y, yl) = data.draw(cosets(p)), data.draw(cosets(p))
    z = x * y
    assert z.prec >= min(x.prec, y.prec)
    assert agrees(p, power_basis(z), oracles.pmul(p, xl, yl), z.prec)


@contract
@given(st.data())
def test_galois_images_agree_with_oracle(data):
    p = data.draw(primes)
    x, xl = data.draw(cosets(p))
    k = data.draw(st.integers(1, p - 1))
    z = x.galois(k)
    assert z.prec == x.prec
    assert agrees(p, power_basis(z), oracles.galois(p, k, xl), z.prec)


@contract
@given(st.data())
def test_unit_inverse_agrees_with_oracle(data):
    p = data.draw(primes)
    x, xl = data.draw(cosets(p, unit=True))
    y = x.unit_inverse()
    assert y.prec == x.prec
    one = (1,) + (0,) * (p - 2)
    assert agrees(p, oracles.pmul(p, xl, power_basis(y)), one, y.prec)


@contract
@given(st.data())
def test_div_kappa_agrees_with_oracle(data):
    p = data.draw(primes)
    e = data.draw(st.integers(0, M_WORK - 1))
    z, zl = data.draw(cosets(p))
    x = CTX[p].kappa_power(e) * z
    assume(x.prec > e)
    y = x.div_kappa(e)
    assert y.prec == x.prec - e
    # kappa^e * y is known mod P^{x.prec}, like every lift kappa^e * z' of x
    assert agrees(p, oracles.pmul(p, kappa_pow(p, e), power_basis(y)),
                  oracles.pmul(p, kappa_pow(p, e), zl), x.prec)


def div_kappa_stepwise(x, e):
    """CycElt.div_kappa as one canonical division by kappa per step, kept as its oracle."""
    if e < 0:
        raise ValueError("e must be >= 0")
    if x.prec <= e:
        raise PrecisionExhausted(f"precision {x.prec} <= shift {e}")
    ctx = x.ctx
    p, d, red = ctx.p, ctx.d, ctx.kappa_reduction
    digs, prec = list(x.digits), x.prec
    for _ in range(e):
        if all(v == 0 for v in digs):
            prec -= 1
            continue
        if digs[0] % p != 0:
            raise InsufficientValuation("element is not divisible by kappa")
        top = -(digs[0] // p)
        digs = [digs[j] - top * red[j] for j in range(1, d)] + [top]
        prec -= 1
        digs = list(ctx._canonical(digs, prec))
    return CycElt(ctx, tuple(digs), prec)


@contract
@given(st.data())
def test_div_kappa_equals_stepwise_division(data):
    # zero cosets, multiples of kappa^j for j below, at and above e, and any
    # digits; e up to past the precision
    p = data.draw(primes)
    ctx = CTX[p]
    x = data.draw(cosets(p))[0]
    kind = data.draw(st.sampled_from(("zero", "kappa", "digits")))
    if kind == "zero":
        x = ctx.zero(x.prec)
    elif kind == "kappa":
        x = ctx.kappa_power(data.draw(st.integers(0, x.prec + 2)), x.prec) * x
    e = data.draw(st.integers(0, x.prec + 2))
    outcomes = []
    for f in (CycElt.div_kappa, div_kappa_stepwise):
        try:
            y = f(x, e)
            outcomes.append((y.digits, y.prec))
        except (InsufficientValuation, PrecisionExhausted) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@lru_cache(maxsize=None)
def primitive_root(p):
    return next(g for g in range(2, p) if len({pow(g, e, p) for e in range(1, p)}) == p - 1)


@contract
@given(st.data())
def test_zp_digit_test_matches_galois_invariance(data):
    # u is fixed by the Galois group mod P^prec iff its digits j >= 1 vanish;
    # isom._zp_units relies on this to keep only Z_p units
    p = data.draw(primes)
    ctx = CTX[p]
    if data.draw(st.booleans()):
        u = data.draw(cosets(p, unit=True))[0]
        prec = u.prec
    else:
        prec = data.draw(st.integers(1, M_WORK))
        u = ctx.from_int(data.draw(st.integers(-p ** 9, p ** 9).filter(lambda n: n % p)), prec)
    for _ in range(data.draw(st.integers(0, 2))):
        j = data.draw(st.integers(1, p - 2))
        e = data.draw(st.integers(0, prec // (p - 1) + 1))
        b = data.draw(st.integers(1, p - 1))
        u = u + ctx.kappa_power(j, prec) * (b * p ** e)
    assert (not any(u.digits[1:])) == u.galois(primitive_root(p)).congruent(u, u.prec)


@contract
@given(st.data())
def test_undecidable_questions_raise(data):
    p = data.draw(primes)
    (x, xl), (y, yl) = data.draw(cosets(p)), data.draw(cosets(p))
    with pytest.raises(PrecisionExhausted):
        x.div_kappa(data.draw(st.integers(x.prec, M_WORK + 5)))
    with pytest.raises(PrecisionExhausted):
        x.congruent(y, data.draw(st.integers(min(x.prec, y.prec) + 1, M_WORK + 5)))
    # below the known precision the answer is the oracle's
    m = data.draw(st.integers(0, min(x.prec, y.prec)))
    v = oracles.valuation(p, oracles.psub(xl, yl))
    assert x.congruent(y, m) == (v is None or v >= m)


@st.composite
def wedge_factors(draw, p):
    """x + P^prec with a random lift: random digits, zero (AtLeast), or random digits times kappa^e."""
    ctx = CTX[p]
    x, xl = draw(cosets(p))
    kind = draw(st.sampled_from(("digits", "zero", "kappa")))
    if kind == "digits":
        return x, xl
    if kind == "zero":
        x = ctx.zero(x.prec)
    else:
        x = ctx.kappa_power(draw(st.integers(0, 2 * M_WORK)), x.prec) * x
    r = draw(st.lists(st.integers(-p ** 2, p ** 2), min_size=ctx.d, max_size=ctx.d))
    return x, oracles.padd(power_basis(x), oracles.pmul(p, kappa_pow(p, x.prec), tuple(r)))


def check_theta_a(p, a, x, xl, y, yl):
    b = (1 - a) % p
    z = theta_a_eval(a, x, y)
    galois_route = x.galois(a) * y.galois(b) - x.galois(b) * y.galois(a)
    assert (z.digits, z.prec) == (galois_route.digits, galois_route.prec)
    assert agrees(p, power_basis(z), oracles.theta_a(p, a, xl, yl), z.prec)


def theta_a_property(data):
    p = data.draw(primes)
    (x, xl), (y, yl) = data.draw(wedge_factors(p)), data.draw(wedge_factors(p))
    for a in range(2, (p - 1) // 2 + 1):
        check_theta_a(p, a, x, xl, y, yl)


test_theta_a_tables_agree_with_galois_route = contract(given(st.data())(theta_a_property))


def test_corrupted_theta_table_row_is_caught(monkeypatch):
    # one row theta_2(kappa^1 ^ kappa^4) of the p = 7 table off by kappa^3
    ctx = PrimeContext(7, M_WORK)
    pairs, cols = homs._theta_table(ctx, 2)
    k = pairs.index((1, 4))
    bad = [list(col) for col in cols]
    bad[3][k] += 1
    ctx._theta_tabs[2] = (pairs, tuple(map(tuple, bad)))
    x, y = ctx.kappa_power(1), ctx.kappa_power(4)
    with pytest.raises(AssertionError):
        check_theta_a(7, 2, x, power_basis(x), y, power_basis(y))
    # the property test finds it too (without shrinking, which only costs time)
    monkeypatch.setitem(CTX, 7, ctx)
    with pytest.raises(AssertionError):
        settings(contract, phases=[Phase.generate])(given(st.data())(theta_a_property))()
