"""The CycElt route through L_{i,m}(gamma), G(L) and S_{i,m}(gamma), kept as a test oracle.

A coset of P^m inside P^i is its canonical representative, lifted to the
working precision M_work; the bracket is gamma_eval on those lifts, reduced
mod P^m, and theta acts by a ring product at M_work.  The package stores the
coset as the digit tuple of x/kappa^i mod P^{m-i} instead; on the same
inputs both must give the same coset, which the tests compare through the
digits of LieElt.value.  The Lie lower central series evaluates gamma on the
d^2 ordered pairs of each layer with the basis of P^i.

basis_brackets here joins the cached theta_a values of the basis wedges with
CycElt ring operations, as gamma_eval does.  Divided by kappa^i, it is the
oracle of homs.bracket_quotients, which reads the same quotients from
numerator_table at a precision found in closed form.
"""

from itertools import combinations

from maxclass import CycElt, PrecisionExhausted, Valuation, gamma_eval, lower_central_series
from maxclass.homs import _basis_thetas


def combine(g, theta, prec: int) -> CycElt:
    """sum_a c_a * theta(a), with denominators absorbed at the end.

    theta(a) is theta_a on the wedge and is asked only for nonzero c_a; prec is
    the smaller precision of the two wedge factors.  Scale each term by
    kappa^(D - e_a), with D the largest den_exp, sum, then divide by kappa^D.
    """
    ctx = g.ctx
    d_max = max((c.den_exp for c in g.coeffs), default=0)
    acc = ctx.zero(prec)
    for a_idx, c in enumerate(g.coeffs):
        if c.is_zero():
            continue
        t = c.num * theta(a_idx + 2)
        if d_max > c.den_exp:
            t = t * ctx.kappa_power(d_max - c.den_exp, t.prec)
        acc = acc + t
    if d_max == 0:
        return acc
    return acc.div_kappa(d_max)


def basis_brackets(g, i: int) -> dict:
    """gamma(kappa^{i+r} ^ kappa^{i+s}) by pair r < s, from the theta_a values cached per (context, i)."""
    ctx = g.ctx
    thetas = _basis_thetas(ctx, i)[0]
    return {rs: combine(g, lambda a: thetas[a - 2][k], ctx.M_work)
            for k, rs in enumerate(combinations(range(ctx.d), 2))}


def reduce(spec, value: CycElt) -> CycElt:
    """Canonical representative of value + P^m, lifted to working precision."""
    if value.prec < spec.m:
        raise PrecisionExhausted(f"representative known mod P^{value.prec} < P^{spec.m}")
    return CycElt(spec.ctx, spec.ctx._canonical(value.digits, spec.m), spec.ctx.M_work)


def element(spec, value: CycElt) -> CycElt:
    red = reduce(spec, value)
    if red.valuation().bound < spec.i:
        raise ValueError(f"element has valuation below i={spec.i}")
    return red


def bracket(spec, x: CycElt, y: CycElt) -> CycElt:
    return reduce(spec, gamma_eval(spec.gamma, x, y))


def bch_multiply(spec, x: CycElt, y: CycElt, table) -> CycElt:
    """The BCH series through the ring class, every term reduced mod P^m."""
    cache = {}

    def ev(t):
        if isinstance(t, int):
            return x if t == 0 else y
        if t not in cache:
            cache[t] = bracket(spec, ev(t[0]), ev(t[1]))
        return cache[t]

    acc = reduce(spec, x + y)
    for deg in range(2, spec.nilpotency_class + 1):
        for t, c in table.terms.get(deg, []):
            acc = reduce(spec, acc + ev(t).scalar_mul(c))
    return acc


def lcs_profile(spec):
    """The Lie series from gamma_eval on the layer kappa^{w+r} and the basis of P^i, unreduced."""
    ctx = spec.ctx

    def step(w):
        return Valuation.minimum(
            gamma_eval(spec.gamma, ctx.kappa_power(w + r), ctx.kappa_power(spec.i + s)).valuation()
            for r in range(ctx.d) for s in range(ctx.d))

    return lower_central_series(spec.i, spec.m, step)


def theta_power_map(spec, x: CycElt, t: int) -> CycElt:
    return reduce(spec, spec.ctx.theta(t) * x)


def s_group_lcs(spec, table):
    """The S-series from commutators of pairs (g, t), g a lifted representative."""
    ctx, p = spec.ctx, spec.ctx.p

    def multiply(a, b):
        (g, s), (h, t) = a, b
        return bch_multiply(spec, g, theta_power_map(spec, h, s), table), (s + t) % p

    def inverse(a):
        g, s = a
        return theta_power_map(spec, reduce(spec, -g), -s % p), -s % p

    def commutator(a, b):
        return multiply(multiply(multiply(inverse(a), inverse(b)), a), b)

    gens = [(element(spec, ctx.kappa_power(spec.i + r)), 0) for r in range(ctx.d)]
    gens.append((element(spec, ctx.zero()), 1))

    def step(w):
        vals = []
        for r in range(ctx.d):
            a = (element(spec, ctx.kappa_power(w + r)), 0)
            for b in gens:
                g, t = commutator(a, b)
                assert t == 0, "commutator escaped the G-part"
                v = g.valuation()
                vals.append(v if v.exact and v.value < spec.m else Valuation.at_least(spec.m))
        return Valuation.minimum(vals)

    return lower_central_series(spec.i, spec.m, step)
