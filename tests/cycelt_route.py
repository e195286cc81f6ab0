"""The CycElt route through L_{i,m}(gamma), G(L) and S_{i,m}(gamma), kept as a test oracle.

A coset of P^m inside P^i is its canonical representative, lifted to the
working precision M_work; the bracket is gamma_eval on those lifts, reduced
mod P^m, and theta acts by a ring product at M_work.  The package stores the
coset as the digit tuple of x/kappa^i mod P^{m-i} instead; on the same
inputs both must give the same coset, which the tests compare through the
digits of LieElt.value.  The Lie lower central series evaluates gamma on the
d^2 ordered pairs of each layer with the basis of P^i.

basis_thetas and vandermonde build each level's tables from scratch:
theta_a_eval on the basis wedges of P^i followed by div_kappa(i) per entry,
and u_a.pow(i).  They are the oracles of
homs._basis_quotients and homs.vandermonde, which read level i off level 0
and extend cached powers by one product per level.  basis_brackets joins
the theta_a values of the basis wedges with CycElt ring operations, as
gamma_eval does.  Divided by kappa^i, it is the oracle of
homs.bracket_quotients, which reads the same quotients from numerator_table
at a precision found in closed form.
"""

from functools import lru_cache
from itertools import combinations

from maxclass import CycElt, PrecisionExhausted, Valuation, gamma_eval, lower_central_series, theta_a_eval
from maxclass.homs import VandermondeData


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


@lru_cache(maxsize=None)
def basis_thetas(ctx, i: int) -> tuple:
    """theta_a(kappa^{i+r} ^ kappa^{i+s}) from theta_a_eval, by a and pair r < s, and the same divided by kappa^i.

    The quotients are known mod P^{M_work - i}, or None when i >= M_work.
    Cached by the value of the context and i.
    """
    basis = [ctx.kappa_power(i + r) for r in range(ctx.d)]
    pairs = tuple(combinations(range(ctx.d), 2))
    thetas = tuple(tuple(theta_a_eval(a, basis[r], basis[s]) for r, s in pairs)
                   for a in range(2, ctx.l + 2))
    quotients = None if i >= ctx.M_work else tuple(
        tuple(t.div_kappa(i) for t in row) for row in thetas)
    return thetas, quotients


def vandermonde(ctx, i: int) -> VandermondeData:
    """V_i, B and the u_a, built afresh: u_a.pow(i) and u_a.pow(j) for every entry."""
    kappa = ctx.kappa_power(1)
    u = []
    for a in range(2, ctx.l + 2):
        b = (1 - a) % ctx.p
        u.append(kappa.galois(a) * kappa.galois(b))
    v_diag = []
    for idx, a in enumerate(range(2, ctx.l + 2)):
        b = (1 - a) % ctx.p
        t = (ctx.theta(a) - ctx.theta(b)) * u[idx].pow(i)
        v_diag.append(t.div_kappa(2 * i + 1))
    b_mat = [[u[idx].pow(j) for j in range(ctx.l)] for idx in range(ctx.l)]
    return VandermondeData(ctx, i, v_diag, b_mat, u)


def basis_brackets(g, i: int) -> dict:
    """gamma(kappa^{i+r} ^ kappa^{i+s}) by pair r < s, from the theta_a values of basis_thetas."""
    ctx = g.ctx
    thetas = basis_thetas(ctx, i)[0]
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
