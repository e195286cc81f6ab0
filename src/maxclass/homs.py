"""The P-equivariant homomorphisms gamma = sum_a c_a * theta_a.

theta_a sends x ^ y to sigma_a(x) sigma_{1-a}(y) - sigma_{1-a}(x) sigma_a(y);
with a running over 2 .. (p-1)/2 these span the homomorphism space, so a
coefficient vector (c_2, ..., c_{l+1}) is the universal coordinate system.
Membership in the surjective set Hhat_i is decided through the Vandermonde
criterion: (c) V_i B must be integral with at least one unit entry; for a
vector without kappa-denominators, from residues mod P.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import add, mul

from .cyclotomic import (
    CycElt,
    ContextMismatch,
    InsufficientValuation,
    MaxclassError,
    PrecisionExhausted,
    PrimeContext,
    Valuation,
)


class DenominatorCap(MaxclassError):
    pass


class NotInHhat(MaxclassError):
    pass


def o_a(p: int, a: int) -> int:
    """Multiplicative order of a(1-a)^{-1} in (Z/pZ)*."""
    if not 2 <= a <= (p - 1) // 2:
        raise ValueError(f"a must lie in 2..{(p - 1) // 2}, got {a}")
    x = a * pow(1 - a, -1, p) % p
    order, y = 1, x
    while y != 1:
        y = y * x % p
        order += 1
    return order


def epsilon(p: int, a: int, i: int, j: int) -> int:
    return 1 if (i - j) % o_a(p, a) == 0 else 0


def _theta_table(ctx: PrimeContext, a: int) -> tuple:
    """The pairs r < s <= p-2 and, per digit t, the column of theta_a(kappa^r ^ kappa^s).

    Built once per context and a from the cached Galois powers, mod P^M_work.
    """
    tab = ctx._theta_tabs.get(a)
    if tab is None:
        ga, gb = ctx._galois_powers(a), ctx._galois_powers((1 - a) % ctx.p)
        pairs = tuple(combinations(range(ctx.d), 2))
        rows = [ctx._canonical([u - v for u, v in zip(ctx._mul_raw(ga[r], gb[s]),
                                                      ctx._mul_raw(gb[r], ga[s]))], ctx.M_work)
                for r, s in pairs]
        tab = ctx._theta_tabs[a] = (pairs, tuple(zip(*rows)))
    return tab


def theta_a_eval(a: int, x: CycElt, y: CycElt) -> CycElt:
    """theta_a(x ^ y) = sum_{r<s} (x_r y_s - x_s y_r) theta_a(kappa^r ^ kappa^s) over the digits.

    The precision is that of sigma_a(x) sigma_{1-a}(y); every step is a ring
    operation modulo P^M_work on the digit representatives, so the digits are
    those of sigma_a(x) sigma_{1-a}(y) - sigma_{1-a}(x) sigma_a(y).
    """
    ctx = x.ctx
    if not 2 <= a <= (ctx.p - 1) // 2:
        raise ValueError(f"a must lie in 2..{(ctx.p - 1) // 2}, got {a}")
    x._check_ctx(y)
    prec = min(x.prec + y.valuation().bound, y.prec + x.valuation().bound, ctx.M_work)
    pairs, cols = _theta_table(ctx, a)
    xd, yd = x.digits, y.digits
    wedge = [xd[r] * yd[s] - xd[s] * yd[r] for r, s in pairs]
    return CycElt(ctx, ctx._canonical([sum(map(mul, wedge, col)) for col in cols], prec), prec)


class _LevelUnit:
    """For one a: u = sigma_a(kappa) sigma_{1-a}(kappa), diff = theta^a - theta^{1-a}, the row u^0..u^{l-1} of B, and the powers of u and z = u/kappa.

    u and diff are known mod P^M, M = M_work.  The powers of u start at 1 and
    grow by the CycElt product with u, so u_pow(i) is the value u.pow(i) forms,
    at precision M.  z lies in O, as v(sigma_k(kappa)) = 1 for k prime to p, so
    dividing u by kappa is exact and z is known mod P^{M-1}; z_pow(i) keeps the
    digits of z^i mod P^{M-1}, since a raw product of representatives mod
    P^{M-1} of elements of O represents their product mod P^{M-1}.  Either list
    grows by one product per new level; z's starts at the first level i >= 1,
    so M >= 2 there.  Built once per context and a.
    """

    def __init__(self, ctx: PrimeContext, a: int):
        kappa, b = ctx.kappa_power(1), (1 - a) % ctx.p
        self.ctx = ctx
        self.u = kappa.galois(a) * kappa.galois(b)
        self.diff = ctx.theta(a) - ctx.theta(b)
        self._u_pows = [ctx.one()]
        self.b_row = tuple(self.u_pow(j) for j in range(ctx.l))
        self._z_pows: list[tuple[int, ...]] = []

    def u_pow(self, i: int) -> CycElt:
        pows = self._u_pows
        while len(pows) <= i:
            pows.append(pows[-1] * self.u)
        return pows[i]

    def z_pow(self, i: int) -> tuple[int, ...]:
        ctx, pows = self.ctx, self._z_pows
        if not pows:
            pows += [ctx.one().digits, self.u.div_kappa(1).digits]
        while len(pows) <= i:
            pows.append(ctx._canonical(ctx._mul_raw(pows[-1], pows[1]), ctx.M_work - 1))
        return pows[i]


def _level_units(ctx: PrimeContext) -> list[_LevelUnit]:
    if not ctx._level_units:
        ctx._level_units.extend(_LevelUnit(ctx, a) for a in range(2, ctx.l + 2))
    return ctx._level_units


def _basis_quotients(ctx: PrimeContext, i: int) -> tuple | None:
    """theta_a(kappa^{i+r} ^ kappa^{i+s})/kappa^i mod P^{M-i}, M = M_work, by a and pair r < s; None when i >= M.

    sigma_a is a ring map, so with u_a = sigma_a(kappa) sigma_{1-a}(kappa),
        theta_a(kappa^{i+r} ^ kappa^{i+s}) = u_a^i theta_a(kappa^r ^ kappa^s),
    and the quotient is z_a^i T_rs, z_a = u_a/kappa and T_rs row rs of
    _theta_table(ctx, a), known mod P^M.  For i = 0 that row is the entry.  For
    i >= 1, z_a^i and T_rs are known mod P^{M-1} (_LevelUnit), so the exact
    product of their digit representatives, sum_j t_j (z_a^i kappa^j) with
    each z_a^i kappa^j reduced exactly by kappa^{p-1} = sum_k red_k kappa^k,
    represents the quotient mod P^{M-1}, which contains P^{M-i}.  Canonical
    digits mod P^{M-i} are unique, so they are the digits of theta_a_eval on
    the basis wedge followed by div_kappa(i), and the precision M - i is the
    same.  Built once per context and i.
    """
    if i >= ctx.M_work:
        return None
    tab = ctx._basis_quotients.get(i)
    if tab is None:
        n, rows = ctx.M_work - i, []
        for a, unit in enumerate(_level_units(ctx), 2):
            table = zip(*_theta_table(ctx, a)[1])
            if i:
                # column j of the product by z_a^i is z_a^i kappa^j, one kappa shift per column
                cols, red = [unit.z_pow(i)], ctx.kappa_reduction
                for _ in range(ctx.d - 1):
                    top = cols[-1][-1]
                    cols.append([top * red[0], *(x + top * r for x, r in zip(cols[-1], red[1:]))])
                mat = tuple(zip(*cols))
                table = (ctx._canonical([sum(map(mul, row, t)) for row in mat], n) for t in table)
            rows.append(tuple(CycElt(ctx, t, n) for t in table))
        tab = ctx._basis_quotients[i] = tuple(rows)
    return tab


class CycFrac:
    """An element num / kappa^den_exp of the field K = Q_p(theta).

    Canonical form keeps den_exp minimal: the numerator is stripped of kappa
    factors whenever the denominator is positive.
    """

    __slots__ = ("num", "den_exp", "_inv", "_sigma")

    def __init__(self, num: CycElt, den_exp: int = 0):
        if den_exp > 0 and num.is_zero():
            den_exp = 0
        elif den_exp > 0 and num.valuation().value > 0:
            k = min(num.valuation().value, den_exp)
            num, den_exp = num.div_kappa(k), den_exp - k
        self.num = num
        self.den_exp = den_exp
        self._inv: CycFrac | None = None
        self._sigma: dict[int, CycFrac] | None = None

    @property
    def ctx(self) -> PrimeContext:
        return self.num.ctx

    def __repr__(self) -> str:
        return f"CycFrac({self.num!r}, den_exp={self.den_exp})"

    def valuation(self) -> Valuation:
        """The numerator's cached valuation, shifted by the denominator when there is one."""
        v = self.num.valuation()
        return Valuation(v.value - self.den_exp, v.exact) if self.den_exp else v

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _common(self, other: CycFrac) -> tuple[CycElt, CycElt, int]:
        d = max(self.den_exp, other.den_exp)
        a = self.num * self.ctx.kappa_power(d - self.den_exp, self.num.prec) if d > self.den_exp else self.num
        b = other.num * other.ctx.kappa_power(d - other.den_exp, other.num.prec) if d > other.den_exp else other.num
        return a, b, d

    def __add__(self, other: CycFrac) -> CycFrac:
        a, b, d = self._common(other)
        return CycFrac(a + b, d)

    def __sub__(self, other: CycFrac) -> CycFrac:
        a, b, d = self._common(other)
        return CycFrac(a - b, d)

    def __neg__(self) -> CycFrac:
        return CycFrac(-self.num, self.den_exp)

    def __mul__(self, other: CycFrac | CycElt | int | Fraction) -> CycFrac:
        if isinstance(other, CycFrac):
            return CycFrac(self.num * other.num, self.den_exp + other.den_exp)
        return CycFrac(self.num * other, self.den_exp)

    def inverse(self) -> CycFrac:
        """The inverse, computed on the first call: move searches divide by the same c_a."""
        if self._inv is None:
            v = self.num.valuation()
            if not v.exact:
                raise InsufficientValuation("cannot invert an element that is zero at working precision")
            unit = self.num.div_kappa(v.value).unit_inverse()
            shift = self.den_exp - v.value
            if shift >= 0:
                self._inv = CycFrac(unit * self.ctx.kappa_power(shift, unit.prec), 0)
            else:
                self._inv = CycFrac(unit, -shift)
        return self._inv

    def __truediv__(self, other: CycFrac) -> CycFrac:
        return self * other.inverse()

    def is_galois_fixed(self) -> bool:
        """An integer mod P^prec: every sigma_k returns its digits unchanged."""
        return self.den_exp == 0 and not any(self.num.digits[1:])

    def galois(self, k: int) -> CycFrac:
        """sigma_k applied to the fraction; sigma_k(kappa^-d) = (kappa s_k)^-d.

        Memoised per k, like inverse: move searches apply every sigma_k to the
        same c2_a.  A Galois-fixed fraction is its own image.
        """
        if k % self.ctx.p == 0:
            raise ValueError("Galois index must be nonzero mod p")
        if self.is_galois_fixed():
            return self
        if self._sigma is None:
            self._sigma = {}
        img = self._sigma.get(k)
        if img is None:
            if self.den_exp == 0:
                img = CycFrac(self.num.galois(k), 0)
            else:
                # sigma_k(kappa)^den = kappa^den * s_k^den with s_k a fixed unit, taken at
                # M_work rather than at the numerator's precision
                s_k = self.ctx.kappa_power(1).galois(k).div_kappa(1)
                img = CycFrac(self.num.galois(k) * s_k.unit_inverse().pow(self.den_exp), self.den_exp)
            self._sigma[k] = img
        return img

    def congruent(self, other: CycFrac, m: int) -> bool:
        """True iff self - other lies in P^m."""
        a, b, d = self._common(other)
        return a.congruent(b, m + d)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den_exp": self.den_exp}

    @classmethod
    def from_json(cls, ctx: PrimeContext, obj: dict) -> CycFrac:
        if type(den_exp := obj["den_exp"]) is not int or den_exp < 0:
            raise ValueError(f"den_exp must be an int >= 0, got {den_exp!r}")
        return cls(CycElt.from_json(ctx, obj["num"]), den_exp)


class GammaCoeffs:
    """A homomorphism given by its coefficient vector (c_2, ..., c_{l+1}).

    Frame constructions require membership in Hhat_i (check=True); scan grids
    may carry raw vectors with check=False.  checked is True once it has passed,
    so a Lie ring on this gamma need not repeat it; i and ctx are read from here
    alone.  Every coefficient is of ctx, or of an equal context, whatever check is.
    """

    def __init__(self, ctx: PrimeContext, i: int, coeffs, check: bool = True, den_cap: int | None = None):
        coeffs = tuple(c if isinstance(c, CycFrac) else CycFrac(c) for c in coeffs)
        if len(coeffs) != ctx.l:
            raise ValueError(f"expected {ctx.l} coefficients, got {len(coeffs)}")
        cap = ctx.l * (ctx.l - 1) + 2 if den_cap is None else den_cap
        for c in coeffs:
            if c.den_exp > cap:
                raise DenominatorCap(f"den_exp {c.den_exp} exceeds cap {cap}")
            if c.ctx is not ctx and c.ctx != ctx:
                raise ContextMismatch(f"{c.ctx!r} vs {ctx!r}")
        self.ctx = ctx
        self.i = i
        self.coeffs = coeffs
        # the vector by value, for LieRingSpec equality and the witness memo of isom
        self.content_key = tuple((c.den_exp, c.num.prec, c.num.digits) for c in coeffs)
        if check and not in_Hhat(self):
            raise NotInHhat(f"coefficient vector is not in Hhat_{i}")
        self.checked = check

    @classmethod
    def from_integers(cls, ctx: PrimeContext, i: int, values, check: bool = True) -> GammaCoeffs:
        return cls(ctx, i, [CycFrac(ctx.from_int(v)) for v in values], check=check)

    @cached_property
    def integer_coeffs(self) -> tuple[tuple[int, int, int, int | None], ...] | None:
        """(digit 0, precision, valuation bound, inverse) of each c_a, or None unless every c_a is an integer.

        An integer here is a Galois-fixed c_a (is_galois_fixed), known mod
        P^prec, so its digit 0 is its residue mod
        p^e, e = ceil(prec/(p-1)); the inverse is that of a unit mod p^e, else
        None.  Every grid vector at coeff_mod 1 has only such coefficients.
        Computed once per gamma, for the move search.
        """
        ctx = self.ctx
        if not all(c.is_galois_fixed() for c in self.coeffs):
            return None
        out = []
        for c in self.coeffs:
            a, mod = c.num.digits[0], ctx.digit_moduli(c.num.prec)[0]
            out.append((a, c.num.prec, c.num.valuation().bound, pow(a, -1, mod) if a % ctx.p else None))
        return tuple(out)

    @property
    def key(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(den_exp, digits) of each c_a, naming the vector by its canonical digits.

        It names the vector mod P^m when each c_a has the canonical digits of
        its coset mod P^{m + den_exp}, as grid vectors at coeff_mod and
        apply_move outputs at m have.
        """
        return tuple((c.den_exp, c.num.digits) for c in self.coeffs)

    def is_integral(self) -> bool:
        """Integral at working precision: every c_a has den_exp 0, every nonzero c_a is known mod P^M_work."""
        return all(c.den_exp == 0 and (c.is_zero() or c.num.prec == self.ctx.M_work) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"GammaCoeffs(p={self.ctx.p}, i={self.i}, coeffs={list(self.coeffs)!r})"

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "i": self.i, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, ctx: PrimeContext, obj: dict, check: bool = True) -> GammaCoeffs:
        if obj["p"] != ctx.p:
            raise ContextMismatch(f"serialized p={obj['p']} vs context p={ctx.p}")
        return cls(ctx, int(obj["i"]), [CycFrac.from_json(ctx, c) for c in obj["coeffs"]], check=check)


def gamma_eval(g: GammaCoeffs, x: CycElt, y: CycElt) -> CycElt:
    """sum over nonzero c_a of c_a kappa^(D - e_a) theta_a(x ^ y), divided by kappa^D, D the largest den_exp."""
    ctx = g.ctx
    d_max = max(c.den_exp for c in g.coeffs)
    acc = ctx.zero(min(x.prec, y.prec))
    for a, c in enumerate(g.coeffs, 2):
        if c.is_zero():
            continue
        t = c.num * theta_a_eval(a, x, y)
        if d_max > c.den_exp:
            t = t * ctx.kappa_power(d_max - c.den_exp, t.prec)
        acc = acc + t
    return acc.div_kappa(d_max) if d_max else acc


def bracket_quotients(g: GammaCoeffs) -> list[CycElt]:
    """gamma(kappa^{i+r} ^ kappa^{i+s})/kappa^i by basis pair r < s < p-1, i = g.i, from the numerator_table.

    Entry rs is row rs of the table, N = kappa^D gamma(e_r ^ e_s)/kappa^i mod
    P^{M-i} with e_r = kappa^{i+r} and D the largest den_exp, put to the
    precision n - i, n = n_rs of _bracket_precisions, then div_kappa(D), even
    for D = 0.  It has the digits and precision of the ring route, gamma_eval on
    the basis pair and then div_kappa(i), and raises where that route raises.
    That route stores X = kappa^D gamma(e_r ^ e_s) at precision n, equal to
    kappa^i N mod P^n (_bracket_precisions), and divides it by kappa^D, then by
    kappa^i.  Division by kappa^e of a value known mod P^k divides a
    representative exactly, is unique mod P^{k-e}, and raises
    PrecisionExhausted when k <= e, InsufficientValuation when the value is
    not in P^e.  So both routes succeed iff n - i > D and X lies in P^{D+i}.
    Then X is in P^i and X/kappa^i = N mod P^{n-i}; this lies in P^D iff X
    lies in P^{D+i}, and both quotients are X/kappa^{D+i}, with the canonical
    digits mod P^{n-i-D}.  If n - i <= D this raises PrecisionExhausted at
    once, where the ring route raises it at its first or second division, or
    InsufficientValuation at its first when X is not in P^D.  A member of
    Hhat_i maps P^i ^ P^i into P^{2i+1}, so neither route meets an
    InsufficientValuation on it, and the error classes agree.
    """
    ctx, i = g.ctx, g.i
    d_max = max(c.den_exp for c in g.coeffs)
    # the table's digits represent the coset mod P^{n-i}; div_kappa canonicalises
    return [CycElt(ctx, row, n - i).div_kappa(d_max)
            for row, n in zip(numerator_table(g), _bracket_precisions(g))]


def _bracket_precisions(g: GammaCoeffs) -> list[int]:
    """The precision n_rs at which ring operations know kappa^D gamma(e_r ^ e_s), e_r = kappa^{i+r}, i = g.i, by r < s.

    With M = M_work, D the largest den_exp, pi_a, nu_a, e_a the precision,
    valuation bound and den_exp of c_a, and omega_a that of theta_a(e_r ^ e_s) mod P^M,
        n_rs = min(M, min over nonzero c_a of pi_a + omega_a + min(D - e_a, nu_a + omega_a)).
    A ring operation reduces the digit representatives mod P^n, n no more than
    the product rule prec(xy) = min(prec x + v(y), prec y + v(x), M) allows, v
    the valuation bound; so a value stored at precision n is, mod P^n, the same
    formula evaluated exactly on the representatives, and may be read from
    another route such as the numerator_table.  Here c_a theta_a(e_r ^ e_s) has
    the precision tau_a = min(pi_a + omega_a, M) and the bound min(nu_a + omega_a,
    tau_a), nu_a < pi_a being exact; times kappa^{D-e_a}, of bound min(D - e_a, tau_a),
    the precision min(tau_a + min(D - e_a, nu_a + omega_a), M), as nu_a < pi_a.  The
    sum, from 0 mod P^M, has the least.  A c_a known mod P^M reads no omega_a.
    omega_a is read as i plus the valuation bound of the quotient
    theta_a(e_r ^ e_s)/kappa^i mod P^{M-i} (_basis_quotients), or as M when
    i >= M: the theta value mod P^M has bound v if it is not 0 mod P^M, and
    the quotient then has v - i; if it is 0 mod P^M, its bound is M and the
    quotient's M - i; and for i >= M every basis wedge lies in P^M.
    """
    ctx, i, top = g.ctx, g.i, g.ctx.M_work
    out, d_max = [top] * (ctx.d * (ctx.d - 1) // 2), max(c.den_exp for c in g.coeffs)
    for a, c in enumerate(g.coeffs):
        if c.num.prec < top and not c.is_zero():
            pi, nu, e = c.num.prec, c.num.valuation().bound, d_max - c.den_exp
            rows = _basis_quotients(ctx, i)
            omegas = [top] * len(out) if rows is None else [i + q.valuation().bound for q in rows[a]]
            for j, om in enumerate(omegas):
                out[j] = min(out[j], pi + om + min(e, nu + om))
    return out


def numerator_table(g: GammaCoeffs) -> list[tuple[int, ...]]:
    """kappa^D gamma(kappa^{i+r} ^ kappa^{i+s})/kappa^i mod P^{M-i}, i = g.i, as canonical digits, by pair r < s.

    D is the largest den_exp, so the entry is sum_a c_a kappa^(D - e_a) (theta_a/kappa^i)
    over the representatives c_a of the numerators, from the cached quotients:
    no division, and no precision of the c_a is read.  For i >= M_work every
    entry is 0.  Built afresh on each call.
    """
    ctx, i = g.ctx, g.i
    n, pairs = ctx.M_work - i, ctx.d * (ctx.d - 1) // 2
    if n <= 0:
        return [(0,) * ctx.d] * pairs
    d_max = max(c.den_exp for c in g.coeffs)
    table = [[0] * ctx.d for _ in range(pairs)]
    for c, row in zip(g.coeffs, _basis_quotients(ctx, i)):
        if c.is_zero():
            continue
        num = c.num.digits
        if c.den_exp < d_max:
            num = ctx._mul_raw(num, ctx.kappa_power(d_max - c.den_exp).digits)
        if any(num[1:]):
            terms = (ctx._mul_raw(num, q.digits) for q in row)
        else:
            # an integer times q: the product that _mul_raw forms, with nothing to reduce
            terms = ([num[0] * x for x in q.digits] for q in row)
        for acc, term in zip(table, terms):
            acc[:] = map(add, acc, term)
    return [ctx._canonical(acc, n) for acc in table]


class VandermondeData:
    """The unit diagonal V_i, the Vandermonde matrix B, the u_a, and V_i B (VB).

    residue_cols[j][a] is what in_Hhat reads of VB[a][j] for a vector with
    no kappa-denominator: (digit 0 mod p, precision, valuation bound).

    B[a][0] = u_a^0 = 1, so VB[a][0] is V_diag[a] itself: the product v * 1
    would keep v's digits and its precision min(v.prec, M + v(v), M) = v.prec.
    """

    def __init__(self, ctx: PrimeContext, i: int, v_diag, b, u):
        self.ctx = ctx
        self.i = i
        self.V_diag = tuple(v_diag)
        self.B = tuple(tuple(row) for row in b)
        self.u = tuple(u)
        self.VB = tuple((v,) + tuple(v * x for x in row[1:]) for v, row in zip(self.V_diag, self.B))
        self.residue_cols = tuple(
            tuple((row[j].digits[0] % ctx.p, row[j].prec, row[j].valuation().bound) for row in self.VB)
            for j in range(ctx.l))


def vandermonde(ctx: PrimeContext, i: int) -> VandermondeData:
    """V_i, B and the u_a, built once per context and i.

    The diagonal entry is (theta^a - theta^{1-a}) u_a^i / kappa^{2i+1}, with
    u_a^i read from _LevelUnit.u_pow, extended by one product per level, not
    formed by pow(i): the same CycElt.  It still divides by kappa^{2i+1}, so
    M_work <= 2i+1 raises the same PrecisionExhausted on every call.
    """
    vd = ctx._vandermonde.get(i)
    if vd is None:
        units = _level_units(ctx)
        v_diag = [(unit.diff * unit.u_pow(i)).div_kappa(2 * i + 1) for unit in units]
        vd = ctx._vandermonde[i] = VandermondeData(ctx, i, v_diag, [unit.b_row for unit in units],
                                                   [unit.u for unit in units])
    return vd


def _row_times_vib(g: GammaCoeffs, vd: VandermondeData) -> list[CycFrac]:
    # entries of (c_2, ..., c_{l+1}) V_i B
    entries = []
    for j in range(g.ctx.l):
        acc = CycFrac(g.ctx.zero())
        for idx, c in enumerate(g.coeffs):
            acc = acc + c * vd.VB[idx][j]
        entries.append(acc)
    return entries


def _unit_entry_mod_p(g: GammaCoeffs, vd: VandermondeData) -> bool:
    """in_Hhat for a vector with every den_exp 0, from residues mod P."""
    p = g.ctx.p
    cs = [(c.num.digits[0] % p, c.num.prec, c.num.valuation().bound) for c in g.coeffs]
    undecided_unit = False
    for col in vd.residue_cols:
        n, s = g.ctx.M_work, 0
        for (r, prec, v), (cr, cprec, cv) in zip(col, cs):
            n = min(n, cprec + v, prec + cv)
            s += cr * r
        if n == 0:
            undecided_unit = True
        elif s % p:
            return True
    if undecided_unit:
        raise PrecisionExhausted("unit test undecidable at working precision")
    return False


def in_Hhat(g: GammaCoeffs) -> bool:
    """Surjectivity criterion at i = g.i: (c) V_i B integral with at least one unit entry.

    Two routes give the same verdict, or the same PrecisionExhausted.

    A vector with every den_exp 0 (every grid vector, every --coeff build) is
    decided mod P.  O/P = F_p, and the residue of x there is digit 0 of x
    mod p: each entry -binom(p, j+1) of the kappa^{p-1} reduction row is
    divisible by p, so a product's digit 0 is a_0 b_0 mod p.  Entry j of
    (c) V_i B is sum_a c_a VB[a][j], integral, and the ring operations give
    it the precision
        n_j = min(M_work, min_a min(prec c_a + v(VB[a][j]), prec VB[a][j] + v(c_a))),
    v the valuation bound, so n_j >= 0.  If n_j >= 1, its digit 0 is
    sum_a c_a,0 VB[a][j],0 mod p, and the entry is a unit iff that sum is
    nonzero mod p; otherwise its valuation is at least 1.  If n_j = 0 the
    entry is unknown mod P: the undecided unit, which raises when no other
    entry is a unit.  No valuation is negative.  VandermondeData keeps the
    residues, precisions and valuation bounds of VB, once per (ctx, i).

    A vector with kappa-denominators forms the row product in K
    (_row_times_vib).  Only there can an entry have a negative valuation:
    exact, so the vector is not in Hhat_i, or a bound, which raises.
    """
    vd = vandermonde(g.ctx, g.i)
    if all(c.den_exp == 0 for c in g.coeffs):
        return _unit_entry_mod_p(g, vd)
    saw_unit = False
    undecided_unit = False
    for e in _row_times_vib(g, vd):
        v = e.valuation()
        if v.exact:
            if v.value < 0:
                return False
            if v.value == 0:
                saw_unit = True
        else:
            if v.value < 0:
                raise PrecisionExhausted(
                    f"entry valuation undecidable: known only >= {v.value} at working precision")
            if v.value == 0:
                undecided_unit = True
    if saw_unit:
        return True
    if undecided_unit:
        raise PrecisionExhausted("unit test undecidable at working precision")
    return False


def min_probe_valuation(g: GammaCoeffs) -> Valuation:
    """Minimum valuation of gamma over the probe wedges kappa^{i+j} ^ kappa^{i+j-1}, i = g.i.

    Independent route to the Hhat_i criterion: membership holds iff this
    equals exactly 2i+1.
    """
    ctx, i = g.ctx, g.i
    vals = [gamma_eval(g, ctx.kappa_power(i + j), ctx.kappa_power(i + j - 1)).valuation()
            for j in range(1, ctx.l + 1)]
    return Valuation.minimum(vals)


def images_to_coeffs(ctx: PrimeContext, i: int, images) -> GammaCoeffs:
    """Invert the probe-wedge system: find c with c V_i B = (images_j / kappa^{2i+1}).

    Exact Gaussian elimination over K with minimal-valuation pivoting.  The
    resulting gamma reproduces the given images on the probe wedges.
    """
    images = list(images)
    if len(images) != ctx.l:
        raise ValueError(f"expected {ctx.l} images, got {len(images)}")
    vd = vandermonde(ctx, i)
    n = ctx.l
    # rows j, columns a: M[j][a] = v_a u_a^{j-1}; augmented with rhs
    rows = [[CycFrac(vd.VB[a][j]) for a in range(n)] for j in range(n)]
    rhs = [CycFrac(img.div_kappa(2 * i + 1)) for img in images]
    perm = list(range(n))
    for col in range(n):
        pivot_row = None
        pivot_val = None
        for r in range(col, n):
            v = rows[r][col].valuation()
            if v.exact and (pivot_val is None or v.value < pivot_val):
                pivot_row, pivot_val = r, v.value
        if pivot_row is None:
            raise PrecisionExhausted("system is singular at working precision")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        inv = rows[col][col].inverse()
        for r in range(n):
            if r == col:
                continue
            factor = rows[r][col] * inv
            if factor.is_zero():
                continue
            for cc in range(col, n):
                rows[r][cc] = rows[r][cc] - factor * rows[col][cc]
            rhs[r] = rhs[r] - factor * rhs[col]
    coeffs = [rhs[col] * rows[col][col].inverse() for col in range(n)]
    return GammaCoeffs(ctx, i, coeffs, check=False)


def shift_check(g: GammaCoeffs) -> bool:
    """Membership at g.i + (p-1), which the multiplication-by-p bijection predicts."""
    ctx, i = g.ctx, g.i
    if not in_Hhat(g):
        raise NotInHhat(f"shift_check requires membership in Hhat_{i}")
    return in_Hhat(GammaCoeffs(ctx, i + ctx.p - 1, g.coeffs, check=False))
