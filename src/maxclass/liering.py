"""The Lie rings L_{i,m}(gamma): Jacobi ideal, brackets, lower central series.

L_{i,m}(gamma) is P^i/P^m with bracket gamma(a ^ b) + P^m.  The Jacobi ideal
J_i(gamma) = P^lambda caps the admissible truncation: the bracket satisfies
the Jacobi identity exactly when m <= lambda.  An element is the canonical
digit tuple of x/kappa^i modulo P^{m-i}, and the bracket contracts digit
wedges with one table of basis brackets, so nothing is lifted to the working
precision.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import add, mod, mul, neg, sub

from .cyclotomic import CycElt, MaxclassError, PrecisionExhausted, Valuation
from .homs import GammaCoeffs, NotInHhat, bracket_quotients, gamma_eval, in_Hhat, numerator_table


class NotNilpotent(MaxclassError):
    pass


def jacobiator(g: GammaCoeffs, x: CycElt, y: CycElt, z: CycElt) -> CycElt:
    """gamma(gamma(x^y)^z) + gamma(gamma(y^z)^x) + gamma(gamma(z^x)^y)."""
    return (gamma_eval(g, gamma_eval(g, x, y), z)
            + gamma_eval(g, gamma_eval(g, y, z), x)
            + gamma_eval(g, gamma_eval(g, z, x), y))


def jacobi_exponent(g: GammaCoeffs) -> Valuation:
    """Exponent lambda with J_i(gamma) = P^lambda, i = g.i, from the basis triples.

    The Jacobiator is alternating and trilinear over Z_p and e_r = kappa^{i+r},
    r = 0..p-2, is a module basis of P^i, so the ideal generated by all
    Jacobiators equals the one generated on the binom(p-1, 3) basis triples.

    For gamma integral at working precision M the triples are contracted in
    coordinates.  Let n = M - i and C the numerator_table of g, built afresh,
    so C[r][s] is gamma(e_r ^ e_s)/kappa^i mod P^n.  The digits C[r][s]_u are the
    Z_p-coordinates of gamma(e_r ^ e_s) on the e_u, so bilinearity gives
        J(r, s, t)/kappa^i = sum_u C[r][s]_u C[u][t] + C[s][t]_u C[u][r] + C[t][r]_u C[u][s].
    This is exact mod P^n: kappa^i C[r][s] is gamma(e_r ^ e_s) up to P^M, and
    gamma(P^M ^ P^{i+t}) lies in P^M, so that error moves J only by P^M.
    The nested route gamma(gamma(e_r ^ e_s) ^ e_t) labels the same residues:
    every evaluation there has precision min(x.prec + v(y), y.prec + v(x), M)
    = M, since its inputs are known mod P^M and all valuations are >= 0, so
    its label is Exact(v(J)) iff J(r, s, t) is not 0 mod P^M, and AtLeast(M)
    otherwise.  Hence lambda = i + the least valuation of the contracted
    residues, or AtLeast(M) when all vanish, as for every i >= M.

    The floor: sigma_a keeps valuations, so theta_a and an integral gamma map
    P^x ^ P^y into P^{x+y}; gamma(e_r ^ e_s) lies in P^{2i+r+s}, J(r, s, t) in
    P^{3i+r+s+t}, and v(J(r, s, t)/kappa^i) >= f = 2i + r + s + t.  So the triples
    are walked in non-decreasing f, keeping least, the least exact valuation
    found (n before any, as an exact residue valuation is < n).  Once f >= least
    every later residue has valuation >= f >= least, so least is the least, and
    the walk stops; with none found, that is AtLeast(M) once f reaches n.

    Any other gamma (kappa-denominators, or coefficients known below M, as
    images_to_coeffs gives) keeps the nested gamma_eval route, whose AtLeast
    labels follow gamma_eval's precision step by step: gamma_eval on the
    binom(p-1, 2) basis pairs first, in combinations order, then on the three
    outer wedges of each triple.
    """
    ctx, i, d = g.ctx, g.i, g.ctx.d
    if not g.is_integral():
        basis = [ctx.kappa_power(i + r) for r in range(d)]
        br = {(r, s): gamma_eval(g, basis[r], basis[s]) for r, s in combinations(range(d), 2)}
        return Valuation.minimum(
            (gamma_eval(g, br[r, s], basis[t]) + gamma_eval(g, br[s, t], basis[r])
             + gamma_eval(g, -br[r, t], basis[s])).valuation()
            for r, s, t in combinations(range(d), 3))
    n = ctx.M_work - i
    if n <= 0:
        return Valuation.at_least(ctx.M_work)
    table = [[(0,) * d for _ in range(d)] for _ in range(d)]
    for (r, s), e in zip(combinations(range(d), 2), numerator_table(g)):
        table[r][s] = e
        table[s][r] = tuple(map(neg, e))
    # cols[t][k]: digit k of C[u][t], as a tuple over u
    cols = [tuple(zip(*(row[t] for row in table))) for t in range(d)]
    least = n
    for r, s, t in sorted(combinations(range(d), 3), key=sum):
        if 2 * i + r + s + t >= least:
            break
        x = table[r][s] + table[s][t] + table[t][r]
        jac = [sum(map(mul, x, a + b + c)) for a, b, c in zip(cols[t], cols[r], cols[s])]
        v = CycElt(ctx, ctx._canonical(jac, n), n).valuation()
        if v.exact:
            least = min(least, v.value)
    return Valuation.exactly(i + least) if least < n else Valuation.at_least(ctx.M_work)


class LcsProfile:
    """kappa-valuation exponents w_1, w_2, ... of a lower central series."""

    __slots__ = ("exponents", "m")

    def __init__(self, exponents: tuple[int, ...], m: int):
        self.exponents = exponents
        self.m = m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.exponents, self.m))

    @property
    def nilpotency_class(self) -> int:
        return sum(1 for w in self.exponents if w < self.m)

    def __repr__(self) -> str:
        return f"LcsProfile({list(self.exponents)}, m={self.m}, class={self.nilpotency_class})"


class LieRingSpec:
    """The Lie ring L_{i,m}(gamma), with lambda computed at construction unless given.

    Its context and level i are gamma's.  Its bracket is Z_p-bilinear, so it
    contracts digit wedges with the table
    C[r][s] = gamma(kappa^{i+r} ^ kappa^{i+s})/kappa^i mod P^{m-i}, read from
    homs.bracket_quotients.
    """

    def __init__(self, gamma: GammaCoeffs, m: int, lam: Valuation | None = None):
        ctx, i = gamma.ctx, gamma.i
        if not i <= m:
            raise ValueError(f"need i <= m, got i={i}, m={m}")
        if ctx.M_work < m:
            raise PrecisionExhausted(f"M_work={ctx.M_work} cannot represent cosets mod P^{m}")
        if not gamma.checked and not in_Hhat(gamma):
            raise NotInHhat(f"gamma is not in Hhat_{i}")
        if lam is None:
            lam = jacobi_exponent(gamma)
        if m > lam.value:
            kind = "lambda" if lam.exact else "the lambda bound"
            raise ValueError(f"m={m} exceeds {kind} {lam.value}; bracket would violate Jacobi")
        self.ctx = ctx
        self.i = i
        self.m = m
        self.gamma = gamma
        self.lam = lam
        self._profile: LcsProfile | None = None
        self._moduli = ctx.digit_moduli(m - i)
        self._table: tuple | None = None

    def __repr__(self) -> str:
        return f"LieRingSpec(p={self.ctx.p}, i={self.i}, m={self.m}, lambda={self.lam!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieRingSpec):
            return NotImplemented
        return (self.ctx == other.ctx and self.i == other.i and self.m == other.m
                and self.gamma.content_key == other.gamma.content_key)

    def __hash__(self) -> int:
        return hash((self.ctx, self.i, self.m, self.gamma.content_key))

    # ---- elements ----

    def _canon(self, digits) -> tuple[int, ...]:
        return tuple(map(mod, digits, self._moduli))

    def element(self, value: CycElt) -> LieElt:
        """The coset value + P^m of an element of P^i known at least mod P^m."""
        if value.prec < self.m:
            raise PrecisionExhausted(f"representative known mod P^{value.prec} < P^{self.m}")
        value = value.reduce_to(self.m)
        if value.valuation().bound < self.i:
            raise ValueError(f"element has valuation below i={self.i}")
        return LieElt(self, value.div_kappa(self.i).digits if self.m > self.i else (0,) * self.ctx.d)

    def zero(self) -> LieElt:
        return LieElt(self, (0,) * self.ctx.d)

    def kappa_power(self, e: int) -> LieElt:
        """The coset of kappa^e, for e >= i."""
        if e < self.i:
            raise ValueError(f"kappa^{e} lies outside P^{self.i}")
        return LieElt(self, self.ctx.kappa_power(e - self.i, self.m - self.i).digits)

    def basis(self) -> list[LieElt]:
        """Module generators kappa^{i+t}, t = 0..p-2, of P^i."""
        return [self.kappa_power(self.i + t) for t in range(self.ctx.d)]

    def enumerate_elements(self):
        """All p^{m-i} cosets, one per canonical digit tuple."""
        for digs in product(*map(range, self._moduli)):
            yield LieElt(self, digs)

    def truncate(self, m: int) -> LieRingSpec:
        """The quotient L_{i,m}(gamma) of this ring, i <= m <= self.m: the ring built at level m.

        lambda depends only on gamma and is handed on, as is Hhat_i membership
        for a gamma checked at construction.  The quotient builds its own
        structure constants from bracket_quotients when a bracket asks for them.
        """
        if not self.i <= m <= self.m:
            raise ValueError(f"need i={self.i} <= m <= {self.m}, got m={m}")
        return LieRingSpec(self.gamma, m, lam=self.lam)

    # ---- structure ----

    def _structure_constants(self) -> tuple:
        """The pairs r < s and, per digit, the column of C[r][s] mod P^{m-i}.

        C is homs.bracket_quotients, for every gamma; each quotient must be known
        mod P^{m-i}, as one of a gamma integral at working precision is (M_work >= m).
        """
        ctx, i, m = self.ctx, self.i, self.m
        if self._table is None and m > i:
            pairs, quotients = tuple(combinations(range(ctx.d), 2)), bracket_quotients(self.gamma)
            for (r, s), e in zip(pairs, quotients):
                if e.prec < m - i:
                    raise PrecisionExhausted(
                        f"gamma(kappa^{i + r} ^ kappa^{i + s}) known mod P^{e.prec + i} < P^{m}")
            self._table = (pairs, tuple(zip(*(ctx._canonical(e.digits, m - i) for e in quotients))))
        return self._table or ((), ((),) * ctx.d)

    def lcs_profile(self) -> LcsProfile:
        if self._profile is None:
            self._profile = lcs_profile(self)
        return self._profile

    @property
    def nilpotency_class(self) -> int:
        return self.lcs_profile().nilpotency_class


class LieElt:
    """A coset x + P^m inside P^i, stored as the canonical digits of x/kappa^i mod P^{m-i}."""

    __slots__ = ("spec", "digits")

    def __init__(self, spec: LieRingSpec, digits: tuple[int, ...]):
        self.spec = spec
        self.digits = digits

    def _check(self, other: LieElt) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise MaxclassError("elements belong to different Lie rings")

    def _quotient(self) -> CycElt:
        # x/kappa^i as an element of O/P^{m-i}
        return CycElt(self.spec.ctx, self.digits, self.spec.m - self.spec.i)

    @property
    def value(self) -> CycElt:
        """The canonical representative x of the coset, known mod P^m."""
        return self._quotient() * self.spec.ctx.kappa_power(self.spec.i, self.spec.m)

    def __repr__(self) -> str:
        return f"LieElt(kappa^{self.spec.i} * {list(self.digits)} mod P^{self.spec.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieElt):
            return NotImplemented
        return self.digits == other.digits and (self.spec is other.spec or self.spec == other.spec)

    def __hash__(self) -> int:
        return hash((self.spec.i, self.spec.m, self.digits))

    def __add__(self, other: LieElt) -> LieElt:
        self._check(other)
        return LieElt(self.spec, self.spec._canon(map(add, self.digits, other.digits)))

    def __sub__(self, other: LieElt) -> LieElt:
        self._check(other)
        return LieElt(self.spec, self.spec._canon(map(sub, self.digits, other.digits)))

    def __neg__(self) -> LieElt:
        return LieElt(self.spec, self.spec._canon(map(neg, self.digits)))

    def __mul__(self, scalar: int | Fraction) -> LieElt:
        return LieElt(self.spec, self._quotient().scalar_mul(scalar).digits)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.digits)

    def valuation(self) -> Valuation:
        # valuation of the coset: exact below m, else AtLeast(m)
        v = self._quotient().valuation()
        return Valuation.exactly(self.spec.i + v.value) if v.exact else Valuation.at_least(self.spec.m)

    def bracket(self, other: LieElt) -> LieElt:
        self._check(other)
        pairs, cols = self.spec._structure_constants()
        x, y = self.digits, other.digits
        wedge = [x[r] * y[s] - x[s] * y[r] for r, s in pairs]
        return LieElt(self.spec, self.spec._canon([sum(map(mul, wedge, col)) for col in cols]))


def layer_step(spec: LieRingSpec, commutators):
    """The step(w) of lower_central_series for L, G(L) or S on spec.

    step(w) is the least valuation of commutators(a, basis) over the layer
    a = kappa^{w+r}, r = 0..p-2, where basis is that of P^i; the three series
    differ only in the commutators.
    """
    basis = spec.basis()
    return lambda w: Valuation.minimum(c.valuation() for r in range(spec.ctx.d)
                                       for c in commutators(spec.kappa_power(w + r), basis))


def lower_central_series(i: int, m: int, step) -> LcsProfile:
    """Exponents w_1 = i < w_2 < ... of a lower central series, clamped at m.

    step(w) is the exponent of the ideal generated by the commutators of the
    layer kappa^{w+r}, r = 0..p-2, with the generators, as layer_step builds it.
    """
    ws = [i]
    while ws[-1] < m:
        nxt = step(ws[-1])
        if not nxt.exact and nxt.value < m:
            raise PrecisionExhausted(
                f"next lcs term known only >= {nxt.value}, below m={m}")
        w = min(nxt.value, m)
        if w <= ws[-1]:
            raise NotNilpotent(f"lower central series stalls at exponent {ws[-1]}")
        ws.append(w)
    return LcsProfile(tuple(ws), m)


def lcs_profile(spec: LieRingSpec) -> LcsProfile:
    """Exponents of the lower central series: w_1 = i, P^{w_{k+1}} = gamma(P^{w_k} ^ P^i) + P^m.

    Each step brackets the layer kappa^{w+r} with the basis, as group_lcs does with group
    commutators.  For integral gamma, gamma_eval on those pairs is known mod P^M_work >= P^m
    and the bracket is its residue mod P^m: both agree below m, and the rest clamps to m.
    """
    return lower_central_series(spec.i, spec.m, layer_step(
        spec, lambda a, basis: [a.bracket(b) for b in basis]))


def check_class_bounds(spec: LieRingSpec) -> dict:
    """Verify the class bounds for the maximal ring L_i(gamma) = L_{i,lambda}.

    Checks class <= 3 + (2p-8)/(i-(p-2)), class <= p-1 for i > p-1, and
    class = 3 for i > 3p-10.  Violations are reported, not raised.
    """
    if not spec.lam.exact:
        raise ValueError("class bounds need an exact lambda")
    p, i = spec.ctx.p, spec.i
    if i <= p - 2:
        raise ValueError(f"class bounds require i > p-2 = {p - 2}")
    lam = spec.lam.value
    maximal = spec if spec.m == lam else LieRingSpec(spec.gamma, lam, lam=spec.lam)
    profile = maximal.lcs_profile()
    cls = profile.nilpotency_class
    bound = Fraction(3) + Fraction(2 * p - 8, i - (p - 2))
    violations = []
    if cls > bound:
        violations.append(f"class {cls} exceeds 3 + (2p-8)/(i-(p-2)) = {bound}")
    if i > p - 1 and cls > p - 1:
        violations.append(f"class {cls} exceeds p-1 = {p - 1} despite i > p-1")
    if i > 3 * p - 10 and cls != 3:
        violations.append(f"class is {cls}, not 3, despite i > 3p-10 = {3 * p - 10}")
    return {
        "p": p,
        "i": i,
        "m": maximal.m,
        "lambda": lam,
        "lcs": list(profile.exponents),
        "class": cls,
        "bounds": {
            "general": str(bound),
            "class_at_most_p_minus_1": i > p - 1,
            "class_exactly_3": i > 3 * p - 10,
        },
        "violations": violations,
    }
