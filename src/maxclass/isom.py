"""Isomorphism moves on coefficient vectors: unit twists and Galois rewrites.

A move (u, sigma_k) sends c to c' with c'_a = sigma_k^{-1}(rho_a(u) c_a),
where rho_a(u) = u^{-1} sigma_a(u) sigma_{1-a}(u).  When the move congruence
holds mod P^m, the map x -> u sigma_k(x) is an explicit isomorphism witness
between the level-m groups, twisting the theta-action by theta -> theta^k.
Only this sufficient direction is ever used: distinct canonical forms are
reported as "not merged", never as non-isomorphic.

verify_witness checks the witness by linear algebra on coordinates, the
approach of Eick, Leedham-Green and O'Brien, "Constructing automorphism groups
of p-groups", Comm. Algebra 30 (2002): the images of the basis of P^i are
coordinate vectors, and each bracket of two images contracts them with the
numerator_table of c.  gamma_c is not evaluated, and every stored precision
is, in closed form, the one that evaluating gamma with ring operations gives.

find_certified_move solves the congruence at one coefficient for the unit
rather than scanning the unit grid: it skips a candidate only when that
candidate is proven to fail, so each search returns the move, or raises the
error, that trying every candidate in order would.  On integer vectors (every
grid vector at coeff_mod 1) its quotients and congruences are Z_p arithmetic.

find_certified_move, move_congruent and verify_witness take what the
coefficient grid gives them: c, c2 and the move unit of one context (equal
contexts count as one, as in CycElt), and no coefficient with a
kappa-denominator.  Anything else is refused at entry, with ContextMismatch
for a context and ValueError for a kappa-denominator.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul, sub

from .cyclotomic import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ContextMismatch,
    CycElt,
    NonUnit,
    PrecisionExhausted,
    PrimeContext,
    enumerate_units,
)
from .homs import CycFrac, GammaCoeffs, _bracket_precisions, numerator_table


class IsoMove:
    """A unit u together with a Galois index k (the move uses sigma_k)."""

    __slots__ = ("u", "k")

    def __init__(self, u: CycElt, k: int):
        p = u.ctx.p
        if not 1 <= k <= p - 1:
            raise ValueError(f"Galois index must lie in 1..{p - 1}, got {k}")
        v = u.valuation()
        if not (v.exact and v.value == 0):
            raise NonUnit("move unit must have valuation exactly 0")
        self.u = u
        self.k = k

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.u == other.u and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.u, self.k))

    def __repr__(self) -> str:
        return f"IsoMove(u={self.u!r}, k={self.k!r})"

    @classmethod
    def identity(cls, ctx: PrimeContext) -> IsoMove:
        return cls(ctx.one(), 1)

    def compose(self, other: IsoMove) -> IsoMove:
        """The move equal to applying self first, then other.

        sigma_{k2}^{-1}(rho_a(u2) sigma_{k1}^{-1}(rho_a(u1) c)) collects into
        sigma_{k1 k2}^{-1}(rho_a(u1 sigma_{k1}(u2)) c).
        """
        p = self.u.ctx.p
        return IsoMove(self.u * other.u.galois(self.k), self.k * other.k % p)

    def inverse(self) -> IsoMove:
        p = self.u.ctx.p
        kinv = pow(self.k, -1, p)
        return IsoMove(self.u.unit_inverse().galois(kinv), kinv)

    def to_json(self) -> dict:
        return {"u": self.u.to_json(), "k": self.k}

    @classmethod
    def from_json(cls, ctx: PrimeContext, obj: dict) -> IsoMove:
        return cls(CycElt.from_json(ctx, obj["u"]), int(obj["k"]))


def rho(a: int, u: CycElt) -> CycElt:
    """The twist rho_a(u) = u^{-1} sigma_a(u) sigma_{1-a}(u); always a unit.

    Cached on the context: move searches twist by the same few units.
    """
    cache, key = u.ctx._rho, (a, u.prec, u.digits)
    if key not in cache:
        cache[key] = u.unit_inverse() * u.galois(a) * u.galois((1 - a) % u.ctx.p)
    return cache[key]


def apply_move(c: GammaCoeffs, mv: IsoMove, m: int) -> GammaCoeffs:
    """c'_a = sigma_k^{-1}(rho_a(u) c_a), reduced mod P^m at the coefficient level."""
    ctx = c.ctx
    kinv = pow(mv.k, -1, ctx.p)
    out = []
    for a_idx, ca in enumerate(c.coeffs):
        twisted = (ca * rho(a_idx + 2, mv.u)).galois(kinv)
        num = twisted.num.reduce_to(min(twisted.num.prec, m + twisted.den_exp))
        out.append(CycFrac(num, twisted.den_exp))
    return GammaCoeffs(ctx, c.i, out, check=False)


def _refuse(c: GammaCoeffs, c2: GammaCoeffs, u: CycElt | None = None) -> None:
    """Raise unless c2 and u are of c's context and no coefficient has a kappa-denominator."""
    ctx = c.ctx
    if c2.ctx is not ctx and c2.ctx != ctx:
        raise ContextMismatch(f"c2 is of {c2.ctx!r}, c of {ctx!r}")
    if u is not None and u.ctx is not ctx and u.ctx != ctx:
        raise ContextMismatch(f"the move unit is of {u.ctx!r}, c of {ctx!r}")
    for what, g in (("c", c), ("c2", c2)):
        for x in g.coeffs:
            if x.den_exp:
                raise ValueError(f"{what} has a kappa-denominator: the move search takes den_exp 0 only")


def move_congruent(c: GammaCoeffs, c2: GammaCoeffs, mv: IsoMove, m: int) -> bool:
    """The move congruence sigma_k(c2_a) = rho_a(u) c_a mod P^m, all a.

    For integer vectors and an integer unit it is Z_p arithmetic
    (_integer_congruent), with the verdict or the error of the ring operations.
    """
    u, ctx = mv.u, c.ctx
    _refuse(c, c2, u)
    zc, zc2 = c.integer_coeffs, c2.integer_coeffs
    if zc is not None and zc2 is not None and not any(u.digits[1:]):
        return _integer_congruent(ctx.p, zc, zc2, u, m)
    for a_idx, (ca, ca2) in enumerate(zip(c.coeffs, c2.coeffs)):
        lhs = ca2.galois(mv.k)
        rhs = ca * rho(a_idx + 2, mv.u)
        if not lhs.congruent(rhs, m):
            return False
    return True


def witness_map(mv: IsoMove):
    """The additive bijection x -> u sigma_k(x) of P^i/P^m."""
    def phi(x: CycElt) -> CycElt:
        return mv.u * x.galois(mv.k)
    return phi


def _coordinates(ctx: PrimeContext, k: int, i: int) -> tuple[CycElt, ...]:
    """sigma_k(kappa^{i+t})/kappa^i by t < p-1, known mod P^{M_work-i}, cached on the context.

    For i >= M_work every kappa^{i+t} is 0 mod P^M_work, and each quotient is 0
    at precision M_work - i.
    """
    data = ctx._coordinates.get((k, i))
    if data is None:
        n = ctx.M_work - i
        data = ctx._coordinates[k, i] = tuple(
            ctx.kappa_power(i + t).galois(k).div_kappa(i) if n > 0 else CycElt(ctx, (0,) * ctx.d, n)
            for t in range(ctx.d))
    return data


def _witness_differences(c: GammaCoeffs, c2: GammaCoeffs, mv: IsoMove) -> tuple[tuple[int, int], ...]:
    """(precision, valuation bound) of each difference verify_witness tests, in its order.

    The differences are phi(theta e_r) - theta^k phi(e_r), then
    phi(gamma_{c2}(e_r ^ e_s)) - gamma_c(phi e_r ^ phi e_s) for s > r, where
    e_r = kappa^{i+r} and phi(x) = u sigma_k(x).  Each entry is the one that
    evaluating them with CycElt ring operations stores (that route is the
    oracle in tests/), yet gamma is not evaluated: homs._bracket_precisions
    proves that such a value may be found by another route, and gives n_rs(c),
    the precision of gamma_c(e_r ^ e_s).  Below, M = M_work.
    - X_r = phi(e_r)/kappa^i is u times sigma_k(e_r)/kappa^i, known mod P^{M-i}.
      It has valuation r and precision P_r - i, where P_r = min(u.prec + i + r, M)
      is the precision of the ring product u sigma_k(e_r).
    - theta-check: phi(theta e_r) = u theta^k sigma_k(e_r) = theta^k phi(e_r)
      exactly, and both sides have precision P_r, theta being a unit known mod
      P^M; so the entry is (P_r, P_r).
    - gamma_c(phi e_r ^ phi e_s).  In the ring route theta_a(phi e_r ^ phi e_s),
      a unit times sigma_k theta_a(e_r ^ e_s), has a precision T >= P_r and the
      bound min(omega_a, T), so (in the terms of _bracket_precisions) its product
      with c_a has the precision min(pi_a + min(omega_a, T), T + nu_a, M): tau_a
      if omega_a < T and pi_a + omega_a <= T + nu_a, else at least P_r, as is
      tau_a.  The sum starts at precision P_r, so n_G = min(P_r, n_rs(c)).
      The value: gamma is Z_p-bilinear and phi(e_r) = sum_t X_{r,t} e_t, so
      gamma_c(phi e_r ^ phi e_s) = kappa^i G, where
      G = sum_{t<w} (X_{r,t} X_{s,w} - X_{r,w} X_{s,t}) N[t][w] and N is the
      numerator_table of c.  An error of X_r in P^{P_r-i} moves kappa^i G by
      P^{P_r+i+s}, N errs by P^{M-i}, and n_G <= P_r <= P_s.
    - phi(gamma_{c2}(e_r ^ e_s)).  The bracket b = kappa^i C2[r][s], C2 the
      numerator_table of c2, has the precision n_b = n_rs(c2) and a valuation
      v >= 2i + r + s, so phi(b) has the precision Pi = min(u.prec + v, n_b), at
      least min(P_r, n_b); as n_G <= P_r, the difference has the precision
      n = min(n_b, n_G).  And phi(b) = sum_t C2[r][s]_t phi(e_t) = kappa^i Y,
      Y = sum_t C2[r][s]_t X_t: term t errs by C2_t P^{P_t}, inside P^Pi since
      t + (p-1) v_p(C2_t) >= v - i.
    - The difference is kappa^i (Y - G), so its bound is i plus the bound of
      Y - G at precision n - i.
    Every step is a product, a contraction or a reduction, and the coordinates'
    div_kappa is exact, so nothing here raises.
    """
    ctx, i = c.ctx, c.i
    xs = [mv.u * z for z in _coordinates(ctx, mv.k, i)]
    prec = [x.prec + i for x in xs]
    table, n_gs = numerator_table(c), _bracket_precisions(c)
    table2, n_bs = numerator_table(c2), _bracket_precisions(c2)
    cols, xcols = list(zip(*table)), list(zip(*(x.digits for x in xs)))
    pairs, out = list(combinations(range(ctx.d), 2)), []
    j = 0   # the pair (r, s) in combinations order
    for r in range(ctx.d):
        out.append((prec[r], prec[r]))
        x_r = xs[r].digits
        for s in range(r + 1, ctx.d):
            x_s = xs[s].digits
            wedge = [x_r[t] * x_s[w] - x_r[w] * x_s[t] for t, w in pairs]
            g = [sum(map(mul, wedge, col)) for col in cols]
            y = [sum(map(mul, table2[j], col)) for col in xcols]
            n = min(n_bs[j], prec[r], n_gs[j]) - i
            diff = CycElt(ctx, ctx._canonical(list(map(sub, y, g)), n), n)
            out.append((n + i, diff.valuation().bound + i))
            j += 1
    return tuple(out)


def verify_witness(c: GammaCoeffs, c2: GammaCoeffs, mv: IsoMove, m: int) -> bool:
    """Certify that x -> u sigma_k(x) is an isomorphism witness mod P^m.

    Checks, on all basis pairs e_r, e_s of P^i, that phi(theta e_r) = theta^k
    phi(e_r) and phi(gamma_{c2}(e_r ^ e_s)) = gamma_c(phi e_r ^ phi e_s): the
    map rewrites the theta-action to theta^k and carries the c2-bracket to the
    c-bracket.  A True result certifies that the level-m groups of c and c2
    are isomorphic.

    No difference depends on m, so each is computed once per (c, c2, move),
    keyed by content on the context, and replayed at every m: a difference
    known mod P^prec with valuation at least bound is in P^m iff bound >= m,
    and undecidable when prec < m, which is what CycElt.congruent decides.
    """
    _refuse(c, c2, mv.u)
    if c.i != c2.i:
        return False
    memo = c.ctx._witness
    key = (c.i, mv.k, mv.u.prec, mv.u.digits, c.content_key, c2.content_key)
    steps = memo.get(key)
    if steps is None:
        steps = memo[key] = _witness_differences(c, c2, mv)
    for prec, bound in steps:
        if prec < m:
            raise PrecisionExhausted(f"congruence mod P^{m} undecidable at precision {prec}")
        if bound < m:
            return False
    return True


def _quotients(c: GammaCoeffs, c2: GammaCoeffs, k: int) -> list[CycFrac | None]:
    """The quotients q_a = sigma_k(c2_a) / c_a, or None where c_a is 0.

    The move search reads its derived candidates and its pivot key off this
    list.
    """
    return [None if ca.is_zero() else ca2.galois(k) / ca for ca, ca2 in zip(c.coeffs, c2.coeffs)]


# The move search on integer vectors.  Let c_a = A known mod P^pa and c2_a = B
# known mod P^pb be integers (GammaCoeffs.integer_coeffs), with every nonzero
# A a unit.  An integer known mod P^n is its residue mod
# p^e, e = ceil(n/(p-1)) (digit 0, as p is kappa^{p-1} times a unit), and the ring
# route stays among integers: 1/c_a is A^{-1} at precision pa, and the quotient
# c2_a/c_a is B A^{-1} at precision min(pb, pa + v(B)), the product rule with
# v(1/c_a) = 0.  Galois-fixed c2_a and u make sigma_k(c2_a) = c2_a and
# rho_a(u) = u, at the precision of u.  So both helpers below give the value,
# the precision and the PrecisionExhausted of their ring counterparts.  They
# stay beside the ring route, which remains the only route for other vectors:
# on integer vectors it is slower even with integer shortcuts in CycElt
# (BENCH_16.json, simplification_controls).

def _integer_quotients(ctx: PrimeContext, zc: tuple, zc2: tuple) -> list[CycFrac | None]:
    """_quotients for integer vectors: B A^{-1} at precision min(pb, pa + v(B)), None where A is 0."""
    out, zeros = [], (0,) * (ctx.d - 1)
    for (_, pa, _, inv), (b, pb, vb, _) in zip(zc, zc2):
        prec = min(pb, pa + vb)
        out.append(None if inv is None else
                   CycFrac(CycElt(ctx, (b * inv % ctx.digit_moduli(prec)[0],) + zeros, prec)))
    return out


def _zp_units(quotients: list[CycFrac | None], p: int) -> list[CycElt]:
    """The quotients that are Z_p units, the derived candidates; for such u, rho_a(u) = u.

    These are the q with den_exp 0, no digits past digit 0 and p not dividing
    digit 0.  Proof: sigma_g(a kappa^j) - a kappa^j has valuation exactly
    v(a kappa^j) for 1 <= j <= p-2, distinct for distinct j, so q is Galois-fixed
    mod P^prec iff its canonical digits j >= 1 vanish; q is then digit 0, an
    integer, of exact valuation 0 iff p does not divide it.
    """
    return [q.num for q in quotients
            if q is not None and not q.den_exp and q.num.digits[0] % p and not any(q.num.digits[1:])]


def _integer_congruent(p: int, zc: tuple, zc2: tuple, u: CycElt, m: int) -> bool:
    """move_congruent for integer vectors and an integer unit u = U known mod P^pu.

    At each a, in order: c_a rho_a(u) = A U has precision min(pa, pu + v(A)), so
    the difference B - A U has precision n = min(pb, pa, pu + v(A)) and raises
    when n < m.  Otherwise it lies in P^m iff p^ceil(m/(p-1)) divides B - A U:
    its canonical digit 0 is B - A U mod p^e with e >= ceil(m/(p-1)), and a
    nonzero one has valuation (p-1) v_p.
    """
    x, pu, mod = u.digits[0], u.prec, p ** max(0, -(-m // (p - 1)))
    for (a, pa, va, _), (b, pb, _, _) in zip(zc, zc2):
        n = min(pb, pa, pu + va)
        if n < m:
            raise PrecisionExhausted(f"congruence mod P^{m} undecidable at precision {n}")
        if (b - a * x) % mod:
            return False
    return True


def _pivot(c: GammaCoeffs, m: int) -> tuple[int, int] | None:
    """(v, a): the least exact valuation v < m of a coefficient c_a, first a on ties."""
    vals = [(ca.valuation(), a) for a, ca in enumerate(c.coeffs)]
    return min(((v.value, a) for v, a in vals if v.exact and v.value < m), default=None)


def _decidable(c: GammaCoeffs, c2: GammaCoeffs, m: int, prec: int) -> bool:
    """Whether move_congruent decides every a, for every k, for each unit of precision prec.

    rho_a(u) of a unit known mod P^prec is a unit known mod P^prec,
    and every precision move_congruent meets depends on rho_a(u) only through
    those two facts.  sigma_k keeps the precision of c2_a, c_a rho_a(u) has
    precision min(prec c_a, prec + v(c_a)), v the valuation bound, and
    the congruence raises iff the least of these and prec c2_a is below m,
    whatever k.
    """
    return all(min(x2.num.prec, x.num.prec, prec + x.num.valuation().bound) >= m
               for x, x2 in zip(c.coeffs, c2.coeffs))


def _grid_units(ctx: PrimeContext, unit_modulus: int, budget: int) -> list[CycElt]:
    """The units of O/P^{unit_modulus} lifted to M_work, in enumerate_units order; cached on the context.

    A cached list longer than budget is enumerated again, so enumerate_units
    raises BudgetExceeded as on every call before.
    """
    units = ctx._units.get(unit_modulus)
    if units is None or len(units) > budget:
        units = ctx._units[unit_modulus] = [u.lift_to(ctx.M_work)
                                            for u in enumerate_units(ctx, unit_modulus, budget)]
    return units


def _unit_index(ctx: PrimeContext, a: int, unit_modulus: int, n: int,
                units: list[CycElt]) -> dict[tuple, list[int]]:
    """Positions in units of the grid units u, keyed by rho_{a+2}(u) mod P^n; cached on the context."""
    key = (a, unit_modulus, n)
    index = ctx._unit_index.get(key)
    if index is None:
        index = ctx._unit_index[key] = {}
        for pos, u in enumerate(units):
            index.setdefault(rho(a + 2, u).reduce_to(n).digits, []).append(pos)
    return index


def find_certified_move(c: GammaCoeffs, c2: GammaCoeffs, m: int,
                        unit_modulus: int = 1, budget: int = DEFAULT_BUDGET) -> IsoMove | None:
    """Search for a move certifying the level-m groups of c and c2 isomorphic.

    Candidates are the quotient-derived Z_p units, k-major, then the units of
    O/P^{unit_modulus} (canonically lifted), u-major and k-minor.  Each tried
    candidate is checked exactly against the move congruence mod P^m, then
    against the explicit witness.  Returns the first certified move, or None
    (which never claims non-isomorphism).

    The unit is solved for, not scanned: only candidates proven to fail the
    congruence without raising are skipped, so the result, or the error, is
    that of trying every candidate in order.  Take a* with c_{a*} of least
    exact valuation v < m, n = m - v, and q_k = sigma_k(c2_{a*}) / c_{a*}.
    - Suppose move_congruent decides every a for units of u's precision (see
      _decidable), so on (u, k) it returns a verdict and raises nothing.  Its
      verdict at a* holds for every representative of the cosets.  Multiplying
      by c_{a*}^{-1}, of valuation -v, carries P^m onto P^n, so the congruence
      at a* holds iff rho_{a*}(u) = q_k mod P^n, q_k known mod P^n.
    - So (u, k) is skipped only if q_k is known mod P^n, u is known mod P^n,
      and rho_{a*}(u) is not q_k mod P^n.  q_k is entry a* of the quotient
      list (_quotients) that also yields the derived units (_zp_units), so it
      is divided once per k.  A derived u is Galois-fixed, so rho_{a*}(u) = u.
      Grid units are looked up in an index keyed by rho_{a*}(u) mod P^n,
      cached on the context.  A non-unit q_k matches no unit, so its k has no
      candidate: a q_k in P has digit 0 divisible by p, and a q_k with a
      kappa-denominator gets the key (), which no digit tuple is.
    - A repeat of (u, k) in one k's derived list failed the first time; it
      is dropped.
    - When every c2_a is Galois-fixed (every grid vector at unit_modulus 1),
      sigma_k(c2_a) is c2_a itself, so move_congruent(u, k) is one computation
      for every k: it runs once per u, and the quotient list once.
    - When c and c2 are integer vectors (every grid vector at coeff_mod 1)
      and every nonzero c_a is a unit, the pivot is the first nonzero c_a, and
      the quotient list is Z_p arithmetic (_integer_quotients), as is
      move_congruent on each derived unit.
    The grid is enumerated only after the derived candidates fail, so
    BudgetExceeded is raised where the scan would raise it.
    """
    _refuse(c, c2)
    ctx, ks = c.ctx, range(1, c.ctx.p)
    fixed = all(ca2.is_galois_fixed() for ca2 in c2.coeffs)
    zc, zc2 = c.integer_coeffs, c2.integer_coeffs
    if zc2 is None or zc is None or any(inv is None for a, _, _, inv in zc if a):
        zc = None
    if zc:   # every nonzero c_a is a unit, so the first one has the least valuation, 0
        pivot = next(((0, a) for a, z in enumerate(zc) if z[0] and m > 0), None)
    else:
        pivot = _pivot(c, m)
    n = None if pivot is None else m - pivot[0]
    quotients: dict[int, list] = {}        # the quotient list by k, 1 standing for every k when fixed
    keys: dict[int, tuple | None] = {}     # q_k mod P^n by k, likewise
    decided: dict[int, bool] = {}          # _decidable by unit precision
    derived: dict[int, list[CycElt]] = {}  # the derived units by k, repeats and skips dropped
    verdicts: dict[tuple, bool] = {}       # move_congruent by (u, k), or by u when fixed

    def key(k: int) -> tuple | None:
        k = 1 if fixed else k
        if k not in keys:
            q = quotients[k][pivot[1]]
            keys[k] = (None if q is None or q.num.prec - q.den_exp < n
                       else () if q.den_exp else ctx._canonical(q.num.digits, n))
        return keys[k]

    def solvable(prec: int) -> bool:
        if prec not in decided:
            decided[prec] = pivot is not None and _decidable(c, c2, m, prec)
        return decided[prec]

    def skip(u: CycElt, k: int) -> bool:
        if not solvable(u.prec) or u.prec < n or key(k) is None:
            return False
        return ctx._canonical(u.digits, n) != key(k)

    def certified(u: CycElt, k: int) -> IsoMove | None:
        vkey = (u.prec, u.digits) if fixed else (u.prec, u.digits, k)
        ok = verdicts.get(vkey)
        if ok is False:
            return None
        mv = IsoMove(u, k)
        if ok is None:
            ok = verdicts[vkey] = move_congruent(c, c2, mv, m)
        return mv if ok and verify_witness(c, c2, mv, m) else None

    for k in ks:
        j = 1 if fixed else k
        if j not in derived:
            quotients[j] = _integer_quotients(ctx, zc, zc2) if zc else _quotients(c, c2, j)
            derived[j] = [u for u in dict.fromkeys(_zp_units(quotients[j], ctx.p)) if not skip(u, j)]
        for u in derived[j]:
            if mv := certified(u, k):
                return mv

    units = _grid_units(ctx, unit_modulus, budget)
    pairs = ((pos, k) for pos in range(len(units)) for k in ks)
    known = [(k, key(k)) for k in ks] if solvable(ctx.M_work) else []
    if any(q is not None for _, q in known):
        # a known q_k is known mod P^n, so rho_{a*}(u) mod P^n exists
        index, every = _unit_index(ctx, pivot[1], unit_modulus, n, units), range(len(units))
        pairs = sorted((pos, k) for k, q in known for pos in (every if q is None else index.get(q, ())))
    for pos, k in pairs:
        if mv := certified(units[pos], k):
            return mv
    return None


def _orbit_scan(c: GammaCoeffs, m_c: int, budget: int) -> tuple[GammaCoeffs, set]:
    ctx = c.ctx
    n_moves = (ctx.p - 1) ** 2 * ctx.p ** (m_c - 1)
    if n_moves > budget:
        raise BudgetExceeded(f"{n_moves} moves exceed budget {budget}")
    best = None
    best_key = None
    seen = set()
    for u in enumerate_units(ctx, m_c):
        u = u.lift_to(ctx.M_work)
        for k in range(1, ctx.p):
            cand = apply_move(c, IsoMove(u, k), m_c)
            key = cand.key
            seen.add(key)
            if best_key is None or key < best_key:
                best, best_key = cand, key
    return best, seen


def orbit_canonical(c: GammaCoeffs, m_c: int, budget: int = DEFAULT_BUDGET) -> GammaCoeffs:
    """Lexicographic minimum of the move orbit of c modulo P^{m_c}.

    The action of units mod P^{m_c} and the p-1 Galois indices descends to
    coefficient vectors mod P^{m_c}, so one sweep over all moves covers the
    whole orbit; the minimum is idempotent and constant on certified orbits.
    """
    return _orbit_scan(c, m_c, budget)[0]


def orbit_report(c: GammaCoeffs, m_c: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Canonical form plus a lower bound on the orbit size (distinct images seen)."""
    best, seen = _orbit_scan(c, m_c, budget)
    return {"canonical": best.to_json(), "orbit_size_lower_bound": len(seen)}
