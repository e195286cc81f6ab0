"""Isomorphism moves on coefficient vectors: unit twists and Galois rewrites.

A move (u, sigma_k) sends c to c' with c'_a = sigma_k^{-1}(rho_a(u) c_a),
where rho_a(u) = u^{-1} sigma_a(u) sigma_{1-a}(u).  When the move congruence
holds mod P^m, the map x -> u sigma_k(x) is an explicit isomorphism witness
between the level-m groups, twisting the theta-action by theta -> theta^k.
Only this sufficient direction is ever used: distinct canonical forms are
reported as "not merged", never as non-isomorphic.

find_certified_move solves the congruence at one coefficient for the unit
rather than scanning the unit grid: it skips a candidate only when that
candidate is proven to fail, so each search returns the move, or raises the
error, that trying every candidate in order would.
"""

from __future__ import annotations

from dataclasses import dataclass
from .cyclotomic import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CycElt,
    InsufficientValuation,
    MaxclassError,
    NonUnit,
    PrecisionExhausted,
    PrimeContext,
    enumerate_units,
)
from .homs import CycFrac, GammaCoeffs, basis_brackets, gamma_eval


@dataclass(frozen=True)
class IsoMove:
    """A unit u together with a Galois index k (the move uses sigma_k)."""

    u: CycElt
    k: int

    def __post_init__(self):
        p = self.u.ctx.p
        if not 1 <= self.k <= p - 1:
            raise ValueError(f"Galois index must lie in 1..{p - 1}, got {self.k}")
        v = self.u.valuation()
        if not (v.exact and v.value == 0):
            raise NonUnit("move unit must have valuation exactly 0")

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


def move_congruent(c: GammaCoeffs, c2: GammaCoeffs, mv: IsoMove, m: int) -> bool:
    """The move congruence sigma_k(c2_a) = rho_a(u) c_a mod P^m, all a."""
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


def _witness_differences(c: GammaCoeffs, c2: GammaCoeffs, mv: IsoMove) -> tuple:
    """(precision, valuation bound) of each difference verify_witness tests, in its order.

    A MaxclassError met on the way takes the place of its difference and ends
    the tuple: the checks never get past it.
    """
    ctx, i = c.ctx, c.i
    out = []
    try:
        phi = witness_map(mv)
        basis = [ctx.kappa_power(i + r) for r in range(ctx.d)]
        phis = [phi(x) for x in basis]
        brackets2 = basis_brackets(c2, i)
        theta, theta_k = ctx.theta(), ctx.theta(mv.k)
        for r in range(ctx.d):
            d = phi(theta * basis[r]) - theta_k * phis[r]
            out.append((d.prec, d.valuation().bound))
            for s in range(r + 1, ctx.d):
                d = phi(brackets2[r, s]) - gamma_eval(c, phis[r], phis[s])
                out.append((d.prec, d.valuation().bound))
    except MaxclassError as exc:
        out.append(exc)
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
    and undecidable when prec < m, which is what CycElt.congruent decides.  A
    MaxclassError met while computing a difference is stored and re-raised.
    """
    if c.i != c2.i:
        return False
    memo = c.ctx._witness
    key = (c.i, c2.ctx, mv.u.ctx, mv.k, mv.u.prec, mv.u.digits, c.content_key, c2.content_key)
    steps = memo.get(key)
    if steps is None:
        steps = memo[key] = _witness_differences(c, c2, mv)
    for step in steps:
        if isinstance(step, MaxclassError):
            raise step.with_traceback(None)
        prec, bound = step
        if prec < m:
            raise PrecisionExhausted(f"congruence mod P^{m} undecidable at precision {prec}")
        if bound < m:
            return False
    return True


def _coeff_key(c: GammaCoeffs, modulus: int) -> tuple:
    key = []
    for ca in c.coeffs:
        num = ca.num.reduce_to(min(ca.num.prec, modulus + ca.den_exp))
        key.append((ca.den_exp, num.digits))
    return tuple(key)


def _derived_unit_candidates(c: GammaCoeffs, c2: GammaCoeffs, k: int) -> list[CycElt]:
    """Galois-invariant quotients sigma_k(c2_a) / c_a; for such u, rho_a(u) = u."""
    out = []
    for ca, ca2 in zip(c.coeffs, c2.coeffs):
        if ca.is_zero() or ca2.is_zero():
            continue
        try:
            q = ca2.galois(k) / ca
        except (InsufficientValuation, PrecisionExhausted):
            continue
        v = q.valuation()
        if q.den_exp == 0 and v.exact and v.value == 0:
            u = q.num
            # keep only Z_p-fixed candidates, where the rho-twist collapses to u;
            # sigma_g(a kappa^j) - a kappa^j has valuation exactly v(a kappa^j)
            # for 1 <= j <= p-2, distinct for distinct j, so u is Galois-fixed
            # mod P^prec iff its canonical digits j >= 1 all vanish
            if not any(u.digits[1:]):
                out.append(u)
    return out


def _pivot(c: GammaCoeffs, m: int) -> tuple[int, int] | None:
    """(v, a): the least exact valuation v < m of a coefficient c_a, first a on ties."""
    vals = [(ca.valuation(), a) for a, ca in enumerate(c.coeffs)]
    return min(((v.value, a) for v, a in vals if v.exact and v.value < m), default=None)


def _decidable(c: GammaCoeffs, c2: GammaCoeffs, m: int, prec: int, ks) -> bool:
    """Whether move_congruent decides every a, for k in ks, for each unit of precision prec.

    rho_a(u) of a unit known mod P^prec <= M_work is a unit known mod P^prec, and
    every precision move_congruent meets depends on rho_a(u) only through those
    two facts, so the stand-in 1 + P^prec raises exactly where rho_a(u) would.
    Any error on the way counts as undecidable.
    """
    ctx = c.ctx
    if prec > ctx.M_work:
        return False
    one = ctx.one(prec)
    try:
        for ca, ca2 in zip(c.coeffs, c2.coeffs):
            rhs = ca * one
            for k in ks:
                ca2.galois(k).congruent(rhs, m)
    except MaxclassError:
        return False
    return True


def _quotient_key(ca2: CycFrac, k: int, ca: CycFrac, n: int) -> tuple | None:
    """q = sigma_k(ca2) / ca mod P^n as canonical digits, or None when q is not known mod P^n.

    A unit never has the key of a non-unit q: a q in P has digit 0 divisible by
    p, and a q with a kappa-denominator gets the key (), which no digit tuple is.
    An error on the way only leaves q undecided.
    """
    try:
        q = ca2.galois(k) / ca
    except MaxclassError:
        return None
    if q.num.prec - q.den_exp < n:
        return None
    return () if q.den_exp else q.num.reduce_to(n).digits


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
    - So (u, k) is skipped only if q_k is known mod P^n (_quotient_key),
      u is known mod P^n, and rho_{a*}(u) is not q_k mod P^n.  A derived u is
      Galois-fixed, so rho_{a*}(u) = u.  Grid units are looked up in an index
      keyed by rho_{a*}(u) mod P^n, cached on the context.  A non-unit q_k
      matches no unit, so its k has no candidate.
    - A repeat of (u, k) in one k's derived list failed the first time; it
      is dropped.
    - When every c2_a is Galois-fixed (every grid vector at unit_modulus 1),
      sigma_k(c2_a) is c2_a itself, so move_congruent(u, k) is one computation
      for every k: it runs once per u, and the derived list once.
    The grid is enumerated only after the derived candidates fail, so
    BudgetExceeded is raised where the scan would raise it.
    """
    ctx, ks = c.ctx, range(1, c.ctx.p)
    fixed = all(ca2.is_galois_fixed() for ca2 in c2.coeffs)
    pivot = _pivot(c, m)
    n = None if pivot is None else m - pivot[0]
    keys: dict[int, tuple | None] = {}     # q_k mod P^n by k, 1 standing for every k when fixed
    decided: dict[int, bool] = {}          # _decidable by unit precision
    derived: dict[int, list[CycElt]] = {}  # the derived units by k, repeats and skips dropped
    verdicts: dict[tuple, bool] = {}       # move_congruent by (u, k), or by u when fixed

    def key(k: int) -> tuple | None:
        k = 1 if fixed else k
        if k not in keys:
            keys[k] = _quotient_key(c2.coeffs[pivot[1]], k, c.coeffs[pivot[1]], n)
        return keys[k]

    def solvable(prec: int) -> bool:
        if prec not in decided:
            decided[prec] = pivot is not None and _decidable(c, c2, m, prec, (1,) if fixed else ks)
        return decided[prec]

    def skip(u: CycElt, k: int) -> bool:
        if not solvable(u.prec) or u.prec < n or key(k) is None:
            return False
        return u.reduce_to(n).digits != key(k)

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
            derived[j] = [u for u in dict.fromkeys(_derived_unit_candidates(c, c2, j)) if not skip(u, j)]
        for u in derived[j]:
            if mv := certified(u, k):
                return mv

    units = [u.lift_to(ctx.M_work) for u in enumerate_units(ctx, unit_modulus, budget)]
    pairs = ((pos, k) for pos in range(len(units)) for k in ks)
    if solvable(ctx.M_work) and any(key(k) is not None for k in ks):
        # a known q_k is known mod P^n, and never beyond M_work, so rho_{a*}(u) mod P^n exists
        index, every = _unit_index(ctx, pivot[1], unit_modulus, n, units), range(len(units))
        pairs = sorted((pos, k) for k in ks
                       for pos in (every if key(k) is None else index.get(key(k), ())))
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
            key = _coeff_key(cand, m_c)
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
