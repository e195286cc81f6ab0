"""Isomorphism moves on coefficient vectors: unit twists and Galois rewrites.

A move (u, sigma_k) sends c to c' with c'_a = sigma_k^{-1}(rho_a(u) c_a),
where rho_a(u) = u^{-1} sigma_a(u) sigma_{1-a}(u).  When the move congruence
holds mod P^m, the map x -> u sigma_k(x) is an explicit isomorphism witness
between the level-m groups, twisting the theta-action by theta -> theta^k.
Only this sufficient direction is ever used: distinct canonical forms are
reported as "not merged", never as non-isomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    key = (c.i, c2.ctx, mv.u.ctx, mv.k, mv.u.prec, mv.u.digits,
           tuple((a.den_exp, a.num.prec, a.num.digits) for g in (c, c2) for a in g.coeffs))
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


def find_certified_move(c: GammaCoeffs, c2: GammaCoeffs, m: int,
                        unit_modulus: int = 1, budget: int = DEFAULT_BUDGET) -> IsoMove | None:
    """Search for a move certifying the level-m groups of c and c2 isomorphic.

    Candidates are the quotient-derived Z_p units, then the units of
    O/P^{unit_modulus} (canonically lifted); each candidate is checked exactly
    against the move congruence mod P^m, then against the explicit witness.
    Returns the first certified move, or None (which never claims
    non-isomorphism).
    """
    ctx, ks = c.ctx, range(1, c.ctx.p)
    derived = ((u, k) for k in ks for u in _derived_unit_candidates(c, c2, k))
    lifted = (u.lift_to(ctx.M_work) for u in enumerate_units(ctx, unit_modulus, budget))
    for u, k in chain(derived, ((u, k) for u in lifted for k in ks)):
        mv = IsoMove(u, k)
        if move_congruent(c, c2, mv, m) and verify_witness(c, c2, mv, m):
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
