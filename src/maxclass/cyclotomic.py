"""Exact arithmetic in the maximal order O of Q_p(theta) at fixed kappa-adic precision.

theta is a primitive p-th root of unity, kappa = theta - 1 a uniformizer, and
P^i = kappa^i * O the unique ideal of index p^i.  An element is stored by its
digits in the Z_p-basis 1, kappa, ..., kappa^{p-2}: digit j is a residue modulo
p^ceil((prec - j)/(p - 1)), which makes the digit vector a canonical name for
the coset modulo P^prec.  All arithmetic is on plain Python integers; nothing
is ever rounded, and precision is propagated conservatively.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import product
from math import comb
from operator import mod


class MaxclassError(Exception):
    pass


class ContextMismatch(MaxclassError):
    pass


class PrecisionExhausted(MaxclassError):
    pass


class InsufficientValuation(MaxclassError):
    pass


class NonUnit(MaxclassError):
    pass


class BudgetExceeded(MaxclassError):
    pass


# the default cap on enumerated grid points, units and moves
DEFAULT_BUDGET = 100_000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Valuation:
    """Position in the ideal chain O > P > P^2 > ...

    Either the exact exponent, or a lower bound when every digit vanishes at
    the element's precision.  A value: equal and hashed by its fields.
    """

    __slots__ = ("value", "exact")

    def __init__(self, value: int, exact: bool):
        self.value = value
        self.exact = exact

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.exact == other.exact

    def __hash__(self) -> int:
        return hash((self.value, self.exact))

    @classmethod
    def exactly(cls, v: int) -> Valuation:
        return cls(v, True)

    @classmethod
    def at_least(cls, b: int) -> Valuation:
        return cls(b, False)

    @property
    def bound(self) -> int:
        # usable lower bound in either case
        return self.value

    @classmethod
    def minimum(cls, vals) -> Valuation:
        """Minimum of several valuations, staying exact only when decidable."""
        vals = list(vals)
        if not vals:
            raise ValueError("minimum of no valuations")
        exacts = [v.value for v in vals if v.exact]
        bounds = [v.value for v in vals if not v.exact]
        if exacts and (not bounds or min(exacts) <= min(bounds)):
            return cls.exactly(min(exacts))
        return cls.at_least(min(v.value for v in vals))

    def __repr__(self) -> str:
        return f"Exact({self.value})" if self.exact else f"AtLeast({self.value})"


class PrimeContext:
    """Shared data for a prime p: the kappa^{p-1} reduction row and caches.

    M_work is the default working precision; every product is clamped to it so
    digit sizes stay bounded.
    """

    def __init__(self, p: int, m_work: int = 24):
        if p < 5 or p % 2 == 0 or not _is_prime(p):
            raise ValueError(f"p must be an odd prime >= 5, got {p}")
        if m_work < 1:
            raise ValueError("M_work must be >= 1")
        self.p = p
        self.d = p - 1
        self.l = (p - 3) // 2
        self.M_work = m_work
        # kappa^{p-1} = -sum_{j=1}^{p-1} binom(p, j) kappa^{j-1}
        self.kappa_reduction = tuple(-comb(p, j + 1) for j in range(p - 1))
        self._moduli: dict[int, tuple[int, ...]] = {}
        self._galois_pows: dict[int, tuple[tuple[int, ...], ...]] = {}
        # caches of homs: theta_a tables by a; by a, u_a = sigma_a(kappa) sigma_{1-a}(kappa)
        # with its powers and those of u_a/kappa, which each level extends by one
        # product; by i, the quotients theta_a(kappa^{i+r} ^ kappa^{i+s})/kappa^i read
        # from the theta_a table, and the Vandermonde data
        self._theta_tabs: dict[int, tuple] = {}
        self._level_units: list = []
        self._basis_quotients: dict[int, tuple] = {}
        self._vandermonde: dict[int, object] = {}
        # caches of lazard and isom: theta^t mod P^n by (t, n), rho_a(u) by (a, u),
        # the witness checks of verify_witness by the content of (c, c2, move), and
        # sigma_k(kappa^{i+u})/kappa^i by (k, i)
        self._theta_mats: dict[tuple[int, int], tuple] = {}
        self._rho: dict[tuple, CycElt] = {}
        self._witness: dict[tuple, tuple] = {}
        self._coordinates: dict[tuple[int, int], tuple] = {}
        # find_certified_move's grid units lifted to M_work by unit modulus, and their
        # positions keyed by rho_a(u) mod P^n, by (a, unit modulus, n)
        self._units: dict[int, list] = {}
        self._unit_index: dict[tuple, dict] = {}
        self._kappa_pows: list[tuple[int, ...]] = []
        self._theta_pows: list[tuple[int, ...]] = []

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeContext) and self.p == other.p and self.M_work == other.M_work

    def __hash__(self) -> int:
        return hash((self.p, self.M_work))

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, m_work={self.M_work})"

    def digit_moduli(self, prec: int) -> tuple[int, ...]:
        # digit j of a prec-M element is a residue mod p^ceil((M - j)/(p - 1))
        mods = self._moduli.get(prec)
        if mods is None:
            d = self.d
            mods = tuple(self.p ** max(0, -((j - prec) // d)) for j in range(d))
            self._moduli[prec] = mods
        return mods

    def _canonical(self, digits: list[int] | tuple[int, ...], prec: int) -> tuple[int, ...]:
        return tuple(map(mod, digits, self.digit_moduli(prec)))

    def _reduce_raw(self, conv: list[int]) -> list[int]:
        # fold powers kappa^t, t >= p-1, down through the reduction row
        red = self.kappa_reduction
        d = self.d
        for t in range(len(conv) - 1, d - 1, -1):
            v = conv[t]
            if v:
                base = t - d
                for j in range(d):
                    conv[base + j] += v * red[j]
                conv[t] = 0
        return conv[:d]

    def _mul_raw(self, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
        out = [0] * (2 * self.d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return self._reduce_raw(out)

    def _galois_powers(self, k: int) -> tuple[tuple[int, ...], ...]:
        # powers ((1+kappa)^k - 1)^j for j = 0..p-2, at precision M_work
        tab = self._galois_pows.get(k)
        if tab is None:
            tk = self.theta(k).digits
            gk = self._canonical([tk[0] - 1, *tk[1:]], self.M_work)
            pows = [(1,) + (0,) * (self.d - 1)]
            for _ in range(self.d - 1):
                pows.append(self._canonical(self._mul_raw(pows[-1], gk), self.M_work))
            tab = tuple(pows)
            self._galois_pows[k] = tab
        return tab

    # ---- constructors ----

    def element(self, digits, prec: int | None = None) -> CycElt:
        """The element with these digits, known mod P^prec (default M_work); the one constructor.

        No ring operation reaches a precision above M_work, so one is refused.
        """
        prec = self.M_work if prec is None else prec
        if prec > self.M_work:
            raise PrecisionExhausted(f"precision {prec} exceeds M_work={self.M_work}")
        digs = list(digits)[: self.d]
        digs += [0] * (self.d - len(digs))
        return CycElt(self, self._canonical(digs, prec), prec)

    def zero(self, prec: int | None = None) -> CycElt:
        return self.element([0], prec)

    def one(self, prec: int | None = None) -> CycElt:
        return self.element([1], prec)

    def from_int(self, n: int, prec: int | None = None) -> CycElt:
        return self.element([n], prec)

    def from_rational(self, q: Fraction | int, prec: int | None = None) -> CycElt:
        """Embed a rational with denominator coprime to p."""
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise NonUnit(f"denominator {q.denominator} is divisible by p = {self.p}")
        prec = self.M_work if prec is None else prec
        e0 = self.digit_moduli(prec)[0]
        if e0 == 1:
            return self.zero(prec)
        return self.element([q.numerator * pow(q.denominator, -1, e0)], prec)

    def kappa_power(self, e: int, prec: int | None = None) -> CycElt:
        if e < 0:
            raise ValueError(f"kappa power needs e >= 0, got {e}")
        prec = self.M_work if prec is None else prec
        if e >= prec:
            return self.zero(prec)
        pows = self._kappa_pows
        if not pows:
            pows.append(self._canonical([1] + [0] * (self.d - 1), self.M_work))
        while len(pows) <= e:
            nxt = [0] + list(pows[-1][: self.d - 1])
            top = pows[-1][self.d - 1]
            if top:
                nxt = [a + top * r for a, r in zip(nxt, self.kappa_reduction)]
            pows.append(self._canonical(nxt, self.M_work))
        return self.element(pows[e], prec)

    def theta(self, t: int = 1, prec: int | None = None) -> CycElt:
        prec = self.M_work if prec is None else prec
        t %= self.p
        pows = self._theta_pows
        if not pows:
            pows.append(self._canonical([1] + [0] * (self.d - 1), self.M_work))
        th = (1, 1) + (0,) * (self.d - 2)
        while len(pows) <= t:
            pows.append(self._canonical(self._mul_raw(pows[-1], th), self.M_work))
        return self.element(pows[t], prec)


class CycElt:
    """A coset x + P^prec of the maximal order, in canonical digit form."""

    __slots__ = ("ctx", "digits", "prec", "_val")

    def __init__(self, ctx: PrimeContext, digits: tuple[int, ...], prec: int):
        self.ctx = ctx
        self.digits = digits
        self.prec = prec
        self._val: Valuation | None = None

    def __repr__(self) -> str:
        return f"CycElt(p={self.ctx.p}, digits={list(self.digits)}, prec={self.prec})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycElt):
            return NotImplemented
        return self.ctx == other.ctx and self.prec == other.prec and self.digits == other.digits

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.prec, self.digits))

    def _check_ctx(self, other: CycElt) -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx!r} vs {other.ctx!r}")

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    # ---- ring operations ----

    def __add__(self, other: CycElt) -> CycElt:
        self._check_ctx(other)
        prec = min(self.prec, other.prec)
        return CycElt(self.ctx, self.ctx._canonical(
            [a + b for a, b in zip(self.digits, other.digits)], prec), prec)

    def __sub__(self, other: CycElt) -> CycElt:
        self._check_ctx(other)
        prec = min(self.prec, other.prec)
        return CycElt(self.ctx, self.ctx._canonical(
            [a - b for a, b in zip(self.digits, other.digits)], prec), prec)

    def __neg__(self) -> CycElt:
        return CycElt(self.ctx, self.ctx._canonical([-a for a in self.digits], self.prec), self.prec)

    def __mul__(self, other: CycElt | int | Fraction) -> CycElt:
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        self._check_ctx(other)
        prec = min(self.prec + other.valuation().bound,
                   other.prec + self.valuation().bound,
                   self.ctx.M_work)
        return CycElt(self.ctx, self.ctx._canonical(
            self.ctx._mul_raw(self.digits, other.digits), prec), prec)

    def __rmul__(self, other: int | Fraction) -> CycElt:
        return self.scalar_mul(other)

    def scalar_mul(self, q: int | Fraction) -> CycElt:
        if isinstance(q, int):
            s = q
        else:
            if q.denominator % self.ctx.p == 0:
                raise NonUnit(f"denominator {q.denominator} divisible by p")
            e0 = self.ctx.digit_moduli(self.prec)[0]
            s = q.numerator * pow(q.denominator, -1, e0) if e0 > 1 else 0
        return CycElt(self.ctx, self.ctx._canonical([s * a for a in self.digits], self.prec), self.prec)

    def pow(self, n: int) -> CycElt:
        if n < 0:
            raise ValueError(f"pow needs n >= 0, got {n}")
        r = self.ctx.one(self.prec)
        for _ in range(n):
            r = r * self
        return r

    # ---- valuation and precision ----

    def valuation(self) -> Valuation:
        if self._val is None:
            p, d = self.ctx.p, self.ctx.d
            best = None
            for j, dig in enumerate(self.digits):
                if dig:
                    v = 0
                    while dig % p == 0:
                        dig //= p
                        v += 1
                    w = j + d * v
                    if best is None or w < best:
                        best = w
            self._val = Valuation.at_least(self.prec) if best is None else Valuation.exactly(best)
        return self._val

    def congruent(self, other: CycElt, m: int) -> bool:
        """True iff self - other lies in P^m; requires precision >= m."""
        diff = self - other
        if diff.prec < m:
            raise PrecisionExhausted(f"congruence mod P^{m} undecidable at precision {diff.prec}")
        return diff.valuation().bound >= m

    def reduce_to(self, prec: int) -> CycElt:
        if prec > self.prec:
            raise PrecisionExhausted(f"cannot raise precision {self.prec} -> {prec}")
        return CycElt(self.ctx, self.ctx._canonical(list(self.digits), prec), prec)

    def lift_to(self, prec: int) -> CycElt:
        """Reinterpret the canonical representative as known modulo P^prec.

        This picks the specific lift whose digits are the stored residues; use
        only where a choice of coset representative is deliberate.
        """
        return self.ctx.element(self.digits, prec)

    # ---- Galois, division, inversion ----

    def galois(self, k: int) -> CycElt:
        """Image under sigma_k : theta -> theta^k, i.e. kappa -> (1+kappa)^k - 1."""
        k %= self.ctx.p
        if k == 0:
            raise ValueError("Galois index must be nonzero mod p")
        pows = self.ctx._galois_powers(k)
        acc = [0] * self.ctx.d
        for j, dig in enumerate(self.digits):
            if dig:
                row = pows[j]
                for t in range(self.ctx.d):
                    acc[t] += dig * row[t]
        return CycElt(self.ctx, self.ctx._canonical(acc, self.prec), self.prec)

    def div_kappa(self, e: int) -> CycElt:
        """The unique y with kappa^e * y = self; precision drops by e.

        The representative is divided exactly, and canonicalised once at the
        end: known mod P^{prec-k} >= P at step k, it lies in P iff p | digit 0.
        """
        if e < 0:
            raise ValueError("e must be >= 0")
        if self.prec <= e:
            raise PrecisionExhausted(f"precision {self.prec} <= shift {e}")
        p, red = self.ctx.p, self.ctx.kappa_reduction[1:]
        digs = self.digits
        for _ in range(e):
            if digs[0] % p:
                raise InsufficientValuation("element is not divisible by kappa")
            # x = kappa*y with y_{p-2} = -x_0/p and y_{j-1} = x_j - y_{p-2}*red_j
            top = -(digs[0] // p)
            digs = [x - top * r for x, r in zip(digs[1:], red)] + [top]
        prec = self.prec - e
        return CycElt(self.ctx, self.ctx._canonical(digs, prec), prec)

    def unit_inverse(self) -> CycElt:
        """Inverse of a unit, by Newton lifting through P, P^2, P^4, ..."""
        p = self.ctx.p
        if self.is_zero() or self.digits[0] % p == 0:
            raise NonUnit("element has positive valuation")
        prec = self.prec
        y = self.ctx.from_int(pow(self.digits[0], -1, p), prec)
        known = 1
        two = self.ctx.from_int(2, prec)
        while known < prec:
            y = y * (two - self * y)
            y = y.reduce_to(prec)
            known *= 2
        return y

    # ---- serialization ----

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "prec": self.prec, "digits": [str(d) for d in self.digits]}

    @classmethod
    def from_json(cls, ctx: PrimeContext, obj: dict) -> CycElt:
        """The serialized element at min(prec, M_work); digits holds ints or decimal strings, prec an int."""
        if obj["p"] != ctx.p:
            raise ContextMismatch(f"serialized p={obj['p']} vs context p={ctx.p}")
        digits, prec = obj["digits"], obj["prec"]
        if type(digits) is not list:
            raise ValueError(f"digits must be a list, got {digits!r}")
        for s in digits:
            if type(s) is not int and not (type(s) is str and s.isascii() and s.removeprefix("-").isdigit()):
                raise ValueError(f"digits entry {s!r} is neither an int nor a decimal string of one")
        if type(prec) is not int:
            raise ValueError(f"prec must be an int, got {prec!r}")
        if len(digits) > ctx.d:
            raise ValueError(f"{len(digits)} digits, more than p-1 = {ctx.d}")
        return ctx.element([int(s) for s in digits], min(prec, ctx.M_work))


def enumerate_units(ctx: PrimeContext, m: int, budget: int | None = None) -> Iterator[CycElt]:
    """Exactly one representative of every unit of O/P^m, valuation 0 each.

    Deterministic lexicographic order over canonical digit vectors.  The
    stream has (p-1) * p^{m-1} entries; a budget guards against runaway sizes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = (ctx.p - 1) * ctx.p ** (m - 1)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"{total} units of O/P^{m} exceed budget {budget}")
    mod0, *mods = ctx.digit_moduli(m)
    ranges = [[v for v in range(mod0) if v % ctx.p]] + [range(n) for n in mods]
    for digs in product(*ranges):
        yield CycElt(ctx, digs, m)
