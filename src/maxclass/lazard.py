"""The Lazard correspondence on L_{i,m}(gamma): truncated BCH group structure.

G(L) has the same elements as L; the product is the BCH series truncated at
the nilpotency class, which for class <= 3 is the familiar
a + b + 1/2 [a,b] + 1/12 ([a,[a,b]] + [b,[b,a]]).  Coefficient denominators
stay coprime to p as long as the class is below p, so every scalar acts
through a modular inverse and nothing is approximated.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from operator import mul

from .cyclotomic import MaxclassError, PrimeContext
from . import freelie
from .freelie import Tree
from .liering import LcsProfile, LieElt, LieRingSpec, layer_step, lower_central_series

BCH_DATA_FILE = "bch_table.json"
BCH_DATA_VERSION = 1


def _large_prime_divides(den: int, d: int) -> bool:
    """True iff a prime q > max(d, 2) divides den >= 1.

    Dividing out every factor 2..max(d, 2) removes exactly the primes up to
    max(d, 2), so what is left exceeds 1 iff a larger prime divides den.
    """
    for q in range(2, max(d, 2) + 1):
        while den % q == 0:
            den //= q
    return den > 1


class BchTable:
    """Truncated BCH series: bracket words over two letters with rational coefficients."""

    def __init__(self, max_class: int, terms: dict[int, list[tuple[Tree, Fraction]]]):
        self.max_class = max_class
        self.terms = {d: list(v) for d, v in terms.items() if d <= max_class}
        self._validate_anchor()

    def _validate_anchor(self) -> None:
        # the degree <= 3 slice must agree with the closed class-3 formula
        x = {(0,): Fraction(1)}
        y = {(1,): Fraction(1)}
        got: freelie.Poly = {}
        for d in range(1, min(self.max_class, 3) + 1):
            for t, c in self.terms.get(d, []):
                got = freelie.poly_add(got, freelie.poly_scale(
                    freelie.expand_tree(t, [x, y], 3), c))
        b = lambda f, g: freelie.poly_bracket(f, g, 3)
        want = freelie.poly_add(x, y)
        if self.max_class >= 2:
            want = freelie.poly_add(want, freelie.poly_scale(b(x, y), Fraction(1, 2)))
        if self.max_class >= 3:
            want = freelie.poly_add(want, freelie.poly_scale(
                freelie.poly_add(b(x, b(x, y)), b(y, b(y, x))), Fraction(1, 12)))
        got = {w: v for w, v in got.items() if len(w) <= min(self.max_class, 3)}
        if got != want:
            raise MaxclassError("BCH table fails the class-3 anchor")
        for d, terms in self.terms.items():
            for _, c in terms:
                if _large_prime_divides(c.denominator, d):
                    raise MaxclassError(f"degree-{d} coefficient {c} has too large a prime denominator")

    def self_test(self, max_deg: int | None = None) -> bool:
        """Associativity of the tabulated product on the free algebra on three letters."""
        deg = self.max_class if max_deg is None else min(max_deg, self.max_class)
        return freelie.verify_associativity(self.terms, deg)

    # ---- serialization ----

    def to_json(self) -> dict:
        def tree_js(t: Tree):
            return t if isinstance(t, int) else [tree_js(t[0]), tree_js(t[1])]
        return {
            "version": BCH_DATA_VERSION,
            "max_class": self.max_class,
            "terms": {str(d): [[tree_js(t), f"{c.numerator}/{c.denominator}"] for t, c in v]
                      for d, v in self.terms.items()},
        }

    @classmethod
    def from_json(cls, obj: dict, max_class: int | None = None) -> BchTable:
        if obj.get("version") != BCH_DATA_VERSION:
            raise MaxclassError(f"unsupported BCH table version {obj.get('version')}")
        def tree_py(t) -> Tree:
            return t if isinstance(t, int) else (tree_py(t[0]), tree_py(t[1]))
        terms = {}
        for d, lst in obj["terms"].items():
            terms[int(d)] = [(tree_py(t), Fraction(c)) for t, c in lst]
        mc = obj["max_class"] if max_class is None else max_class
        if mc > obj["max_class"]:
            raise MaxclassError(f"stored table only reaches class {obj['max_class']}")
        return cls(mc, terms)


def generate_bch_table(max_class: int) -> BchTable:
    """Regenerate the table from scratch with the free-Lie-algebra oracle."""
    return BchTable(max_class, freelie.bch_coefficients(max_class))


def build_bch_table(max_class: int, p: int | None = None) -> BchTable:
    """Table for products up to the given class; packaged data when it suffices.

    A class >= p is rejected: the series would need the scalar 1/p, which has
    no meaning modulo p-powers.
    """
    if max_class < 1:
        raise ValueError("max_class must be >= 1")
    if p is not None and max_class >= p:
        raise ValueError(f"max_class {max_class} >= p = {p}: denominator p would appear")
    try:
        with open(os.path.join(os.path.dirname(__file__), "data", BCH_DATA_FILE), encoding="utf-8") as f:
            obj = json.load(f)
        if obj["max_class"] >= max_class:
            return BchTable.from_json(obj, max_class)
    except FileNotFoundError:
        pass
    return generate_bch_table(max_class)


# ---- group operations on G(L) ----

def _usable_class(x: LieElt, table: BchTable) -> int:
    cls = x.spec.nilpotency_class
    if cls > table.max_class:
        raise MaxclassError(f"ring class {cls} exceeds table class {table.max_class}")
    if cls >= x.spec.ctx.p:
        raise MaxclassError(f"ring class {cls} >= p; Lazard correspondence does not apply")
    return cls


def bch_multiply(x: LieElt, y: LieElt, table: BchTable) -> LieElt:
    """Group product of G(L): the BCH series evaluated through the ring class."""
    x._check(y)
    cls = _usable_class(x, table)
    acc = x + y
    if cls >= 2:
        cache: dict[Tree, LieElt] = {}

        def ev(t: Tree) -> LieElt:
            if isinstance(t, int):
                return x if t == 0 else y
            got = cache.get(t)
            if got is None:
                got = ev(t[0]).bracket(ev(t[1]))
                cache[t] = got
            return got

        for deg in range(2, cls + 1):
            for t, c in table.terms.get(deg, []):
                acc = acc + ev(t) * c
    return acc


def group_commutator(x: LieElt, y: LieElt, table: BchTable) -> LieElt:
    """x^-1 y^-1 x y, composed from BCH products."""
    return bch_multiply(bch_multiply(bch_multiply(-x, -y, table), x, table), y, table)


def group_commutator_closed3(x: LieElt, y: LieElt) -> LieElt:
    """Closed commutator formula valid for class <= 3:
    [a,b] + 1/2([b,[b,a]] - [a,[a,b]]).

    Checked against exact matrix exponentials on strictly upper triangular
    4x4 matrices; the composed product x^-1 y^-1 x y expands to exactly this.
    """
    ab = x.bracket(y)
    return ab + (y.bracket(y.bracket(x)) - x.bracket(ab)) * Fraction(1, 2)


def _theta_matrix(ctx: PrimeContext, t: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Rows of multiplication by theta^t on digit vectors mod P^n; column j is theta^t kappa^j."""
    mat = ctx._theta_mats.get((t, n))
    if mat is None:
        th = ctx.theta(t).digits
        cols = [ctx._canonical(ctx._mul_raw(th, tuple(int(k == j) for k in range(ctx.d))), n)
                for j in range(ctx.d)]
        mat = ctx._theta_mats[t, n] = tuple(zip(*cols))
    return mat


def theta_power_map(x: LieElt, t: int) -> LieElt:
    """Multiplication by theta^t: simultaneously a ring endomorphism of L and an
    automorphism of G(L); theta itself has order p."""
    spec = x.spec
    t %= spec.ctx.p
    if t == 0:
        return x
    mat = _theta_matrix(spec.ctx, t, spec.m - spec.i)
    return LieElt(spec, spec._canon([sum(map(mul, row, x.digits)) for row in mat]))


def group_lcs(spec: LieRingSpec, table: BchTable) -> LcsProfile:
    """Lower central series of G(L) from group commutators of module generators.

    Must coincide with the Lie-ring profile; the comparison is the check that
    the two central series agree.
    """
    return lower_central_series(spec.i, spec.m, layer_step(
        spec, lambda a, basis: [group_commutator(a, b, table) for b in basis]))
