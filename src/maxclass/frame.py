"""The groups S_{i,m}(gamma) = G(L) x| P and the frame-tree enumeration.

Each S_{i,m}(gamma) has order p^{m-i+1}; the P-factor acts on the Lazard
group by multiplication with theta.  The frame of a branch is assembled by
sweeping a coefficient grid and keeping, per surviving gamma, only gamma,
lambda and the top level m_top: its chain of truncations m = i .. m_top.  Each
vertex has maximal class by a lemma (s_group_lcs is the sweep that checks it),
and the Lie class is < p by the same lemma up to level p*i; only a gamma kept
above p*i has its Lie series swept.
Vertices are merged only when an isomorphism move has been verified: vertex
counts are therefore upper bounds on the number of isomorphism types.  Pairs
are tried only within one class of the level below, from level i on, where
the classes are the lines of the coefficient vectors mod P, points of
P^{l-1}(F_p).
"""

from __future__ import annotations

from itertools import product

from .cyclotomic import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CycElt,
    MaxclassError,
    PrimeContext,
    Valuation,
)
from .homs import GammaCoeffs, NotInHhat
from .isom import find_certified_move
from .lazard import BchTable, bch_multiply, build_bch_table, group_commutator, theta_power_map
from .liering import LcsProfile, LieElt, LieRingSpec, jacobi_exponent, layer_step, lower_central_series


MAINLINE = "mainline"
BRANCH = "branch"


def classify(i: int, m: int) -> str:
    """Mainline iff m <= 2i+1, else the vertex lies in branch B_{i+2}."""
    return MAINLINE if m <= 2 * i + 1 else BRANCH


class SGroup:
    """S_{i,m}(gamma): the Lazard group of L_{i,m}(gamma) extended by P."""

    def __init__(self, spec: LieRingSpec, table: BchTable | None = None):
        if table is None:
            table = build_bch_table(max(spec.nilpotency_class, 1), p=spec.ctx.p)
        self.spec = spec
        self.table = table
        self.ctx = spec.ctx

    @property
    def order_exp(self) -> int:
        return self.spec.m - self.spec.i + 1

    def __repr__(self) -> str:
        return (f"SGroup(p={self.ctx.p}, i={self.spec.i}, m={self.spec.m}, "
                f"order=p^{self.order_exp})")

    def element(self, g: LieElt | CycElt, t: int = 0) -> GroupElt:
        if isinstance(g, CycElt):
            g = self.spec.element(g)
        return GroupElt(self, g, t % self.ctx.p)

    def identity(self) -> GroupElt:
        return self.element(self.spec.zero(), 0)

    def p_generator(self) -> GroupElt:
        return self.element(self.spec.zero(), 1)

    def multiply(self, x: GroupElt, y: GroupElt) -> GroupElt:
        if x.group is not self or y.group is not self:
            raise MaxclassError("elements belong to different groups")
        g = bch_multiply(x.g, theta_power_map(y.g, x.t), self.table)
        return GroupElt(self, g, (x.t + y.t) % self.ctx.p)

    def inverse(self, x: GroupElt) -> GroupElt:
        return GroupElt(self, theta_power_map(-x.g, -x.t % self.ctx.p), -x.t % self.ctx.p)

    def commutator(self, x: GroupElt, y: GroupElt) -> GroupElt:
        t = self.multiply(self.multiply(self.inverse(x), self.inverse(y)), x)
        return self.multiply(t, y)

    def power(self, x: GroupElt, n: int) -> GroupElt:
        out = self.identity()
        base, n = (self.inverse(x), -n) if n < 0 else (x, n)
        for _ in range(n):
            out = self.multiply(out, base)
        return out

    def enumerate_elements(self):
        for g in self.spec.enumerate_elements():
            for t in range(self.ctx.p):
                yield GroupElt(self, g, t)


class GroupElt:
    """An element (g, theta^t) of S_{i,m}(gamma)."""

    __slots__ = ("group", "g", "t")

    def __init__(self, group: SGroup, g: LieElt, t: int):
        self.group = group
        self.g = g
        self.t = t

    def __mul__(self, other: GroupElt) -> GroupElt:
        return self.group.multiply(self, other)

    def inverse(self) -> GroupElt:
        return self.group.inverse(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElt):
            return NotImplemented
        return self.group is other.group and self.t == other.t and self.g == other.g

    def __hash__(self) -> int:
        return hash((self.t, self.g.digits))

    def is_identity(self) -> bool:
        return self.t == 0 and self.g.is_zero()

    def __repr__(self) -> str:
        return f"GroupElt(g={self.g!r}, t={self.t})"


def s_group_lcs(group: SGroup) -> LcsProfile:
    """Exponent chain of the lower central series of S.

    Starting from all generators (P-generator included), each term is the
    P-exponent of the theta-invariant module generated by commutator g-parts.
    Maximal class means the chain descends by exactly 1 per step, from i+1
    down to m.  As (g, s)(h, t) = (g theta^s(h), s + t) and bch_multiply(x, 0)
    is x, [(a, 0), (b, 0)] = (group_commutator(a, b), 0) and
    [(a, 0), (0, 1)] = ((-a) theta^{-1}(a), 0).
    """
    spec, table = group.spec, group.table
    return lower_central_series(spec.i, spec.m, layer_step(
        spec, lambda a, basis: [group_commutator(a, b, table) for b in basis]
        + [bch_multiply(-a, theta_power_map(a, -1), table)]))


def is_maximal_class_chain(prof: LcsProfile) -> bool:
    """Step-by-1 chain check: exponents i, i+1, ..., m with no gaps."""
    return prof.exponents == tuple(range(prof.exponents[0], prof.m + 1))


def verify_maximal_class(group: SGroup) -> bool:
    """Whether S has maximal class, from one sweep of its central series."""
    return is_maximal_class_chain(s_group_lcs(group))


def quotient_edge(group: SGroup) -> tuple[SGroup, callable]:
    """The quotient S_{i,m} -> S_{i,m-1} by truncation, with the element map."""
    target_spec = group.spec.truncate(group.spec.m - 1)
    target = SGroup(target_spec, group.table)

    def project(x: GroupElt) -> GroupElt:
        return GroupElt(target, LieElt(target_spec, target_spec._canon(x.g.digits)), x.t)

    return target, project


class FrameNode:
    """A vertex of the enumerated tree: one certified class of S_{i,m}(gamma), i = gamma.i."""

    def __init__(self, m: int, gamma: GammaCoeffs, member_keys: list, node_id: str):
        self.i = gamma.i
        self.m = m
        self.gamma = gamma
        self.member_keys = member_keys
        self.node_id = node_id

    @property
    def classification(self) -> str:
        return classify(self.i, self.m)

    @property
    def order_exp(self) -> int:
        return self.m - self.i + 1

    @property
    def s_class(self) -> int:
        """The class of a maximal-class group of order p^(m-i+1): m - i, and 1 at m = i."""
        return self.m - self.i if self.m > self.i else 1

    @property
    def branch_root(self) -> int | None:
        return self.i + 2 if self.classification == BRANCH else None

    def label(self) -> str:
        import hashlib  # only the DOT text needs it, and it loads OpenSSL
        h = hashlib.sha256(repr(self.member_keys[0]).encode()).hexdigest()[:8]
        return f"p^{self.order_exp}, class {self.s_class}, {h}"


class FrameTree:
    def __init__(self, p: int, i: int, m_max: int, coeff_mod: int, nodes: list[FrameNode],
                 edges: list[tuple[str, str]], merged_by: list[dict]):
        self.p = p
        self.i = i
        self.m_max = m_max
        self.coeff_mod = coeff_mod
        self.nodes = nodes
        self.edges = edges
        self.merged_by = merged_by

    def to_json(self) -> dict:
        """The tree as JSON data; vertices that share a gamma share its serialisation."""
        gammas = {id(g): g.to_json() for g in {id(n.gamma): n.gamma for n in self.nodes}.values()}
        return {
            "p": self.p,
            "i": self.i,
            "m_max": self.m_max,
            "coeff_mod": self.coeff_mod,
            "nodes": [
                {
                    "id": n.node_id,
                    "i": n.i,
                    "m": n.m,
                    "order_exp": n.order_exp,
                    "class": n.s_class,
                    "classification": n.classification,
                    "branch_root": n.branch_root,
                    "gamma": gammas[id(n.gamma)],
                    "members": [repr(k) for k in n.member_keys],
                }
                for n in self.nodes
            ],
            "edges": [{"parent": a, "child": b} for a, b in self.edges],
            "merged_by": self.merged_by,
        }

    def to_dot(self) -> str:
        lines = ["digraph frame {"]
        for n in self.nodes:
            lines.append(f'  "{n.node_id}" [label="{n.label()}"];')
        for a, b in self.edges:
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _coefficient_grid(ctx: PrimeContext, m_c: int, budget: int):
    """All l-tuples of residues of O/P^{m_c}, lifted to exact elements."""
    count = ctx.p ** (m_c * ctx.l)
    if count > budget:
        raise BudgetExceeded(f"grid of {count} coefficient vectors exceeds budget {budget}")
    residues = [ctx.element(digs, ctx.M_work)
                for digs in product(*map(range, ctx.digit_moduli(m_c)))]
    yield from product(residues, repeat=ctx.l)


def _line_key(g: GammaCoeffs) -> tuple[int, ...]:
    """The line of an integral coefficient vector mod P, scaled to lead with 1.

    These keys are the classes below level i.  A grid vector c is integral and
    kappa lies in P, so c_a mod P is digit 0 of c_a mod p.  A move (u, sigma_k)
    certified mod P^m, m >= 1, gives sigma_k(c2_a) = rho_a(u) c_a mod P.  Now
    sigma_k(kappa) = (1+kappa)^k - 1 lies in P, so sigma_k is trivial on
    O/P = F_p, and rho_a(u) = u^{-1} sigma_a(u) sigma_{1-a}(u) = u mod P; hence
    c2 = u c mod P.  Conversely the move (lambda, sigma_1) with lambda in
    {1, ..., p-1} is Galois-fixed, so rho_a(lambda) = lambda and it carries c to
    lambda c.  The move orbit of c mod P is therefore {lambda c : lambda in F_p^*},
    a point of P^{l-1}(F_p) or zero, the partition that orbit_canonical(c, 1)
    names by its least element.
    """
    return _line_of_residues(g.ctx.p, [ca.num.digits[0] for ca in g.coeffs])


def _line_of_residues(p: int, residues) -> tuple[int, ...]:
    """The line of a vector of integers mod p, scaled to lead with 1; zero is its own line."""
    v = [x % p for x in residues]
    scale = pow(next((x for x in v if x), 1), -1, p)
    return tuple(x * scale % p for x in v)


def _line_lambda(coeff_mod: int):
    """A function g -> jacobi_exponent(g) that computes lambda once per line mod P and level g.i.

    The returned function keeps the exact lambda < 3i+p-1 of the first integral
    gamma it meets on each (g.i, _line_key) and gives it to every later gamma
    there; any other case (coeff_mod >= 2, a non-integral gamma, an AtLeast or
    a larger lambda) is computed by jacobi_exponent and not kept.  One function
    serves one PrimeContext.  The proof, for coeff_mod = 1 and integral c, c':
    - the entries of a grid vector are rational integers in 0..p-1, so c' on
      the line of c is c' = t c - p delta, t in {1..p-1}, delta in Z^l;
    - the Jacobiator is quadratic in gamma, so
      J_{gamma'} = t^2 J_gamma - p t B(gamma, gamma_delta) + p^2 J_{gamma_delta},
      B the bilinear cross term, and gamma_delta is integral;
    - gamma(P^s ^ P^t) lies in P^{s+t} (the lemma of enumerate_frame), so on a
      basis triple of P^i, B(gamma, gamma_delta) and J_{gamma_delta} lie in
      P^{3i}, and the last two terms in P^{3i+p-1}, as pO = P^{p-1}.
    So each triple's J_{gamma'} has the valuation of J_gamma where that is
    below 3i+p-1, t being a unit; an exact lambda < 3i+p-1 is then lambda of
    gamma' too, and also below M_work, so jacobi_exponent labels it Exact.  For
    coeff_mod >= 2 two points of a line differ by an element of P, not of pO.
    lam.stored(i, line) is the lambda kept for (i, line), or None, with no
    gamma at hand: a scan reads it for every later point of a line.
    """
    memo: dict[tuple, Valuation] = {}

    def lam(g: GammaCoeffs) -> Valuation:
        if coeff_mod != 1 or not g.is_integral():
            return jacobi_exponent(g)
        key = (g.i, _line_key(g))
        v = memo.get(key)
        if v is None:
            v = jacobi_exponent(g)
            if v.exact and v.value < 3 * g.i + g.ctx.p - 1:
                memo[key] = v
        return v

    lam.stored = lambda i, line: memo.get((i, line))
    return lam


def enumerate_frame(ctx: PrimeContext, i: int, m_max: int, coeff_mod: int = 1,
                    budget: int = DEFAULT_BUDGET) -> FrameTree:
    """Build the tree of frame vertices for the grid of coefficients mod P^{coeff_mod}.

    Every grid representative gamma passing the Hhat_i test is kept with
    m_top = min(lambda, m_max), the chain of truncations m = i .. m_top of its
    Lie ring, and lambda from _line_lambda, which no later step recomputes.
    Vertices at each level are merged only under certified moves, and a pair
    is tried only if it lies in one class of the level below; at level i those
    classes are the lines of the vectors mod P (_line_key).

    Maximal class is a lemma, not a sweep of s_group_lcs.  Let gamma be
    integral, i >= 1 and the Lie class < p.  sigma_a keeps valuations, so
    gamma(P^s ^ P^t) lies in P^{s+t}, and the p-integral BCH coefficients lose
    no valuation.  step(w) of s_group_lcs commutes a = kappa^{w+r}, r < p-1:
    - with e_s = kappa^{i+s}: each BCH term is a bracket containing a and e_s,
      in P^{w+r+i}, inside P^{w+1} as i >= 1;
    - with the P-generator: (-a) theta^{-1}(a) is d = (theta^{-1} - 1)a, of
      valuation exactly w+r+1 as theta^{-1} - 1 = -theta^{-1} kappa, plus
      brackets containing -a and d, in P^{2(w+r)+1}; so it has valuation
      exactly w+r+1, clamped at m.
    So step(w) = w+1 at r = 0, the chain is i, i+1, ..., m, and every vertex
    has maximal class.  Only the hypotheses are checked: i >= 1 (L_{0,m}(gamma)
    is not nilpotent once m >= 2), integral grid gamma, and Lie class < p
    (Lazard) at each gamma's top level m_top.

    Class < p is the same lemma where it suffices.  By it gamma_k(L_{i,m})
    lies in P^{ki} + P^m, so the class is at most ceil(m/i) - 1, below p
    whenever m <= p i.  Only a gamma with m_top > p i has its Lie series swept
    (LieRingSpec.nilpotency_class), after the grid and its "no grid
    coefficient passes" check.  Skipping the sweep elsewhere drops no error
    it could raise, for integral gamma and M_work >= lambda >= m_top:
    - the structure constants are known mod P^{M_work-i}, inside P^{m_top-i},
      so no PrecisionExhausted;
    - a LieElt valuation is exact or AtLeast(m), so no step is undecided;
    - each step rises by at least i >= 1, so no NotNilpotent.
    """
    if i < 1:
        raise ValueError(f"i = {i}: the frame needs i >= 1; L_(0,m)(gamma) is not nilpotent")
    if m_max < i:
        raise ValueError(f"m_max = {m_max} lies below i = {i}: the tree would have no level")
    kept: list[tuple[GammaCoeffs, int, Valuation]] = []   # (gamma, min(lambda, m_max), lambda)
    lam_of = _line_lambda(coeff_mod)
    passed = False
    for coeffs in _coefficient_grid(ctx, coeff_mod, budget):
        try:
            g = GammaCoeffs(ctx, i, coeffs, check=True)
        except NotInHhat:
            continue
        if not g.is_integral():
            raise MaxclassError(f"grid gamma {g.key!r} is not integral")
        passed = True
        lam = lam_of(g)
        m_top = min(lam.value, m_max)
        if m_top >= i:
            kept.append((g, m_top, lam))
    if not passed:
        raise MaxclassError(f"no grid coefficient passes the Hhat_{i} test")
    max_class = max([1] + [LieRingSpec(g, m_top, lam=lam).nilpotency_class
                           for g, m_top, lam in kept if m_top > ctx.p * i])
    if max_class >= ctx.p:
        raise ValueError(f"max_class {max_class} >= p = {ctx.p}: denominator p would appear")

    nodes: list[FrameNode] = []
    edges: list[tuple[str, str]] = []
    merged_by: list[dict] = []
    prev_class_of = {idx: _line_key(g) for idx, (g, *_) in enumerate(kept)}
    keys = [g.key for g, *_ in kept]

    for m in range(i, m_max + 1):
        members = [idx for idx, (_, m_top, _) in enumerate(kept) if m_top >= m]
        # congruence mod P^m implies congruence mod P^{m-1}, so a pair can merge
        # only inside one bucket, a class of the level below; each ia walks the
        # later members of its bucket, in the lexicographic pair order.  rep[idx]
        # names the class of idx so far, and a merge relabels within the bucket
        buckets: dict = {}
        for idx in members:
            buckets.setdefault(prev_class_of[idx], []).append(idx)
        rep = {idx: idx for idx in members}
        for ia in members:
            bucket = buckets[prev_class_of[ia]]
            for ib in bucket[bucket.index(ia) + 1:]:
                if rep[ia] == rep[ib]:
                    continue
                mv = find_certified_move(kept[ia][0], kept[ib][0], m,
                                         unit_modulus=coeff_mod, budget=budget)
                if mv is not None:
                    merged_by.append({
                        "m": m,
                        "move": mv.to_json(),
                        "verified": True,
                        "from": repr(keys[ia]),
                        "to": repr(keys[ib]),
                    })
                    new, old = rep[ia], rep[ib]
                    rep.update((x, new) for x in bucket if rep[x] == old)

        classes: dict[int, list[int]] = {}
        for idx in members:
            classes.setdefault(rep[idx], []).append(idx)

        class_of: dict[int, str] = {}
        for n, root in enumerate(sorted(classes, key=keys.__getitem__)):
            node_id = f"m{m}n{n}"
            nodes.append(FrameNode(m=m, gamma=kept[root][0],
                                   member_keys=[keys[idx] for idx in classes[root]], node_id=node_id))
            for idx in classes[root]:
                class_of[idx] = node_id
        if m > i:
            edges.extend(dict.fromkeys((prev_class_of[idx], nid) for idx, nid in class_of.items()))
        prev_class_of = class_of

    return FrameTree(p=ctx.p, i=i, m_max=m_max, coeff_mod=coeff_mod,
                     nodes=nodes, edges=edges, merged_by=merged_by)
