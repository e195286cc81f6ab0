"""Free Lie algebra scaffolding: Lyndon bases and truncated BCH coefficients.

Works inside the free associative algebra on a small alphabet, truncated by
total degree, with words as tuples and exact Fraction coefficients.  The free
Lie algebra embeds via [f, g] = fg - gf, so solving for the BCH series in the
Lyndon basis and checking associativity are both plain linear algebra here.
"""

from __future__ import annotations

from fractions import Fraction

Word = tuple[int, ...]
Poly = dict[Word, Fraction]
# a bracket tree is a letter (int) or a pair of bracket trees
Tree = int | tuple


def poly_scale(f: Poly, c: Fraction) -> Poly:
    return {w: v * c for w, v in f.items()} if c else {}

def poly_add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for w, v in g.items():
        nv = out.get(w, 0) + v
        if nv:
            out[w] = nv
        else:
            out.pop(w, None)
    return out

def poly_mul(f: Poly, g: Poly, max_deg: int) -> Poly:
    out: Poly = {}
    for wf, vf in f.items():
        for wg, vg in g.items():
            if len(wf) + len(wg) > max_deg:
                continue
            w = wf + wg
            nv = out.get(w, 0) + vf * vg
            if nv:
                out[w] = nv
            else:
                out.pop(w, None)
    return out

def poly_bracket(f: Poly, g: Poly, max_deg: int) -> Poly:
    return poly_add(poly_mul(f, g, max_deg), poly_scale(poly_mul(g, f, max_deg), Fraction(-1)))

def poly_exp(f: Poly, max_deg: int) -> Poly:
    # f must have no constant term
    out: Poly = {(): Fraction(1)}
    term: Poly = {(): Fraction(1)}
    for n in range(1, max_deg + 1):
        term = poly_scale(poly_mul(term, f, max_deg), Fraction(1, n))
        if not term:
            break
        out = poly_add(out, term)
    return out

def poly_log(f: Poly, max_deg: int) -> Poly:
    # f must have constant term 1
    u = dict(f)
    u.pop((), None)
    out: Poly = {}
    term: Poly = {(): Fraction(1)}
    for n in range(1, max_deg + 1):
        term = poly_mul(term, u, max_deg)
        if not term:
            break
        out = poly_add(out, poly_scale(term, Fraction((-1) ** (n + 1), n)))
    return out


def lyndon_words(k: int, max_len: int) -> list[Word]:
    """All Lyndon words over {0..k-1} of length <= max_len, by Duval's algorithm."""
    out: list[Word] = []
    w = [0]
    while w:
        out.append(tuple(w))
        w = [w[j % len(w)] for j in range(max_len)]
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(out, key=lambda t: (len(t), t))


def _is_lyndon(w: Word) -> bool:
    return all(w < w[j:] for j in range(1, len(w)))


def standard_bracketing(w: Word) -> Tree:
    """Right standard factorization: w = uv with v the longest proper Lyndon suffix."""
    if len(w) == 1:
        return w[0]
    for j in range(1, len(w)):
        if _is_lyndon(w[j:]):
            return (standard_bracketing(w[:j]), standard_bracketing(w[j:]))
    raise ValueError(f"{w} is not a Lyndon word")


def expand_tree(t: Tree, letters: list[Poly], max_deg: int) -> Poly:
    if isinstance(t, int):
        return letters[t]
    return poly_bracket(expand_tree(t[0], letters, max_deg),
                        expand_tree(t[1], letters, max_deg), max_deg)


def bch_coefficients(max_deg: int) -> dict[int, list[tuple[Tree, Fraction]]]:
    """Coefficients of log(exp(a) exp(b)) on the Lyndon basis, degree by degree."""
    a: Poly = {(0,): Fraction(1)}
    b: Poly = {(1,): Fraction(1)}
    letters = [a, b]
    z = poly_log(poly_mul(poly_exp(a, max_deg), poly_exp(b, max_deg), max_deg), max_deg)
    table: dict[int, list[tuple[Tree, Fraction]]] = {}
    basis = [w for w in lyndon_words(2, max_deg)]
    for deg in range(1, max_deg + 1):
        trees = [standard_bracketing(w) for w in basis if len(w) == deg]
        expansions = [expand_tree(t, letters, max_deg) for t in trees]
        target = {w: v for w, v in z.items() if len(w) == deg}
        coeffs = _solve_in_span(expansions, target, deg)
        table[deg] = [(t, c) for t, c in zip(trees, coeffs) if c]
    return table


def _solve_in_span(expansions: list[Poly], target: Poly, deg: int) -> list[Fraction]:
    """Solve sum_j c_j expansions_j = target exactly; raises if inconsistent."""
    words = sorted({w for e in expansions for w in e} | set(target))
    idx = {w: r for r, w in enumerate(words)}
    n, m = len(words), len(expansions)
    mat = [[Fraction(0)] * (m + 1) for _ in range(n)]
    for j, e in enumerate(expansions):
        for w, v in e.items():
            mat[idx[w]][j] = v
    for w, v in target.items():
        mat[idx[w]][m] = v
    piv_rows: list[int] = []
    row = 0
    for col in range(m):
        pr = next((r for r in range(row, n) if mat[r][col]), None)
        if pr is None:
            raise ValueError("expansion matrix is rank deficient")
        mat[row], mat[pr] = mat[pr], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(n):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [vr - f * vp for vr, vp in zip(mat[r], mat[row])]
        piv_rows.append(row)
        row += 1
    for r in range(row, n):
        if mat[r][m]:
            raise ValueError(f"degree-{deg} slice is not in the Lyndon span")
    return [mat[r][m] for r in piv_rows]


def bch_eval_poly(terms: dict[int, list[tuple[Tree, Fraction]]],
                  f: Poly, g: Poly, max_deg: int) -> Poly:
    """Evaluate the tabulated BCH series on two Lie elements of the word algebra."""
    out: Poly = {}
    cache: dict[Tree, Poly] = {}

    def ev(t: Tree) -> Poly:
        if isinstance(t, int):
            return f if t == 0 else g
        got = cache.get(t)
        if got is None:
            got = poly_bracket(ev(t[0]), ev(t[1]), max_deg)
            cache[t] = got
        return got

    for deg in range(1, max_deg + 1):
        for t, c in terms.get(deg, []):
            out = poly_add(out, poly_scale(ev(t), c))
    return out


def verify_associativity(terms: dict[int, list[tuple[Tree, Fraction]]], max_deg: int) -> bool:
    """(x o y) o z == x o (y o z) in the free class-max_deg algebra on three letters."""
    x: Poly = {(0,): Fraction(1)}
    y: Poly = {(1,): Fraction(1)}
    z: Poly = {(2,): Fraction(1)}
    xy = bch_eval_poly(terms, x, y, max_deg)
    yz = bch_eval_poly(terms, y, z, max_deg)
    return bch_eval_poly(terms, xy, z, max_deg) == bch_eval_poly(terms, x, yz, max_deg)
