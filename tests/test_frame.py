import random
from itertools import islice

import pytest

from maxclass import (
    BudgetExceeded,
    GammaCoeffs,
    LieRingSpec,
    MaxclassError,
    PrecisionExhausted,
    PrimeContext,
    SGroup,
    Valuation,
    build_bch_table,
    classify,
    enumerate_frame,
    frame,
    homs,
    isom,
    jacobi_exponent,
    lazard,
    liering,
    orbit_canonical,
    quotient_edge,
    s_group_lcs,
    verify,
    verify_maximal_class,
)
import oracles


@pytest.fixture(scope="module")
def ctx():
    return PrimeContext(5, 40)


@pytest.fixture(scope="module")
def group(ctx):
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    lam = jacobi_exponent(g)
    return SGroup(LieRingSpec(g, 18, lam=lam))


def _rnd(group, rng):
    ctx = group.ctx
    spec = group.spec
    v = ctx.zero()
    for t in range(spec.m - spec.i):
        a = rng.randrange(ctx.p)
        if a:
            v = v + ctx.kappa_power(spec.i + t) * a
    return group.element(v, rng.randrange(ctx.p))


def test_order_and_p_generator(group):
    assert group.order_exp == 12
    assert group.power(group.p_generator(), 5).is_identity()


def test_s_multiply_associative_sampled(group):
    rng = random.Random(0)
    for _ in range(40):
        x, y, z = _rnd(group, rng), _rnd(group, rng), _rnd(group, rng)
        assert (x * y) * z == x * (y * z)
        assert (x * x.inverse()).is_identity()


def test_commutator_with_p_generator_raises_valuation(group):
    for e in (7, 9, 12):
        x = group.element(group.ctx.kappa_power(e), 0)
        c = group.commutator(x, group.p_generator())
        assert c.t == 0
        assert c.g.valuation().value == e + 1


def test_s_group_lcs_step_by_one(group):
    prof = s_group_lcs(group)
    assert prof.exponents == tuple(range(7, 19))
    assert verify_maximal_class(group)
    assert prof.nilpotency_class == 18 - 7  # class of S equals m - i


def test_mainline_abelian_case(ctx):
    # for m <= 2i+1 the G-part is abelian and gamma_j(S) has exponent i+j-1
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    grp = SGroup(LieRingSpec(g, 15))
    prof = s_group_lcs(grp)
    assert prof.exponents == tuple(7 + j - 1 for j in range(1, 10))


def test_classify_thresholds():
    assert classify(7, 15) == "mainline"
    assert classify(7, 16) == "branch"
    assert classify(7, 7) == "mainline"


def test_quotient_edge_properties(group):
    rng = random.Random(1)
    target, project = quotient_edge(group)
    assert target.order_exp == group.order_exp - 1
    for _ in range(25):
        x, y = _rnd(group, rng), _rnd(group, rng)
        assert project(group.multiply(x, y)) == target.multiply(project(x), project(y))
    kernel = {group.element(group.ctx.kappa_power(17) * a, 0) for a in range(5)}
    assert len(kernel) == 5
    for k in kernel:
        assert project(k).is_identity()
        assert group.commutator(k, _rnd(group, rng)).is_identity()


def test_quotient_composition_is_direct_truncation(group):
    rng = random.Random(2)
    t1, pr1 = quotient_edge(group)
    t2, pr2 = quotient_edge(t1)
    direct_spec = LieRingSpec(group.spec.gamma, 16, lam=group.spec.lam)
    direct = SGroup(direct_spec, group.table)
    for _ in range(10):
        x = _rnd(group, rng)
        y = pr2(pr1(x))
        z = direct.element(direct_spec.element(x.g.value), x.t)
        assert y.g.value.digits == z.g.value.digits and y.t == z.t


def test_frame_tree_matches_oracle(ctx):
    # all four unit coefficients merge under Z_p twists at every level, so the
    # tree is a single chain m = 7..m_max; lambda = 24 caps nothing below 20
    tree = enumerate_frame(ctx, 7, 20, coeff_mod=1, budget=10 ** 6)
    assert oracles.jacobi_exponent(5, 7, {2: 1}) == 24
    levels = sorted({n.m for n in tree.nodes})
    assert levels == list(range(7, 21))
    assert all(sum(1 for n in tree.nodes if n.m == m) == 1 for m in levels)
    assert len(tree.edges) == len(tree.nodes) - 1
    # every non-root node has its quotient parent present
    ids = {n.node_id for n in tree.nodes}
    children = {b for _, b in tree.edges}
    assert children == {n.node_id for n in tree.nodes if n.m > 7}
    assert all(a in ids for a, _ in tree.edges)
    # merges: 3 certified merges per level over 14 levels
    assert len(tree.merged_by) == 3 * 14
    for n in tree.nodes:
        assert n.classification == ("mainline" if n.m <= 15 else "branch")
        assert n.order_exp == n.m - 7 + 1
        if n.classification == "branch":
            assert n.branch_root == 9


def test_branch_node_exists_at_2i_plus_2(ctx):
    # lambda >= 3i+3-p >= 2i+2 for i >= p-1, so the first branch level exists
    tree = enumerate_frame(ctx, 7, 16, coeff_mod=1, budget=10 ** 6)
    assert any(n.m == 16 and n.classification == "branch" for n in tree.nodes)


def test_skeleton_contained_in_frame(ctx):
    # class-2 truncations (m <= w_3) are exactly the nodes with m <= 23
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    lam = jacobi_exponent(g)
    w3 = LieRingSpec(g, 24, lam=lam).lcs_profile().exponents[2]
    tree = enumerate_frame(ctx, 7, 20, coeff_mod=1, budget=10 ** 6)
    skeleton = [n for n in tree.nodes if n.m <= w3 and n.m >= 16]
    assert skeleton  # the skeleton part of the branch is present
    for n in skeleton:
        spec = LieRingSpec(g, n.m, lam=lam)
        assert spec.lcs_profile().nilpotency_class <= 2


def test_enumerate_frame_builds_no_s_group(ctx, monkeypatch):
    # maximal class comes from the lemma in enumerate_frame's docstring: no
    # S-series, BCH product or BCH table; and as every top level m_top = 20 is
    # at most p i = 35, class < p comes from it too: no Lie ring, no Lie series
    sweeps = []
    real = liering.lcs_profile

    def counting(spec):
        sweeps.append(spec.m)
        return real(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_frame swept an S-group")

    monkeypatch.setattr(liering, "lcs_profile", counting)
    for name in ("verify_maximal_class", "s_group_lcs", "bch_multiply", "build_bch_table",
                 "SGroup", "LieRingSpec"):
        monkeypatch.setattr(frame, name, refuse)
    monkeypatch.setattr(lazard, "bch_multiply", refuse)
    monkeypatch.setattr(lazard, "build_bch_table", refuse)
    tree = enumerate_frame(ctx, 7, 20)
    assert len(tree.nodes) == 14
    assert sweeps == []


def test_enumerate_frame_tests_hhat_once_per_gamma(monkeypatch):
    # 5 grid points are tested; the Lie rings of the 4 members do not repeat it
    calls = []
    real = homs.in_Hhat

    def counting(g):
        calls.append(g.i)
        return real(g)

    monkeypatch.setattr(homs, "in_Hhat", counting)
    monkeypatch.setattr(liering, "in_Hhat", counting)
    enumerate_frame(PrimeContext(5, 40), 7, 20)
    assert calls == [7] * 5


def _kept(monkeypatch, ctx, i, m_max, coeff_mod, points=None):
    """The pairs (gamma, m_top) enumerate_frame keeps, on the first points of its grid.

    They are read off the lambdas its _line_lambda hands out, and checked
    against the tree: the members of each level m are the kept gammas with
    m_top >= m.
    """
    seen = []
    real_lambda, real_grid = frame._line_lambda, frame._coefficient_grid

    def recording(coeff_mod):
        lam_of = real_lambda(coeff_mod)

        def lam(g):
            seen.append((g, lam_of(g)))
            return seen[-1][1]
        return lam

    monkeypatch.setattr(frame, "_line_lambda", recording)
    monkeypatch.setattr(frame, "_coefficient_grid",
                        lambda *args: islice(real_grid(*args), points))
    tree = enumerate_frame(ctx, i, m_max, coeff_mod=coeff_mod, budget=10 ** 6)
    kept = [(g, min(lam.value, m_max)) for g, lam in seen if min(lam.value, m_max) >= i]
    for m in range(i, m_max + 1):
        members = sorted(k for n in tree.nodes if n.m == m for k in n.member_keys)
        assert members == sorted(tuple((ca.den_exp, ca.num.reduce_to(coeff_mod).digits) for ca in g.coeffs)
                                 for g, top in kept if top >= m)
    return kept


LEMMA_CONFIGS = [(5, 7, 20, 1, 40, None, 4), (5, 7, 20, 2, 40, None, 20),
                 (7, 9, 22, 1, 48, None, 42), (11, 13, 16, 1, 84, 40, 37)]


@pytest.mark.parametrize("p, i, m_max, coeff_mod, m_work, points, kept", LEMMA_CONFIGS)
def test_lemma_agrees_with_the_s_group_sweep(monkeypatch, p, i, m_max, coeff_mod, m_work,
                                             points, kept):
    # the oracle for enumerate_frame's lemma: the sweep of s_group_lcs on every
    # gamma the frame keeps, at its top level (lower levels are the clamped
    # top series, test_s_series_of_truncation_is_clamped_top_series)
    ctx = PrimeContext(p, m_work)
    specs = [LieRingSpec(g, top) for g, top in _kept(monkeypatch, ctx, i, m_max,
                                                              coeff_mod, points)]
    assert len(specs) == kept
    table = build_bch_table(max(spec.nilpotency_class for spec in specs), p=p)
    for spec in specs:
        assert s_group_lcs(SGroup(spec, table)).exponents == tuple(range(i, spec.m + 1))
        assert verify_maximal_class(SGroup(spec, table))


@pytest.mark.parametrize("p, i, m_max, coeff_mod, m_work, points, kept, above", [
    config + (0,) for config in LEMMA_CONFIGS] + [
    (5, 1, 5, 1, 40, None, 4, 0), (5, 1, 6, 1, 40, None, 4, 4), (5, 1, 10, 1, 40, None, 4, 4),
    (7, 2, 16, 1, 40, None, 42, 0)])
def test_lie_class_below_p_up_to_level_p_i(monkeypatch, p, i, m_max, coeff_mod, m_work, points,
                                           kept, above):
    # the oracle for the class bound of enumerate_frame: the swept Lie class of
    # each kept gamma is at most ceil(m_top/i) - 1, so below p when m_top <= p i;
    # enumerate_frame reads the class of exactly the gammas kept above p i (at
    # p = 5, i = 1 and m_max = 5 every m_top is p i itself)
    ctx = PrimeContext(p, m_work)
    reads = []
    real = liering.LieRingSpec.nilpotency_class

    def recording(spec):
        reads.append((spec.gamma.content_key, spec.m))
        return real.fget(spec)

    monkeypatch.setattr(liering.LieRingSpec, "nilpotency_class", property(recording))
    pairs = _kept(monkeypatch, ctx, i, m_max, coeff_mod, points)
    assert len(pairs) == kept
    assert reads == [(g.content_key, top) for g, top in pairs if top > p * i]
    assert len(reads) == above
    for g, top in pairs:
        cls = LieRingSpec(g, top).nilpotency_class
        assert cls <= -(-top // i) - 1
        assert cls < p or top > p * i


def test_enumerate_frame_needs_i_at_least_1(ctx):
    # L_(0,m)(gamma) is not nilpotent for m >= 2, and the lemma needs i >= 1
    with pytest.raises(ValueError, match="i >= 1"):
        enumerate_frame(ctx, 0, 5)


def test_enumerate_frame_refuses_a_non_integral_gamma(ctx, monkeypatch):
    # a coefficient known below M_work is not integral; the grid never yields one
    c = ctx.from_int(1).reduce_to(ctx.M_work - 1)
    monkeypatch.setattr(frame, "_coefficient_grid", lambda *args: iter([(c,)]))
    with pytest.raises(MaxclassError, match="not integral"):
        enumerate_frame(ctx, 7, 10)


def test_enumerate_frame_keeps_the_lazard_precondition(monkeypatch):
    # at p = 5, i = 1 every kept gamma has m_top = 6 > p i, the one tested
    # case where the lemma leaves class < p open; a patched class 5 must raise
    monkeypatch.setattr(liering.LieRingSpec, "nilpotency_class", property(lambda spec: 5))
    with pytest.raises(ValueError, match="max_class 5 >= p = 5"):
        enumerate_frame(PrimeContext(5, 40), 1, 6)


def test_enumerate_frame_reads_no_lie_class_up_to_level_p_i(ctx, monkeypatch):
    # the converse: at p = 5, i = 7, m <= 10 the lemma bounds the class, so the
    # patched class 5 is never read
    reads = []
    monkeypatch.setattr(liering.LieRingSpec, "nilpotency_class",
                        property(lambda spec: reads.append(spec) or 5))
    assert len(enumerate_frame(ctx, 7, 10).nodes) == 4
    assert reads == []


def test_enumerate_frame_drops_bracket_tables_up_to_level_p_i(ctx, monkeypatch):
    # only the class sweep of a gamma with m_top > p i builds its ring's
    # structure constants; at p = 5, i = 1, m <= 6 every kept gamma is swept
    built = []
    real = liering.LieRingSpec._structure_constants

    def counted(spec):
        if spec._table is None and spec.m > spec.i:
            built.append(spec.gamma)
        return real(spec)

    monkeypatch.setattr(liering.LieRingSpec, "_structure_constants", counted)
    low = enumerate_frame(ctx, 7, 10, coeff_mod=2)
    assert low.nodes and built == []
    high = enumerate_frame(ctx, 1, 6)
    kept = [key for n in high.nodes if n.m == 1 for key in n.member_keys]
    assert len(set(map(id, built))) == len(built) == len(kept) > 0


def test_s_series_of_truncation_is_clamped_top_series(ctx):
    # gamma_k(S/N) = gamma_k(S)N/N: the S-series of every vertex below the top
    # is the top series clamped at m, so the sweep at each gamma's top level
    # covers all its vertices; the per-vertex sweep is the oracle here
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    spec = LieRingSpec(g, 20)
    table = build_bch_table(spec.nilpotency_class, p=ctx.p)
    top = s_group_lcs(SGroup(spec, table))
    assert top.exponents == tuple(range(7, 21))
    for m in range(7, 21):
        clamped = tuple(w for w in top.exponents if w < m) + (m,)
        assert s_group_lcs(SGroup(spec.truncate(m), table)).exponents == clamped


def test_budget_guard(ctx):
    with pytest.raises(BudgetExceeded):
        enumerate_frame(ctx, 7, 10, coeff_mod=3, budget=10)


def test_m_max_below_i_is_an_error(ctx):
    # a top level below the root leaves no vertex: refused, not returned as an empty tree
    with pytest.raises(ValueError, match="below i"):
        enumerate_frame(ctx, 7, 6)
    assert enumerate_frame(ctx, 7, 7).nodes


def test_tree_serialization(ctx):
    tree = enumerate_frame(ctx, 7, 10, coeff_mod=1, budget=10 ** 6)
    obj = tree.to_json()
    assert obj["p"] == 5 and len(obj["nodes"]) == len(tree.nodes)
    dot = tree.to_dot()
    assert dot.startswith("digraph") and "p^4" in dot


@pytest.mark.parametrize("p, i, m_work, points, members, lines", [
    (5, 7, 40, None, 4, 1), (7, 9, 24, None, 42, 7), (11, 13, 84, 400, 364, 121)])
def test_line_keys_partition_as_orbits_mod_p(p, i, m_work, points, members, lines):
    # the level-i classes of enumerate_frame: lines mod P against the least
    # element of each move orbit mod P, on the full p = 5 and p = 7 grids and
    # the first 400 points of the p = 11 grid
    ctx = PrimeContext(p, m_work)
    gammas = [GammaCoeffs(ctx, i, coeffs, check=False)
              for coeffs in islice(frame._coefficient_grid(ctx, 1, 10 ** 5), points)]
    gammas = [g for g in gammas if homs.in_Hhat(g)]
    line = [frame._line_key(g) for g in gammas]
    orbit = [orbit_canonical(g, 1).key for g in gammas]
    assert len(gammas) == members
    assert len(set(line)) == len(set(orbit)) == len(set(zip(line, orbit))) == lines


def test_enumerate_frame_calls_no_orbit_canonical(ctx, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_frame computed an orbit")

    monkeypatch.setattr(isom, "orbit_canonical", refuse)
    monkeypatch.setattr(isom, "_orbit_scan", refuse)
    assert not hasattr(frame, "orbit_canonical")
    tree = enumerate_frame(ctx, 7, 12)
    assert len(tree.nodes) == 6 and len(tree.merged_by) == 3 * 6


def _counting_lambda(monkeypatch, fake=None):
    """The lambdas frame._line_lambda computes, recorded; fake stands in for jacobi_exponent."""
    direct = []

    def recording(g):
        direct.append((fake or jacobi_exponent)(g))
        return direct[-1]

    monkeypatch.setattr(frame, "jacobi_exponent", recording)
    return direct


@pytest.mark.parametrize("p, m_work, levels, points, members, computed", [
    (5, 60, range(13), None, 52, 13), (5, 20, range(13), None, 40, 22),
    (7, 60, range(15), None, 630, 105), (11, 60, (0, 13), 121, 220, 22)])
def test_line_lambda_equals_jacobi_exponent(monkeypatch, p, m_work, levels, points, members,
                                            computed):
    # every decided Hhat_i point of the scan grids at p = 5 (M_work 60 and 20, where
    # lambda is AtLeast from i = 6 on) and p = 7, and the first 121 points at p = 11:
    # 11 lines, whose lambda at i = 0 is 3 or 5, below 3i+p-1 = 10
    ctx = PrimeContext(p, m_work)
    direct = _counting_lambda(monkeypatch)
    lam_of = frame._line_lambda(1)
    seen = 0
    for i in levels:
        for coeffs in islice(frame._coefficient_grid(ctx, 1, 10 ** 5), points):
            g = GammaCoeffs(ctx, i, coeffs, check=False)
            try:
                if not homs.in_Hhat(g):
                    continue
            except PrecisionExhausted:
                continue
            seen += 1
            assert lam_of(g) == jacobi_exponent(g)
    assert (seen, len(direct)) == (members, computed)


def test_line_lambda_computes_outside_its_bound(monkeypatch, ctx):
    # kept: an exact lambda below 3i+p-1 of an integral gamma on a coeff_mod 1 grid;
    # computed on each call: a larger or AtLeast lambda, coeff_mod 2 and a
    # non-integral gamma (a coefficient known below M_work)
    g = GammaCoeffs.from_integers(ctx, 7, [1])
    g2 = GammaCoeffs.from_integers(ctx, 7, [2])
    rough = GammaCoeffs(ctx, 7, [ctx.from_int(1).reduce_to(ctx.M_work - 1)], check=False)
    assert not rough.is_integral() and frame._line_key(rough) == frame._line_key(g)
    for value, coeff_mod, gammas, computed in [
            (Valuation.exactly(24), 1, [g, g2, g], 1), (Valuation.exactly(25), 1, [g, g2], 2),
            (Valuation.at_least(40), 1, [g, g2], 2), (Valuation.exactly(24), 2, [g, g], 2),
            (Valuation.exactly(24), 1, [rough, rough], 2)]:
        direct = _counting_lambda(monkeypatch, lambda g: value)
        lam_of = frame._line_lambda(coeff_mod)
        assert [lam_of(x) for x in gammas] == [value] * len(gammas)
        assert len(direct) == computed


@pytest.mark.parametrize("job, calls, atleast", [
    (lambda: verify.scan_conjecture1(7, 14), 105, 0),
    (lambda: enumerate_frame(PrimeContext(7, 60), 9, 18), 7, 0),
    # every AtLeast outcome is computed: 16 of the 22 calls
    (lambda: verify.scan_conjecture1(5, 12, m_work=20), 22, 16),
    # coeff_mod 2: once per decided Hhat_i point
    (lambda: verify.scan_conjecture1(5, 12, coeff_mod=2, m_work=20), 200, 80),
    (lambda: enumerate_frame(PrimeContext(5, 40), 7, 20, coeff_mod=2), 20, 0)],
    ids=["scan-p7", "enumerate-p7", "scan-p5-m20", "scan-p5-mod2", "enumerate-p5-mod2"])
def test_jacobi_exponent_calls_per_line(monkeypatch, job, calls, atleast):
    direct = _counting_lambda(monkeypatch)
    out = job()
    assert len(direct) == calls
    assert sum(not lam.exact for lam in direct) == atleast
    if isinstance(out, dict):   # a scan report: each AtLeast entry computed, all at coeff_mod 2
        lams = [e for e in out["entries"] if e["lambda"] is not None]
        assert atleast == sum(not e["exact"] for e in lams)
        assert out["coeff_mod"] == 1 or calls == len(lams)


def hhat_outcome(g):
    """in_Hhat(g), or PrecisionExhausted when it raises."""
    try:
        return homs.in_Hhat(g)
    except PrecisionExhausted:
        return PrecisionExhausted


@pytest.mark.parametrize("p, m_work, i_max, lines, outcomes", [
    (5, 20, 12, 2, {True, False, PrecisionExhausted}), (5, 60, 12, 2, {True, False}),
    (7, 20, 14, 9, {True, False, PrecisionExhausted}), (7, 24, 14, 9, {True, False, PrecisionExhausted}),
    (7, 60, 14, 9, {True, False})])
def test_hhat_outcome_is_constant_on_each_line_mod_p(p, m_work, i_max, lines, outcomes):
    # every point of the coeff_mod 1 grid at every level has the verdict, or the
    # error, of the first point of its line (the proof in in_Hhat's docstring)
    ctx = PrimeContext(p, m_work)
    grid = list(frame._coefficient_grid(ctx, 1, 10 ** 5))
    seen = set()
    for i in range(i_max + 1):
        first = {}
        for coeffs in grid:
            g = GammaCoeffs(ctx, i, coeffs, check=False)
            out = hhat_outcome(g)
            assert first.setdefault(frame._line_key(g), out) == out, (i, g.key)
            seen.add(out)
        assert len(first) == lines
    assert seen == outcomes


def reference_scan(p, i_max, coeff_mod=1, m_work=verify.SCAN_M_WORK):
    """The entries of scan_conjecture1 by a per-point loop: every grid point at
    every level builds its gamma, is tested on its own and, if a member, has its
    lambda from jacobi_exponent."""
    ctx = PrimeContext(p, m_work)
    entries = []
    for i in range(i_max + 1):
        for coeffs in frame._coefficient_grid(ctx, coeff_mod, 10 ** 5):
            g = GammaCoeffs(ctx, i, coeffs, check=False)
            member = hhat_outcome(g)
            if member is PrecisionExhausted:
                entries.append({"i": i, "coeffs": repr(g.key), "lambda": None, "exact": False,
                                "flag": "Hhat_i membership undecided at working precision; "
                                        "raise M_work"})
            elif member:
                lam = jacobi_exponent(g)
                entry = {"i": i, "coeffs": repr(g.key), "lambda": lam.value, "exact": lam.exact}
                if not lam.exact:
                    entry["flag"] = "unresolved at working precision; raise M_work"
                elif i > p - 2:
                    entry["slack"] = lam.value - (3 * i + 3 - p)
                entries.append(entry)
    return entries


SCANS = [((7, 14), {}), ((5, 12), {"m_work": 20}), ((5, 12), {"m_work": 20, "coeff_mod": 2})]
SCAN_IDS = ["scan-p7", "scan-p5-m20", "scan-p5-mod2"]


@pytest.mark.parametrize("args, kwargs", SCANS, ids=SCAN_IDS)
def test_scan_equals_the_per_point_reference(args, kwargs):
    report = verify.scan_conjecture1(*args, **kwargs)
    assert report["entries"] == reference_scan(*args, **kwargs)
    assert report["unresolved_atleast"] == sum("flag" in e for e in report["entries"])


@pytest.mark.parametrize("p, m_work, coeff_mod", [(5, 20, 1), (5, 20, 2), (7, 60, 1)])
def test_scan_grid_text_and_line_are_those_of_every_level(p, m_work, coeff_mod):
    ctx = PrimeContext(p, m_work)
    # at coeff_mod 2 each point is its own line, named by its text
    raw = list(frame._coefficient_grid(ctx, coeff_mod, 10 ** 5))
    texts, lines = verify._scan_grid(ctx, coeff_mod, 10 ** 5)
    assert len(texts) == len(lines) == len(raw) == p ** (coeff_mod * ctx.l)
    for i in (0, 9, 14):
        for coeffs, text, line in zip(raw, texts, lines):
            g = GammaCoeffs(ctx, i, coeffs, check=False)
            assert text == repr(g.key)
            assert line == (frame._line_key(g) if coeff_mod == 1 else text)
    assert len(set(lines)) == ((len(raw) - 1) // (p - 1) + 1 if coeff_mod == 1 else len(raw))


@pytest.mark.parametrize("scan, calls, raised", [
    (SCANS[0], 135, 0),
    # one call per line and level, and one per point of an undecided line: those 15 raise
    (SCANS[1], 35, 15),
    # at coeff_mod 2 each point is its own line
    (SCANS[2], 325, 75)], ids=SCAN_IDS)
def test_in_Hhat_calls_per_line(monkeypatch, scan, calls, raised):
    outcomes = []
    real = homs.in_Hhat

    def counting(g):
        outcomes.append(PrecisionExhausted)   # left in place when the call raises
        outcomes[-1] = real(g)
        return outcomes[-1]

    for module in (homs, verify):
        monkeypatch.setattr(module, "in_Hhat", counting)
    report = verify.scan_conjecture1(*scan[0], **scan[1])
    undecided = [e for e in report["entries"] if e["lambda"] is None]
    assert len(outcomes) == calls
    assert outcomes.count(PrecisionExhausted) == len(undecided) == raised


def test_lie_class_sweep_takes_the_grid_lambda(monkeypatch):
    # enumerate --p 5 --i 1 --coeff-mod 1: the grid's four gammas lie on one
    # line mod P, whose lambda is computed once; each reaches m_max = 6 > p*i,
    # so each has its Lie series swept, on a ring given that lambda
    calls = []

    def counted(g):
        calls.append(g.i)
        return jacobi_exponent(g)

    for module in (frame, liering):
        monkeypatch.setattr(module, "jacobi_exponent", counted)
    tree = enumerate_frame(PrimeContext(5, 30), 1, 6)
    assert sum(n.m == 6 for n in tree.nodes) >= 1
    assert calls == [1]
