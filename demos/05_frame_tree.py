#!/usr/bin/env python3
# The semidirect products S_(i,m) and the frame tree over a coefficient grid.
from maxclass import (
    GammaCoeffs, LieRingSpec, PrimeContext, SGroup, classify, enumerate_frame,
    is_maximal_class_chain, jacobi_exponent, quotient_edge, s_group_lcs,
)

ctx = PrimeContext(5, 40)
i = 7
g = GammaCoeffs.from_integers(ctx, i, [1])
lam = jacobi_exponent(g)

# S_(i,m) extends the Lazard group by the cyclic group acting through theta;
# its order is p^(m-i+1) and it always has maximal class
group = SGroup(LieRingSpec(g, 18, lam=lam))
print("order exponent:", group.order_exp)
# maximal class: the central series exponents step by exactly one
prof = s_group_lcs(group)
print("central series exponents:", list(prof.exponents))
print("maximal class:", is_maximal_class_chain(prof))

# the generator of the theta-factor has order p
pg = group.p_generator()
print("(0,1)^5 is the identity:", group.power(pg, 5).is_identity())

# commutation with the theta-generator raises the valuation by exactly one
e = group.element(ctx.kappa_power(9), 0)
print("commutator valuation:", group.commutator(e, pg).g.valuation())

# mainline vertices are the truncations m <= 2i+1, branch vertices sit above
for m in (15, 16):
    print(f"m={m}:", classify(i, m))

# truncating one level is a surjective homomorphism with central kernel
target, project = quotient_edge(group)
x = group.element(ctx.kappa_power(8), 2)
y = group.element(ctx.kappa_power(7) + ctx.kappa_power(11), 4)
print("truncation is multiplicative:",
      project(group.multiply(x, y)) == target.multiply(project(x), project(y)))

# sweep the coefficient grid mod P and assemble the tree: vertices merge only
# under certified isomorphism moves, so counts bound the isomorphism types
tree = enumerate_frame(ctx, i, 20, coeff_mod=1, budget=10 ** 6)
print("vertices:", len(tree.nodes), " edges:", len(tree.edges),
      " certified merges:", len(tree.merged_by))
per_level = {}
for n in tree.nodes:
    per_level[n.m] = per_level.get(n.m, 0) + 1
print("vertices per level:", per_level)
print(tree.to_dot())
