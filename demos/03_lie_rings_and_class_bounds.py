#!/usr/bin/env python3
# Lie rings on the ideal quotients: the Jacobi ideal caps the truncation.
from maxclass import (
    GammaCoeffs, LieRingSpec, PrimeContext, check_class_bounds,
    jacobi_exponent, jacobiator,
)

ctx = PrimeContext(5, 44)
i = 7
g = GammaCoeffs.from_integers(ctx, i, [1])

# the Jacobiator of the bracket gamma(x ^ y) generates the ideal P^lambda
x, y, z = ctx.kappa_power(7), ctx.kappa_power(8), ctx.kappa_power(9)
print("a sample Jacobiator valuation:", jacobiator(g, x, y, z).valuation())
lam = jacobi_exponent(g)
print("lambda =", lam, " lower bound 3i+3-p =", 3 * i + 3 - 5)

# quotients P^i/P^m are Lie rings for every m <= lambda; the ring takes i from gamma
spec = LieRingSpec(g, lam.value)
prof = spec.lcs_profile()
print("lower central series exponents:", list(prof.exponents))
print("class:", prof.nilpotency_class)

# the bracket is bilinear, alternating, theta-compatible, and satisfies
# Jacobi modulo P^m; sanity-check one triple
b = spec.basis()
jac = (b[0].bracket(b[1].bracket(b[2]))
       + b[1].bracket(b[2].bracket(b[0]))
       + b[2].bracket(b[0].bracket(b[1])))
print("Jacobi identity holds mod P^m:", jac.is_zero())

# truncating below the derived subring exponent 2i+1 gives an abelian ring
print("class of the m=2i+1 truncation:",
      LieRingSpec(g, 2 * i + 1).lcs_profile().nilpotency_class)

# the class-bound report compares the computed class with every bound
rep = check_class_bounds(spec)
print("report:", {k: rep[k] for k in ("i", "lambda", "class", "violations")})
print("general bound 3 + (2p-8)/(i-(p-2)) =", rep["bounds"]["general"], "(exact fraction)")

# the shift i -> i+(p-1) moves lambda by exactly 3(p-1)
g2 = GammaCoeffs.from_integers(ctx, i + 4, [1])
print("lambda at i+4:", jacobi_exponent(g2), "=", lam.value, "+ 12")
