#!/usr/bin/env python3
# The equivariant homomorphisms theta_a and their coefficient coordinates.
from maxclass import (
    GammaCoeffs, PrimeContext, Valuation, epsilon, gamma_eval,
    images_to_coeffs, in_Hhat, min_probe_valuation, o_a, theta_a_eval,
    vandermonde,
)

ctx = PrimeContext(7, 44)

# theta_a(x ^ y) = sigma_a(x) sigma_{1-a}(y) - sigma_{1-a}(x) sigma_a(y)
x = ctx.kappa_power(3)
y = ctx.kappa_power(5)
print("antisymmetric:", theta_a_eval(2, x, x).is_zero())

# image valuations follow the epsilon rule: v = i + j + 1 exactly when
# the order of a(1-a)^{-1} divides i - j
for a in (2, 3):
    print(f"order of a(1-a)^^-1 for a={a}:", o_a(7, a))
for (a, i, j) in [(2, 4, 4), (2, 5, 4), (3, 6, 3), (3, 5, 3)]:
    vals = [theta_a_eval(a, ctx.theta(h) * ctx.kappa_power(i), ctx.kappa_power(j)).valuation()
            for h in range(6)]
    got = Valuation.minimum(vals)
    print(f"a={a} i={i} j={j}: min image valuation {got}, "
          f"rule gives {i + j + epsilon(7, a, i, j)}")

# a general homomorphism is a coefficient vector (c_2, ..., c_{(p-1)/2});
# it carries its level i, and surjectivity onto P^{2i+1} is the Vandermonde criterion
i = 5
g = GammaCoeffs.from_integers(ctx, i, [4, 1])
print("in Hhat_5:", in_Hhat(g))
print("probe valuation:", min_probe_valuation(g), " (2i+1 =", 2 * i + 1, ")")

# the diagonal matrix entries are units and the u_a sit at valuation 2
vd = vandermonde(ctx, i)
print("V diagonal valuations:", [str(v.valuation()) for v in vd.V_diag])
print("u_a valuations:       ", [str(u.valuation()) for u in vd.u])

# a homomorphism is determined by its probe-wedge images; inverting the
# Vandermonde system recovers the coefficients exactly
probes = [(ctx.kappa_power(i + j), ctx.kappa_power(i + j - 1)) for j in (1, 2)]
images = [gamma_eval(g, a, b) for a, b in probes]
g2 = images_to_coeffs(ctx, i, images)
round_trip = all(
    gamma_eval(g2, a, b).reduce_to(30) == im.reduce_to(30)
    for (a, b), im in zip(probes, images))
print("images -> coefficients -> images round trip:", round_trip)
