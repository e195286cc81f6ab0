#!/usr/bin/env python3
# Groups from Lie rings: truncated BCH products through the nilpotency class.
from maxclass import (
    GammaCoeffs, LieRingSpec, PrimeContext, bch_multiply, build_bch_table,
    group_commutator, group_commutator_closed3, group_lcs, jacobi_exponent,
    lcs_profile, theta_power_map,
)

# the BCH table ships as data through degree 8 and can be regenerated;
# degree <= 3 is the familiar a + b + [a,b]/2 + ([a,[a,b]] + [b,[b,a]])/12
table = build_bch_table(3, p=5)
for deg, terms in table.terms.items():
    print(f"degree {deg}:", [(t, str(c)) for t, c in terms])

ctx = PrimeContext(5, 44)
g = GammaCoeffs.from_integers(ctx, 7, [1])
lam = jacobi_exponent(g)
spec = LieRingSpec(g, lam.value, lam=lam)   # class 3
print("ring class:", spec.nilpotency_class)

x = spec.element(ctx.kappa_power(7))
y = spec.element(ctx.kappa_power(8) + ctx.kappa_power(10) * 2)

# group laws
print("x o 0 == x:    ", bch_multiply(x, spec.zero(), table) == x)
print("x o (-x) == 0: ", bch_multiply(x, -x, table).is_zero())
xy = bch_multiply(x, y, table)
print("x o y != x + y:", xy != x + y)            # class 3: brackets contribute

# powers in the group are scalar multiples in the ring
x3 = bch_multiply(bch_multiply(x, x, table), x, table)
print("x o x o x == 3x:", x3 == x * 3)

# the group commutator composed from products agrees with the closed
# class-3 formula [a,b] + ([b,[b,a]] - [a,[a,b]])/2
c1 = group_commutator(x, y, table)
c2 = group_commutator_closed3(x, y)
print("commutator two ways agree:", c1 == c2)

# multiplication by theta is an automorphism of both structures
print("theta respects products:",
      theta_power_map(xy, 1)
      == bch_multiply(theta_power_map(x, 1), theta_power_map(y, 1), table))

# the lower central series of the group and of the ring coincide
print("group lcs:", list(group_lcs(spec, table).exponents))
print("ring  lcs:", list(lcs_profile(spec).exponents))
