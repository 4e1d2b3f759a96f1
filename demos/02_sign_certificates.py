"""Sum-of-squares certificates for the derivative signs.

A certificate writes +-C_n as f times a sum of squared linear forms over
the partition basis plus a manifestly nonnegative remainder, which pins
the sign of the n-th entropy derivative.  Everything here is verified in
exact rational arithmetic.  The search at the end solves one convex Gram
problem per order and returns either a certificate or a Farkas witness
that no certificate over the partition basis exists, each checked exactly.
"""

from fractions import Fraction

from heatcalc import (
    builtin_certificate,
    check_order2_family,
    check_order3_family,
    expand_square,
    order3_family_upper_endpoint,
    search_certificate,
    square_basis,
    verify_certificate,
    verify_witness,
)

print("Partition basis (one entry per integer partition of n):")
for n in (2, 3, 4):
    print(f"  n={n}:", ", ".join(str(m) for m in square_basis(n)))
print()

for n in (3, 4):
    cert = builtin_certificate(n)
    ok, _ = verify_certificate(cert)
    rel = "nonnegative" if cert.sign > 0 else "nonpositive"
    print(f"Order {n} ({rel} derivative): exact verification -> {ok}")
    for i, sq in enumerate(cert.squares):
        print(f"  square {i}: coefficients", [str(c) for c in sq.vector()])
        print(f"    expands to {expand_square(sq)}")
    print(f"  remainder: {cert.remainder}")
    print()

print("One-parameter family at order 3: feasible iff both remainder")
print("coefficients are nonnegative.")
for beta in (Fraction(1, 3), Fraction(17, 50), Fraction(1, 2)):
    ok, coeffs = check_order3_family(beta)
    print(f"  beta = {beta}: coefficients {tuple(str(c) for c in coeffs)} -> {ok}")
endpoint = order3_family_upper_endpoint()
print(f"  exact upper endpoint: ({endpoint.a}) + ({endpoint.b})*sqrt(94) = {float(endpoint):.6f}")
print()

print("Two-parameter family at order 2 (alpha, beta, gamma):")
for params in ((1, -1, 0), (1, Fraction(-1, 3), 0), (1, Fraction(-1, 4), 0)):
    print(f"  {params}: feasible -> {check_order2_family(*params)}")
print()

print("Gram search (barrier phase I, exact rounding, exact checks):")
outcome = search_certificate(3)
ok, _ = verify_certificate(outcome.certificate)
print(f"  order 3 from scratch: Gram margin t* {outcome.margin:.3e}, exact verification -> {ok}")
for sq in outcome.certificate.squares:
    print(f"  weight {sq.weight}: square", [str(c) for c in sq.vector()])
outcome = search_certificate(5)
print(f"  order 5: Gram margin t* {outcome.margin:.3e}, no certificate")
print(f"  Farkas witness over {len(outcome.witness)} canonical slots, exact check -> "
      f"{verify_witness(5, outcome.witness)}")
print("  (no sum of squares over the partition basis certifies the order-5 sign)")
