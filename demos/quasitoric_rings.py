"""Cohomology rings of quasitoric manifolds over small polytopes.

A characteristic matrix turns a simple polytope into a manifold; the field
cohomology is the face ring of the dual complex modulo the matrix's linear
forms.  Dimensions are forced by the h-vector; the ring structure is not.

Run:  python demos/quasitoric_rings.py
"""

from torictop import (
    CharacteristicMatrix,
    cohomology_ring,
    generalized_bott,
    h_vector_of,
    polygon_polytope,
    power_map_scalars,
    simplex_polytope,
    squaring_kernel,
    validate_characteristic,
)

print("== complex projective plane ==")
P = simplex_polytope(2)
lam = CharacteristicMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
print("  admissible:", validate_characteristic(P, lam).valid)
pres = cohomology_ring(P, lam, "F2")
print("  dims by half-degree:", pres.dims_even(), " h-vector:", h_vector_of(P).entries)
print("  generator names:", pres.h2_labels())
print("  squaring H^2 -> H^4:", pres.squaring_cols, " (x^2 is the top class)")
print("  degree-u self-map acts by:", power_map_scalars(pres, 2))

print()
print("== product of two projective lines ==")
sq = polygon_polytope(4)
lam2 = CharacteristicMatrix.from_rows([[1, 0, -1, 0], [0, 1, 0, -1]])
pres2 = cohomology_ring(sq, lam2, "F2")
print("  dims:", pres2.dims_even())
print("  both degree-2 generators square to zero:", pres2.squaring_cols)
print("  kernel verdict:", squaring_kernel(pres2).conclusion)

print()
print("== a twisted tower over the 3-cube ==")
P3, lam3 = generalized_bott([1, 1, 1], [[], [[1]], [[1], [1]]])
pres3 = cohomology_ring(P3, lam3, "F2")
print("  dims:", pres3.dims_even())
print("  squaring H^2 -> H^4:", pres3.squaring_cols)
verdict = squaring_kernel(pres3)
print("  kernel verdict:", verdict.conclusion, verdict.witness)

print()
print("== an invalid matrix is caught by an exact determinant ==")
bad = CharacteristicMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 2]])
print("  report:", validate_characteristic(sq, bad))
