"""Absolute and relative maximal elements of the generalized semigroup.

Run as: python demos/02_maximal_elements.py
"""

from puregaps import (
    KummerCurve,
    compositions,
    family_cardinality,
    gamma_hat_box,
    is_absolute_maximal,
    is_relative_maximal,
    lambda_hat_box,
    lambda_star,
    relative_family,
)
from puregaps.reference import translate_box

curve = KummerCurve(5, 9)
n = 3
print(f"curve (m, r) = ({curve.m}, {curve.r}), genus {curve.genus}, {n} places")
print()

# In the fundamental window (first coordinate free, others in [0, m)) there is
# exactly one maximal element per residue class i mod m, plus a residue-zero
# seed.  Absolute maximals can have a negative first coordinate.
print("absolute maximal elements in the window:", gamma_hat_box(curve, n))
print("relative maximal elements in the window:", lambda_hat_box(curve, n))
print()

# Every window element is certified by the dimension oracle.
for e in gamma_hat_box(curve, n):
    assert is_absolute_maximal(curve, e)
for e in lambda_hat_box(curve, n):
    assert is_relative_maximal(curve, e)
print("oracle certifies every window element")
print()

# The positive relative maximal set is generated from level boxes by
# zero-sum translations; its size has a binomial-weighted closed form.
family = relative_family(curve, n)
print("level boxes:", {k: family.box(k) for k in family.levels})
print("translate level 2 into the (0, 2, 0) cell:", translate_box(family, (0, 2, 0)))

star = lambda_star(curve, n)
print(f"|Lambda*| = {len(star)} = {family_cardinality(family, curve.genus)} (closed form)")

regenerated = []
for k in range(family.max_level + 1):
    for comp in compositions(k, n):
        regenerated.extend(translate_box(family, comp))
assert sorted(regenerated) == star
print("translating every level box over all compositions regenerates Lambda* exactly")
