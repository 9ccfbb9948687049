"""Three independent routes to the pure gap set, and the exact counts.

Run as: python demos/03_pure_gaps.py
"""

from itertools import islice

from puregaps import (
    KummerCurve,
    b_k,
    max_level,
    plot_data,
    pure_gap_box_scan,
    pure_gap_count,
    pure_gaps,
    pure_gaps_from_family,
    relative_family,
    union_count,
)

# Small curve first: every route is cheap enough to compare directly.
small = KummerCurve(3, 4)
enumerated = list(pure_gaps(small, 2))
via_glb = pure_gaps_from_family(relative_family(small, 2))
via_oracle = pure_gap_box_scan(small, 2)
print("pure gaps of the (3, 4) curve at two places:")
print("  closed-form enumeration:", enumerated)
print("  glb of relative maximals:", via_glb)
print("  exhaustive ell-oracle scan:", via_oracle)
assert enumerated == via_glb == via_oracle
print()

# The showcase curve: genus 16, three places.
curve = KummerCurve(5, 9)
n = 3
print(f"curve (m, r) = (5, 9), {n} places, genus {curve.genus}")
for k in range(max_level(curve, n) + 1):
    box = b_k(curve, n, k)
    print(f"  level {k}: offset bounds {box.bounds}, |cell| = {union_count(box.bounds)}")
print("total pure gaps:", pure_gap_count(curve, n))
print("first eight in lex order:", list(islice(pure_gaps(curve, n), 8)))
print()

# The plot payload lists every side-m cube of the diagram with its count.
data = plot_data(curve)
levels = sorted({c.level for c in data.cubes})
print("cube inventory:", {k: sum(1 for c in data.cubes if c.level == k) for k in levels})
assert sum(c.count for c in data.cubes) == 382
print("cube counts sum to", sum(c.count for c in data.cubes))
