"""
A bipartite box is the conditional distribution p(ab|xy) of two parties'
outputs given their freely chosen inputs.  The no-signaling conditions
say that Alice's marginal cannot depend on Bob's input and vice versa;
they are what makes "Bob's belief about Alice's output" well defined
before anyone communicates.

This script builds a few boxes with exact rational entries, validates
them, and reads off the quantities everything else in the package is
built from: conditional probabilities, perfect correlation, and the
four correlators c_xy = p(a=b|xy) - p(a!=b|xy).
"""

from fractions import Fraction as F

import agreebox as ab

# The Popescu-Rohrlich box: perfectly correlated except when x=0, y=1.
pr = ab.pr_box()
print("PR box, row by row (p00 p01 p10 p11):")
for x in range(2):
    for y in range(2):
        row = [str(pr.p(a, b, x, y)) for a in range(2) for b in range(2)]
        print(f"  x={x} y={y}:  {'  '.join(row)}")

result = ab.validate(pr)
print(f"valid no-signaling box: {result.ok}")

print(f"correlators: {ab.correlators(pr)}")
print(f"perfectly correlated at (1,1): {ab.is_perfectly_correlated(pr, 1, 1)}")

# The two conditionals the agreement analysis revolves around:
# Alice's belief about Bob's output-1 and Bob's belief about Alice's.
qA = ab.conditional(pr, ("B", 1), (0, 0, 1))
qB = ab.conditional(pr, ("A", 1), (0, 1, 0))
print(f"qA = p(b=1 | a=0, x=0, y=1) = {qA}")
print(f"qB = p(a=1 | b=0, x=1, y=0) = {qB}")

# A signaling table fails validation with a pinpointed reason.
bad = ab.box_from_rows({
    (0, 0): [F(1), F(0), F(0), F(0)],
    (0, 1): [F(1), F(0), F(0), F(0)],
    (1, 0): [F(0), F(1), F(0), F(0)],
    (1, 1): [F(0), F(1), F(0), F(0)],
})
print(f"Bob echoing Alice's input: valid = {ab.validate(bad).ok}")
for violation in ab.validate(bad).violations:
    print(f"  {violation}")

# Relabeling inputs and outputs moves boxes between equivalent frames.
frame = ab.RelabelFrame((1, 0), (0, 1), ((0, 1), (0, 1)), ((0, 1), (0, 1)))
swapped = ab.relabel(pr, frame)
print(f"swap Alice's inputs, still valid: {ab.validate(swapped).ok}")
print(f"frames on a 2x2 box: {len(list(ab.all_frames(pr)))}")

# Boxes serialize to JSON with exact fractions and decimal annotations.
print("JSON roundtrip is exact:", ab.box_from_json(ab.box_to_json(pr)) == pr)
