"""
Aumann's theorem in its finite, certainty-only form: two agents share a
prior over a finite state space and each learns the cell of their own
partition containing the true state.  If it is common certainty that
Alice assigns probability qA to an event and Bob assigns qB to a
(perfectly correlated) event, then qA = qB.

The tower construction below is the proof made executable, and
verify_agreement_theorem() simply tries every small model: every
rational measure with a bounded denominator, every pair of partitions,
every pair of correlated events, every candidate pair of values.
"""

from fractions import Fraction as F

import agreebox as ab

# Four states, uniform prior.  Alice learns "low or high half", Bob
# learns "even or odd"; the event is {0, 3}.
model = ab.make_model(
    [F(1, 4)] * 4,
    {0: [{0, 1}, {2, 3}]},
    {0: [{0, 2}, {1, 3}]},
)
events = ab.EventPair(frozenset({0, 3}), frozenset({0, 3}))
print(f"perfectly correlated events: {ab.perfectly_correlated(model, events)}")

result = ab.tower(model, events, F(1, 2), F(1, 2))
print(f"certainty tower levels: {result.levels}")
print(f"stabilizes at N = {result.N}, A_N = {sorted(result.A_N)}")
print(f"common certainty of the pair (1/2, 1/2) at state 0: "
      f"{ab.common_certainty_at(model, events, F(1, 2), F(1, 2), 0)}")

# Try to be commonly certain of unequal values instead: the tower dies.
result = ab.tower(model, events, F(1, 2), F(1, 4))
print(f"asking for qB = 1/4 instead: A_N = {sorted(result.A_N)} (empty)")

# Exhaustive check over all models with up to 3 states and measure
# denominators up to 2: every instance of common certainty has qA = qB.
report = ab.verify_agreement_theorem(3, 2)
print(f"\nexhaustive search, |states| <= {report.bound_omega}, "
      f"denominators <= {report.denominator_bound}:")
print(f"  candidate instances:        {report.instances}")
print(f"  reaching common certainty:  {report.certainty_instances}")
print(f"  with unequal values:        {report.violations}")
print(f"  deepest tower iteration:    {report.max_iterations}")
print("  (the deepest tower is 1 if m = min(|states|, denominator) is 1, 3 if m is 2 or 3, else m)")
