"""Certainty hierarchies and disagreement detection for boxes.

The two parties observe outputs at inputs x = 0 and y = 0 and reason about
the events "Bob outputs 1 at y = 1" and "Alice outputs 1 at x = 1".  Their
respective probability assignments, conditioned on their own outputs, are

    qA = p(b=1 | a=0, x=0, y=1),
    qB = p(a=1 | b=0, x=1, y=0).

The certainty hierarchy captures iterated certainty about these values:

    alpha_0 = outputs a with p(a|x=0) > 0 and p(b=1|a, x=0, y=1) = qA,
    beta_0  symmetric for Bob,
    alpha_{n+1} = { a in alpha_n : p(b in beta_n | a, x=0, y=0) = 1 },
    beta_{n+1}  symmetric,

with both sides updated simultaneously.  The sequence stabilizes after at
most nA + nB proper shrinks; N is the first index where both sides repeat.

Common certainty of disagreement (CCD) holds when qA and qB are defined
and different, the box is perfectly correlated at (1, 1), the witness
event (a=0, b=0, x=0, y=0) has positive probability, and output 0 survives
to alpha_N and beta_N.  Singular disagreement (SD) is the extremal,
tower-free variant: qA = 1 and qB = 0 outright.
"""

from dataclasses import dataclass
from fractions import Fraction

from .boxes import Box, conditional, is_perfectly_correlated
from .errors import ShapeError
from .rationals import json_text, rat_str

NULL_CONDITIONING = "null conditioning event"


@dataclass(frozen=True)
class CertaintyHierarchy:
    """Levels alpha_0 .. alpha_{N+1} (and beta likewise) as sorted tuples."""

    alphas: tuple
    betas: tuple
    N: int
    qA: Fraction | None  # None when the conditioning event is null
    qB: Fraction | None

    @property
    def alpha_N(self):
        return self.alphas[self.N]

    @property
    def beta_N(self):
        return self.betas[self.N]


@dataclass(frozen=True)
class DisagreementReport:
    hierarchy: CertaintyHierarchy
    ccd: bool
    sd: bool
    witness: tuple  # the event (a, b, x, y) the detection is anchored to
    perfectly_correlated: bool
    reason: str = ""


def hierarchy(box: Box, qA, qB) -> CertaintyHierarchy:
    """Compute the certainty hierarchy for externally supplied qA, qB.

    qA and qB may be rationals or None; None (an undefined value) yields
    an empty level-0 set, as no output can be certain of it.  Outputs
    whose own marginal at the observation input is zero are excluded from
    level 0 rather than treated as vacuously certain.
    """
    nA, nB, num = box.nA, box.nB, box.num
    # every probe compares integer numerators with a nonzero marginal:
    # p(b=1|a, x=0, y=1) = qA iff num[a,1,0,1] * den(qA) = marg * num(qA)
    alpha = beta = ()
    if qA is not None:
        if nB < 2 or box.nY < 2:
            raise ShapeError("qA is probed at output b = 1 of inputs x = 0, y = 1")
        qA = Fraction(qA)
        n, d = qA.numerator, qA.denominator
        alpha = tuple(a for a in range(nA)
                      if (marg := box._num_a(a, 0, 1)) and num[a, 1, 0, 1] * d == marg * n)
    if qB is not None:
        if nA < 2 or box.nX < 2:
            raise ShapeError("qB is probed at output a = 1 of inputs x = 1, y = 0")
        qB = Fraction(qB)
        n, d = qB.numerator, qB.denominator
        beta = tuple(b for b in range(nB)
                     if (marg := box._num_b(b, 1, 0)) and num[1, b, 1, 0] * d == marg * n)

    # a is certain of the other side's set at level n when, at x = y = 0, the
    # set's mass given a is the whole nonzero marginal of a
    alphas = [alpha]
    betas = [beta]
    while True:
        cur_a, cur_b = alphas[-1], betas[-1]
        next_a = tuple(a for a in cur_a if (marg := box._num_a(a, 0, 0))
                       and sum(num[a, b, 0, 0] for b in cur_b) == marg)
        next_b = tuple(b for b in cur_b if (marg := box._num_b(b, 0, 0))
                       and sum(num[a, b, 0, 0] for a in cur_a) == marg)
        alphas.append(next_a)
        betas.append(next_b)
        if next_a == cur_a and next_b == cur_b:
            break
    return CertaintyHierarchy(tuple(alphas), tuple(betas), len(alphas) - 2, qA, qB)


def detect_ccd(box: Box) -> DisagreementReport:
    """Full disagreement report.

    The ccd and sd fields answer the two questions; hierarchy.N is the
    mutual certainty depth, the smallest N with alpha_N = alpha_{N+1} and
    beta_N = beta_{N+1} (two-output boxes always stabilize by level 1).
    """
    if min(box.nA, box.nB, box.nX, box.nY) < 2:
        raise ShapeError("disagreement analysis needs two outputs and inputs per party")
    qA = conditional(box, ("B", 1), (0, 0, 1))
    qB = conditional(box, ("A", 1), (0, 1, 0))
    h = hierarchy(box, qA, qB)
    corr = is_perfectly_correlated(box, 1, 1)
    witness_mass = box.num[(0, 0, 0, 0)]

    reason = ""
    if qA is None or qB is None:
        reason = NULL_CONDITIONING
        return DisagreementReport(h, False, False, (0, 0, 0, 0), corr, reason)

    ccd = (
        corr
        and qA != qB
        and witness_mass > 0
        and 0 in h.alpha_N
        and 0 in h.beta_N
    )
    sd = corr and qA == 1 and qB == 0 and witness_mass > 0
    return DisagreementReport(h, ccd, sd, (0, 0, 0, 0), corr, reason)


def report_doc(report: DisagreementReport) -> dict:
    h = report.hierarchy
    return {
        "qA": rat_str(h.qA) if h.qA is not None else None,
        "qB": rat_str(h.qB) if h.qB is not None else None,
        "ccd": report.ccd,
        "sd": report.sd,
        "depth": h.N,
        "alphaN": list(h.alpha_N),
        "betaN": list(h.beta_N),
        "reason": report.reason,
    }


def report_to_json(report: DisagreementReport) -> str:
    return json_text(report_doc(report))
