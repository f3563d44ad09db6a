"""Form matching and quantum obstructions for two-input two-output boxes.

Three independent obstructions to quantum realizability are implemented.

* Form matching: a box carrying common certainty of disagreement must
  equal the four-parameter CCD form, and one carrying singular
  disagreement the SD form; when the caption constraints hold on the
  matched parameters, no quantum box can produce the disagreement, so the
  box itself cannot be quantum.
* Correlator gap: with perfect correlation at inputs (0,0) and (1,1), any
  quantum box must have c01 = c10; a nonzero gap c01 - c10 is therefore
  disqualifying.  Without the perfect-correlation premise the test is
  inapplicable and reports None.
* Hardy pattern: p(00|00) > 0 with p(01|11) = p(00|01) = p(10|10) = 0 is
  incompatible with locality.  Quantum boxes show the pattern too, but
  only with p(00|00) <= (5 sqrt 5 - 11)/2 ~ 0.0902 (Rabelo, Zhi and
  Scarani, PRL 109, 180401, 2012), so the pattern is an obstruction only
  above that bound, decided exactly as (2 p(00|00) + 11)^2 > 125.

classify() combines these with the exact locality LP.  The verdict is
LOCAL when the LP finds a convex decomposition, POSTQUANTUM when an
obstruction fires, and otherwise NO_OBSTRUCTION_FOUND, which deliberately
does not claim quantum realizability.  It takes any finite shape and
reduces a larger box to 2x2x2x2 first (see reduction).
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .boxes import (
    Box,
    RelabelFrame,
    all_frames,
    is_perfectly_correlated,
    relabel,
)
from .bridge import LocalityVerdict, is_local
from .errors import BudgetError, ReductionRefused, ShapeError
from .families import caption_violations, ccd_table_box, sd_table_box
from .rationals import json_text, rat_str
from .reduction import reduce_box


class Conclusion(Enum):
    LOCAL = "LOCAL"
    POSTQUANTUM = "POSTQUANTUM"
    NO_OBSTRUCTION_FOUND = "NO_OBSTRUCTION_FOUND"


@dataclass(frozen=True)
class TableForm:
    kind: str  # "ccd" or "sd"
    params: tuple  # (r, s, t, u)
    constraints_ok: bool


@dataclass(frozen=True)
class ClassificationVerdict:
    local: bool  # None when the shape exceeds bridge.MAX_STATES
    ccd_form: TableForm
    sd_form: TableForm
    tsirelson_gap: Fraction  # None when the premise fails
    hardy: bool  # the zero pattern alone; quantum boxes can show it too
    conclusion: Conclusion
    frame: RelabelFrame = None  # set when a relabel search moved the box


def _require_2222(box: Box):
    if (box.nA, box.nB, box.nX, box.nY) != (2, 2, 2, 2):
        raise ShapeError("operation defined for the 2x2x2x2 shape only")


def match_ccd_form(box: Box):
    """Match against the CCD form; None unless all 16 entries agree.

    Reads r = p(00|00), s = p(01|01), t = p(00|11), u = p(01|10) and
    rebuilds the form; constraints_ok additionally requires the caption
    constraints, among them r > 0 and s - u != r - t.
    """
    _require_2222(box)
    r = box.p(0, 0, 0, 0)
    s = box.p(0, 1, 0, 1)
    t = box.p(0, 0, 1, 1)
    u = box.p(0, 1, 1, 0)
    if ccd_table_box(r, s, t, u) != box:
        return None
    ok = not caption_violations("ccd", r, s, t, u)
    return TableForm("ccd", (r, s, t, u), ok)


def match_sd_form(box: Box):
    """Match against the SD form: s = p(00|00), t = p(01|00),
    u = p(11|00), r = p(00|11)."""
    _require_2222(box)
    s = box.p(0, 0, 0, 0)
    t = box.p(0, 1, 0, 0)
    u = box.p(1, 1, 0, 0)
    r = box.p(0, 0, 1, 1)
    if sd_table_box(r, s, t, u) != box:
        return None
    ok = not caption_violations("sd", r, s, t, u)
    return TableForm("sd", (r, s, t, u), ok)


def tsirelson_obstruction(box: Box):
    """c01 - c10, or None when perfect correlation at (0,0) and (1,1) fails.

    The premise matters: only under both perfect correlations does a
    quantum box force c01 = c10, so the gap is only evidence when it
    applies.  For a matched CCD form the gap equals 4((r-t) - (s-u)).
    """
    if (box.nA, box.nB) != (2, 2) or box.nX < 2 or box.nY < 2:
        raise ShapeError("gap test needs binary outputs and two inputs per party")
    if not (is_perfectly_correlated(box, 0, 0) and is_perfectly_correlated(box, 1, 1)):
        return None
    # (agree - differ) at (0, 1) minus the same at (1, 0), over den
    n = box.num
    gap = (n[0, 0, 0, 1] + n[1, 1, 0, 1] - n[0, 1, 0, 1] - n[1, 0, 0, 1]
           - n[0, 0, 1, 0] - n[1, 1, 1, 0] + n[0, 1, 1, 0] + n[1, 0, 1, 0])
    return Fraction(gap, box.den)


def hardy_pattern(box: Box) -> bool:
    _require_2222(box)
    return (
        box.p(0, 0, 0, 0) > 0
        and box.p(0, 1, 1, 1) == 0
        and box.p(0, 0, 0, 1) == 0
        and box.p(1, 0, 1, 0) == 0
    )


def classify(box: Box, relabel_search: bool = False) -> ClassificationVerdict:
    """Run every obstruction and the locality LP on a box of any shape.

    A box that is not 2x2x2x2 is replaced by reduce_box(box, "auto"), a
    local post-processing that keeps quantum realizability, so a
    POSTQUANTUM verdict transfers.  A box with no disagreement to reduce
    along gets NO_OBSTRUCTION_FOUND, and local None past bridge.MAX_STATES.

    With relabel_search=True the 2x2x2x2 box is then moved through
    input/output relabelings, identity first, until one of the forms
    matches (if any does); the frame used is recorded on the verdict.
    Locality is relabeling-invariant, the other evidences are reported in
    the chosen frame.
    """
    if (box.nA, box.nB, box.nX, box.nY) != (2, 2, 2, 2):
        try:
            box, _ = reduce_box(box, "auto")
        except (ReductionRefused, ShapeError):
            try:
                local = is_local(box).local
            except BudgetError:
                local = None
            return ClassificationVerdict(
                local, None, None, None, False, Conclusion.NO_OBSTRUCTION_FOUND
            )
    working = box
    frame = None
    if relabel_search:
        for fr in all_frames(box):
            candidate = relabel(box, fr)
            if match_ccd_form(candidate) or match_sd_form(candidate):
                working = candidate
                frame = None if fr.is_identity() else fr
                break

    verdict: LocalityVerdict = is_local(working)
    ccd_form = match_ccd_form(working)
    sd_form = match_sd_form(working)
    gap = tsirelson_obstruction(working)
    hardy = hardy_pattern(working)

    if verdict.local:
        conclusion = Conclusion.LOCAL
    elif (
        (ccd_form is not None and ccd_form.constraints_ok)
        or (sd_form is not None and sd_form.constraints_ok)
        or (gap is not None and gap != 0)
        or (hardy and (2 * working.p(0, 0, 0, 0) + 11) ** 2 > 125)
    ):
        conclusion = Conclusion.POSTQUANTUM
    else:
        conclusion = Conclusion.NO_OBSTRUCTION_FOUND
    return ClassificationVerdict(
        verdict.local, ccd_form, sd_form, gap, hardy, conclusion, frame
    )


def _form_doc(form: TableForm):
    if form is None:
        return None
    r, s, t, u = form.params
    return {
        "kind": form.kind,
        "params": {"r": rat_str(r), "s": rat_str(s), "t": rat_str(t), "u": rat_str(u)},
        "constraints_ok": form.constraints_ok,
    }


def verdict_doc(verdict: ClassificationVerdict) -> dict:
    doc = {
        "local": verdict.local,
        "ccd_form": _form_doc(verdict.ccd_form),
        "sd_form": _form_doc(verdict.sd_form),
        "tsirelson_gap": (
            rat_str(verdict.tsirelson_gap) if verdict.tsirelson_gap is not None else None
        ),
        "hardy": verdict.hardy,
        "conclusion": verdict.conclusion.value,
    }
    if verdict.frame is not None:
        doc["frame"] = {
            "sigma_x": list(verdict.frame.sigma_x),
            "sigma_y": list(verdict.frame.sigma_y),
            "pi_a": [list(p) for p in verdict.frame.pi_a],
            "pi_b": [list(p) for p in verdict.frame.pi_b],
        }
    return doc


def verdict_to_json(verdict: ClassificationVerdict) -> str:
    return json_text(verdict_doc(verdict))
