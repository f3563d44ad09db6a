"""Form matching and quantum obstructions for two-input two-output boxes.

Three independent obstructions to quantum realizability are implemented.

* Disagreement: epistemic.detect_ccd decides common certainty of
  disagreement (CCD) and singular disagreement (SD), which no quantum box
  can produce.  The four-parameter CCD and SD table forms only describe
  the box: a valid 2x2x2x2 box carrying CCD (SD) equals the CCD (SD) form,
  and a matched form's constraints_ok is detect_ccd's answer on the box.
* Correlator gap: with perfect correlation at inputs (0,0) and (1,1), any
  quantum box must have c01 = c10; a nonzero gap c01 - c10 is therefore
  disqualifying.  Without the perfect-correlation premise the test is
  inapplicable and reports None.
* Hardy pattern: p(00|00) > 0 with p(01|11) = p(00|01) = p(10|10) = 0 is
  incompatible with locality.  Quantum boxes show the pattern too, but
  only with p(00|00) <= (5 sqrt 5 - 11)/2 ~ 0.0902 (Rabelo, Zhi and
  Scarani, PRL 109, 180401, 2012), so the pattern is an obstruction only
  above that bound, decided as (2 n + 11 den)^2 > 125 den^2, n / den = p(00|00).

classify() combines these with the exact locality LP.  The verdict is
LOCAL when the LP finds a convex decomposition, POSTQUANTUM when an
obstruction fires, and otherwise NO_OBSTRUCTION_FOUND, which deliberately
does not claim quantum realizability.  It takes any finite shape and
reduces a larger box to 2x2x2x2 first (see reduction).
"""

from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .boxes import (
    Box,
    RelabelFrame,
    _relabeled_num,
    all_frames,
    is_perfectly_correlated,
)
from .bridge import LocalityVerdict, is_local
from .errors import BudgetError, ReductionRefused, ShapeError
from .epistemic import detect_ccd
from .families import _KEYS_2222, _ccd_nums, _sd_nums
from .rationals import json_text, rat_str
from .reduction import reduce_box


class Conclusion(Enum):
    LOCAL = "LOCAL"
    POSTQUANTUM = "POSTQUANTUM"
    NO_OBSTRUCTION_FOUND = "NO_OBSTRUCTION_FOUND"


class TableForm(NamedTuple):
    kind: str  # "ccd" or "sd"
    params: tuple  # (r, s, t, u)
    constraints_ok: bool  # detect_ccd's ccd (or sd) on the matched box


class ClassificationVerdict(NamedTuple):
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


# the entries each form fixes at zero, whatever its parameters
_CCD_ZEROS = ((0, 1, 1, 1), (1, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0))
_SD_ZEROS = ((0, 1, 1, 1), (1, 0, 1, 1), (0, 0, 0, 1), (1, 0, 1, 0))
# the keys of r, s, t and u, and the form's entries as ints over D
_CCD = (((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0)), _ccd_nums)
_SD = (((0, 0, 1, 1), (0, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)), _sd_nums)


def _match_num(den, num, keys, entries):
    """(r, s, t, u) if num over den is the form at the numerators r, s, t
    and u that num holds at keys, else None (also for a 17th key)."""
    params = [num[key] for key in keys]
    if dict(zip(_KEYS_2222, entries(den, *params))) != num:
        return None
    return tuple(Fraction(n, den) for n in params)


def match_ccd_form(box: Box):
    """Match against the CCD form; None unless all 16 entries agree.

    Reads r = p(00|00), s = p(01|01), t = p(00|11), u = p(01|10) and
    compares the form's entries with the box's; constraints_ok is
    detect_ccd(box).ccd, which on the form means r > 0 and s - u != r - t.
    """
    _require_2222(box)
    params = _match_num(box.den, box.num, *_CCD)
    return TableForm("ccd", params, detect_ccd(box).ccd) if params else None


def match_sd_form(box: Box):
    """Match against the SD form: s = p(00|00), t = p(01|00), u = p(11|00),
    r = p(00|11); constraints_ok is detect_ccd(box).sd (s > 0, s + t != 0, u + t != 1)."""
    _require_2222(box)
    params = _match_num(box.den, box.num, *_SD)
    return TableForm("sd", params, detect_ccd(box).sd) if params else None


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
    n = box.num
    return n[0, 0, 0, 0] > 0 and not (n[0, 1, 1, 1] or n[0, 0, 0, 1] or n[1, 0, 1, 0])


def classify(box: Box, relabel_search: bool = False) -> ClassificationVerdict:
    """Run every obstruction and the locality LP on a box of any shape.

    A box that is not 2x2x2x2 is replaced by reduce_box(box, "auto"), a
    local post-processing that keeps quantum realizability, so a
    POSTQUANTUM verdict transfers.  A box with no disagreement to reduce
    along gets NO_OBSTRUCTION_FOUND, and local None past bridge.MAX_STATES.

    With relabel_search=True the 2x2x2x2 box is then moved through
    input/output relabelings, identity first, until one of the forms
    matches (if any does); the frame used is recorded on the verdict.
    Locality is relabeling-invariant; detect_ccd, which alone decides
    disagreement, and the other evidences read the box in the chosen frame.
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
    working, frame = box, None
    ccd, sd = _match_num(box.den, box.num, *_CCD), _match_num(box.den, box.num, *_SD)
    if relabel_search and not (ccd or sd):
        # past the identity, matched above; with no match both forms end None
        for fr in islice(all_frames(box), 1, None):
            # a frame with a nonzero entry at a zero of each form matches neither
            num = _relabeled_num(box, fr)
            if any(map(num.__getitem__, _CCD_ZEROS)) and any(map(num.__getitem__, _SD_ZEROS)):
                continue
            ccd, sd = _match_num(box.den, num, *_CCD), _match_num(box.den, num, *_SD)
            if ccd or sd:
                working, frame = Box(2, 2, 2, 2, box.den, num), fr
                break

    report = detect_ccd(working)
    ccd_form = TableForm("ccd", ccd, report.ccd) if ccd else None
    sd_form = TableForm("sd", sd, report.sd) if sd else None
    verdict: LocalityVerdict = is_local(working)
    gap = tsirelson_obstruction(working)
    hardy = hardy_pattern(working)
    n00, den = working.num[0, 0, 0, 0], working.den

    if verdict.local:
        conclusion = Conclusion.LOCAL
    elif report.ccd or report.sd or gap or (hardy and (2 * n00 + 11 * den) ** 2 > 125 * den ** 2):
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
