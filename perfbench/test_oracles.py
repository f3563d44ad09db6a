"""Each oracle must pass the program's real answers and catch a wrong one.

    python3 -m pytest -q perfbench

Every test makes one real call, checks that its output passes, then
corrupts one part of the output and checks that the oracle reports it.
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as o  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def loaded(cls, tmp_path):
    wl = cls(tmp_path)
    wl.load()
    return wl


def first(wl, pred, seed=3):
    return next(item for item in wl.items(seed) if pred(item))


def answer(wl, item):
    wl.prepare(item)
    out = wl.call(item)
    assert wl.check(item, out).errors == []
    return out


def caught(wl, item, out):
    return wl.check(item, out).errors != []


# ---------------------------------------------------------------------------
# the oracles on their own

def test_fine_theorem_separates_pr_from_local_boxes():
    assert not o.fine_local(W.PR)
    uniform = o.raw_from_rows({(x, y): [Fraction(1, 4)] * 4 for x in range(2) for y in range(2)})
    assert o.fine_local(uniform)
    assert o.fine_local(o.resum([(((0, 1), (1, 1)), Fraction(1))], (2, 2, 2, 2)))


def test_ns_violations_catch_signaling_and_bad_sums():
    assert o.ns_violations(W.PR) == []
    signaling = o.raw_from_rows({(0, 0): [1, 0, 0, 0], (0, 1): [0, 0, 1, 0],
                                 (1, 0): [1, 0, 0, 0], (1, 1): [1, 0, 0, 0]})
    assert any("signals" in v for v in o.ns_violations(signaling))
    p = dict(W.PR.p)
    p[(0, 0, 0, 0)] += 1
    assert o.ns_violations(W.PR._replace(p=p))


def test_hierarchy_matches_the_captions_on_a_grid():
    axis = [Fraction(k, 4) for k in range(5)]
    for family in ("ccd", "sd"):
        for params in ((r, s, t, u) for r in axis for s in axis for t in axis for u in axis):
            raw = o.family_raw(family, *params)
            if not o.ns_violations(raw):
                h = o.hierarchy(raw)
                assert (h.ccd if family == "ccd" else h.sd) == o.caption_ok(family, *params)


def test_lifts_keep_locality_and_validity():
    import random

    rng = random.Random(1)
    for shape in W.SMALL_SHAPES + W.BIG_SHAPES:
        lifted = W.lift(rng, W.PR, shape)
        assert lifted.shape == shape and o.ns_violations(lifted) == []


# ---------------------------------------------------------------------------
# sweep-2222

def _with_rows(out, edit):
    code, stdout, stderr = out
    lines = stdout.splitlines()
    return code, "\n".join(edit(lines)) + "\n", stderr


def _edit_row(lines, column, new):
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = new
    return [lines[0], ",".join(row)] + lines[2:]


def test_sweep_oracle_catches_flipped_verdicts(tmp_path):
    wl = loaded(W.Sweep, tmp_path)
    item = first(wl, lambda i: i.family == "ccd")
    out = answer(wl, item)
    header = out[1].splitlines()[0].split(",")
    row = out[1].splitlines()[1].split(",")
    for column in ("local", "ccd", "sd"):
        flipped = "false" if row[header.index(column)] == "true" else "true"
        assert caught(wl, item, _with_rows(out, lambda ls: _edit_row(ls, column, flipped)))
    assert caught(wl, item, _with_rows(out, lambda ls: _edit_row(ls, "qA", "1/3")))
    assert caught(wl, item, _with_rows(out, lambda ls: ls[:1] + ls[2:]))  # a dropped row
    assert caught(wl, item, (1, out[1], out[2]))


def test_sweep_oracle_checks_the_gap_formula(tmp_path):
    wl = loaded(W.Sweep, tmp_path)
    item = W.SweepItem("ccd", "r", {"s": Fraction(1, 4), "t": Fraction(1, 2), "u": Fraction(0)}, 4)
    out = answer(wl, item)
    assert "true" in out[1]  # some row carries CCD, so the gap is checked
    lines = out[1].splitlines()
    header = lines[0].split(",")
    ccd = header.index("ccd")
    flagged = next(i for i, line in enumerate(lines) if line.split(",")[ccd] == "true")

    def bump(ls):
        row = ls[flagged].split(",")
        row[header.index("gap")] = str(Fraction(row[header.index("gap")]) + 1)
        return ls[:flagged] + [",".join(row)] + ls[flagged + 1:]

    assert caught(wl, item, _with_rows(out, bump))


# ---------------------------------------------------------------------------
# locality-large

def test_locality_oracle_catches_a_flipped_verdict_and_bad_weights(tmp_path):
    wl = loaded(W.Locality, tmp_path)
    item = first(wl, lambda i: i.local and i.raw.shape == (3, 2, 2, 2))
    verdict, model = answer(wl, item)
    flipped = dataclasses.replace(verdict, local=False)
    assert caught(wl, item, (flipped, model))
    (state, w), *rest = verdict.weights
    shifted = ((state, w + Fraction(1, 97)),) + tuple(rest)
    assert caught(wl, item, (dataclasses.replace(verdict, weights=shifted), model))


def test_locality_oracle_catches_a_bad_certificate_and_model(tmp_path):
    wl = loaded(W.Locality, tmp_path)
    item = first(wl, lambda i: not i.local and i.raw.shape == (2, 3, 2, 2))
    verdict, model = answer(wl, item)
    cert = verdict.certificate
    low = dataclasses.replace(cert, box_value=cert.local_bound)
    assert caught(wl, item, (dataclasses.replace(verdict, certificate=low), model))
    assert caught(wl, item, (dataclasses.replace(verdict, local=True, weights=()), model))
    measure = list(model.measure)
    measure[0], measure[1] = measure[1], measure[0]
    if measure != list(model.measure):
        assert caught(wl, item, (verdict, dataclasses.replace(model, measure=tuple(measure))))
    assert caught(wl, item, (verdict, dataclasses.replace(model, signed=not model.signed)))


# ---------------------------------------------------------------------------
# reduce-manyout

def test_reduce_oracle_catches_a_perturbed_box_and_plan(tmp_path):
    wl = loaded(W.Reduce, tmp_path)
    item = first(wl, lambda i: o.caption_ok(i.family, *i.params))
    code, stdout, stderr = answer(wl, item)
    doc = json.loads(stdout)
    doc["box"]["p"]["1,1"][0][0] = str(Fraction(doc["box"]["p"]["1,1"][0][0]) + Fraction(1, 11))
    assert caught(wl, item, (code, json.dumps(doc), stderr))
    doc = json.loads(stdout)
    doc["plan"]["mode"] = "sd" if doc["plan"]["mode"] == "ccd" else "ccd"
    assert caught(wl, item, (code, json.dumps(doc), stderr))
    doc = json.loads(stdout)
    doc["plan"]["alpha_group"] = doc["plan"]["alpha_group"] + [9]
    assert caught(wl, item, (code, json.dumps(doc), stderr))
    assert caught(wl, item, (3, "", "error: box carries neither disagreement"))


def test_reduce_oracle_requires_refusal_without_disagreement(tmp_path):
    wl = loaded(W.Reduce, tmp_path)
    item = first(wl, lambda i: not o.caption_ok(i.family, *i.params))
    code, stdout, stderr = answer(wl, item)
    assert code == 3
    assert caught(wl, item, (0, stdout, ""))


# ---------------------------------------------------------------------------
# classical-exhaustive

def test_classical_oracle_catches_counts_and_violations(tmp_path):
    wl = loaded(W.Classical, tmp_path)
    item = (4, 2)
    report = answer(wl, item)
    assert caught(wl, item, dataclasses.replace(report, instances=report.instances - 1))
    assert caught(wl, item, dataclasses.replace(report, violations=1))
    assert caught(wl, item, dataclasses.replace(report, complete=False))


# ---------------------------------------------------------------------------
# the runner

def test_runner_counts_a_wrong_answer_as_failed(tmp_path):
    wl = loaded(W.Classical, tmp_path)
    wl.call = lambda item: dataclasses.replace(
        wl.classical.verify_agreement_theorem(*item), instances=0)
    runner = run.Runner(wl)
    _, outcome = runner.run((4, 2))
    assert (runner.attempted, runner.failed) == (1, 1) and outcome.errors


def test_inputs_depend_only_on_the_seed(tmp_path):
    for cls in (W.Sweep, W.Locality, W.Reduce):
        wl = cls(tmp_path)
        a, b, c = (list(zip(range(5), wl.items(seed))) for seed in (5, 5, 6))
        assert a == b and a != c


def test_sweep_slices_follow_the_valid_box_and_denominator_cycles(tmp_path):
    wl = W.Sweep(tmp_path)
    for i, item in zip(range(30), wl.items(3)):
        valid = sum(not o.ns_violations(o.family_raw(item.family, *p)) for p in item.points())
        assert valid == W.Sweep.VALID_CYCLE[i % 3] and item.d == W.Sweep.D_CYCLE[i % 5]


def test_reference_task_is_deterministic():
    import reference

    assert reference.task() == reference.CHECKSUM
    assert reference.Reference(3).measure() > 0


@pytest.mark.parametrize("n,pct,beyond", [(100, 90, 10), (1000, 99, 10), (160, 90, 16)])
def test_tail_percentile_leaves_the_stated_calls_beyond(n, pct, beyond):
    assert run.percentile(list(range(n)), pct)[1] == beyond
