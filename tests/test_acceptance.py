"""Nine end-to-end checks over grids, random sampling, and exhaustive search.

Each test prints one PASS/FAIL line (bypassing capture) so a full run
reads as a scoreboard.  Grids use every fraction k/8 and k/7 in [0, 1]
per axis, pruned to parameter tuples whose table is a valid box.
"""

import random
import sys
import time
from fractions import Fraction as F
from itertools import product

import pytest

import agreebox as ab

AXIS = sorted({F(k, 8) for k in range(9)} | {F(k, 7) for k in range(8)})

CHSH = {(0, 0): 1, (1, 0): 1, (1, 1): 1, (0, 1): -1}


def ccd_valid(r, s, t, u):
    return (
        s <= r and u <= t and t + s <= 1 and t + s >= r
        and r - t + u >= 0 and r + u <= 1
    )


def sd_valid(r, s, t, u):
    return s + u + t <= 1 and s + t + r <= 1 and u + t + r >= 1


@pytest.fixture(scope="module")
def ccd_tuples():
    return [p for p in product(AXIS, repeat=4) if ccd_valid(*p)]


@pytest.fixture(scope="module")
def sd_tuples():
    return [p for p in product(AXIS, repeat=4) if sd_valid(*p)]


def sample_local_boxes(count, seed):
    """Seeded mixtures of deterministic strategies, cycling three supports:
    everything, matching outputs at input 1, matching at both inputs."""
    rng = random.Random(seed)
    strategies = ab.deterministic_strategies()
    pools = [
        list(strategies),
        [s for s in strategies if s[1] == s[3]],
        [s for s in strategies if s[1] == s[3] and s[0] == s[2]],
    ]
    boxes = []
    for i in range(count):
        pool = pools[i % 3]
        ws = [rng.randrange(0, 9) for _ in pool]
        while not any(ws):
            ws = [rng.randrange(0, 9) for _ in pool]
        total = sum(ws)
        boxes.append(
            ab.mix_strategies([(s, F(w, total)) for s, w in zip(pool, ws) if w])
        )
    return boxes


@pytest.fixture(scope="module")
def sampled_boxes():
    return sample_local_boxes(1000, seed=20260819)


def conclude(capfd, num, label, problems, detail):
    status = "FAIL" if problems else "PASS"
    with capfd.disabled():
        print(f"check {num} ({label}): {status} [{detail}]", flush=True)
    assert not problems, "; ".join(problems[:5])


# ---------------------------------------------------------------------------

def test_check_1_ccd_grid_detection_matches_constraints(capfd, ccd_tuples):
    start = time.perf_counter()
    problems = []
    flagged = 0
    for i, (r, s, t, u) in enumerate(ccd_tuples):
        box = ab.ccd_table_box(r, s, t, u)
        if i % 100 == 0 and not ab.validate(box).ok:
            problems.append(f"pruned grid let an invalid box through at {(r, s, t, u)}")
        expected = r > 0 and s - u != r - t
        got = ab.detect_ccd(box).ccd
        if got != expected:
            problems.append(f"detection {got} vs constraints {expected} at {(r, s, t, u)}")
        flagged += got
    elapsed = time.perf_counter() - start
    if len(ccd_tuples) < 500:
        problems.append(f"only {len(ccd_tuples)} valid tuples")
    if elapsed >= 10.0:
        problems.append(f"sweep took {elapsed:.1f}s, bound is 10s")
    conclude(
        capfd, 1, "ccd grid detection",
        problems,
        f"{len(ccd_tuples)} valid tuples, {flagged} detections, {elapsed:.1f}s",
    )


def test_check_2_gap_formula_on_flagged_grid(capfd, ccd_tuples):
    problems = []
    checked = 0
    for r, s, t, u in ccd_tuples:
        if ab.caption_violations("ccd", r, s, t, u):
            continue
        gap = ab.tsirelson_obstruction(ab.ccd_table_box(r, s, t, u))
        if gap != 4 * ((r - t) - (s - u)):
            problems.append(f"gap {gap} off formula at {(r, s, t, u)}")
        if gap == 0:
            problems.append(f"zero gap on a disagreement box at {(r, s, t, u)}")
        checked += 1
    conclude(capfd, 2, "correlator gap formula", problems, f"{checked} boxes, all nonzero")


def test_check_3_sd_grid_detection_matches_constraints(capfd, sd_tuples):
    problems = []
    flagged = 0
    for i, (r, s, t, u) in enumerate(sd_tuples):
        box = ab.sd_table_box(r, s, t, u)
        if i % 100 == 0 and not ab.validate(box).ok:
            problems.append(f"pruned grid let an invalid box through at {(r, s, t, u)}")
        expected = not ab.caption_violations("sd", r, s, t, u)
        got = ab.detect_ccd(box).sd
        if got != expected:
            problems.append(f"detection {got} vs constraints {expected} at {(r, s, t, u)}")
        flagged += got
    if len(sd_tuples) < 200:
        problems.append(f"only {len(sd_tuples)} valid tuples")
    if flagged < 200:
        problems.append(f"only {flagged} detections")
    conclude(
        capfd, 3, "sd grid detection",
        problems,
        f"{len(sd_tuples)} valid tuples, {flagged} detections",
    )


def test_check_4_sd_boxes_show_hardy_and_nonlocality(capfd, sd_tuples):
    problems = []
    instances = 0
    for r, s, t, u in sd_tuples:
        box = ab.sd_table_box(r, s, t, u)
        if not ab.detect_ccd(box).sd:
            continue
        instances += 1
        if not ab.hardy_pattern(box):
            problems.append(f"no Hardy pattern at {(r, s, t, u)}")
        verdict = ab.is_local(box)
        if verdict.local:
            problems.append(f"LP found a local decomposition at {(r, s, t, u)}")
        else:
            cert = verdict.certificate
            if cert.box_value <= cert.local_bound:
                problems.append(f"dual certificate fails to separate at {(r, s, t, u)}")
            if ab.bell_value(box, cert.coeffs) != cert.box_value:
                problems.append(f"certificate value mismatch at {(r, s, t, u)}")
    if instances < 200:
        problems.append(f"only {instances} singular-disagreement boxes")
    conclude(
        capfd, 4, "sd implies Hardy and nonlocal",
        problems,
        f"{instances} boxes, every certificate separates",
    )


def test_check_5_local_sampling_never_disagrees(capfd, sampled_boxes):
    problems = []
    hits = 0
    violations = 0
    for i, box in enumerate(sampled_boxes):
        report = ab.detect_ccd(box)
        if report.ccd:
            problems.append(f"common certainty of disagreement on a local mixture #{i}")
        h = report.hierarchy
        premise = (
            ab.is_perfectly_correlated(box, 1, 1)
            and h.qA is not None
            and h.qB is not None
            and box.p(0, 0, 0, 0) > 0
            and 0 in h.alpha_N
            and 0 in h.beta_N
        )
        if not premise:
            continue
        hits += 1
        if h.qA != h.qB:
            violations += 1
            problems.append(f"certain disagreement on a local mixture #{i}")
        if i % 50 == 0 and not ab.is_local(box).local:
            problems.append(f"sampled mixture #{i} is not certified local")
    if len(sampled_boxes) < 1000:
        problems.append(f"only {len(sampled_boxes)} boxes sampled")
    if hits == 0:
        problems.append("the premise never fired; the sample is vacuous")
    conclude(
        capfd, 5, "agreement on random local boxes",
        problems,
        f"{len(sampled_boxes)} boxes, {hits} premise hits, {violations} violations",
    )


def test_check_6_exhaustive_classical_verification(capfd):
    start = time.perf_counter()
    report = ab.verify_agreement_theorem(4, 3)
    elapsed = time.perf_counter() - start
    problems = []
    if report.violations:
        problems.append(f"{report.violations} violations")
    if report.instances == 0:
        problems.append("no instances enumerated")
    if not report.complete:
        problems.append("bounds were clamped")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, bound is 60s")
    conclude(
        capfd, 6, "exhaustive classical agreement",
        problems,
        f"{report.instances} instances, {report.certainty_instances} with common certainty, "
        f"{report.violations} violations, {elapsed:.1f}s",
    )


def test_check_7_model_roundtrip_on_every_swept_box(capfd, ccd_tuples, sd_tuples, sampled_boxes):
    problems = []
    count = 0

    def roundtrip(box, tag):
        nonlocal count
        count += 1
        if ab.model_to_box(ab.box_to_model(box)) != box:
            problems.append(f"roundtrip changed the box ({tag})")

    for p in ccd_tuples:
        roundtrip(ab.ccd_table_box(*p), f"ccd {p}")
    for p in sd_tuples:
        roundtrip(ab.sd_table_box(*p), f"sd {p}")
    for i, box in enumerate(sampled_boxes):
        roundtrip(box, f"sample #{i}")
    roundtrip(ab.pr_box(), "pr")
    if not ab.box_to_model(ab.pr_box()).signed:
        problems.append("the PR model is not signed")
    if ab.is_local(ab.pr_box()).local:
        problems.append("the PR box passed the locality LP")
    conclude(
        capfd, 7, "model roundtrip",
        problems,
        f"{count} boxes reconstructed bit-exactly, PR model signed and nonlocal",
    )


def test_check_8_reduction_recovers_and_preserves(capfd, ccd_tuples, sd_tuples):
    problems = []
    split_pr = ab.split_output(ab.pr_box(), output=0, at_input=0)
    for mode in ("ccd", "sd"):
        reduced, _ = ab.reduce_box(split_pr, mode)
        if reduced != ab.pr_box():
            problems.append(f"split PR did not reduce back exactly in mode {mode}")

    ratios = [F(1, 2), F(1, 3), F(3, 4)]
    instances = 0

    def survives(box, mode, tag, ratio):
        nonlocal instances
        split = ab.split_output(box, output=0, at_input=0, ratio=ratio)
        if not ab.validate(split).ok:
            problems.append(f"split box invalid ({tag})")
            return
        before = ab.detect_ccd(split)
        flag = before.ccd if mode == "ccd" else before.sd
        if not flag:
            problems.append(f"splitting destroyed the disagreement ({tag})")
            return
        reduced, _ = ab.reduce_box(split, mode)
        after = ab.detect_ccd(reduced)
        if not (after.ccd if mode == "ccd" else after.sd):
            problems.append(f"reduction lost the disagreement ({tag})")
        if after.hierarchy.qA != before.hierarchy.qA:
            problems.append(f"reduction moved qA ({tag})")
        if after.hierarchy.qB != before.hierarchy.qB:
            problems.append(f"reduction moved qB ({tag})")
        if not ab.validate(reduced).ok:
            problems.append(f"reduced box invalid ({tag})")
        instances += 1

    ccd_flagged = [
        p for p in ccd_tuples if not ab.caption_violations("ccd", *p)
    ][:60]
    for i, p in enumerate(ccd_flagged):
        survives(ab.ccd_table_box(*p), "ccd", f"ccd {p}", ratios[i % 3])
    sd_flagged = [
        p for p in sd_tuples if not ab.caption_violations("sd", *p)
    ][:60]
    for i, p in enumerate(sd_flagged):
        survives(ab.sd_table_box(*p), "sd", f"sd {p}", ratios[i % 3])

    if instances < 100:
        problems.append(f"only {instances} split instances exercised")
    conclude(
        capfd, 8, "reduction to effective boxes",
        problems,
        f"split PR recovered exactly, {instances} split instances preserved",
    )


def test_check_9_pr_extremal_profile(capfd):
    problems = []
    box = ab.pr_box()
    report = ab.detect_ccd(box)
    if report.hierarchy.qA != 1:
        problems.append("qA is not 1")
    if report.hierarchy.qB != 0:
        problems.append("qB is not 0")
    if not report.ccd:
        problems.append("no common certainty of disagreement")
    if not report.sd:
        problems.append("no singular disagreement")
    if ab.tsirelson_obstruction(box) != -2:
        problems.append("correlator gap is not -2")
    coeffs = ab.correlator_functional(CHSH)
    value = ab.bell_value(box, coeffs)
    bound = ab.bell_local_bound(coeffs, 2, 2, 2, 2)
    if value != 4:
        problems.append(f"CHSH value {value} instead of 4")
    if bound != 2:
        problems.append(f"local bound {bound} instead of 2")
    verdict = ab.is_local(box)
    if verdict.local or verdict.certificate.box_value <= verdict.certificate.local_bound:
        problems.append("locality LP failed to separate the box")
    conclude(
        capfd, 9, "maximal disagreement profile",
        problems,
        f"qA=1, qB=0, gap=-2, CHSH {value} > {bound}",
    )
