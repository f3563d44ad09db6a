"""Command-line front end.

Subcommands:
    classify          box JSON -> classification verdict JSON
    generate          family + params -> box JSON (warnings to stderr)
    sweep             family + grid -> CSV of disagreement/locality columns
    reduce            box JSON -> effective 2x2 box + reduction plan JSON
    ontology          box JSON -> instruction-set model JSON (flags signed)
    verify-classical  exhaustive small-model agreement check -> report JSON

Exit codes: 0 success, 2 parse error or a file that cannot be read or
written (missing, a directory, not UTF-8 text), 3 validation or
precondition error, 4 size limit exceeded, 1 anything unexpected.
"""

import argparse
import csv
import json
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import product
from math import lcm, prod

from . import __version__
from .boxes import _valid, box_doc, box_from_json, box_to_json, validate
from .bridge import box_to_model, is_local
from .classical import model_to_json, verify_agreement_theorem
from .classify import classify, tsirelson_obstruction, verdict_to_json
from .epistemic import detect_ccd, report_doc
from .errors import (
    AgreeboxError,
    BudgetError,
    ParseError,
    PreconditionError,
    ReductionRefused,
    ShapeError,
    StructuralError,
)
from .families import (
    _box_2222,
    _ccd_nums,
    _sd_nums,
    caption_violations,
    ccd_table_box,
    pr_box,
    sd_table_box,
    uniform_box,
)
from .rationals import _TOO_LONG, rat, rat_dec, rat_str
from .reduction import plan_doc, reduce_box

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

# the parameters of the ccd and sd families; pr and uniform take none
TABLE_PARAMS = ("r", "s", "t", "u")
# a sweep grid has at most 16 points on each of its four axes (step 1/15 on [0, 1])
MAX_GRID_POINTS = 16**4


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_box(path):
    # box_from_json refuses a missing or out-of-range entry with StructuralError
    box = box_from_json(_read_text(path))
    result = validate(box)
    if not result.ok:
        raise PreconditionError(
            "box is not a valid no-signaling box: " + "; ".join(result.violations)
        )
    return box


def _split_items(text, what):
    """Split "name=value,..." into a name -> value text dict.

    Every item needs an "=" and a name that is nonempty and new.
    """
    items = {}
    for item in text.split(","):
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ParseError(f"bad {what} {item!r}, expected name=value")
        if name in items:
            raise ParseError(f"{what} {name!r} given twice")
        items[name] = value
    return items


def _parse_params(text, names):
    """Parse "r=1/2,s=0.25" into a name -> Fraction dict; only names are read."""
    if not text:
        return {}
    items = _split_items(text, "parameter")
    unknown = set(items) - set(names)
    if unknown:
        known = ", ".join(names) or "none"
        raise ParseError(f"unknown parameters {sorted(unknown)} (known: {known})")
    return {name: rat(value) for name, value in items.items()}


def _parse_grid(text):
    """Parse "r=0:1:1/4,s=1/2" into a name -> list of Fractions dict.

    Only the axes r, s, t and u are taken.  A singleton "name=value" is a
    one-point axis; "start:stop:step" is an inclusive range walked exactly.
    The points are counted before any is built, and a grid of more than
    MAX_GRID_POINTS raises BudgetError.
    """
    items = _split_items(text, "grid axis")
    unknown = set(items) - set(TABLE_PARAMS)
    if unknown:
        known = ", ".join(TABLE_PARAMS)
        raise ParseError(f"unknown grid axes {sorted(unknown)} (known: {known})")
    axes = {}  # name -> (start, step, count, den): point k is (start + k*step)/den
    for name, axis in items.items():
        if ":" in axis:
            pieces = axis.split(":")
            if len(pieces) != 3:
                raise ParseError(f"bad range {axis!r}, expected start:stop:step")
            start, stop, step = (rat(p) for p in pieces)
            if step <= 0:
                raise ParseError("grid step must be positive")
            den = lcm(start.denominator, stop.denominator, step.denominator)
            lo, hi, inc = (q.numerator * (den // q.denominator) for q in (start, stop, step))
            axes[name] = (lo, inc, (hi - lo) // inc + 1 if hi >= lo else 0, den)
        else:
            value = rat(axis)
            axes[name] = (value.numerator, 0, 1, value.denominator)
    points = prod(count for _, _, count, _ in axes.values())
    if points > MAX_GRID_POINTS:
        raise BudgetError(f"grid has {points} points, more than {MAX_GRID_POINTS}")
    return {
        name: [Fraction(start + k * step, den) for k in range(count)]
        for name, (start, step, count, den) in axes.items()
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args):
    box = _load_box(args.input)
    verdict = classify(box, relabel_search=args.relabel_search)
    _write_text(args.output, verdict_to_json(verdict))
    return EXIT_OK


def _family_box(family, params):
    """The family's box; ccd and sd read r, s, t and u from params."""
    if family == "pr":
        return pr_box()
    if family == "uniform":
        return uniform_box()
    missing = set(TABLE_PARAMS) - set(params)
    if missing:
        raise ParseError(f"family {family!r} needs parameters {sorted(missing)}")
    maker = ccd_table_box if family == "ccd" else sd_table_box
    return maker(*(params[name] for name in TABLE_PARAMS))


def _cmd_generate(args):
    names = TABLE_PARAMS if args.family in ("ccd", "sd") else ()
    params = _parse_params(args.params, names)
    box = _family_box(args.family, params)
    captions = caption_violations(args.family, *map(params.get, names)) if names else []
    for w in [*captions, *validate(box).violations]:
        print(f"warning: {w}", file=sys.stderr)
    _write_text(args.output, box_to_json(box))
    return EXIT_OK


SWEEP_COLUMNS = [
    "family",
    "r", "r_dec", "s", "s_dec", "t", "t_dec", "u", "u_dec",
    "qA", "qA_dec", "qB", "qB_dec",
    "ccd", "sd", "local", "gap", "gap_dec",
]


def _sweep_rows(family, tuples):
    if family in ("ccd", "sd"):
        # every point over D, the lcm of the grid's denominators: the family's
        # entry function takes the numerators, and Box reduces each box to
        # the one ccd_table_box or sd_table_box builds
        D = lcm(*{q.denominator for values in tuples for q in values})
        entries = _ccd_nums if family == "ccd" else _sd_nums
    skipped = 0
    for values in tuples:
        if family in ("ccd", "sd"):
            nums = entries(D, *[q.numerator * (D // q.denominator) for q in values])
            # an entry outside [0, D] fails validate, so the point is skipped
            # before a Box exists; numbers too long for a Box still go to Box,
            # which refuses them
            if ((min(nums) < 0 or max(nums) > D)
                    and D < _TOO_LONG and max(map(abs, nums)) < _TOO_LONG):
                skipped += 1
                continue
            box = _box_2222(D, nums)
        else:
            box = _family_box(family, {})
        # only the verdict is read, so no violation message is written
        if not _valid(box):
            skipped += 1
            continue
        report = detect_ccd(box)
        h = report.hierarchy
        gap = tsirelson_obstruction(box)
        row = {
            "family": family,
            "ccd": str(report.ccd).lower(),
            "sd": str(report.sd).lower(),
            "local": str(is_local(box).local).lower(),
        }
        cells = (
            *zip(TABLE_PARAMS, values),
            ("qA", h.qA),
            ("qB", h.qB),
            ("gap", gap),
        )
        for name, value in cells:
            row[name] = rat_str(value) if value is not None else ""
            row[name + "_dec"] = rat_dec(value) if value is not None else ""
        yield row
    if skipped:
        print(f"note: skipped {skipped} grid points with invalid boxes", file=sys.stderr)


def _sample_tuples(count, seed):
    """count distinct (r, s, t, u), each a value k/8, drawn with seed, sorted.

    They are drawn and sorted as the ints k, which order as the k/8 do.
    """
    eighths = [Fraction(k, 8) for k in range(9)]
    if count == 9**4:  # every tuple, whatever the seed: no draw needed
        return list(product(eighths, repeat=4))
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.randrange(0, 9) for _ in range(4)))
    return [tuple(eighths[k] for k in ks) for ks in sorted(seen)]


def _cmd_sweep(args):
    if args.family in ("ccd", "sd"):
        if args.grid and args.sample is not None:
            raise ParseError(f"family {args.family!r} takes --grid or --sample, not both")
        if args.sample is not None:
            if args.sample < 0:
                raise ParseError(f"--sample {args.sample} is negative")
            if args.sample > 9**4:  # r, s, t, u each take one of the values k/8
                raise ParseError(f"--sample {args.sample} exceeds the 6561 distinct tuples")
            tuples = _sample_tuples(args.sample, args.seed)
        else:
            if not args.grid:
                raise ParseError("sweep over ccd/sd needs --grid or --sample")
            grid = _parse_grid(args.grid)
            missing = set(TABLE_PARAMS) - set(grid)
            if missing:
                raise ParseError(f"grid is missing axes {sorted(missing)}")
            tuples = [
                (r, s, t, u)
                for r in grid["r"]
                for s in grid["s"]
                for t in grid["t"]
                for u in grid["u"]
            ]
    else:
        if args.grid or args.sample is not None:
            raise ParseError(f"family {args.family!r} takes no --grid or --sample")
        tuples = [(None, None, None, None)]

    out = sys.stdout if args.output is None else open(args.output, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in _sweep_rows(args.family, tuples):
            writer.writerow(row)
    finally:
        if args.output is not None:
            out.close()
    return EXIT_OK


def _cmd_reduce(args):
    box = _load_box(args.input)
    reduced, plan = reduce_box(box, args.mode)
    doc = {"box": box_doc(reduced), "plan": plan_doc(plan)}
    _write_text(args.output, json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_ontology(args):
    box = _load_box(args.input)
    model = box_to_model(box)
    _write_text(args.output, model_to_json(model))
    return EXIT_OK


def _cmd_verify_classical(args):
    params = _parse_params(args.params, ("omega", "denom"))
    for name, value in params.items():
        if value.denominator != 1:
            raise ParseError(f"bound {name}={rat_str(value)} is not an integer")
        if value < 1:
            raise ParseError(f"bound {name}={rat_str(value)} is below 1")
    report = verify_agreement_theorem(
        int(params.get("omega", 4)), int(params.get("denom", 3))
    )
    _write_text(args.output, json.dumps(asdict(report), indent=2))
    if report.violations:
        return EXIT_UNEXPECTED
    if not report.complete:
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="agreebox",
        description="agreement and disagreement analysis for no-signaling boxes",
    )
    parser.add_argument("--version", action="version", version=f"agreebox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="path to a box JSON file")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("classify", help="classify a box")
    add_common(p)
    p.add_argument(
        "--relabel-search", action="store_true",
        help="search input/output relabelings for a matching canonical frame",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="emit a family box as JSON")
    p.add_argument("--family", required=True, choices=["ccd", "sd", "pr", "uniform"])
    p.add_argument("--params", default="", help='e.g. "r=1/2,s=1/4,t=1/2,u=0"')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sweep", help="sweep a family and emit CSV")
    p.add_argument("--family", required=True, choices=["ccd", "sd", "pr", "uniform"])
    p.add_argument("--grid", default="", help='e.g. "r=0:1:1/4,s=0:1:1/4,t=1/2,u=0"')
    p.add_argument("--sample", type=int, default=None,
                   help="draw this many random parameter tuples instead of a grid")
    p.add_argument("--seed", type=int, default=0, help="seed for --sample")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reduce", help="reduce a many-output box to 2x2")
    add_common(p)
    p.add_argument("--mode", choices=["ccd", "sd", "auto"], default="auto")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("ontology", help="instruction-set model for a box")
    add_common(p)
    p.set_defaults(func=_cmd_ontology)

    p = sub.add_parser("verify-classical", help="exhaustive small-model agreement check")
    p.add_argument("--params", default="", help='bounds, e.g. "omega=4,denom=3"')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify_classical)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ReductionRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(report_doc(exc.report), indent=2), file=sys.stderr)
        return EXIT_VALIDATION
    except (ParseError, StructuralError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AgreeboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
