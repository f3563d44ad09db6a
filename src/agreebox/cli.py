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
import io
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import product
from math import prod

from . import __version__
from .boxes import box_doc, box_from_json, box_to_json, validate
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
from .rationals import _TOO_LONG, json_text, over_common_den, rat, rat_dec, rat_str
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
        with open(path, "w", encoding="utf-8", newline="") as fh:
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
    """Parse "r=0:1:1/4,s=1/2" into D and a name -> list of ints dict.

    Only the axes r, s, t and u are taken.  A singleton "name=value" is a
    one-point axis; "start:stop:step" is an inclusive range walked exactly.
    Every point is an int over D, the lcm of the denominators of the
    grid's pieces (each start, stop, step and singleton).  The points are
    counted before any is built: a grid of more than MAX_GRID_POINTS raises
    BudgetError, and a grid of none has every axis empty.
    """
    items = _split_items(text, "grid axis")
    unknown = set(items) - set(TABLE_PARAMS)
    if unknown:
        known = ", ".join(TABLE_PARAMS)
        raise ParseError(f"unknown grid axes {sorted(unknown)} (known: {known})")
    pieces = []  # start, stop, step of each axis in turn; a singleton v is v:v:1
    for axis in items.values():
        if ":" in axis:
            parts = axis.split(":")
            if len(parts) != 3:
                raise ParseError(f"bad range {axis!r}, expected start:stop:step")
            start, stop, step = (rat(p) for p in parts)
            if step <= 0:
                raise ParseError("grid step must be positive")
            pieces += (start, stop, step)
        else:
            value = rat(axis)
            pieces += (value, value, 1)
    D, nums = over_common_den(pieces)
    ranges = {name: nums[3 * i:3 * i + 3] for i, name in enumerate(items)}
    points = prod(max((hi - lo) // inc + 1, 0) for lo, hi, inc in ranges.values())
    if points > MAX_GRID_POINTS:
        raise BudgetError(f"grid has {points} points, more than {MAX_GRID_POINTS}")
    return D, {
        name: list(range(lo, hi + 1, inc)) if points else []
        for name, (lo, hi, inc) in ranges.items()
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


def _cells(q):
    """The exact and the decimal cell of q, or two empty cells for None."""
    return ("", "") if q is None else (rat_str(q), rat_dec(q))


def _sweep_rows(family, D, tuples):
    """The CSV rows of the sweep, one per point with a valid box, each a
    list in SWEEP_COLUMNS order.

    For ccd and sd each point is (r, s, t, u) as ints over D, which the
    family's entry function takes as they are; Box reduces each box to the
    one ccd_table_box or sd_table_box builds.  The fixed families take the
    one point (None, None, None, None).  A sweep repeats few parameter
    values: each is formatted once.
    """
    if family in ("ccd", "sd"):
        entries = _ccd_nums if family == "ccd" else _sd_nums
    param_cells = {None: ("", "")}  # parameter value -> its two cells
    skipped = 0
    for values in tuples:
        if family in ("ccd", "sd"):
            nums = entries(D, *values)
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
        if not validate(box).ok:
            skipped += 1
            continue
        report = detect_ccd(box)
        h = report.hierarchy
        gap = tsirelson_obstruction(box)
        row = [family]
        for v in values:
            if v not in param_cells:
                param_cells[v] = _cells(Fraction(v, D))
            row += param_cells[v]
        row += (
            *_cells(h.qA),
            *_cells(h.qB),
            str(report.ccd).lower(),
            str(report.sd).lower(),
            str(is_local(box).local).lower(),
            *_cells(gap),
        )
        yield row
    if skipped:
        print(f"note: skipped {skipped} grid points with invalid boxes", file=sys.stderr)


def _sample_tuples(count, seed):
    """count distinct (r, s, t, u), each an int k in 0..8 (the value k/8),
    drawn with seed, sorted."""
    if count == 9**4:  # every tuple, whatever the seed: no draw needed
        return list(product(range(9), repeat=4))
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.randrange(0, 9) for _ in range(4)))
    return sorted(seen)


def _cmd_sweep(args):
    if args.seed is not None and args.sample is None:
        raise ParseError("--seed applies only with --sample")
    if args.family in ("ccd", "sd"):
        if args.grid and args.sample is not None:
            raise ParseError(f"family {args.family!r} takes --grid or --sample, not both")
        if args.sample is not None:
            if args.sample < 0:
                raise ParseError(f"--sample {args.sample} is negative")
            if args.sample > 9**4:  # r, s, t, u each take one of the values k/8
                raise ParseError(f"--sample {args.sample} exceeds the 6561 distinct tuples")
            D = 8
            tuples = _sample_tuples(args.sample, args.seed or 0)
        else:
            if not args.grid:
                raise ParseError("sweep over ccd/sd needs --grid or --sample")
            D, grid = _parse_grid(args.grid)
            missing = set(TABLE_PARAMS) - set(grid)
            if missing:
                raise ParseError(f"grid is missing axes {sorted(missing)}")
            tuples = product(*(grid[name] for name in TABLE_PARAMS))
    else:
        if args.grid or args.sample is not None:
            raise ParseError(f"family {args.family!r} takes no --grid or --sample")
        D, tuples = 1, [(None, None, None, None)]

    # the whole CSV is written at once, so a sweep that fails writes nothing
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(_sweep_rows(args.family, D, tuples))
    _write_text(args.output, out.getvalue())
    return EXIT_OK


def _cmd_reduce(args):
    box = _load_box(args.input)
    reduced, plan = reduce_box(box, args.mode)
    doc = {"box": box_doc(reduced), "plan": plan_doc(plan)}
    _write_text(args.output, json_text(doc))
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
    _write_text(args.output, json_text(asdict(report)))
    if report.violations:
        return EXIT_UNEXPECTED
    if not report.complete:
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    """The argument parser, and a name -> parser dict of its subcommands."""
    parser = argparse.ArgumentParser(
        prog="agreebox",
        description="agreement and disagreement analysis for no-signaling boxes",
    )
    parser.add_argument("--version", action="version", version=f"agreebox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, **kwargs):
        commands[name] = p = sub.add_parser(name, **kwargs)
        return p

    def add_common(p):
        p.add_argument("--input", required=True, help="path to a box JSON file")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = add_command("classify", help="classify a box")
    add_common(p)
    p.add_argument(
        "--relabel-search", action="store_true",
        help="search input/output relabelings for a matching canonical frame",
    )
    p.set_defaults(func=_cmd_classify)

    p = add_command("generate", help="emit a family box as JSON")
    p.add_argument("--family", required=True, choices=["ccd", "sd", "pr", "uniform"])
    p.add_argument("--params", default="", help='e.g. "r=1/2,s=1/4,t=1/2,u=0"')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = add_command("sweep", help="sweep a family and emit CSV")
    p.add_argument("--family", required=True, choices=["ccd", "sd", "pr", "uniform"])
    p.add_argument("--grid", default="", help='e.g. "r=0:1:1/4,s=0:1:1/4,t=1/2,u=0"')
    p.add_argument("--sample", type=int, default=None,
                   help="draw this many random parameter tuples instead of a grid")
    p.add_argument("--seed", type=int, default=None, help="seed for --sample (default 0)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = add_command("reduce", help="reduce a many-output box to 2x2")
    add_common(p)
    p.add_argument("--mode", choices=["ccd", "sd", "auto"], default="auto")
    p.set_defaults(func=_cmd_reduce)

    p = add_command("ontology", help="instruction-set model for a box")
    add_common(p)
    p.set_defaults(func=_cmd_ontology)

    p = add_command("verify-classical", help="exhaustive small-model agreement check")
    p.add_argument("--params", default="", help='bounds, e.g. "omega=4,denom=3"')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify_classical)

    return parser, commands


_PARSER, _COMMANDS = build_parser()


def _parse_args(argv):
    """_PARSER.parse_args(argv), which hands everything after a subcommand
    name to that subcommand's parser; called with that parser directly when
    argv starts with the name, which halves the parse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ReductionRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json_text(report_doc(exc.report)), file=sys.stderr)
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
