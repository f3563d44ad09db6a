"""The four benchmark workloads: seeded inputs, the timed call, and its oracle.

Each workload generates every input itself from the seed, so the program
receives only boxes, grids and bounds.  A workload object is driven by
run.py in a closed loop with one caller:

    load()            import the package (part of set-up)
    warmup()          the first call, which fills the per-shape caches
    items(seed)       an endless, deterministic stream of inputs
    prepare(item)     untimed work before the call (writing an input file)
    call(item)        the timed call into a public entry point
    check(item, out)  an Outcome: units of work, a verdict record for the
                      digest, oracle errors and layer counts

agreebox is imported only inside load(), so that set-up timing covers it.
"""

import csv
import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from fractions import Fraction
from itertools import count, permutations, product
from typing import NamedTuple

import oracles as o

WORKLOADS = {}


def workload(cls):
    WORKLOADS[cls.name] = cls
    return cls


class Outcome(NamedTuple):
    units: int
    record: object  # JSON-able verdict that goes into the digest
    errors: list
    counts: dict  # extra per-layer counters


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _q(value):
    return "" if value is None else str(value)


class Workload:
    name = ""
    unit = ""
    prefix = 1  # items in the digest and in one trace pass
    min_calls = 1  # calls a timed run makes at least
    tail_pct = 50  # fixed so that >= 10 calls lie beyond it at min_calls

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def load(self):
        self.cli = importlib.import_module("agreebox.cli")  # imports the package

    def prepare(self, item):
        pass

    def pinned(self):
        """Inputs too slow for the timed loop, verified once per traced run."""
        return []


# ---------------------------------------------------------------------------

class SweepItem(NamedTuple):
    family: str
    free: str
    fixed: dict
    d: int

    def grid(self):
        return ",".join(
            f"{n}=0:1:1/{self.d}" if n == self.free else f"{n}={self.fixed[n]}"
            for n in "rstu"
        )

    def points(self):
        for k in range(self.d + 1):
            params = dict(self.fixed)
            params[self.free] = Fraction(k, self.d)
            yield tuple(params[n] for n in "rstu")


# the CSV columns that make up a sweep verdict in the digest
SWEEP_VERDICT = ("r", "s", "t", "u", "qA", "qB", "ccd", "sd", "local", "gap")


@workload
class Sweep(Workload):
    """`agreebox sweep` over one seeded slice of the ccd or sd family: one
    free axis over k/d values.  Many tiny exact LPs on the 2222 system."""

    name = "sweep-2222"
    unit = "boxes"
    prefix = 40
    min_calls = 100
    tail_pct = 90

    def warmup(self):
        code, _, _ = _run_cli(
            self.cli, ["sweep", "--family", "ccd", "--grid", "r=1/2,s=1/4,t=1/2,u=0"]
        )
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}")

    # Valid boxes per slice and denominators d, each in a fixed cycle (their
    # lengths are coprime, so every pair occurs; every ccd and sd slice
    # with d >= 4 can have 1 to 3 valid boxes).  A call costs about one LP
    # per valid box, and more for larger d.  With both drawn freely the
    # median and p90 calls fell on the edge between two box counts and
    # jumped between seeds; with the cycles, every run sees the same mix of
    # call sizes and the seed draws only the parameters and the free axis.
    VALID_CYCLE = (1, 2, 3)
    D_CYCLE = (4, 5, 6, 7, 8)

    def items(self, seed):
        # each slice runs through a valid box, so no call is all set-up
        rng = random.Random(f"{self.name}:{seed}")
        for i in count():
            family, want = ("ccd", "sd")[i % 2], self.VALID_CYCLE[i % 3]
            d = self.D_CYCLE[i % 5]
            while True:
                fam = random_family_box(rng, family, d=d)
                free = rng.choice("rstu")
                fixed = {n: v for n, v in zip("rstu", fam.params) if n != free}
                item = SweepItem(fam.family, free, fixed, fam.d)
                if sum(not o.ns_violations(o.family_raw(family, *p)) for p in item.points()) == want:
                    yield item
                    break

    def call(self, item):
        return _run_cli(self.cli, ["sweep", "--family", item.family, "--grid", item.grid()])

    def check(self, item, out):
        code, stdout, _ = out
        errors = []
        if code != 0:
            return Outcome(0, {"exit": code}, [f"sweep exited {code}"], {})
        rows = list(csv.DictReader(io.StringIO(stdout)))
        expected = []
        for params in item.points():
            raw = o.family_raw(item.family, *params)
            if not o.ns_violations(raw):
                expected.append((params, raw))
        if len(rows) != len(expected):
            errors.append(f"{len(rows)} rows for {len(expected)} valid grid points")
        record = []
        for row, (params, raw) in zip(rows, expected):
            r, s, t, u = params
            got = tuple(Fraction(row[n]) for n in "rstu")
            if row["family"] != item.family or got != params:
                errors.append(f"row {row['r']},{row['s']},{row['t']},{row['u']} out of order")
                continue
            h = o.hierarchy(raw)
            gap = o.correlator_gap(raw)
            verdict = {
                "qA": _q(h.qA), "qB": _q(h.qB),
                "ccd": str(h.ccd).lower(), "sd": str(h.sd).lower(),
                "local": str(o.fine_local(raw)).lower(), "gap": _q(gap),
            }
            for key, want in verdict.items():
                have = row[key]
                if key in ("qA", "qB", "gap") and have and want:
                    ok = Fraction(have) == Fraction(want)
                else:
                    ok = have == want
                if not ok:
                    errors.append(f"{item.family}{params}: {key}={have}, expected {want}")
            flag = row["ccd"] if item.family == "ccd" else row["sd"]
            if flag != str(o.caption_ok(item.family, r, s, t, u)).lower():
                errors.append(f"{item.family}{params}: flag disagrees with the caption")
            if item.family == "ccd" and row["ccd"] == "true":
                if not row["gap"] or Fraction(row["gap"]) != 4 * ((r - t) - (s - u)):
                    errors.append(f"ccd{params}: gap {row['gap']} != 4((r-t)-(s-u))")
            record.append([row[k] for k in SWEEP_VERDICT])
        counts = {"cli.sweep.grid_points": item.d + 1, "cli.sweep.rows": len(rows)}
        return Outcome(len(rows), [item.family, record], errors, counts)


# ---------------------------------------------------------------------------
# box constructions for locality-large and reduce-manyout

PR = o.raw_from_rows(
    {(x, y): [Fraction(1, 2) if (a ^ b) == x * y else 0 for a in range(2) for b in range(2)]
     for x in range(2) for y in range(2)}
)


def swap_parties(raw):
    p = {(b, a, y, x): v for (a, b, x, y), v in raw.p.items()}
    return o.Raw(raw.nB, raw.nA, raw.nY, raw.nX, p)


def split_alice(raw, ratios):
    """Append an Alice output; at input x it takes the share 1 - lam of
    output out, for each (x, out, lam) in ratios, and never occurs elsewhere."""
    new = raw.nA
    p = {}
    for (a, b, x, y), v in raw.p.items():
        p[(a, b, x, y)] = v
        p[(new, b, x, y)] = Fraction(0)
    for x, out, lam in ratios:
        for b, y in product(range(raw.nB), range(raw.nY)):
            v = raw.p[(out, b, x, y)]
            p[(out, b, x, y)] = lam * v
            p[(new, b, x, y)] = (1 - lam) * v
    return o.Raw(raw.nA + 1, raw.nB, raw.nX, raw.nY, p)


def copy_input_alice(raw, source, perm):
    """Append an Alice input that behaves as input source with outputs permuted."""
    new = raw.nX
    p = dict(raw.p)
    for a, b, y in product(range(raw.nA), range(raw.nB), range(raw.nY)):
        p[(perm[a], b, new, y)] = raw.p[(a, b, source, y)]
    return o.Raw(raw.nA, raw.nB, raw.nX + 1, raw.nY, p)


def relabel(raw, sx, sy, pa, pb):
    """Permute inputs (sx, sy) and, per original input, outputs (pa, pb)."""
    p = {(pa[x][a], pb[y][b], sx[x], sy[y]): v for (a, b, x, y), v in raw.p.items()}
    return o.Raw(raw.nA, raw.nB, raw.nX, raw.nY, p)


def random_relabel(rng, raw):
    def perm(n):
        return rng.choice(list(permutations(range(n))))

    return relabel(
        raw, perm(raw.nX), perm(raw.nY),
        [perm(raw.nA) for _ in range(raw.nX)], [perm(raw.nB) for _ in range(raw.nY)],
    )


class FamilyBox(NamedTuple):
    family: str
    d: int
    params: tuple
    raw: object


@lru_cache(maxsize=None)
def valid_params(family, d):
    """Every (r, s, t, u) in {k/d}^4 whose family table is a valid box,
    keyed by whether the caption constraints hold."""
    out = {True: [], False: []}
    for ks in product(range(d + 1), repeat=4):
        # the table forms are normalized and no-signaling for any parameters,
        # so the box is valid exactly when every entry lies in [0, 1]
        rows = o.family_rows(family, *ks, one=d).values()
        if all(0 <= v <= d for row in rows for v in row):
            params = tuple(Fraction(k, d) for k in ks)
            out[o.caption_ok(family, *params)].append(params)
    return out


def random_family_box(rng, family=None, caption=None, d=None):
    """A valid ccd or sd family box with parameters k/d, d drawn by the
    seed unless given; caption=True or False also fixes whether the
    captions hold."""
    family = family or rng.choice(("ccd", "sd"))
    d = d or rng.choice((4, 5, 6, 7, 8))
    pools = valid_params(family, d)
    pool = pools[caption] if caption is not None else pools[True] + pools[False]
    params = rng.choice(pool)
    return FamilyBox(family, d, params, o.family_raw(family, *params))


def _ratio(rng):
    d = rng.choice((3, 4, 5, 7))
    return Fraction(rng.randint(1, d - 1), d)


def lift(rng, core, shape):
    """Embed a 2x2x2x2 box in a larger shape by output splits and input
    copies, then relabel.  Each step is reversible local processing, so the
    result is local exactly when the core is."""
    raw = core
    nA, nB, nX, nY = shape
    for party in ("A", "B"):
        if party == "B":
            raw = swap_parties(raw)
            want_a, want_x = nB, nY
        else:
            want_a, want_x = nA, nX
        while raw.nA < want_a:
            raw = split_alice(
                raw, [(x, rng.randrange(raw.nA), _ratio(rng)) for x in range(raw.nX)]
            )
        while raw.nX < want_x:
            perm = rng.choice(list(permutations(range(raw.nA))))
            raw = copy_input_alice(raw, rng.randrange(raw.nX), perm)
        if party == "B":
            raw = swap_parties(raw)
    return random_relabel(rng, raw)


def mixture(rng, shape, support):
    """A local box: random integer weights on `support` random strategies."""
    states = rng.sample(o.strategies(*shape), support)
    ws = [rng.randint(1, 9) for _ in states]
    total = sum(ws)
    return o.resum([(s, Fraction(w, total)) for s, w in zip(states, ws)], shape)


class LocalityItem(NamedTuple):
    kind: str
    raw: object
    local: bool  # known from the construction


# Every run sees the same mix, one big box after each three small ones.
# The median call is a 36-state lifted box or sparse mixture (tens of
# milliseconds: per-call overhead); the tail is a 64- or 81-state box of any
# kind (hundreds: coefficient growth).  Dense mixtures, the costliest small
# boxes, are kept to the big shapes so that the median falls inside one
# group of similar calls rather than between two.  The seed draws the boxes.
SMALL_SHAPES = ((3, 2, 2, 2), (2, 3, 2, 2))
BIG_SHAPES = ((2, 2, 3, 3), (3, 3, 2, 2))
SMALL = [(shape, kind) for _ in range(4)
         for kind in ("sparse", "local-lift", "nonlocal-lift") for shape in SMALL_SHAPES]
BIG = [(shape, kind) for kind in ("dense", "sparse", "local-lift", "nonlocal-lift")
       for shape in BIG_SHAPES]
LOCALITY_CYCLE = tuple(
    entry for i, big in enumerate(BIG) for entry in SMALL[3 * i:3 * i + 3] + [big]
)


@workload
class Locality(Workload):
    """is_local plus box_to_model (the `ontology` path) beyond 2222.

    Not listed in BENCHMARK.json: its runs spread too widely at the run
    length four workloads allow (see README.md).  Run it by hand."""

    name = "locality-large"
    unit = "boxes"
    prefix = len(LOCALITY_CYCLE)
    min_calls = 100
    tail_pct = 90

    def load(self):
        super().load()
        self.bridge = importlib.import_module("agreebox.bridge")
        self.boxes = importlib.import_module("agreebox.boxes")

    def _box(self, raw):
        return self.boxes.make_box(raw.nA, raw.nB, raw.nX, raw.nY, raw.p)

    def warmup(self):
        for shape in SMALL_SHAPES + BIG_SHAPES:
            state = o.strategies(*shape)[0]
            box = self._box(o.resum([(state, Fraction(1))], shape))
            self.bridge.is_local(box)
            self.bridge.box_to_model(box)

    def items(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            for shape, kind in LOCALITY_CYCLE:
                if kind.endswith("lift"):
                    local = kind == "local-lift"
                    core = PR if not local and rng.random() < 0.25 else None
                    while core is None or o.fine_local(core) != local:
                        core = random_family_box(rng).raw
                    yield LocalityItem(kind, lift(rng, core, shape), local)
                else:
                    n = len(o.strategies(*shape))
                    support = n // 2 if kind == "dense" else 3
                    yield LocalityItem(kind, mixture(rng, shape, support), True)

    def prepare(self, item):
        self.box = self._box(item.raw)

    def call(self, item):
        return self.bridge.is_local(self.box), self.bridge.box_to_model(self.box)

    def check(self, item, out):
        verdict, model = out
        raw = item.raw
        errors = []
        if verdict.local != item.local:
            errors.append(f"{item.kind} {raw.shape}: local={verdict.local}, expected {item.local}")
        elif verdict.local:
            ws = verdict.weights
            if any(w <= 0 for _, w in ws) or sum(w for _, w in ws) != 1:
                errors.append(f"{raw.shape}: convex weights are not a distribution")
            elif o.resum(ws, raw.shape).p != raw.p:
                errors.append(f"{raw.shape}: convex weights do not resum to the box")
        else:
            cert = verdict.certificate
            value = o.functional_value(cert.coeffs, raw)
            bound = o.local_bound(cert.coeffs, raw.shape)
            if (value, bound) != (cert.box_value, cert.local_bound) or not value > bound:
                errors.append(f"{raw.shape}: Bell certificate {value} vs bound {bound} fails")
        errors += self._check_model(raw, model)
        record = [
            list(raw.shape), verdict.local,
            [str(m) for m in model.measure], model.signed,
        ]
        return Outcome(1, record, errors, {})

    @staticmethod
    def _check_model(raw, model):
        m = model.measure
        if sum(m) != 1 or model.signed != any(w < 0 for w in m):
            return [f"{raw.shape}: model measure is not a signed distribution"]
        for a, b, x, y in raw.keys():
            cell = model.partsA[x][a] & model.partsB[y][b]
            if sum((m[w] for w in cell), Fraction(0)) != raw.p[(a, b, x, y)]:
                return [f"{raw.shape}: model does not reproduce p{(a, b, x, y)}"]
        return []


# ---------------------------------------------------------------------------

class ReduceItem(NamedTuple):
    family: str
    params: tuple
    raw: object
    text: str


def split_at_input0(rng, raw):
    """Split one Alice output at input 0; the new label never occurs at
    other inputs.  Labels other than 0 at input 0 are then shuffled, which
    keeps the observed event (a = 0 at x = 0) in place."""
    raw = split_alice(raw, [(0, rng.randrange(raw.nA), _ratio(rng))])
    rest = list(range(1, raw.nA))
    rng.shuffle(rest)
    ident = tuple(range(raw.nA))
    pa = [(0, *rest)] + [ident] * (raw.nX - 1)
    return relabel(raw, tuple(range(raw.nX)), tuple(range(raw.nY)), pa,
                   [tuple(range(raw.nB))] * raw.nY)


SPLIT_PLANS = ("A", "B", "AA", "AB", "BB")


@workload
class Reduce(Workload):
    """`agreebox reduce --mode auto` on 3- and 4-output boxes, in process."""

    name = "reduce-manyout"
    unit = "boxes"
    prefix = 400
    min_calls = 100
    tail_pct = 90

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.path = out_dir / f"{self.name}-input.json"
        rng = random.Random(0)
        self.warmup_text = self._item(rng).text

    def warmup(self):
        self.path.write_text(self.warmup_text)
        code, _, _ = _run_cli(self.cli, ["reduce", "--input", str(self.path), "--mode", "auto"])
        if code not in (0, 3):
            raise RuntimeError(f"warm-up reduce exited {code}")

    def _item(self, rng):
        # about a quarter of the boxes carry no disagreement and are refused
        family, _, params, raw = random_family_box(rng, caption=rng.random() < 0.75)
        for party in rng.choice(SPLIT_PLANS):
            if party == "B":
                raw = swap_parties(split_at_input0(rng, swap_parties(raw)))
            else:
                raw = split_at_input0(rng, raw)
        return ReduceItem(family, params, raw, json.dumps(o.raw_to_doc(raw)))

    def items(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self._item(rng)

    def prepare(self, item):
        self.path.write_text(item.text)

    def call(self, item):
        return _run_cli(self.cli, ["reduce", "--input", str(self.path), "--mode", "auto"])

    def check(self, item, out):
        code, stdout, stderr = out
        h = o.hierarchy(item.raw)
        if (h.ccd or h.sd) != o.caption_ok(item.family, *item.params):
            # splits at input 0 keep the family's disagreement; if the two
            # oracles disagree, the oracle itself is wrong
            return Outcome(1, None, [f"oracle inconsistency on {item.family}{item.params}"], {})
        if not (h.ccd or h.sd):
            ok = code == 3 and "neither disagreement" in stderr
            errors = [] if ok else [f"no disagreement: expected refusal, exit {code}"]
            return Outcome(1, {"exit": code}, errors, {})
        if code != 0:
            return Outcome(1, {"exit": code}, [f"reduce exited {code}"], {})
        doc = json.loads(stdout)
        plan = doc["plan"]
        reduced = o.raw_from_doc(doc["box"])
        mode = "ccd" if h.ccd else "sd"
        level = -2 if mode == "ccd" else 0
        groups = (list(h.alphas[level]), list(h.betas[level]))
        errors = []
        if plan["mode"] != mode or (plan["alpha_group"], plan["beta_group"]) != groups:
            errors.append(f"plan {plan} expected mode {mode} groups {groups}")
        elif plan["kept_inputs"] != {"alice": [0, 1], "bob": [0, 1]}:
            errors.append(f"plan keeps inputs {plan['kept_inputs']}")
        elif reduced.p != o.coarse_grain(item.raw, *groups).p:
            errors.append("reduced box is not the coarse-graining of the source")
        elif o.ns_violations(reduced):
            errors.append("reduced box is not a valid box")
        elif not getattr(o.hierarchy(reduced), mode):
            errors.append(f"reduced box lost its {mode} disagreement")
        record = {"exit": code, "box": doc["box"]["p"], "plan": plan}
        return Outcome(1, record, errors, {})


# ---------------------------------------------------------------------------

# instance counts of the exhaustive enumeration, by (omega, denominator)
PINNED_INSTANCES = {(4, 2): 10878, (4, 3): 53910, (5, 2): 138878, (4, 4): 154238}


@workload
class Classical(Workload):
    """verify_agreement_theorem: integer bitmask enumeration, no Fraction
    arithmetic and no LP.  The enumeration is deterministic, so the seed
    is ignored.  The timed calls use (4, 2), short enough for a latency
    tail; the larger pinned pairs are verified once per traced run."""

    name = "classical-exhaustive"
    unit = "instances"
    prefix = 4
    min_calls = 50
    tail_pct = 80

    def load(self):
        super().load()
        self.classical = importlib.import_module("agreebox.classical")

    def warmup(self):
        self.classical.verify_agreement_theorem(3, 2)

    def items(self, seed):
        while True:
            yield (4, 2)

    def pinned(self):
        return [(4, 3), (5, 2), (4, 4)]

    def call(self, item):
        return self.classical.verify_agreement_theorem(*item)

    def check(self, item, report):
        errors = []
        if report.violations:
            errors.append(f"{item}: {report.violations} violations of the agreement property")
        if not report.complete or report.instances != PINNED_INSTANCES[item]:
            errors.append(f"{item}: {report.instances} instances, pinned {PINNED_INSTANCES[item]}")
        record = [list(item), report.instances, report.certainty_instances,
                  report.violations, report.max_iterations]
        return Outcome(report.instances, record, errors, {})
