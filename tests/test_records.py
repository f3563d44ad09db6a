"""The result records: repr, equality, hash, immutability and defaults.

Nine records are NamedTuples; Box, LocalityVerdict, BellCertificate,
OntologicalModel and AgreementCheckReport stay frozen dataclasses.  Each
repr is pinned as the text the record printed as a frozen dataclass.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction as F

import pytest

import agreebox as ab
from agreebox.classify import Conclusion

HIERARCHY = ab.CertaintyHierarchy(alphas=((0, 1), (0,), (0,)), betas=((0,), (0,), (0,)), N=1,
                                  qA=F(1, 2), qB=F(0))
FORM = ab.TableForm(kind="ccd", params=(F(1, 2), F(1, 4), F(1, 2), F(0)), constraints_ok=True)
FRAME = ab.RelabelFrame(sigma_x=(1, 0), sigma_y=(0, 1), pi_a=((0, 1), (1, 0)),
                        pi_b=((0, 1), (0, 1)))

# (record class, its fields by keyword, in field order, its repr)
RECORDS = [
    (ab.ValidationResult, {"ok": False, "structural": (), "violations": ("p(00|00) < 0",)},
     "ValidationResult(ok=False, structural=(), violations=('p(00|00) < 0',))"),
    (ab.RelabelFrame, FRAME._asdict(),
     "RelabelFrame(sigma_x=(1, 0), sigma_y=(0, 1), pi_a=((0, 1), (1, 0)), pi_b=((0, 1), (0, 1)))"),
    (ab.EventPair, {"EA": frozenset({0, 3}), "EB": frozenset({3})},
     "EventPair(EA=frozenset({0, 3}), EB=frozenset({3}))"),
    (ab.TowerResult, {"levels": ((frozenset({0, 1}), frozenset({1})),) * 2, "N": 0},
     "TowerResult(levels=((frozenset({0, 1}), frozenset({1})), (frozenset({0, 1}), "
     "frozenset({1}))), N=0)"),
    (ab.TableForm, FORM._asdict(),
     "TableForm(kind='ccd', params=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), "
     "Fraction(0, 1)), constraints_ok=True)"),
    (ab.ClassificationVerdict,
     {"local": False, "ccd_form": FORM, "sd_form": None, "tsirelson_gap": F(-1),
      "hardy": False, "conclusion": Conclusion.POSTQUANTUM, "frame": FRAME},
     "ClassificationVerdict(local=False, ccd_form=TableForm(kind='ccd', params=(Fraction(1, 2), "
     "Fraction(1, 4), Fraction(1, 2), Fraction(0, 1)), constraints_ok=True), sd_form=None, "
     "tsirelson_gap=Fraction(-1, 1), hardy=False, conclusion=<Conclusion.POSTQUANTUM: "
     "'POSTQUANTUM'>, frame=RelabelFrame(sigma_x=(1, 0), sigma_y=(0, 1), pi_a=((0, 1), (1, 0)), "
     "pi_b=((0, 1), (0, 1))))"),
    (ab.CertaintyHierarchy, HIERARCHY._asdict(),
     "CertaintyHierarchy(alphas=((0, 1), (0,), (0,)), betas=((0,), (0,), (0,)), N=1, "
     "qA=Fraction(1, 2), qB=Fraction(0, 1))"),
    (ab.DisagreementReport,
     {"hierarchy": HIERARCHY, "ccd": True, "sd": False, "witness": (0, 0, 0, 0),
      "perfectly_correlated": True, "reason": "null conditioning event"},
     "DisagreementReport(hierarchy=CertaintyHierarchy(alphas=((0, 1), (0,), (0,)), "
     "betas=((0,), (0,), (0,)), N=1, qA=Fraction(1, 2), qB=Fraction(0, 1)), ccd=True, "
     "sd=False, witness=(0, 0, 0, 0), perfectly_correlated=True, "
     "reason='null conditioning event')"),
    (ab.ReductionPlan,
     {"kept_inputs": ((0, 1), (0, 1)), "alpha_group": (0,), "beta_group": (0, 2), "mode": "sd"},
     "ReductionPlan(kept_inputs=((0, 1), (0, 1)), alpha_group=(0,), beta_group=(0, 2), "
     "mode='sd')"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_a_record_prints_as_it_did_as_a_dataclass(cls, fields, text):
    assert repr(cls(**fields)) == text
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_a_record_compares_and_hashes_by_its_fields(cls, fields, text):
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    assert record == cls(*fields.values()) == tuple(fields.values())
    assert hash(record) == hash(tuple(fields.values()))
    assert record._asdict() == fields
    first = next(iter(fields))
    changed = record._replace(**{first: "changed"})
    assert changed != record and getattr(changed, first) == "changed"


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_a_record_refuses_assignment(cls, fields, text):
    record = cls(**fields)
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == tuple(fields.values())


def test_only_the_last_fields_of_two_records_have_defaults():
    defaults = {cls.__name__: cls._field_defaults for cls, _, _ in RECORDS}
    assert {name: d for name, d in defaults.items() if d} == {
        "ClassificationVerdict": {"frame": None}, "DisagreementReport": {"reason": ""}}
    verdict = ab.ClassificationVerdict(True, None, None, None, False, Conclusion.LOCAL)
    assert verdict.frame is None
    report = ab.DisagreementReport(HIERARCHY, False, False, (0, 0, 0, 0), True)
    assert report.reason == ""


def test_the_record_properties_read_level_n():
    levels = ((frozenset({0, 1}), frozenset({1})), (frozenset({0}), frozenset()))
    tower = ab.TowerResult(levels=levels, N=1)
    assert (tower.A_N, tower.B_N) == (frozenset({0}), frozenset())
    assert (HIERARCHY.alpha_N, HIERARCHY.beta_N) == ((0,), (0,))
    assert FRAME.is_identity() is False
    assert ab.RelabelFrame((0, 1), (0, 1), ((0, 1), (0, 1)), ((0, 1), (0, 1))).is_identity()


def test_exactly_five_dataclasses_remain():
    # callers use the dataclass API on these five: dataclasses.fields(Box),
    # and dataclasses.replace or asdict on the other four
    found = set()
    for info in pkgutil.iter_modules(ab.__path__):
        module = importlib.import_module(f"agreebox.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    found.add(name)
    assert found == {"Box", "LocalityVerdict", "BellCertificate", "OntologicalModel",
                     "AgreementCheckReport"}
