"""The frozen value types and their shared base: each __init__ takes the
fields in declaration order and fills the instance __dict__; equality,
hashing and repr are fieldwise; assignment raises AttributeError; the
errors of a bad field hold; every Hyp2F1 construction runs __post_init__
exactly once; and importing the CLI loads neither dataclasses nor inspect."""

import ast
import inspect
import math
import subprocess
import sys

import pytest

from hyplegendre import (
    Hyp2F1,
    InvalidParams,
    LegendreTriple,
    OdeParams,
    PoleError,
    UniversalParams,
)
from hyplegendre.hypergeom import _KummerPlan
from hyplegendre.ode_solutions import (
    BranchId,
    CoordinateMap,
    IndicialExponents,
    MapVariant,
    RootPair,
    SolutionBranch,
)
from hyplegendre.verify import SuiteResult

PARAMS = dict(a1=-1.5, b1=0.3, a2=0.1, b2=-0.6, a3=-0.4, b3=0.05, c3=-0.5,
              lam=3.2, xi1=-1.2, xi2=0.9)
ZMAP = CoordinateMap(MapVariant.MAP_II, -1.2, 0.9)
ROOTS = RootPair(-0.25, 0.75)


def instances():
    """(class, keyword arguments) of one instance of each value type."""
    return [
        (Hyp2F1, dict(a=-2.0, b=0.5, c=1.5)),
        (OdeParams, PARAMS),
        (RootPair, dict(first=0.5, second=1.25, is_complex=True)),
        (IndicialExponents, dict(mu1=ROOTS, mu2=RootPair(0.0, 2.0), mu_inf=ROOTS)),
        (CoordinateMap, dict(variant=MapVariant.MAP_I, xi1=-1.0, xi2=2.0)),
        (SolutionBranch, dict(mu1=0.25, mu2=-0.5, extra_power=0.0,
                              hyp=Hyp2F1(0.4, 0.7, 1.9), map=ZMAP,
                              branch_id=BranchId.BREVE1)),
        (LegendreTriple, dict(k=2.5, m=0.5, n=-1.5)),
        (UniversalParams, dict(vars(UniversalParams.from_degrees(3.5, 1.5)))),
        (SuiteResult, dict(name="pfaff", cases=5, passed=4, failed=1, max_err=2.5e-15)),
    ]


def other_instance(cls, kwargs):
    """One instance unequal to cls(**kwargs): its first field changed, or,
    as UniversalParams' fields are linked, the pack one degree up."""
    if cls is UniversalParams:
        return UniversalParams.from_degrees(kwargs["ell"] + 1.0, kwargs["mprime"])
    name, value = next(iter(kwargs.items()))
    return cls(**{**kwargs, name: -7.0 if isinstance(value, float) else None})


def field_values(obj):
    return tuple(getattr(obj, name) for name in obj._fields)


@pytest.mark.parametrize("cls, kwargs", instances(), ids=[c.__name__ for c, _ in instances()])
class TestGeneratedSemantics:
    """What the dataclass decorator generated, now given by the base."""

    def test_init_takes_the_init_fields_in_order(self, cls, kwargs):
        params = list(inspect.signature(cls).parameters)
        assert params == list(kwargs) == list(cls._fields[:len(params)])
        # the one field not given is derived
        assert cls._fields[len(params):] == (("terminating_degree",) if cls is Hyp2F1 else ())

    def test_keyword_and_positional_construction_agree(self, cls, kwargs):
        by_name, by_place = cls(**kwargs), cls(*kwargs.values())
        for name, value in kwargs.items():
            assert getattr(by_name, name) is value
        assert by_name == by_place and hash(by_name) == hash(by_place)

    def test_eq_hash_repr_are_fieldwise(self, cls, kwargs):
        obj = cls(**kwargs)
        values = field_values(obj)
        assert hash(obj) == hash(values)
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(cls._fields, values))
        assert repr(obj) == f"{cls.__qualname__}({fields})"
        assert obj != other_instance(cls, kwargs) and obj != values
        assert obj.__eq__(values) is NotImplemented

    def test_assignment_raises(self, cls, kwargs):
        obj = cls(**kwargs)
        name = next(iter(kwargs))
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, kwargs[name])
        with pytest.raises(AttributeError, match="^cannot assign to field 'unlisted'$"):
            obj.unlisted = 1.0
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) is kwargs[name] and not hasattr(obj, "unlisted")


def test_the_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, and with it ast, dis and tokenize: most
    # of the import every CLI call pays before it computes anything
    code = ("import sys; before = set(sys.modules); import hyplegendre.cli; "
            "print(sorted(set(sys.modules) - before))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    added = set(ast.literal_eval(res.stdout))
    assert "hyplegendre.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


# the parameter packs, the JSON names of their fields in order, and their
# fields that must be finite: UniversalParams' n_index has its own rule
PACKS = [
    (OdeParams, PARAMS,
     ("a1", "b1", "a2", "b2", "a3", "b3", "c3", "lambda", "xi1", "xi2"), OdeParams._fields),
    (LegendreTriple, dict(k=2.5, m=0.5, n=-1.5), ("k", "m", "n"), ("k", "m", "n")),
    (UniversalParams, dict(vars(UniversalParams.from_degrees(3.5, 1.5))),
     ("ell", "mprime", "a", "b", "c", "m", "lambda", "n_index"),
     ("ell", "mprime", "a", "b", "c", "m", "lam")),
]


def finite_fields():
    """(pack, its keyword arguments, one field that must be finite); an
    OdeParams case is named by its field alone, the others by pack.field."""
    return [pytest.param(cls, kwargs, name,
                         id=name if cls is OdeParams else f"{cls.__name__}.{name}")
            for cls, kwargs, _, names in PACKS for name in names]


class TestOdeParams:
    def test_from_dict_round_trip(self):
        # every pack: to_dict names the fields by the keys of its JSON
        # file, in field order, and from_dict reads them back
        for cls, kwargs, keys, _ in PACKS:
            p = cls(**kwargs)
            d = p.to_dict()
            assert list(d) == list(keys), cls
            assert list(d.values()) == list(kwargs.values()), cls
            assert cls.from_dict(d) == p, cls
        assert OdeParams(**PARAMS).to_dict()["lambda"] == PARAMS["lam"]

    @pytest.mark.parametrize("cls, kwargs, name", finite_fields())
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_is_named(self, cls, kwargs, name, bad):
        with pytest.raises(InvalidParams, match=f"^field '{name}' must be finite$"):
            cls(**{**kwargs, name: bad})

    def test_first_non_finite_field_is_named(self):
        with pytest.raises(InvalidParams, match="'b2'"):
            OdeParams(**{**PARAMS, "b2": math.nan, "lam": math.inf})

    @pytest.mark.parametrize("xi2", [-1.2, -2.0])
    def test_singular_points_out_of_order(self, xi2):
        with pytest.raises(InvalidParams, match="xi1 < xi2"):
            OdeParams(**{**PARAMS, "xi2": xi2})


UNIVERSAL = UniversalParams.from_degrees(3.0, 1.0).to_dict()


@pytest.mark.parametrize("make, name", [
    pytest.param(lambda: LegendreTriple(10**400, 0.0, 0.0), "k", id="LegendreTriple-int"),
    pytest.param(lambda: Hyp2F1(10**400, 1, 1), "a", id="Hyp2F1-int"),
    # the non-finite message would print b, past int's str() digit limit
    pytest.param(lambda: Hyp2F1(math.nan, 10**5000, 1), "b", id="Hyp2F1-nan-int"),
    pytest.param(lambda: UniversalParams.from_degrees(ell=10**400, mprime=1.0), "ell",
                 id="from_degrees-int"),
    pytest.param(lambda: UniversalParams.from_degrees(3.0, 1.0, a=1.0, c=10**400, m=1.0), "c",
                 id="from_degrees-c-int"),
    pytest.param(lambda: UniversalParams.from_dict({**UNIVERSAL, "n_index": "2"}), "n_index",
                 id="UniversalParams.from_dict-str"),
    pytest.param(lambda: OdeParams.from_dict({**OdeParams(**PARAMS).to_dict(), "b2": "x"}),
                 "b2", id="OdeParams.from_dict-str"),
])
def test_a_field_that_is_no_float_is_named(make, name):
    # an int past the float range or a str: math.isfinite and float() raised
    # OverflowError, TypeError or ValueError, naming no field
    message = f"^field '{name}' must be a number in the float range$"
    with pytest.raises(InvalidParams, match=message):
        make()


class TestHyp2F1Fields:
    @pytest.mark.parametrize("a, b, degree", [
        (-3.0, -1.0, 1), (-1.0, -3.0, 1), (-2.0, 0.5, 2), (0.5, -4.0, 4),
        (-2.0 + 1e-12, 0.5, 2), (0.5, 0.7, None), (-2.5, 0.5, None),
    ])
    def test_terminating_degree_is_the_smaller_upper(self, a, b, degree):
        assert Hyp2F1(a, b, 1.5).terminating_degree == degree

    def test_pole_in_c_reached_by_the_series(self):
        with pytest.raises(PoleError):
            Hyp2F1(0.5, 0.5, -2.0)
        with pytest.raises(PoleError):
            Hyp2F1(-2.0, 0.5, -2.0)  # the degree-2 polynomial reaches (c)_3
        assert Hyp2F1(-1.0, 0.5, -2.0).terminating_degree == 1  # stops before it

    def test_degree_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Hyp2F1(0.5, 0.5, 1.5, 7)


class TestConstructionCount:
    """bench/tracing.py counts Hyp2F1 constructions through __post_init__."""

    @pytest.fixture()
    def count(self, monkeypatch):
        seen = [0]
        post_init = Hyp2F1.__post_init__

        def counted(obj):
            seen[0] += 1
            post_init(obj)

        monkeypatch.setattr(Hyp2F1, "__post_init__", counted)
        return seen

    def test_each_construction_counts_once(self, count):
        p = Hyp2F1(0.4, 0.7, 1.9)
        assert count[0] == 1
        for name in ("_pfaff",):
            before = count[0]
            getattr(p, name)
            getattr(p, name)  # kept: no second construction
            assert count[0] == before + 1, name
        plan = _KummerPlan(0.4, 0.7, 1.9)
        for k in range(4):
            before = count[0]
            plan.triple(k)
            plan.triple(k)
            assert count[0] == before + 1, k

    def test_a_rejected_construction_counts_too(self, count):
        with pytest.raises(PoleError):
            Hyp2F1(0.5, 0.5, -2.0)
        assert count[0] == 1
