"""The package's record classes behave as the dataclasses they replaced:
constructors, defaults, validation messages, equality, hashing, frozen
fields and ``repr``."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from ksym.bundles import (
    KCotangentChart,
    KTangentChart,
    TangentStructure,
    cotangent_bundle,
    tangent_bundle,
)
from ksym.calculus import (
    ChartMismatchError, PForm, PotentialEvaluator, ScalarField, VectorField, one_form,
)
from ksym import cli
from ksym.cli import LoadedModel, Report, load_model, resolve_model_path
from ksym.models import bundled_model_names
from ksym.conservation import ConservationLaw
from ksym.dynamics import FieldSystem, KVectorField, build_system
from ksym.expr import ChartSpace, Check, Coord, Num, _name_index_map, _Token, base_chart
from ksym.sections import SectionGrid

IDENTITY = {Check, ConservationLaw, SectionGrid, LoadedModel}  # were eq=False
MUTABLE = {FieldSystem, Report}  # were not frozen, so unhashable
HOLDS_A_DICT = {PForm, KCotangentChart}  # hashing them fails on the dict, as it did


@functools.cache
def fields_of() -> dict:
    """Per class, its fields in constructor order with values of the right kinds."""
    chart = base_chart(2)
    tb, cb = tangent_bundle(2, 1), cotangent_bundle(2, 1)
    system = build_system("lagrangian", 1, 1, "v_1_1^2/2 - x_1^2")
    model = load_model(resolve_model_path("free_particle"))
    one = ScalarField(chart, Num(1.0))
    return {
        ChartSpace: dict(n=2, k=1, kind="base"),
        _Token: dict(kind="num", text="1", offset=0),
        Check: dict(kind="sampled", holds=True, max_residual=0.0, tolerance=1e-9,
                    witness=np.zeros(2), extra={"note": 1}),
        ScalarField: dict(chart=chart, expr=Coord(1, "x_2")),
        VectorField: dict(chart=tb.chart, components=tb.liouville.components),
        PForm: dict(chart=cb.chart, degree=1, components=dict(cb.theta[0].components)),
        KCotangentChart: dict(chart=cb.chart, theta=cb.theta, omega=cb.omega),
        TangentStructure: dict(A=1, chart=tb.chart),
        KTangentChart: dict(chart=tb.chart, liouville=tb.liouville, structures=tb.structures),
        KVectorField: dict(chart=tb.chart, fields=(tb.liouville,)),
        FieldSystem: {name: getattr(system, name) for name in ("kind", "chart", "function")},
        ConservationLaw: dict(chart=chart, components=(one,), provenance="user",
                              potentials=(PotentialEvaluator(one_form(chart, [one.expr]), [0, 0]),),
                              ingredients={"field": "ddx"}),
        SectionGrid: dict(chart=chart, step=0.25, values=np.zeros((3, 2))),
        LoadedModel: {name: getattr(model, name) for name in (
            "name", "kind", "chart", "system", "params", "fields", "laws", "label")},
        Report: dict(command="check regularity", model="m", seed=7, samples=64, checks=[],
                     extra={"note": 1}, elapsed_ms=5),
    }


RECORDS = [
    ChartSpace, _Token, Check, ScalarField, VectorField, PForm, KCotangentChart, TangentStructure,
    KTangentChart, KVectorField, FieldSystem, ConservationLaw, SectionGrid, LoadedModel, Report,
]
by_class = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def test_every_record_class_is_listed():
    assert len(RECORDS) == 15 and set(RECORDS) == set(fields_of())


@by_class
def test_a_record_builds_positionally_and_by_keyword(cls):
    fields = fields_of()[cls]
    for record in (cls(*fields.values()), cls(**fields)):
        for name, value in fields.items():
            stored = getattr(record, name)
            assert stored is value or stored == value, name  # PForm copies its dict


@by_class
def test_records_compare_as_the_dataclasses_did(cls):
    fields = fields_of()[cls]
    a, b = cls(**fields), cls(**fields)
    assert a == a and not a != a
    assert a.__eq__(object()) is NotImplemented
    if cls in IDENTITY:
        assert a != b and len({a, b}) == 2
        return
    assert a == b and not a != b
    if cls in MUTABLE:
        assert cls.__hash__ is None
    elif cls in HOLDS_A_DICT:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@by_class
def test_a_formerly_frozen_record_refuses_assignment(cls):
    fields = fields_of()[cls]
    record = cls(**fields)
    for name in fields:
        stored = getattr(record, name)
        if cls in MUTABLE:
            setattr(record, name, None)
            assert getattr(record, name) is None
            continue
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is stored


@pytest.mark.parametrize("build, field", [
    (lambda: Report("list-models", None, None, None, []), "extra"),
    (lambda: Check("sampled", True, 0.0, 1e-9, ()), "extra"),
    (lambda: ConservationLaw(base_chart(1), (ScalarField(base_chart(1), Num(1.0)),), "user"),
     "ingredients"),
])
def test_defaults_are_fresh_per_record(build, field):
    first, second = build(), build()
    assert getattr(first, field) == {}
    assert getattr(first, field) is not getattr(second, field)


def test_a_report_starts_at_zero_elapsed_ms():
    assert Report("list-models", None, None, None, []).elapsed_ms == 0


def test_a_check_stores_its_witness_as_a_float_array():
    witness = Check("sampled", True, 0.0, 1e-9, [1, 2]).witness
    assert witness.dtype == float and witness.tolist() == [1.0, 2.0]


def _bad_records():
    chart, tb = base_chart(2), tangent_bundle(1, 1)
    other = base_chart(2, 2)
    one = ScalarField(chart, Num(1.0))
    return [
        (lambda: ChartSpace(1, 1, "bogus"), ValueError, "unknown chart kind 'bogus'"),
        (lambda: ChartSpace(0, 1, "base"), ValueError, "chart requires n >= 1 and k >= 1"),
        (lambda: ChartSpace(1, 0, "base"), ValueError, "chart requires n >= 1 and k >= 1"),
        (lambda: ScalarField(chart, Coord(2, "x_3")), ValueError,
         "coordinate 'x_3' (slot 2) does not belong to the chart"),
        (lambda: VectorField(chart, (Num(0.0),)), ValueError, "expected 2 components, got 1"),
        (lambda: PForm(chart, -1, {}), ValueError, "negative degree -1"),
        (lambda: PForm(chart, 1, {(0, 1): Num(1.0)}), ValueError,
         "key (0, 1) has wrong length for degree 1"),
        (lambda: PForm(chart, 1, {(2,): Num(1.0)}), ValueError, "key (2,) out of coordinate range"),
        (lambda: PForm(chart, 2, {(1, 0): Num(1.0)}), ValueError,
         "key (1, 0) is not strictly increasing"),
        (lambda: KVectorField(tb.chart, (tb.liouville, tb.liouville)), ValueError,
         "expected 1 component fields, got 2"),
        (lambda: KVectorField(tangent_bundle(2, 1).chart, (tb.liouville,)), ChartMismatchError,
         "chart mismatch: k-tangent(1,1) vs k-tangent(2,1)"),
        (lambda: ConservationLaw(chart, (one,), "guess"), ValueError, "unknown provenance 'guess'"),
        (lambda: ConservationLaw(chart, (one, one), "user"), ValueError,
         "expected 1 components on this chart, got 2"),
        (lambda: ConservationLaw(other, (one, one), "user"), ChartMismatchError,
         "chart mismatch: base(2,1) vs base(2,2)"),
        (lambda: ConservationLaw(chart, (one,), "user", (None, None)), ValueError,
         "expected 1 potentials on this chart, got 2"),
        (lambda: ConservationLaw(chart, (one,), "user", ()), ValueError,
         "expected 1 potentials on this chart, got 0"),
        (lambda: ConservationLaw(chart, (one,), "user", (PotentialEvaluator(
            one_form(base_chart(3), [Num(1.0)]), [0, 0, 0]),)), ChartMismatchError,
         "chart mismatch: base(3,1) vs base(2,1)"),
    ]


@pytest.mark.parametrize("build, error, message", _bad_records())
def test_a_record_refuses_bad_fields_with_the_same_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_equal_charts_built_apart_share_one_name_index_map_entry():
    a, b = ChartSpace(7, 5, "base"), ChartSpace(7, 5, "base")
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b and a != ChartSpace(7, 4, "base")
    before = _name_index_map.cache_info().currsize
    assert _name_index_map(a) is _name_index_map(b)
    assert _name_index_map.cache_info().currsize - before <= 1


def test_a_record_repr_reads_as_the_dataclass_repr():
    assert repr(base_chart(1)) == "ChartSpace(n=1, k=1, kind='base')"
    assert repr(_Token("num", "1", 0)) == "_Token(kind='num', text='1', offset=0)"
    assert repr(Report("c", None, 1, 2, [])) == (
        "Report(command='c', model=None, seed=1, samples=2, checks=[], extra={}, elapsed_ms=0)"
    )


@pytest.mark.parametrize("kind, function", [
    ("lagrangian", "v_1_1^2/2 - x_1^2"), ("hamiltonian", "p_1_1^2/2 + x_1^2"),
])
def test_a_field_system_derives_its_tables_on_first_read_and_keeps_them(kind, function):
    system = build_system(kind, 1, 1, function)
    derived = ("theta", "omega", "energy", "target_differential")
    assert set(derived).isdisjoint(vars(system))
    for name in derived:
        assert getattr(system, name) is getattr(system, name)
    assert set(derived) <= set(vars(system))


@pytest.mark.parametrize("name", bundled_model_names())
def test_a_bundled_models_fields_hold_tuples(name):
    # a list of components could be changed after its one chart check
    model = load_model(resolve_model_path(name))
    evolution = cli._named_family(model, ",".join([next(iter(model.fields))] * model.chart.k))
    for record, field in [*((X, "components") for X in model.fields.values()),
                          (evolution, "fields")]:
        held = getattr(record, field)
        assert type(held) is tuple
        with pytest.raises(TypeError):
            held[0] = Coord(7, "bogus")
