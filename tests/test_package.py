"""The package surface: lazily resolved exports and the immutable records."""

import ast
import importlib
from pathlib import Path

import pytest

import sumrank
from sumrank import acd, tlrs
from sumrank._routes import RELATIONS
from sumrank.errors import BadParamsError
from sumrank.fields import FieldTower
from sumrank.skew import QuotientCtx


def test_every_export_is_the_submodules_own_object():
    assert set(sumrank.__all__) == {
        "MID", "TOP", "Elem", "FieldTower",
        "Mat", "det", "meet_dim", "schur_residual",
        "QuotientCtx", "SkewPoly", "ThetaPoly", "build_h_lambda",
        "GramReport", "TlrsCode", "TlrsParams", "build_code", "gram", "hull_oracle",
        "lcd_criterion", "min_sum_rank_distance",
        "AcdParams", "AcdReport", "acd_check", "acd_oracle", "code_basis",
        "lambda_search", "mds_criterion", "min_distance_oracle", "power_sums",
        "t_matrix",
    }
    listed = dir(sumrank)
    for name, module in sumrank._EXPORTS.items():
        assert getattr(sumrank, name) is getattr(
            importlib.import_module(f"sumrank.{module}"), name
        ), name
        assert name in listed, name


def _names_read(path):
    """Every name the module at path loads, and every attribute it looks up."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_export_is_read_outside_the_tests():
    """An export that no module of the package, demo or benchmark reads,
    apart from its own definition, serves only the tests and belongs with
    them."""
    root = Path(__file__).resolve().parents[1]
    read = set()
    for top in ("src", "demos", "perfbench"):
        for path in (root / top).rglob("*.py"):
            if "tests" not in path.relative_to(root).parts:
                read.update(_names_read(path))
    assert [name for name in sumrank.__all__ if name not in read] == []


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from sumrank import *", namespace)
    assert set(sumrank.__all__) <= set(namespace)
    assert namespace["acd_check"] is acd.acd_check
    with pytest.raises(AttributeError, match="no_such_name"):
        sumrank.no_such_name
    with pytest.raises(ImportError):
        exec("from sumrank import no_such_name", {})


def test_export_follows_a_swapped_submodule_attribute(monkeypatch):
    """Exports are looked up on every read, so a wrapper put on the
    submodule is what the package hands out, and the original is back once
    the wrapper is removed."""
    original = acd.acd_check
    assert sumrank.acd_check is original

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(acd, "acd_check", wrapped)
    assert sumrank.acd_check is wrapped
    monkeypatch.undo()
    assert sumrank.acd_check is original


@pytest.fixture
def params25(f25):
    return tlrs.TlrsParams(QuotientCtx.build(f25, 2), 1, 0, f25.parse_top("2+1u"))


def test_records_are_immutable(params25):
    with pytest.raises(AttributeError):
        params25.k = 2
    with pytest.raises(AttributeError):
        del params25.k
    with pytest.raises(AttributeError):
        params25.extra = 1
    assert params25.k == 1


def test_records_compare_and_hash_fieldwise(f25, params25):
    same = tlrs.TlrsParams(ctx=params25.ctx, k=1, h=0, eta=f25.parse_top("2+1u"))
    assert same == params25 and hash(same) == hash(params25)
    assert tlrs.TlrsParams(params25.ctx, 1, 0, f25.parse_top("1+1u")) != params25
    assert params25 != (params25.ctx, 1, 0, params25.eta)
    assert repr(same) == repr(params25)
    assert repr(same).startswith("TlrsParams(ctx=QuotientCtx(tower=FieldTower(")


def test_record_defaults_and_arguments(params25):
    report = tlrs.gram(tlrs.build_code(params25))
    assert (report.lcd_by_oracle, report.hull_dim) == (None, None)
    fields = {name: getattr(report, name) for name in report._fields}
    checked = tlrs.GramReport(**{**fields, "lcd_by_oracle": True, "hull_dim": 0})
    assert (checked.lcd_by_oracle, checked.hull_dim) == (True, 0)
    assert checked.gram is report.gram
    with pytest.raises(TypeError, match="missing the field 'eta'"):
        tlrs.TlrsParams(params25.ctx, 1, 0)
    with pytest.raises(TypeError):
        tlrs.TlrsParams(params25.ctx, 1, 0, params25.eta, 5)
    with pytest.raises(TypeError):
        tlrs.TlrsParams(params25.ctx, 1, k=1, eta=params25.eta)
    with pytest.raises(TypeError):
        tlrs.TlrsParams(params25.ctx, 1, 0, params25.eta, kk=2)


def test_record_validation_runs_on_construction_and_replace(params25):
    """A copy of a record with one field replaced is built as a new
    instance from the old one's fields, so it is validated like any."""
    fields = {name: getattr(params25, name) for name in params25._fields}
    with pytest.raises(BadParamsError, match="k = 9"):
        tlrs.TlrsParams(params25.ctx, 9, 0, params25.eta)
    with pytest.raises(BadParamsError, match="k = 9"):
        tlrs.TlrsParams(**{**fields, "k": 9})
    with pytest.raises(BadParamsError, match="h = 2"):
        tlrs.TlrsParams(**{**fields, "h": 2})



# the properties that one route alone certifies, for now: distance and the
# hull dimension as a number, in both families
ONE_ROUTE = {
    ("tlrs", "hull dimension"), ("tlrs", "minimum distance"),
    ("acd", "hull dimension"), ("acd", "minimum distance"),
}


def test_route_tables_name_what_the_reports_hold():
    """Each family's route table gives every property a known relation and
    at least two routes, but for the pinned one-route properties; each
    route names an attribute its report fills once every route has run,
    and on such reports the routes agree."""
    tower = FieldTower(5, 1, 2)
    params = tlrs.TlrsParams(QuotientCtx.build(tower, 2), 1, 0, tower.parse_top("2+1u"))
    reports = {
        "tlrs": tlrs.gram(tlrs.build_code(params), with_oracle=True, with_distance=True),
        "acd": acd.build_report(acd.AcdParams.make(tower, 1, [2, 3]), with_distance=True),
    }
    one_route = set()
    for family, module in (("tlrs", tlrs), ("acd", acd)):
        report = reports[family]
        for prop, (relation, routes) in module.ROUTES.items():
            assert relation in RELATIONS, (family, prop)
            if len(routes) < 2:
                one_route.add((family, prop))
            for route, attr in routes.items():
                assert getattr(report, attr) is not None, (family, prop, route)
        assert report.routes_agree, family
    assert one_route == ONE_ROUTE
