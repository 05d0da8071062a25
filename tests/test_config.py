"""Run-config schema: malformed manifests, schema keys, docs and properties."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ccspectral as cc
from ccspectral.cli import CarnotConfig, CertificateConfig, ChartConfig, CheegerConfig, \
    ConfigError, GridConfig, NodalConfig, RunConfig, SegmentConfig, SolverConfig, \
    StructureConfig, TableConfig

ROOT = Path(__file__).resolve().parents[1]

CUSTOM = {"kind": "custom", "chart": {"x_range": [0, 1], "y_range": [0, 1]},
          "fields": [["1", "0"], ["0", "x"]]}


def custom(**change):
    return {"structure": dict(CUSTOM, **change)}


def segment(**change):
    return {"bc": [dict({"edge": "x_min", "condition": "dirichlet"}, **change)]}


# Each malformed config with the substrings its one-line error must contain:
# the offending key's name, and its value wherever the message shows one.
MALFORMED = [
    ([], ["configuration"]),
    ({"mesh": {}}, ["mesh"]),
    ({"grid": 5}, ["grid"]),
    ({"solver": []}, ["solver"]),
    ({"grid": {"nx": 24, "nz": 4}}, ["nz"]),
    ({"grid": {"nx": "24"}}, ["nx", "'24'"]),
    ({"grid": {"nx": True}}, ["nx", "True"]),
    ({"grid": {"nx": 2.5}}, ["nx", "2.5"]),
    ({"grid": {"ny": 2}}, ["ny", "2"]),
    ({"structure": {"kind": "minkowski"}}, ["kind", "'minkowski'"]),
    ({"structure": {"kind": 3}}, ["kind", "3"]),
    ({"structure": {"kind": "grushin", "foo": 1}}, ["foo"]),
    ({"structure": {"kind": "grushin", "chart": {}}}, ["chart", "grushin"]),
    ({"structure": {"kind": "euclidean", "fields": [["1", "0"]]}}, ["fields", "custom"]),
    ({"structure": {"kind": "grushin", "density": "1"}}, ["density", "custom"]),
    ({"structure": {"kind": "custom", "fields": [["1", "0"]]}}, ["chart", "custom"]),
    ({"structure": {"kind": "custom", "chart": {}}}, ["fields", "custom"]),
    (custom(fields=[]), ["fields"]),
    (custom(fields=[["1"]]), ["fields[0]"]),
    (custom(fields=[["1", 0]]), ["fields[0][1]", "0"]),
    (custom(density=1), ["density", "1"]),
    (custom(density=None), ["density", "None"]),
    (custom(fields=None), ["fields"]),
    ({"structure": {"kind": "euclidean", "chart": {"z_range": [0, 1]}}}, ["z_range"]),
    ({"structure": {"kind": "euclidean", "chart": {"x_range": [0.0]}}}, ["x_range", "[0.0]"]),
    ({"structure": {"kind": "euclidean", "chart": {"x_range": [0.0, "1"]}}},
     ["x_range[1]", "'1'"]),
    ({"structure": {"kind": "euclidean", "chart": {"x_range": [False, 1.0]}}},
     ["x_range[0]", "False"]),
    ({"structure": {"kind": "euclidean", "chart": {"x_range": [1.0, 0.0]}}},
     ["x_range", "[1.0, 0.0]"]),
    ({"structure": {"kind": "euclidean", "chart": {"y_range": [0.5, 0.5]}}},
     ["y_range", "[0.5, 0.5]"]),
    ({"structure": {"kind": "euclidean", "chart": {"periodic_x": 1}}}, ["periodic_x", "1"]),
    ({"bc": "robin"}, ["bc", "'robin'"]),
    ({"bc": 5}, ["bc", "5"]),
    ({"bc": [5]}, ["bc[0]"]),
    ({"bc": [{"edge": "x_min"}]}, ["bc[0]", "condition"]),
    (segment(side=1), ["side"]),
    (segment(edge=1), ["bc[0].edge", "1"]),
    (segment(range=[0.5]), ["range", "[0.5]"]),
    (segment(range=None), ["range", "None"]),
    (segment(edge="x_mid"), ["bc[0].edge", "'x_mid'"]),
    (segment(condition="robin"), ["bc[0].condition", "'robin'"]),
    (segment(range=[0.5, 0.2]), ["bc[0].range", "[0.5, 0.2]"]),
    ({"solver": {"k": 0}}, ["k", "0"]),
    ({"solver": {"k": True}}, ["k", "True"]),
    ({"solver": {"tol": -1.0}}, ["tol", "-1.0"]),
    ({"solver": {"tol": "small"}}, ["tol", "'small'"]),
    # the eigensolver picks its path from the problem; no key selects it
    ({"solver": {"method": "dense"}}, ["unknown key", "method"]),
    ({"solver": {"dense_threshold": 10}}, ["unknown key", "dense_threshold"]),
    ({"solver": {"seed": 1.5}}, ["seed", "1.5"]),
    ({"solver": {"maxiter": 5}}, ["maxiter"]),
    ({"nodal": {"rel_threshold": "a"}}, ["rel_threshold", "'a'"]),
    ({"nodal": {"gap_rel_tol": None}}, ["gap_rel_tol", "None"]),
    ({"cheeger": {"levels": 0}}, ["levels", "0"]),
    ({"cheeger": {"sweeps": 2}}, ["sweeps"]),
    ({"cheeger": {"certificate": 5}}, ["certificate"]),
    ({"cheeger": {"certificate": {"mode": "dirichlet"}}}, ["phi"]),
    ({"cheeger": {"certificate": {"phi": []}}}, ["phi"]),
    ({"cheeger": {"certificate": {"phi": [1]}}}, ["phi[0]", "1"]),
    ({"cheeger": {"certificate": {"phi": ["x", "0"], "mode": "mixed"}}}, ["mode", "'mixed'"]),
    ({"table": {"max_n": -1}}, ["max_n", "-1"]),
    ({"table": {"max_m": 0}}, ["max_m", "0"]),
    ({"table": {"bc": "periodic"}}, ["table.bc", "'periodic'"]),
    ({"table": {"tol": "x"}}, ["tol", "'x'"]),
    ({"carnot": {"n": 0}}, ["carnot.n", "0"]),
    ({"carnot": {"n": "2"}}, ["carnot.n", "'2'"]),
    ({"carnot": {"dim": 3}}, ["dim"]),
]


@pytest.mark.parametrize("doc, expected", MALFORMED,
                         ids=[json.dumps(doc)[:60] for doc, _ in MALFORMED])
def test_malformed_config_is_one_config_error_line(tmp_path, capsys, doc, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cc.main(["carnot", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    for text in expected:
        assert text in err, (text, err)


# Out-of-range numbers that used to hang, raise a traceback or run on: each is
# now a config error.  A table.tol <= 0 looped forever in the bisection, so it
# runs in a child process with a deadline.
OUT_OF_RANGE = [
    ("grushin-table", {"table": {"tol": 0}}, ["table.tol", "0"], True),
    ("grushin-table", {"table": {"tol": -1e-8}}, ["table.tol", "-1e-08"], True),
    ("spectrum", {"nodal": {"rel_threshold": -1}}, ["rel_threshold", "-1"], False),
    ("spectrum", {"nodal": {"rel_threshold": 0.5}}, ["rel_threshold", "0.5"], False),
    ("spectrum", {"nodal": {"rel_threshold": math.nan}}, ["rel_threshold", "nan"], False),
    ("spectrum", {"nodal": {"gap_rel_tol": -1e-6}}, ["gap_rel_tol", "-1e-06"], False),
    ("spectrum", {"solver": {"tol": math.inf}}, ["solver.tol", "inf"], False),
    ("spectrum", {"structure": {"kind": "euclidean", "chart": {"x_range": [0, math.inf]}}},
     ["structure.chart.x_range[1]", "inf"], False),
]


@pytest.mark.parametrize("command, change, expected, isolate", OUT_OF_RANGE,
                         ids=[json.dumps(c)[:60] for _, c, _, _ in OUT_OF_RANGE])
def test_out_of_range_number_is_a_config_error(tmp_path, capsys, command, change, expected,
                                               isolate):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict({"grid": {"nx": 8, "ny": 8}, "solver": {"k": 2}}, **change)))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "run")]
    if isolate:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "ccspectral", *argv], env=env,
                              capture_output=True, text=True, timeout=10)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = cc.main(argv), capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for text in expected:
        assert text in err, (text, err)


# The keys each section accepts.
SECTION_KEYS = {
    RunConfig: ("structure", "grid", "bc", "solver", "nodal", "cheeger", "table", "carnot"),
    StructureConfig: ("kind", "chart", "fields", "density"),
    ChartConfig: ("x_range", "y_range", "periodic_x", "periodic_y"),
    GridConfig: ("nx", "ny"),
    SegmentConfig: ("edge", "condition", "range"),
    SolverConfig: ("k", "tol", "seed"),
    NodalConfig: ("rel_threshold", "gap_rel_tol"),
    CertificateConfig: ("phi", "mode"),
    CheegerConfig: ("levels", "certificate"),
    TableConfig: ("max_n", "max_m", "bc", "tol"),
    CarnotConfig: ("n",),
}


def _nested(tp, sep="."):
    """(dataclass, separator) for each config section an annotation holds;
    a list of sections puts ``[i]`` before its keys."""
    if dataclasses.is_dataclass(tp):
        yield tp, sep
    for arg in typing.get_args(tp):
        yield from _nested(arg, "[i]." if typing.get_origin(tp) is tuple else sep)


def schema_paths(cls, prefix=""):
    """Dotted path of every key in the schema rooted at ``cls``."""
    for f in dataclasses.fields(cls):
        yield prefix + f.name
        for section, sep in _nested(f.type):
            yield from schema_paths(section, prefix + f.name + sep)


def test_schema_accepts_exactly_the_section_keys():
    sections = {RunConfig} | {s for cls in SECTION_KEYS
                              for f in dataclasses.fields(cls)
                              for s, _ in _nested(f.type)}
    assert sections == set(SECTION_KEYS)
    for cls, keys in SECTION_KEYS.items():
        assert [f.name for f in dataclasses.fields(cls)] == list(keys), cls.__name__


def test_readme_config_section_matches_the_schema():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Config file"):text.index("### Artifacts")]
    defaults = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert RunConfig.from_dict(defaults) == RunConfig()
    for path in schema_paths(RunConfig):
        assert re.search(f"`{re.escape(path)}[`.[]", section), path


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
PAIR = st.tuples(FINITE, FINITE).filter(lambda p: p[0] < p[1]).map(list)


def optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


CHART = optional(x_range=PAIR, y_range=PAIR, periodic_x=st.booleans(),
                 periodic_y=st.booleans())
STRUCTURE = st.one_of(
    optional(kind=st.just("grushin")),
    st.fixed_dictionaries({"kind": st.just("euclidean")}, optional={"chart": CHART}),
    st.fixed_dictionaries({"kind": st.just("custom"), "chart": CHART,
                           "fields": st.lists(st.lists(st.text(), min_size=2, max_size=2),
                                              min_size=1, max_size=3)},
                          optional={"density": st.text()}))
SEGMENT = st.fixed_dictionaries(
    {"edge": st.sampled_from(["x_min", "x_max", "y_min", "y_max"]),
     "condition": st.sampled_from(["dirichlet", "neumann"])}, optional={"range": PAIR})
CERTIFICATE = st.fixed_dictionaries(
    {"phi": st.lists(st.text(), min_size=1, max_size=3)},
    optional={"mode": st.sampled_from(["dirichlet", "neumann"])})
VALID_DOCS = optional(
    structure=STRUCTURE,
    grid=optional(nx=st.integers(min_value=3), ny=st.integers(min_value=3)),
    bc=st.one_of(st.sampled_from(["neumann", "dirichlet"]), st.lists(SEGMENT, max_size=4)),
    solver=optional(k=st.integers(min_value=1), tol=POSITIVE, seed=st.integers()),
    nodal=optional(rel_threshold=st.floats(min_value=0.0, max_value=0.1),
                   gap_rel_tol=st.floats(min_value=0.0, allow_infinity=False)),
    cheeger=optional(levels=st.integers(min_value=1),
                     certificate=st.one_of(st.none(), CERTIFICATE)),
    table=optional(max_n=st.integers(min_value=0), max_m=st.integers(min_value=1),
                   bc=st.sampled_from(["neumann", "dirichlet"]), tol=POSITIVE),
    carnot=optional(n=st.integers(min_value=1)))
# what json.loads can return, NaN and infinities included
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(), inner, max_size=4),
                    max_leaves=12)


def _locations(node):
    """(container, key) for every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _locations(child)


@given(VALID_DOCS)
def test_config_roundtrip_property(doc):
    config = RunConfig.from_dict(doc)
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


@given(JSON)
def test_any_json_value_parses_or_is_a_config_error(value):
    try:
        RunConfig.from_dict(value)
    except ConfigError:
        pass


@given(VALID_DOCS, JSON, st.data())
def test_one_replaced_key_parses_or_is_a_config_error(doc, value, data):
    places = [(doc, name) for name in SECTION_KEYS[RunConfig]] + list(_locations(doc))
    container, key = data.draw(st.sampled_from(places))
    container[key] = value
    try:
        RunConfig.from_dict(doc)
    except ConfigError:
        pass
