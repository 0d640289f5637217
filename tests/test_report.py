"""The report writer against the json module on random report trees.

``to_json`` must write every tree exactly as ``json.dumps(plain(tree),
indent=2, ensure_ascii=True)`` does, where ``plain`` below is the reference
report form, and raise ``TypeError`` where that call does, with the same
message.
"""
import enum
import json
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rqbm._report import Result, to_json
from rqbm.instances import INSTANCE_NAMES, build_example_2_3, get_instance
from rqbm.solver import picard_iterate
from rqbm.spaces import carrier_sample, check_b_rectangular, dump_space, space_to_dict
from rqbm.thetaphi import builtin_phi, validate_phi


@dataclass(frozen=True)
class Empty(Result):
    pass


@dataclass(frozen=True)
class Pair(Result):
    first: object
    second: object


@dataclass(frozen=True)
class Renamed(Result):
    """A result whose report is not its fields, as some in the package are."""
    inner: object

    def to_dict(self) -> dict:
        return {"renamed": self.inner, "fields": (1, 2)}


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


Point = namedtuple("Point", "x y")


def plain(value):
    """``value`` in report form: each result is its expanded ``to_dict()``,
    tuples and lists become lists, and dicts are copied."""
    if isinstance(value, Result):
        return plain(value.to_dict())
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def oracle(tree) -> str:
    return json.dumps(plain(tree), indent=2, ensure_ascii=True)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                  1e16, 1e-7, 0.1, 123456789.125]

strings = st.text(st.one_of(
    st.characters(),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
    st.sampled_from('"\\/\x00\x08\x0c\n\r\t\x1f\x7f\x80é☃ \U0001d11e'),
), max_size=6)
ints = st.one_of(st.integers(-1000, 1000), st.integers(-2**80, 2**80), st.booleans(),
                 st.just(Level.LOW))
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                   st.floats().map(np.float64))
keys = st.one_of(strings, strings.map(Tag), st.integers(-2**70, 2**70), st.floats(), st.booleans(),
                st.none(), st.just(Level.LOW))
leaves = st.one_of(st.none(), strings, strings.map(Tag), ints, floats)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
        st.builds(Point, children, children),
        st.just(Empty()),
        st.builds(Pair, children, children),
        st.builds(Renamed, children),
    )


trees = st.recursive(leaves, containers, max_leaves=25)
# the values and keys json refuses, anywhere in a tree
unsupported = st.sampled_from([np.int64(3), {1, 2}, np.bool_(True), object(), b"x"])
bad_keys = st.sampled_from([(1, 2), np.int64(3), frozenset()])
bad_trees = st.recursive(
    st.one_of(leaves, unsupported),
    lambda children: st.one_of(containers(children),
                               st.dictionaries(st.one_of(keys, bad_keys), children,
                                               min_size=1, max_size=3)),
    max_leaves=12,
)


@given(trees)
@example({"a": [], "b": {}, "c": (), "d": Empty(), "e": [Empty(), {}]})
@example({1: "int", 1.5: "float", True: "bool", None: "none", math.nan: "nan", -0.0: "zero"})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, np.float64(0.1), 2**100, -7])
@example(Pair("\ud800\"\\\x00é", Renamed((Level.LOW, False, None))))
def test_writes_what_json_writes(tree):
    assert to_json(tree) == oracle(tree)


@given(bad_trees)
@example([1, {"a": np.int64(3)}])
@example({"a": Pair({1, 2}, None)})
@example({(1, 2): 0})
def test_raises_where_json_raises(tree):
    try:
        expected = oracle(tree)
    except TypeError as e:
        with pytest.raises(TypeError) as raised:
            to_json(tree)
        assert str(raised.value) == str(e)
    else:
        assert to_json(tree) == expected


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_dump_space_writes_the_json_file(tmp_path, name):
    space = get_instance(name).space
    path = tmp_path / "space.json"
    dump_space(space, str(path))
    assert path.read_text() == json.dumps(space_to_dict(space), indent=2) + "\n"


def test_to_dict_hands_over_the_results_own_containers():
    bundle = get_instance("example-sqrt")
    trace = picard_iterate(bundle.space, bundle.selfmap, 2.0, 3)
    assert trace.to_dict()["fwd_step"] is trace.fwd_step
    report = validate_phi(builtin_phi("midpoint"))
    assert report.to_dict()["checks"] is report.checks
    failing = check_b_rectangular(carrier_sample(build_example_2_3().space), 2.8)
    assert not failing.passed and failing.violations
    assert failing.to_dict()["violations"] is failing.violations
