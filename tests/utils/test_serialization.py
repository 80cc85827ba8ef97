"""Tests of JSON serialisation helpers."""

import dataclasses
import sys
import threading
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.utils import dump_json, from_jsonable, load_json, to_jsonable


@dataclasses.dataclass
class _Point:
    x: float
    y: float


@dataclasses.dataclass(frozen=True)
class _Nested:
    label: str
    points: Tuple[_Point, ...]
    weight: Optional[float] = None
    extras: Dict[str, Any] = dataclasses.field(default_factory=dict)


class _Color(Enum):
    RED = "red"


@dataclasses.dataclass(frozen=True)
class _Tree:
    label: str
    children: Tuple["_Tree", ...] = ()


class TestToJsonable:
    def test_primitives_pass_through(self):
        for value in [None, True, 3, 2.5, "s"]:
            assert to_jsonable(value) == value

    def test_numpy_scalars_converted(self):
        assert to_jsonable(np.int64(3)) == 3
        assert isinstance(to_jsonable(np.int64(3)), int)
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert isinstance(to_jsonable(np.float64(2.5)), float)

    def test_numpy_arrays_become_lists(self):
        assert to_jsonable(np.array([1, 2, 3])) == [1, 2, 3]
        assert to_jsonable(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]

    def test_dataclasses_become_dicts(self):
        assert to_jsonable(_Point(1.0, 2.0)) == {"x": 1.0, "y": 2.0}

    def test_enums_become_values(self):
        assert to_jsonable(_Color.RED) == "red"

    def test_nested_containers(self):
        obj = {"points": [_Point(0.0, 1.0)], "tags": ("a", "b"), "n": np.int32(2)}
        assert to_jsonable(obj) == {"points": [{"x": 0.0, "y": 1.0}], "tags": ["a", "b"], "n": 2}

    def test_paths_become_strings(self):
        assert to_jsonable(Path("/tmp/x")) == "/tmp/x"

    def test_sets_become_lists(self):
        assert sorted(to_jsonable({1, 2, 3})) == [1, 2, 3]

    def test_custom_to_jsonable_hook(self):
        class WithHook:
            def to_jsonable(self):
                return {"kind": "custom"}

        assert to_jsonable(WithHook()) == {"kind": "custom"}

    def test_unserialisable_object_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_dict_keys_coerced_to_strings(self):
        assert to_jsonable({1: "a"}) == {"1": "a"}


class TestFromJsonable:
    def test_primitives_and_any(self):
        assert from_jsonable(int, 3) == 3
        assert from_jsonable(float, 2) == 2.0
        assert isinstance(from_jsonable(float, 2), float)
        assert from_jsonable(str, "s") == "s"
        assert from_jsonable(Any, {"k": 1}) == {"k": 1}

    def test_flat_dataclass(self):
        assert from_jsonable(_Point, {"x": 1.0, "y": 2.0}) == _Point(1.0, 2.0)

    def test_nested_dataclass_round_trip(self):
        original = _Nested(
            label="n",
            points=(_Point(0.0, 1.0), _Point(2.0, 3.0)),
            weight=0.5,
            extras={"note": "hi", "count": 2},
        )
        assert from_jsonable(_Nested, to_jsonable(original)) == original

    def test_optional_none_round_trip(self):
        original = _Nested(label="n", points=())
        rebuilt = from_jsonable(_Nested, to_jsonable(original))
        assert rebuilt.weight is None

    def test_variadic_tuple_annotation(self):
        assert from_jsonable(Tuple[int, ...], [1, 2, 3]) == (1, 2, 3)

    def test_fixed_tuple_annotation(self):
        assert from_jsonable(Tuple[int, str], [1, "a"]) == (1, "a")

    def test_dict_annotation(self):
        assert from_jsonable(Dict[str, float], {"a": 1}) == {"a": 1.0}

    def test_enum_and_path(self):
        assert from_jsonable(_Color, "red") is _Color.RED
        assert from_jsonable(Path, "/tmp/x") == Path("/tmp/x")

    def test_pep604_union(self):
        assert from_jsonable(int | None, None) is None
        assert from_jsonable(int | None, 3) == 3

    def test_non_mapping_for_dataclass_raises(self):
        with pytest.raises(TypeError):
            from_jsonable(_Point, [1.0, 2.0])

    def test_unsupported_annotation_raises(self):
        with pytest.raises(TypeError):
            from_jsonable(frozenset, [1, 2])  # no origin handler registered

    def test_recursive_dataclass_round_trip(self):
        tree = _Tree("root", (_Tree("leaf"), _Tree("inner", (_Tree("deep"),))))
        assert from_jsonable(_Tree, to_jsonable(tree)) == tree

    def test_type_hints_are_evaluated_once_per_dataclass(self, monkeypatch):
        @dataclasses.dataclass
        class Fresh:
            x: float
            y: Optional[int] = None

        calls = []
        real = typing.get_type_hints
        monkeypatch.setattr(
            typing, "get_type_hints", lambda cls: calls.append(cls) or real(cls)
        )
        for _ in range(3):
            assert from_jsonable(Fresh, {"x": 1, "y": 2}) == Fresh(1.0, 2)
        assert calls == [Fresh]

    def test_threads_racing_on_cold_plans_all_decode_correctly(self):
        @dataclasses.dataclass(frozen=True)
        class Leaf:
            value: float
            tags: Tuple[str, ...] = ()

        @dataclasses.dataclass(frozen=True)
        class Branch:
            leaves: Tuple[Leaf, ...]
            weight: Optional[int] = None

        original = Branch((Leaf(1.0, ("a",)), Leaf(2.5)), weight=3)
        data = to_jsonable(original)
        barrier = threading.Barrier(8)
        results = []

        def decode():
            barrier.wait(timeout=30)
            results.append([from_jsonable(Branch, data) for _ in range(50)])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[original] * 50] * 8


class TestFromJsonableIsStrict:
    @pytest.mark.parametrize(
        "annotation,data",
        [
            (Tuple[float, float], [1.0]),
            (Tuple[float, float], [1, 2, 3]),
            (int, 1.7),
            (int, True),
            (int, "3"),
            (int, None),
            (int, float("inf")),
            (float, True),
            (float, "1.5"),
            (bool, "false"),
            (bool, 1),
            (str, 5),
            (Tuple[int, ...], "ab"),
            (List[int], {"a": 1}),
            (Dict[str, int], [1]),
            (Optional[int], 1.5),
            (_Point, {"x": True, "y": 1.0}),
        ],
    )
    def test_mismatched_data_raises_type_error(self, annotation, data):
        with pytest.raises(TypeError):
            from_jsonable(annotation, data)

    @pytest.mark.parametrize(
        "annotation,data,expected",
        [
            (float, 2, 2.0),
            (int, 3.0, 3),
            (Tuple[float, float], [1, 2], (1.0, 2.0)),
            (Optional[int], None, None),
            (bool, False, False),
            (Dict[str, Any], {"k": None}, {"k": None}),
        ],
    )
    def test_accepted_data_rebuilds_the_exact_type(self, annotation, data, expected):
        rebuilt = from_jsonable(annotation, data)
        assert rebuilt == expected and type(rebuilt) is type(expected)


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        payload = {"config": _Point(1.5, -2.0), "values": np.arange(3)}
        path = dump_json(payload, tmp_path / "sub" / "result.json")
        assert path.exists()
        loaded = load_json(path)
        assert loaded == {"config": {"x": 1.5, "y": -2.0}, "values": [0, 1, 2]}
