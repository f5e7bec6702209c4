import math
from dataclasses import dataclass

import pytest

from palmwatch.errors import FormatError
from palmwatch.jsondoc import from_fields, read_document, typed


@pytest.mark.parametrize(
    "tp, value, expected",
    [
        (int, 3, 3),
        (float, 3, 3.0),
        (float, 2.5, 2.5),
        (str, "a", "a"),
        (bool, False, False),
        (int | None, None, None),
        (float | None, 1, 1.0),
        (tuple[float, float], [1, 2.5], (1.0, 2.5)),
        (tuple[str, ...], [], ()),
        (tuple[str, ...], ["a", "b"], ("a", "b")),
        (dict[str, int], {"a": 1}, {"a": 1}),
        (dict[str, tuple[float, float]], {"a": [0, 1]}, {"a": (0.0, 1.0)}),
    ],
)
def test_typing_rule_accepts(tp, value, expected):
    result = typed(value, tp, "x")
    assert result == expected
    assert type(result) is type(expected)


@pytest.mark.parametrize(
    "tp, value",
    [
        (int, True),
        (int, 2.0),
        (int, "2"),
        (int, None),
        (float, False),
        (float, "1.5"),
        (float, 10**400),
        (str, 1),
        (bool, 0),
        (tuple[float, float], [1.0]),
        (tuple[float, float], (1.0, 2.0)),
        (tuple[str, ...], ["a", 1]),
        (dict[str, int], {"a": True}),
        (dict[str, int], [["a", 1]]),
    ],
)
def test_typing_rule_rejects(tp, value):
    with pytest.raises(FormatError, match="where"):
        typed(value, tp, "where")


def test_non_finite_floats_are_typed_not_judged():
    # range checks belong to the object built from the document
    assert math.isnan(typed(math.nan, float, "x"))
    assert typed(math.inf, float, "x") == math.inf


@dataclass
class _Doc:
    name: str
    size: int = 1


def test_from_fields():
    assert from_fields(_Doc, {"name": "a"}, "doc") == _Doc("a")
    with pytest.raises(FormatError, match="unknown fields \\['nmae'\\]"):
        from_fields(_Doc, {"name": "a", "nmae": "b"}, "doc")
    with pytest.raises(FormatError, match="missing field 'name'"):
        from_fields(_Doc, {"size": 2}, "doc")


@pytest.mark.parametrize(
    "content", [b"\xff\xfe\x00", b"{", b"[1]", b"null", b"1" * 5000, b"[" * 100000]
)
def test_reader_names_the_file(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match="doc.json"):
        read_document(path, "spec")


def test_reader_missing_file(tmp_path):
    with pytest.raises(FormatError, match="missing.json"):
        read_document(tmp_path / "missing.json", "manifest")

