"""Mutated class files through the CLI.

Each example writes a small valid class file, mutates it (truncation, a
byte flip, deep nesting, a huge or non-ASCII numeral, or a value of the
wrong JSON type) and runs `ldim` and `learn-exact` on it. Every run must
exit 0, 2 or 3 without raising, and print nothing on stdout when it
fails. The examples are derandomized, so every run checks the same
files.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thicket import save_class
from thicket.cli import main

from helpers import mk_class

SLOT = "\0slot\0"

NUMERALS = [
    b"1" * 5000,  # a JSON integer past Python's limit on the digits of an int
    b"1" * 400,
    b"1e999999",
    b'"1' + b"0" * 5000 + b'"',
    b'"1/' + b"9" * 4000 + b'"',
    b'"' + b"1" * 4400 + b"/" + b"3" * 4400 + b'"',
    "\"١/٢\"".encode(),  # Arabic-Indic digits
    "\"１/２\"".encode(),  # fullwidth digits
    "\"¹/²\"".encode(),  # superscripts
    b'"1_0/2"',
    b'" 1/2"',
    b'"-1/2"',
    b'"1/0"',
]

WRONG_TYPES = [b"null", b"true", b"0", b"1.5", b'"x"', b"[]", b"{}", b'["1"]', b'{"a": "1"}']


@st.composite
def class_files(draw):
    """A valid class file of 1 to 6 points, with concepts labeled c0, c1, ..."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    cc = mk_class([format(r, f"0{n}b") for r in rows], [Fraction(w, sum(weights)) for w in weights])
    tau = draw(st.sampled_from([None, (Fraction(1, len(rows)),) * len(rows)]))
    return save_class(cc, tau)


def replace_value(data, text, raw):
    """`text` with one value, a whole entry or one of its items, spelled `raw`."""
    doc = json.loads(text)
    key = data.draw(st.sampled_from(sorted(doc)))
    value = doc[key]
    if value and data.draw(st.booleans()):
        if isinstance(value, list):
            value[data.draw(st.integers(0, len(value) - 1))] = SLOT
        else:
            value[data.draw(st.sampled_from(sorted(value)))] = SLOT
    else:
        doc[key] = SLOT
    return json.dumps(doc).encode().replace(json.dumps(SLOT).encode(), raw)


def truncate(data, text):
    return text[: data.draw(st.integers(0, len(text) - 1))]


def flip(data, text):
    i = data.draw(st.integers(0, len(text) - 1))
    return text[:i] + bytes([text[i] ^ data.draw(st.integers(1, 255))]) + text[i + 1:]


def nest(data, text):
    depth = data.draw(st.sampled_from([3, 900, 1000, 100_000]))
    closed = b"]" * depth if data.draw(st.booleans()) else b""
    return replace_value(data, text, b"[" * depth + closed)


def numeral(data, text):
    return replace_value(data, text, data.draw(st.sampled_from(NUMERALS)))


def wrong_type(data, text):
    return replace_value(data, text, data.draw(st.sampled_from(WRONG_TYPES)))


MUTATIONS = [truncate, flip, nest, numeral, wrong_type]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def class_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "class.json"


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(class_files(), st.sampled_from(MUTATIONS), st.data())
def test_mutated_class_files_exit_0_2_or_3_without_a_traceback(class_path, text, mutate, data):
    class_path.write_bytes(mutate(data, text))
    for argv in (["ldim"], ["learn-exact", "--target", "c0"]):
        code, out, err = run_cli([*argv, "--class", str(class_path)])
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code:
            assert out == ""
            assert err.startswith(f"thicket {argv[0]}: ")
        else:
            assert json.loads(out)["command"] == argv[0]
