from __future__ import annotations

import pytest
from hypothesis import given, settings

from domchrom.coloring import DominatorCertificate, verify_dominator
from domchrom.io import (
    FormatError,
    certificate_from_obj,
    certificate_to_obj,
    decode_base,
    decode_tree,
    encode_base,
    encode_tree,
    format_coloring,
    format_tree,
    parse_coloring,
    parse_tree,
    read_tree,
    to_dot,
    write_tree,
)
from domchrom.solver import solve_exact
from domchrom.trees import BaseTree, build_tree

from conftest import oriented_trees


def sample_tree():
    return build_tree(4, [(0, 1), (2, 1), (2, 3)])


class TestTreeFiles:
    def test_round_trip(self, tmp_path):
        t = sample_tree()
        p = tmp_path / "t.tree"
        write_tree(t, p)
        assert read_tree(p) == t

    def test_format_is_exact(self):
        assert format_tree(build_tree(2, [(1, 0)])) == "n 2\n1 0\n"

    def test_comments_and_blank_lines(self):
        text = "# a tree\nn 3\n\n0 1   # first arc\n2 1\n"
        assert parse_tree(text) == build_tree(3, [(0, 1), (2, 1)])

    def test_arc_order_free(self):
        a = parse_tree("n 3\n2 1\n0 1\n")
        b = parse_tree("n 3\n0 1\n2 1\n")
        assert a == b

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_tree("0 1\n")

    def test_bad_arc_line(self):
        with pytest.raises(FormatError):
            parse_tree("n 2\n0 1 2\n")


class TestColoringFiles:
    def test_round_trip(self):
        c = parse_coloring("0 1\n1 2\n2 1\n", 3)
        assert c.colors == (1, 2, 1)
        assert format_coloring(c) == "0 1\n1 2\n2 1\n"

    def test_incomplete_rejected(self):
        with pytest.raises(FormatError):
            parse_coloring("0 1\n", 2)

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError):
            parse_coloring("0 1\n0 2\n1 1\n", 2)

    def test_zero_based_color_rejected(self):
        with pytest.raises(FormatError):
            parse_coloring("0 0\n1 1\n", 2)


class TestDot:
    def test_with_coloring(self):
        t = build_tree(2, [(0, 1)])
        cert = verify_dominator(t, (1, 2))
        assert isinstance(cert, DominatorCertificate)
        dot = to_dot(t, cert.coloring)
        assert 'digraph tree {' in dot
        assert '0 [label="1"];' in dot
        assert "0 -> 1;" in dot

    def test_without_coloring(self):
        dot = to_dot(build_tree(2, [(0, 1)]))
        assert "label" not in dot


class TestCompactCodes:
    def test_tree_round_trip(self):
        t = sample_tree()
        assert decode_tree(encode_tree(t)) == t

    def test_single_vertex(self):
        t = build_tree(1, [])
        assert encode_tree(t) == "1:"
        assert decode_tree("1:") == t

    def test_base_round_trip(self):
        base = BaseTree(4, ((0, 1), (1, 2), (1, 3)))
        assert decode_base(encode_base(base)) == base

    def test_certificate_round_trip(self):
        t = sample_tree()
        cert = verify_dominator(t, (1, 2, 1, 3))
        assert isinstance(cert, DominatorCertificate)
        obj = certificate_to_obj(cert)
        assert certificate_from_obj(obj) == cert

    @pytest.mark.parametrize(
        "obj",
        [
            # once read back as colors (1, 2, 3) and witnesses (2, 3, sink_exempt),
            # a certificate that rechecks on 3:0>1,1>2
            {"colors": [1.2, 2.9, 3.1], "witnesses": [2, 3, "zzz"]},
            {"colors": [1, 2, 3], "witnesses": [2, 3, "zzz"]},
            {"colors": [1, 2, 3], "witnesses": [2, 3, None]},
            {"colors": [1, 2, 3], "witnesses": [2, True, "sink_exempt"]},
            {"colors": [1, 2, 3], "witnesses": [2.0, 3, "sink_exempt"]},
            {"colors": [1, "2", 3], "witnesses": [2, 3, "sink_exempt"]},
            {"colors": [True, 2, 3], "witnesses": [2, 3, "sink_exempt"]},
        ],
    )
    def test_certificate_from_malformed_obj(self, obj):
        with pytest.raises(FormatError):
            certificate_from_obj(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            pytest.param({"colors": [1, 2, 3]}, id="missing-key"),
            pytest.param([[1, 2, 3], [2, 3, "sink_exempt"]], id="not-a-dict"),
            pytest.param({"colors": [2, 1], "witnesses": [0, 0]}, id="non-canonical-colors"),
            pytest.param({"colors": [], "witnesses": []}, id="no-colors"),
        ],
    )
    def test_certificate_from_obj_raises_format_error_not_a_builtin(self, obj):
        with pytest.raises(FormatError):
            certificate_from_obj(obj)


# Malformed pairs, each dropped into an otherwise valid input of every
# reader with that reader's separator at ``{}``.  Empty items are malformed
# only in compact codes (a file reader skips blank lines), so the decoders'
# own table below has them.
MALFORMED = [
    pytest.param("0{}1{}2", id="three-ints"),
    pytest.param("0{}x", id="non-integer"),
    pytest.param("0{}1.5", id="float"),
    pytest.param("7", id="one-int"),
]


@pytest.mark.parametrize("item", MALFORMED)
@pytest.mark.parametrize(
    "read, sep",
    [
        pytest.param(lambda body: decode_tree(f"3:0>1,{body}"), ">", id="decode_tree"),
        pytest.param(lambda body: decode_base(f"3:0-1,{body}"), "-", id="decode_base"),
        pytest.param(lambda body: parse_tree(f"n 3\n0 1\n{body} #\n"), " ", id="parse_tree"),
        pytest.param(lambda body: parse_coloring(f"0 1\n{body} #\n", 2), " ", id="parse_coloring"),
    ],
)
def test_every_reader_rejects_a_malformed_pair(read, sep, item):
    with pytest.raises(FormatError):
        read(item.format(sep, sep))


@pytest.mark.parametrize("decode", [decode_tree, decode_base])
@pytest.mark.parametrize(
    "code",
    [
        pytest.param("3:0>1,,1>2", id="empty-token"),
        pytest.param("3:0-1,,1-2", id="empty-token-base"),
        pytest.param("2:0>1,", id="trailing-comma"),
        pytest.param("2:0-1,", id="trailing-comma-base"),
        pytest.param("x:0>1", id="bad-head"),
        pytest.param(":", id="empty-head"),
        pytest.param("2", id="no-head"),
        pytest.param("0>1", id="no-colon"),
    ],
)
def test_decoders_reject_malformed_codes(decode, code):
    with pytest.raises(FormatError):
        decode(code)


@given(oriented_trees())
@settings(max_examples=60, deadline=None)
def test_text_formats_round_trip(t):
    assert parse_tree(format_tree(t)) == t
    assert decode_tree(encode_tree(t)) == t
    base = t.underlying()
    assert decode_base(encode_base(base)) == base
    coloring = solve_exact(t).certificate.coloring
    assert parse_coloring(format_coloring(coloring), t.n) == coloring
