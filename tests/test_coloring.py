from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from domchrom.coloring import (
    _check_colors,
    Coloring,
    DominatorCertificate,
    ImproperEdge,
    NoDominatedClass,
    SINK_EXEMPT,
    canonicalize,
    dominated_classes,
    is_proper,
    recheck_certificate,
    verify_dominator,
)
from domchrom.errors import BadVertexIdError, SizeMismatchError
from domchrom.generators import free_trees
from domchrom.io import encode_tree
from domchrom.solver import _growth_sequences
from domchrom.trees import build_tree

from conftest import orientations, oriented_trees

VERIFIER_DIGEST = "dd27e5a33ae10a82411d97b28728a52a7e63f7c9e11055cc3757dbd23b44893e"


def p2():
    return build_tree(2, [(0, 1)])


def p3_directed():
    return build_tree(3, [(0, 1), (1, 2)])


def in_star3():
    return build_tree(3, [(0, 1), (2, 1)])


class TestColoring:
    def test_canonical_accepted(self):
        c = Coloring((1, 2, 1))
        assert c.k == 2 and c.class_of(1) == (0, 2)

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            Coloring((2, 1))

    @pytest.mark.parametrize("colors", [(1, 3), (0, 1), (1, 0), (1, 2, -1), (1, 1, 3)])
    def test_gaps_and_non_positive_colors_rejected(self, colors):
        with pytest.raises(ValueError, match="canonical"):
            Coloring(colors)

    def test_from_labels_canonicalizes(self):
        assert Coloring.from_labels((3, 1, 3)).colors == (1, 2, 1)

    def test_canonicalize_idempotent(self):
        c = canonicalize((1, 2, 1))
        assert canonicalize(c) == c

    def test_canonicalize_returns_coloring_unchanged(self):
        c = Coloring((1, 2, 1))
        assert canonicalize(c) is c

    def test_canonicalize_constant(self):
        assert canonicalize((2, 2, 2)).colors == (1, 1, 1)

    @pytest.mark.parametrize("colors", [(1, 2.7, 1), (1.0, 2, 1), (1, "2", 1), (1, None)])
    def test_non_integer_colors_rejected(self, colors):
        # not truncated: (1, 2.7, 1) used to become (1, 2, 1)
        with pytest.raises(ValueError):
            Coloring(colors)

    def test_from_labels_takes_any_label(self):
        assert Coloring.from_labels(("b", 2.5, "b")).colors == (1, 2, 1)


class TestIsProper:
    def test_proper_p2(self):
        assert is_proper(p2(), (1, 2)) == []

    def test_improper_p2(self):
        assert is_proper(p2(), (1, 1)) == [ImproperEdge((0, 1))]

    def test_nonadjacent_share_ok(self):
        assert is_proper(in_star3(), (1, 2, 1)) == []

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            is_proper(p2(), (1,))

    def test_empty_coloring_is_a_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            verify_dominator(p2(), [])
        with pytest.raises(SizeMismatchError):
            is_proper(p2(), ())


class TestDominatedClasses:
    def test_out_star_center(self):
        t = build_tree(4, [(0, 1), (0, 2), (0, 3)])
        assert dominated_classes(t, (1, 2, 2, 2), 0) == {2}

    def test_sink_dominates_nothing(self):
        assert dominated_classes(p3_directed(), (1, 2, 3), 2) == frozenset()

    def test_p3_middle(self):
        assert dominated_classes(p3_directed(), (1, 2, 3), 1) == {3}

    @pytest.mark.parametrize("v", [-1, 3, 7, 1.5, "1", None])
    def test_vertex_outside_the_tree_rejected(self, v):
        with pytest.raises(BadVertexIdError):
            dominated_classes(p3_directed(), (1, 2, 3), v)

    @given(oriented_trees(max_n=8), st.data())
    def test_subset_of_out_colors(self, t, data):
        labels = data.draw(
            st.lists(st.integers(1, t.n), min_size=t.n, max_size=t.n)
        )
        c = canonicalize(labels)
        for v in range(t.n):
            out_colors = {c.colors[w] for w in t.out_neighbors[v]}
            assert dominated_classes(t, c, v) <= out_colors


class TestVerifyDominator:
    def test_out_star_two_colors(self):
        t = build_tree(3, [(0, 1), (0, 2)])
        cert = verify_dominator(t, (1, 2, 2))
        assert isinstance(cert, DominatorCertificate)
        assert cert.k == 2
        assert cert.witnesses == (2, SINK_EXEMPT, SINK_EXEMPT)

    def test_p3_bad_coloring(self):
        out = verify_dominator(p3_directed(), (1, 2, 1))
        assert out == [NoDominatedClass(1)]

    def test_single_vertex_sink_exempt(self):
        t = build_tree(1, [])
        cert = verify_dominator(t, (1,))
        assert isinstance(cert, DominatorCertificate)
        assert cert.witnesses == (SINK_EXEMPT,)

    def test_reports_all_violations(self):
        t = p3_directed()
        out = verify_dominator(t, (1, 1, 1))
        assert out == [
            ImproperEdge((0, 1)),
            ImproperEdge((1, 2)),
            NoDominatedClass(0),
            NoDominatedClass(1),
        ]

    @given(oriented_trees(max_n=8), st.data())
    def test_color_permutation_invariance(self, t, data):
        labels = data.draw(
            st.lists(st.integers(1, t.n), min_size=t.n, max_size=t.n)
        )
        base = canonicalize(labels)
        perm = data.draw(st.permutations(list(range(1, base.k + 1))))
        permuted = [perm[c - 1] for c in base.colors]
        a = verify_dominator(t, base)
        b = verify_dominator(t, permuted)
        assert isinstance(a, DominatorCertificate) == isinstance(
            b, DominatorCertificate
        )

    @given(oriented_trees(max_n=8), st.data())
    def test_certificates_recheck_from_scratch(self, t, data):
        labels = data.draw(
            st.lists(st.integers(1, t.n), min_size=t.n, max_size=t.n)
        )
        out = verify_dominator(t, labels)
        if isinstance(out, DominatorCertificate):
            assert recheck_certificate(t, out)

    def test_recheck_rejects_tampered_witness(self):
        t = build_tree(3, [(0, 1), (0, 2)])
        cert = verify_dominator(t, (1, 2, 2))
        assert isinstance(cert, DominatorCertificate)
        bad = DominatorCertificate(cert.coloring, (1, SINK_EXEMPT, SINK_EXEMPT))
        assert not recheck_certificate(t, bad)

    def test_recheck_rejects_bool_witness(self):
        t = build_tree(3, [(1, 0), (1, 2)])  # an out-star centred at 1
        cert = verify_dominator(t, (1, 2, 1))
        assert isinstance(cert, DominatorCertificate)
        assert cert.witnesses == (SINK_EXEMPT, 1, SINK_EXEMPT)
        assert recheck_certificate(t, cert)
        # (1, True) == (1, 1), but True names no color class
        forged = DominatorCertificate(cert.coloring, (SINK_EXEMPT, True, SINK_EXEMPT))
        assert not recheck_certificate(t, forged)

    def test_recheck_rejects_exemption_on_non_sink(self):
        t = p3_directed()
        cert = verify_dominator(t, (1, 2, 3))
        assert isinstance(cert, DominatorCertificate)
        bad = DominatorCertificate(
            cert.coloring, (SINK_EXEMPT, cert.witnesses[1], cert.witnesses[2])
        )
        assert not recheck_certificate(t, bad)


def canonical_colorings(n):
    for k in range(1, n + 1):
        for seq in _growth_sequences(n, k):
            yield tuple(seq)


class TestAgainstDefinition:
    """The counting verifier against the definition, on every orientation
    with n <= 6 and every canonical coloring of it."""

    def test_exhaustive_small(self, small_corpus):
        for t in small_corpus:
            outs = [set(o) for o in t.out_neighbors]
            for colors in canonical_colorings(t.n):
                classes = {}
                for v, c in enumerate(colors):
                    classes.setdefault(c, set()).add(v)
                out = verify_dominator(t, colors)
                assert isinstance(out, DominatorCertificate) == _check_colors(t, colors)
                for v in range(t.n):
                    expected = {c for c, cls in classes.items() if cls <= outs[v]}
                    assert dominated_classes(t, colors, v) == expected
                    if isinstance(out, DominatorCertificate):
                        w = out.witnesses[v]
                        assert w == (min(expected) if outs[v] else SINK_EXEMPT)
                        # any dominated class, and only such a class, rechecks
                        for c in range(1, len(classes) + 1) if outs[v] else ():
                            other = out.witnesses[:v] + (c,) + out.witnesses[v + 1:]
                            cert = DominatorCertificate(out.coloring, other)
                            assert recheck_certificate(t, cert) == (c in expected)
                if isinstance(out, DominatorCertificate):
                    assert recheck_certificate(t, out)

    def test_recheck_accepts_any_dominated_witness(self):
        # vertex 0 dominates the singleton classes 2 and 3; 2 is the smallest
        t = build_tree(3, [(0, 1), (0, 2)])
        cert = verify_dominator(t, (1, 2, 3))
        assert isinstance(cert, DominatorCertificate)
        assert cert.witnesses == (2, SINK_EXEMPT, SINK_EXEMPT)
        other = DominatorCertificate(cert.coloring, (3, SINK_EXEMPT, SINK_EXEMPT))
        assert recheck_certificate(t, other)
        own = DominatorCertificate(cert.coloring, (1, SINK_EXEMPT, SINK_EXEMPT))
        assert not recheck_certificate(t, own)

    def test_recheck_rejects_partly_covered_class(self):
        # class 2 = {1, 3}: vertex 0 reaches 1 but not 3, and dominates class 4
        t = build_tree(5, [(0, 1), (0, 4), (2, 0), (2, 3)])
        cert = verify_dominator(t, (1, 2, 3, 2, 4))
        assert isinstance(cert, DominatorCertificate)
        assert cert.witnesses[0] == 4
        bad = DominatorCertificate(cert.coloring, (2,) + cert.witnesses[1:])
        assert not recheck_certificate(t, bad)


def _verifier_line(t, labels) -> str:
    out = verify_dominator(t, labels)
    if isinstance(out, DominatorCertificate):
        body = f"cert {out.coloring.colors} {out.witnesses}"
    else:
        body = " ".join(
            f"E{v.arc}" if isinstance(v, ImproperEdge) else f"D{v.vertex}" for v in out
        )
    return f"{encode_tree(t)}|{labels}|{body}\n"


def test_verifier_output_pinned():
    """The certificate or the ordered violation list for every labelling with
    labels 1..3 of every orientation with n <= 5; labels need not be
    canonical.  Validity agrees with the oracle's filter ``_check_colors``."""
    h = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        for base in free_trees(n):
            for t in orientations(base):
                for labels in itertools.product((1, 2, 3), repeat=n):
                    line = _verifier_line(t, labels)
                    valid = _check_colors(t, canonicalize(labels).colors)
                    assert line.split("|")[2].startswith("cert") == valid, line
                    h.update(line.encode())
                    count += 1
    assert count == 3 + 2 * 9 + 4 * 27 + 16 * 81 + 48 * 243
    assert h.hexdigest() == VERIFIER_DIGEST
