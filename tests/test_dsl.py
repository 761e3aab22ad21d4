import pytest

from ordalg import build_poset, classify, fixtures, parse, serialize
from ordalg.algebra import MEET
from ordalg.dsl import serialize_algebra, serialize_poset
from ordalg.errors import ParseError
from ordalg.fixtures import FIXTURES_TEXT


def test_parse_fixture_corpus(figs):
    assert set(figs.posets) == {"fig1", "fig2", "fig3", "fig4", "fig5"}
    assert set(figs.algebras) == {
        "fig1_star",
        "fig1_rpc",
        "fig2_star",
        "fig3_star",
        "fig4_spc",
        "fig5_spc",
    }
    assert figs.algebra_poset["fig5_spc"] == "fig5"


def test_parse_singleton():
    doc = parse("poset p\n  elements: x\n")
    assert doc.posets["p"].n == 1


def test_parse_comments_and_whitespace():
    doc = parse(
        "# leading comment\n\np\tposet?  # not a poset line\n".replace("p\tposet?", "poset p")
        + "  elements:   x    y\n  order:    x<y   # tail comment\n"
    )
    P = doc.posets["p"]
    assert P.leq(P.index("x"), P.index("y"))


def test_parse_unary_and_constant(fig1):
    doc = parse(
        "poset q\n  elements: 0 a b c d 1\n"
        "  order: 0<a 0<b a<c a<d b<c b<d c<1 d<1\n"
        "algebra s on q\n  unary * : 0->1 a->b b->a c->0 d->0 1->0\n  constant 0: 0\n"
    )
    A = doc.algebras["s"]
    assert A.table("*") == classify(doc.posets["q"], "pc").table
    assert A.constant("0") == 0


def test_parse_binary_pair_form():
    doc = parse(
        "poset p\n  elements: x y\n  order: x<y\n"
        "algebra a on p\n  binary f : (x,x)->x (x,y)->y (y,x)->y (y,y)->x\n"
    )
    assert doc.algebras["a"].table("f") == ((0, 1), (1, 0))


def test_parse_choice_builds_meet(fig1):
    doc = parse(
        "poset q\n  elements: 0 a b c d 1\n"
        "  order: 0<a 0<b a<c a<d b<c b<d c<1 d<1\n"
        "algebra m on q\n  choice meet {c,d}=a\n"
    )
    A = doc.algebras["m"]
    q = doc.posets["q"]
    t = A.table(MEET)
    assert t[q.index("c")][q.index("d")] == q.index("a")
    assert t[q.index("a")][q.index("b")] == q.index("0")  # canonical default


def test_parse_errors_positioned():
    with pytest.raises(ParseError) as e:
        parse("poset p\n  elements: x y\n  order: x<y y<x\n")
    assert e.value.line == 1  # reported at the poset header that failed to build
    with pytest.raises(ParseError) as e:
        parse("poset p\n  elements: x\nalgebra a on p\n  unary f :\n")
    assert e.value.line == 4 and "non-total" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("poset p\n  elements: x y\n  order: x<y\nalgebra a on p\n  binary f :\n    row x: x\n")
    assert "non-total" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("bogus directive\n")
    assert e.value.line == 1


def test_parse_choice_outside_cone():
    with pytest.raises(ParseError) as e:
        parse(
            "poset q\n  elements: 0 a b c d 1\n"
            "  order: 0<a 0<b a<c a<d b<c b<d c<1 d<1\n"
            "algebra m on q\n  choice meet {c,d}=1\n"
        )
    assert "outside the meet cone" in str(e.value)


def test_parse_comparable_choice_rejected():
    with pytest.raises(ParseError) as e:
        parse(
            "poset q\n  elements: 0 1\n  order: 0<1\n"
            "algebra m on q\n  choice meet {0,1}=0\n"
        )
    assert "comparable" in str(e.value)


def test_parse_duplicate_names():
    with pytest.raises(ParseError):
        parse("poset p\n  elements: x\nposet p\n  elements: y\n")


def test_parse_unknown_label_in_table():
    with pytest.raises(ParseError) as e:
        parse(
            "poset p\n  elements: x\nalgebra a on p\n  unary f : x->zz\n"
        )
    assert "unknown element label" in str(e.value)


def test_roundtrip_corpus(figs):
    text = serialize(figs)
    again = parse(text)
    assert again == figs
    assert serialize(again) == text


def test_roundtrip_poset_bit_exact(fig3):
    text = serialize_poset("p", fig3)
    P = parse(text).posets["p"]
    assert P == fig3
    assert serialize_poset("p", P) == text


def test_roundtrip_fixture_text_is_canonicalizable():
    # the shipped corpus parses to the same document as its canonical form
    doc = parse(FIXTURES_TEXT)
    assert parse(serialize(doc)) == doc


def test_serialize_rejects_bad_labels():
    P = build_poset(["a:b"], [])
    with pytest.raises(ValueError):
        serialize_poset("p", P)
