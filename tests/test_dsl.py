import pytest
from hypothesis import given, settings

from helpers import algebras
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


def test_parse_choice_splits_at_top_level_comma():
    # labels with commas inside braces, as decompose prints them
    doc = parse(
        "poset q\n  elements: {0} {a,x} {b,y} {c,(x,y)} {d,z} 1\n"
        "  order: {0}<{a,x} {0}<{b,y} {a,x}<{c,(x,y)} {a,x}<{d,z} {b,y}<{c,(x,y)}"
        " {b,y}<{d,z} {c,(x,y)}<1 {d,z}<1\n"
        "algebra m on q\n  choice meet {{c,(x,y)},{d,z}}={a,x}\n"
    )
    q = doc.posets["q"]
    c, d, a = (q.index(label) for label in ("{c,(x,y)}", "{d,z}", "{a,x}"))
    assert doc.algebras["m"].table(MEET)[c][d] == a


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
    with pytest.raises(ParseError) as e:
        parse("poset p\n  elements: x\n: x\n")
    assert e.value.line == 3 and "directive" in str(e.value)
    with pytest.raises(ParseError) as e:  # chains are not read; said at the order line
        parse("poset p\n  elements: a b c\n  order: a<b<c\n")
    assert e.value.line == 3
    assert "order item 'a<b<c' is not of the form a<b" in str(e.value)


_CHAIN = "poset p\n  elements: x y\n  order: x<y\nalgebra a on p\n"  # lines 1-4
_VEE = "poset p\n  elements: x y z\n  order: x<y x<z\nalgebra a on p\n"  # lines 1-4


@pytest.mark.parametrize("text, line, message", [
    ("poset p\n  elements: x y\nalgebra a on p\n"
     "  binary f : (x,x)->x (x,x)->y (x,y)->x (y,x)->x (y,y)->y\n",
     4, "duplicate binary entry for '(x,x)'"),
    ("poset p\n  elements: x y\nalgebra a on p\n  choice meet {x,y}=x\n",
     4, "not down-directed"),
    (_CHAIN + "  binary f :\n    row x: x y\n    row zz: x y\n", 7, "unknown element label 'zz'"),
    (_VEE + "  choice meet {y,z}=x\n  choice meet {y,zz}=x\n", 6, "unknown element label 'zz'"),
    (_VEE + "  choice meet {y,z}=x\n  choice meet {z,y}=x\n", 6, "duplicate meet choice for {z,y}"),
    ("poset p\n  elements: x\nalgebra a on p\n  unary f : x->zz\n  binary g : bad\n",
     4, "unknown element label 'zz'"),
    (_CHAIN + "  unary f : x->x y->y\n  constant c: x\n  unary f : x->y y->y\n",
     7, "duplicate symbol in signature"),
    (_VEE + "  choice meet {y,z}=x\n  constant ⊓: x\n", 6, "both an explicit ⊓ table and meet choices"),
], ids=["repeated-pair-cell", "choice-not-directed", "row-label", "second-choice-line",
        "repeated-choice-pair", "earliest-line", "repeated-symbol", "choice-then-explicit"])
def test_parse_error_at_faulty_line(text, line, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.line == line and message in e.value.message


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
    with pytest.raises(ParseError) as e:  # an unknown argument, not only a value
        parse("poset p\n  elements: x\nalgebra a on p\n  unary f : x->x zz->x\n")
    assert e.value.line == 4 and "unknown element label 'zz'" in str(e.value)


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


@given(algebras())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_tables(A):
    text = serialize_poset("p", build_poset(A.labels, [])) + serialize_algebra("a", A, "p")
    assert parse(text).algebras["a"] == A
    # the binary g comes last, so its row form ends the text
    pairs = " ".join(
        f"({A.labels[x]},{A.labels[y]})->{A.labels[v]}"
        for x, row in enumerate(A.table("g"))
        for y, v in enumerate(row)
    )
    head, rows, _ = text.partition("  binary g :\n")
    assert rows
    assert parse(f"{head}  binary g : {pairs}\n").algebras["a"] == A


def test_serialize_rejects_bad_labels():
    for label in ("a:b", "a=1"):
        with pytest.raises(ValueError):
            serialize_poset("p", build_poset([label], []))


@pytest.mark.parametrize("label", ["a=1", "(x", "x)", "a,b"])
def test_parse_rejects_labels_no_item_can_name(label):
    # a choice item splits at its first '=', and pair and choice items at
    # their top-level comma, so these labels could not be named in an item
    with pytest.raises(ParseError) as e:
        parse(f"poset p\n  elements: {label} b\n")
    assert e.value.line == 2 and repr(label) in e.value.message


def test_bracketed_labels_round_trip():
    # the labels that decompose and product print
    P = build_poset(["{a,b}", "{(c,0),(c,a)}", "(0,1)"], [("{a,b}", "{(c,0),(c,a)}")])
    text = serialize_poset("p", P)
    assert parse(text).posets["p"] == P and serialize(parse(text)) == text
