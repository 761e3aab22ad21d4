"""Line-oriented text format for posets and algebras.

Grammar (one construct per line, ``#`` starts a comment, blank lines and
indentation are ignored)::

    poset NAME
      elements: l1 l2 ...
      order: a<b c<d ...

    algebra NAME on POSET
      unary SYM : a->b c->d ...
      binary SYM : (a,b)->c ...        # or row form, one line per row:
      binary SYM :
        row a: v1 v2 ...
      constant SYM: label
      choice meet {x,y}=z              # derive ⊓ from the assignment rule
      choice join {x,y}=z              # derive ⊔ dually

A label is nonempty and holds no whitespace, ``<``, ``:``, ``->``, ``#`` or
``=``; its ``()`` and ``{}`` brackets nest, with every comma inside them, as
pair and choice items split at their top-level comma: ``({a,b},c)`` and
``{{a,b},c}=d`` both name the labels ``{a,b}`` and ``c``.  An algebra's POSET
is defined above it, and each operation symbol, table cell, row and choice
pair is given once.

Choice lines override the canonical choice on the pairs they name, by the
rule of :func:`ordalg.assign.assign_algebra` (see the :mod:`ordalg.assign`
docstring): every incomparable pair not mentioned takes the canonical
element.  The built algebra lists the derived ⊓, then ⊔, then the explicit
operations in line order.  Serialization always emits explicit tables (row
form for binary operations), and ``parse(serialize(doc)) == doc``.

Text is read block by block in line order, and each line's labels are
resolved at that line, so a :class:`~ordalg.errors.ParseError` names the
faulty line.  What needs the whole block is checked at its end and reported
at the line it concerns: a poset that does not build at its header, a binary
table with a missing cell at its ``binary`` line, invalid choices at the
first ``choice`` line of their kind, and an algebra that does not build at
its header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NoReturn

from .algebra import JOIN, MEET, Algebra, _override_choice, table_from_choice
from .errors import OrdalgError, ParseError
from .poset import Poset, build_poset

_RESERVED_IN_LABEL = ("<", ":", "->", "#", "=")

# line number, the words before ':' (a directive first), the text after ':'
_Line = tuple[int, list[str], str]

_KIND_OF = {MEET: "meet", JOIN: "join"}  # the choice lines that derive each symbol


def _label_ok(label: str) -> bool:
    depth = 0
    for ch in label:
        depth += (ch in "({") - (ch in ")}")
        if depth < 0 or ch.isspace() or (ch == "," and depth == 0):
            return False
    return bool(label) and depth == 0 and not any(r in label for r in _RESERVED_IN_LABEL)


def _check_writable(labels) -> None:
    for label in labels:
        if not _label_ok(label):
            raise ValueError(f"label {label!r} cannot be written in the DSL")


def _the(kind: str, named: dict, name: str | None) -> tuple[str, object]:
    if name is not None:
        if name not in named:
            raise OrdalgError(f"no {kind} named {name!r} in document")
        return name, named[name]
    if len(named) != 1:
        raise OrdalgError(f"document defines {len(named)} {kind}s; pick one by name")
    return next(iter(named.items()))


@dataclass
class Document:
    posets: dict[str, Poset] = field(default_factory=dict)
    algebras: dict[str, Algebra] = field(default_factory=dict)
    algebra_poset: dict[str, str] = field(default_factory=dict)

    def the_poset(self, name: str | None = None) -> tuple[str, Poset]:
        return _the("poset", self.posets, name)  # type: ignore[return-value]

    def the_algebra(self, name: str | None = None) -> tuple[str, Algebra]:
        return _the("algebra", self.algebras, name)  # type: ignore[return-value]


def _split_top_comma(item: str) -> tuple[str, str]:
    """The two labels inside a bracketed ``(x,y)`` or ``{x,y}``, split at its
    first comma outside {} and () nesting; ``ValueError`` if there is none."""
    depth = 0
    for i, ch in enumerate(item):
        depth += (ch in "({") - (ch in ")}")
        if ch == "," and depth == 1:
            return item[1:i], item[i + 1 : -1]
    raise ValueError(f"expected a top-level comma in {item!r}")


def choice_item(item: str) -> tuple[str, str, str]:
    """The labels (x, y, z) of a ``{x,y}=z`` choice item; ``ValueError`` if
    it has another form.  The caller checks the labels."""
    body, sep, v = item.partition("=")
    if not sep or not body.startswith("{") or not body.endswith("}"):
        raise ValueError(f"choice item {item!r} is not of the form {{x,y}}=z")
    return (*_split_top_comma(body), v)


def _split_pair_item(item: str, lineno: int) -> tuple[str, str]:
    """The labels of an ``(x,y)`` pair item."""
    if not (item.startswith("(") and item.endswith(")")):
        raise ParseError(lineno, f"expected (x,y) pair, got {item!r}")
    try:
        return _split_top_comma(item)
    except ValueError as e:
        raise ParseError(lineno, str(e)) from e


def _lines(text: str) -> Iterator[_Line]:
    """The nonblank lines, split as they are reached."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        words = head.split()
        if not words:
            raise ParseError(lineno, "expected a directive before ':'")
        yield lineno, words, tail


def _misplaced(lineno: int, kw: str) -> NoReturn:
    if kw in ("elements", "order"):
        raise ParseError(lineno, f"{kw!r} outside a poset block")
    if kw in ("unary", "binary", "row", "constant", "choice"):
        raise ParseError(lineno, f"{kw!r} outside an algebra block")
    raise ParseError(lineno, f"unknown directive {kw!r}")


def _new_name(doc: Document, lineno: int, name: str) -> str:
    if name in doc.posets or name in doc.algebras:
        raise ParseError(lineno, f"duplicate definition name {name!r}")
    return name


def _read_poset(doc: Document, header: _Line, lines: Iterator[_Line]) -> _Line | None:
    """Read a poset block into ``doc``; the header that ends it, if any."""
    lineno, words, tail = header
    if len(words) != 2 or tail:
        raise ParseError(lineno, "expected: poset NAME")
    name = _new_name(doc, lineno, words[1])
    elements: list[str] | None = None
    order: list[tuple[str, str]] = []
    for line in lines:
        at, words, tail = line
        kw = words[0]
        if kw in _READERS:
            break
        if kw == "elements":
            if elements is not None:
                raise ParseError(at, "second 'elements' line in one poset block")
            elements = tail.split()
            for label in elements:
                if not _label_ok(label):
                    raise ParseError(at, f"label {label!r} cannot be written in the DSL")
        elif kw == "order":
            for item in tail.split():
                a, _, b = item.partition("<")
                if not a or not b or "<" in b:  # labels hold no '<'; chains are not read
                    raise ParseError(at, f"order item {item!r} is not of the form a<b")
                order.append((a, b))
        else:
            _misplaced(at, kw)
    else:
        line = None
    if elements is None:
        raise ParseError(lineno, f"poset {name!r} has no elements line")
    try:
        doc.posets[name] = build_poset(elements, order)
    except (OrdalgError, ValueError) as e:
        raise ParseError(lineno, str(e)) from e
    return line


def _read_algebra(doc: Document, header: _Line, lines: Iterator[_Line]) -> _Line | None:
    """Read an algebra block into ``doc``; the header that ends it, if any."""
    lineno, words, tail = header
    if len(words) != 4 or words[2] != "on" or tail:
        raise ParseError(lineno, "expected: algebra NAME on POSET")
    name = _new_name(doc, lineno, words[1])
    poset_name = words[3]
    P = doc.posets.get(poset_name)
    if P is None:
        raise ParseError(lineno, f"algebra {name!r} references unknown poset {poset_name!r}")
    n = P.n

    def index(label: str, at: int) -> int:
        try:
            return P.index(label)
        except OrdalgError:
            raise ParseError(at, f"unknown element label {label!r}") from None

    ops: list[tuple[str, int, object]] = []  # explicit operations in line order
    op_line: dict[str, int] = {}
    choices: dict[str, tuple[int, dict[tuple[int, int], int]]] = {}  # kind: (first line, cells)
    rows: tuple[str, list[list[int]]] | None = None  # the table that row lines fill

    def add_op(sym: str, arity: int, table: object, at: int) -> None:
        kind = _KIND_OF.get(sym)
        if kind in choices:
            raise ParseError(at, f"algebra gives both an explicit {sym} table and {kind} choices")
        if sym in op_line:
            raise ParseError(at, "duplicate symbol in signature")
        ops.append((sym, arity, table))
        op_line[sym] = at

    for line in lines:
        at, words, tail = line
        kw = words[0]
        if kw in _READERS:
            break
        if kw == "row":
            if rows is None:
                raise ParseError(at, "'row' line without a preceding bare 'binary SYM :' line")
            if len(words) != 2:
                raise ParseError(at, "expected: row LABEL: v1 v2 ...")
            sym, table = rows
            x = index(words[1], at)
            if table[x][0] != -1:
                raise ParseError(at, f"duplicate row for {words[1]!r}")
            values = tail.split()
            if len(values) != n:
                raise ParseError(
                    at,
                    f"non-total table for {sym!r}: row {words[1]!r} has "
                    f"{len(values)} of {n} entries",
                )
            table[x] = [index(v, at) for v in values]
            continue
        rows = None
        if kw == "unary":
            if len(words) != 2:
                raise ParseError(at, "expected: unary SYM : a->b ...")
            unary = [-1] * n
            add_op(words[1], 1, unary, at)
            for item in tail.split():
                a, sep, v = item.partition("->")
                if not sep or not a or not v:
                    raise ParseError(at, f"unary item {item!r} is not of the form a->b")
                x = index(a, at)
                if unary[x] != -1:
                    raise ParseError(at, f"duplicate unary entry for {a!r}")
                unary[x] = index(v, at)
            if -1 in unary:
                missing = P.labels[unary.index(-1)]
                raise ParseError(at, f"non-total unary table for {words[1]!r}: missing {missing!r}")
        elif kw == "binary":
            if len(words) != 2:
                raise ParseError(at, "expected: binary SYM : (a,b)->c ... (or row lines)")
            table = [[-1] * n for _ in range(n)]
            add_op(words[1], 2, table, at)
            items = tail.split()
            for item in items:
                lhs, sep, v = item.partition("->")
                if not sep:
                    raise ParseError(at, f"binary item {item!r} is not of the form (a,b)->c")
                a, b = _split_pair_item(lhs, at)
                x, y = index(a, at), index(b, at)
                if table[x][y] != -1:
                    raise ParseError(at, f"duplicate binary entry for {lhs!r}")
                table[x][y] = index(v, at)
            if not items:
                rows = (words[1], table)
        elif kw == "constant":
            if len(words) != 2 or len(tail.split()) != 1:
                raise ParseError(at, "expected: constant SYM: label")
            add_op(words[1], 0, index(tail.split()[0], at), at)
        elif kw == "choice":
            if len(words) < 3 or words[1] not in ("meet", "join"):
                raise ParseError(at, "expected: choice meet|join {x,y}=z ...")
            kind = words[1]
            sym = MEET if kind == "meet" else JOIN
            if sym in op_line:
                raise ParseError(at, f"algebra gives both an explicit {sym} table and {kind} choices")
            cells = choices.setdefault(kind, (at, {}))[1]
            for item in words[2:]:
                try:
                    a, b, v = choice_item(item)
                except ValueError as e:
                    raise ParseError(at, str(e)) from e
                x, y = index(a, at), index(b, at)
                if (x, y) in cells or (y, x) in cells:
                    raise ParseError(at, f"duplicate {kind} choice for {{{a},{b}}}")
                cells[(x, y)] = index(v, at)
        else:
            _misplaced(at, kw)
    else:
        line = None

    for sym, arity, table in ops:
        if arity == 2:
            for x, row in enumerate(table):  # type: ignore[arg-type]
                if -1 in row:
                    hole = (P.labels[x], P.labels[row.index(-1)])
                    raise ParseError(
                        op_line[sym], f"non-total table for {sym!r}: missing entry at {hole!r}"
                    )
    derived: list[tuple[str, int, object]] = []
    for kind, sym in (("meet", MEET), ("join", JOIN)):
        if kind in choices:
            first, cells = choices[kind]
            try:
                choice = _override_choice(P, kind, cells)
            except OrdalgError as e:
                raise ParseError(first, str(e)) from e
            derived.append((sym, 2, table_from_choice(P, choice, kind)))
    try:
        doc.algebras[name] = Algebra(P.labels, derived + ops)
    except (OrdalgError, ValueError) as e:
        raise ParseError(lineno, str(e)) from e
    doc.algebra_poset[name] = poset_name
    return line


_READERS = {"poset": _read_poset, "algebra": _read_algebra}


def parse(text: str) -> Document:
    """Parse DSL text into a document of named posets and algebras."""
    doc = Document()
    lines = _lines(text)
    line = next(lines, None)
    while line is not None:
        lineno, words, _ = line
        if words[0] not in _READERS:
            _misplaced(lineno, words[0])
        line = _READERS[words[0]](doc, line, lines)
    return doc


def serialize_poset(name: str, P: Poset) -> str:
    _check_writable(P.labels)
    lines = [f"poset {name}", "  elements: " + " ".join(P.labels)]
    cov = P.covers()
    if cov:
        lines.append(
            "  order: " + " ".join(f"{P.labels[x]}<{P.labels[y]}" for x, y in cov)
        )
    return "\n".join(lines) + "\n"


def serialize_algebra(name: str, A: Algebra, poset_name: str) -> str:
    _check_writable(A.labels)
    lines = [f"algebra {name} on {poset_name}"]
    for (sym, arity), table in zip(A.signature.symbols, A.tables):
        if arity == 0:
            lines.append(f"  constant {sym}: {A.labels[table]}")
        elif arity == 1:
            items = " ".join(f"{A.labels[i]}->{A.labels[v]}" for i, v in enumerate(table))
            lines.append(f"  unary {sym} : {items}")
        else:
            lines.append(f"  binary {sym} :")
            for i, row in enumerate(table):
                lines.append(
                    f"    row {A.labels[i]}: " + " ".join(A.labels[v] for v in row)
                )
    return "\n".join(lines) + "\n"


def serialize(doc: Document) -> str:
    """Canonical DSL text; algebras always use explicit row-form tables."""
    chunks = [serialize_poset(name, P) for name, P in doc.posets.items()]
    for name, A in doc.algebras.items():
        pname = doc.algebra_poset.get(name)
        if pname is None:
            raise ValueError(f"algebra {name!r} has no poset reference to serialize")
        chunks.append(serialize_algebra(name, A, pname))
    return "\n".join(chunks)
