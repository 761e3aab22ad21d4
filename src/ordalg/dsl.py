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

Choice lines override the canonical choice on the pairs they name, by the
rule of :func:`ordalg.assign.assign_algebra` (see the :mod:`ordalg.assign`
docstring): every incomparable pair not mentioned takes the canonical
element.  Serialization always emits explicit tables (row form for binary
operations), and ``parse(serialize(doc)) == doc``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import JOIN, MEET, Algebra, _override_choice, table_from_choice
from .errors import InvalidChoice, OrdalgError, ParseError
from .poset import Poset, build_poset

_RESERVED_IN_LABEL = ("<", ":", "->", "#")


def _label_ok(label: str) -> bool:
    return bool(label) and not any(ch.isspace() for ch in label) and not any(
        r in label for r in _RESERVED_IN_LABEL
    )


@dataclass
class Document:
    posets: dict[str, Poset] = field(default_factory=dict)
    algebras: dict[str, Algebra] = field(default_factory=dict)
    algebra_poset: dict[str, str] = field(default_factory=dict)

    def the_poset(self, name: str | None = None) -> tuple[str, Poset]:
        if name is not None:
            if name not in self.posets:
                raise OrdalgError(f"no poset named {name!r} in document")
            return name, self.posets[name]
        if len(self.posets) != 1:
            raise OrdalgError(
                f"document defines {len(self.posets)} posets; pick one by name"
            )
        return next(iter(self.posets.items()))

    def the_algebra(self, name: str | None = None) -> tuple[str, Algebra]:
        if name is not None:
            if name not in self.algebras:
                raise OrdalgError(f"no algebra named {name!r} in document")
            return name, self.algebras[name]
        if len(self.algebras) != 1:
            raise OrdalgError(
                f"document defines {len(self.algebras)} algebras; pick one by name"
            )
        return next(iter(self.algebras.items()))


def choice_item(item: str) -> tuple[str, str, str]:
    """The labels (x, y, z) of a ``{x,y}=z`` choice item; ``ValueError`` if
    it has another form.  The caller checks the labels."""
    body, sep, v = item.partition("=")
    if not sep or not body.startswith("{") or not body.endswith("}"):
        raise ValueError(f"choice item {item!r} is not of the form {{x,y}}=z")
    a, comma, b = body[1:-1].partition(",")
    if not comma:
        raise ValueError(f"choice item {item!r} needs two elements")
    return a, b, v


def _split_pair_item(item: str, lineno: int) -> tuple[str, str]:
    """Split ``(a,b)`` respecting one level of {} or () nesting inside labels."""
    if not (item.startswith("(") and item.endswith(")")):
        raise ParseError(lineno, f"expected (x,y) pair, got {item!r}")
    body = item[1:-1]
    depth = 0
    for i, ch in enumerate(body):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise ParseError(lineno, f"expected a top-level comma in {item!r}")


class _AlgebraBuilder:
    def __init__(self, name: str, poset_name: str, lineno: int):
        self.name = name
        self.poset_name = poset_name
        self.lineno = lineno
        self.ops: list[tuple[str, int, object, int]] = []  # (sym, arity, payload, line)
        self.current_binary: dict[str, str] | None = None
        self.choices: dict[str, dict[tuple[str, str], str]] = {}
        self.choice_lines: dict[str, int] = {}

    def op_symbols(self) -> set[str]:
        return {sym for sym, _, _, _ in self.ops}


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.doc = Document()
        self.poset_name: str | None = None
        self.poset_line = 0
        self.elements: list[str] | None = None
        self.order: list[tuple[str, str]] = []
        self.algebra: _AlgebraBuilder | None = None

    def fail(self, lineno: int, msg: str):
        raise ParseError(lineno, msg)

    def flush(self, lineno: int):
        if self.poset_name is not None:
            if self.elements is None:
                self.fail(self.poset_line, f"poset {self.poset_name!r} has no elements line")
            try:
                P = build_poset(self.elements, self.order)
            except (OrdalgError, ValueError) as e:
                raise ParseError(self.poset_line, str(e)) from e
            self.doc.posets[self.poset_name] = P
            self.poset_name = None
            self.elements = None
            self.order = []
        if self.algebra is not None:
            self._finish_algebra(lineno)
            self.algebra = None

    def _finish_algebra(self, lineno: int):
        b = self.algebra
        assert b is not None
        P = self.doc.posets.get(b.poset_name)
        if P is None:
            self.fail(b.lineno, f"algebra {b.name!r} references unknown poset {b.poset_name!r}")
        ops: list[tuple[str, int, object]] = []

        def to_index(label: str, line: int) -> int:
            try:
                return P.index(label)
            except OrdalgError:
                self.fail(line, f"unknown element label {label!r}")

        for kind in ("meet", "join"):
            if kind not in b.choices:
                continue
            sym = MEET if kind == "meet" else JOIN
            if sym in b.op_symbols():
                self.fail(
                    b.choice_lines[kind],
                    f"algebra gives both an explicit {sym} table and {kind} choices",
                )
            line = b.choice_lines[kind]
            overrides = {
                (to_index(la, line), to_index(lb, line)): to_index(lv, line)
                for (la, lb), lv in b.choices[kind].items()
            }
            try:
                choice = _override_choice(P, kind, overrides)
            except InvalidChoice as e:
                raise ParseError(line, str(e)) from e
            ops.append((sym, 2, table_from_choice(P, choice, kind)))

        for sym, arity, payload, line in b.ops:
            if arity == 0:
                ops.append((sym, 0, to_index(payload, line)))  # type: ignore[arg-type]
            elif arity == 1:
                mapping: dict[str, str] = payload  # type: ignore[assignment]
                for a in mapping:
                    to_index(a, line)
                missing = [l for l in P.labels if l not in mapping]
                if missing:
                    self.fail(line, f"non-total unary table for {sym!r}: missing {missing[0]!r}")
                ops.append(
                    (sym, 1, [to_index(mapping[l], line) for l in P.labels])
                )
            else:
                rows: dict[str, list[str]] | dict[tuple[str, str], str] = payload  # type: ignore[assignment]
                table = [[-1] * P.n for _ in range(P.n)]
                if rows and isinstance(next(iter(rows)), tuple):
                    for (la, lb), lv in rows.items():  # type: ignore[union-attr]
                        table[to_index(la, line)][to_index(lb, line)] = to_index(lv, line)
                else:
                    for la, values in rows.items():  # type: ignore[union-attr]
                        if len(values) != P.n:
                            self.fail(
                                line,
                                f"non-total table for {sym!r}: row {la!r} has "
                                f"{len(values)} of {P.n} entries",
                            )
                        x = to_index(la, line)
                        for j, lv in enumerate(values):
                            table[x][j] = to_index(lv, line)
                holes = [
                    (P.labels[i], P.labels[j])
                    for i in range(P.n)
                    for j in range(P.n)
                    if table[i][j] == -1
                ]
                if holes:
                    self.fail(
                        line,
                        f"non-total table for {sym!r}: missing entry at {holes[0]!r}",
                    )
                ops.append((sym, 2, table))
        try:
            A = Algebra(P.labels, ops)
        except (OrdalgError, ValueError) as e:
            raise ParseError(b.lineno, str(e)) from e
        self.doc.algebras[b.name] = A
        self.doc.algebra_poset[b.name] = b.poset_name

    def parse(self) -> Document:
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, tail = line.partition(":")
            head_tokens = head.split()
            if not head_tokens:
                self.fail(lineno, "expected a directive before ':'")
            kw = head_tokens[0]
            if kw == "poset":
                self.flush(lineno)
                if len(head_tokens) != 2 or tail:
                    self.fail(lineno, "expected: poset NAME")
                name = head_tokens[1]
                if name in self.doc.posets or name in self.doc.algebras:
                    self.fail(lineno, f"duplicate definition name {name!r}")
                self.poset_name = name
                self.poset_line = lineno
            elif kw == "algebra":
                self.flush(lineno)
                if len(head_tokens) != 4 or head_tokens[2] != "on" or tail:
                    self.fail(lineno, "expected: algebra NAME on POSET")
                name = head_tokens[1]
                if name in self.doc.posets or name in self.doc.algebras:
                    self.fail(lineno, f"duplicate definition name {name!r}")
                self.algebra = _AlgebraBuilder(name, head_tokens[3], lineno)
            elif kw == "elements":
                if self.poset_name is None:
                    self.fail(lineno, "'elements' outside a poset block")
                if self.elements is not None:
                    self.fail(lineno, "second 'elements' line in one poset block")
                labels = tail.split()
                for l in labels:
                    if not _label_ok(l):
                        self.fail(lineno, f"label {l!r} contains reserved characters")
                self.elements = labels
            elif kw == "order":
                if self.poset_name is None:
                    self.fail(lineno, "'order' outside a poset block")
                for item in tail.split():
                    a, _, bb = item.partition("<")
                    if not a or not bb or "<" in bb:  # labels hold no '<'; chains are not read
                        self.fail(lineno, f"order item {item!r} is not of the form a<b")
                    self.order.append((a, bb))
            elif kw == "unary":
                b = self._need_algebra(lineno, "unary")
                if len(head_tokens) != 2:
                    self.fail(lineno, "expected: unary SYM : a->b ...")
                sym = head_tokens[1]
                mapping: dict[str, str] = {}
                for item in tail.split():
                    a, sep, v = item.partition("->")
                    if not sep or not a or not v:
                        self.fail(lineno, f"unary item {item!r} is not of the form a->b")
                    if a in mapping:
                        self.fail(lineno, f"duplicate unary entry for {a!r}")
                    mapping[a] = v
                b.ops.append((sym, 1, mapping, lineno))
                b.current_binary = None
            elif kw == "binary":
                b = self._need_algebra(lineno, "binary")
                if len(head_tokens) != 2:
                    self.fail(lineno, "expected: binary SYM : (a,b)->c ... (or row lines)")
                sym = head_tokens[1]
                items = tail.split()
                if items:
                    pairs: dict[tuple[str, str], str] = {}
                    for item in items:
                        lhs, sep, v = item.partition("->")
                        if not sep:
                            self.fail(lineno, f"binary item {item!r} is not of the form (a,b)->c")
                        a, bb = _split_pair_item(lhs, lineno)
                        pairs[(a, bb)] = v
                    b.ops.append((sym, 2, pairs, lineno))
                    b.current_binary = None
                else:
                    rows: dict[str, list[str]] = {}
                    b.ops.append((sym, 2, rows, lineno))
                    b.current_binary = rows
            elif kw == "row":
                b = self._need_algebra(lineno, "row")
                if b.current_binary is None:
                    self.fail(lineno, "'row' line without a preceding bare 'binary SYM :' line")
                if len(head_tokens) != 2:
                    self.fail(lineno, "expected: row LABEL: v1 v2 ...")
                label = head_tokens[1]
                if label in b.current_binary:
                    self.fail(lineno, f"duplicate row for {label!r}")
                b.current_binary[label] = tail.split()
            elif kw == "constant":
                b = self._need_algebra(lineno, "constant")
                if len(head_tokens) != 2 or len(tail.split()) != 1:
                    self.fail(lineno, "expected: constant SYM: label")
                b.ops.append((head_tokens[1], 0, tail.split()[0], lineno))
                b.current_binary = None
            elif kw == "choice":
                b = self._need_algebra(lineno, "choice")
                if len(head_tokens) < 3 or head_tokens[1] not in ("meet", "join"):
                    self.fail(lineno, "expected: choice meet|join {x,y}=z ...")
                kind = head_tokens[1]
                store = b.choices.setdefault(kind, {})
                b.choice_lines.setdefault(kind, lineno)
                for item in head_tokens[2:]:
                    try:
                        a, bb, v = choice_item(item)
                    except ValueError as e:
                        self.fail(lineno, str(e))
                    store[(a, bb)] = v
                b.current_binary = None
            else:
                self.fail(lineno, f"unknown directive {kw!r}")
        self.flush(len(self.lines) + 1)
        return self.doc

    def _need_algebra(self, lineno: int, kw: str) -> _AlgebraBuilder:
        if self.algebra is None:
            self.fail(lineno, f"{kw!r} outside an algebra block")
        return self.algebra


def parse(text: str) -> Document:
    """Parse DSL text into a document of named posets and algebras."""
    return _Parser(text).parse()


def serialize_poset(name: str, P: Poset) -> str:
    for l in P.labels:
        if not _label_ok(l):
            raise ValueError(f"label {l!r} cannot be written in the DSL")
    lines = [f"poset {name}", "  elements: " + " ".join(P.labels)]
    cov = P.covers()
    if cov:
        lines.append(
            "  order: " + " ".join(f"{P.labels[x]}<{P.labels[y]}" for x, y in cov)
        )
    return "\n".join(lines) + "\n"


def serialize_algebra(name: str, A: Algebra, poset_name: str) -> str:
    for l in A.labels:
        if not _label_ok(l):
            raise ValueError(f"label {l!r} cannot be written in the DSL")
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
