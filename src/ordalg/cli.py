"""Command-line interface.

Exit codes: 0 verdict holds (or nothing contradictory found), 1 verdict fails
(witness printed), 2 usage or input errors.

Every call is a fresh process, so start-up is part of every command's time.
A command therefore loads only the layers it calls: each ``_cmd_*`` imports
them itself, and building the parser loads none of them, only the base
modules ``errors``, ``poset`` and ``algebra``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .algebra import PROFILES, Algebra, induced_order
from .errors import MissingSymbol, NotAPartialOrder, OrdalgError
from .poset import build_poset, is_distributive

if TYPE_CHECKING:
    from .dsl import Document

SCHEMA_VERSION = 1


def _load(path: str) -> Document:
    from .dsl import parse

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OrdalgError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from e
    return parse(text)


def _labels(P, value):
    """Render witness values (indices, index tuples) with element labels."""
    if isinstance(value, int):
        return P.labels[value] if 0 <= value < len(P.labels) else value
    if isinstance(value, (tuple, list, frozenset, set)):
        return [P.labels[v] for v in sorted(value)]
    return value


def _witness_json(P, witness: dict | None):
    if witness is None:
        return None
    return {k: _labels(P, v) for k, v in witness.items()}


def _witness_text(P, witness: dict | None) -> str:
    if not witness:
        return ""
    parts = []
    for k, v in witness.items():
        rendered = _labels(P, v)
        if isinstance(rendered, list):
            rendered = "{" + ",".join(rendered) + "}"
        parts.append(f"{k}={rendered}")
    return "  ".join(parts)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for line in human:
            print(line)


# -- check ----------------------------------------------------------------------


def _cmd_check(args) -> int:
    from . import pc

    doc = _load(args.file)
    names = [args.name] if args.name else list(doc.posets)
    if not names:
        print("error: no posets in file", file=sys.stderr)
        return 2
    results = []
    lines = []
    ok = True
    for name in names:
        P = doc.posets.get(name)
        if P is None:
            print(f"error: no poset named {name!r}", file=sys.stderr)
            return 2
        if args.cls == "distributive":
            rep = is_distributive(P)
            holds = rep.holds
            witness = None
            if not holds:
                witness = dict(zip("xyz", rep.witness))
                witness["equality"] = rep.equality
                witness["lhs"] = tuple(sorted(rep.lhs))
                witness["rhs"] = tuple(sorted(rep.rhs))
            entry = {"poset": name, "class": "distributive", "holds": holds,
                     "witness": _witness_json(P, witness)}
            note = ""
        else:
            cls = pc.classify(P, args.cls)
            holds = cls.holds
            entry = {
                "poset": name,
                "class": cls.kind,
                "holds": cls.holds,
                "applicable": cls.applicable,
                "witness": _witness_json(P, cls.witness),
                "note": cls.note,
            }
            witness = cls.witness
            note = cls.note
        results.append(entry)
        verdict = "HOLDS" if holds else "FAILS"
        suffix = f"  {_witness_text(P, witness)}" if witness else ""
        if note:
            suffix += f"  [{note}]"
        lines.append(f"{name}: {args.cls}: {verdict}{suffix}")
        ok = ok and holds
    _emit(args, {"schema": SCHEMA_VERSION, "command": "check", "results": results}, lines)
    return 0 if ok else 1


# -- assign ----------------------------------------------------------------------


def _parse_choice_args(P, texts) -> dict[str, dict]:
    """``--choice`` overrides as ``{"meet": {pair: value}, "join": {...}}``,
    the keyword arguments of :func:`assign_algebra`."""
    chosen: dict[str, dict] = {"meet": {}, "join": {}}
    for text in texts or ():
        try:
            kind, rest = text.split(None, 1)
            if kind not in chosen:
                raise ValueError(f"the kind must be 'meet' or 'join', not {kind!r}")
            body, value = rest.split("=", 1)
            a, b = body.strip()[1:-1].split(",", 1)
            pair = (P.index(a.strip()), P.index(b.strip()))
            chosen[kind][(min(pair), max(pair))] = P.index(value.strip())
        except (ValueError, OrdalgError) as e:
            raise OrdalgError(f"bad --choice {text!r}: {e}") from e
    return chosen


def _check_count(flag: str, value: int | None) -> None:
    """Reject a negative ``--limit`` or ``--random``; 0, like no option,
    means no cap or exhaustive search."""
    if value is not None and value < 0:
        raise OrdalgError(f"--{flag} must be at least 0, got {value}")


def _cmd_assign(args) -> int:
    from .assign import assign_algebra, enumerate_assignments, verify_assigned_conditions
    from .dsl import serialize_algebra

    _check_count("limit", args.limit)
    doc = _load(args.file)
    pname, P = doc.the_poset(args.name)
    emitted = []
    lines = []
    if args.enumerate:
        for flag in ("choice", "verify"):
            if getattr(args, flag):
                raise OrdalgError(f"--{flag} does not apply with --enumerate")
        space, algebras = enumerate_assignments(P, args.profile)
        lines.append(f"# {space.count} assignments for profile {args.profile}")
        for count in range(space.count):
            if args.limit and count >= args.limit:
                lines.append(f"# ... truncated at --limit={args.limit}")
                break
            A = next(algebras)
            aname = f"{pname}_{args.profile}_{count}"
            emitted.append({"name": aname, **A.to_json()})
            lines.append(serialize_algebra(aname, A, pname))
    else:
        if args.limit is not None:
            raise OrdalgError("--limit applies only with --enumerate")
        A = assign_algebra(P, args.profile, **_parse_choice_args(P, args.choice))
        aname = f"{pname}_{args.profile}"
        emitted.append({"name": aname, **A.to_json()})
        lines.append(serialize_algebra(aname, A, pname))
        if args.verify:
            reports = verify_assigned_conditions(A, args.profile)
            for cname, rep in reports.items():
                verdict = "HOLDS" if rep.holds else "FAILS"
                w = f"  {_witness_text(P, rep.witness)}" if rep.witness else ""
                lines.append(f"# condition ({cname}): {verdict}{w}")
    _emit(
        args,
        {"schema": SCHEMA_VERSION, "command": "assign", "algebras": emitted},
        lines,
    )
    return 0


# -- audit ----------------------------------------------------------------------


def _cmd_audit(args) -> int:
    from .assign import AUDIT_BUDGET, theorem_equivalence_audit

    budget = AUDIT_BUDGET if args.budget is None else args.budget
    doc = _load(args.file)
    profiles = [args.profile] if args.profile else list(PROFILES)
    reports = []
    lines = []
    ok = True
    for pname, P in doc.posets.items():
        for prof in profiles:
            rep = theorem_equivalence_audit(P, prof, budget=budget)
            reports.append(
                {
                    "poset": pname,
                    "profile": prof,
                    "poset_holds": rep.poset_holds,
                    "assignments_total": rep.assignments_total,
                    "assignments_checked": rep.assignments_checked,
                    "sampled": rep.sampled,
                    "divergences": len(rep.divergences),
                    "note": rep.note,
                }
            )
            status = "OK" if rep.holds else f"DIVERGES ({len(rep.divergences)})"
            lines.append(
                f"{pname} / {prof}: poset={'in class' if rep.poset_holds else 'not in class'} "
                f"assignments={rep.assignments_checked}/{rep.assignments_total} {status}"
            )
            ok = ok and rep.holds
    _emit(args, {"schema": SCHEMA_VERSION, "command": "audit", "reports": reports}, lines)
    return 0 if ok else 1


# -- con ----------------------------------------------------------------------


def _cmd_con(args) -> int:
    from .congruence import congruence_lattice, congruence_properties, verify_term_conditions

    if args.unit is not None and not args.props:
        raise OrdalgError("--unit applies only with --props")
    doc = _load(args.file)
    aname, A = doc.the_algebra(args.name)
    lat = congruence_lattice(A)
    payload: dict = {
        "schema": SCHEMA_VERSION,
        "command": "con",
        "algebra": aname,
        "count": len(lat),
        "congruences": [
            [list(block) for block in c.blocks()] for c in lat.congruences
        ],
    }
    lines = [f"{aname}: {len(lat)} congruences"]
    for c in lat.congruences:
        blocks = " ".join(
            "{" + ",".join(A.labels[e] for e in block) + "}" for block in c.blocks()
        )
        lines.append(f"  {blocks}")
    if args.props:
        unit = args.unit
        if unit is None and A.signature.has("1", 0):
            unit = "1"
        props = congruence_properties(A, unit_constant=unit, lattice=lat)
        payload["properties"] = {
            "permutable": props.permutable,
            "distributive": props.distributive,
            "arithmetical": props.arithmetical,
            "weakly_regular": props.weakly_regular,
        }
        lines.append(
            f"  properties: permutable={props.permutable} distributive={props.distributive} "
            f"arithmetical={props.arithmetical} weakly_regular={props.weakly_regular}"
        )
    if args.terms:
        schemes = verify_term_conditions(A)
        payload["term_schemes"] = {
            scheme: {name: rep.holds for name, rep in identities.items()}
            for scheme, identities in schemes.items()
        }
        for scheme, identities in schemes.items():
            verdict = "HOLDS" if all(r.holds for r in identities.values()) else "FAILS"
            lines.append(f"  scheme {scheme}: {verdict}")
            for name, rep in identities.items():
                if not rep.holds:
                    lines.append(f"    fails {name}  {_witness_text(A, rep.witness)}")
    _emit(args, payload, lines)
    return 0


# -- decompose / product ---------------------------------------------------------


def _with_order(name: str, A: Algebra) -> list[str]:
    """DSL text for ``A`` and, before it, the poset ``<name>_order`` it refers
    to: the order ``A``'s ⊓ induces, or an antichain when ``A`` has no ⊓ or
    its ⊓ induces no partial order."""
    from .dsl import serialize_algebra, serialize_poset

    try:
        P = induced_order(A)
    except (MissingSymbol, NotAPartialOrder):
        P = build_poset(A.labels, [])
    return [serialize_poset(f"{name}_order", P), serialize_algebra(name, A, f"{name}_order")]


def _cmd_decompose(args) -> int:
    from .decompose import ISO_GUARD, decompose

    doc = _load(args.file)
    aname, A = doc.the_algebra(args.name)
    result = decompose(A, guard=ISO_GUARD if args.guard is None else args.guard)
    if result.indecomposable:
        _emit(
            args,
            {
                "schema": SCHEMA_VERSION,
                "command": "decompose",
                "algebra": aname,
                "indecomposable": True,
            },
            [f"# {aname}: directly indecomposable"],
        )
        return 0
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "decompose",
        "algebra": aname,
        "indecomposable": False,
        "left": result.left.to_json(),
        "right": result.right.to_json(),
        "embedding": [list(e) for e in result.embedding],
    }
    lines = [
        f"# {aname}: decomposes as {result.left.n} x {result.right.n}",
        *_with_order(f"{aname}_left", result.left),
        *_with_order(f"{aname}_right", result.right),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_product(args) -> int:
    from .decompose import direct_product

    doc1 = _load(args.file1)
    doc2 = _load(args.file2)
    n1, A1 = doc1.the_algebra(args.name1)
    n2, A2 = doc2.the_algebra(args.name2)
    A = direct_product(A1, A2)
    name = f"{n1}_x_{n2}"
    _emit(
        args,
        {"schema": SCHEMA_VERSION, "command": "product", "algebra": {"name": name, **A.to_json()}},
        _with_order(name, A),
    )
    return 0


# -- search / fixtures -------------------------------------------------------------


def _cmd_search(args) -> int:
    from .dsl import serialize_poset
    from .search import SearchSpec, parse_predicate, search

    _check_count("limit", args.limit)
    _check_count("random", args.random)
    if args.seed is not None and not args.random:
        raise OrdalgError("--seed applies only with --random")
    try:
        lo, hi = (int(v) for v in args.n.split("..")) if ".." in args.n else (int(args.n),) * 2
    except ValueError:
        print(f"error: bad --n {args.n!r}", file=sys.stderr)
        return 2
    pred = parse_predicate(args.where)
    mode = "random" if args.random else "exhaustive"
    spec = SearchSpec(lo, hi, pred, mode=mode, seed=args.seed or 0, count=args.random or 1000)
    hits = []
    lines = []
    for i, P in enumerate(search(spec)):
        if args.limit and i >= args.limit:
            lines.append(f"# ... truncated at --limit={args.limit}")
            break
        hits.append(P.to_json())
        lines.append(serialize_poset(f"hit{i}", P))
    lines.append(f"# {len(hits)} hit(s)")
    _emit(
        args,
        {"schema": SCHEMA_VERSION, "command": "search", "hits": hits},
        lines,
    )
    return 0


def _cmd_fixtures(args) -> int:
    from .fixtures import FIXTURES_TEXT, fixtures

    if args.json:
        doc = fixtures()
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "fixtures",
            "posets": {name: P.to_json() for name, P in doc.posets.items()},
            "algebras": {name: A.to_json() for name, A in doc.algebras.items()},
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        print(FIXTURES_TEXT, end="")
    return 0


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ordalg",
        description="Finite poset laboratory: classification, assignments, congruences, decomposition.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    sp = sub.add_parser("check", help="classify posets in a file")
    sp.add_argument("file")
    sp.add_argument("--class", dest="cls", required=True, choices=[*PROFILES, "distributive"])
    sp.add_argument("--name", help="poset name (default: all posets in the file)")
    common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("assign", help="build assigned algebras for a poset")
    sp.add_argument("file")
    sp.add_argument("--profile", required=True, choices=list(PROFILES))
    sp.add_argument("--name", help="poset name (default: the only poset)")
    sp.add_argument("--enumerate", action="store_true", help="stream every assignment")
    sp.add_argument(
        "--choice",
        action="append",
        metavar="'meet {x,y}=z'",
        help="override one canonical cone choice (repeatable)",
    )
    sp.add_argument("--limit", type=int, help="cap --enumerate output (0: no cap)")
    sp.add_argument("--verify", action="store_true", help="also run the conditions")
    common(sp)
    sp.set_defaults(func=_cmd_assign)

    sp = sub.add_parser("audit", help="poset-vs-algebra characterization audit")
    sp.add_argument("file")
    sp.add_argument("--profile", choices=list(PROFILES))
    sp.add_argument("--budget", type=int)
    common(sp)
    sp.set_defaults(func=_cmd_audit)

    sp = sub.add_parser("con", help="congruence lattice of an algebra")
    sp.add_argument("file")
    sp.add_argument("--name", help="algebra name (default: the only algebra)")
    sp.add_argument("--props", action="store_true", help="congruence properties")
    sp.add_argument("--terms", action="store_true", help="term-scheme verification")
    sp.add_argument("--unit", help="constant symbol for weak regularity")
    common(sp)
    sp.set_defaults(func=_cmd_con)

    sp = sub.add_parser("decompose", help="direct decomposition of an algebra")
    sp.add_argument("file")
    sp.add_argument("--name")
    sp.add_argument("--guard", type=int)
    common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("product", help="direct product of two algebras")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--name1")
    sp.add_argument("--name2")
    common(sp)
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("search", help="search small posets for a predicate")
    sp.add_argument("--n", required=True, metavar="A..B")
    sp.add_argument("--where", required=True)
    sp.add_argument("--random", type=int, default=0, metavar="COUNT")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--limit", type=int, default=0, help="cap the hits (0: no cap)")
    common(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("fixtures", help="print the built-in corpus")
    common(sp)
    sp.set_defaults(func=_cmd_fixtures)

    return p


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OrdalgError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
