import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordalg
from helpers import idx, wide_poset
from ordalg import (
    PROFILES, Algebra, assign_algebra, induced_order, parse, pc, serialize_algebra, serialize_poset,
)
from ordalg.algebra import MEET
from ordalg.cli import run_cli
from ordalg.fixtures import FIXTURES_TEXT


@pytest.fixture()
def corpus(tmp_path):
    f = tmp_path / "corpus.ord"
    f.write_text(FIXTURES_TEXT, encoding="utf-8")
    return str(f)


@pytest.fixture()
def fig1_file(tmp_path):
    f = tmp_path / "fig1.ord"
    text = FIXTURES_TEXT.split("poset fig2")[0]
    f.write_text(text, encoding="utf-8")
    return str(f)


def test_check_stone_fig1_fails(fig1_file, capsys):
    code = run_cli(["check", fig1_file, "--class=stone", "--name", "fig1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILS" in out and "x=a" in out and "{c,d,1}" in out


def test_check_stone_fig2_holds(corpus, capsys):
    assert run_cli(["check", corpus, "--class=stone", "--name", "fig2"]) == 0
    assert "HOLDS" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(PROFILES))
def test_check_every_profile(corpus, capsys, name):
    assert run_cli(["check", corpus, "--class", name]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_check_json_schema(corpus, capsys):
    code = run_cli(["check", corpus, "--class=rpc", "--name", "fig1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["schema"] == 1 and payload["command"] == "check"
    assert payload["results"][0]["holds"] is True


def test_check_distributive(corpus, capsys):
    code = run_cli(["check", corpus, "--class=distributive", "--name", "fig5"])
    out = capsys.readouterr().out
    assert code == 1 and "x=a" in out and "y=c" in out and "z=b" in out


def test_check_unknown_name(corpus, capsys):
    assert run_cli(["check", corpus, "--class=pc", "--name", "nope"]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.ord"
    f.write_text("poset p\n  elements: x y\n  order: x<y y<x\n", encoding="utf-8")
    assert run_cli(["check", str(f), "--class=pc"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["a=1", "(x", "x)", "a,b"])
def test_unnameable_label_exit_code(tmp_path, capsys, label):
    f = tmp_path / "bad.ord"
    f.write_text(f"poset p\n  elements: {label} b\n", encoding="utf-8")
    assert run_cli(["check", str(f), "--class=pc"]) == 2
    assert capsys.readouterr().err.startswith(f"error: line 2: label {label!r}")


_MALFORMED = {
    "oversized": "poset p\n  elements: " + " ".join(f"e{i}" for i in range(65)) + "\n",
    "no_labels": "poset p\n  elements:\n",
    "not_utf8": "poset p\n  elements: a \xff b\n".encode("latin-1"),
    "cycle": "poset p\n  elements: a b\n  order: a<b b<a\n",
    "duplicate_label": "poset p\n  elements: a a\n",
    "unknown_poset": "poset p\n  elements: a\nalgebra A on q\n  constant 0: a\n",
    "no_directive": "poset p\n  elements: a\n: x\n",
}

_FILE_COMMANDS = {
    "check": ["check", "{f}", "--class=pc"],
    "assign": ["assign", "{f}", "--profile=pc"],
    "audit": ["audit", "{f}"],
    "con": ["con", "{f}", "--props", "--terms"],
    "decompose": ["decompose", "{f}"],
    "product": ["product", "{f}", "{f}"],
}


@pytest.mark.parametrize("command", list(_FILE_COMMANDS))
@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_never_crashes(tmp_path, capsys, case, command):
    f = tmp_path / "bad.ord"
    content = _MALFORMED[case]
    if isinstance(content, str):
        f.write_text(content, encoding="utf-8")
    else:
        f.write_bytes(content)
    code = run_cli([arg.format(f=f) for arg in _FILE_COMMANDS[command]])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:")
    assert "Traceback" not in captured.out + captured.err


def test_choice_error_names_its_line(tmp_path, capsys):
    f = tmp_path / "antichain.ord"
    f.write_text("poset p\n  elements: x y\nalgebra a on p\n  choice meet {x,y}=x\n", encoding="utf-8")
    assert run_cli(["con", str(f)]) == 2
    assert capsys.readouterr().err == "error: line 4: not down-directed: L(x,y) is empty\n"


def test_usage_error():
    assert run_cli(["check"]) == 2
    assert run_cli(["no-such-command"]) == 2


def test_assign_canonical(fig1_file, capsys):
    code = run_cli(["assign", fig1_file, "--profile=pc", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "algebra fig1_pc on fig1" in out
    assert "binary ⊓" in out and "unary *" in out
    assert out.count("HOLDS") == 3


def test_assign_enumerate(fig1_file, capsys):
    code = run_cli(["assign", fig1_file, "--profile=pc", "--enumerate", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and len(payload["algebras"]) == 3


def test_assign_choice_flag(fig1_file, capsys):
    code = run_cli(
        ["assign", fig1_file, "--profile=pc", "--choice", "meet {c,d}=a", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    table = payload["algebras"][0]["operations"][0]["table"]
    assert table[3][4] == 1  # c⊓d = a


@pytest.mark.parametrize("argv, message", [
    (["--profile=pc", "--choice", "mete {c,d}=a"], "the kind must be 'meet' or 'join', not 'mete'"),
    (["--profile=rpc", "--choice", "join {c,d}=1"], "profile rpc has no ⊔"),
    (["--profile=pc", "--enumerate", "--choice", "meet {c,d}=a"], "--choice does not apply"),
    (["--profile=pc", "--enumerate", "--verify"], "--verify does not apply"),
    (["--profile=pc", "--limit", "1"], "--limit applies only with --enumerate"),
    (["--profile=pc", "--limit", "0"], "--limit applies only with --enumerate"),
    (["--profile=pc", "--enumerate", "--limit", "-1"], "--limit must be at least 0, got -1"),
    (["--profile=pc", "--limit", "-1"], "--limit must be at least 0, got -1"),
    (["--profile=pc", "--choice", "meet (c,d)=a"], "'(c,d)=a' is not of the form {x,y}=z"),
    (["--profile=pc", "--choice", "meet c,d=a"], "'c,d=a' is not of the form {x,y}=z"),
    (["--profile=pc", "--choice", "meet {c,d}=a", "--choice", "meet {d,c}=b"],
     "bad --choice 'meet {d,c}=b': duplicate meet choice for {d,c}"),
], ids=["kind", "join-without-join", "enumerate-choice", "enumerate-verify",
        "limit-without-enumerate", "limit-0-without-enumerate", "enumerate-negative-limit",
        "negative-limit", "choice-parentheses", "choice-no-braces", "choice-repeated-pair"])
def test_assign_rejects_ignored_overrides(fig1_file, capsys, argv, message):
    assert run_cli(["assign", fig1_file, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_closed_stdout_exits_quietly(corpus):
    # the output (481 kB) outgrows the pipe buffer, so writing it must meet
    # the closed pipe
    argv = ["assign", corpus, "--profile", "stone", "--name", "fig2", "--enumerate", "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(ordalg.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, "-m", "ordalg", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b"" and code == 141


def test_closed_stdout_in_process_leaves_the_caller_s_stdout(monkeypatch, capsys):
    def closed(args):
        raise BrokenPipeError
    monkeypatch.setattr("ordalg.cli._cmd_fixtures", closed)
    assert run_cli(["fixtures"]) == 141
    print("still open")
    assert capsys.readouterr() == ("still open\n", "")


def test_assign_not_in_class(corpus, capsys):
    code = run_cli(["assign", corpus, "--profile=rpc", "--name", "fig5"])
    assert code == 2
    assert "not relatively_pc" in capsys.readouterr().err


def test_assign_enumerate_classifies_once(corpus, capsys, monkeypatch):
    calls = []
    classify = pc.classify
    monkeypatch.setattr(pc, "classify", lambda *a: calls.append(a) or classify(*a))
    code = run_cli(["assign", corpus, "--profile=pc", "--name", "fig2", "--enumerate", "--json"])
    assert code == 0 and len(json.loads(capsys.readouterr().out)["algebras"]) == 48
    assert len(calls) == 1


def test_audit_fig1(fig1_file, capsys):
    code = run_cli(["audit", fig1_file, "--profile=pc"])
    out = capsys.readouterr().out
    assert code == 0 and "OK" in out and "3/3" in out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_audit_budget_below_one(corpus, capsys, budget):
    code = run_cli(["audit", corpus, "--profile=pc", "--budget", budget])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "audit budget must be at least 1" in captured.err


def test_audit_samples_above_maxsize(tmp_path, capsys):
    f = tmp_path / "wide.ord"
    f.write_text(serialize_poset("wide", wide_poset()) + "\n", encoding="utf-8")
    code = run_cli(["audit", str(f), "--profile", "stone", "--budget", "1"])
    assert code == 0
    assert f"assignments=1/{7**30} OK" in capsys.readouterr().out


def test_con_props_terms(corpus, capsys):
    code = run_cli(
        ["con", corpus, "--name", "fig1_rpc", "--props", "--terms", "--unit", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2 congruences" in out
    assert "permutable=True" in out and "weakly_regular=True" in out
    assert "maltsev(*): HOLDS" in out


def test_con_rejects_unit_without_props(corpus, capsys):
    code = run_cli(["con", corpus, "--name", "fig1_rpc", "--unit", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: --unit applies only with --props" in captured.err


def test_decompose_cli(corpus, capsys):
    code = run_cli(["decompose", corpus, "--name", "fig4_spc"])
    out = capsys.readouterr().out
    assert code == 0 and "decomposes as 2 x 2" in out


def test_product_cli(corpus, tmp_path, capsys):
    code = run_cli(["product", corpus, corpus, "--name1", "fig4_spc", "--name2", "fig4_spc", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and len(payload["algebra"]["labels"]) == 16


def test_product_rejects_carriers_above_cap(corpus, fig3, tmp_path, capsys):
    # before building, whether the product has a ⊓ (pc-assigned fig3) or not
    f = tmp_path / "fig3_pc.ord"
    f.write_text(serialize_poset("fig3", fig3)
                 + serialize_algebra("fig3_pc", assign_algebra(fig3, "pc"), "fig3"), encoding="utf-8")
    for argv in ([corpus, corpus, "--name1", "fig3_star", "--name2", "fig3_star"], [f, f]):
        assert run_cli(["product", *map(str, argv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: product sizes are capped at n <= 64;")


@pytest.mark.parametrize("argv", [
    ["decompose", "{corpus}", "--name", "fig4_spc"],
    ["decompose", "{corpus}", "--name", "fig1_star"],
    ["product", "{corpus}", "{corpus}", "--name1", "fig1_rpc", "--name2", "fig1_rpc"],
    ["product", "{corpus}", "{corpus}", "--name1", "fig4_spc", "--name2", "fig4_spc"],
], ids=["decomposable", "indecomposable", "product-meet", "product-no-meet"])
def test_decompose_and_product_text_parses(corpus, capsys, argv):
    argv = [a.format(corpus=corpus) for a in argv]
    assert run_cli([*argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert run_cli(argv) == 0
    doc = parse(capsys.readouterr().out)
    if argv[0] == "product":
        expected = {payload["algebra"]["name"]: payload["algebra"]}
    elif payload["indecomposable"]:
        expected = {}
    else:
        name = payload["algebra"]
        expected = {f"{name}_left": payload["left"], f"{name}_right": payload["right"]}
    assert doc.algebras == {name: Algebra.from_json(data) for name, data in expected.items()}
    for name, A in doc.algebras.items():
        assert doc.algebra_poset[name] == f"{name}_order"
        if A.signature.has("⊓", 2):
            assert doc.posets[f"{name}_order"] == induced_order(A)


def test_search_cli(capsys):
    code = run_cli(["search", "--n=2..3", "--where", "pseudocomplemented"])
    out = capsys.readouterr().out
    assert code == 0 and "poset hit0" in out and "hit(s)" in out


def test_search_rejects_negative_limit(capsys):
    code = run_cli(["search", "--n=2..3", "--where", "pseudocomplemented", "--limit", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--limit must be at least 0, got -1" in captured.err


def test_search_rejects_negative_random(capsys):
    code = run_cli(["search", "--n=1..3", "--where", "pc", "--random", "-5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--random must be at least 0, got -5" in captured.err


@pytest.mark.parametrize("sizes", ["60..70", "70"])
def test_search_rejects_sizes_above_carrier_cap(capsys, sizes):
    # before any sampling, not from the round trip of a hit
    code = run_cli(["search", "--n", sizes, "--where", "not lattice", "--random", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: search sizes are capped at n <= 64\n"


@pytest.mark.parametrize("argv", [
    ["--seed", "5"],
    ["--seed", "0"],
    ["--random", "0", "--seed", "3"],
], ids=["exhaustive", "explicit-0", "random-0"])
def test_search_rejects_seed_without_random(capsys, argv):
    code = run_cli(["search", "--n=1..3", "--where", "pc", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: --seed applies only with --random" in captured.err


def test_search_rejects_parentheses(capsys):
    assert run_cli(["search", "--n=1..3", "--where", "not (pc and stone)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: parentheses are not part of the predicate grammar: 'not (pc and stone)'\n"
    )


def test_search_random_seed_defaults_to_0(capsys):
    argv = ["search", "--n=4..6", "--where", "pc", "--random", "20", "--json"]
    assert run_cli(argv) == 0
    default = capsys.readouterr().out
    assert run_cli([*argv, "--seed", "0"]) == 0
    assert capsys.readouterr().out == default
    assert run_cli([*argv, "--seed", "1"]) == 0
    assert capsys.readouterr().out != default


def test_choice_override_same_everywhere(fig1, fig1_file, capsys):
    # {c,d}=a through the library, --choice and a DSL choice line
    a, c, d = idx(fig1, "a", "c", "d")
    library = assign_algebra(fig1, "pc", meet={(c, d): a}).table(MEET)
    assert run_cli(["assign", fig1_file, "--profile=pc", "--choice", "meet {c,d}=a", "--json"]) == 0
    cli = json.loads(capsys.readouterr().out)["algebras"][0]["operations"][0]["table"]
    dsl = parse(serialize_poset("fig1", fig1) + "algebra m on fig1\n  choice meet {c,d}=a\n")
    assert dsl.algebras["m"].table(MEET) == tuple(map(tuple, cli)) == library
    assert library[c][d] == a
    assert run_cli(["assign", fig1_file, "--profile=pc", "--choice", "meet { c, d } = a",
                    "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["algebras"][0]["operations"][0]["table"] == cli


def test_choice_names_decompose_labels(corpus, tmp_path, capsys):
    # the left factor of fig1_rpc², labelled by its blocks as decompose prints them
    assert run_cli(["product", corpus, corpus, "--name1", "fig1_rpc", "--name2", "fig1_rpc"]) == 0
    sq = tmp_path / "sq.ord"
    sq.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run_cli(["decompose", str(sq), "--guard", "64"]) == 0
    out = tmp_path / "sq.out"
    out.write_text(capsys.readouterr().out, encoding="utf-8")
    name = "fig1_rpc_x_fig1_rpc_left_order"
    P = parse(out.read_text(encoding="utf-8")).posets[name]
    zero, c, d = (next(lb for lb in P.labels if lb.startswith(f"{{({x},")) for x in "0cd")
    assert run_cli(["assign", str(out), "--profile=rpc", "--name", name,
                    "--choice", f"meet {{{c},{d}}}={zero}", "--json"]) == 0
    table = json.loads(capsys.readouterr().out)["algebras"][0]["operations"][0]["table"]
    assert table[P.index(c)][P.index(d)] == P.index(zero)


def test_fixtures_cli(capsys):
    assert run_cli(["fixtures"]) == 0
    assert capsys.readouterr().out == FIXTURES_TEXT


def test_fixtures_json(capsys):
    assert run_cli(["fixtures", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["posets"]) == {"fig1", "fig2", "fig3", "fig4", "fig5"}
