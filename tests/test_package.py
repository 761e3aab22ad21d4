"""The package's public names and what each command loads.

Every ``ordalg`` call is a fresh process, so a command must import only the
layers it calls; these tests run each command in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ordalg
from ordalg.fixtures import FIXTURES_TEXT

SRC = str(Path(ordalg.__file__).resolve().parents[1])

# every public name of the package, under the module that defines it
PUBLIC = {
    "algebra": "CIRC JOIN MEET ONE STAR ZERO Algebra Signature induced_order "
    "PROFILES ChoiceSpace canonical_choice enumerate_choices",
    "assign": "AuditReport assign_algebra cone_via_directoid conditions_for "
    "theorem_equivalence_audit verify_assigned_conditions verify_axioms "
    "verify_derived_identities",
    "congruence": "Congruence CongruenceLattice CongruenceProperties "
    "all_congruences_bruteforce congruence_lattice congruence_properties "
    "is_congruence principal_congruence verify_term_conditions",
    "decompose": "Decomposition FactorPair decompose direct_product factor_pairs "
    "find_isomorphism is_directly_decomposable_congruence kernel_of_projection quotient",
    "dsl": "Document parse serialize serialize_algebra serialize_poset",
    "enumeration": "all_posets canonical_key random_poset",
    "errors": "OrdalgError",
    "fixtures": "FIXTURES_TEXT fixtures",
    "pc": "PcClassification check_distributive_pc_equalities classify pseudocomplement",
    "poset": "DistributivityReport Poset build_poset extremes is_distributive is_lattice",
    "search": "SearchSpec parse_predicate search",
    "terms": "App Const Eq Forall Iff Implies Report Var check_formula eval_term "
    "evaluate_at render_formula render_term",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


def _fresh(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter that finds this ordalg; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_public_name_is_the_defining_modules_object(module, name):
    obj = getattr(ordalg, name)
    assert obj is getattr(import_module(f"ordalg.{module}"), name)
    if callable(obj) and getattr(obj, "__module__", "").startswith("ordalg"):
        assert obj.__module__ == f"ordalg.{module}"


def test_import_loads_no_submodule_and_dir_lists_every_name():
    out = _fresh(
        "import json, sys, ordalg\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('ordalg')),"
        " dir(ordalg)]))"
    )
    loaded, listed = json.loads(out)
    assert loaded == ["ordalg"]
    assert {name for _, name in NAMES} <= set(listed)


def test_function_named_like_its_module_survives_submodule_import():
    out = _fresh(
        "import json, ordalg.decompose, ordalg.search, ordalg.fixtures\n"
        "from ordalg import decompose, search, fixtures\n"
        "print(json.dumps([[callable(f), f.__module__, f.__name__, getattr(ordalg, f.__name__) is f]"
        " for f in (decompose, search, fixtures)]))"
    )
    assert json.loads(out) == [
        [True, f"ordalg.{name}", name, True] for name in ("decompose", "search", "fixtures")
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(ordalg, "no_such_name")
    with pytest.raises(ImportError):
        from ordalg import no_such_name


# -- what each command loads ------------------------------------------------------

_RUN = (
    "import contextlib, io, json, sys\n"
    "from ordalg.cli import run_cli\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    code = run_cli(sys.argv[1:])\n"
    "print(json.dumps([code, bool(out.getvalue()),"
    " sorted(m for m in sys.modules if m.startswith('ordalg.'))]))"
)

_COMMANDS = {
    "fixtures": (["fixtures", "--json"],
                 "assign pc terms congruence schemes decompose search enumeration"),
    "fixtures-text": (["fixtures"], "assign pc terms congruence schemes decompose search enumeration"),
    "check": (["check", "{corpus}", "--class", "stone"],
              "assign terms congruence schemes decompose search enumeration"),
    "con": (["con", "{corpus}", "--name", "fig1_rpc", "--props", "--terms"],
            "assign pc decompose search enumeration"),
    "con-props": (["con", "{corpus}", "--name", "fig1_rpc", "--props"],
                  "assign pc terms schemes decompose search enumeration"),
    "decompose": (["decompose", "{corpus}", "--name", "fig4_spc"],
                  "assign pc terms schemes search enumeration"),
    "product": (["product", "{corpus}", "{corpus}", "--name1", "fig4_spc", "--name2", "fig4_spc"],
                "assign pc terms schemes search enumeration"),
    "search": (["search", "--n", "1..3", "--where", "pc"], "assign terms congruence schemes decompose"),
    "search-random": (["search", "--n", "4..5", "--where", "pc", "--random", "5"],
                      "assign terms congruence schemes decompose"),
    "audit": (["audit", "{fig1}", "--profile", "rpc"],
              "congruence schemes decompose search enumeration"),
    "assign": (["assign", "{fig1}", "--profile", "rpc", "--verify"],
               "congruence schemes decompose search enumeration"),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_loads_only_the_layers_it_calls(tmp_path, command):
    corpus = tmp_path / "corpus.ord"
    corpus.write_text(FIXTURES_TEXT, encoding="utf-8")
    fig1 = tmp_path / "fig1.ord"
    fig1.write_text(FIXTURES_TEXT.split("poset fig2")[0], encoding="utf-8")
    argv, absent = _COMMANDS[command]
    argv = [a.format(corpus=corpus, fig1=fig1) for a in argv]
    code, printed, loaded = json.loads(_fresh(_RUN, *argv))
    assert code in (0, 1) and printed  # the command ran to its verdict
    assert not {f"ordalg.{m}" for m in absent.split()} & set(loaded)
