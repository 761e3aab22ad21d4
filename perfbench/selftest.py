"""Tests of the benchmark itself: inputs, golden checker and tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import inputs  # noqa: E402
from layers import metric_units, per_layer_metrics  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
WORKLOADS = ("audit", "con", "decompose", "search")


def build(tmp_path, workload, seed=3):
    return inputs.build_workload(workload, seed, tmp_path / f"{workload}-{seed}")


def run_cli(workdir, argv):
    proc = subprocess.run([sys.executable, "-m", "ordalg", *argv], cwd=workdir, env=ENV,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_inputs_are_deterministic_and_seeded(tmp_path):
    for workload in WORKLOADS:
        jobs_a, files_a, _ = build(tmp_path / "a", workload)
        jobs_b, files_b, _ = build(tmp_path / "b", workload)
        assert files_a == files_b
        assert inputs.inputs_digest(files_a, jobs_a) == inputs.inputs_digest(files_b, jobs_b)
    for workload in ("audit", "search"):
        jobs_1, files_1, _ = build(tmp_path, workload, seed=1)
        jobs_2, files_2, _ = build(tmp_path, workload, seed=2)
        assert inputs.inputs_digest(files_1, jobs_1) != inputs.inputs_digest(files_2, jobs_2)


def test_audit_poset_is_first_in_range():
    for seed in range(6):
        _, total, draws = inputs.seeded_audit_poset(seed)
        assert inputs.LAMBDA_LO <= total <= inputs.LAMBDA_HI
        assert draws >= 1


def test_pseudocomplemented_agrees_with_the_oracle():
    rng = __import__("random").Random(0)
    for _ in range(200):
        labels, down, up = inputs.random_bounded_poset(rng)
        assert inputs.pseudocomplemented(down) == golden._atom("pc", len(labels), down, up)


def test_every_fixed_job_has_a_golden(tmp_path):
    goldens = golden.load_goldens()
    for workload in WORKLOADS:
        jobs, _, _ = build(tmp_path, workload)
        for job in jobs:
            assert job.expect or job.id in goldens, job.id
            if job.argv[0] in ("con", "decompose"):
                assert goldens[job.id]["congruences"] >= 1


def test_goldens_never_use_the_corpus_fig1_rpc():
    text = inputs.CORPUS.read_text(encoding="utf-8")
    assert "algebra fig1_rpc " not in text


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- the checker accepts real outputs and rejects corrupted ones -----------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    wanted = {"con-fig4_spc", "decompose-c3_x_fig1_rpc", "audit-fig1", "search-rand-0",
              "search-exh-1", "assign-fig2-stone-enum"}
    found = {}
    for workload in WORKLOADS:
        jobs, _, algs = inputs.build_workload(workload, 5, tmp / workload)
        for job in jobs:
            if job.id in wanted:
                found[job.id] = (job, run_cli(tmp / workload, job.argv), algs)
    return found


def check(outputs, job_id, out=None):
    job, real, algs = outputs[job_id]
    golden.check(job, real if out is None else out, golden.load_goldens().get(job.id), algs)


@pytest.mark.parametrize("job_id", ["con-fig4_spc", "decompose-c3_x_fig1_rpc", "audit-fig1",
                                    "search-rand-0", "search-exh-1", "assign-fig2-stone-enum"])
def test_checker_accepts_real_output(outputs, job_id):
    check(outputs, job_id)


CORRUPTIONS = {
    "con count": ("con-fig4_spc", lambda o: o.update(count=o["count"] + 1)),
    "con dropped congruence": ("con-fig4_spc", lambda o: o["congruences"].pop()),
    "con property flag": ("con-fig4_spc", lambda o: o["properties"].update(
        distributive=not o["properties"]["distributive"])),
    "con scheme verdict": ("con-fig4_spc", lambda o: o["term_schemes"].update(majority={"bogus": True})),
    "decompose factor": ("decompose-c3_x_fig1_rpc", lambda o: o.update(indecomposable=True)),
    "decompose embedding": ("decompose-c3_x_fig1_rpc", lambda o: o["embedding"].reverse()),
    "decompose factor table": ("decompose-c3_x_fig1_rpc", lambda o: o["left"]["operations"][0]["table"][1].__setitem__(
        1, (o["left"]["operations"][0]["table"][1][1] + 1) % len(o["left"]["labels"]))),
    "audit divergence": ("audit-fig1", lambda o: o["reports"][0].update(divergences=1)),
    "audit verdict": ("audit-fig1", lambda o: o["reports"][1].update(poset_holds=not o["reports"][1]["poset_holds"])),
    "search missing hit": ("search-rand-0", lambda o: o["hits"].pop()),
    "search false hit": ("search-rand-0", lambda o: o["hits"][0]["leq"][0].__setitem__(1, not o["hits"][0]["leq"][0][1])),
    "search hit count": ("search-exh-1", lambda o: o["hits"].pop()),
    "assign duplicate": ("assign-fig2-stone-enum", lambda o: o["algebras"].__setitem__(1, o["algebras"][0])),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_checker_rejects_corrupted_output(outputs, name):
    job_id, corrupt = CORRUPTIONS[name]
    out = copy.deepcopy(outputs[job_id][1])
    corrupt(out)
    with pytest.raises(golden.Mismatch):
        check(outputs, job_id, out)


def test_sampled_audit_invariants(tmp_path):
    """The seeded audit is checked against its inputs; assignments_checked may change."""
    jobs, _, _ = build(tmp_path, "audit")
    job = next(j for j in jobs if j.id == "audit-rand10-stone")
    ok = {"reports": [{"poset": "rand10", "profile": "stone", "poset_holds": False,
                       "assignments_total": job.expect["assignments_total"],
                       "assignments_checked": 97, "sampled": True, "divergences": 0}]}
    golden.check(job, ok, None, {})
    bad = copy.deepcopy(ok)
    bad["reports"][0]["assignments_total"] += 1
    with pytest.raises(golden.Mismatch):
        golden.check(job, bad, None, {})


# -- tracing -------------------------------------------------------------------------


def traced(tmp_path, workdir, argv):
    spans = tmp_path / "out.spans"
    subprocess.run([sys.executable, str(HERE / "trace_job.py"), str(spans), *argv], cwd=workdir,
                   env=ENV, capture_output=True, check=True)
    return json.loads(spans.read_text(encoding="utf-8"))


def test_trace_counts_calls_made_through_aliases(tmp_path):
    jobs, _, _ = build(tmp_path, "con")
    work = tmp_path / "con-3"
    # congruence.verify_term_conditions calls its own imported check_formula
    doc = traced(tmp_path, work, ["con", "fig1_rpc.dsl", "--terms", "--json"])
    m = {k: v for k, (v, _) in per_layer_metrics([doc]).items()}
    assert m["terms.check_formula.calls"] > 0
    assert m["congruence.verify_term_conditions.calls"] == 1
    assert m["cli.run_cli.s"] > 0 and m["dsl.parse.calls"] == 1

    build(tmp_path, "decompose")
    # decompose binds join2 and compose_masks at import
    doc = traced(tmp_path, tmp_path / "decompose-3", ["decompose", "c3_x_fig1_rpc.dsl", "--guard", "64", "--json"])
    names = doc["names"]
    parents = {names[doc["spans"][s[1]][0]] for s in doc["spans"]
               if s[1] >= 0 and names[s[0]] == "congruence.join2"}
    assert "decompose.factor_pairs" in parents

    # search holds is_lattice in its atom table; all_posets recursion nests spans
    doc = traced(tmp_path, work, ["search", "--n", "1..4", "--where", "rpc and not lattice", "--json"])
    m = {k: v for k, (v, _) in per_layer_metrics([doc]).items()}
    assert m["poset.is_lattice.calls"] > 0
    names, spans = doc["names"], doc["spans"]
    nested = [s for s in spans if names[s[0]] == "enumeration.all_posets" and s[1] >= 0
              and names[spans[s[1]][0]] == "enumeration.all_posets"]
    assert nested
    assert m["enumeration.all_posets.s"] <= sum(
        (s[3] - s[2]) / 1e9 for s in spans if names[s[0]] == "enumeration.all_posets")
    assert 0 < m["enumeration.dedup_yield"] <= 1


def test_trace_audit_counts_sampler_walk(tmp_path):
    jobs, _, _ = build(tmp_path, "audit")
    doc = traced(tmp_path, tmp_path / "audit-3", ["audit", "fig1.dsl", "--profile", "stone", "--json"])
    m = {k: v for k, (v, _) in per_layer_metrics([doc]).items()}
    assert m["assign.theorem_equivalence_audit.calls"] == 1
    assert m["assign.audit.sample_yield"] == 1.0  # exhaustive: every choice checked
    assert m["terms.check_formula.holds_s"] + m["terms.check_formula.fails_s"] == pytest.approx(
        m["terms.check_formula.s"])
