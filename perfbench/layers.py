"""Per-layer metrics from the spans that ``trace_job.py`` writes.

``<module>.<function>.calls`` counts every call; ``.s`` is inclusive time of
the outermost calls (a recursive call inside a call of the same function is
not counted twice); ``.self_s`` is span time minus the time of direct child
spans.  Ratios are defined next to the code that computes them.
"""

from __future__ import annotations

from collections import defaultdict

CALLS_S = (
    "assign.verify_assigned_conditions",
    "pc.classify", "pc.star_table", "pc.rpc_table", "pc.spc_table",
    "poset.is_distributive", "poset.is_lattice", "poset.directedness",
    "enumeration.all_posets", "enumeration.canonical_key", "enumeration.random_poset",
    "search.evaluate_predicate",
    "congruence.join2", "congruence.principal_congruence", "congruence.congruence_properties",
    "congruence.compose_masks", "congruence.verify_term_conditions", "congruence.is_congruence",
    "decompose.factor_pairs", "decompose.quotient", "decompose.direct_product",
    "dsl.parse", "dsl.serialize_poset", "dsl.serialize_algebra",
)
CALLS_S_SELF = (
    "terms.check_formula",
    "assign.theorem_equivalence_audit",
    "congruence.congruence_lattice",
    "decompose.decompose",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for fn in CALLS_S_SELF + CALLS_S:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.s"] = "s"
        if fn in CALLS_S_SELF:
            units[f"{fn}.self_s"] = "s"
    units.update({
        "terms.check_formula.holds_s": "s",
        "terms.check_formula.fails_s": "s",
        "terms.check_formula.assignments": "count",
        "assign.audit.sample_yield": "ratio",
        "enumeration.dedup_yield": "ratio",
        "search.hits": "count",
        "congruence.closure_yield": "ratio",
        "congruence.congruences": "count",
        "decompose.factor_pairs.yield": "ratio",
        "cli.run_cli.s": "s",
        "cli.run_cli.self_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def per_layer_metrics(docs: list[dict]) -> dict[str, tuple[float, str]]:
    """Aggregate the span files of one traced pass (one file per job)."""
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    extra = defaultdict(float)
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        child_ns = [0] * len(spans)
        kids: dict[int, list[int]] = defaultdict(list)
        for i, (_, parent, t0, t1, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                kids[parent].append(i)
        for i, (k, parent, t0, t1, data) in enumerate(spans):
            name = names[k]
            dur = (t1 - t0) / 1e9
            calls[name] += 1
            self_t[name] += dur - child_ns[i] / 1e9
            p = parent
            while p >= 0 and spans[p][0] != k:
                p = spans[p][1]
            if p < 0:
                incl[name] += dur
            child_names = [names[spans[c][0]] for c in kids[i]]
            if name == "terms.check_formula":
                extra["holds_s" if data[0] else "fails_s"] += dur
                extra["assignments"] += data[1]
            elif name == "assign.theorem_equivalence_audit":
                extra["audit_checked"] += data[0]
                extra["audit_walked"] += data[2]
            elif name == "enumeration.all_posets":
                keyed = child_names.count("enumeration.canonical_key")
                if keyed:  # computed, not served from the cache
                    extra["kept"] += data
                    extra["keyed"] += keyed
            elif name == "congruence._generate_congruences":
                extra["generated"] += data
                extra["gen_joins"] += child_names.count("congruence.join2")
            elif name == "congruence.congruence_lattice":
                extra["congruences"] += data
            elif name == "decompose.factor_pairs":
                found, k = data
                if k is None:  # lattice computed inside factor_pairs
                    k = next((spans[c][4] for c in kids[i]
                              if names[spans[c][0]] == "congruence.congruence_lattice"), 0)
                extra["factor_pairs"] += found
                extra["pairs_examined"] += k * (k + 1) // 2

    def ratio(a: str, b: str) -> float:
        return extra[a] / extra[b] if extra[b] else 0.0

    values: dict[str, float] = {}
    for fn in CALLS_S_SELF + CALLS_S:
        values[f"{fn}.calls"] = calls[fn]
        values[f"{fn}.s"] = incl[fn]
        if fn in CALLS_S_SELF:
            values[f"{fn}.self_s"] = self_t[fn]
    values.update({
        "terms.check_formula.holds_s": extra["holds_s"],
        "terms.check_formula.fails_s": extra["fails_s"],
        "terms.check_formula.assignments": int(extra["assignments"]),
        # assignments checked ÷ choices drawn from the choice space
        "assign.audit.sample_yield": ratio("audit_checked", "audit_walked"),
        # posets kept ÷ candidates keyed, over all_posets levels actually computed
        "enumeration.dedup_yield": ratio("kept", "keyed"),
        # distinct congruences ÷ join2 calls made while generating them
        "congruence.closure_yield": ratio("generated", "gen_joins"),
        "congruence.congruences": int(extra["congruences"]),
        # factor pairs ÷ unordered congruence pairs examined
        "decompose.factor_pairs.yield": ratio("factor_pairs", "pairs_examined"),
        "cli.run_cli.s": incl["cli.run_cli"],
        "cli.run_cli.self_s": self_t["cli.run_cli"],
    })
    units = metric_units()
    return {name: (value, units[name]) for name, value in values.items()}
