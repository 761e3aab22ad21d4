"""Run one ``ordalg`` CLI command with spans around the library's public functions.

Usage: python3 trace_job.py SPANS.json ARG...   (ARG... as for ``ordalg``)

Each traced function is replaced by a wrapper in every ``ordalg.*`` namespace
that holds it (modules bind imported names at import time) and in module-level
dicts that hold it as a value (search's atom table).  Spans stay in memory and
are written once, when the command returns:

    {"names": [...], "spans": [[name_index, parent_span, t0_ns, t1_ns, extra], ...]}

``extra`` is a small number or list the aggregator needs (verdicts, counts);
``parent_span`` is -1 for a root.  The program itself is not modified.
"""

from __future__ import annotations

import json
import sys
import time


def _audit_summary(report, args) -> list:
    """Assignments checked, the space size, then the choices drawn (appended)."""
    return [report.assignments_checked, report.assignments_total]


# (module, function, summary of the result kept as span ``extra``)
TRACED = (
    ("cli", "run_cli", None),
    ("terms", "check_formula", lambda r, a: [int(r.holds), r.checked_count]),
    ("assign", "theorem_equivalence_audit", _audit_summary),
    ("assign", "verify_assigned_conditions", None),
    ("assign", "enumerate_choices", None),
    ("pc", "classify", None),
    ("pc", "star_table", None),
    ("pc", "rpc_table", None),
    ("pc", "spc_table", None),
    ("poset", "is_distributive", None),
    ("poset", "is_lattice", None),
    ("poset", "directedness", None),
    ("enumeration", "all_posets", lambda r, a: len(r)),
    ("enumeration", "canonical_key", None),
    ("enumeration", "random_poset", None),
    ("search", "evaluate_predicate", None),
    ("congruence", "congruence_lattice", lambda r, a: len(r)),
    ("congruence", "_generate_congruences", lambda r, a: len(r)),
    ("congruence", "join2", None),
    ("congruence", "principal_congruence", None),
    ("congruence", "congruence_properties", None),
    ("congruence", "compose_masks", None),
    ("congruence", "verify_term_conditions", None),
    ("congruence", "is_congruence", None),
    ("decompose", "decompose", None),
    # factor pairs found, and the lattice size when the caller passed one
    ("decompose", "factor_pairs", lambda r, a: [len(r), len(a[1]) if len(a) > 1 and a[1] else None]),
    ("decompose", "quotient", None),
    ("decompose", "direct_product", None),
    ("dsl", "parse", None),
    ("dsl", "serialize_poset", None),
    ("dsl", "serialize_algebra", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.walked = 0  # choices drawn from ChoiceSpace iterators inside audits

    def wrap(self, name: str, fn, summary):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0, None]
            walked = self.walked
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if summary is not None:
                span[4] = summary(result, args)
                if summary is _audit_summary:
                    span[4].append(self.walked - walked)
            return result

        return traced

    def counting_space(self, fn):
        """enumerate_choices: count the choices the audit sampler draws."""
        tracer = self

        class Counted:
            def __init__(self, space):
                self._space = space

            def __getattr__(self, attr):
                return getattr(self._space, attr)

            def __iter__(self):
                for item in self._space:
                    tracer.walked += 1
                    yield item

        return lambda *a, **k: Counted(fn(*a, **k))


def install(tracer: Tracer) -> None:
    import importlib

    for mod_name, _, _ in TRACED:
        importlib.import_module(f"ordalg.{mod_name}")
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "ordalg" or name.startswith("ordalg.")]
    for mod_name, fn_name, summary in TRACED:
        original = getattr(sys.modules[f"ordalg.{mod_name}"], fn_name, None)
        if original is None:  # renamed or removed: report no calls
            continue
        inner = tracer.counting_space(original) if fn_name == "enumerate_choices" else original
        replacement = tracer.wrap(f"{mod_name}.{fn_name}", inner, summary)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                elif type(value) is dict:
                    for key, item in value.items():
                        if item is original:
                            value[key] = replacement


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from ordalg import cli

    try:
        code = cli.run_cli(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"names": tracer.names, "spans": tracer.spans, "walked": tracer.walked}, f,
                      separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
