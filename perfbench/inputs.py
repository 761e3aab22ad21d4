"""Deterministic benchmark inputs: DSL files and the job list of each workload.

Everything here is computed by the benchmark's own code from the frozen
corpus (``corpus.dsl``) and the workload seed, so parent and change get
byte-identical inputs.  Nothing is imported from ``ordalg``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.dsl"

# Random audit poset: the first one in the seeded stream whose λ-space lies here
# and which is not pseudocomplemented (so not Stone either): every sampled
# assignment then takes the same failing path, and the job's cost is the
# sampler's walk over the product rather than which class the draw fell in.
LAMBDA_LO, LAMBDA_HI = 500_000, 2_000_000
RANDOM_INNER = 8  # plus a bottom and a top: 10 elements
RANDOM_EDGE_PROB = 0.4

# Random-mode search jobs: (size range, predicate, poset count).
RANDOM_SEARCHES = (
    ("8..10", "pc and not stone", 2000),
    ("9..12", "pc and not lattice", 2000),
)
EXHAUSTIVE_PREDICATES = (
    "spc1 and not sspc",
    "pc and not stone",
    "rpc and not lattice",
    "distributive and not lattice",
    "directed and not spc",
    "stone",
)


# -- a minimal algebra model -----------------------------------------------------


@dataclass
class Alg:
    labels: list[str]
    ops: list[tuple[str, int, object]]  # (symbol, arity, table by index)
    poset: str | None = None  # corpus poset it lives on; None: antichain carrier

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass
class Corpus:
    text: dict[str, str] = field(default_factory=dict)  # block name -> DSL text
    posets: dict[str, list[str]] = field(default_factory=dict)  # name -> labels
    algebras: dict[str, Alg] = field(default_factory=dict)


def load_corpus(path: Path = CORPUS) -> Corpus:
    """Read the frozen corpus (row-form binaries, unary maps, constants)."""
    corpus = Corpus()
    blocks: dict[str, list[str]] = {}
    current: Alg | None = None
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        words = head.split()
        if words[0] in ("poset", "algebra"):
            name = words[1]
            blocks[name] = []
            current = None
            if words[0] == "algebra":
                current = corpus.algebras[name] = Alg(list(corpus.posets[words[3]]), [], words[3])
        blocks[name].append(raw)
        if words[0] == "elements":
            corpus.posets[name] = tail.split()
        elif current is not None:
            idx = {l: i for i, l in enumerate(current.labels)}
            if words[0] == "binary":
                current.ops.append((words[1], 2, []))
            elif words[0] == "row":
                current.ops[-1][2].append([idx[v] for v in tail.split()])
            elif words[0] == "unary":
                pairs = dict(item.split("->") for item in tail.split())
                current.ops.append((words[1], 1, [idx[pairs[l]] for l in current.labels]))
            elif words[0] == "constant":
                current.ops.append((words[1], 0, idx[tail.strip()]))
    corpus.text = {k: "\n".join(v) + "\n" for k, v in blocks.items()}
    return corpus


def product_alg(A: Alg, B: Alg) -> Alg:
    """Componentwise product; element (i, j) has index i*|B|+j."""
    assert [(s, a) for s, a, _ in A.ops] == [(s, a) for s, a, _ in B.ops]
    m = B.n
    labels = [f"{x}.{y}" for x in A.labels for y in B.labels]
    ops = []
    for (sym, ar, ta), (_, _, tb) in zip(A.ops, B.ops):
        if ar == 0:
            ops.append((sym, 0, ta * m + tb))
        elif ar == 1:
            ops.append((sym, 1, [ta[i] * m + tb[j] for i in range(A.n) for j in range(m)]))
        else:
            ops.append((sym, 2, [
                [ta[i][k] * m + tb[j][l] for k in range(A.n) for l in range(m)]
                for i in range(A.n)
                for j in range(m)
            ]))
    return Alg(labels, ops)


def power_alg(A: Alg, k: int) -> Alg:
    P = A
    for _ in range(k - 1):
        P = product_alg(P, A)
    return P


def projection_alg(n: int) -> Alg:
    """x∘y = y on n elements: every partition is a congruence (Bell(n))."""
    return Alg([f"e{i}" for i in range(n)], [("∘", 2, [list(range(n))] * n)])


def meet_chain(n: int) -> Alg:
    """⊓ = min on an n-chain: congruences are the interval partitions, 2^(n-1)."""
    return Alg([f"c{i}" for i in range(n)], [("⊓", 2, [[min(i, j) for j in range(n)] for i in range(n)])])


def reduct(A: Alg, symbols: tuple[str, ...]) -> Alg:
    return Alg(A.labels, [op for op in A.ops if op[0] in symbols], A.poset)


def algebra_dsl(name: str, A: Alg, corpus: Corpus) -> str:
    """One self-contained DSL document holding the algebra and its carrier."""
    if A.poset is not None:
        head = corpus.text[A.poset]
        pname = A.poset
    else:
        pname = f"{name}_carrier"
        head = f"poset {pname}\n  elements: {' '.join(A.labels)}\n"
    lines = [f"algebra {name} on {pname}"]
    L = A.labels
    for sym, ar, t in A.ops:
        if ar == 0:
            lines.append(f"  constant {sym}: {L[t]}")
        elif ar == 1:
            lines.append(f"  unary {sym} : " + " ".join(f"{L[i]}->{L[v]}" for i, v in enumerate(t)))
        else:
            lines.append(f"  binary {sym} :")
            lines.extend(f"    row {L[i]}: " + " ".join(L[v] for v in row) for i, row in enumerate(t))
    return head + "\n" + "\n".join(lines) + "\n"


# -- the seeded random audit poset ------------------------------------------------


def random_bounded_poset(rng: random.Random) -> tuple[list[str], list[int], list[int]]:
    """Bottom, RANDOM_INNER random-DAG elements, top; returns labels, down, up."""
    n = RANDOM_INNER + 2
    up = [0] * n
    for i in range(1, n - 1):
        up[0] |= 1 << i
        up[i] |= 1 << (n - 1)
        for j in range(i + 1, n - 1):
            if rng.random() < RANDOM_EDGE_PROB:
                up[i] |= 1 << j
    up[0] |= 1 << (n - 1)
    for i in reversed(range(n)):  # index order is a linear extension
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    up = [u | 1 << i for i, u in enumerate(up)]
    down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
    labels = ["0"] + [f"r{i}" for i in range(1, n - 1)] + ["1"]
    return labels, down, up


def lambda_space(down: list[int], up: list[int]) -> int:
    """Number of λ-lattice assignments: ∏ |L(x,y)|·|U(x,y)| over incomparable pairs."""
    total = 1
    n = len(down)
    for x in range(n):
        for y in range(x + 1, n):
            if not (up[x] >> y & 1 or up[y] >> x & 1):
                total *= bin(down[x] & down[y]).count("1") * bin(up[x] & up[y]).count("1")
    return total


def pseudocomplemented(down: list[int]) -> bool:
    """Every x has a greatest y with L(x, y) = {0}; element 0 is the bottom."""
    n = len(down)
    for x in range(n):
        cand = [y for y in range(n) if down[x] & down[y] == 1]
        if not any(all(down[g] >> y & 1 for y in cand) for g in cand):
            return False
    return True


def seeded_audit_poset(seed: int) -> tuple[str, int, int]:
    """DSL text, λ-space size and draw count of the first poset that qualifies."""
    rng = random.Random(f"audit-poset-{seed}")
    draws = 0
    while True:
        draws += 1
        labels, down, up = random_bounded_poset(rng)
        total = lambda_space(down, up)
        if LAMBDA_LO <= total <= LAMBDA_HI and not pseudocomplemented(down):
            break
    order = [
        f"{labels[x]}<{labels[y]}"
        for x in range(len(labels))
        for y in range(len(labels))
        if x != y and up[x] >> y & 1
    ]
    text = f"poset rand10\n  elements: {' '.join(labels)}\n  order: {' '.join(order)}\n"
    return text, total, draws


# -- jobs --------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    id: str  # stable key into goldens.json
    argv: tuple[str, ...]  # ordalg arguments; input paths relative to the work dir
    why: str
    expect: dict = field(default_factory=dict, hash=False)  # invariants known from the inputs


def _write(workdir: Path, files: dict[str, str], name: str, text: str) -> str:
    files[name] = text
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def build_workload(workload: str, seed: int, workdir: Path) -> tuple[list[Job], dict[str, str], dict[str, Alg]]:
    """Write the workload's input files.

    Returns the jobs, the files written (name -> text) and the algebra held
    by each algebra file, for the checker.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus()
    files: dict[str, str] = {}
    algs: dict[str, Alg] = {}
    jobs: list[Job] = []

    def alg_file(name: str, A: Alg) -> str:
        f = _write(workdir, files, f"{name}.dsl", algebra_dsl(name, A, corpus))
        algs[f] = A
        return f

    if workload == "audit":
        for p in ("fig1", "fig2", "fig4", "fig5"):
            f = _write(workdir, files, f"{p}.dsl", corpus.text[p])
            jobs.append(Job(f"audit-{p}", ("audit", f, "--json"),
                            f"{p} x all six profiles, exhaustive: holding and failing verdicts"))
        f3 = _write(workdir, files, "fig3.dsl", corpus.text["fig3"])
        jobs.append(Job("audit-fig3-pc", ("audit", f3, "--profile", "pc", "--budget", "1000", "--json"),
                        "fig3 pc sampled at budget 1000: long holding audit"))
        jobs.append(Job("audit-fig3-rpc", ("audit", f3, "--profile", "rpc", "--budget", "100", "--json"),
                        "fig3 rpc at budget 100: failing audit on n = 12"))
        text, total, draws = seeded_audit_poset(seed)
        fr = _write(workdir, files, "rand10.dsl", text)
        jobs.append(Job("audit-rand10-stone", ("audit", fr, "--profile", "stone", "--budget", "100", "--json"),
                        f"seeded bounded 10-element poset, λ-space {total} (draw {draws}): "
                        "the sampler walks the whole product",
                        {"assignments_total": total, "sampled": total > 100}))
        f2 = _write(workdir, files, "fig2_enum.dsl", corpus.text["fig2"])
        jobs.append(Job("assign-fig2-stone-enum", ("assign", f2, "--profile", "stone", "--enumerate", "--json"),
                        "every stone assignment of fig2, serialized"))
    elif workload == "con":
        A = corpus.algebras
        items = [
            ("proj5", projection_alg(5), "projection algebra on 5: Bell(5) = 52 congruences"),
            ("proj6", projection_alg(6), "projection algebra on 6: Bell(6) = 203 congruences"),
            ("chain8", meet_chain(8), "⊓-chain of 8: Boolean lattice of 128 congruences"),
            ("chain9", meet_chain(9), "⊓-chain of 9: 256 congruences, full k³ distributivity scan"),
            ("fig1_star", A["fig1_star"], "corpus fig1_star: 35 congruences"),
            ("fig2_star", A["fig2_star"], "corpus fig2_star: 202 congruences"),
            ("fig4_spc", A["fig4_spc"], "corpus fig4_spc: 15 congruences"),
            ("fig2_pc_meet", reduct(A["fig2_pc"], ("⊓",)), "⊓-reduct of pc-assigned fig2"),
            ("fig3_pc_meet", reduct(A["fig3_pc"], ("⊓",)), "⊓-reduct of pc-assigned fig3"),
            ("fig1_rpc", A["fig1_rpc_assigned"], "assigned fig1 rpc: Maltsev and weak-regularity schemes"),
            ("fig5_sspc", A["fig5_sspc"], "assigned fig5 sspc: Maltsev and weak-regularity schemes"),
            ("bool4_pc", power_alg(A["c2_pc"], 4), "Boolean pc power 2^4"),
            ("bool5_pc", power_alg(A["c2_pc"], 5), "Boolean pc power 2^5"),
        ]
        for name, alg, why in items:
            f = alg_file(name, alg)
            jobs.append(Job(f"con-{name}", ("con", f, "--props", "--terms", "--json"), why))
    elif workload == "decompose":
        A = corpus.algebras
        items = [
            ("fig2_stone", A["fig2_stone"], "indecomposable assigned fig2 stone"),
            ("fig3_stone", A["fig3_stone"], "indecomposable assigned fig3 stone"),
            ("fig5_sspc", A["fig5_sspc"], "indecomposable assigned fig5 sspc"),
            ("c3_x_fig1_rpc", product_alg(A["c3_rpc"], A["fig1_rpc_assigned"]), "c3 x fig1 (rpc), 18 elements"),
            ("c3_x_fig5_sspc", product_alg(A["c3_sspc"], A["fig5_sspc"]), "c3 x fig5 (sspc), 21 elements"),
            ("fig1_rpc_sq", power_alg(A["fig1_rpc_assigned"], 2), "fig1 rpc squared, 36 elements"),
            ("bool5_pc", power_alg(A["c2_pc"], 5), "Boolean 2^5 (pc), 32 elements"),
            ("bool5_rpc", power_alg(A["c2_rpc"], 5), "Boolean 2^5 (rpc), 32 elements"),
            ("bool5_sspc", power_alg(A["c2_sspc"], 5), "Boolean 2^5 (sspc), 32 elements"),
            ("fig5_sspc_sq", power_alg(A["fig5_sspc"], 2), "fig5 sspc squared: 49 elements, 1176 principal congruences"),
        ]
        for name, alg, why in items:
            f = alg_file(name, alg)
            jobs.append(Job(f"decompose-{name}", ("decompose", f, "--guard", "64", "--json"), why))
    elif workload == "search":
        for i, pred in enumerate(EXHAUSTIVE_PREDICATES):
            jobs.append(Job(f"search-exh-{i}", ("search", "--n", "1..7", "--where", pred, "--json"),
                            f"exhaustive n <= 7, '{pred}': cold all_posets plus classification"))
        rng = random.Random(f"search-seeds-{seed}")
        for i, (rng_n, pred, count) in enumerate(RANDOM_SEARCHES):
            s = rng.randrange(1 << 30)
            jobs.append(Job(f"search-rand-{i}",
                            ("search", "--n", rng_n, "--where", pred, "--random", str(count), "--seed", str(s), "--json"),
                            f"random mode {rng_n}, {count} posets, '{pred}': no enumeration",
                            {"random": {"seed": s, "n": rng_n, "count": count, "where": pred}}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, files, algs


def inputs_digest(files: dict[str, str], jobs: list[Job]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    for job in jobs:
        h.update("\0".join(job.argv).encode() + b"\n")
    return h.hexdigest()[:16]
