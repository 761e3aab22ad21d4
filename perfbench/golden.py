"""Golden invariants of the benchmark jobs and the checker that enforces them.

The invariants are the parts of an answer a faster implementation must keep:
verdicts, congruence counts, property flags, scheme verdicts, factor sizes and
hit counts.  They avoid what the ROADMAP allows to change: the orientation of
a factor pair, which factor is printed first, and how many assignments a
sampled audit checks.  Decompositions and random searches are also checked by
this module's own code, independently of the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# Posets up to isomorphism on n = 1..7 elements (OEIS A000112).
POSET_COUNTS = (1, 2, 5, 16, 63, 318, 2045)


class Mismatch(Exception):
    pass


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def extract(job, out: dict) -> dict:
    """The invariant part of one job's JSON output."""
    cmd = job.argv[0]
    if cmd == "audit":
        rows = []
        for r in out["reports"]:
            row = [r["poset"], r["profile"], r["poset_holds"], r["assignments_total"],
                   r["sampled"], r["divergences"]]
            if not r["sampled"]:
                row.append(r["assignments_checked"])
            rows.append(row)
        return {"reports": rows}
    if cmd == "assign":
        return {"algebras": len(out["algebras"])}
    if cmd == "con":
        return {"count": out["count"], "properties": out["properties"],
                "term_schemes": out["term_schemes"]}
    if cmd == "decompose":
        if out["indecomposable"]:
            return {"indecomposable": True}
        sizes = sorted((len(out["left"]["labels"]), len(out["right"]["labels"])))
        return {"indecomposable": False, "factor_sizes": sizes}
    if cmd == "search":
        return {"hits": len(out["hits"])}
    raise ValueError(f"no invariants for command {cmd!r}")


def work_units(job, out: dict, golden: dict | None) -> int:
    """Units of the workload's throughput this job completed.

    Assignments checked (audit), golden congruence count (con, decompose),
    posets classified (search).  ``assign`` jobs contribute none.
    """
    cmd = job.argv[0]
    if cmd == "audit":
        return sum(r["assignments_checked"] for r in out["reports"])
    if cmd in ("con", "decompose"):
        return golden["congruences"]
    if cmd == "search":
        spec = job.expect.get("random")
        if spec:
            return spec["count"]
        lo, hi = (int(v) for v in job.argv[job.argv.index("--n") + 1].split(".."))
        return sum(POSET_COUNTS[lo - 1:hi])
    return 0


def check(job, out: dict, golden: dict | None, inputs: dict) -> None:
    """Raise Mismatch when the output breaks an invariant of the job."""
    cmd = job.argv[0]
    got = extract(job, out)
    if cmd == "audit":
        for row in got["reports"]:
            if row[5] != 0:
                raise Mismatch(f"{row[0]}/{row[1]}: {row[5]} divergences")
    if golden is not None:
        want = {k: v for k, v in golden.items() if k != "congruences"}
        if got != want:
            raise Mismatch(f"invariants differ: got {got}, want {want}")
    for key, value in job.expect.items():
        if key == "random":
            _check_random_search(value, out["hits"])
        elif any(r[key] != value for r in out["reports"]):
            raise Mismatch(f"{key} differs from the input's {value}")
    if cmd == "con":
        _check_congruence_list(inputs[job.argv[1]], out["congruences"], got["count"])
    if cmd == "decompose" and not out["indecomposable"]:
        _check_embedding(inputs[job.argv[1]], out)
    if cmd == "assign":
        tables = {json.dumps(a["operations"]) for a in out["algebras"]}
        if len(tables) != len(out["algebras"]):
            raise Mismatch("assign --enumerate emitted duplicate assignments")


# -- independent checks ------------------------------------------------------------


def _tables(data: dict) -> dict:
    return {op["symbol"]: op["table"] for op in data["operations"]}


def _check_congruence_list(alg, blocks_list, count: int) -> None:
    if len(blocks_list) != count:
        raise Mismatch("printed congruence list disagrees with the count")
    seen = set()
    for blocks in blocks_list:
        cls = [None] * alg.n
        for b, block in enumerate(blocks):
            for e in block:
                cls[e] = b
        if None in cls:
            raise Mismatch("a printed congruence is not a partition of the carrier")
        key = tuple(cls)
        if key in seen:
            raise Mismatch("a congruence is printed twice")
        seen.add(key)
        for sym, ar, t in alg.ops:
            if ar == 1 and any(cls[t[x]] != cls[t[y]] for x in range(alg.n)
                               for y in range(alg.n) if cls[x] == cls[y]):
                raise Mismatch(f"printed partition is not compatible with {sym}")
            if ar == 2:
                for x in range(alg.n):
                    for y in range(alg.n):
                        if cls[x] == cls[y] and any(
                            cls[t[x][z]] != cls[t[y][z]] or cls[t[z][x]] != cls[t[z][y]]
                            for z in range(alg.n)
                        ):
                            raise Mismatch(f"printed partition is not compatible with {sym}")


def _check_embedding(alg, out: dict) -> None:
    """The printed map a ↦ (l, r) must be a bijective homomorphism A → L × R."""
    left, right = _tables(out["left"]), _tables(out["right"])
    emb = [tuple(e) for e in out["embedding"]]
    nl, nr = len(out["left"]["labels"]), len(out["right"]["labels"])
    if len(emb) != alg.n or len(set(emb)) != alg.n or nl * nr != alg.n:
        raise Mismatch("embedding is not a bijection onto left x right")
    if any(not (0 <= l < nl and 0 <= r < nr) for l, r in emb):
        raise Mismatch("embedding leaves the product")
    for sym, ar, t in alg.ops:
        if sym not in left or sym not in right:
            raise Mismatch(f"factor lacks operation {sym}")
        tl, tr = left[sym], right[sym]
        if ar == 0:
            ok = emb[t] == (tl, tr)
        elif ar == 1:
            ok = all(emb[t[a]] == (tl[emb[a][0]], tr[emb[a][1]]) for a in range(alg.n))
        else:
            ok = all(
                emb[t[a][b]] == (tl[emb[a][0]][emb[b][0]], tr[emb[a][1]][emb[b][1]])
                for a in range(alg.n)
                for b in range(alg.n)
            )
        if not ok:
            raise Mismatch(f"embedding does not preserve {sym}")


# Random-mode search oracle.  The posets are regenerated from the documented
# stream (``search --random``: size ``randint(lo, hi)``, then each pair i < j
# related with probability 1/2, transitively closed) and classified here.


def _random_posets(seed: int, lo: int, hi: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(lo, hi)
        up = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    up[i] |= 1 << j
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                if up[i] >> j & 1:
                    up[i] |= up[j]
        up = [u | 1 << i for i, u in enumerate(up)]
        down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
        yield n, down, up


def _greatest(cand: int, down: list[int]) -> int | None:
    """The member of ``cand`` above all of ``cand``; with ``up`` rows, the least."""
    for g in range(len(down)):
        if cand >> g & 1 and cand & ~down[g] == 0:
            return g
    return None


def _star(n: int, down: list[int], up: list[int]) -> list[int] | None:
    full = (1 << n) - 1
    bottom = _greatest(full, up)
    if bottom is None:
        return None
    star = []
    for x in range(n):
        cand = sum(1 << y for y in range(n) if down[x] & down[y] == 1 << bottom)
        g = _greatest(cand, down)
        if g is None:
            return None
        star.append(g)
    return star


def _atom(name: str, n: int, down: list[int], up: list[int]) -> bool:
    if name == "lattice":
        return all(
            _greatest(down[x] & down[y], down) is not None
            and _greatest(up[x] & up[y], up) is not None
            for x in range(n)
            for y in range(x + 1, n)
        )
    star = _star(n, down, up)
    if name == "pc":
        return star is not None
    if name == "stone":
        return star is not None and all(
            up[star[x]] & up[star[star[x]]] == 1 << star[_greatest((1 << n) - 1, up)]
            for x in range(n)
        )
    raise ValueError(f"the oracle has no atom {name!r}")


def _holds(where: str, n: int, down: list[int], up: list[int]) -> bool:
    ok = True
    for term in where.split(" and "):
        neg = term.startswith("not ")
        ok = ok and (_atom(term[4:] if neg else term, n, down, up) != neg)
    return ok


def _check_random_search(spec: dict, hits: list) -> None:
    lo, hi = (int(v) for v in spec["n"].split(".."))
    want = [
        [[bool(down[j] >> i & 1) for j in range(n)] for i in range(n)]
        for n, down, up in _random_posets(spec["seed"], lo, hi, spec["count"])
        if _holds(spec["where"], n, down, up)
    ]
    got = [h["leq"] for h in hits]
    if got != want:
        raise Mismatch(f"random search: {len(got)} hits, the oracle finds {len(want)}")
