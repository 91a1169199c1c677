"""The three benchmark workloads: seeded documents, jobs and output checks.

A workload is a list of rounds.  Each round gets fresh documents from
``random.Random(f"{seed}:{workload}:{round}")``, so one seed always gives
the same documents and no two jobs of a run share an input document.
A job is one ``qmatroids.cli.main(argv)`` call; its check runs after the
timed part of the round and compares the report with an independent
route through the library (or with frozen golden values).

Every round also runs the same small probe set (``probe_jobs``): tiny
inputs for the layer functions the workload itself does not reach, so
that every per-layer timer of the traced run reads a measured value on
every workload.  Probe jobs are excluded from the latency percentiles.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# GF(2^6) with the modulus x^6 + x + 1, pinned so the search inputs do
# not depend on how the library picks a default modulus.
GF64_MODULUS = [1, 1, 0, 0, 0, 0, 1]
GF16_MODULUS = [1, 1, 0, 0, 1]
# Every search over GF(2^6) uses G1 = (1 a) and a G2 from the orbit of
# this row under row scaling by c and column maps diag(1, B) composed
# with a shear of the first column.  The orbit keeps the hit count at
# SEARCH_HITS of 4096 (the ~11% regime), so every round does the same
# work, while the seed still draws a distinct document for each search.
SEARCH_BASE_G2 = (55, 25, 49)
SEARCH_BASE_HIT = (0, 16, 20)
SEARCH_HITS = 448
# The frozen GF(2^4) pair: G1 = (1 a), G2 = (1 a^4) has exactly these hits.
FROZEN_HITS = ["a^3", "a^14", "a^9", "a^7", "a^6", "a^13", "a^11", "a^12"]
SWEEP_VERBS = ("verify-axioms", "cyclic-flats", "irreducible", "factorize")
# Acceptance criterion 11: node and edge labels (dim, rank) on F_2^13.
ACC11_NODES = [(1, 0), (3, 1), (3, 1), (3, 1), (5, 2), (7, 3), (9, 4), (9, 5), (13, 6)]
ACC11_EDGES = sorted([((1, 0), (3, 1))] * 3 + [((3, 1), (5, 2))] * 3 + [
    ((5, 2), (7, 3)), ((5, 2), (9, 5)), ((7, 3), (9, 4)),
    ((9, 4), (13, 6)), ((9, 5), (13, 6))])
# Checks compare whole rank tables up to this many subspaces (sweep jobs
# always do, their documents are whole tables), else ranks at SAMPLES
# random subspaces, so that checking a short job costs about as much as
# the job.
TABLE_CHECK_LIMIT = 400
SAMPLES = 60


class CheckFailed(Exception):
    """An output disagreed with its independent route."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    kind: str
    q: int
    argv: list
    check: Callable  # check(report: dict, code: int) -> None, raises CheckFailed
    probe: bool = False
    latency: bool = True  # counted in the latency percentiles


@dataclass
class Round:
    jobs: list = field(default_factory=list)
    traffic: Counter = field(default_factory=Counter)


class Docs:
    """Writes one round's documents into its own directory."""

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        os.makedirs(path, exist_ok=True)

    def write(self, doc: dict) -> str:
        self.count += 1
        p = os.path.join(self.path, f"d{self.count:03d}.json")
        with open(p, "w") as fh:
            json.dump(doc, fh)
        return p


# ---------------------------------------------------------------------------
# Small helpers over the library handle `lib` (one import of qmatroids).

def _rank_mod_q(rows, q: int) -> int:
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_gl(rng: random.Random, q: int, n: int) -> list:
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if _rank_mod_q(rows, q) == n:
            return rows


def random_subspace(lib, rng: random.Random, q: int, n: int, d: int):
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
        s = lib.subspace.Subspace.from_coeff_rows(q, n, rows)
        if s.dim == d:
            return s


def space_doc(s) -> dict:
    return {"basis": s.coeff_rows()}


def parse_space(lib, q: int, n: int, doc: dict):
    return lib.subspace.Subspace.from_dict({"q": q, "n": n, "basis": doc["basis"]})


def parse_matroid(lib, doc: dict):
    return lib.qmatroid.QMatroid.from_dict(doc, validate=False)


def ranks_doc(lib, m) -> dict:
    table = lib.qmatroid.full_rank_table(m)
    return {"q": m.q, "n": m.n,
            "ranks": [{"basis": s.coeff_rows(), "r": r} for s, r in table.items()]}


def random_spaces(lib, rng: random.Random, q: int, n: int, count: int, top: int):
    return [random_subspace(lib, rng, q, n, rng.randrange(0, min(top, n) + 1))
            for _ in range(count)]


def expect_code(code: int, want: int, what: str) -> None:
    require(code == want, f"{what}: exit code {code}, expected {want}")


def check_fields(what: str, code_want: int, **want):
    """A check that the report has these values and the exit code is code_want."""
    def check(report: dict, code: int) -> None:
        for key, value in want.items():
            require(report[key] == value, f"{what}: {key} {report[key]!r}, expected {value!r}")
        expect_code(code, code_want, what)
    return check


# ---------------------------------------------------------------------------
# Linear-set profiles computed here, independently of linear_set_profile.

def point_weights(F, rows) -> dict:
    """Weights of the points of PG(1, q^m) met by the columns of a 2-row matrix."""
    q = F.q
    cols = list(zip(*rows))
    counts: Counter = Counter()
    for coeffs in itertools.product(range(q), repeat=len(cols)):
        if not any(coeffs):
            continue
        y0 = y1 = 0
        for c, (a, b) in zip(coeffs, cols):
            y0, y1 = F.add(y0, F.smul(c, a)), F.add(y1, F.smul(c, b))
        counts[(1, F.mul(F.inv(y0), y1)) if y0 else (0, 1)] += 1
    weights = {}
    for pt, k in counts.items():
        w, size = 0, k + 1
        while size % q == 0:
            size //= q
            w += 1
        require(size == 1, "point count is not a power of q")
        weights[pt] = w
    return weights


def check_profile_report(F, rows, report: dict, code: int) -> None:
    weights = point_weights(F, rows)
    got = {tuple(F.parse_element(x) for x in e["point"]): e["weight"]
           for e in report["profile"]["points"]}
    require(got == weights, "club-check profile differs from the point count")
    heavy = [w for w in weights.values() if w >= 2]
    club = heavy[0] if len(heavy) == 1 else None
    require(report["club"] == club, f"club index {report['club']}, expected {club}")
    require(report["rank"] == len(rows[0]), "club-check rank")
    expect_code(code, 0 if club else 1, "club-check")


def check_evasive_report(F, rows, k1: int, h: int, report: dict, code: int) -> None:
    # For k = 2 and k1 = 1 the hyperplanes of F_{q^m}^2 are its points,
    # and the one containing the first axis is the point (1 : 0).  The
    # system meets a point in F_q-dimension equal to the point's weight.
    weights = point_weights(F, rows)
    want = all(w <= h for pt, w in weights.items() if pt != (1, 0))
    require(report["evasive"] is want, f"evasive {report['evasive']}, expected {want}")
    expect_code(code, 0 if want else 1, "evasive-check")


# ---------------------------------------------------------------------------
# Checks shared by the sweep and verbs workloads.

def check_axioms_ok(report: dict, code: int) -> None:
    require(report["ok"] is True and not report["failures"], "axioms reported violated")
    expect_code(code, 0, "verify-axioms")


def check_lattice_report(lib, m, report: dict, code: int, limit=TABLE_CHECK_LIMIT) -> None:
    """The reported flats rebuild m, and the edges are the covers among them."""
    q, n = m.q, m.n
    spaces = [parse_space(lib, q, n, node) for node in report["nodes"]]
    rebuilt = lib.qmatroid.QMatroid.from_cyclic_flats(
        q, n, [(s, node["rank"]) for s, node in zip(spaces, report["nodes"])])
    _sampled_equal(lib, random.Random(4), rebuilt, m, "cyclic flats do not rebuild the input", limit)
    covers = sorted(
        [i, j] for i, a in enumerate(spaces) for j, b in enumerate(spaces)
        if i != j and b.contains(a)
        and not any(k not in (i, j) and b.contains(c) and c.contains(a)
                    for k, c in enumerate(spaces)))
    require(report["edges"] == covers, "Hasse edges differ from the covers")
    require(report["count"] == len(spaces), "lattice count")
    expect_code(code, 0, "cyclic-flats")


def _nontrivial_separators(lib, m):
    for s in lib.subspace.enumerate_subspaces(m.q, m.n):
        if 0 < s.dim < m.n and lib.factorization.is_free_separator(m, s):
            return True
    return False


def check_irreducible_report(lib, m, report: dict, code: int) -> None:
    """Reducible exactly when uniform (n >= 2) or some proper free separator exists."""
    if m.n <= 1:
        want = True
    elif m.is_uniform():
        want = False
    else:
        want = not _nontrivial_separators(lib, m)
    require(report["irreducible"] is want, f"irreducible {report['irreducible']}, expected {want}")
    if not want:
        w = parse_space(lib, m.q, m.n, report["witness"])
        require(0 < w.dim < m.n and lib.factorization.is_free_separator(m, w),
                "witness is not a proper free separator")
    expect_code(code, 0 if want else 1, "irreducible")


def check_factorize_report(lib, m, report: dict, code: int, limit=TABLE_CHECK_LIMIT) -> None:
    q, n = m.q, m.n
    flag = [parse_space(lib, q, n, t) for t in report["flag"]]
    require(flag[0].dim == 0 and flag[-1].dim == n, "flag does not run from 0 to E")
    for lo, hi in zip(flag, flag[1:]):
        require(hi.contains(lo) and hi.dim > lo.dim, "flag is not a strict chain")
    for t in flag:
        require(lib.factorization.is_free_separator(m, t), "flag entry is not a free separator")
    factors = [parse_matroid(lib, f) for f in report["factors"]]
    require(len(factors) == len(flag) - 1, "factor count")
    for f, kind in zip(factors, report["factor_kinds"]):
        require((kind == "uniform") == f.is_uniform(), f"factor kind {kind}")
    images = report["adapted_basis"]
    rebuilt = factors[0]
    for f in factors[1:]:
        rebuilt = lib.constructions.free_product(rebuilt, f, validate=False)
    moved = lib.qmatroid.transport(m, images)
    _sampled_equal(lib, random.Random(0), rebuilt, moved, "factors do not rebuild the input", limit)
    expect_code(code, 0, "factorize")


# ---------------------------------------------------------------------------
# The probe set: one tiny job for each layer function the workloads may miss.

def gf16_example(F, c: int) -> list:
    """The GF(2^4) block matrix (1 a 0 a^11; 0 0 c c*a^4), a verified hit."""
    a = F.generator
    return [[1, a, 0, F.pow(a, 11)], [0, 0, c, F.mul(c, F.pow(a, 4))]]


def gf16_search_job(lib, rng, docs: Docs, power: int) -> Job:
    """search-x of G1 = (1 a) against G2 = c (1 a^power) over GF(2^4).

    Scaling G2 by c leaves the hits unchanged.  power 4 is the frozen
    pair with 8 hits; power 2 is the negative pair of acceptance 2.
    """
    F = lib.gf.ext_field_new(2, 4, GF16_MODULUS)
    field_doc = {"q": 2, "m": 4, "modulus": GF16_MODULUS}
    a = F.generator
    c = rng.randrange(1, F.order)
    g1 = docs.write({"field": field_doc, "rows": [[1, a]]})
    g2 = docs.write({"field": field_doc, "rows": [[c, F.mul(c, F.pow(a, power))]]})

    def check(report, code):
        got = [h["rows"][0][1] for h in report["hits"]]
        want = FROZEN_HITS if power == 4 else []
        require(got == want, f"GF(2^4) hits against (1 a^{power}) changed: {got}")
        require(report["searched"] == 16 and report["count"] == len(want), "GF(2^4) search counts")
        require(all(h["rows"][0][0] == "0" for h in report["hits"]), "first entry not normalized")
        expect_code(code, 0 if want else 1, "search-x")

    return Job("search-x", 2, ["search-x", g1, g2], check)


def probe_jobs(lib, rng: random.Random, docs: Docs) -> list:
    QM = lib.qmatroid.QMatroid
    cons = lib.constructions
    jobs = [gf16_search_job(lib, rng, docs, 4)]

    F = lib.gf.ext_field_new(2, 4, GF16_MODULUS)
    rows = gf16_example(F, rng.randrange(1, F.order))
    g = docs.write({"field": {"q": 2, "m": 4, "modulus": GF16_MODULUS}, "rows": rows})
    jobs.append(Job("club-check", 2, ["club-check", g],
                    lambda r, c: check_profile_report(F, rows, r, c)))
    jobs.append(Job("verify-free-product-rep", 2,
                    ["verify-free-product-rep", g, "--n1", "2", "--k1", "1"],
                    check_fields("verify-free-product-rep", 0, verified=True)))
    jobs.append(Job("evasive-check", 2, ["evasive-check", g, "--k1", "1", "--h", "1"],
                    lambda r, c: check_evasive_report(F, rows, 1, 1, r, c)))

    u3 = lib.qmatroid.transport(QM.uniform(3, 2, 1), random_gl(rng, 3, 2))
    p = docs.write(ranks_doc(lib, u3))
    jobs.append(Job("verify-axioms", 3, ["verify-axioms", p], check_axioms_ok))
    jobs.append(Job("enumerate", 2, ["enumerate", "--n", "1"],
                    check_fields("enumerate --n 1", 0, count=2)))

    a, b = QM.uniform(3, 1, 1), QM.uniform(3, 2, 1)
    jobs.append(direct_sum_job(lib, docs, a, b))
    m1 = composite(lib, rng, 2, 3)
    m2 = composite(lib, rng, 2, 3)
    jobs.append(weak_compare_job(lib, docs, m1, m2))
    m = lib.qmatroid.transport(cons.free_product(QM.uniform(2, 1, 1), QM.uniform(2, 2, 1),
                                                 validate=False), random_gl(rng, 2, 3))
    jobs.append(matroid_job(lib, docs, "factorize", m))
    m = lib.qmatroid.transport(QM.uniform(3, 3, 2), random_gl(rng, 3, 3))
    jobs.append(matroid_job(lib, docs, "irreducible", m))
    return jobs


# ---------------------------------------------------------------------------
# Jobs over q-matroid documents.

def matroid_job(lib, docs: Docs, verb: str, m, table=None) -> Job:
    """A one-document verb.  With `table` (the same q-matroid, table-backed)
    the document is its full rank table and rank checks compare with it."""
    path = docs.write(m.to_dict() if table is None else ranks_doc(lib, table))
    ref = m if table is None else table
    limit = TABLE_CHECK_LIMIT if table is None else lib.subspace.lattice_size(m.q, m.n)
    checks = {
        "verify-axioms": check_axioms_ok,
        "cyclic-flats": lambda r, c: check_lattice_report(lib, ref, r, c, limit),
        "irreducible": lambda r, c: check_irreducible_report(lib, m, r, c),
        "factorize": lambda r, c: check_factorize_report(lib, m, r, c, limit),
        "dual": lambda r, c: check_dual_report(lib, ref, r, c),
    }
    return Job(verb, m.q, [verb, path], checks[verb])


def _sampled_equal(lib, rng, m, other, what: str, limit=TABLE_CHECK_LIMIT) -> None:
    """Whole tables up to `limit` subspaces, else ranks at sampled subspaces."""
    if lib.subspace.lattice_size(m.q, m.n) <= limit:
        require(lib.qmatroid.rank_tables_equal(m, other), what)
        return
    for s in random_spaces(lib, rng, m.q, m.n, SAMPLES, m.n):
        require(m.rank(s) == other.rank(s), f"{what} (sampled)")


def check_dual_report(lib, m, report: dict, code: int) -> None:
    out = parse_matroid(lib, report)
    rng = random.Random(1)
    if lib.subspace.lattice_size(m.q, m.n) <= TABLE_CHECK_LIMIT:
        require(lib.qmatroid.rank_tables_equal(out, lib.qmatroid.dual_by_definition(m)),
                "dual differs from dual_by_definition")
    else:
        re = m.rank(m.E)
        for s in random_spaces(lib, rng, m.q, m.n, SAMPLES, m.n):
            want = s.dim - re + m.rank(lib.subspace.orthogonal_complement(s))
            require(out.rank(s) == want, "dual differs from the definition (sampled)")
    require(report["rank"] == m.n - m.rank(m.E), "dual rank")
    expect_code(code, 0, "dual")


def free_product_job(lib, docs: Docs, m1, m2) -> Job:
    p1, p2 = docs.write(m1.to_dict()), docs.write(m2.to_dict())

    def check(report, code):
        out = parse_matroid(lib, report)
        n = m1.n + m2.n
        require((out.q, out.n) == (m1.q, n), "free product ambient")
        rng = random.Random(2)
        if lib.subspace.lattice_size(m1.q, n) <= TABLE_CHECK_LIMIT:
            ref = lib.constructions.free_product_by_formula(m1, m2)
            require(lib.qmatroid.rank_tables_equal(out, ref), "free product differs from the formula")
        else:
            for s in random_spaces(lib, rng, m1.q, n, SAMPLES, n):
                want = lib.constructions.free_product_rank(m1, m2, s)
                require(out.rank(s) == want, "free product differs from the formula (sampled)")
        expect_code(code, 0, "free-product")

    return Job("free-product", m1.q, ["free-product", p1, p2], check)


def direct_sum_job(lib, docs: Docs, m1, m2) -> Job:
    p1, p2 = docs.write(m1.to_dict()), docs.write(m2.to_dict())

    def check(report, code):
        out = parse_matroid(lib, report)
        q, n = m1.q, m1.n + m2.n
        if lib.subspace.lattice_size(q, n) <= 100:
            ref = lib.constructions.direct_sum_by_definition(m1, m2)
            require(lib.qmatroid.rank_tables_equal(out, ref), "direct sum differs from the definition")
        else:
            ctx = lib.subspace.DirectSumContext(q, m1.n, m2.n)
            rng = random.Random(3)
            for s in random_spaces(lib, rng, q, n, SAMPLES // 2, 3):
                best = min(m1.rank(ctx.project1(x)) + m2.rank(ctx.project2(x)) - x.dim
                           for x in lib.subspace.subspaces_of(s))
                require(out.rank(s) == s.dim + best, "direct sum differs from the definition (sampled)")
        expect_code(code, 0, "direct-sum")

    return Job("direct-sum", m1.q, ["direct-sum", p1, p2], check)


def weak_compare_job(lib, docs: Docs, m1, m2) -> Job:
    p1, p2 = docs.write(m1.to_dict()), docs.write(m2.to_dict())

    def check(report, code):
        q, n = m1.q, m1.n
        if lib.subspace.lattice_size(q, n) <= TABLE_CHECK_LIMIT:
            spaces = lib.subspace.enumerate_subspaces(q, n)
        else:  # sampled: the relation must allow every sampled pair
            spaces = random_spaces(lib, random.Random(5), q, n, SAMPLES, n)
        above = below = False
        for s in spaces:
            r1, r2 = m1.rank(s), m2.rank(s)
            above |= r1 > r2
            below |= r1 < r2
        # Each claimed direction needs a true witness; each seen direction
        # must be claimed.  With the whole lattice seen, that is equality.
        rel = report["relation"]
        claimed = {"equal": (False, False), "M2<=M1": (True, False),
                   "M1<=M2": (False, True), "incomparable": (True, True)}[rel]
        require(above <= claimed[0] and below <= claimed[1], f"relation {rel} contradicts the ranks")
        require(set(report["witnesses"]) == {k for k, on in zip(("r1>r2", "r1<r2"), claimed) if on},
                "weak-compare witness keys")
        for key, w in report["witnesses"].items():
            s = parse_space(lib, m1.q, m1.n, w["space"])
            r1, r2 = m1.rank(s), m2.rank(s)
            require((w["r1"], w["r2"]) == (r1, r2) and (r1 > r2) == (key == "r1>r2"),
                    "weak-compare witness")
        expect_code(code, 1 if rel == "incomparable" else 0, "weak-compare")

    return Job("weak-compare", m1.q, ["weak-compare", p1, p2], check)


def _rank_by_independents(lib, m, s) -> int:
    return max(x.dim for x in lib.subspace.subspaces_of(s) if m.is_independent(x))


def rank_job(lib, rng, docs: Docs, m) -> Job:
    s = random_subspace(lib, rng, m.q, m.n, rng.randrange(1, min(m.n, 4) + 1))
    p, ps = docs.write(m.to_dict()), docs.write(space_doc(s))

    def check(report, code):
        require(report["rank"] == _rank_by_independents(lib, m, s), "rank differs from the independents")
        expect_code(code, 0, "rank")

    return Job("rank", m.q, ["rank", p, ps], check)


def interval(lib, sub, sup):
    """Every X with sub <= X <= sup, as sub + (X meet C) for a complement C
    of sub in sup built here, so the check does not share the library's
    quotient coordinates."""
    q, n = sub.q, sub.n
    S = lib.subspace.Subspace
    rows = sub.coeff_rows()
    comp = []
    for v in sup.coeff_rows():
        if S.from_coeff_rows(q, n, rows + comp + [v]).dim > len(rows) + len(comp):
            comp.append(v)
    for t in lib.subspace.enumerate_subspaces(q, len(comp)):
        gens = [[sum(c * v[i] for c, v in zip(coeffs, comp)) % q for i in range(n)]
                for coeffs in t.coeff_rows()]
        yield S.from_coeff_rows(q, n, rows + gens)


def minor_job(lib, rng, docs: Docs, verb: str, m, sub, sup) -> Job:
    """restrict, contract or minor; checked by the (dim, rank) profile of the interval."""
    p = docs.write(m.to_dict())
    if verb == "restrict":
        argv = [verb, p, docs.write(space_doc(sup))]
    elif verb == "contract":
        argv = [verb, p, docs.write(space_doc(sub))]
    else:
        argv = [verb, p, docs.write(space_doc(sub)), docs.write(space_doc(sup))]

    def check(report, code):
        out = parse_matroid(lib, report)
        d = sup.dim - sub.dim
        require((out.q, out.n) == (m.q, d), "minor ambient")
        base = m.rank(sub)
        want = Counter((x.dim - sub.dim, m.rank(x) - base) for x in interval(lib, sub, sup))
        got = Counter((t.dim, out.rank(t)) for t in lib.subspace.enumerate_subspaces(m.q, d))
        require(got == want, "minor rank profile differs from the interval")
        require(report["rank"] == m.rank(sup) - base, "minor rank")
        expect_code(code, 0, verb)

    return Job(verb, m.q, argv, check)


def composite(lib, rng: random.Random, q: int, n: int, depth: int = 1, shape=None):
    """A seeded q-matroid on F_q^n: a proper uniform or heavy-point leaf,
    or a free product or direct sum of smaller composites, maybe
    dualized, in scrambled coordinates.

    The structure is drawn from `shape` and the coordinates from `rng`;
    with a shape generator that does not depend on the seed, every seed
    gets the same structures in different coordinates.
    """
    QM = lib.qmatroid.QMatroid
    cons = lib.constructions
    shape = shape or rng
    if n < 4 or depth == 0 or shape.random() < 0.2:
        shapes = [w for w in ((2,), (3,), (2, 2), (2, 3), (3, 3))
                  if max(w) <= n - 2 and sum(w) <= n]
        if shapes and shape.random() < 0.5:
            m = heavy_point_matroid(lib, rng, q, n, shape.choice(shapes))
        else:
            m = QM.uniform(q, n, shape.randrange(1, n) if n > 1 else 1)
    else:
        n1 = shape.randrange(2, n - 1)
        a = composite(lib, rng, q, n1, depth - 1, shape)
        b = composite(lib, rng, q, n - n1, depth - 1, shape)
        m = cons.free_product(a, b, validate=False) if shape.random() < 0.5 else cons.direct_sum(a, b)
    if shape.random() < 0.3:
        m = m.dual()
    return lib.qmatroid.transport(m, random_gl(rng, q, n))


# ---------------------------------------------------------------------------
# search: coupling-block searches over GF(2^6).

def _orbit_row(F, rng: random.Random):
    """A seeded member of the orbit of SEARCH_BASE_G2, with its base hit moved along."""
    c = rng.randrange(1, F.order)
    while True:
        b = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        if (b[0][0] * b[1][1] + b[0][1] * b[1][0]) % 2:
            break
    A = [[1, rng.randrange(2), rng.randrange(2)], [0] + b[0], [0] + b[1]]

    def times_a(row):
        out = []
        for j in range(3):
            acc = 0
            for i in range(3):
                if A[i][j]:
                    acc = F.add(acc, row[i])
            out.append(acc)
        return out

    return [F.mul(c, x) for x in times_a(SEARCH_BASE_G2)], times_a(SEARCH_BASE_HIT)


def search_round(lib, rng: random.Random, docs: Docs, r: int, seed: int) -> Round:
    F = lib.gf.ext_field_new(2, 6, GF64_MODULUS)
    QSystem, Matrix = lib.representation.QSystem, lib.gf.Matrix
    field_doc = {"q": 2, "m": 6, "modulus": GF64_MODULUS}
    a = F.generator
    g2, hit = _orbit_row(F, rng)
    p1 = docs.write({"field": field_doc, "rows": [[1, a]]})
    p2 = docs.write({"field": field_doc, "rows": [g2]})

    def check_search(report, code):
        got = [tuple(F.parse_element(x) for x in h["rows"][0]) for h in report["hits"]]
        want = []
        for x2, x3 in itertools.product(range(F.order), repeat=2):
            rows = [[1, a, 0, x2, x3], [0, 0] + g2]
            if lib.representation.is_i_club(QSystem.from_matrix(Matrix(F, rows))) == 2:
                want.append((0, x2, x3))
        require(got == want, f"search hits differ from the 2-club route ({len(got)} vs {len(want)})")
        require(len(want) == SEARCH_HITS, f"{len(want)} hits, the orbit invariant is {SEARCH_HITS}")
        require(report["searched"] == F.order ** 2 and report["count"] == len(got), "search counts")
        expect_code(code, 0, "search-x")

    # The latency percentiles of this workload are those of the big searches.
    rnd = Round()
    rnd.jobs.append(Job("search-x", 2, ["search-x", p1, p2], check_search))
    rnd.jobs.append(gf16_search_job(lib, rng, docs, 2))
    rows = [[1, a] + hit, [0, 0] + g2]
    g = docs.write({"field": field_doc, "rows": rows})
    rnd.jobs.append(Job("club-check", 2, ["club-check", g],
                        lambda rep, c: check_profile_report(F, rows, rep, c)))
    rnd.jobs.append(Job("verify-free-product-rep", 2,
                        ["verify-free-product-rep", g, "--n1", "2", "--k1", "1"],
                        check_fields("verify-free-product-rep", 0, verified=True)))
    rnd.jobs.append(Job("evasive-check", 2, ["evasive-check", g, "--k1", "1", "--h", "1"],
                        lambda rep, c: check_evasive_report(F, rows, 1, 1, rep, c)))
    for job in rnd.jobs[1:]:
        job.latency = False
    return rnd


# ---------------------------------------------------------------------------
# sweep: lattice sweeps over full rank tables on F_2^6 and F_3^5.

def heavy_point_matroid(lib, rng: random.Random, q: int, n: int, weights):
    """A seeded rank-2 q-matroid on F_q^n with cyclic flats 0, one rank-1
    flat of each given dimension, and F_q^n.

    It is the q-matroid of a 2 x n matrix over a large enough GF(q^m)
    whose linear set on PG(1, q^m) has heavy points of exactly these
    weights (a 2-club for one point of weight 2) and no others.  It is
    built here from its cyclic flats, which keeps set-up off the
    representation layer.  It is irreducible exactly when the weights
    add up to n; otherwise the span of the heavy flats is a pinchpoint.
    """
    QM = lib.qmatroid.QMatroid
    S = lib.subspace.Subspace
    while True:
        spaces = [random_subspace(lib, rng, q, n, w) for w in weights]
        span = S.zero(q, n)
        for z in spaces:
            span = lib.subspace.sum_subspaces(span, z)
        if span.dim == sum(weights):
            break
    pairs = [(S.zero(q, n), 0)] + [(z, 1) for z in spaces] + [(S.full(q, n), 2)]
    return QM.from_cyclic_flats(q, n, pairs)


SWEEP_SHAPES = {
    (2, 6): {"club": (3,), "pair": (3, 3)},
    (3, 5): {"club": (2,), "pair": (2, 3)},
}


def sweep_round(lib, rng: random.Random, docs: Docs, r: int, seed: int) -> Round:
    """Five F_2^6 jobs and one F_3^5 job whose verb rotates with the
    round, starting with cyclic-flats (axiom check and scan).

    The F_2^6 jobs run every verb, cyclic-flats twice.  All but
    verify-axioms cost about the same (the axiom check run by loading
    the table, then a scan), so the p50 falls inside one cluster of
    jobs.  At the seed commit q = 2 takes about 60% of the round and
    q = 3 about 40%.
    """
    rnd = Round()
    verbs = SWEEP_VERBS + SWEEP_VERBS[1:2]
    plan = [(2, 6, verb, ("club", "pair")[(i + r) % 2]) for i, verb in enumerate(verbs)]
    plan.append((3, 5, SWEEP_VERBS[(r + 1) % 4], ("club", "pair")[r % 2]))
    for q, n, verb, shape in plan:
        m = heavy_point_matroid(lib, rng, q, n, SWEEP_SHAPES[(q, n)][shape])
        table = lib.qmatroid.QMatroid.from_rank_table(q, n, lib.qmatroid.full_rank_table(m))
        rnd.jobs.append(matroid_job(lib, docs, verb, m, table=table))
        rnd.traffic[f"q{q}.subspaces"] += lib.subspace.lattice_size(q, n)
        rnd.traffic[f"q{q}.flats"] += len(m.certificates())
    return rnd


# ---------------------------------------------------------------------------
# verbs: short certificate-level calls, q = 2 with n <= 7 and q = 3 with n <= 4.

def acc11_job(lib, rng: random.Random, docs: Docs) -> Job:
    """Acceptance 11: the free product on F_2^13, factors in scrambled coordinates."""
    S = lib.subspace.Subspace
    QM = lib.qmatroid.QMatroid

    def span(n, *rows):
        return S.from_coeff_rows(2, n, rows)

    M = QM.from_cyclic_flats(2, 5, [
        (span(5, (1, 0, 1, 0, 1)), 0),
        (span(5, (1, 0, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 1, 0, 0)), 1),
        (span(5, (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1)), 1),
        (span(5, (1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)), 1),
        (S.full(2, 5), 2),
    ])
    e = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]
    N = QM.from_cyclic_flats(2, 8, [
        (span(8), 0), (span(8, *e[:2]), 1), (span(8, *e[:4]), 2),
        (span(8, *e[4:]), 3), (S.full(2, 8), 4),
    ])
    M = lib.qmatroid.transport(M, random_gl(rng, 2, 5))
    N = lib.qmatroid.transport(N, random_gl(rng, 2, 8))
    p1, p2 = docs.write(M.to_dict()), docs.write(N.to_dict())

    def check(report, code):
        out = parse_matroid(lib, report)
        nodes, edges = out.cyclic_flats().shape_signature()
        require(list(nodes) == ACC11_NODES, f"acceptance 11 nodes {nodes}")
        require(sorted(edges) == ACC11_EDGES, "acceptance 11 edges")
        expect_code(code, 0, "free-product")

    return Job("free-product", 2, ["free-product", p1, p2], check)


def verbs_round(lib, rng: random.Random, docs: Docs, r: int, seed: int) -> Round:
    """About 57% of the jobs are certificate-level calls that cost little
    beyond parsing and reporting (they set the p50); about 18% sweep the
    whole lattice of F_2^6 to validate or compare (they set the p90).

    The structures of the inputs are the same in every round and for
    every seed, so rounds do comparable work; the seed and the round
    choose their coordinates and their heavy flats.
    """
    jobs = []
    shape = random.Random("verbs-shapes")

    def comp(q, n):
        return composite(lib, rng, q, n, 2, shape)

    def split(q, n):
        n1 = shape.randrange(2, n - 1)
        return comp(q, n1), comp(q, n - n1)

    def heavy(q, n, weights):
        m = heavy_point_matroid(lib, rng, q, n, weights)
        return lib.qmatroid.transport(m, random_gl(rng, q, n))

    # Certificate-level calls.
    for q, n in ((2, 6), (2, 7), (3, 4)):
        jobs.append(direct_sum_job(lib, docs, *split(q, n)))
    for q, n in ((2, 6), (2, 7), (2, 7), (3, 4)):
        jobs.append(matroid_job(lib, docs, "dual", comp(q, n)))
    for q, n in ((2, 7), (2, 7), (3, 4)):
        jobs.append(rank_job(lib, rng, docs, comp(q, n)))
    for q, n in ((2, 6), (2, 7), (3, 4)):
        jobs.append(matroid_job(lib, docs, "irreducible", comp(q, n)))
    jobs.append(matroid_job(lib, docs, "irreducible", heavy(2, 6, (3, 3))))
    jobs.append(matroid_job(lib, docs, "irreducible", heavy(3, 4, (2, 2))))
    for verb in ("verify-axioms", "cyclic-flats"):
        for q, n in ((2, 7), (2, 7), (3, 4)):
            jobs.append(matroid_job(lib, docs, verb, comp(q, n)))
    for _ in range(2):  # F_2^7 is past the validation sweep's limit
        jobs.append(free_product_job(lib, docs, *split(2, 7)))
    jobs.append(matroid_job(lib, docs, "factorize", comp(2, 7)))
    jobs.append(Job("enumerate", 2, ["enumerate", "--n", "2"],
                    check_fields("enumerate --n 2", 0, count=4)))
    # Calls that materialize a small lattice.
    for q, n in ((2, 5), (3, 4)):
        jobs.append(free_product_job(lib, docs, *split(q, n)))
    for verb, q, n, dsub, dsup in (("restrict", 2, 7, 0, 5), ("contract", 2, 7, 2, 7),
                                   ("minor", 2, 7, 1, 6), ("restrict", 3, 4, 0, 3),
                                   ("minor", 3, 4, 1, 4)):
        sub = random_subspace(lib, rng, q, n, dsub)
        sup = sub
        while sup.dim < dsup:
            sup = sup.extend(random_subspace(lib, rng, q, n, 1).rows[0])
        jobs.append(minor_job(lib, rng, docs, verb, comp(q, n), sub, sup))
    for q, n in ((2, 5), (3, 4)):
        jobs.append(weak_compare_job(lib, docs, *product_and_sum(lib, rng, shape, q, n)))
    jobs.append(matroid_job(lib, docs, "factorize", comp(3, 4)))
    jobs.append(acc11_job(lib, rng, docs))
    # Calls that sweep all 2825 subspaces of F_2^6.
    for _ in range(2):
        jobs.append(free_product_job(lib, docs, *split(2, 6)))
        jobs.append(weak_compare_job(lib, docs, *product_and_sum(lib, rng, shape, 2, 6)))
        jobs.append(matroid_job(lib, docs, "factorize", comp(2, 6)))
        jobs.append(matroid_job(lib, docs, "factorize", heavy(2, 6, (3, 3))))
    return Round(jobs=jobs)


def product_and_sum(lib, rng: random.Random, shape: random.Random, q: int, n: int):
    """The free product and the direct sum of one pair, in the same coordinates."""
    n1 = shape.randrange(2, n - 1)
    a = composite(lib, rng, q, n1, 1, shape)
    b = composite(lib, rng, q, n - n1, 1, shape)
    g = random_gl(rng, q, n)
    return (lib.qmatroid.transport(lib.constructions.free_product(a, b, validate=False), g),
            lib.qmatroid.transport(lib.constructions.direct_sum(a, b), g))


ROUND_MAKERS = {"search": search_round, "sweep": sweep_round, "verbs": verbs_round}


def build_round(lib, workload: str, seed: int, r: int, path: str) -> Round:
    rng = random.Random(f"{seed}:{workload}:{r}")
    docs = Docs(path)
    rnd = ROUND_MAKERS[workload](lib, rng, docs, r, seed)
    for job in probe_jobs(lib, rng, docs):
        job.probe, job.latency = True, False
        rnd.jobs.append(job)
    return rnd
