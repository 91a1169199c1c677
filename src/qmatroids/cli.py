"""Command line front end for the q-matroid toolkit.

Each verb maps onto one library operation.  Inputs are JSON documents;
reports go to standard output (JSON or plain text), progress chatter to
standard error.  Exit codes: 0 for success or a true verdict, 1 for a
false verdict, 2 for input errors, 3 for exhausted budgets, 4 for a
failed internal consistency check or any other internal fault (a bug,
reported on standard error), and 4 as well when standard output closes
before the report is written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback

from .constructions import direct_sum, free_product, weak_compare_identity
from .errors import BudgetError, InputError, InvariantError
from .factorization import (
    irreducibility_verdict,
    primary_factorization,
    vamos_cyclic_flats_scan,
    vamos_qmatroid,
)
from .gf import Matrix, ext_field_new
from .qmatroid import (
    QMatroid,
    check_cyclic_flat_axioms,
    check_rank_axioms,
    enumerate_qmatroids,
    parse_document,
)
from .representation import (
    QSystem,
    coupling_search_size,
    is_evasive,
    linear_set_profile,
    qmatroid_from_matrix,
    search_x,
    verify_free_product_rep,
)
from .subspace import Subspace, json_int

# ---------------------------------------------------------------------------
# Input documents

def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    return doc


def _load_matroid(path: str) -> QMatroid:
    return _matroid_from_doc(_read_json(path))


def _matroid_from_doc(doc: dict) -> QMatroid:
    if "builtin" in doc:
        name = doc["builtin"]
        if name == "vamos":
            return vamos_qmatroid(json_int(doc.get("q", 2), "q", "builtin"))
        raise InputError(f"unknown builtin q-matroid {name!r}")
    return QMatroid.from_dict(doc)


def _load_subspace(path: str, m: QMatroid) -> Subspace:
    doc = _read_json(path)
    doc.setdefault("q", m.q)
    doc.setdefault("n", m.n)
    s = Subspace.from_dict(doc)
    if (s.q, s.n) != (m.q, m.n):
        raise InputError(f"subspace lives in F_{s.q}^{s.n}, the q-matroid in F_{m.q}^{m.n}")
    return s


def _load_matrix(path: str) -> Matrix:
    doc = _read_json(path)
    try:
        fdoc = doc["field"]
        q, m = json_int(fdoc["q"], "q", "matrix"), json_int(fdoc["m"], "m", "matrix")
        rows, coeffs = doc["rows"], fdoc.get("modulus")
        if coeffs is not None:
            coeffs = tuple(coeffs)  # ExtField checks each coefficient
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed matrix document {path}: {e}") from None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f"malformed matrix document {path}: 'rows' must be a list of lists")
    field = ext_field_new(q, m, coeffs)
    return Matrix(field, [[field.parse_element(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# Report fragments

def _matrix_doc(G: Matrix) -> dict:
    f = G.field
    return {
        "field": {"q": f.q, "m": f.m, "modulus": list(f.modulus)},
        "rows": [[f.format_element(x) for x in row] for row in G.rows],
    }


def _matroid_report(m: QMatroid) -> dict:
    doc = m.to_dict()
    doc["rank"] = m.rank(m.E)
    return doc


def _lattice_report(lat) -> dict:
    spaces = lat.spaces()
    index = {z: i for i, z in enumerate(spaces)}
    return {
        "q": lat.q,
        "n": lat.n,
        "count": len(lat),
        "nodes": [
            {"basis": z.coeff_rows(), "dim": z.dim, "rank": f} for z, f in lat.pairs
        ],
        "edges": sorted([index[a], index[b]] for a, b in lat.hasse_edges()),
    }


def _basis_str(rows) -> str:
    return json.dumps(rows, separators=(",", ":"))


def _matroid_text(m: QMatroid) -> str:
    doc = _matroid_report(m)
    lines = [f"q-matroid on F_{m.q}^{m.n}, rank {doc['rank']}"]
    lines.append(f"cyclic flats ({len(doc['cyclic_flats'])}):")
    for entry in doc["cyclic_flats"]:
        lines.append(
            f"  dim {len(entry['basis'])} rank {entry['rank']} basis {_basis_str(entry['basis'])}"
        )
    return "\n".join(lines)


def _lattice_text(rep: dict) -> str:
    lines = [
        f"cyclic flats of a q-matroid on F_{rep['q']}^{rep['n']}: "
        f"{rep['count']} nodes, {len(rep['edges'])} edges"
    ]
    for i, node in enumerate(rep["nodes"]):
        lines.append(
            f"  {i}: dim {node['dim']} rank {node['rank']} basis {_basis_str(node['basis'])}"
        )
    for a, b in rep["edges"]:
        lines.append(f"  {a} -> {b}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Verb handlers: each returns (report, text, exit code).

def _cmd_verify_axioms(args):
    doc = _read_json(args.doc)
    if "builtin" in doc:
        doc = _matroid_from_doc(doc).to_dict()
    q, n, kind, pairs = parse_document(doc)
    if kind == "cyclic_flats":
        verdict = check_cyclic_flat_axioms(q, n, pairs)
    else:
        verdict = check_rank_axioms(q, n, dict(pairs))
    report = {"ok": verdict.ok, "failures": verdict.failures}
    if verdict.ok:
        text = "all axioms hold"
    else:
        text = "\n".join(f"{f['axiom']} violated at {json.dumps(f['witness'], sort_keys=True)}"
                         for f in verdict.failures)
    return report, text, 0 if verdict.ok else 1


def _vamos_scan_lattice(m: QMatroid):
    if m.to_dict() != vamos_qmatroid(m.q).to_dict():
        raise InputError("--budget vamos only applies to the builtin vamos input")
    pairs = vamos_cyclic_flats_scan(m.q, progress=True)
    return QMatroid.from_cyclic_flats(m.q, m.n, pairs, validate=False)


def _cmd_cyclic_flats(args):
    m = _load_matroid(args.doc)
    scanned = args.budget == "vamos"
    if scanned:
        m = _vamos_scan_lattice(m)
    report = _lattice_report(m.cyclic_flats())
    report["scanned"] = scanned
    return report, _lattice_text(report), 0


def _cmd_rank(args):
    m = _load_matroid(args.doc)
    s = _load_subspace(args.space, m)
    r = m.rank(s)
    return {"rank": r, "space": s.to_dict()}, f"rank {r}", 0


def _cmd_free_product(args):
    m = free_product(_load_matroid(args.doc), _load_matroid(args.doc2))
    return _matroid_report(m), _matroid_text(m), 0


def _cmd_direct_sum(args):
    m = direct_sum(_load_matroid(args.doc), _load_matroid(args.doc2))
    return _matroid_report(m), _matroid_text(m), 0


def _cmd_dual(args):
    m = _load_matroid(args.doc).dual()
    return _matroid_report(m), _matroid_text(m), 0


def _cmd_restrict(args):
    m = _load_matroid(args.doc)
    out = m.restriction(_load_subspace(args.space, m))
    return _matroid_report(out), _matroid_text(out), 0


def _cmd_contract(args):
    m = _load_matroid(args.doc)
    out = m.contraction(_load_subspace(args.space, m))
    return _matroid_report(out), _matroid_text(out), 0


def _cmd_minor(args):
    m = _load_matroid(args.doc)
    out = m.minor(_load_subspace(args.sub, m), _load_subspace(args.sup, m))
    return _matroid_report(out), _matroid_text(out), 0


def _cmd_weak_compare(args):
    verdict = weak_compare_identity(_load_matroid(args.doc), _load_matroid(args.doc2))
    report = {"relation": verdict.relation, "witnesses": verdict.witnesses}
    lines = [verdict.relation]
    for key in sorted(verdict.witnesses):
        w = verdict.witnesses[key]
        lines.append(
            f"  {key} at basis {_basis_str(w['space']['basis'])}: {w['r1']} vs {w['r2']}"
        )
    return report, "\n".join(lines), 0 if verdict else 1


def _cmd_factorize(args):
    rep = primary_factorization(_load_matroid(args.doc))
    report = rep.to_dict()
    lines = [
        f"primary flag dims {[t.dim for t in rep.flag]}, "
        f"{len(rep.factors)} factors, verified={rep.verified}"
    ]
    for kind, f in zip(rep.factor_kinds, rep.factors):
        lines.append(f"  {kind}: q-matroid on F_{f.q}^{f.n} of rank {f.rank(f.E)}")
    return report, "\n".join(lines), 0


def _cmd_irreducible(args):
    m = _load_matroid(args.doc)
    scanned = args.budget == "vamos"
    if scanned:
        m = _vamos_scan_lattice(m)
    ok, witness = irreducibility_verdict(m)
    report = {
        "irreducible": ok,
        "witness": None if witness is None else witness.to_dict(),
        "scanned": scanned,
    }
    if ok:
        text = "irreducible"
    else:
        text = f"reducible: proper free separator with basis {_basis_str(witness.coeff_rows())}"
    return report, text, 0 if ok else 1


def _cmd_from_matrix(args):
    m = qmatroid_from_matrix(_load_matrix(args.matrix))
    return _matroid_report(m), _matroid_text(m), 0


def _cmd_club_check(args):
    system = QSystem.from_matrix(_load_matrix(args.matrix))
    profile = linear_set_profile(system)
    club = profile.club_index()
    report = {"club": club, "rank": profile.rank, "profile": profile.to_dict()}
    head = f"{club}-club of rank {profile.rank}" if club else f"not a club (rank {profile.rank})"
    lines = [head]
    for entry in profile.to_dict()["points"]:
        lines.append(f"  weight {entry['weight']} at ({entry['point'][0]} : {entry['point'][1]})")
    return report, "\n".join(lines), 0 if club else 1


def _cmd_evasive_check(args):
    system = QSystem.from_matrix(_load_matrix(args.matrix))
    ok = is_evasive(system, args.k1, args.bound)
    report = {"evasive": ok, "k1": args.k1, "h": args.bound}
    return report, ("evasive" if ok else "not evasive"), 0 if ok else 1


def _cmd_search_x(args):
    G1 = _load_matrix(args.matrix)
    G2 = _load_matrix(args.matrix2)
    hits = search_x(G1, G2)
    searched = coupling_search_size(G1, G2)
    report = {
        "count": len(hits),
        "searched": searched,
        "hits": [_matrix_doc(X) for X in hits],
    }
    lines = [f"{len(hits)} coupling blocks out of {searched} candidates"]
    for doc in report["hits"]:
        lines.append("  " + json.dumps(doc["rows"], separators=(",", ":")))
    return report, "\n".join(lines), 0 if hits else 1


def _cmd_verify_free_product_rep(args):
    G = _load_matrix(args.matrix)
    ok = verify_free_product_rep(G, args.n1, args.k1)
    return {"verified": ok, "n1": args.n1, "k1": args.k1}, str(ok).lower(), 0 if ok else 1


def _cmd_enumerate(args):
    if args.n is None:
        raise InputError("enumerate needs --n")
    ms = list(enumerate_qmatroids(args.q, args.n))
    report = {
        "q": args.q,
        "n": args.n,
        "count": len(ms),
        "matroids": [m.to_dict() for m in ms],
    }
    lines = [f"{len(ms)} q-matroids on F_{args.q}^{args.n} up to isomorphism"]
    for m in ms:
        flats = m.to_dict()["cyclic_flats"]
        lines.append(f"  rank {m.rank(m.E)}, {len(flats)} cyclic flats")
    return report, "\n".join(lines), 0


_HANDLERS = {
    "verify-axioms": _cmd_verify_axioms,
    "cyclic-flats": _cmd_cyclic_flats,
    "rank": _cmd_rank,
    "free-product": _cmd_free_product,
    "direct-sum": _cmd_direct_sum,
    "dual": _cmd_dual,
    "restrict": _cmd_restrict,
    "contract": _cmd_contract,
    "minor": _cmd_minor,
    "weak-compare": _cmd_weak_compare,
    "factorize": _cmd_factorize,
    "irreducible": _cmd_irreducible,
    "from-matrix": _cmd_from_matrix,
    "club-check": _cmd_club_check,
    "evasive-check": _cmd_evasive_check,
    "search-x": _cmd_search_x,
    "verify-free-product-rep": _cmd_verify_free_product_rep,
    "enumerate": _cmd_enumerate,
}
VERBS = tuple(_HANDLERS)


@functools.cache  # building the parser costs far more than a parse
def build_parser() -> argparse.ArgumentParser:
    def option(*flags, **kw):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kw)
        return p

    # --format goes to every verb; each other option only to the verbs that read it
    fmt = option("--format", choices=("json", "text"), default="text")
    budget = option("--budget", choices=("default", "vamos"), default="default")

    parser = argparse.ArgumentParser(
        prog="qmatroids",
        description="q-matroid constructions, factorization, and representations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, *options, **positionals):
        p = sub.add_parser(name, parents=[fmt, *options])
        for arg, help_text in positionals.items():
            p.add_argument(arg, help=help_text)
        return p

    verb("verify-axioms", doc="q-matroid document")
    verb("cyclic-flats", budget, doc="q-matroid document")
    verb("rank", doc="q-matroid document", space="subspace document")
    verb("free-product", doc="left factor", doc2="right factor")
    verb("direct-sum", doc="left summand", doc2="right summand")
    verb("dual", doc="q-matroid document")
    verb("restrict", doc="q-matroid document", space="subspace document")
    verb("contract", doc="q-matroid document", space="subspace document")
    verb("minor", doc="q-matroid document", sub="lower subspace", sup="upper subspace")
    verb("weak-compare", doc="first q-matroid", doc2="second q-matroid")
    verb("factorize", doc="q-matroid document")
    verb("irreducible", budget, doc="q-matroid document")
    verb("from-matrix", matrix="matrix document")
    verb("club-check", matrix="matrix document")
    p = verb("evasive-check", matrix="matrix document")
    p.add_argument("--k1", type=int, required=True, help="distinguished block dimension")
    p.add_argument("--h", dest="bound", type=int, required=True, help="intersection bound")
    verb("search-x", matrix="left matrix document",
         matrix2="right matrix document")
    p = verb("verify-free-product-rep", matrix="matrix document")
    p.add_argument("--n1", type=int, required=True, help="ground split position")
    p.add_argument("--k1", type=int, required=True, help="left factor rank")
    p = verb("enumerate")
    p.add_argument("--q", type=int, default=2, help="base field size")
    p.add_argument("--n", type=int, default=None, help="ambient dimension")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, text, code = _HANDLERS[args.verb](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # a fault, never a false verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 4
    try:
        print(json.dumps(report, sort_keys=True, indent=2) if args.format == "json" else text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away: no report, so no verdict
        print("error: standard output closed before the report was written", file=sys.stderr)
        # the flush at exit would fail again; send what is left to nowhere
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
