"""Slow reference routes, used only by the tests.

`closure_pinchpoints` is the definition of the primary flag: close the
cyclic flats, 0 and E under pairwise sums and intersections until
nothing changes, then keep the members comparable to every member.
`separator_pinchpoints` walks every free separator of the lattice
(`free_separators`, the whole-lattice stream) instead and keeps those
that equal the sum of the generators below them or the intersection of
those above.

`is_free_product_independent` is the literal membership predicate for
the free product's independent spaces, and `free_product_independents`
sweeps it over the lattice: the independents route to the free product.

`rank_by_min_formula` is the certificate rank by one sum per cyclic
flat: r(A) = min f(Z) + dim(A + Z) - dim Z.

`closure` and `cyclic_core` are the rank-oracle routes to the join and
meet of two cyclic flats: the closure of their sum, by every atom of
the ambient, and the cyclic core of their intersection, by rank-dropping
descent through hyperplanes.  `loops_by_sweep` and `coloops_by_sweep`
rank every atom and every hyperplane of the ambient.
`hasse_edges_by_triples` tests every triple of flats for a cover.
`check_cyclic_flat_axioms_by_search` is the cyclic-flat check with its
own inclusion masks and its own search for each pair's bounds.

`weak_compare_by_sweep` decides the weak order by ranking every
subspace of the lattice, with the first strict subspace in enumeration
order as each witness.  `minor_by_rank_table` builds an interval minor
as the rank table r(X) - r(sub) on every subspace of the quotient.

`search_x_by_rank_table` is the coupling search by whole rank tables:
a candidate passes when its rank on every nonzero subspace equals the
free-product target's.  `linear_set_profile_by_stream` profiles a linear
set by combining the generators afresh for every coefficient vector
(`system_image`).  `system_rank` ranks a subspace by the images of all
its vectors, not a basis, and `qmatroid_from_system` is the q-matroid of
a system by that route, a cross-check of `qmatroid_from_matrix`.
`is_evasive_by_hyperplanes` decides evasivity by one functional per
hyperplane of F_{q^m}^k, for any k.

`check_rank_axioms_by_definition` and
`check_independence_axioms_by_definition` are the pairwise axiom
checkers: every pair of subspaces for (R2) and (R3), and every pair of
independent spaces for (I3), with (I4'') tested against every maximal
independent space of every subspace.  `is_independence_violation`
confirms an independence witness from the axiom's statement alone.

`is_irreducible` is Rabin's test for a monic polynomial over GF(q), with
its helpers `poly_pow_mod`, `poly_gcd`, `poly_sub` and `poly_add`: the
reference route for the field's trial-division test, `smallest_factor`.
"""

import functools
import itertools

from qmatroids.constructions import WeakOrderVerdict, _split_context, free_product
from qmatroids.errors import BudgetError, InputError
from qmatroids.factorization import is_free_separator
from qmatroids.gf import (
    Matrix,
    _trim,
    ext_field_new,
    poly_deg,
    poly_mod,
    poly_mul,
    prime_factors,
    span_rank,
)
from qmatroids.qmatroid import (
    AxiomVerdict,
    QMatroid,
    _fail,
    _rank_table,
    rank_from_independents,
)
from qmatroids.representation import LinearSetProfile
from qmatroids.subspace import (
    MASK_AMBIENT_LIMIT,
    QuotientMap,
    Subspace,
    atom_vectors,
    atoms,
    codim1_subspaces,
    enumerate_subspaces,
    intersect_subspaces,
    lattice_size,
    orthogonal_complement,
    require_materialize_budget,
    subspaces_of,
    sum_subspaces,
    unpack_vector,
    vector_index,
)


def generators(m):
    """The distinct cyclic flats of m together with 0 and E."""
    return {z for z, _ in m.certificates()} | {Subspace.zero(m.q, m.n), Subspace.full(m.q, m.n)}


def sum_intersection_closure(m):
    """The generators closed under pairwise sums and intersections,
    sorted by dimension.  Each member is paired with every member present
    when it is taken off the work list; a closure that reaches the size of
    the whole lattice is complete."""
    current = generators(m)
    todo = list(current)
    while todo and len(current) < lattice_size(m.q, m.n):
        a = todo.pop()
        for b in list(current):
            for c in (sum_subspaces(a, b), intersect_subspaces(a, b)):
                if c not in current:
                    current.add(c)
                    todo.append(c)
    return sorted(current, key=Subspace.sort_key)


def closure_pinchpoints(m):
    """Members of the closure comparable to every member, by dimension."""
    spaces = sum_intersection_closure(m)
    return [x for x in spaces if all(x.contains(y) or y.contains(x) for y in spaces)]


def free_separators(m):
    """All free separators, streamed in dimension order (budgeted)."""
    for a in enumerate_subspaces(m.q, m.n):
        if is_free_separator(m, a):
            yield a


def separator_pinchpoints(m):
    """Free separators x with x = sum{z <= x} or x = meet{z >= x} over the
    generators, by dimension."""
    gens = generators(m)
    out = []
    for x in free_separators(m):
        below = [z for z in gens if x.contains(z)]
        above = [z for z in gens if z.contains(x)]
        if (functools.reduce(sum_subspaces, below) == x
                or functools.reduce(intersect_subspaces, above) == x):
            out.append(x)
    return out


def rank_by_min_formula(m, a):
    """r(a) of a certificate-backed m, one sum_subspaces per cyclic flat."""
    return min(f + sum_subspaces(a, z).dim - z.dim for z, f in m.certificates())


def closure(m, a):
    """The largest subspace over a of rank r(a), atom by atom."""
    ra = m.rank(a)
    c = a
    for x in atom_vectors(m.E):
        if not c.contains_vector(x) and m.rank(a.extend(x)) == ra:
            c = c.extend(x)
    return c


def cyclic_core(m, a):
    """The largest cyclic subspace of a, by rank-dropping descent."""
    while True:
        ra = m.rank(a)
        drop = None
        for b in codim1_subspaces(a):
            if m.rank(b) < ra:
                drop = b
                break
        if drop is None:
            return a
        a = drop


def loops_by_sweep(m):
    return [x for x in atoms(m.E) if m.rank(x) == 0]


def coloops_by_sweep(m):
    re = m.rank(m.E)
    return [h for h in codim1_subspaces(m.E) if m.rank(h) < re]


def hasse_edges_by_triples(lat):
    """Pairs a < b of flats with no third flat between them."""
    spaces = lat.spaces()
    edges = []
    for a in spaces:
        for b in spaces:
            if a == b or not b.contains(a):
                continue
            if any(
                c != a and c != b and b.contains(c) and c.contains(a)
                for c in spaces
            ):
                continue
            edges.append((a, b))
    return edges


def check_cyclic_flat_axioms_by_search(q: int, n: int, pairs) -> AxiomVerdict:
    """(Z0)-(Z3) with inclusion masks built here and each pair's join and
    meet searched among its common bounds."""
    pairs = sorted(((z, int(f)) for z, f in pairs), key=lambda p: p[0].sort_key())
    failures: list = []
    if not pairs:
        _fail(failures, "(Z1)", {"detail": "empty collection has no minimum"})
        return AxiomVerdict(False, failures)
    spaces = [z for z, _ in pairs]
    fval = [f for _, f in pairs]
    k = len(spaces)
    seen = set(spaces)
    if len(seen) != k:
        raise InputError("duplicate spaces in cyclic-flat collection")

    above = [0] * k  # above[i]: bitmask of j with spaces[i] <= spaces[j]
    for i in range(k):
        for j in range(k):
            if spaces[j].contains(spaces[i]):
                above[i] |= 1 << j

    allmask = (1 << k) - 1
    bottom = next((i for i in range(k) if above[i] == allmask), None)
    if bottom is None:
        _fail(failures, "(Z0)", {"detail": "no minimum element"})
    elif fval[bottom] != 0:
        _fail(
            failures,
            "(Z1)",
            {"space": spaces[bottom].to_dict(), "rank": fval[bottom]},
        )

    # (Z2)
    for i in range(k):
        for j in range(k):
            if i == j or not (above[j] >> i) & 1:
                continue
            # spaces[j] < spaces[i]
            gap_f = fval[i] - fval[j]
            gap_d = spaces[i].dim - spaces[j].dim
            if not 0 < gap_f < gap_d:
                _fail(
                    failures,
                    "(Z2)",
                    {"g": spaces[j].to_dict(), "f": spaces[i].to_dict(),
                     "rank_gap": gap_f, "dim_gap": gap_d},
                )

    # (Z0) pairwise bounds, reused for (Z3).
    def least_of(mask_of_candidates: int):
        while mask_of_candidates:
            i = (mask_of_candidates & -mask_of_candidates).bit_length() - 1
            if above[i] & mask_of_candidates == mask_of_candidates:
                return i
            mask_of_candidates &= mask_of_candidates - 1
        return None

    def greatest_of(mask_of_candidates: int):
        m = mask_of_candidates
        while m:
            i = (m & -m).bit_length() - 1
            ok = True
            mm = mask_of_candidates
            while mm:
                j = (mm & -mm).bit_length() - 1
                if not (above[j] >> i) & 1:
                    ok = False
                    break
                mm &= mm - 1
            if ok:
                return i
            m &= m - 1
        return None

    for i in range(k):
        for j in range(i + 1, k):
            ups = above[i] & above[j]
            downs = 0
            for t in range(k):
                if (above[t] >> i) & 1 and (above[t] >> j) & 1:
                    downs |= 1 << t
            vee = least_of(ups) if ups else None
            wedge = greatest_of(downs) if downs else None
            if vee is None or wedge is None:
                _fail(
                    failures,
                    "(Z0)",
                    {"a": spaces[i].to_dict(), "b": spaces[j].to_dict(),
                     "detail": "missing join" if vee is None else "missing meet"},
                )
                continue
            inter_dim = intersect_subspaces(spaces[i], spaces[j]).dim
            correction = inter_dim - spaces[wedge].dim
            if fval[i] + fval[j] < fval[vee] + fval[wedge] + correction:
                _fail(
                    failures,
                    "(Z3)",
                    {"f": spaces[i].to_dict(), "g": spaces[j].to_dict(),
                     "join": spaces[vee].to_dict(), "meet": spaces[wedge].to_dict()},
                )
    return AxiomVerdict(not failures, failures)


def is_free_product_independent(m1, m2, i):
    """The literal membership predicate for the free product's independents:
    the part of i inside the left block is independent in m1, and the
    rank m1 still has to spare covers the nullity of i's projection to
    the right block."""
    ctx = _split_context(m1, m2)
    left, right = ctx.slice(i)
    if not m1.is_independent(left):
        return False
    lack = m1.rank(m1.E) - m1.rank(left)
    return lack >= right.dim - m2.rank(right)


def free_product_independents(m1, m2):
    ctx = _split_context(m1, m2)
    return {
        i
        for i in enumerate_subspaces(m1.q, ctx.n)
        if is_free_product_independent(m1, m2, i)
    }


def weak_compare_by_sweep(m1, m2):
    """The weak-order verdict of m1 and m2 by every subspace of F_q^n."""
    witnesses: dict = {}
    for x in enumerate_subspaces(m1.q, m1.n):
        r1, r2 = m1.rank(x), m2.rank(x)
        if r1 > r2 and "r1>r2" not in witnesses:
            witnesses["r1>r2"] = {"space": x.to_dict(), "r1": r1, "r2": r2}
        elif r1 < r2 and "r1<r2" not in witnesses:
            witnesses["r1<r2"] = {"space": x.to_dict(), "r1": r1, "r2": r2}
        if len(witnesses) == 2:
            return WeakOrderVerdict("incomparable", witnesses)
    if not witnesses:
        return WeakOrderVerdict("equal", witnesses)
    if "r1>r2" in witnesses:
        return WeakOrderVerdict("M2<=M1", witnesses)
    return WeakOrderVerdict("M1<=M2", witnesses)


def minor_by_rank_table(m, sub, sup):
    """The minor on [sub, sup] as a table on the quotient coordinates."""
    qm = QuotientMap(sub, sup)
    require_materialize_budget(m.q, qm.dim)
    base = m.rank(sub)
    table = {t: m.rank(qm.preimage(t)) - base for t in enumerate_subspaces(m.q, qm.dim)}
    return QMatroid(m.q, qm.dim, table=table)


def _combine(field, cols, coeffs):
    """The system vector with the given prime-field coordinates."""
    k = len(cols[0]) if cols else 0
    acc = [field.zero] * k
    for c, col in zip(coeffs, cols):
        if c:
            acc = [field.add(a, field.smul(c, x)) for a, x in zip(acc, col)]
    return tuple(acc)


def system_image(system, coeffs):
    """The system vector with the given F_q-coordinates."""
    return _combine(system.field, system.generators, coeffs)


def system_rank(system, space):
    """Span dimension of the system vectors indexed by a whole subspace."""
    if space.q != system.q or space.n != system.n:
        raise InputError("subspace ambient does not match the system")
    vecs = (system_image(system, unpack_vector(space.q, space.n, v)) for v in space.elements())
    return span_rank(system.field, vecs)


def qmatroid_from_system(system):
    """The q-matroid of a system, one system_rank per subspace."""
    q, n = system.q, system.n
    table = {s: system_rank(system, s) for s in enumerate_subspaces(q, n)}
    return QMatroid.from_rank_table(q, n, table)


def _rank_matches(field, cols, rows, want: int, k: int) -> bool:
    """Whether the images of `rows` span dimension exactly `want`.

    Combines rows lazily and stops as soon as the answer is decided:
    a rank above `want` fails outright, and hitting `want` with the
    ambient dimension `k` cannot be undone by more rows.
    """
    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for row in rows:
        v = list(_combine(field, cols, row))
        for p, b in zip(pivots, basis):
            c = v[p]
            if c:
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        if len(basis) == want:
            return False
        inv = field.inv(v[p])
        basis.append(tuple(field.mul(inv, x) for x in v))
        pivots.append(p)
        if len(basis) == want == k:
            return True
    return len(basis) == want


def search_x_by_rank_table(G1, G2):
    """The coupling blocks X, in search_x's order, for which (G1 X; 0 G2)
    has the free product's rank on every nonzero subspace."""
    field, q = G1.field, G1.field.q
    k1, n1 = G1.nrows, G1.ncols
    k2, n2 = G2.nrows, G2.ncols
    n, k = n1 + n2, k1 + k2
    target = free_product(QMatroid.uniform(q, n1, k1), QMatroid.uniform(q, n2, k2))
    checks = [(s.coeff_rows(), target.rank(s)) for s in enumerate_subspaces(q, n) if s.dim]
    g1cols = [tuple(r[j] for r in G1.rows) + (field.zero,) * k2 for j in range(n1)]
    g2cols = [tuple(r[j] for r in G2.rows) for j in range(n2)]
    # one entry is normalized to zero when G1 has a single row
    prefix = (0,) if k1 == 1 else ()
    hits = []
    for rest in itertools.product(range(field.order), repeat=k1 * n2 - len(prefix)):
        entries = prefix + rest
        cols = g1cols + [tuple(entries[i * n2 + j] for i in range(k1)) + g2cols[j]
                         for j in range(n2)]
        if all(_rank_matches(field, cols, rows, w, k) for rows, w in checks):
            hits.append(Matrix(field, [entries[i * n2:(i + 1) * n2] for i in range(k1)]))
    return hits


def linear_set_profile_by_stream(system):
    """The linear-set profile, one image per nonzero coefficient vector."""
    field, q = system.field, system.q
    counts = {}
    for coeffs in itertools.product(range(q), repeat=system.n):
        if not any(coeffs):
            continue
        y0, y1 = system_image(system, coeffs)
        pt = (1, field.mul(field.inv(y0), y1)) if y0 else (0, 1)
        counts[pt] = counts.get(pt, 0) + 1
    points = []
    for pt in sorted(counts):
        size, w = counts[pt] + 1, 0
        while size % q == 0:
            size //= q
            w += 1
        points.append((pt, w))
    return LinearSetProfile(field=field, rank=system.n, points=tuple(points))


def is_evasive_by_hyperplanes(system, k1: int, h: int) -> bool:
    """Evasivity by every normalized functional u of F_{q^m}^k whose
    hyperplane ker u does not contain F_{q^m}^{k1} + 0: the hyperplane
    meets the system in F_q-dimension n minus the rank of u's
    coordinates on the generators."""
    field, k, n = system.field, system.k, system.n
    base = ext_field_new(field.q, 1)
    for pos in range(k):
        for tail in itertools.product(range(field.order), repeat=k - pos - 1):
            u = (field.zero,) * pos + (field.one,) + tail
            if not any(u[:k1]):
                continue  # this hyperplane contains the distinguished block
            rows = []
            for g in system.generators:
                val = field.zero
                for ui, gi in zip(u, g):
                    val = field.add(val, field.mul(ui, gi))
                rows.append(field.coeffs(val))
            if n - span_rank(base, rows) > h:
                return False
    return True


def check_rank_axioms_by_definition(q: int, n: int, table) -> AxiomVerdict:
    """Independent oracle for (R2) and (R3) on a table that meets (R1):
    every unordered pair is tested through element masks, and every
    violated pair is listed."""
    if q**n > MASK_AMBIENT_LIMIT:
        raise BudgetError(f"the pairwise rank check needs element masks of at most {MASK_AMBIENT_LIMIT} vectors")
    table = _rank_table(q, n, table)
    failures: list = []
    items = [(s, r, s.element_mask()) for s, r in table.items()]
    rank_by_mask = {mask: r for _, r, mask in items}
    rank_by_pmask = {
        orthogonal_complement(s).element_mask(): r for s, r, _ in items
    }
    pmask = {mask: orthogonal_complement(s).element_mask() for s, _, mask in items}
    for i in range(len(items)):
        si, ri, mi = items[i]
        pi = pmask[mi]
        for j in range(i + 1, len(items)):
            sj, rj, mj = items[j]
            inter = mi & mj
            if inter == mi:
                if ri > rj:
                    _fail(failures, "(R2)", {"sub": si.to_dict(), "sup": sj.to_dict()})
                continue
            if inter == mj:
                if rj > ri:
                    _fail(failures, "(R2)", {"sub": sj.to_dict(), "sup": si.to_dict()})
                continue
            r_sum = rank_by_pmask[pi & pmask[mj]]
            if ri + rj < r_sum + rank_by_mask[inter]:
                _fail(failures, "(R3)", {"a": si.to_dict(), "b": sj.to_dict()})
    return AxiomVerdict(not failures, failures)


def check_independence_axioms_by_definition(q: int, n: int, indep) -> AxiomVerdict:
    """(I1) nonempty at zero, (I2) closed downward, (I3) augmentation,
    (I4'') the max-extension axiom, quantified exactly as stated: for
    every A, every I maximal in A, every atom x, some J maximal in A+x
    satisfies J <= I+x.
    """
    require_materialize_budget(q, n)
    iset = set(indep)
    for s in iset:
        if (s.q, s.n) != (q, n):
            raise InputError("independent space in the wrong ambient")
    failures: list = []
    zero = Subspace.zero(q, n)
    full = Subspace.full(q, n)

    if zero not in iset:
        _fail(failures, "(I1)", {"space": zero.to_dict()})
        return AxiomVerdict(False, failures)

    for s in iset:
        for b in codim1_subspaces(s):
            if b not in iset:
                _fail(failures, "(I2)", {"member": s.to_dict(), "missing": b.to_dict()})
                return AxiomVerdict(False, failures)

    atom_list = list(atom_vectors(full))
    atom_pos = {v: i for i, v in enumerate(atom_list)}

    # (I3) via extension masks over vector indices.
    mask = {s: s.element_mask() for s in iset}
    ext = {}
    for s in iset:
        bits = 0
        for v in atom_list:
            if not s.contains_vector(v) and s.extend(v) in iset:
                bits |= 1 << vector_index(q, n, v)
        ext[s] = bits
    by_dim: dict[int, list[Subspace]] = {}
    for s in iset:
        by_dim.setdefault(s.dim, []).append(s)
    dims = sorted(by_dim)
    for d1 in dims:
        for d2 in dims:
            if d1 >= d2:
                continue
            for i_small in by_dim[d1]:
                e = ext[i_small]
                for j_big in by_dim[d2]:
                    if not (e & mask[j_big]):
                        _fail(
                            failures,
                            "(I3)",
                            {"i": i_small.to_dict(), "j": j_big.to_dict()},
                        )
                        return AxiomVerdict(False, failures)

    # (I4''): mmax(S) = top dimension of a member inside S, by dynamic
    # programming over hyperplanes (no axiom assumed).  up[S] marks the
    # atoms whose addition raises mmax; the axiom reduces to the mask
    # inclusion up[A] <= up[I] for each I maximal in A.
    mmax = rank_from_independents(q, n, iset)
    all_subs = list(mmax)
    up = {}
    smask = {s: s.element_mask() for s in all_subs}
    for s in all_subs:
        bits = 0
        base = mmax[s]
        for i, v in enumerate(atom_list):
            if not s.contains_vector(v) and mmax[s.extend(v)] > base:
                bits |= 1 << i
        up[s] = bits
    for a in all_subs:
        target = mmax[a]
        need = up[a]
        ma = smask[a]
        for i_max in by_dim.get(target, ()):
            if mask[i_max] & ma != mask[i_max]:
                continue
            bad = need & ~up[i_max]
            if bad:
                x = atom_list[(bad & -bad).bit_length() - 1]
                _fail(
                    failures,
                    "(I4'')",
                    {
                        "a": a.to_dict(),
                        "i": i_max.to_dict(),
                        "x": Subspace(q, n, [x]).to_dict(),
                    },
                )
                return AxiomVerdict(False, failures)
    return AxiomVerdict(True, failures)


def is_independence_violation(indep, failure) -> bool:
    """Whether the witness of a failed independence check violates the
    axiom it names, in a family of subspaces."""
    iset = set(indep)
    w = {k: Subspace.from_dict(v) for k, v in failure["witness"].items()}
    axiom = failure["axiom"]
    if axiom == "(I1)":
        return w["space"].dim == 0 and w["space"] not in iset
    if axiom == "(I2)":
        s, b = w["member"], w["missing"]
        return s in iset and b not in iset and s.contains(b) and b.dim == s.dim - 1
    if axiom == "(I3)":
        i, j = w["i"], w["j"]
        return i in iset and j in iset and i.dim < j.dim and not any(
            sum_subspaces(i, x) in iset for x in subspaces_of(j, [1]) if not i.contains(x))

    def top(space):
        inside = [t for t in iset if space.contains(t)]
        d = max(t.dim for t in inside)
        return [t for t in inside if t.dim == d]

    a, i, x = w["a"], w["i"], w["x"]
    ix = sum_subspaces(i, x)
    return axiom == "(I4'')" and x.dim == 1 and i in top(a) and not any(
        ix.contains(j) for j in top(sum_subspaces(a, x)))


def poly_add(a, b, q):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _trim([(x + y) % q for x, y in zip(a, b)])


def poly_sub(a, b, q):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _trim([(x - y) % q for x, y in zip(a, b)])


def poly_gcd(a, b, q):
    while b:
        a, b = b, poly_mod(a, b, q)
    if a:
        inv = pow(a[-1], q - 2, q)
        a = _trim([(c * inv) % q for c in a])
    return a


def poly_pow_mod(a, e, mod, q):
    result = (1,)
    a = poly_mod(a, mod, q)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, a, q), mod, q)
        a = poly_mod(poly_mul(a, a, q), mod, q)
        e >>= 1
    return result


def is_irreducible(modulus, q):
    """Rabin's test for a monic polynomial over GF(q)."""
    f = _trim(modulus)
    m = poly_deg(f)
    if m < 1 or f[-1] != 1:
        return False
    x = (0, 1)
    if poly_pow_mod(x, q**m, f, q) != poly_mod(x, f, q):
        return False
    for p in prime_factors(m):
        h = poly_sub(poly_pow_mod(x, q ** (m // p), f, q), x, q)
        h = poly_mod(h, f, q)
        if poly_deg(poly_gcd(h, f, q)) != 0:
            return False
    return True
