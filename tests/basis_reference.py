"""The quotient-basis build as it was before the ideal saturation was one
function: the oracle that ``build_basis`` is compared against.

For each candidate N it lists every path of length <= N again, saturates
the span of the ideal over all of them with the products u*r*v that fit
under N, and accepts N once every length-N path lies in the span.  It then
builds the span of I/rad^N in a second loop of its own, and reads the
normal forms by reducing a dense unit vector per product of basis paths.
"""

from arquiver.algebra import AlgebraBasis, Path
from arquiver.errors import InadmissibleIdeal, NotFiniteDimensional
from arquiver.linalg import RowSpace


def reference_paths_up_to(quiver, max_len, path_cap=20000):
    """Lists of paths per length 0..max_len, each sorted by word."""
    by_len = [sorted(quiver.trivial_path(v) for v in quiver.vertices)]
    for _ in range(max_len):
        prev = by_len[-1]
        nxt = []
        for p in prev:
            start = p.target if p.length > 0 else p.source
            for a in quiver.by_source[start]:
                word = (a.label,) + p.arrows
                nxt.append(Path(p.length + 1, word, p.source, a.target))
        nxt.sort()
        if len(nxt) > path_cap:
            raise NotFiniteDimensional(
                f"path count {len(nxt)} exceeds cap while searching for a nilpotency bound"
            )
        by_len.append(nxt)
    return by_len


def reference_build_basis(presentation, bound=32):
    """Quotient basis of kQ/I, or NotFiniteDimensional past the bound."""
    quiver = presentation.quiver
    field = presentation.field
    relations = presentation.relations
    for r in relations:
        if any(p.length < 2 for _, p in r.terms):
            raise InadmissibleIdeal("relation component of length < 2")

    nilpotency = None
    for cand in range(1, bound + 1):
        by_len = reference_paths_up_to(quiver, cand)
        if not by_len[cand]:
            nilpotency = cand
            break
        coords = [p for level in by_len for p in level]
        coord_index = {p: i for i, p in enumerate(coords)}
        span = RowSpace(len(coords), field=field)
        for r in relations:
            slack = cand - r.max_length
            if slack < 0:
                continue
            for ulen in range(slack + 1):
                for vlen in range(slack + 1 - ulen):
                    for u in by_len[ulen]:
                        if u.source != r.target:
                            continue
                        for v in by_len[vlen]:
                            if v.target != r.source:
                                continue
                            vec = [field.zero] * len(coords)
                            for c, p in r.terms:
                                w = quiver.compose(u, quiver.compose(p, v))
                                vec[coord_index[w]] = vec[coord_index[w]] + c
                            span.add(vec)
        if all(
            span.contains(
                [field.one if q == p else field.zero for q in coords]
            )
            for p in by_len[cand]
        ):
            nilpotency = cand
            break
    if nilpotency is None:
        raise NotFiniteDimensional(
            f"no nilpotency bound <= {bound}; the quotient looks infinite-dimensional"
        )

    by_len = reference_paths_up_to(quiver, max(nilpotency - 1, 0))
    coords = [p for level in by_len for p in level]
    coord_index = {p: i for i, p in enumerate(coords)}
    low_span = RowSpace(len(coords), field=field)
    for r in relations:
        slack = nilpotency - 1 - r.min_length
        if slack < 0:
            continue
        for ulen in range(slack + 1):
            for vlen in range(slack + 1 - ulen):
                for u in by_len[ulen]:
                    if u.source != r.target:
                        continue
                    for v in by_len[vlen]:
                        if v.target != r.source:
                            continue
                        vec = [field.zero] * len(coords)
                        nonzero = False
                        for c, p in r.terms:
                            w = quiver.compose(u, quiver.compose(p, v))
                            if w.length < nilpotency:
                                vec[coord_index[w]] = vec[coord_index[w]] + c
                                nonzero = True
                        if nonzero:
                            low_span.add(vec)
    pivot_set = set(low_span.pivots)
    basis = [p for i, p in enumerate(coords) if i not in pivot_set]
    basis_pos = {p: i for i, p in enumerate(basis)}

    def normal_form(path):
        """Sparse normal form [(basis index, coeff)] of a coordinate path."""
        if path.length >= nilpotency:
            return []
        vec = [field.zero] * len(coords)
        vec[coord_index[path]] = field.one
        vec = low_span.reduce(vec)
        return [(basis_pos[coords[i]], c) for i, c in enumerate(vec) if c]

    table = []
    for p in basis:
        row = []
        for q in basis:
            if p.source != q.target:
                row.append([])
                continue
            if p.length + q.length >= nilpotency:
                row.append([])
                continue
            row.append(normal_form(quiver.compose(p, q)))
        table.append(row)

    alg = AlgebraBasis(presentation, basis, table, nilpotency, field)
    alg.check_associativity()
    return alg
