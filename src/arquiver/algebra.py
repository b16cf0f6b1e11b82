"""Bound quiver algebras A = kQ/I.

Convention used throughout: path words compose right to left, i.e. in the
written word ``a1*a2*...*ak`` the rightmost arrow is traversed first, so a
word is composable when source(a_i) = target(a_{i+1}).  A length-0 word is
a vertex idempotent e_v.

The quotient basis is computed by length-graded row reduction over the
path space.  Paths are listed one length at a time, and one saturation
(``_ideal_span``) spans the products u*r*v that fit under a length cap.  It
serves twice: to find the first N with every length-N path inside the
ideal, and then to span I/rad^N.  The non-pivot paths of that reduced span
are the basis, each its own normal form; a pivot path equals minus the
rest of its row.
"""

import re
from dataclasses import dataclass

from .errors import InadmissibleIdeal, InputSyntaxError, NotFiniteDimensional
from .linalg import QQ, PrimeField, RowSpace, canonical, residue

PATH_CAP = 20000                # most paths of one length listed in the basis build
ASSOCIATIVITY_CHECK_DIM = 40    # largest dimension whose table is checked


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


@dataclass(frozen=True, order=True)
class Path:
    """A composable word of arrows; ordering is (length, word)."""

    length: int
    arrows: tuple
    source: str
    target: str

    def __repr__(self):
        if self.length == 0:
            return f"e_{self.source}"
        return "*".join(self.arrows)

    def opposite(self):
        """The same word as a path of the opposite quiver."""
        return Path(self.length, self.arrows[::-1], self.target, self.source)


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InputSyntaxError("duplicate vertex label")
        self.arrows = {}
        for a in arrows:
            if a.label in self.arrows:
                raise InputSyntaxError(f"duplicate arrow label {a.label!r}")
            if a.source not in vset or a.target not in vset:
                raise InputSyntaxError(f"arrow {a.label!r} references an unknown vertex")
            self.arrows[a.label] = a
        self.by_source = {v: [] for v in self.vertices}
        self.by_target = {v: [] for v in self.vertices}
        for a in self.arrows.values():
            self.by_source[a.source].append(a)
            self.by_target[a.target].append(a)

    def trivial_path(self, v):
        if v not in self.by_source:
            raise InputSyntaxError(f"unknown vertex {v!r}")
        return Path(0, (), v, v)

    def path(self, labels):
        """Validate a written word (rightmost arrow first) into a Path."""
        if not labels:
            raise InputSyntaxError("empty path word needs a vertex")
        arrs = []
        for lab in labels:
            if lab not in self.arrows:
                raise InputSyntaxError(f"unknown arrow label {lab!r}")
            arrs.append(self.arrows[lab])
        for left, right in zip(arrs, arrs[1:]):
            if left.source != right.target:
                raise InputSyntaxError(
                    f"non-composable word: {left.label} after {right.label} "
                    f"({left.label} starts at {left.source}, {right.label} ends at {right.target})"
                )
        return Path(len(arrs), tuple(labels), arrs[-1].source, arrs[0].target)

    def compose(self, p, q):
        """p after q; requires source(p) = target(q)."""
        if p.length == 0:
            if p.source != q.target:
                raise InputSyntaxError("non-composable paths")
            return q
        if q.length == 0:
            if p.source != q.source:
                raise InputSyntaxError("non-composable paths")
            return p
        if p.source != q.target:
            raise InputSyntaxError("non-composable paths")
        return Path(p.length + q.length, p.arrows + q.arrows, q.source, p.target)

    def opposite(self):
        return Quiver(
            self.vertices,
            [Arrow(a.label, a.target, a.source) for a in self.arrows.values()],
        )


class Relation:
    """A k-combination of parallel path words, every word of length >= 2."""

    def __init__(self, terms):
        terms = [(c, p) for c, p in terms if c]
        if not terms:
            raise InputSyntaxError("relation has no nonzero coefficient")
        src = {p.source for _, p in terms}
        tgt = {p.target for _, p in terms}
        if len(src) != 1 or len(tgt) != 1:
            raise InputSyntaxError("relation terms do not share source and target")
        if any(p.length < 2 for _, p in terms):
            raise InputSyntaxError("relation contains a component of length < 2")
        self.terms = sorted(terms, key=lambda t: t[1])
        self.source = next(iter(src))
        self.target = next(iter(tgt))

    @property
    def min_length(self):
        return min(p.length for _, p in self.terms)

    @property
    def max_length(self):
        return max(p.length for _, p in self.terms)

    def __repr__(self):
        return " + ".join(f"{c}*{p!r}" for c, p in self.terms)


class AlgebraPresentation:
    def __init__(self, quiver, relations, field=QQ):
        self.quiver = quiver
        self.relations = list(relations)
        self.field = field


_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
_SCALAR = re.compile(r"-?\d+(/\d+)?$")


def _parse_relation_expr(expr, quiver, field, line_no):
    """Parse '±coeff*w1*w2*... ± ...' into (coeff, Path) terms."""
    expr = re.sub(r"\s*\*\s*", "*", expr)
    tokens = re.findall(r"[+-]|[^+\-\s]+", expr)
    if not tokens:
        raise InputSyntaxError("empty relation expression", line_no)
    terms = []
    sign = 1
    for tok in tokens:
        if tok in "+-":
            if tok == "-":
                sign = -sign
            continue
        factors = [f.strip() for f in tok.split("*") if f.strip()]
        if not factors:
            raise InputSyntaxError(f"empty term in relation: {expr!r}", line_no)
        coeff = field.one
        if _SCALAR.match(factors[0]):
            try:
                coeff = field.parse(factors[0])
            except ValueError as exc:
                raise InputSyntaxError(str(exc), line_no) from None
            factors = factors[1:]
        if not factors:
            raise InputSyntaxError("relation term is a bare scalar", line_no)
        for f in factors:
            if not _IDENT.match(f):
                raise InputSyntaxError(f"bad arrow label {f!r} in relation", line_no)
        try:
            path = quiver.path(factors)
        except InputSyntaxError as exc:
            raise InputSyntaxError(str(exc), line_no) from None
        if sign < 0:
            coeff = residue(-coeff, field.char)
        terms.append((coeff, path))
        sign = 1
    return terms


def parse_presentation(text):
    """Parse the algebra file format into an AlgebraPresentation.

    Lines: ``field Q`` | ``field F <p>`` | ``vertex <label>`` |
    ``arrow <label>: <src> -> <tgt>`` | ``relation <expr>`` |
    ``radical_square_zero``.  ``#`` starts a comment.
    """
    field = QQ
    field_seen = False
    vertices = []
    arrows = []
    relation_lines = []
    rad_square = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head == "field":
            if field_seen:
                raise InputSyntaxError("repeated field line", line_no)
            field_seen = True
            toks = rest.split()
            if toks == ["Q"]:
                field = QQ
            elif len(toks) == 2 and toks[0] == "F" and toks[1].isdigit():
                try:
                    field = PrimeField(int(toks[1]))
                except ValueError as exc:
                    raise InputSyntaxError(str(exc), line_no) from None
            else:
                raise InputSyntaxError(f"bad field descriptor {rest!r}", line_no)
        elif head == "vertex":
            lab = rest.strip()
            if not _IDENT.match(lab):
                raise InputSyntaxError(f"bad vertex label {lab!r}", line_no)
            vertices.append(lab)
        elif head == "arrow":
            m = re.match(r"([A-Za-z_][A-Za-z_0-9]*)\s*:\s*([A-Za-z_][A-Za-z_0-9]*)\s*->\s*([A-Za-z_][A-Za-z_0-9]*)$", rest)
            if not m:
                raise InputSyntaxError(f"bad arrow line {line!r}", line_no)
            arrows.append((m.group(1), m.group(2), m.group(3), line_no))
        elif head == "relation":
            relation_lines.append((rest, line_no))
        elif head == "radical_square_zero":
            rad_square = True
        else:
            raise InputSyntaxError(f"unknown directive {head!r}", line_no)
    try:
        quiver = Quiver(vertices, [Arrow(l, s, t) for l, s, t, _ in arrows])
    except InputSyntaxError as exc:
        raise InputSyntaxError(str(exc)) from None
    relations = []
    for expr, line_no in relation_lines:
        terms = _parse_relation_expr(expr, quiver, field, line_no)
        try:
            relations.append(Relation(terms))
        except InputSyntaxError as exc:
            raise InputSyntaxError(str(exc), line_no) from None
    if rad_square:
        for a in quiver.arrows.values():
            for b in quiver.by_source[a.target]:
                relations.append(Relation([(field.one, quiver.path([b.label, a.label]))]))
    return AlgebraPresentation(quiver, relations, field)


class AlgebraBasis:
    """Finite-dimensional quotient kQ/I with path normal forms.

    Elements are coordinate vectors (plain lists) over ``basis``, which is
    sorted by (length, word).  ``table[i][j]`` is the sparse product of
    basis paths i and j as ``[(k, coeff), ...]``.
    """

    def __init__(self, presentation, basis, table, nilpotency, field):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.field = field
        self.basis = basis
        self.index = {p: i for i, p in enumerate(basis)}
        self.table = table
        self.nilpotency = nilpotency
        self.dim = len(basis)
        self.idempotent_index = {
            p.source: i for i, p in enumerate(basis) if p.length == 0
        }
        # every arrow is a basis path: the ideal lies in the paths of length >= 2
        self._arrow_index = {p.arrows[0]: i for i, p in enumerate(basis) if p.length == 1}
        # vertex -> (paths, Ae_v), filled by modules.projective_sum
        self.projectives = {}
        self._opposite = None

    # -- element helpers ------------------------------------------------

    def zero_element(self):
        return [self.field.zero] * self.dim

    def unit(self):
        x = self.zero_element()
        for i in self.idempotent_index.values():
            x[i] = self.field.one
        return x

    def idempotent(self, v):
        x = self.zero_element()
        x[self.idempotent_index[v]] = self.field.one
        return x

    def basis_element(self, i):
        x = self.zero_element()
        x[i] = self.field.one
        return x

    def arrow_index(self, label):
        return self._arrow_index[label]

    def basis_product(self, i, terms, left):
        """b_i.x when ``left`` is true and x.b_i otherwise, for basis path i
        and the element x given by its nonzero terms ``(j, x_j)``: row i (or
        column i) of ``table`` applied to those terms."""
        out = self.zero_element()
        table = self.table
        for j, xj in terms:
            for k, c in table[i][j] if left else table[j][i]:
                out[k] = out[k] + xj * c
        return canonical(out, self.field.char)

    def element_label(self, x):
        """Readable form of a coordinate vector, for reports."""
        parts = []
        for i, c in enumerate(x):
            if not c:
                continue
            p = repr(self.basis[i])
            parts.append(p if c == self.field.one else f"{self.field.format(c)}*{p}")
        return " + ".join(parts) if parts else "0"

    # -- derived algebras ------------------------------------------------

    def opposite(self):
        """Same basis labels, reversed words, transposed multiplication."""
        if self._opposite is not None:
            return self._opposite
        op_quiver = self.quiver.opposite()
        op_basis = [p.opposite() for p in self.basis]
        n = self.dim
        op_table = [[self.table[j][i] for j in range(n)] for i in range(n)]
        op_relations = [
            Relation([(c, p.opposite()) for c, p in r.terms]) for r in self.presentation.relations
        ]
        op_pres = AlgebraPresentation(op_quiver, op_relations, self.field)
        op = AlgebraBasis(op_pres, op_basis, op_table, self.nilpotency, self.field)
        op._opposite = self
        self._opposite = op
        return op

    def check_associativity(self):
        """Exhaustive (x*y)*z = x*(y*z) over basis triples for small dims."""
        if self.dim > ASSOCIATIVITY_CHECK_DIM:
            return
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.table[i][j]
                row_j = self.table[j]
                for k in range(self.dim):
                    jk = row_j[k]
                    if not ij and not jk:
                        continue    # both sides are zero
                    diff = {}       # (x*y)*z - x*(y*z)
                    for m, c in ij:
                        for t, d in self.table[m][k]:
                            diff[t] = diff.get(t, 0) + c * d
                    for m, c in jk:
                        for t, d in self.table[i][m]:
                            diff[t] = diff.get(t, 0) - c * d
                    if any(canonical(list(diff.values()), self.field.char)):
                        raise InadmissibleIdeal(
                            f"multiplication table not associative at triple ({i},{j},{k})"
                        )


def _next_level(quiver, level):
    """The paths one arrow longer than those of ``level``, sorted by word."""
    nxt = sorted(
        Path(p.length + 1, (a.label,) + p.arrows, p.source, a.target)
        for p in level
        for a in quiver.by_source[p.target]
    )
    if len(nxt) > PATH_CAP:
        raise NotFiniteDimensional(
            f"path count {len(nxt)} exceeds cap while searching for a nilpotency bound"
        )
    return nxt


def _paths_up_to(quiver, max_len):
    """Lists of paths per length 0..max_len, each sorted by word."""
    by_len = [sorted(quiver.trivial_path(v) for v in quiver.vertices)]
    for _ in range(max_len):
        by_len.append(_next_level(quiver, by_len[-1]))
    return by_len


def _ideal_span(presentation, by_len, slack, n):
    """Span of the products u*r*v with |u| + |v| <= slack(r) over the paths
    of ``by_len`` shorter than n, terms of length >= n dropped: the paths,
    their index, and the reduced rows of the span by pivot."""
    quiver, field = presentation.quiver, presentation.field
    coords = [p for level in by_len[:n] for p in level]
    index = {p: i for i, p in enumerate(coords)}
    span = RowSpace(len(coords), field=field)
    for r in presentation.relations:
        s = slack(r)
        for ulen in range(s + 1):
            for vlen in range(s + 1 - ulen):
                for u in by_len[ulen]:
                    if u.source != r.target:
                        continue
                    for v in by_len[vlen]:
                        if v.target != r.source:
                            continue
                        vec = [field.zero] * len(coords)
                        for c, p in r.terms:
                            w = quiver.compose(u, quiver.compose(p, v))
                            if w.length < n:
                                vec[index[w]] = vec[index[w]] + c
                        span.add(canonical(vec, field.char))
    return coords, index, dict(zip(span.pivots, span.rows))


def build_basis(presentation, bound=32):
    """Quotient basis of kQ/I, or NotFiniteDimensional past the bound.

    Candidate N is accepted once every length-N path lies in the span of
    the products u*r*v that fit in length <= N; as each generator lies in I,
    that certifies rad^N <= I exactly.  The normal forms are read off the
    span of I/rad^N: the products whose shortest term is shorter than N.
    """
    quiver = presentation.quiver
    field = presentation.field
    for r in presentation.relations:
        if any(p.length < 2 for _, p in r.terms):
            raise InadmissibleIdeal("relation component of length < 2")

    by_len = _paths_up_to(quiver, 0)
    for nilpotency in range(1, bound + 1):
        by_len.append(_next_level(quiver, by_len[-1]))
        if not by_len[nilpotency]:
            break
        coords, _index, rows = _ideal_span(
            presentation, by_len, lambda r: nilpotency - r.max_length, nilpotency + 1
        )
        # the length-N paths are the last coordinates, so in reduced echelon
        # form they all lie in the span iff each of them is a pivot
        if all(i in rows for i in range(len(coords) - len(by_len[nilpotency]), len(coords))):
            break
    else:
        raise NotFiniteDimensional(
            f"no nilpotency bound <= {bound}; the quotient looks infinite-dimensional"
        )

    coords, index, rows = _ideal_span(
        presentation, by_len, lambda r: nilpotency - 1 - r.min_length, nilpotency
    )
    free = [i for i in range(len(coords)) if i not in rows]
    position = {i: k for k, i in enumerate(free)}

    def normal_form(path):
        """Sparse normal form [(basis index, coeff)] of a coordinate path."""
        i = index[path]
        if i in position:
            return [(position[i], field.one)]
        return [(position[j], residue(-c, field.char)) for j, c in enumerate(rows[i]) if c and j != i]

    basis = [coords[i] for i in free]
    table = [
        [
            normal_form(quiver.compose(p, q))
            if p.source == q.target and p.length + q.length < nilpotency
            else []
            for q in basis
        ]
        for p in basis
    ]
    alg = AlgebraBasis(presentation, basis, table, nilpotency, field)
    alg.check_associativity()
    return alg
