"""Modules over a bound quiver algebra, as quiver representations.

A left module assigns to each vertex a vector space and to each arrow
alpha: v -> w a matrix of shape (dim_w x dim_v); a path acts rightmost
arrow first, matching the algebra's composition convention.

The Auslander-Reiten translate is computed literally as DTr: take a
minimal projective presentation P1 -> P0 -> M, apply Hom(-, A) to land in
projectives over the opposite algebra, and dualize the cokernel back.

Operations visit only the blocks where a module is nonzero: a vertex block
of a map, or an arrow or relation block, with no entries is fixed by its
shape, and ``Matrix.zeros`` hands it out as one shared empty matrix.  Every
check with content still runs.
"""

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (
    DimensionError,
    InternalError,
    NonLocalEndRing,
    NonSplitEndomorphismRing,
    PreconditionError,
)
from .linalg import Matrix, RowSpace, _free_columns, kernel_basis, rank, residue
from .structure import (
    StructureAlgebra,
    is_hereditary as structure_is_hereditary,
    matrix_min_poly,
    rational_roots,
)


class Module:
    """A representation: per-vertex dimensions plus per-arrow matrices.  A
    module is not changed after it is built, so its ``action_rows`` are kept."""

    def __init__(self, alg, dims, mats, check=True):
        self.alg = alg
        self.field = alg.field
        self.dims = {v: dims.get(v, 0) for v in alg.quiver.vertices}
        self.mats = {}
        for a in alg.quiver.arrows.values():
            m = mats.get(a.label)
            if m is None:
                m = Matrix.zeros(self.dims[a.target], self.dims[a.source], self.field)
            self.mats[a.label] = m
        self.total_dim = sum(self.dims.values())
        self.dim_vector = tuple(self.dims[v] for v in alg.quiver.vertices)
        if check:
            self._validate()

    def _validate(self):
        for a in self.alg.quiver.arrows.values():
            m = self.mats[a.label]
            if (m.nrows, m.ncols) != (self.dims[a.target], self.dims[a.source]):
                raise DimensionError(
                    f"matrix for arrow {a.label} has shape {m.nrows}x{m.ncols}, "
                    f"expected {self.dims[a.target]}x{self.dims[a.source]}"
                )
        for rel in self.alg.presentation.relations:
            if not self.dims[rel.source] or not self.dims[rel.target]:
                continue
            acc = Matrix.zeros(self.dims[rel.target], self.dims[rel.source], self.field)
            for c, p in rel.terms:
                acc = acc + self.path_action(p).scale(c)
            if not acc.is_zero():
                raise PreconditionError(f"relation {rel!r} does not vanish on the module")

    def is_zero(self):
        return self.total_dim == 0

    def path_action(self, path):
        """Matrix of a path word: product of arrow matrices, written order."""
        if path.length == 0:
            return Matrix.identity(self.dims[path.source], self.field)
        m = self.mats[path.arrows[0]]
        for lab in path.arrows[1:]:
            m = m * self.mats[lab]
        return m

    @cached_property
    def action_rows(self):
        """The rows whose common kernel is {a : a.M = 0}: one per vertex pair
        (w, u) and matrix entry, over the paths w -> u of the algebra's basis."""
        alg, zero = self.alg, self.field.zero
        rows = []
        for w in alg.quiver.vertices:
            if self.dims[w] == 0:
                continue
            for u, ks in _projective_piece(alg, w)[0].items():
                if self.dims[u] == 0:
                    continue
                acts = {k: self.path_action(alg.basis[k]) for k in ks}
                for i in range(self.dims[u]):
                    for j in range(self.dims[w]):
                        row = [zero] * alg.dim
                        for k in ks:
                            row[k] = acts[k].data[i][j]
                        if any(row):
                            rows.append(row)
        return rows

    def __repr__(self):
        dv = ",".join(f"{v}:{d}" for v, d in self.dims.items() if d)
        return f"Module({dv or '0'})"


class ModuleMap:
    """An intertwiner: per-vertex matrices commuting with the arrow action."""

    def __init__(self, src, tgt, mats, check=True):
        self.src = src
        self.tgt = tgt
        self.field = src.field
        self.mats = {}
        for v in src.alg.quiver.vertices:
            m = mats.get(v)
            if m is None:
                m = Matrix.zeros(tgt.dims[v], src.dims[v], src.field)
            self.mats[v] = m
        if check:
            self._validate()

    def _validate(self):
        for v in self.src.alg.quiver.vertices:
            m = self.mats[v]
            if (m.nrows, m.ncols) != (self.tgt.dims[v], self.src.dims[v]):
                raise DimensionError(f"map block at vertex {v} has a wrong shape")
        for a in self.src.alg.quiver.arrows.values():
            if not self.tgt.dims[a.target] or not self.src.dims[a.source]:
                continue
            lhs = self.mats[a.target] * self.src.mats[a.label]
            rhs = self.tgt.mats[a.label] * self.mats[a.source]
            if lhs != rhs:
                raise DimensionError(f"map does not intertwine arrow {a.label}")

    @classmethod
    def identity(cls, m):
        return cls(m, m, {v: Matrix.identity(m.dims[v], m.field) for v in m.dims}, check=False)

    @classmethod
    def zero(cls, src, tgt):
        return cls(src, tgt, {}, check=False)

    def compose(self, other):
        """self after other."""
        if other.tgt is not self.src and other.tgt.dims != self.src.dims:
            raise DimensionError("composition endpoints do not match")
        mats = {v: m * other.mats[v] for v, m in _nonempty(self.mats) if other.src.dims[v]}
        return ModuleMap(other.src, self.tgt, mats, check=False)

    def add(self, other):
        mats = {v: m + other.mats[v] for v, m in _nonempty(self.mats)}
        return ModuleMap(self.src, self.tgt, mats, check=False)

    def scale(self, c):
        mats = {v: m.scale(c) for v, m in _nonempty(self.mats)}
        return ModuleMap(self.src, self.tgt, mats, check=False)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())

    def is_invertible(self):
        for v in self.mats:
            m = self.mats[v]
            if m.nrows != m.ncols or rank(m) != m.nrows:
                return False
        return True

    def total_rank(self):
        return sum(rank(m) for _v, m in _nonempty(self.mats))

    def vectorize(self):
        out = []
        for v in self.src.alg.quiver.vertices:
            for row in self.mats[v].data:
                out.extend(row)
        return out

    def __repr__(self):
        return f"ModuleMap({self.src!r} -> {self.tgt!r})"


def _nonempty(mats):
    """The (key, matrix) pairs of ``mats`` whose matrix has entries."""
    return ((k, m) for k, m in mats.items() if m.nrows and m.ncols)


# -- constructors ---------------------------------------------------------


def zero_module(alg):
    return Module(alg, {}, {}, check=False)


def simple_module(alg, v):
    return Module(alg, {v: 1}, {}, check=True)


def _projective_piece(alg, v):
    """(paths, Ae_v), built and relation-checked once per algebra.

    paths[w] lists the algebra basis indices of the paths v -> w, which
    index the basis of (Ae_v)_w, for each w with such a path.  Ae_v is only
    read: ``projective_sum`` copies its blocks.
    """
    piece = alg.projectives.get(v)
    if piece is None:
        paths = {}
        for k, p in enumerate(alg.basis):
            if p.source == v:
                paths.setdefault(p.target, []).append(k)
        mats = {}
        for a in alg.quiver.arrows.values():
            src_ks, tgt_ks = paths.get(a.source), paths.get(a.target)
            if not src_ks or not tgt_ks:
                continue
            m = Matrix.zeros(len(tgt_ks), len(src_ks), alg.field)
            tgt_pos = {k: i for i, k in enumerate(tgt_ks)}
            products = alg.table[alg.arrow_index(a.label)]
            for col, k in enumerate(src_ks):
                for kk, c in products[k]:
                    m.data[tgt_pos[kk]][col] = c
            mats[a.label] = m
        # raises unless the relations vanish on Ae_v
        module = Module(alg, {w: len(ks) for w, ks in paths.items()}, mats, check=True)
        piece = alg.projectives[v] = (paths, module)
    return piece


def projective_sum(alg, verts):
    """Direct sum of projectives Ae_v; returns (Module, layout).

    layout[s][w] = (offset, [algebra basis indices of paths verts[s] -> w])
    giving the coordinate block of summand s inside M_w, for each w where
    the summand is nonzero; the path list is the algebra's own, shared by
    every call, and only read.  The module is the ``direct_sum`` of the
    checked Ae_v of ``_projective_piece``.
    """
    pieces = [_projective_piece(alg, v) for v in verts]
    offsets = dict.fromkeys(alg.quiver.vertices, 0)
    layout = []
    for paths, _mod in pieces:
        entry = {}
        for w, ks in paths.items():
            entry[w] = (offsets[w], ks)
            offsets[w] += len(ks)
        layout.append(entry)
    return (direct_sum([mod for _paths, mod in pieces]) if pieces else zero_module(alg)), layout


def _kept_projective_sum(alg, verts):
    """``projective_sum(alg, verts)`` built once per algebra and vertex list
    and kept, for the presentations: every caller shares the module and its
    layout, so they are only read."""
    key = tuple(verts)
    kept = alg.projective_sums.get(key)
    if kept is None:
        kept = alg.projective_sums[key] = projective_sum(alg, verts)
    return kept


def projective_module(alg, v):
    return projective_sum(alg, [v])[0]


def dual_module(m):
    """Standard duality D: left modules over A <-> left modules over A^op."""
    op = m.alg.opposite()
    mats = {}
    for a in op.quiver.arrows.values():
        # arrow a: v -> w in op corresponds to a: w -> v in the original
        if m.dims[a.source] and m.dims[a.target]:
            mats[a.label] = m.mats[a.label].transpose()
    return Module(op, dict(m.dims), mats, check=True)


def injective_module(alg, v):
    """I_v = D of the right projective e_v A (a projective over A^op)."""
    return dual_module(projective_module(alg.opposite(), v))


def canonical_modules(alg):
    """Per-vertex triples (P_v, I_v, S_v) in vertex order."""
    return {
        v: (projective_module(alg, v), injective_module(alg, v), simple_module(alg, v))
        for v in alg.quiver.vertices
    }


def direct_sum(mods):
    """The direct sum of ``mods``, their blocks in list order."""
    if not mods:
        raise PreconditionError("direct sum of an empty list")
    alg = mods[0].alg
    dims = dict.fromkeys(alg.quiver.vertices, 0)
    offsets = []
    for m in mods:
        offsets.append(dict(dims))
        for v, d in m.dims.items():
            dims[v] += d
    mats = {}
    for a in alg.quiver.arrows.values():
        if not dims[a.target] or not dims[a.source]:
            continue
        big = Matrix.zeros(dims[a.target], dims[a.source], alg.field)
        for m, off in zip(mods, offsets):
            block = m.mats[a.label]
            j = off[a.source]
            for i, row in enumerate(block.data, off[a.target]):
                big.data[i][j : j + block.ncols] = row
        mats[a.label] = big
    return Module(alg, dims, mats, check=False)


# -- sub and quotient structure -------------------------------------------


def submodule_from_columns(m, columns):
    """Submodule spanned by given column vectors per vertex.

    columns[v] is a list of vectors in M_v whose span is arrow-invariant.
    Returns (N, inclusion).  N_v has the RREF rows of the span as basis, so
    the coordinates of a vector in the span are its entries at the pivots.
    """
    alg = m.alg
    field = m.field
    spaces = {v: RowSpace(m.dims[v], columns.get(v, []), field=field) for v in alg.quiver.vertices}
    dims = {v: spaces[v].dim for v in alg.quiver.vertices}
    incl = {
        v: Matrix.adopt(
            m.dims[v], dims[v], [[r[i] for r in spaces[v].rows] for i in range(m.dims[v])], field
        )
        for v in alg.quiver.vertices
        if dims[v]
    }
    mats = {}
    for a in alg.quiver.arrows.values():
        src, tgt = a.source, a.target
        # an image in a zero M_tgt lies in N_tgt; every other image is checked
        if not dims[src] or not m.dims[tgt]:
            continue
        block = Matrix.zeros(dims[tgt], dims[src], field)
        for j, row in enumerate(spaces[src].rows):
            img = m.mats[a.label].apply(row)
            if any(spaces[tgt].reduce(img)):
                raise PreconditionError("column span is not arrow-invariant")
            for i, p in enumerate(spaces[tgt].pivots):
                block.data[i][j] = img[p]
        mats[a.label] = block
    sub = Module(alg, dims, mats, check=False)
    return sub, ModuleMap(sub, m, incl, check=False)


def kernel_submodule(f):
    cols = {v: kernel_basis(f.mats[v]) for v in f.src.alg.quiver.vertices}
    return submodule_from_columns(f.src, cols)


def cokernel_module(f):
    """Cokernel of a map; returns (C, projection, section matrices at the
    vertices where M is nonzero).

    C_v = M_v / im f_v, and the section picks the unit-vector coset
    representatives at ``RowSpace.complement``.  The projection sends e_j
    to ``RowSpace.project(e_j)``, read off the RREF rows of the image: e_p
    maps to -row_p at the complement for the pivot p of row_p, and the
    representative e_i to its class.  The arrow a of C is proj.M_a.sect,
    and since the section is a 0/1 selection, that is the columns of
    proj.M_a at the representatives.
    """
    m = f.tgt
    field = m.field
    proj = {}
    sect = {}
    reps = {}
    for v in m.alg.quiver.vertices:
        if not m.dims[v]:
            continue
        image = RowSpace(m.dims[v], zip(*f.mats[v].data), field=field)
        rep = image.complement()
        pm = Matrix.zeros(len(rep), m.dims[v], field)
        for r_i, i in enumerate(rep):
            pm.data[r_i][i] = field.one
        for row, p in zip(image.rows, image.pivots):
            for r_i, i in enumerate(rep):
                pm.data[r_i][p] = residue(-row[i], field.char)
        sm = Matrix.zeros(m.dims[v], len(rep), field)
        for j, i in enumerate(rep):
            sm.data[i][j] = field.one
        proj[v], sect[v], reps[v] = pm, sm, rep
    dims = {v: pm.nrows for v, pm in proj.items()}
    mats = {}
    for a in m.alg.quiver.arrows.values():
        if dims.get(a.target) and dims.get(a.source):
            rep = reps[a.source]
            rows = (proj[a.target] * m.mats[a.label]).data
            mats[a.label] = Matrix.adopt(len(rows), len(rep), [[row[i] for i in rep] for row in rows], field)
    q = Module(m.alg, dims, mats, check=False)
    return q, ModuleMap(m, q, proj, check=False), sect


def radical_subspaces(m):
    """Per-vertex RowSpace of rad M = (arrow ideal) . M."""
    return {
        v: RowSpace(
            m.dims[v],
            [col for a in m.alg.quiver.by_target[v] for col in zip(*m.mats[a.label].data)],
            field=m.field,
        )
        for v in m.alg.quiver.vertices
    }


def radical_submodule(m):
    return submodule_from_columns(m, {v: s.rows for v, s in radical_subspaces(m).items()})


# -- hom spaces ------------------------------------------------------------


def hom_basis(x, y):
    """Basis of Hom(X, Y): solutions of the intertwining equations."""
    alg = x.alg
    field = x.field
    char = field.char
    verts = alg.quiver.vertices
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += y.dims[v] * x.dims[v]
    rows = []
    for a in alg.quiver.arrows.values():
        v, w = a.source, a.target
        xa = x.mats[a.label]
        ya = y.mats[a.label]
        for i in range(y.dims[w]):
            for j in range(x.dims[v]):
                row = [field.zero] * total
                # (f_w . X_a)[i][j] = sum_k f_w[i][k] X_a[k][j], into zero cells
                for k in range(x.dims[w]):
                    if xa.data[k][j]:
                        row[offsets[w] + i * x.dims[w] + k] = xa.data[k][j]
                # minus (Y_a . f_v)[i][j] = sum_l Y_a[i][l] f_v[l][j]; only a
                # loop (v = w) meets a cell written above
                for l in range(y.dims[v]):
                    if ya.data[i][l]:
                        c = offsets[v] + l * x.dims[v] + j
                        row[c] = (row[c] - ya.data[i][l]) % char if char else row[c] - ya.data[i][l]
                if any(row):
                    rows.append(row)
    mat = Matrix.adopt(len(rows), total, rows, field) if rows else Matrix.zeros(0, total, field)
    return [_unflatten(x, y, vec) for vec in kernel_basis(mat)]


def _unflatten(x, y, flat):
    """The map X -> Y whose ``vectorize`` is ``flat``."""
    mats = {}
    off = 0
    for v in x.alg.quiver.vertices:
        nrows, ncols = y.dims[v], x.dims[v]
        if not nrows or not ncols:
            continue
        mats[v] = Matrix.adopt(
            nrows, ncols, [flat[off + i * ncols : off + (i + 1) * ncols] for i in range(nrows)], x.field
        )
        off += nrows * ncols
    return ModuleMap(x, y, mats, check=False)


class HomSpace:
    """Hom(X, Y) with a fixed basis and exact coordinate lookup.

    Coordinates live on the free columns of the kernel basis.  A map is
    flattened vertex by vertex, row by row (``vectorize``), and the basis
    is the kernel basis of the intertwining equations on those entries:
    basis map j is 1 at the j-th free column and 0 at every other free
    column.  So the coordinates of a map are its entries at the free
    columns, and ``coords`` checks membership by testing that the map
    minus the combination they give is zero.
    """

    def __init__(self, x, y):
        self.x = x
        self.y = y
        self.basis = hom_basis(x, y)
        self.dim = len(self.basis)
        flat = [b.vectorize() for b in self.basis]
        self._free = _free_columns(flat)
        # each basis vector as its nonzero columns and the values there
        self._vecs = [([i for i, a in enumerate(vec) if a], [a for a in vec if a]) for vec in flat]

    def _accumulate(self, acc, c):
        """acc + sum c_j basis_j on flat vectors, in place; over F_p the
        c_j may be any ints."""
        char = self.x.field.char
        for cj, (cols, vals) in zip(c, self._vecs):
            if cj:
                for i, a in zip(cols, vals):
                    acc[i] = acc[i] + cj * a
                if char:
                    for i in cols:
                        acc[i] %= char
        return acc

    def coords(self, f):
        flat = f.vectorize()
        c = [flat[i] for i in self._free]
        if any(self._accumulate(flat, [-cj for cj in c])):
            raise PreconditionError("map outside the hom space")
        return c

    def from_coords(self, c):
        x, y = self.x, self.y
        size = sum(y.dims[v] * x.dims[v] for v in x.alg.quiver.vertices)
        return _unflatten(x, y, self._accumulate([x.field.zero] * size, c))


def _eigenvalues(f, verts):
    """(eigenvalues, rootless) of the endomorphism f on the vertices verts.

    The eigenvalues are the roots in the ground field of the minimal
    polynomials of f's blocks, in the order ``rational_roots`` gives for the
    minimal polynomial of f: zero first, then ascending, which over F_p is
    the order of the residues 0..p-1.  ``rootless`` says whether some
    factor has no root in the field.
    """
    roots, rootless = set(), False
    for v in verts:
        found, residual = rational_roots(matrix_min_poly(f.mats[v]), f.field)
        roots.update(lam for lam, _mult in found)
        rootless = rootless or residual > 0
    return sorted(roots, key=lambda lam: (lam != 0, lam)), rootless


def _combination(basis, coeffs):
    out = ModuleMap.zero(basis[0].src, basis[0].tgt)
    for b, c in zip(basis, coeffs):
        if c:
            out = out.add(b.scale(c))
    return out


def end_radical_coords(m, basis):
    """Coordinates (in the given End basis) of rad End(M) when End(M) is
    local with End/rad = k, and None otherwise.

    In such a ring every b is lambda(b) + (nilpotent), so rad is the kernel
    of b -> lambda(b), read on the vertex where M is smallest but nonzero.
    The candidate N is certified when M > N.M > N.N.M > ... reaches 0: then
    N is nilpotent of codimension 1 without 1, so the non-units form N.
    Were End(M) local with End/rad = k, Nakayama would make each step
    shrink, so a step that does not shrink refutes it.
    """
    if len(basis) == 1:
        return []       # End(M) = k, a field
    sizes = {v: d for v, d in m.dims.items() if d}
    v = min(sizes, key=sizes.get)
    lams = []
    for b in basis:
        eig, rootless = _eigenvalues(b, [v])
        if len(eig) != 1 or rootless:
            return None
        lams.append(eig[0])
    field = m.field
    rad = kernel_basis(Matrix(1, len(basis), [lams], field))
    rad_maps = [_combination(basis, r) for r in rad]
    spaces = {w: Matrix.identity(d, field).data for w, d in sizes.items()}
    size = m.total_dim
    while size:
        spaces = {
            w: RowSpace(d, [n.mats[w].apply(x) for n in rad_maps for x in spaces[w]], field=field).rows
            for w, d in sizes.items()
        }
        shrunk = sum(len(vecs) for vecs in spaces.values())
        if shrunk >= size:
            return None
        size = shrunk
    return rad


# -- isomorphism and decomposition -----------------------------------------


def find_isomorphism(x, y):
    """An explicit isomorphism X -> Y, or None.

    Returns the first invertible basis map of Hom(X, Y).  Complete when
    End(X) is local (every indecomposable): then Hom(Y, X).f = End(X) for an
    isomorphism f, and a basis of a local ring holds a unit.
    """
    if x is y:
        return ModuleMap.identity(x)
    if x.dim_vector != y.dim_vector:
        return None
    if x.total_dim == 0:
        return ModuleMap.zero(x, y)
    for f in hom_basis(x, y):
        if f.is_invertible():
            return f
    return None


def is_isomorphic(x, y):
    """Exact isomorphism test.

    ``find_isomorphism`` certifies an isomorphism outright, and its failure
    refutes one when End(X) is local; otherwise X and Y are isomorphic iff
    ``decompose`` gives them as many groups and each group of X matches, by
    ``find_isomorphism``, one of Y with equal multiplicity.
    """
    if x.dim_vector != y.dim_vector:
        return False
    if find_isomorphism(x, y) is not None:
        return True
    if end_radical_coords(x, hom_basis(x, x)) is not None:
        return False
    gx, gy = decompose(x), decompose(y)
    return len(gx) == len(gy) and all(
        any(k == j and find_isomorphism(piece, other) is not None for other, j in gy)
        for piece, k in gx
    )


def _block_powers(phi):
    """phi_v^(dim M_v) at each vertex v of the endomorphism phi of M.  The
    kernels of the powers of phi_v grow, and their images shrink, only up
    to k = dim M_v, so these blocks have the kernel and image of phi^n for
    every n >= dim M, and phi is nilpotent iff they are all zero."""
    return {v: b.power(b.nrows) for v, b in phi.mats.items()}


def _fitting_split(m, phi, end_dim):
    """The pieces of M = ker phi^n (+) im phi^n, n = dim M (Fitting's lemma),
    each decomposed further, with inclusions into M; end_dim = dim End(M).

    The kernel and image are read off ``_block_powers``, which span the
    same subspaces as phi^n, so the RREF bases of the pieces are the same.
    A piece that does not split keeps the inclusion ``submodule_from_columns``
    gives it.  End(K) (+) End(I) embeds in End(M) for M = K (+) I, so dim
    End(K) is at most end_dim - 1 and dim End(I) at most end_dim - dim End(K).
    """
    power = _block_powers(phi)
    kernel = {v: kernel_basis(b) for v, b in power.items()}
    image = {v: b.transpose().data for v, b in power.items()}
    if not any(kernel.values()) or all(b.is_zero() for b in power.values()):
        raise InternalError("Fitting summands do not split the module")
    out = []
    bound = end_dim - 1
    for cols in (kernel, image):
        sub, inc = submodule_from_columns(m, cols)
        basis = _end_basis(sub, bound)
        out.extend(
            (piece, inc if piece is sub else inc.compose(j)) for piece, j in _split_by_basis(sub, basis)
        )
        bound = end_dim - len(basis)
    return out


def _end_basis(m, bound):
    """A basis of End(M) for a nonzero M with dim End(M) <= bound.  At bound
    1, End(M) = k is spanned by the identity and is not solved."""
    return [ModuleMap.identity(m)] if bound == 1 else hom_basis(m, m)


def _split_by_basis(m, basis):
    """Indecomposable pieces of M with inclusions, from a basis of End(M).

    1. A basis map b with two eigenvalues, or one and a rootless factor,
       splits M by Fitting with phi = b - lambda, lambda its first eigenvalue.
    2. Otherwise M is indecomposable when ``end_radical_coords`` certifies
       End(M) local.
    3. Otherwise, with n_i = b_i - lambda(b_i) over the b_i with an
       eigenvalue, the first n_i.n_j that is not nilpotent splits M.  If
       every b_i has one, End/rad holds a matrix block M_a(k), a >= 2, whose
       trace form is nondegenerate, so such a pair exists.
    4. Otherwise some basis map has no eigenvalue in the field and no map
       tried splits M; over Q no method is complete here (Ronyai 1990).

    A basis of one map spans End(M) = k, and M is indecomposable.
    """
    one = ModuleMap.identity(m)
    if len(basis) == 1:
        return [(m, one)]
    verts = [v for v, d in m.dims.items() if d]
    nilpotent = []
    for b in basis:
        eig, rootless = _eigenvalues(b, verts)
        if eig:
            shifted = b.add(one.scale(-eig[0]))
            if len(eig) > 1 or rootless:
                return _fitting_split(m, shifted, len(basis))
            nilpotent.append(shifted)
    if end_radical_coords(m, basis) is not None:
        return [(m, one)]
    for ni in nilpotent:
        for nj in nilpotent:
            phi = ni.compose(nj)
            if not all(b.is_zero() for b in _block_powers(phi).values()):
                return _fitting_split(m, phi, len(basis))
    raise NonSplitEndomorphismRing(
        "a basis endomorphism has no eigenvalue in the ground field, "
        "and none splits the module"
    )


def decompose_with_inclusions(m):
    """Indecomposable pieces with explicit inclusions into m.

    Fitting splits by endomorphisms of the End(M) basis, in every
    characteristic; see ``_split_by_basis``.  Raises
    NonSplitEndomorphismRing when a basis map has no eigenvalue in the
    ground field and none splits M.
    """
    if m.total_dim == 0:
        return []
    return _split_by_basis(m, hom_basis(m, m))


def decompose(m):
    """Direct-sum decomposition [(indecomposable, multiplicity), ...]."""
    grouped = []
    for piece, _ in decompose_with_inclusions(m):
        for entry in grouped:
            if find_isomorphism(entry[0], piece) is not None:
                entry[1] += 1
                break
        else:
            grouped.append([piece, 1])
    return [(p, k) for p, k in grouped]


# -- projective covers, translates, ext ------------------------------------


def top_lifts(m):
    """Per-vertex lift vectors of a basis of top M = M/rad M."""
    zero, one = m.field.zero, m.field.one
    return {
        v: [[one if j == i else zero for j in range(rad.n)] for i in rad.complement()]
        for v, rad in radical_subspaces(m).items()
    }


def _generator_maps(p, layout, y, image_sets):
    """Maps from the projective sum P, with the ``layout`` of
    ``projective_sum``, to Y: one for each list ``images`` in
    ``image_sets``, sending the generator of summand s to images[s].

    Hom(Ae_v, Y) = Y_v (Auslander-Reiten-Smalo, ch. II), so the map sends
    the basis path q of summand s to q . images[s].  Each path action is
    computed once per call, and zero images are skipped.
    """
    alg = p.alg
    actions = {}
    maps = []
    for images in image_sets:
        mats = {w: Matrix.zeros(y.dims[w], p.dims[w], y.field) for w in alg.quiver.vertices}
        for entry, image in zip(layout, images):
            if not any(image):
                continue
            for w, (off, ks) in entry.items():
                if not y.dims[w]:
                    continue
                for j, k in enumerate(ks):
                    if k not in actions:
                        actions[k] = y.path_action(alg.basis[k])
                    for i, c in enumerate(actions[k].apply(image)):
                        mats[w].data[i][off + j] = c
        maps.append(ModuleMap(p, y, mats, check=False))
    return maps


def projective_cover(m):
    """(P, epi, summand vertex list, layout) with kernel inside rad P; the
    cover of the zero module is 0.  P and its layout are the sum kept for
    that vertex list (``_kept_projective_sum``), shared by every cover and
    only read."""
    lifts = top_lifts(m)
    vertices = m.alg.quiver.vertices
    verts = [v for v in vertices for _u in lifts[v]]
    cover, layout = _kept_projective_sum(m.alg, verts)
    [epi] = _generator_maps(cover, layout, m, [[u for v in vertices for u in lifts[v]]])
    if epi.total_rank() != m.total_dim:
        raise PreconditionError("projective cover map is not surjective")
    return cover, epi, verts, layout


@dataclass
class MinPresentation:
    p1: Module
    p0: Module
    f: ModuleMap          # p1 -> p0
    epi: ModuleMap        # p0 -> m
    verts1: list
    verts0: list
    layout1: list
    layout0: list
    kernel: Module
    kernel_incl: ModuleMap


def min_presentation(m):
    """Minimal projective presentation P1 -> P0 -> M -> 0.  P0 and P1 are
    the projective covers' kept sums, shared with other presentations and
    only read."""
    p0, epi, verts0, layout0 = projective_cover(m)
    ker, kappa = kernel_submodule(epi)
    p1, epi_k, verts1, layout1 = projective_cover(ker)
    f = kappa.compose(epi_k)
    return MinPresentation(p1, p0, f, epi, verts1, verts0, layout1, layout0, ker, kappa)


def transpose_module(pres):
    """Tr M = coker(Hom(f, A): Hom(P0, A) -> Hom(P1, A)), a module over A^op,
    read off the minimal presentation ``pres`` of M.

    Hom(Ae_v, A) = e_v A is the projective of A^op at v, and Hom(f, A) sends
    the generator of the i-th summand of P0 to the entries, at the paths
    v0_i -> v1_j of A, of f's column at the generator of each summand j of
    P1.  Those are the op paths v1_j -> v0_i, with the same basis indices in
    the same order.  The generator e_v of Ae_v is the first coordinate at v,
    as the shortest path v -> v, since basis indices ascend by length.
    The two sums over A^op are the kept ones (``_kept_projective_sum``).
    """
    columns = [
        (v, [row[entry[v][0]] for row in pres.f.mats[v].data])
        for v, entry in zip(pres.verts1, pres.layout1)
    ]
    images = []
    for entry in pres.layout0:
        image = []
        for v, column in columns:
            off, ks = entry.get(v, (0, ()))
            image.extend(column[off : off + len(ks)])
        images.append(image)
    op = pres.p0.alg.opposite()
    p0_op, layout0_op = _kept_projective_sum(op, pres.verts0)
    p1_op, _layout1_op = _kept_projective_sum(op, pres.verts1)
    [fstar] = _generator_maps(p0_op, layout0_op, p1_op, [images])
    coker, _proj, _sect = cokernel_module(fstar)
    return coker


def translate(m, direction="forward"):
    """AR translate: DTr (forward) or TrD (backward); zero on (in)jectives."""
    if direction == "forward":
        return dual_module(transpose_module(min_presentation(m)))
    if direction == "backward":
        return transpose_module(min_presentation(dual_module(m)))
    raise PreconditionError(f"unknown direction {direction!r}")


def _ext1(pres, y):
    """(Hom(K, Y), R) for the syzygy K of ``pres``: Ext^1(M, Y) = Hom(K, Y)/R.

    R, a RowSpace of Hom(K, Y) coordinates, holds the restrictions g.kappa of
    the maps g: P0 -> Y, spanned by the g that send one generator to a unit
    vector and the others to zero.
    """
    hom_k = HomSpace(pres.kernel, y)
    image = RowSpace(hom_k.dim, field=y.field)
    if hom_k.dim:
        zero, one = y.field.zero, y.field.one
        units = []
        for s, v in enumerate(pres.verts0):
            for i in range(y.dims[v]):
                images = [[zero] * y.dims[u] for u in pres.verts0]
                images[s][i] = one
                units.append(images)
        for g in _generator_maps(pres.p0, pres.layout0, y, units):
            image.add(hom_k.coords(g.compose(pres.kernel_incl)))
    return hom_k, image


def ext1_dim(x, y):
    """dim Ext^1(X, Y) = dim Hom(Omega X, Y) - dim of the restrictions of
    the maps P0 -> Y, read off 0 -> Omega X -> P0 -> X -> 0 with P0 the
    projective cover of X; right for every projective dimension of X."""
    hom_k, image = _ext1(min_presentation(x), y)
    return hom_k.dim - image.dim


# -- annihilators and friends ----------------------------------------------


def _action_rows(mods):
    """The kept ``action_rows`` of ``mods`` stacked, whose kernel is {a : a.M = 0
    for every M in ``mods``}; ``rank`` and ``kernel_basis`` reduce a copy."""
    rows = [row for m in mods for row in m.action_rows]
    return Matrix.adopt(len(rows), mods[0].alg.dim, rows, mods[0].field)


def annihilator(mods):
    """Basis of the two-sided ideal ann = {a : a.M = 0 for all M}."""
    if not mods:
        raise PreconditionError("annihilator of an empty list")
    alg = mods[0].alg
    field = alg.field
    gens = kernel_basis(_action_rows(mods))
    # two-sidedness check: the kernel must be closed under both actions of
    # the generators of A, the vertices and the arrows (basis paths of
    # length at most 1), so under every product of them; a zero product
    # lies in every span, so only the nonzero ones are tested
    span = RowSpace(alg.dim, gens, field=field)
    generators = [i for i, p in enumerate(alg.basis) if p.length <= 1]
    for g in gens:
        terms = [(j, c) for j, c in enumerate(g) if c]
        for i in generators:
            for prod in (alg.basis_product(i, terms, True), alg.basis_product(i, terms, False)):
                if any(prod) and not span.contains(prod):
                    raise PreconditionError("annihilator failed the two-sided ideal check")
    return gens


def is_sincere(mods):
    """Whether every vertex of the algebra is in the support of some module."""
    if not mods:
        raise PreconditionError("empty module list")
    return all(any(m.dims[v] for m in mods) for v in mods[0].alg.quiver.vertices)


def sincere_faithful(mods):
    """(sincere, faithful) for the family of modules.

    Faithful means ann = 0, that is, the action rows have full column rank;
    no annihilator is built.
    """
    sincere = is_sincere(mods)
    return sincere, rank(_action_rows(mods)) == mods[0].alg.dim


def pdim_le_1(m):
    """True iff the syzygy Omega of M is projective, that is, iff its
    projective cover P1 in the minimal presentation has dim Omega."""
    pres = min_presentation(m)
    return pres.p1.total_dim == pres.kernel.total_dim


@dataclass
class EndAnalysis:
    algebra: StructureAlgebra
    radical_maps: list
    is_local: bool
    is_hereditary: bool
    dim: int = dc_field(init=False)

    def __post_init__(self):
        self.dim = self.algebra.dim


def end_algebra_analysis(m):
    """End(M) as a structure algebra with radical and shape flags."""
    hs = HomSpace(m, m)
    basis = hs.basis
    d = len(basis)
    table = [[hs.coords(basis[i].compose(basis[j])) for j in range(d)] for i in range(d)]
    unit = hs.coords(ModuleMap.identity(m))
    s = StructureAlgebra(table, unit, m.field)
    rad = s.radical()
    rad_maps = [hs.from_coords(r) for r in rad]
    is_local = d - len(rad) == 1
    hereditary = structure_is_hereditary(s)
    return EndAnalysis(s, rad_maps, is_local, hereditary)


# -- almost split sequences -------------------------------------------------


@dataclass
class AlmostSplitSequence:
    tau: Module
    middle: Module
    left: ModuleMap       # tau -> middle
    right: ModuleMap      # middle -> m


def almost_split_sequence(m):
    """The sequence 0 -> tau M -> E -> M -> 0 for indecomposable non-projective M.

    The class spans the socle of Ext^1(M, tau M) under rad End(tau M)
    acting by composition: such an h is no split mono, so it factors
    through the left map and kills the class, and the socle is simple
    (Auslander-Reiten-Smalo V.2).  When Ext^1 is a line it is its own
    socle and End(tau M) is not built.  The representative is realized as
    a pushout.
    """
    if m.total_dim == 0:
        raise PreconditionError("almost split sequence of the zero module")
    if end_radical_coords(m, hom_basis(m, m)) is None:
        raise NonLocalEndRing("module is not certified indecomposable")
    pres = min_presentation(m)
    if not pres.verts1:
        raise PreconditionError("projective modules start no almost split sequence")
    tau = dual_module(transpose_module(pres))
    ker, kappa = pres.kernel, pres.kernel_incl
    hom_k, image = _ext1(pres, tau)
    ext_dim = hom_k.dim - image.dim
    if ext_dim < 1:
        raise PreconditionError("Ext^1(M, tau M) vanished; presentation not minimal?")
    quot_coords = image.complement()

    # rad End(tau M) kills exactly the socle; on a line it acts as zero
    action = []
    if ext_dim > 1:
        end_tau = HomSpace(tau, tau)
        tau_rad = end_radical_coords(tau, end_tau.basis)
        if tau_rad is None:
            raise InternalError("End(tau M) is not local although End(M) is")
        for rc in tau_rad:
            h = end_tau.from_coords(rc)
            cols = [image.project(hom_k.coords(h.compose(hom_k.basis[i]))) for i in quot_coords]
            action.extend(list(row) for row in zip(*cols))
    socle = kernel_basis(Matrix(len(action), ext_dim, action, m.field))
    if len(socle) != 1:
        raise NonLocalEndRing(
            f"socle of Ext^1(M, tau M) has dimension {len(socle)}, expected 1"
        )
    xi = socle[0]
    full = [m.field.zero] * hom_k.dim
    for c, i in zip(xi, quot_coords):
        full[i] = c
    g = hom_k.from_coords(full)

    # pushout of 0 -> K -> P0 -> M -> 0 along g: K -> tau
    total = direct_sum([tau, pres.p0])
    h_mats = {}
    for v in m.alg.quiver.vertices:
        if not ker.dims[v]:
            continue
        rows = g.mats[v].scale(-1).data + kappa.mats[v].data
        h_mats[v] = Matrix(tau.dims[v] + pres.p0.dims[v], ker.dims[v], rows, m.field)
    h = ModuleMap(ker, total, h_mats, check=False)
    middle, proj, sect = cokernel_module(h)
    # left map: the tau columns of the projection; right map: induced by
    # epi on the P0 rows of the section
    left_mats = {}
    right_mats = {}
    for v in m.alg.quiver.vertices:
        if not middle.dims[v]:
            continue
        t = tau.dims[v]
        if t:
            left_mats[v] = Matrix.adopt(middle.dims[v], t, [row[:t] for row in proj.mats[v].data], m.field)
        if m.dims[v]:
            p0_rows = Matrix.adopt(pres.p0.dims[v], middle.dims[v], sect[v].data[t:], m.field)
            right_mats[v] = pres.epi.mats[v] * p0_rows
    left = ModuleMap(tau, middle, left_mats, check=False)
    right = ModuleMap(middle, m, right_mats, check=False)
    if middle.total_dim != tau.total_dim + m.total_dim:
        raise PreconditionError("middle term has a wrong dimension")
    if not right.compose(left).is_zero():
        raise PreconditionError("almost split candidate is not a complex")
    if left.total_rank() != tau.total_dim or right.total_rank() != m.total_dim:
        raise PreconditionError("almost split candidate is not exact")
    return AlmostSplitSequence(tau, middle, left, right)
