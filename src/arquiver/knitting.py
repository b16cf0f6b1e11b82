"""Auslander-Reiten quivers by knitting, and radical-filtration queries.

Knitting is closure-based: seed with the indecomposable projectives and
injectives, then repeatedly compute the almost split sequence ending at
each known non-projective vertex (decomposing the actual middle term) and
the radical of each projective, identifying new modules up to isomorphism.
This stays correct on periodic components where directed dimension-vector
knitting would fail.
"""

from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .errors import InputSyntaxError, LimitExceeded, PreconditionError
from .graph import components
from .linalg import Matrix, RowSpace
from .modules import (
    HomSpace,
    almost_split_sequence,
    canonical_modules,
    decompose_with_inclusions,
    end_radical_coords,
    find_isomorphism,
    radical_submodule,
    translate,
)

DEFAULT_MAX_VERTICES = 256
DEFAULT_MAX_DIM = 32


@dataclass
class ARVertex:
    name: str
    module: object = None
    is_projective: bool = False
    is_injective: bool = False
    dim_vector: tuple = None
    boundary: bool = False


@dataclass
class MeshRecord:
    tau: str
    middle: list            # [(vertex name, multiplicity)]


class ARQuiver:
    """Translation quiver of indecomposables (or a combinatorial window)."""

    def __init__(self, alg=None):
        self.alg = alg
        self.complete = False
        self.vertices = {}
        self.arrows = {}
        self.tau = {}
        self.meshes = {}
        self.arrow_maps = {}
        self._hom_spaces = {}
        self._mesh_order = None
        self._hom_dims = {}
        self._rad1 = {}
        self._rad_powers = None

    # -- structure access --------------------------------------------------

    @property
    def abstract(self):
        """Whether the quiver is combinatorial, with no module data."""
        return self.alg is None

    def names(self):
        return list(self.vertices)

    def module_of(self, name):
        v = self.vertices.get(name)
        if v is None:
            raise PreconditionError(f"unknown vertex {name!r}")
        if v.module is None:
            raise PreconditionError(f"vertex {name!r} carries no module data")
        return v.module

    @property
    def tau_inv(self):
        return {w: x for x, w in self.tau.items()}

    def tau_status(self, name):
        """('value', target) | ('zero', None) | ('unknown', None)."""
        if name in self.tau:
            return "value", self.tau[name]
        v = self.vertices[name]
        if v.is_projective:
            return "zero", None
        return "unknown", None

    def tau_inv_status(self, name):
        inv = self.tau_inv
        if name in inv:
            return "value", inv[name]
        v = self.vertices[name]
        if v.is_injective:
            return "zero", None
        return "unknown", None

    def require_modules(self, what):
        if self.abstract:
            raise PreconditionError(
                f"{what} needs module data; this translation quiver is combinatorial"
            )

    def require_complete(self, what):
        self.require_modules(what)
        if not self.complete:
            raise PreconditionError(
                f"{what} needs a fully knitted quiver; this one is partial"
            )

    def mult(self, src, tgt):
        return self.arrows.get((src, tgt), 0)

    def tau_orbits(self):
        """Orbits of the partial translation, each sorted by discovery."""
        return components(self.names(), self.tau.items())

    def combinatorial_data(self):
        """Canonical tuple for round-trip comparison."""
        verts = tuple(
            (n, v.is_projective, v.is_injective, v.boundary)
            for n, v in sorted(self.vertices.items())
        )
        arrows = tuple(sorted((s, t, m) for (s, t), m in self.arrows.items()))
        tau = tuple(sorted(self.tau.items()))
        return verts, arrows, tau

    # -- hom caching ---------------------------------------------------------

    def hom_space(self, xname, yname):
        self.require_modules("Hom computation")
        key = (xname, yname)
        if key not in self._hom_spaces:
            self._hom_spaces[key] = HomSpace(self.module_of(xname), self.module_of(yname))
        return self._hom_spaces[key]

    def _order_and_predecessors(self):
        """(order, into): ``into[y]`` lists (z, mult(Z -> Y)) over the arrows
        into Y, and ``order`` runs every arrow and every tau edge tau Y -> Y
        forward, or is None when those edges form a cycle."""
        if self._mesh_order is None:
            into = {y: [] for y in self.vertices}
            for (z, y), m in self.arrows.items():
                into[y].append((z, m))
            graph = {y: [z for z, _m in into[y]] for y in into}
            for y, ty in self.tau.items():
                graph[y].append(ty)
            try:
                order = list(TopologicalSorter(graph).static_order())
            except CycleError:
                order = None
            self._mesh_order = (order, into)
        return self._mesh_order

    def hom_dims(self, x):
        """Dict y -> dim Hom(X, Y) read off the meshes, or None.

        Preconditions: the quiver is complete, with module data, and its
        arrows together with the tau edges tau Y -> Y form an acyclic graph,
        as for a representation-directed algebra.  Otherwise the answer is
        None, and ``hom_space`` has to do the linear algebra (the rad^2 = 0
        cycles, whose components are tau-periodic).  With h = dim Hom(X, -),
        taken in an order along those edges,

            h(Y) = sum over arrows Z -> Y of mult(Z -> Y) h(Z) - h(tau Y) + [Y = X],

        with no tau term for Y projective.  Hom(X, -) is left exact on the
        almost split sequence ending at Y (on rad Y -> Y for Y projective),
        and the image of its last map is rad(X, Y), which is all of
        Hom(X, Y) for Y != X and has codimension 1 in End(X), because the
        knit certifies End/rad = k at every vertex.  See Ringel, Tame
        algebras and integral quadratic forms, LNM 1099, 2.4.
        """
        if not self.complete:
            return None
        if x not in self._hom_dims:
            order, into = self._order_and_predecessors()
            if order is None:
                return None
            h = {}
            for y in order:
                d = sum(m * h[z] for z, m in into[y]) + (y == x)
                h[y] = d - h[self.tau[y]] if y in self.tau else d
            self._hom_dims[x] = h
        return self._hom_dims[x]

    def hom_dim(self, x, y):
        """dim Hom(X, Y): from the meshes where ``hom_dims`` applies, else
        from ``hom_space``."""
        dims = self.hom_dims(x)
        return dims[y] if dims is not None else self.hom_space(x, y).dim

    def harada_sai_bound(self):
        b = max((v.module.total_dim for v in self.vertices.values() if v.module), default=1)
        return 2**b - 1

    # -- radical filtration ---------------------------------------------------

    def rad(self, x, y):
        """RowSpace of rad(X, Y) in Hom(X, Y) coordinates, filled one pair at
        a time.

        rad(X, X) is rad End(X); between distinct vertices every map is radical.
        """
        self.require_complete("the radical filtration")
        key = (x, y)
        if key not in self._rad1:
            field = self.alg.field
            if x == y:
                end = self.hom_space(x, x)
                rad = end_radical_coords(self.module_of(x), end.basis)
                space = RowSpace(end.dim, rad, field=field)
            else:
                d = self.hom_dim(x, y)
                space = RowSpace(d, Matrix.identity(d, field).data, field=field)
            self._rad1[key] = space
        return self._rad1[key]

    def rad1(self):
        """Dict (x, y) -> RowSpace of rad(X, Y) coordinates over all pairs,
        the first level of the radical filtration."""
        return {(x, y): self.rad(x, y) for x in self.names() for y in self.names()}

    def rad_powers(self):
        """List of dicts (x, y) -> RowSpace of rad^n coordinates, n >= 1.

        The filtration of a representation-finite spectroid reaches zero;
        the list stops at the last nonzero level.
        """
        self.require_complete("the radical filtration")
        if self._rad_powers is not None:
            return self._rad_powers
        names = self.names()
        level1 = self.rad1()
        powers = [level1]
        bound = self.harada_sai_bound()
        while True:
            prev = powers[-1]
            if all(s.dim == 0 for s in prev.values()):
                powers.pop()
                break
            if len(powers) > bound:
                raise PreconditionError(
                    "radical filtration did not vanish within the Harada-Sai bound; "
                    "quiver is incomplete or the algebra is not representation-finite"
                )
            powers.append(self.compose_levels(prev, level1, names))
        self._rad_powers = powers
        return powers

    def compose_levels(self, left, right, names):
        """Dict (x, y) -> RowSpace spanned by left[(z, y)] . right[(x, z)],
        over x, y and z in ``names``.

        ``left`` and ``right`` map vertex pairs to RowSpaces of Hom-space
        coordinates, as ``rad1`` does.
        """
        out = {}
        for x in names:
            for y in names:
                space = RowSpace(self.hom_space(x, y).dim, field=self.alg.field)
                for z in names:
                    for c in self.products(x, z, y, left[(z, y)].rows, right[(x, z)].rows):
                        space.add(c)
                out[(x, y)] = space
        return out

    def products(self, x, z, y, left, right):
        """Hom(X, Y) coordinates of g.f, for g over the rows ``left`` of
        Hom(Z, Y) coordinates and f over the rows ``right`` of Hom(X, Z)
        coordinates."""
        if not left or not right:
            return
        hs_zy = self.hom_space(z, y)
        hs_xz = self.hom_space(x, z)
        hs_xy = self.hom_space(x, y)
        rmaps = [hs_xz.from_coords(row) for row in right]
        for row in left:
            lmap = hs_zy.from_coords(row)
            for rmap in rmaps:
                yield hs_xy.coords(lmap.compose(rmap))

    def find_vertex(self, module):
        """(name, iso) for the first vertex whose module is isomorphic to
        ``module``, with iso an isomorphism from the vertex module onto
        ``module``; (None, None) when there is none.

        One ``find_isomorphism`` per vertex of equal dimension vector.  Its
        search is complete here: every vertex module is indecomposable,
        so its endomorphism ring is local.
        """
        dv = module.dim_vector
        for n, v in self.vertices.items():
            if v.dim_vector == dv:
                iso = find_isomorphism(v.module, module)
                if iso is not None:
                    return n, iso
        return None, None

    def locate(self, module):
        """Vertex name of an identical module object, if registered."""
        for n, v in self.vertices.items():
            if v.module is module:
                return n
        return None


@dataclass
class DepthResult:
    depth: object           # int or float('inf')
    zero_map: bool


def rad_power_depth(f, arq):
    """Largest n with f in rad^n(X, Y); infinity (flagged) for f = 0."""
    arq.require_complete("map depth")
    x = arq.locate(f.src)
    y = arq.locate(f.tgt)
    if x is None or y is None:
        raise PreconditionError("map endpoints are not vertex modules of the quiver")
    if f.is_zero():
        return DepthResult(float("inf"), True)
    hs = arq.hom_space(x, y)
    coords = hs.coords(f)
    depth = 0
    for level, spaces in enumerate(arq.rad_powers(), start=1):
        if spaces[(x, y)].contains(coords):
            depth = level
        else:
            break
    return DepthResult(depth, False)


def nonzero_path_exists(arq, x, y, via=None):
    """Whether a nonzero composite of radical maps runs from x to y, through
    ``via`` as a strictly interior vertex when it is given.

    Without ``via`` that is rad(X, Y) != 0.  Through M it is
    rad(M, Y).rad(X, M) != 0: chains of radical maps X -> M span rad(X, M),
    chains M -> Y lie in rad(M, Y), and composition is bilinear.  So the
    answer is exact, with no bound on the length of a chain.
    """
    arq.require_complete("nonzero path search")
    for name in (x, y) if via is None else (x, y, via):
        if name not in arq.vertices:
            raise PreconditionError(f"unknown vertex {name!r}")
    if via is None:
        return arq.rad(x, y).dim > 0
    return any(
        any(c) for c in arq.products(x, via, y, arq.rad(via, y).rows, arq.rad(x, via).rows)
    )


@dataclass
class PathClassification:
    sectional: bool
    presectional: object    # bool, or None when module data is absent


def path_classify(path, arq):
    """Sectional / presectional classification of a vertex path."""
    if len(path) < 2:
        raise PreconditionError("a path needs at least one arrow")
    for s, t in zip(path, path[1:]):
        if (s, t) not in arq.arrows:
            raise PreconditionError(f"no arrow {s} -> {t} in the quiver")
    sectional = True
    presectional = True
    undecided = False
    for i in range(1, len(path) - 1):
        status, tnext = arq.tau_status(path[i + 1])
        if status == "unknown":
            undecided = True
            continue
        if status == "zero":
            continue
        # an irreducible map tau X_{i+1} (+) X_{i-1} -> X_i must exist
        if tnext == path[i - 1]:
            sectional = False
            if arq.mult(path[i - 1], path[i]) < 2:
                presectional = False
        elif arq.mult(tnext, path[i]) < 1 or arq.mult(path[i - 1], path[i]) < 1:
            presectional = False
    if undecided:
        presectional = None
    return PathClassification(sectional, presectional)


# -- knitting ---------------------------------------------------------------


def vertex_namer(alg):
    """The knit's names for vertex modules other than P_v and I_v, as a
    function of the module: ``S_v`` for the simple at v, else ``M{dv}#k``,
    the k-th module of dimension vector dv that this namer names."""
    counts = {}

    def name_of(module):
        if module.total_dim == 1:
            return "S_" + next(v for v in alg.quiver.vertices if module.dims[v])
        dv = ",".join(str(d) for d in module.dim_vector)
        counts[dv] = counts.get(dv, 0) + 1
        return f"M{{{dv}}}#{counts[dv]}"

    return name_of


def knit(alg, max_vertices=DEFAULT_MAX_VERTICES, max_dim=DEFAULT_MAX_DIM):
    """Construct the AR quiver of a representation-finite algebra."""
    arq = ARQuiver(alg)
    cans = canonical_modules(alg)
    name_of = vertex_namer(alg)
    pending = deque()
    largest = 0

    def register(module, canonical=None, is_proj=False, is_inj=False):
        """Name of ``module``, registered as a new vertex within the limits;
        ``canonical`` names P_v or I_v."""
        nonlocal largest
        if module.total_dim > max_dim:
            stop = f"module of total dimension {module.total_dim} exceeds --max-dim {max_dim}"
        elif len(arq.vertices) >= max_vertices:
            stop = f"vertex count exceeds --max-vertices {max_vertices}"
        else:
            stop = None
        if stop:
            raise LimitExceeded(
                f"{stop} ({len(arq.vertices)} vertices registered, {len(pending)} modules "
                f"queued, largest dimension {largest})",
                partial=arq,
            )
        name = canonical if canonical and module.total_dim > 1 else name_of(module)
        arq.vertices[name] = ARVertex(name, module, is_proj, is_inj, module.dim_vector)
        largest = max(largest, module.total_dim)
        pending.append(name)
        return name

    def get_or_add(module):
        """(name, iso): the vertex of ``module``, registered under a new name
        if it has none, and an isomorphism from the vertex module onto
        ``module``, or None for a module registered here, which is its own
        vertex module."""
        if module.total_dim == 0:
            raise PreconditionError("attempted to register the zero module")
        name, iso = arq.find_vertex(module)
        if name is not None:
            return name, iso
        return register(module), None

    # P_v and I_v come first, so a later module that matches no vertex is
    # neither projective nor injective.  They need no vertex search: the
    # P_v are pairwise non-isomorphic, and so are the I_v, so an I_v is
    # either isomorphic to a P_w, and flags its vertex, or new.
    matched = set()
    for v in alg.quiver.vertices:
        p = cans[v][0]
        hits = {
            w
            for w, (_p, i, _s) in cans.items()
            if p.dim_vector == i.dim_vector and find_isomorphism(p, i) is not None
        }
        matched |= hits
        register(p, f"P_{v}", True, bool(hits))
    for v in alg.quiver.vertices:
        if v not in matched:
            register(cans[v][1], f"I_{v}", False, True)

    def record_pieces(tgt, whole, fmap):
        """Record an irreducible map into ``tgt`` from each indecomposable
        summand of ``whole``, read off ``fmap``: whole -> tgt's module on the
        summand's vertex module; returns the source names in summand order.
        No map is composed with an identity: a ``whole`` that does not split
        is its own summand, and a summand registered here its own vertex
        module."""
        sources = []
        for piece, pinc in decompose_with_inclusions(whole):
            src, iso = get_or_add(piece)
            f = fmap if piece is whole else fmap.compose(pinc)
            key = (src, tgt)
            arq.arrows[key] = arq.arrows.get(key, 0) + 1
            arq.arrow_maps.setdefault(key, []).append(f if iso is None else f.compose(iso))
            sources.append(src)
        return sources

    # Each translate is looked up once.  tau tau^-1 M = M and the vertices
    # are pairwise non-isomorphic, so a vertex V found as tau^-1 M has
    # tau V = M, and a vertex T = tau X has tau^-1 T = X: the search on
    # DTr V, or on TrD T, would return that name.
    tau_of = {}             # V -> M, for V found as tau^-1 M
    tau_inv_found = set()   # every T = tau X found so far
    while pending:
        name = pending.popleft()
        vert = arq.vertices[name]
        module = vert.module
        if vert.is_projective:
            radp, incl = radical_submodule(module)
            if radp.total_dim:
                record_pieces(name, radp, incl)
        else:
            seq = almost_split_sequence(module)
            tau_name = tau_of.get(name) or get_or_add(seq.tau)[0]
            arq.tau[name] = tau_name
            tau_inv_found.add(tau_name)
            middle_counts = {}
            for src in record_pieces(name, seq.middle, seq.right):
                middle_counts[src] = middle_counts.get(src, 0) + 1
            arq.meshes[name] = MeshRecord(tau_name, sorted(middle_counts.items()))
        if not vert.is_injective and name not in tau_inv_found:
            ahead = translate(module, "backward")
            if ahead.total_dim:
                tau_of[get_or_add(ahead)[0]] = name

    verify_mesh_invariants(arq)
    arq.complete = True
    return arq


def verify_mesh_invariants(arq):
    """Mesh additivity and multiplicity symmetry, checked post-build."""
    for name, mesh in arq.meshes.items():
        tau_dv = arq.vertices[mesh.tau].dim_vector
        own_dv = arq.vertices[name].dim_vector
        total = [a + b for a, b in zip(tau_dv, own_dv)]
        acc = [0] * len(total)
        for src, mult in mesh.middle:
            dv = arq.vertices[src].dim_vector
            acc = [a + mult * d for a, d in zip(acc, dv)]
        if acc != total:
            raise PreconditionError(f"mesh additivity fails at {name}")
        for src, mult in mesh.middle:
            if arq.mult(mesh.tau, src) != mult:
                raise PreconditionError(
                    f"multiplicity symmetry fails at mesh {name} through {src}"
                )
    for (s, t), m in arq.arrows.items():
        if m < 1:
            raise PreconditionError(f"zero multiplicity stored on arrow {s}->{t}")


# -- abstract (combinatorial) quivers ----------------------------------------


def abstract_quiver(vertex_specs, arrow_specs, tau_pairs):
    """Combinatorial ARQuiver from (name, proj, inj, boundary) vertex specs.

    Module-dependent queries refuse the result; is_cut and the sectional
    part of path classification accept it.
    """
    arq = ARQuiver()
    for name, proj, inj, boundary in vertex_specs:
        if name in arq.vertices:
            raise InputSyntaxError(f"duplicate vertex {name!r}")
        arq.vertices[name] = ARVertex(
            name, None, proj, inj, None, boundary=boundary
        )
    for src, tgt, mult in arrow_specs:
        if src not in arq.vertices or tgt not in arq.vertices:
            raise InputSyntaxError(f"arrow {src}->{tgt} references an unknown vertex")
        if mult < 1:
            raise InputSyntaxError("arrow multiplicity must be positive")
        arq.arrows[(src, tgt)] = arq.arrows.get((src, tgt), 0) + mult
    for x, y in tau_pairs:
        if x not in arq.vertices or y not in arq.vertices:
            raise InputSyntaxError(f"tau {x} = {y} references an unknown vertex")
        if arq.vertices[x].is_projective:
            raise InputSyntaxError(f"tau defined on the projective-flagged vertex {x!r}")
        if x in arq.tau:
            raise InputSyntaxError(f"tau defined twice on {x!r}")
        arq.tau[x] = y
    inv_seen = {}
    for x, y in arq.tau.items():
        if y in inv_seen:
            raise InputSyntaxError(f"tau is not injective: {y!r} hit twice")
        inv_seen[y] = x
    return arq
