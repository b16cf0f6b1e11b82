"""Cuts, slices, tilted-algebra certification, and tilted quotients.

A cut is a full subquiver where, along every arrow X -> Y, exactly one of
{Y, tau Y} and exactly one of {X, tau^- X} meets the subquiver.  An
algebra is certified tilted by exhibiting a faithful cut whose forward
Hom(X, tau Y) table vanishes.  The search walks only the hom-vanishing
cuts and stops at the first faithful one; a walk that ends without one
refutes.
"""

from dataclasses import asdict, dataclass, fields

from .algebra import AlgebraPresentation, Quiver, Relation, build_basis, _paths_up_to
from .errors import CapExceeded, InternalError, LimitExceeded, PreconditionError
from .formats import algebra_summary
from .graph import closure, components
from .knitting import (
    DEFAULT_MAX_DIM,
    DEFAULT_MAX_VERTICES,
    ARQuiver,
    ARVertex,
    MeshRecord,
    knit,
    nonzero_path_exists,
    vertex_namer,
)
from .linalg import Matrix, RowSpace, kernel_basis, rank
from .modules import (
    Module,
    annihilator,
    direct_sum,
    ext1_dim,
    find_isomorphism,
    is_sincere,
    pdim_le_1,
    sincere_faithful,
)

DEFAULT_CAP = 10**6


@dataclass
class CutViolation:
    arrow: tuple
    condition: int
    detail: str

    def to_json(self):
        return {**asdict(self), "arrow": list(self.arrow)}


def _cut_conditions(arq):
    """The cut conditions, one ``(arrow, condition, guard, other, translate)``
    per arrow X -> Y and condition, in arrow order.

    Condition 1: when X (the guard) is in the cut, exactly one of Y (the
    other) and tau Y (the translate) is.  Condition 2: when Y is in the cut,
    exactly one of X and tau^- X is.  A zero translate is None; a condition
    whose translate is not known yet, on a partial quiver, is left out.
    """
    for (x, y) in sorted(arq.arrows):
        for condition, guard, other, (status, t) in (
            (1, x, y, arq.tau_status(y)),
            (2, y, x, arq.tau_inv_status(x)),
        ):
            if status != "unknown":
                yield (x, y), condition, guard, other, t


def is_cut(arq, cut):
    """Definition check with a violation list; both return values stable."""
    cut = set(cut)
    unknown = cut - set(arq.vertices)
    if unknown:
        raise PreconditionError(f"cut references unknown vertices: {sorted(unknown)}")
    if not cut:
        raise PreconditionError("a cut must be nonempty")
    violations = []
    for arrow, condition, guard, other, t in _cut_conditions(arq):
        hits = (other in cut) + (t in cut)
        if guard in cut and hits != 1:
            which = "neither" if hits == 0 else "both"
            tau = "tau" if condition == 1 else "tau^-"
            violations.append(
                CutViolation(arrow, condition, f"{which} of {other} and {tau} {other} in the cut")
            )
    return not violations, violations


@dataclass
class HomTauResult:
    forward: list          # sorted [x, y, dim] triples, dim Hom(X, tau Y)
    backward: list         # sorted [x, y, dim] triples, dim Hom(tau^- X, Y)
    all_zero: bool


def _hom_tau_dims(arq, inv, x, y):
    """(dim Hom(X, tau Y), dim Hom(tau^- X, Y)), with ``inv`` = ``arq.tau_inv``."""
    ty = arq.tau.get(y)
    tx = inv.get(x)
    return (
        arq.hom_dim(x, ty) if ty is not None else 0,
        arq.hom_dim(tx, y) if tx is not None else 0,
    )


def hom_tau_test(arq, cut):
    arq.require_modules("the Hom(X, tau Y) test")
    cut = sorted(set(cut))
    fwd = []
    bwd = []
    inv = arq.tau_inv
    for x in cut:
        for y in cut:
            d, d2 = _hom_tau_dims(arq, inv, x, y)
            fwd.append([x, y, d])
            bwd.append([x, y, d2])
    all_zero = all(t[2] == 0 for t in fwd) and all(t[2] == 0 for t in bwd)
    return HomTauResult(fwd, bwd, all_zero)


def hom_tau_conflict(arq):
    """``conflict(x, y)`` for ``iter_cuts``: whether X and Y (possibly equal)
    cannot lie in one hom-vanishing cut, that is, whether one of
    Hom(X, tau Y), Hom(tau^- X, Y), Hom(Y, tau X) and Hom(tau^- Y, X) is
    nonzero."""
    arq.require_modules("the Hom(X, tau Y) test")
    inv = arq.tau_inv
    return lambda x, y: any(_hom_tau_dims(arq, inv, x, y) + _hom_tau_dims(arq, inv, y, x))


@dataclass
class ConvexityResult:
    weakly_convex: bool
    convex_in_ind: bool
    acyclic: bool


def _cycle_inside(arq, cut):
    """Whether the subquiver induced on the cut has a directed cycle."""
    succ = {n: set() for n in cut}
    for (s, t) in arq.arrows:
        if s in succ and t in succ:
            succ[s].add(t)
    return any(n in closure(succ[n], succ) for n in succ)


def _convex(cut, vertices, edges):
    """Whether no vertex outside ``cut`` lies on a directed path over
    ``edges`` between two vertices of ``cut``."""
    succ = {n: set() for n in vertices}
    pred = {n: set() for n in vertices}
    for s, t in edges:
        succ[s].add(t)
        pred[t].add(s)
    return (closure(cut, succ) & closure(cut, pred)) <= set(cut)


def _convex_in_ind(arq, cut):
    """Convexity in ind A, read from the support of rad^1: the pairs (X, Y)
    with rad(X, Y) != 0.  For X != Y, rad(X, Y) = Hom(X, Y), and the pairs
    X = Y add no path, so only Hom dimensions are read."""
    names = arq.names()
    support = [(x, y) for x in names for y in names if x != y and arq.hom_dim(x, y)]
    return _convex(cut, names, support)


def convexity_checks(arq, cut):
    """Weak convexity, convexity in ind A, and acyclicity of a subquiver.

    Weakly convex: no nonzero composite of radical maps runs between two
    vertices of the cut through one outside it (``nonzero_path_exists``).
    """
    arq.require_modules("convexity checks")
    cut = set(cut)
    weakly = not any(
        nonzero_path_exists(arq, x, y, via=m)
        for m in arq.names()
        if m not in cut
        for x in sorted(cut)
        for y in sorted(cut)
    )
    return ConvexityResult(weakly, _convex_in_ind(arq, cut), not _cycle_inside(arq, cut))


@dataclass
class SliceSectionResult:
    slice: object           # bool, or None when module data is absent
    section: bool


def _connected_in(arq, cut):
    inside = [(s, t) for (s, t) in arq.arrows if s in cut and t in cut]
    return len(components(sorted(cut), inside)) == 1


def _is_section(arq, cut):
    """The one-per-orbit definition of a section, inside the component of
    the quiver that holds the vertex set ``cut``; purely combinatorial."""
    comp = next((set(c) for c in components(arq.names(), arq.arrows) if cut <= set(c)), None)
    if comp is None or not _connected_in(arq, cut) or _cycle_inside(arq, cut):
        return False
    if any(len(set(o) & cut) != 1 for o in arq.tau_orbits() if set(o) & comp):
        return False
    inside = [(s, t) for (s, t) in arq.arrows if s in comp and t in comp]
    return _convex(cut, comp, inside)


def is_slice_section(arq, cut):
    """Slice and section flags of a vertex set.

    Slice: a cut that is sincere and convex in ind A, with convexity read
    from the support of rad^1 (no radical powers, no path search).  Section:
    ``_is_section``.
    """
    cut = set(cut)
    section = _is_section(arq, cut)
    if arq.abstract:
        return SliceSectionResult(None, section)
    cut_ok, _ = is_cut(arq, cut)
    if not cut_ok:
        return SliceSectionResult(False, section)
    if not is_sincere([arq.module_of(n) for n in sorted(cut)]):
        return SliceSectionResult(False, section)
    return SliceSectionResult(_convex_in_ind(arq, cut), section)


def slice_by_definition(arq, cut):
    """The literal slice axioms, used as an independent oracle."""
    arq.require_modules("the literal slice definition")
    cut = set(cut)
    if not is_sincere([arq.module_of(n) for n in sorted(cut)]):
        return False
    if not _convex_in_ind(arq, cut):
        return False
    for x in cut:
        if arq.tau.get(x) in cut:
            return False
    for (x, y) in arq.arrows:
        if y in cut:
            tx = arq.tau_inv.get(x)
            if x not in cut and (tx is None or tx not in cut):
                return False
    return True


def iter_cuts(arq, cap=DEFAULT_CAP, conflict=None):
    """Nonempty cuts, one at a time, by backtracking with constraint
    propagation; the vertices are decided in ``arq.names()`` order, chosen
    before left out.

    Each cut condition is compiled to a triple ``(guard, a, b)`` of vertex
    indices, watched by each of its vertices: when ``guard`` is chosen,
    exactly one of ``a`` and ``b`` must be.  A zero translate has ``b = -1``,
    which reads the trailing always-False slot of ``value``.  Setting a
    vertex, chosen or left out, visits the conditions it is in: one that
    fails ends the branch, and one with a single undecided vertex left that
    only one value satisfies sets that vertex at once.  The walk undoes such
    forced values on backtracking, and at the depth of a forced vertex it
    tries that value alone.

    ``conflict(x, y)``, a symmetric predicate on vertex names, forbids X and
    Y (possibly equal) in one cut: no vertex, chosen or forced, that
    conflicts with itself or with one already chosen is set, and each pair
    is asked about at most once, before the choice propagates.  A pairwise
    property such as hom vanishing (``hom_tau_conflict``) then prunes
    exactly the subtrees that hold no cut with the property.  Propagation
    and pruning drop only assignments that no cut extends, so the cuts come
    out in the order of the full walk, with or without them.  ``cap``
    bounds the nodes of this walk: one per vertex still undecided when the
    walk reaches it, and one per finished assignment.  More raise
    ``CapExceeded``, which says how far the walk got.
    """
    names = arq.names()
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    watch = [[] for _ in names]
    for _arrow, _condition, guard, other, t in _cut_conditions(arq):
        cond = (index[guard], index[other], -1 if t is None else index[t])
        for v in set(cond) - {-1}:
            watch[v].append(cond)

    value = [None] * n + [False]
    trail = []
    picked = []
    table = [[None] * n for _ in names]
    nodes = deepest = found = 0

    def clashes(v):
        row = table[v]
        for j in (v, *picked):
            if row[j] is None:
                row[j] = table[j][v] = conflict(names[v], names[j])
            if row[j]:
                return True
        return False

    def settle(v, chosen):
        """Set vertex ``v`` and propagate; False when a condition or a
        conflict fails.  The caller undoes the trail either way."""
        if chosen and conflict is not None and clashes(v):
            return False
        value[v] = chosen
        trail.append(v)
        if chosen:
            picked.append(v)
        queue = [v]
        for u in queue:
            for g, a, b in watch[u]:
                vg = value[g]
                if vg is False:
                    continue
                va, vb = value[a], value[b]
                if vg:
                    if va is None and vb is None:
                        continue
                    if va is not None and vb is not None:
                        if va + vb != 1:
                            return False
                        continue
                    w, forced = (a, not vb) if va is None else (b, not va)
                elif va is None or vb is None or va + vb == 1:
                    continue
                else:
                    w, forced = g, False
                if forced and conflict is not None and clashes(w):
                    return False
                value[w] = forced
                trail.append(w)
                queue.append(w)
                if forced:
                    picked.append(w)
        return True

    def undo(mark):
        while len(trail) > mark:
            v = trail.pop()
            if value[v]:
                picked.pop()
            value[v] = None

    def walk(depth):
        nonlocal nodes, deepest, found
        while depth < n and value[depth] is not None:
            depth += 1
        nodes += 1
        if nodes > cap:
            raise CapExceeded(
                f"cut enumeration exceeded the cap of {cap} nodes: {cap} nodes walked, "
                f"deepest depth {deepest} of {n}, {found} cuts found"
            )
        deepest = max(deepest, depth)
        if depth == n:
            if picked:
                found += 1
                yield frozenset(names[i] for i in picked)
            return
        for chosen in (True, False):
            mark = len(trail)
            if settle(depth, chosen):
                yield from walk(depth + 1)
            undo(mark)

    yield from walk(0)


def enumerate_cuts(arq, cap=DEFAULT_CAP):
    """All nonempty cuts, as a list, in the order of ``iter_cuts``."""
    return list(iter_cuts(arq, cap))


@dataclass
class CrosscheckRecord:
    pdim_le_1: bool
    ext1_dim: int
    summands: int
    simples: int
    end_hereditary: bool

    @property
    def passed(self):
        return (
            self.pdim_le_1
            and self.ext1_dim == 0
            and self.summands == self.simples
            and self.end_hereditary
        )

    def to_json(self):
        return {**asdict(self), "passed": self.passed}


def _end_hereditary(arq, cut):
    """Whether End(T) is hereditary, for T the direct sum of the cut's modules.

    The cut's modules are pairwise non-isomorphic indecomposables, so the
    summand projections e_X are a complete set of primitive orthogonal
    idempotents of End(T).  rad End(T) is rad End(X) on the diagonal plus
    all of Hom(X, Y) for X != Y, which ``ARQuiver.rad`` gives, and rad^2
    End(T) is the span of rad(Z, Y) . rad(X, Z) over the summands Z.
    End(T) is hereditary iff rad is projective, iff the projective cover of
    rad has the dimension of rad (the count of ``structure.is_hereditary``):
    e_X (rad/rad^2) is the sum of rad(Y, X)/rad^2(Y, X) over Y and End(T) e_X
    the sum of Hom(X, Y) over Y.
    """
    rad = {(x, y): arq.rad(x, y) for x in cut for y in cut}
    rad2 = arq.compose_levels(rad, rad, cut)
    cover = sum(
        sum(rad[(y, x)].dim - rad2[(y, x)].dim for y in cut)
        * sum(arq.hom_dim(x, y) for y in cut)
        for x in cut
    )
    return cover == sum(rad[(x, y)].dim for x in cut for y in cut)


def tilting_crosscheck(arq, cut):
    """Independent tilting-module verification of a candidate cut.

    T is the direct sum of the cut's modules: pd T <= 1 and Ext^1(T, T) = 0
    are computed on T itself, while heredity of End(T) is read from the
    summands, whose projections are its primitive idempotents
    (``_end_hereditary``); no structure algebra is built.
    """
    arq.require_complete("the tilting cross-check")
    cut = sorted(set(cut))
    mods = [arq.module_of(n) for n in cut]
    t = direct_sum(mods) if len(mods) > 1 else mods[0]
    return CrosscheckRecord(
        pdim_le_1=pdim_le_1(t),
        ext1_dim=ext1_dim(t, t),
        summands=len(cut),
        simples=len(arq.alg.quiver.vertices),
        end_hereditary=_end_hereditary(arq, cut),
    )


@dataclass
class Certificate:
    verdict: str
    witness: list = None
    hom_forward: list = None
    hom_backward: list = None
    annihilator_generators: list = None
    sincere: object = None
    faithful: object = None
    slice_confirmed: object = None
    crosscheck: CrosscheckRecord = None
    cuts_examined: int = 0
    sincere_qualifying_cuts: int = 0
    limit: str = None
    blocks: list = None

    def to_json(self):
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "blocks"}
        out["crosscheck"] = self.crosscheck and self.crosscheck.to_json()
        if self.blocks is not None:
            out["blocks"] = [b.to_json() for b in self.blocks]
        return out


def _sub_presentation(pres, vertices):
    vset = set(vertices)
    quiver = Quiver(
        [v for v in pres.quiver.vertices if v in vset],
        [a for a in pres.quiver.arrows.values() if a.source in vset],
    )
    relations = [r for r in pres.relations if r.source in vset]
    return AlgebraPresentation(quiver, relations, pres.field)


def _block_quiver(arq, block):
    """The AR quiver of the block algebra ``block``, read off the complete
    AR quiver ``arq`` of the whole algebra: the vertex modules supported on
    the block, restricted to it, with their order, arrows, tau, meshes and
    flags (no arrow maps).

    A vertex keeps its name P_v, I_v or S_v, and ``vertex_namer`` renames
    the rest by their dimension vectors over the block, as a knit of the
    block alone names them.  Names and order agree with that knit because
    the knit's FIFO queue keeps each block's own registration order.
    """
    names = {}
    out = ARQuiver(block)
    name_of = vertex_namer(block)
    for name, v in arq.vertices.items():
        if any(v.module.dims[w] for w in block.quiver.vertices):
            module = lift_module(v.module, block)
            new = name if v.is_projective or v.is_injective else name_of(module)
            names[name] = new
            out.vertices[new] = ARVertex(
                new, module, v.is_projective, v.is_injective, module.dim_vector
            )
    out.arrows = {(names[s], names[t]): m for (s, t), m in arq.arrows.items() if s in names}
    out.tau = {names[x]: names[t] for x, t in arq.tau.items() if x in names}
    out.meshes = {
        names[x]: MeshRecord(names[mesh.tau], sorted((names[z], m) for z, m in mesh.middle))
        for x, mesh in arq.meshes.items()
        if x in names
    }
    out.complete = True
    return out


def certify_tilted(
    alg, arq=None, max_vertices=DEFAULT_MAX_VERTICES, max_dim=DEFAULT_MAX_DIM, cap=DEFAULT_CAP
):
    """Decide tiltedness by the iff criterion: A is tilted iff its AR quiver
    has a faithful cut on which Hom(X, tau Y) vanishes.

    The search walks the hom-vanishing cuts (``iter_cuts`` pruned by
    ``hom_tau_conflict``, so ``cap`` counts nodes of that walk) and stops at
    the first faithful one.  CERTIFIED_TILTED comes with that witness,
    confirmed to be a slice and cross-checked as a tilting module;
    REFUTED_BY_ENUMERATION is only issued when the walk ends without one.
    ``cuts_examined`` counts the hom-vanishing cuts walked, up to and
    including the witness; ``sincere_qualifying_cuts`` counts those among
    them that are sincere but not faithful.

    An algebra with several blocks gets one certificate per block.  Given
    a complete ``arq``, each block's quiver is read off it
    (``_block_quiver``); otherwise each block is knitted on its own within
    the limits.
    """
    arrows = [(a.source, a.target) for a in alg.quiver.arrows.values()]
    comps = components(alg.quiver.vertices, arrows)
    if len(comps) > 1:
        blocks = []
        for comp in comps:
            sub = build_basis(_sub_presentation(alg.presentation, comp))
            sub_arq = _block_quiver(arq, sub) if arq is not None and arq.complete else None
            blocks.append(
                certify_tilted(
                    sub, arq=sub_arq, max_vertices=max_vertices, max_dim=max_dim, cap=cap
                )
            )
        if any(b.verdict == "NOT_CERTIFIED" for b in blocks):
            verdict = "NOT_CERTIFIED"
        elif all(b.verdict == "CERTIFIED_TILTED" for b in blocks):
            verdict = "CERTIFIED_TILTED"
        else:
            verdict = "REFUTED_BY_ENUMERATION"
        return Certificate(verdict=verdict, blocks=blocks)

    try:
        if arq is None:
            arq = knit(alg, max_vertices=max_vertices, max_dim=max_dim)
        return _first_witness(arq, cap)
    except (LimitExceeded, CapExceeded) as exc:
        return Certificate(verdict="NOT_CERTIFIED", limit=str(exc))


def _first_witness(arq, cap):
    """The certificate of ``certify_tilted`` from a knitted quiver."""
    examined = sincere_only = 0
    for cut in iter_cuts(arq, cap, hom_tau_conflict(arq)):
        examined += 1
        ht = hom_tau_test(arq, cut)
        if not ht.all_zero:
            raise InternalError(
                "internal inconsistency: a cut of the hom-vanishing walk fails the Hom(X, tau Y) test"
            )
        sincere, faithful = sincere_faithful([arq.module_of(n) for n in cut])
        if not faithful:
            if sincere:
                sincere_only += 1
            continue
        ss = is_slice_section(arq, cut)
        if not ss.slice:
            raise InternalError(
                "internal inconsistency: a faithful hom-vanishing cut is not a slice"
            )
        cc = tilting_crosscheck(arq, cut)
        if not cc.passed:
            raise InternalError(
                "internal inconsistency: certified witness fails the tilting cross-check"
            )
        return Certificate(
            verdict="CERTIFIED_TILTED",
            witness=sorted(cut),
            hom_forward=ht.forward,
            hom_backward=ht.backward,
            annihilator_generators=[],
            sincere=sincere,
            faithful=faithful,
            slice_confirmed=True,
            crosscheck=cc,
            cuts_examined=examined,
            sincere_qualifying_cuts=sincere_only,
        )
    return Certificate(
        verdict="REFUTED_BY_ENUMERATION",
        cuts_examined=examined,
        sincere_qualifying_cuts=sincere_only,
    )


@dataclass
class QuotientResult:
    algebra: object                 # AlgebraBasis of B
    presentation: AlgebraPresentation
    annihilator_dim: int
    annihilator_generators: list
    lifted_cut: list
    arq: ARQuiver
    certificate: Certificate
    delta_is_cut: bool
    delta_is_slice: bool
    tau_preserved: bool
    projectives_remain_projective: bool

    def to_json(self):
        """The report of ``arquiver quotient``."""
        verbatim = ["lifted_cut", "delta_is_cut", "delta_is_slice", "tau_preserved",
                    "projectives_remain_projective"]
        return {
            "annihilator": {"dimension": self.annihilator_dim, "generators": self.annihilator_generators},
            "quotient": algebra_summary(self.algebra),
            **{name: getattr(self, name) for name in verbatim},
            "certificate": self.certificate.to_json(),
        }


def present_quotient(alg, ideal_rows):
    """Recover a bound quiver presentation of B = A/ideal.

    Surviving idempotents give the vertices, surviving arrow images give
    the arrows, and the relations are the kernel of the induced path
    evaluation up to the inherited nilpotency bound.
    """
    field = alg.field
    span = RowSpace(alg.dim, ideal_rows, field=field)
    vertices = [v for v in alg.quiver.vertices if any(span.project(alg.idempotent(v)))]
    # arrows: independent surviving arrow images modulo rad^2 + ideal
    selector = span.copy()
    for i, p in enumerate(alg.basis):
        if p.length >= 2:
            selector.add(alg.basis_element(i))
    arrows = []
    for a in alg.quiver.arrows.values():
        vec = alg.basis_element(alg.arrow_index(a.label))
        if selector.add(vec):
            arrows.append(a)
    quiver = Quiver(vertices, arrows)

    by_len = _paths_up_to(quiver, alg.nilpotency)
    paths = [p for level in by_len for p in level]
    dim_b = alg.dim - span.dim
    eval_cols = []
    for p in paths:
        if p.length == 0:
            vec = alg.idempotent(p.source)
        else:
            vec = alg.basis_element(alg.arrow_index(p.arrows[-1]))
            for lab in reversed(p.arrows[:-1]):
                terms = [(j, c) for j, c in enumerate(vec) if c]
                vec = alg.basis_product(alg.arrow_index(lab), terms, True)
        eval_cols.append(span.project(vec))
    eval_mat = Matrix(
        dim_b, len(paths), [[eval_cols[j][i] for j in range(len(paths))] for i in range(dim_b)], field
    )
    if rank(eval_mat) != dim_b:
        raise PreconditionError("recovered quiver does not generate the quotient")
    relations = []
    for vec in kernel_basis(eval_mat):
        terms = [(c, paths[i]) for i, c in enumerate(vec) if c]
        if any(p.length < 2 for _, p in terms):
            raise PreconditionError("quotient relation with a short component")
        relations.append(Relation(terms))
    presentation = AlgebraPresentation(quiver, relations, field)
    b = build_basis(presentation, bound=max(alg.nilpotency, 2))
    if b.dim != dim_b:
        raise PreconditionError(
            f"rebuilt quotient has dimension {b.dim}, expected {dim_b}"
        )
    return presentation, b


def lift_module(m, b):
    """Reinterpret an annihilated A-module over the quotient presentation."""
    dims = {}
    for v in b.quiver.vertices:
        dims[v] = m.dims[v]
    dead = [v for v in m.alg.quiver.vertices if v not in b.quiver.vertices and m.dims[v]]
    if dead:
        raise PreconditionError(f"module is supported on killed vertices {dead}")
    mats = {a.label: m.mats[a.label] for a in b.quiver.arrows.values()}
    return Module(b, dims, mats)


def quotient_by_cut(alg, arq, cut):
    """B = A/ann(cut) with its certificate, per the quotient theorem.

    Preconditions: the subquiver is a cut and its forward Hom(X, tau Y)
    table vanishes.  The lifted cut is verified to be a cut of the
    re-knitted quiver, a slice, and translate-compatible.
    """
    cut = sorted(set(cut))
    ok, violations = is_cut(arq, cut)
    if not ok:
        raise PreconditionError(
            f"hypothesis violation: not a cut ({violations[0].detail})"
        )
    ht = hom_tau_test(arq, cut)
    if not ht.all_zero:
        raise PreconditionError("hypothesis violation: Hom(X, tau Y) does not vanish")
    mods = [arq.module_of(n) for n in cut]
    ann = annihilator(mods)
    presentation, b = present_quotient(alg, ann)
    lifted = [lift_module(m, b) for m in mods]
    arq_b = knit(b)
    lifted_names = []
    for m in lifted:
        # a lifted module is indecomposable: End over B equals End over A
        name, _iso = arq_b.find_vertex(m)
        if name is None:
            raise PreconditionError("lifted module is missing from the quotient quiver")
        lifted_names.append(name)
    delta_cut, _ = is_cut(arq_b, lifted_names)
    ss = is_slice_section(arq_b, lifted_names)
    cert = certify_tilted(b, arq=arq_b)

    # translate compatibility for lifted non-projectives, and projectivity
    # preservation for lifted projectives
    tau_ok = True
    proj_ok = True
    for orig_name, name_b in zip(cut, lifted_names):
        if arq.vertices[orig_name].is_projective:
            if not arq_b.vertices[name_b].is_projective:
                proj_ok = False
            continue
        if arq_b.vertices[name_b].is_projective:
            continue
        tau_a_name = arq.tau[orig_name]
        tau_a = arq.module_of(tau_a_name)
        try:
            tau_a_lifted = lift_module(tau_a, b)
        except PreconditionError:
            tau_ok = False
            continue
        tau_b_name = arq_b.tau[name_b]
        if find_isomorphism(arq_b.module_of(tau_b_name), tau_a_lifted) is None:
            tau_ok = False
    return QuotientResult(
        algebra=b,
        presentation=presentation,
        annihilator_dim=len(ann),
        annihilator_generators=[alg.element_label(g) for g in ann],
        lifted_cut=lifted_names,
        arq=arq_b,
        certificate=cert,
        delta_is_cut=delta_cut,
        delta_is_slice=bool(ss.slice),
        tau_preserved=tau_ok,
        projectives_remain_projective=proj_ok,
    )


def cut_analysis(arq, cut):
    """Full per-cut report data used by the command-line surface."""
    ok, violations = is_cut(arq, cut)
    out = {
        "cut": sorted(set(cut)),
        "is_cut": ok,
        "violations": [v.to_json() for v in violations],
    }
    if arq.abstract:
        out.update(dict.fromkeys(["hom_tau", "sincere", "faithful", "annihilator", "convexity"]))
    else:
        out["hom_tau"] = asdict(hom_tau_test(arq, cut))
        mods = [arq.module_of(n) for n in sorted(set(cut))]
        ann = annihilator(mods)
        out["sincere"], out["faithful"] = sincere_faithful(mods)
        out["annihilator"] = {
            "dimension": len(ann),
            "generators": [arq.alg.element_label(g) for g in ann],
        }
        out["convexity"] = asdict(convexity_checks(arq, cut))
    out.update(asdict(is_slice_section(arq, cut)))
    return out
