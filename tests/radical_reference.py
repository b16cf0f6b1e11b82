"""``nonzero_path_exists`` as it was before it read one product of rad^1
spaces: the oracle that ``knitting.nonzero_path_exists`` is compared
against.

It propagates the span of composites of radical maps out of X one map at
a time.  A state is a vertex Z with a flag that says whether the chain has
passed through ``via`` at an interior position, and holds the RowSpace of
Hom(X, Z) coordinates of those composites.  The chain length is capped by
the Harada-Sai bound 2^b - 1, with b the largest vertex module dimension.
"""

from arquiver.errors import PreconditionError
from arquiver.linalg import RowSpace
from arquiver.modules import ModuleMap


def reference_nonzero_path_exists(arq, x, y, via=None):
    """Whether a nonzero composite of radical maps runs from x to y, through
    ``via`` as a strictly interior vertex when it is given."""
    arq.require_complete("nonzero path search")
    names = arq.names()
    if x not in arq.vertices or y not in arq.vertices:
        raise PreconditionError("endpoints are not vertices of the quiver")
    field = arq.alg.field

    hs_xx = arq.hom_space(x, x)
    init = RowSpace(hs_xx.dim, field=field)
    init.add(hs_xx.coords(ModuleMap.identity(arq.module_of(x))))
    state = {(x, False): init}
    for k in range(1, arq.harada_sai_bound() + 1):
        nxt = {}
        for (zp, flag), space in state.items():
            if space.dim == 0:
                continue
            new_flag = flag or (zp == via and k >= 2)
            for z in names:
                r = arq.rad(zp, z)
                if r.dim == 0:
                    continue
                hs_xz = arq.hom_space(x, z)
                if hs_xz.dim == 0:
                    continue
                target = nxt.setdefault((z, new_flag), RowSpace(hs_xz.dim, field=field))
                for c in arq.products(x, zp, z, r.rows, space.rows):
                    target.add(c)
        for fl in (True,) if via is not None else (False, True):
            sp = nxt.get((y, fl))
            if sp is not None and sp.dim > 0:
                return True
        if all(s.dim == 0 for s in nxt.values()):
            return False
        state = nxt
    return False
