"""Reachability and connected components of small finite graphs."""


def closure(seeds, step):
    """Every vertex reachable from ``seeds`` along ``step`` (vertex -> neighbours)."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for m in step[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def components(vertices, edges):
    """Connected components of the undirected graph on ``vertices`` with
    ``edges`` as (s, t) pairs: each in vertex order, ordered by first vertex."""
    adj = {v: set() for v in vertices}
    for s, t in edges:
        adj[s].add(t)
        adj[t].add(s)
    comps = []
    seen = set()
    for v in vertices:
        if v not in seen:
            comp = closure([v], adj)
            seen |= comp
            comps.append([w for w in vertices if w in comp])
    return comps
