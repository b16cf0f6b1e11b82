"""Seeded input generators: Dynkin bound quivers and radical-square-zero cycles.

Inputs are algebra files as text, the same format the command line reads.
Vertices are ``v1 .. vn`` along the Dynkin graph's long chain; arrows are
``a1 ..`` in edge order.  An orientation is a string of ``0``/``1``, one
digit per edge: ``0`` points the arrow along the edge as listed by
``dynkin_edges``, ``1`` reverses it.
"""

PRIME = 32003


def dynkin_edges(kind, n):
    """Edges of the Dynkin graph: A_n a chain, D_n and E_n a chain with a branch."""
    chain = [(i, i + 1) for i in range(1, n - 1)]
    if kind == "A":
        return chain + [(n - 1, n)]
    if kind == "D":
        return chain + [(n - 2, n)]
    if kind == "E":
        return chain + [(3, n)]
    raise ValueError(f"unknown Dynkin type {kind}")


def gabriel_count(kind, n):
    """Number of indecomposables (positive roots) by Gabriel's theorem."""
    if kind == "A":
        return n * (n + 1) // 2
    if kind == "D":
        return n * (n - 1)
    return {6: 36, 7: 63}[n]


def dynkin_text(kind, n, orientation, field="Q"):
    edges = dynkin_edges(kind, n)
    if len(orientation) != len(edges):
        raise ValueError(f"{kind}{n} needs {len(edges)} orientation digits")
    lines = [f"field {field}"] + [f"vertex v{i}" for i in range(1, n + 1)]
    for k, ((a, b), bit) in enumerate(zip(edges, orientation), start=1):
        if bit == "1":
            a, b = b, a
        lines.append(f"arrow a{k}: v{a} -> v{b}")
    return "\n".join(lines) + "\n"


def cycle_text(n):
    """The oriented n-cycle with radical square zero."""
    lines = ["field Q"] + [f"vertex v{i}" for i in range(n)]
    lines += [f"arrow a{i}: v{i} -> v{(i + 1) % n}" for i in range(n)]
    lines.append("radical_square_zero")
    return "\n".join(lines) + "\n"
