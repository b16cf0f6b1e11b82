"""File formats and exports: algebra files, translation-quiver files,
DOT rendering, and JSON reports.

Every emitter sorts its output, so identical inputs produce byte-identical
text; the round-trip properties the tests pin down depend on that.
"""

import json
import re

from .errors import InputSyntaxError
from .knitting import abstract_quiver


_ALGEBRA_LINE = re.compile(r"field|relation|radical_square_zero|arrow\s+[A-Za-z_]\w*\s*:")


def is_algebra_file(text):
    """Whether a line is one that only algebra files have: a ``field``,
    ``relation`` or ``radical_square_zero`` line, or an arrow line with a
    label (``arrow x: a -> b``).  A file of vertex lines alone is read as a
    translation-quiver file."""
    return any(_ALGEBRA_LINE.match(raw.split("#", 1)[0].strip()) for raw in text.splitlines())


# -- translation-quiver files ------------------------------------------------

_ARROW_RE = re.compile(r"(\S+)\s*->\s*(\S+)(?:\s+(\d+))?$")
_TAU_RE = re.compile(r"(\S+)\s*=\s*(\S+)$")


def parse_translation_quiver(text):
    """Parse vertex/arrow/tau lines into a combinatorial ARQuiver."""
    vertex_specs = []
    arrow_specs = []
    tau_pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if head == "vertex":
            toks = rest.split()
            if not toks:
                raise InputSyntaxError("vertex line without a name", line_no)
            name, flags = toks[0], set(toks[1:])
            bad = flags - {"proj", "inj", "boundary"}
            if bad:
                raise InputSyntaxError(f"unknown vertex flags {sorted(bad)}", line_no)
            vertex_specs.append((name, "proj" in flags, "inj" in flags, "boundary" in flags))
        elif head == "arrow":
            m = _ARROW_RE.match(rest)
            if not m:
                raise InputSyntaxError(f"bad arrow line {line!r}", line_no)
            mult = int(m.group(3)) if m.group(3) else 1
            arrow_specs.append((m.group(1), m.group(2), mult))
        elif head == "tau":
            m = _TAU_RE.match(rest)
            if not m:
                raise InputSyntaxError(f"bad tau line {line!r}", line_no)
            tau_pairs.append((m.group(1), m.group(2)))
        else:
            raise InputSyntaxError(f"unknown directive {head!r}", line_no)
    return abstract_quiver(vertex_specs, arrow_specs, tau_pairs)


# -- algebra files -----------------------------------------------------------


def format_relation(field, relation):
    parts = []
    for idx, (c, p) in enumerate(relation.terms):
        word = "*".join(p.arrows)
        neg = str(c).startswith("-")
        mag = -c if neg else c
        body = word if mag == field.one else f"{field.format(mag)}*{word}"
        if idx == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def emit_algebra_file(presentation):
    """Round-trippable algebra file text for a presentation."""
    field = presentation.field
    lines = [f"field {field.name}"]
    for v in presentation.quiver.vertices:
        lines.append(f"vertex {v}")
    for a in presentation.quiver.arrows.values():
        lines.append(f"arrow {a.label}: {a.source} -> {a.target}")
    for r in presentation.relations:
        lines.append(f"relation {format_relation(field, r)}")
    return "\n".join(lines) + "\n"


# -- DOT ----------------------------------------------------------------------


def _dot_id(name):
    """``name`` as a quoted DOT ID: a vertex name of a translation-quiver
    file is any token without spaces, so ``\\`` and ``"`` are escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(arq):
    """Deterministic DOT text: solid arrows, dashed translation edges,
    shape-coded projectives and injectives."""
    lines = ["digraph ar_quiver {", "  rankdir=LR;"]
    for name in sorted(arq.vertices):
        v = arq.vertices[name]
        if v.is_projective and v.is_injective:
            shape = "Msquare"
        elif v.is_projective:
            shape = "box"
        elif v.is_injective:
            shape = "diamond"
        else:
            shape = "ellipse"
        attrs = [f"shape={shape}"]
        if v.dim_vector is not None:
            dv = ",".join(str(d) for d in v.dim_vector)
            attrs.append(f'tooltip="({dv})"')
        lines.append(f'  {_dot_id(name)} [{", ".join(attrs)}];')
    for (s, t) in sorted(arq.arrows):
        m = arq.arrows[(s, t)]
        label = f' [label="{m}"]' if m > 1 else ""
        lines.append(f"  {_dot_id(s)} -> {_dot_id(t)}{label};")
    for x in sorted(arq.tau):
        lines.append(f"  {_dot_id(x)} -> {_dot_id(arq.tau[x])} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- JSON reports --------------------------------------------------------------


def algebra_summary(alg):
    pres = alg.presentation
    return {
        "field": alg.field.name,
        "vertices": list(pres.quiver.vertices),
        "arrows": [[a.label, a.source, a.target] for a in pres.quiver.arrows.values()],
        "relations": len(pres.relations),
        "dimension": alg.dim,
        "nilpotency": alg.nilpotency,
    }


def ar_quiver_report(arq, alg=None):
    verts = []
    for name in sorted(arq.vertices):
        v = arq.vertices[name]
        verts.append(
            {
                "name": name,
                "dim_vector": list(v.dim_vector) if v.dim_vector is not None else None,
                "projective": v.is_projective,
                "injective": v.is_injective,
                "tau": arq.tau.get(name),
            }
        )
    out = {}
    if alg is not None:
        out["algebra"] = algebra_summary(alg)
    out["ar_quiver"] = {
        "vertices": verts,
        "arrows": [[s, t, arq.arrows[(s, t)]] for (s, t) in sorted(arq.arrows)],
    }
    return out


def render_report(obj):
    return json.dumps(obj, indent=2) + "\n"
