"""The four workloads: which ops each runs, built from the workload seed.

An op is one user-level request: knit a quiver (``ar build``), certify
tiltedness (``tilted certify``), build a tilted quotient (``quotient``), or
run one of those through ``arquiver.cli.main`` in process.  Each workload
ends with one CLI op that repeats an earlier library op of the same pass,
so the command-line and report layers are covered and checked byte for byte.

The seed picks each Dynkin quiver's orientation from ``ORIENTATIONS`` and
which hom-vanishing cuts of the 12-cycle are quotiented.  Every orientation
on a menu costs about the same (see ``ORIENTATIONS``), so a new seed gives
new inputs of the same size.
"""

import hashlib
import random
from dataclasses import dataclass

from inputs import PRIME, cycle_text, dynkin_text

# Orientation menus, one string of edge digits per entry (see inputs.py).
# Costs differ by up to 2x between orientations of one type, and over F_p by
# other amounts than over Q, so each menu holds orientations of equal cost:
# one orientation and its mirror image under the Dynkin graph's symmetry,
# which is the same algebra up to the names of vertices and arrows.  E7 has
# no symmetry; its menu holds three orientations, of 16 sampled, whose
# elimination work (the sum over rref calls of rows x cols x rank, plus the
# multiply-adds of matrix products) is within 3% of each other and whose
# measured times agree within 5% (a fourth such orientation, 011100, ran 10%
# faster and was left out).  Each representative was picked near the median
# of that work over its type.
# Every D8 orientation sampled hits the cut enumeration cap.
ORIENTATIONS = {
    ("A", 5): ["0110", "1001"],
    ("A", 9): ["11011000", "11100100"],
    ("D", 5): ["0001", "0010"],
    ("D", 7): ["000101", "000110"],
    ("D", 8): ["0100010", "0100001"],
    ("E", 6): ["01001", "11011"],
    ("E", 7): ["000111", "110011", "011111"],
}

# How many quotients the refute-cycles workload builds per cut size.  The
# hom-vanishing cuts of the 12-cycle have 3, 6, 9 or 12 vertices, and a
# quotient's cost grows with the cut; fixing the mix per size keeps every
# seed's set of quotients the same size as the first 20 in enumeration order.
QUOTIENTS_PER_CUT_SIZE = {3: 1, 6: 7, 9: 10, 12: 2}

CYCLES = (12, 14)

VERDICT_EXIT = {"CERTIFIED_TILTED": 0, "REFUTED_BY_ENUMERATION": 1, "NOT_CERTIFIED": 3}


@dataclass
class Op:
    kind: str                # "knit", "certify", "quotient" or "cli"
    label: str
    text: str                # the algebra file
    quiver: tuple = None     # (Dynkin type, rank) for the Gabriel count
    expect: str = None       # expected verdict of a certify op
    cut: tuple = ()          # module names of a quotient op
    argv: tuple = ()         # CLI arguments; "{file}" stands for the input file
    repeats: int = None      # index of the library op a CLI op repeats
    file: str = None         # input file name of a CLI op

    @property
    def key(self):
        """Identifies the request; the recorded fingerprints are keyed by it."""
        payload = "\0".join([self.kind, self.text, ",".join(self.cut)])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


KNIT_DYNKIN = [("E", 6), ("E", 7), ("D", 7), ("A", 9)]
KNIT_FP = [("E", 6), ("D", 7), ("A", 9)]
CERTIFY_DYNKIN = [("A", 5), ("D", 5), ("D", 8)]


def dynkin_op(op_kind, kind, n, orientation, field="Q"):
    label = f"{op_kind} {kind}{n} {orientation}" + (f" F{PRIME}" if field != "Q" else "")
    text = dynkin_text(kind, n, orientation, field)
    expect = "CERTIFIED_TILTED" if op_kind == "certify" else None
    return Op(op_kind, label, text, quiver=(kind, n), expect=expect)


def cycle_op(n):
    return Op("certify", f"certify cycle{n}", cycle_text(n), expect="REFUTED_BY_ENUMERATION")


def quotient_op(cut):
    return Op("quotient", f"quotient cycle12 |cut|={len(cut)}", cycle_text(12), cut=tuple(cut))


def _seeded(rng, op_kind, quivers, field="Q"):
    return [
        dynkin_op(op_kind, kind, n, rng.choice(ORIENTATIONS[(kind, n)]), field)
        for kind, n in quivers
    ]


def _cli(ops, index, command, options=()):
    base = ops[index]
    return Op(
        "cli",
        f"cli {' '.join(command)} ({base.label})",
        base.text,
        cut=base.cut,
        argv=(*command, "{file}", *options),
        repeats=index,
        file=f"op{index}.alg",
    )


def knit_dynkin(rng, recorded):
    ops = _seeded(rng, "knit", KNIT_DYNKIN)
    return ops + [_cli(ops, 3, ["ar", "build"])]


def knit_fp(rng, recorded):
    ops = _seeded(rng, "knit", KNIT_FP, f"F {PRIME}")
    return ops + [_cli(ops, 0, ["ar", "build"])]


def certify_tilted(rng, recorded):
    ops = _seeded(rng, "certify", CERTIFY_DYNKIN)
    return ops + [_cli(ops, 0, ["tilted", "certify"])]


def refute_cycles(rng, recorded):
    ops = [cycle_op(n) for n in CYCLES]
    by_size = {}
    for cut in recorded["cycle12_hom_vanishing_cuts"]:
        by_size.setdefault(len(cut), []).append(tuple(cut))
    chosen = []
    for size, count in sorted(QUOTIENTS_PER_CUT_SIZE.items()):
        chosen += rng.sample(by_size[size], count)
    rng.shuffle(chosen)
    ops += [quotient_op(cut) for cut in chosen]
    first_nine = next(i for i, op in enumerate(ops) if len(op.cut) == 9)
    return ops + [
        _cli(ops, first_nine, ["quotient"], ["--modules", ",".join(ops[first_nine].cut)])
    ]


WORKLOADS = {
    "knit-dynkin": knit_dynkin,
    "knit-fp": knit_fp,
    "certify-tilted": certify_tilted,
    "refute-cycles": refute_cycles,
}


def build_ops(workload, seed, recorded):
    """The workload's ops for this seed; the same seed gives the same ops."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, recorded)
