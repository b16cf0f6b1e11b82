"""Which end-to-end metric each layer metric should move, and on which workload.

``BENCHMARK.json`` at the root of the checkout lists every metric with its
unit and direction, and the bound of each end-to-end metric; an untraced
run reports the ``end_to_end`` list and a traced run the ``per_layer`` list.
``MOVES`` below maps each per-layer metric to the end-to-end metric it
should move and the workload where it does most of its work.
"""

import json
from pathlib import Path

from tracing import LAYERS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_KNIT = "knit_s on knit-dynkin and knit-fp; certify_s on certify-tilted"
_KNIT_Q = "knit_s on knit-dynkin"
_CERT = "certify_s on certify-tilted"
_REFUTE = "certify_s on refute-cycles"
_BASIS = "setup_s everywhere; quotient_s on refute-cycles"
_HOMS = "certify_s on certify-tilted and refute-cycles"
_CLI = "wall_s, on the CLI op of each workload"
_QUOT = "quotient_s on refute-cycles"

MOVES = {
    "linalg.rref.calls": _KNIT,
    "linalg.rref.cells": _KNIT,
    "linalg.rref.self_s": _KNIT,
    "linalg.kernel_basis.calls": _KNIT,
    "linalg.kernel_basis.s": _KNIT,
    "linalg.Matrix.new": _KNIT,
    "linalg.Matrix.mul.calls": _KNIT,
    "algebra.build_basis.calls": _BASIS,
    "algebra.build_basis.s": _BASIS,
    "modules.hom_basis.calls": _KNIT_Q,
    "modules.hom_basis.unknowns": _KNIT_Q,
    "modules.hom_basis.s": _KNIT_Q,
    "modules.is_isomorphic.calls": _KNIT_Q,
    "modules.is_isomorphic.s": _KNIT_Q,
    "modules.find_isomorphism.calls": _KNIT_Q,
    "modules.decompose_with_inclusions.s": _KNIT_Q,
    "modules.almost_split_sequence.s": _KNIT_Q,
    "modules.translate.s": _KNIT_Q,
    "modules.HomSpace.coords.calls": _CERT,
    "modules.HomSpace.coords.s": _CERT,
    "modules.ModuleMap.compose.calls": _CERT,
    "modules.sincere_faithful.calls": _REFUTE,
    "modules.sincere_faithful.s": _REFUTE,
    "modules.end_algebra_analysis.s": _CERT,
    "knitting.knit.s": "knit_s on every workload",
    "knitting.vertices": "knit_s on every workload",
    "knitting.ARQuiver.hom_space.calls": _HOMS,
    "knitting.hom_space.miss_ratio": _HOMS,
    "knitting.nonzero_path_exists.calls": _CERT,
    "knitting.nonzero_path_exists.s": _CERT,
    "knitting.ARQuiver.rad_powers.s": _CERT,
    "cuts.enumerate_cuts.s": _REFUTE,
    "cuts.enumerate_cuts.cuts": _REFUTE,
    "cuts.hom_tau_test.calls": _REFUTE,
    "cuts.hom_tau_test.s": _REFUTE,
    "cuts.hom_vanishing_ratio": _REFUTE,
    "cuts.is_slice_section.s": _CERT,
    "cuts.convexity_checks.s": _CERT,
    "cuts.tilting_crosscheck.s": _CERT,
    "cuts.quotient_by_cut.s": _QUOT,
    "cuts.present_quotient.s": _QUOT,
    "structure.primitive_orthogonal_idempotents.s": _CERT,
    "structure.StructureAlgebra.radical.calls": _CERT,
    "structure.StructureAlgebra.radical.s": _CERT,
    "formats.render_report.s": _CLI,
    "formats.report_bytes": _CLI,
    "cli.main.s": _CLI,
    "certify.cuts_examined": f"{_CERT}; {_REFUTE}",
    "certify.sincere_qualifying_cuts": _REFUTE,
    **{f"layer.{layer}.self_s": "wall_s on every workload" for layer in LAYERS},
    "stage.wall_s": "the untraced pass of a traced run: wall_s",
    "stage.knit_s": "the untraced pass of a traced run: time inside knit",
    "stage.certify_s": "the untraced pass: time inside certify_tilted",
    "stage.quotient_s": "the untraced pass: time inside quotient_by_cut",
    "trace.wall_s": "the traced pass: wall_s with every span recorded",
    "trace.overhead": "traced wall time over untraced wall time, both in reference units",
    "trace.spans": "spans recorded in the traced pass",
}


def load_benchmark():
    """(end_to_end, per_layer) metric lists of BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    return spec["end_to_end"], spec["per_layer"]


# Per-layer metrics derived from call counts: metric -> traced function.
_CALL_COUNTS = {
    "linalg.Matrix.mul.calls": "linalg.Matrix.__mul__",
}

# Per-layer metrics read from the tracer's counters: metric -> counter.
_COUNTERS = {
    "linalg.rref.cells": "linalg.rref.cells",
    "linalg.Matrix.new": "linalg.Matrix.new",
    "modules.hom_basis.unknowns": "modules.hom_basis.unknowns",
    "knitting.vertices": "knitting.knit.vertices",
    "cuts.enumerate_cuts.cuts": "cuts.enumerate_cuts.cuts",
    "formats.report_bytes": "formats.render_report.bytes",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer):
    """Values of the per-layer metrics that come straight from the tracer."""
    out = {}
    for name in MOVES:
        if name in _CALL_COUNTS:
            out[name] = tracer.calls(_CALL_COUNTS[name])
        elif name in _COUNTERS:
            out[name] = tracer.count(_COUNTERS[name])
        elif name == "linalg.rref.self_s":
            out[name] = tracer.self_s("linalg.rref")
        elif name.endswith(".calls") and name[: -len(".calls")] in tracer.stats:
            out[name] = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".s") and name[: -len(".s")] in tracer.stats:
            out[name] = tracer.self_s(name[: -len(".s")])
    out["knitting.hom_space.miss_ratio"] = _ratio(
        tracer.count("modules.HomSpace.new_in_cache_lookup"),
        tracer.calls("knitting.ARQuiver.hom_space"),
    )
    out["cuts.hom_vanishing_ratio"] = _ratio(
        tracer.count("cuts.hom_tau_test.all_zero"), tracer.calls("cuts.hom_tau_test")
    )
    for layer, seconds in tracer.layer_self_s().items():
        out[f"layer.{layer}.self_s"] = seconds
    out["trace.spans"] = tracer.calls_total()
    return out
