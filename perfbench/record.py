"""Write ``recorded.json``: the expected result of every op a seed can pick.

    python3 perfbench/record.py

For each input on the orientation menus, each cycle, and each hom-vanishing
cut of the 12-cycle, this runs the op through the library and stores the
fingerprint of its rendered report (``oracles.fingerprint``), its verdict,
and for knits over Q the fingerprint of ``combinatorial_data``.  An op that
fails on the commit it is recorded on gets no fingerprint, only its
failure, so the oracles alone judge it once it succeeds.

Record once, on the commit that defines the benchmark or after adding an
input; a change that claims a gain must not re-record, since the point of
the fingerprints is that reports stay byte-identical.
"""

import json
import sys

from oracles import data_fingerprint, fingerprint
from run import RECORDED, SRC, quotient_report
from workloads import (
    CERTIFY_DYNKIN,
    CYCLES,
    KNIT_DYNKIN,
    KNIT_FP,
    ORIENTATIONS,
    cycle_op,
    dynkin_op,
    quotient_op,
)
from inputs import PRIME


def main():
    sys.path.insert(0, str(SRC))
    import arquiver
    from arquiver import cuts, formats

    ops = []
    for op_kind, quivers, field in [
        ("knit", KNIT_DYNKIN, "Q"),
        ("knit", KNIT_FP, f"F {PRIME}"),
        ("certify", CERTIFY_DYNKIN, "Q"),
    ]:
        for kind, n in quivers:
            ops += [dynkin_op(op_kind, kind, n, o, field) for o in ORIENTATIONS[(kind, n)]]
    ops += [cycle_op(n) for n in CYCLES]

    entries = {}
    arqs = {}
    for op in ops:
        alg = arquiver.build_basis(arquiver.parse_presentation(op.text))
        arq = arquiver.knit(alg)
        arqs[op.text] = (alg, arq)
        entry = {"label": op.label}
        if op.kind == "knit":
            text = formats.render_report(formats.ar_quiver_report(arq, alg))
            if op.text.startswith("field Q"):
                entry["combinatorial_data"] = data_fingerprint(arq.combinatorial_data())
        else:
            cert = cuts.certify_tilted(alg, arq=arq)
            text = formats.render_report(cert.to_json())
            entry["verdict"] = cert.verdict
            if cert.verdict != op.expect:
                entry["failed"] = f"{cert.verdict}: {cert.limit}"
        entry["fingerprint"] = None if "failed" in entry else fingerprint(text)
        entries[op.key] = entry
        print(op.label, entry, flush=True)

    alg, arq = arqs[cycle_op(12).text]
    vanishing = [
        sorted(cut) for cut in cuts.enumerate_cuts(arq) if cuts.hom_tau_test(arq, cut).all_zero
    ]
    for cut in vanishing:
        op = quotient_op(cut)
        result = cuts.quotient_by_cut(alg, arq, cut)
        text = formats.render_report(quotient_report(arquiver, result))
        entries[op.key] = {"label": f"{op.label} {','.join(cut)}", "fingerprint": fingerprint(text)}
    print(f"{len(vanishing)} hom-vanishing cuts of the 12-cycle recorded")

    RECORDED.write_text(json.dumps(
        {"ops": entries, "cycle12_hom_vanishing_cuts": vanishing}, indent=1, sort_keys=True
    ) + "\n")


if __name__ == "__main__":
    main()
