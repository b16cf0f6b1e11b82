"""Checks that decide whether an op's result counts toward ``failed_ops``.

Every op result is checked against oracles that do not trust the code under
test: Gabriel's vertex counts, the prime-field knit agreeing with the
rational one, the expected verdict, an independent re-check of every
witness, the quotient's own flags, and the fingerprint of the rendered
report recorded when the benchmark was added (``recorded.json``).  A CLI op must give
the documented exit code and print exactly what the library op it repeats
rendered.

A failed op falls into one of three categories: ``error`` (it raised),
``limit`` (a documented limit or cap stopped it) or ``wrong`` (an oracle
rejected its answer).  Only ``wrong`` makes the run incorrect.
"""

import hashlib
import json

from inputs import PRIME, gabriel_count
from workloads import VERDICT_EXIT, Op

# Report fields left out of fingerprints: their meaning is due to change.
# They are kept as counters instead.
VOLATILE_FIELDS = ("cuts_examined", "sincere_qualifying_cuts")


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE_FIELDS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def fingerprint(report_text):
    """Hash of a rendered JSON report without its volatile fields."""
    stripped = json.dumps(_strip(json.loads(report_text)), indent=2) + "\n"
    return hashlib.sha256(stripped.encode()).hexdigest()[:16]


def data_fingerprint(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def rational_twin_key(op):
    """Key of the knit op on the same quiver over Q."""
    text = op.text.replace(f"field F {PRIME}\n", "field Q\n", 1)
    return Op("knit", "", text).key


def expected_exit(base):
    """The documented exit code of the library op a CLI op repeats."""
    if base.kind == "certify":
        return VERDICT_EXIT[base.expect]
    return 0


def check(aq, op, res, recorded, base_result=None, base_op=None):
    """``None`` when the op passed, else ``(category, message)``."""
    if res.error is not None:
        return res.error
    if op.kind == "cli":
        return _check_cli(op, res, base_op, base_result)
    entry = recorded["ops"].get(op.key)
    if entry is None:
        return "wrong", "no recorded fingerprint for this input"
    verdict = _check_answer(aq, op, res, recorded)
    if verdict is not None:
        return verdict
    if entry["fingerprint"] is not None and fingerprint(res.text) != entry["fingerprint"]:
        return "wrong", "report fingerprint differs from the recorded one"
    return None


def _check_answer(aq, op, res, recorded):
    if op.kind == "knit":
        count, want = len(res.arq.vertices), gabriel_count(*op.quiver)
        if count != want:
            return "wrong", f"{count} vertices, Gabriel's theorem gives {want}"
        if op.text.startswith(f"field F {PRIME}"):
            twin = recorded["ops"].get(rational_twin_key(op))
            if twin is None or data_fingerprint(res.arq.combinatorial_data()) != twin["combinatorial_data"]:
                return "wrong", "combinatorial data differs from the knit over Q"
        return None
    if op.kind == "certify":
        cert = res.cert
        if cert.verdict == "NOT_CERTIFIED":
            return "limit", f"NOT_CERTIFIED: {cert.limit}"
        if cert.verdict != op.expect:
            return "wrong", f"verdict {cert.verdict}, expected {op.expect}"
        if cert.verdict == "CERTIFIED_TILTED":
            return _check_witness(aq, res.arq, cert.witness)
        return None
    q = res.quotient
    if q.certificate.verdict != "CERTIFIED_TILTED":
        return "wrong", f"quotient verdict {q.certificate.verdict}"
    flags = ("delta_is_cut", "delta_is_slice", "tau_preserved", "projectives_remain_projective")
    bad = [f for f in flags if not getattr(q, f)]
    if bad:
        return "wrong", f"quotient flags false: {', '.join(bad)}"
    return None


def _check_witness(aq, arq, witness):
    ok, _violations = aq.cuts.is_cut(arq, witness)
    if not ok:
        return "wrong", "witness is not a cut"
    if not aq.cuts.hom_tau_test(arq, witness).all_zero:
        return "wrong", "Hom(X, tau Y) does not vanish on the witness"
    _sincere, faithful = aq.modules.sincere_faithful([arq.module_of(n) for n in witness])
    if not faithful:
        return "wrong", "witness is not faithful"
    return None


def _check_cli(op, res, base_op, base_result):
    want = expected_exit(base_op)
    if res.exit_code == VERDICT_EXIT["NOT_CERTIFIED"] and want != res.exit_code:
        return "limit", f"exit code {res.exit_code} (resource limit)"
    if res.exit_code != want:
        return "wrong", f"exit code {res.exit_code}, documented {want}"
    if base_result is None or base_result.text is None or res.text != base_result.text:
        return "wrong", "stdout differs from the library-rendered report"
    return None
