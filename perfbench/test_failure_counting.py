"""The benchmark counts an op whose report does not match its recorded
fingerprint in ``failed_ops`` and marks the run incorrect; it does not pass
it silently.  Uses the small A3 quiver, so it runs in well under a second.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from types import SimpleNamespace

import arquiver
import arquiver.cli  # noqa: F401  (the CLI op needs it loaded)

import run
from oracles import check, fingerprint
from tracing import KNIT_ONLY, Tracer
from workloads import Op, _cli, dynkin_op


def _run_a3(tmp_path, recorded_fingerprint):
    knit = dynkin_op("knit", "A", 3, "01")
    ops = [knit, _cli([knit], 0, ["ar", "build"])]
    path = tmp_path / "a3.alg"
    path.write_text(knit.text)
    algs = run.build_algebras(arquiver, ops)
    with Tracer(KNIT_ONLY, []) as knit_timer:
        passed = run.run_pass(arquiver, ops, algs, {ops[1].file: path}, knit_timer)
    recorded = {"ops": {knit.key: {"fingerprint": recorded_fingerprint(passed.results[0].text)}}}
    failures = run.check_pass(arquiver, ops, passed.results, recorded)
    return run.result_line(ops, failures, {}, []), failures


def test_matching_fingerprint_passes(tmp_path):
    line, failures = _run_a3(tmp_path, fingerprint)
    assert failures == {}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 2


def test_wrong_fingerprint_is_counted_as_failed(tmp_path):
    line, failures = _run_a3(tmp_path, lambda text: "0" * 16)
    assert failures == {0: ("wrong", "report fingerprint differs from the recorded one")}
    assert line["failed"] == 1 and line["attempted"] == 2
    assert line["correct"] is False


def test_cap_hit_is_failed_but_not_wrong():
    op = Op("certify", "certify", "", expect="CERTIFIED_TILTED")
    res = run.OpResult(cert=SimpleNamespace(verdict="NOT_CERTIFIED", limit="cap of 10 nodes"))
    recorded = {"ops": {op.key: {"fingerprint": None}}}
    verdict = check(arquiver, op, res, recorded)
    assert verdict == ("limit", "NOT_CERTIFIED: cap of 10 nodes")
    line = run.result_line([op], {0: verdict}, {}, [])
    assert line["failed"] == 1 and line["correct"] is True
