"""Run one arquiver benchmark workload and print its metrics.

    python3 perfbench/run.py --workload knit-dynkin --seed 1 --seconds 30 --trace 0

One process, one closed-loop caller: each op starts when the previous one
has returned.  Set-up (import ``arquiver``, then ``parse_presentation`` and
``build_basis`` for every input) runs once to warm up, then
``SETUP_REPEATS`` times under the speed probe; ``setup_s`` is the median in
reference units, given in seconds at the nominal reference speed.  The
workload's ops then run in passes; another pass starts only while the
measured time, plus one more pass as long as the last, stays within
``--seconds``, and at least one pass always runs.  Times
are medians over passes, in reference units (``speedref.py``): ``wall_ref``
covers every op of a pass, ``knit_ref`` every ``knit`` call in it, wherever
made (a ``Tracer`` that wraps ``knit`` alone times them).
Raw seconds are printed beside them.  Results of the first pass are checked
by ``oracles.py``; later passes must render the same reports.

``--trace 1`` runs one untraced pass, then sets up again and runs one pass
with every public function of the layers wrapped in spans (``tracing.py``).
It prints the per-layer metrics, the tracing overhead and the three layers
with the most self time, and writes the spans to ``perfbench/out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from metrics import layer_values, load_benchmark
from oracles import check
from speedref import REFERENCE_LOOP_S, SpeedProbe
from tracing import KNIT_ONLY, Tracer
from workloads import WORKLOADS, build_ops

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
RECORDED = HERE / "recorded.json"
SETUP_REPEATS = 19
STAGES = ("knit", "certify", "quotient")

clock = time.perf_counter


@dataclass
class OpResult:
    start: float = 0.0
    end: float = 0.0
    stages: dict = field(default_factory=dict)   # stage -> [(start, end), ...]
    text: str = None             # rendered report, or CLI stdout
    exit_code: int = None
    error: tuple = None          # (category, message) when the op raised
    arq: object = None
    cert: object = None
    quotient: object = None


@dataclass
class Pass:
    results: list

    def release(self):
        """Drop the knitted quivers and certificates once they are checked."""
        for r in self.results:
            r.arq = r.cert = r.quotient = None

    def time(self, measure=lambda start, end: end - start, stage=None):
        """Sum of ``measure(start, end)`` over the ops, or over one stage of them."""
        if stage is None:
            spans = [(r.start, r.end) for r in self.results]
        else:
            spans = [span for r in self.results for span in r.stages.get(stage, [])]
        return sum(measure(start, end) for start, end in spans)


# -- set-up --------------------------------------------------------------------


def import_arquiver():
    """A fresh import of the package, the way a new process would get it."""
    for name in [n for n in sys.modules if n == "arquiver" or n.startswith("arquiver.")]:
        del sys.modules[name]
    aq = importlib.import_module("arquiver")
    importlib.import_module("arquiver.cli")
    return aq


def build_algebras(aq, ops):
    algs = {}
    for op in ops:
        if op.kind != "cli" and op.text not in algs:
            algs[op.text] = aq.algebra.build_basis(aq.algebra.parse_presentation(op.text))
    return algs


def setup(ops):
    gc.collect()  # so no set-up pays for collecting the one before
    start = clock()
    aq = import_arquiver()
    algs = build_algebras(aq, ops)
    return (start, clock()), aq, algs


# -- ops -------------------------------------------------------------------------


def quotient_report(aq, result):
    """The report ``arquiver quotient`` prints, built from the library result."""
    return {
        "annihilator": {
            "dimension": result.annihilator_dim,
            "generators": result.annihilator_generators,
        },
        "quotient": aq.formats.algebra_summary(result.algebra),
        "lifted_cut": result.lifted_cut,
        "delta_is_cut": result.delta_is_cut,
        "delta_is_slice": result.delta_is_slice,
        "tau_preserved": result.tau_preserved,
        "projectives_remain_projective": result.projectives_remain_projective,
        "certificate": result.certificate.to_json(),
    }


def _run_library_op(aq, op, alg, arqs, res):
    render = aq.formats.render_report
    if op.kind == "quotient":
        t0 = clock()
        res.quotient = aq.cuts.quotient_by_cut(alg, arqs[op.text], list(op.cut))
        t1 = clock()
        res.text = render(quotient_report(aq, res.quotient))
        res.stages["quotient"] = [(t0, t1)]
        return
    res.arq = aq.knitting.knit(alg)
    t1 = clock()
    arqs[op.text] = res.arq
    if op.kind == "knit":
        res.text = render(aq.formats.ar_quiver_report(res.arq, alg))
        return
    res.cert = aq.cuts.certify_tilted(alg, arq=res.arq)
    t2 = clock()
    res.text = render(res.cert.to_json())
    res.stages["certify"] = [(t1, t2)]


def _run_cli_op(aq, op, path, res):
    argv = [a.replace("{file}", str(path)) for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        res.exit_code = aq.cli.main(argv)
    res.text = out.getvalue()


def run_op(aq, op, algs, arqs, files, tracer):
    gc.collect()  # so no op pays for collecting the garbage of the one before
    first_span = len(tracer.spans)
    res = OpResult(start=clock())
    try:
        if op.kind == "cli":
            _run_cli_op(aq, op, files[op.file], res)
        else:
            _run_library_op(aq, op, algs[op.text], arqs, res)
    except (aq.errors.LimitExceeded, aq.errors.CapExceeded) as exc:
        res.error = ("limit", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # an op that raises is counted, the run goes on
        last = traceback.extract_tb(exc.__traceback__)[-1]
        res.error = ("error", f"{type(exc).__name__}: {exc} ({Path(last.filename).name}:{last.lineno})")
    res.end = clock()
    res.stages["knit"] = tracer.intervals("knitting.knit", first_span)
    return res


def run_pass(aq, ops, algs, files, tracer):
    """One pass over the ops; ``tracer`` is installed and wraps at least ``knit``."""
    arqs = {}
    return Pass([run_op(aq, op, algs, arqs, files, tracer) for op in ops])


# -- checking ----------------------------------------------------------------------


def check_pass(aq, ops, results, recorded):
    """Failures among one pass's results, by op index."""
    failures = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        base = op.repeats
        verdict = check(
            aq, op, res, recorded,
            base_result=results[base] if base is not None else None,
            base_op=ops[base] if base is not None else None,
        )
        if verdict is not None:
            failures[i] = verdict
    return failures


def compare_pass(first, later, failures):
    """Count an op whose report changed since the first pass."""
    for i, (res0, res) in enumerate(zip(first.results, later.results)):
        if i not in failures and res.text != res0.text:
            failures[i] = ("wrong", "report differs between passes")


def certify_counters(ops, results):
    examined = sincere = 0
    for op, res in zip(ops, results):
        if op.kind == "certify" and res.cert is not None:
            examined += res.cert.cuts_examined
            sincere += res.cert.sincere_qualifying_cuts
    return {"certify.cuts_examined": examined, "certify.sincere_qualifying_cuts": sincere}


# -- runs --------------------------------------------------------------------------


def timed_run(ops, files, seconds, recorded):
    with SpeedProbe() as probe:
        setup(ops)  # warm-up: a fresh checkout compiles its bytecode here
        setups = []
        for _ in range(SETUP_REPEATS):
            span, aq, algs = setup(ops)
            setups.append(span)
        # installed after the last import, so it wraps the ``knit`` the ops call
        with Tracer(KNIT_ONLY, []) as knit_timer:
            passes = [run_pass(aq, ops, algs, files, knit_timer)]
            failures = check_pass(aq, ops, passes[0].results, recorded)
            counters = certify_counters(ops, passes[0].results)
            passes[0].release()
            while sum(p.time(probe.net) for p in passes) + passes[-1].time(probe.net) <= seconds:
                passes.append(run_pass(aq, ops, algs, files, knit_timer))
                compare_pass(passes[0], passes[-1], failures)
                passes[-1].release()

    def median(measure, stage=None):
        return statistics.median(p.time(measure, stage) for p in passes)

    values = {
        "setup_s": statistics.median(probe.in_reference_units(*span) for span in setups)
        * REFERENCE_LOOP_S,
        "wall_ref": median(probe.in_reference_units),
        "knit_ref": median(probe.in_reference_units, "knit"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"passes": len(passes), "wall_s": median(probe.net), **counters}
    for stage in STAGES:
        info[f"{stage}_s"] = median(probe.net, stage)
        info[f"{stage}_ref"] = median(probe.in_reference_units, stage)
    info["reference_loop_ms"] = 1000 * statistics.median(probe.durations)
    info["setup_raw_s"] = statistics.median(probe.net(*span) for span in setups)
    return values, failures, passes[0].results, info


def traced_run(ops, files, recorded, spans_path):
    _elapsed, aq, algs = setup(ops)
    with SpeedProbe() as probe:
        with Tracer(KNIT_ONLY, []) as knit_timer:
            reference = run_pass(aq, ops, algs, files, knit_timer)
        aq = import_arquiver()
        tracer = Tracer()
        with tracer:
            algs = build_algebras(aq, ops)
            traced = run_pass(aq, ops, algs, files, tracer)
    failures = check_pass(aq, ops, traced.results, recorded)
    compare_pass(traced, reference, failures)
    values = layer_values(tracer)
    values.update(certify_counters(ops, traced.results))
    values.update({
        "stage.wall_s": reference.time(probe.net),
        **{f"stage.{stage}_s": reference.time(probe.net, stage) for stage in STAGES},
        "trace.wall_s": traced.time(probe.net),
        "trace.overhead": traced.time(probe.in_reference_units)
        / reference.time(probe.in_reference_units),
    })
    tracer.write_spans(spans_path)
    top = sorted(tracer.layer_self_s().items(), key=lambda kv: -kv[1])[:3]
    info = {
        "top_layers": top,
        "overhead": values["trace.overhead"],
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return values, failures, traced.results, info


# -- reporting ---------------------------------------------------------------------


def print_summary(workload, seed, ops, results, failures, values, info, traced, metrics):
    print(f"workload {workload}, seed {seed}: {len(ops)} ops, {len(failures)} failed")
    for i, (op, res) in enumerate(zip(ops, results)):
        status = "ok" if i not in failures else "FAILED {}: {}".format(*failures[i])
        print(f"  op {i:2d}  {op.label:<44s} {res.end - res.start:9.3f} s  {status}")
    if traced:
        names = ", ".join(f"{layer} {s:.3f} s" for layer, s in info["top_layers"])
        print(f"  tracing overhead {info['overhead']:.3f} (traced / untraced wall time, in reference units)")
        print(f"  most self time: {names}")
        print(f"  spans kept {info['spans_kept']}, dropped past the cap {info['spans_dropped']}")
        return
    print(f"  passes {info['passes']}, reference loop {info['reference_loop_ms']:.3f} ms (median)")
    for m in metrics:
        print(f"  {m['name']:<14s} {values[m['name']]:12.4f} {m['unit']}")
    print("  raw seconds, less the reference loops that ran inside (not gated):")
    for name in ("setup_raw_s", "wall_s", "knit_s", "certify_s", "quotient_s"):
        print(f"  {name:<14s} {info[name]:12.4f} s")
    for name in ("certify_ref", "quotient_ref"):
        print(f"  {name:<14s} {info[name]:12.4f} ref  (not gated: zero on some workloads)")
    print(f"  failed_ops     {len(failures)} of {len(ops)} ops")
    print(f"  cuts_examined {info['certify.cuts_examined']}, "
          f"sincere_qualifying_cuts {info['certify.sincere_qualifying_cuts']} (counters, not fingerprinted)")


def result_line(ops, failures, values, metrics):
    """The closing JSON object; only a ``wrong`` answer makes the run incorrect."""
    return {
        "correct": not any(category == "wrong" for category, _msg in failures.values()),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arquiver" / "__init__.py").is_file():
        print(f"error: no arquiver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    recorded = json.loads(RECORDED.read_text())

    ops = build_ops(args.workload, args.seed, recorded)
    OUT.mkdir(exist_ok=True)
    files = {}
    for op in ops:
        if op.file is not None:
            path = OUT / f"{args.workload}-{args.seed}-{op.file}"
            path.write_text(op.text)
            files[op.file] = path

    end_to_end, per_layer = load_benchmark()
    if args.trace:
        spans_path = OUT / f"{args.workload}-{args.seed}.spans.jsonl"
        values, failures, results, info = traced_run(ops, files, recorded, spans_path)
        metrics = per_layer
    else:
        values, failures, results, info = timed_run(ops, files, args.seconds, recorded)
        metrics = end_to_end
    print_summary(args.workload, args.seed, ops, results, failures, values, info, args.trace, metrics)
    print(json.dumps(result_line(ops, failures, values, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
