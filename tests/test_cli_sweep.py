"""The byte-identity sweep: every CLI command on ladder inputs over four
fields, pinned by one digest per input.

An input is a source text and a field.  The sources are the fixtures, the
Dynkin orientations the benchmark knits but D8 and the rad^2 = 0 4-, 6- and
8-cycles; the fields are Q, F 2, F 3 and F 32003.  D8 is left out for time:
like E7, each of its inputs takes about 11 s, most of it ``cut enumerate``
walking to its cap, and its two orientations would add about 90 s to the
three and a half minutes of the full sweep.

For each input the CLI runs in process: ``algebra check``, ``ar build``,
``ar dot``, ``tilted certify`` and ``cut enumerate``, then ``cut check`` and
``quotient --emit-algebra`` on up to ``CUTS`` cuts, the first hom-vanishing
ones of the knit in walk order.  The digest is a sha256 prefix over the
exit code, stdout, stderr and written file of every run, as
``tests/test_cli_pins.py::_record`` reads them.

Tier-1 runs the inputs of ``SLICE``; the rest carry the ``sweep`` marker and
run with ``pytest -m sweep tests/test_cli_sweep.py``.  After a change that
must keep every report, print the digests with
``PYTHONPATH=src python -m tests.test_cli_sweep`` and compare.
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile
from itertools import islice

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cli import main
from arquiver.cuts import hom_tau_conflict, iter_cuts
from arquiver.errors import ArquiverError
from arquiver.formats import is_algebra_file, parse_translation_quiver
from arquiver.knitting import knit
from tests.conftest import FIXTURES
from tests.test_cut_references import dynkin_text
from tests.test_knitting import cycle_text

CUTS = 6
FIELDS = ["Q", "F 2", "F 3", "F 32003"]
DYNKIN = [
    ("A", 5, "0110"), ("A", 5, "1001"), ("A", 9, "11011000"), ("A", 9, "11100100"),
    ("D", 5, "0001"), ("D", 5, "0010"), ("D", 7, "000101"), ("D", 7, "000110"),
    ("E", 6, "01001"), ("E", 6, "11011"),
    ("E", 7, "000111"), ("E", 7, "110011"), ("E", 7, "011111"),
]
SOURCES = {
    **{name: (FIXTURES / name).read_text() for name in
       ["a2.alg", "a3_line.alg", "b_a3.alg", "cycle3_rad2.alg", "cycle4_rad2.alg", "kronecker.alg"]},
    **{f"{kind}{n} {o}": dynkin_text(kind, n, o) for kind, n, o in DYNKIN},
    **{f"C{n}": cycle_text(n) for n in (4, 6, 8)},
}
# the Kronecker algebra is of infinite type: every knitting command stops at this limit
LIMITS = {"kronecker.alg": ["--max-dim", "8"]}


def _inputs():
    """(label, text) of every input: each source over each field, and the
    tube, a translation quiver with no field."""
    out = {"tube_rank3.tq": (FIXTURES / "tube_rank3.tq").read_text()}
    for name, text in SOURCES.items():
        for field in FIELDS:
            out[f"{name} | {field}"] = text.replace("field Q\n", f"field {field}\n", 1)
    return out


INPUTS = _inputs()


def _first_cuts(text):
    """The first ``CUTS`` cuts the commands are run on: hom-vanishing ones
    for an algebra that knits within the default limits, any for a
    translation quiver, none otherwise."""
    try:
        if is_algebra_file(text):
            arq = knit(build_basis(parse_presentation(text)))
            cuts = iter_cuts(arq, conflict=hom_tau_conflict(arq))
        else:
            cuts = iter_cuts(parse_translation_quiver(text))
        return [sorted(c) for c in islice(cuts, CUTS)]
    except ArquiverError:
        return []


def sweep_digest(label, workdir):
    """The digest of every command's run on input ``label``, with files
    written under ``workdir``."""
    text = INPUTS[label]
    workdir = pathlib.Path(workdir)
    path = workdir / ("in.tq" if label.endswith(".tq") else "in.alg")
    path.write_text(text)
    written = workdir / "written"
    limits = LIMITS.get(label.split(" | ")[0], [])
    runs = [
        ["algebra", "check", str(path)],
        ["ar", "build", str(path), *limits],
        ["ar", "dot", str(path), "--out", str(written), *limits],
        ["tilted", "certify", str(path), *limits],
        ["cut", "enumerate", str(path), *limits],
    ]
    for cut in _first_cuts(text):
        modules = ",".join(cut)
        runs.append(["cut", "check", str(path), "--modules", modules, *limits])
        runs.append(["quotient", str(path), "--modules", modules, "--emit-algebra", str(written), *limits])
    data = hashlib.sha256()
    for argv in runs:
        if written.exists():
            written.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        emitted = written.read_text() if written.exists() else None
        data.update(repr((rc, out.getvalue(), err.getvalue(), emitted)).encode())
    return data.hexdigest()[:16]


PINNED = {
    'tube_rank3.tq': 'e9c916bb5ac7fa1f',
    'a2.alg | Q': '96a1d691ba17019e',
    'a2.alg | F 2': 'b5b007c41e19fe0c',
    'a2.alg | F 3': '67559e912edd6b48',
    'a2.alg | F 32003': '474eec7046ed685b',
    'a3_line.alg | Q': '6306748d9f31105e',
    'a3_line.alg | F 2': 'ce34a3fa6476338e',
    'a3_line.alg | F 3': '546e4f749acd11f6',
    'a3_line.alg | F 32003': '882cf284ff079ce9',
    'b_a3.alg | Q': '8c1bf3034c0737a7',
    'b_a3.alg | F 2': 'c2b904e1e827f636',
    'b_a3.alg | F 3': 'fc268cef89ceb158',
    'b_a3.alg | F 32003': '0f8b67593a1e846f',
    'cycle3_rad2.alg | Q': '4c01820b2256649c',
    'cycle3_rad2.alg | F 2': '3103699fd34623ae',
    'cycle3_rad2.alg | F 3': '44bdbf91bf941cf3',
    'cycle3_rad2.alg | F 32003': '78754399f9062085',
    'cycle4_rad2.alg | Q': 'fa31f6fd6a260d86',
    'cycle4_rad2.alg | F 2': 'f7c2dabcfdc91f20',
    'cycle4_rad2.alg | F 3': '9df1e84606d2dfac',
    'cycle4_rad2.alg | F 32003': 'db203318ae84367f',
    'kronecker.alg | Q': '89d76ac46f9441e3',
    'kronecker.alg | F 2': '99ea8924b1e7e2e7',
    'kronecker.alg | F 3': '4ac3b778699e6ddb',
    'kronecker.alg | F 32003': 'c0a891f3f5a38d7f',
    'A5 0110 | Q': 'c788fc5efea1c85f',
    'A5 0110 | F 2': '2a3ccaaf28aa9c66',
    'A5 0110 | F 3': 'c2c330696b15bb3e',
    'A5 0110 | F 32003': 'eefb33f9ea1e3937',
    'A5 1001 | Q': 'd519c5321f20d578',
    'A5 1001 | F 2': '79da4c264c2806da',
    'A5 1001 | F 3': '000244c13f052375',
    'A5 1001 | F 32003': 'f7fadcce050f64c5',
    'A9 11011000 | Q': 'c03c2ef24e865886',
    'A9 11011000 | F 2': 'f71f29b2b8460ca4',
    'A9 11011000 | F 3': 'b262a5017fc17b38',
    'A9 11011000 | F 32003': 'd56ceaab8622422f',
    'A9 11100100 | Q': '30a741cde6843ab5',
    'A9 11100100 | F 2': '248ce62d6d4203c4',
    'A9 11100100 | F 3': '2c79a6e041160631',
    'A9 11100100 | F 32003': '7fb42c3896703405',
    'D5 0001 | Q': '9e96a3a232e50842',
    'D5 0001 | F 2': '360cab9aa4104bd8',
    'D5 0001 | F 3': '8e92d7bc03d04b3e',
    'D5 0001 | F 32003': '9e3ddb6115a40f03',
    'D5 0010 | Q': '3147075dadfa44fb',
    'D5 0010 | F 2': 'a17effcd3b56aca6',
    'D5 0010 | F 3': '8824c300ebd2525d',
    'D5 0010 | F 32003': '23cf6822092b1e10',
    'D7 000101 | Q': '71ce45d3325be4d4',
    'D7 000101 | F 2': 'd1b3343b1e977747',
    'D7 000101 | F 3': '367a7c2af857c992',
    'D7 000101 | F 32003': 'ce9cd1668d508448',
    'D7 000110 | Q': '5da3ec9eb7985ef2',
    'D7 000110 | F 2': '96154b28b4bd774f',
    'D7 000110 | F 3': 'dcb84532f0e230f9',
    'D7 000110 | F 32003': '9cdcf0695fa05ca5',
    'E6 01001 | Q': 'c8fc12dde852a11f',
    'E6 01001 | F 2': '5183623a7c937f27',
    'E6 01001 | F 3': '43fbdb2b608a7b5d',
    'E6 01001 | F 32003': 'e27d3698cb740703',
    'E6 11011 | Q': '5a89498ea9def852',
    'E6 11011 | F 2': '4c1cc53325138aa3',
    'E6 11011 | F 3': '8a1d95afa8c0c907',
    'E6 11011 | F 32003': 'fae55a303cbf49d7',
    'E7 000111 | Q': '651574387fb5727e',
    'E7 000111 | F 2': '072101a931937261',
    'E7 000111 | F 3': '73e51294c111d442',
    'E7 000111 | F 32003': 'a77141db6e7b11b3',
    'E7 110011 | Q': '5a521fc6c288ea88',
    'E7 110011 | F 2': 'bb7c7bb3c5e57f88',
    'E7 110011 | F 3': '1911f07a6a6b6f45',
    'E7 110011 | F 32003': '99f4e5b3ab4314d8',
    'E7 011111 | Q': '46545c7bdda5b0c9',
    'E7 011111 | F 2': 'e8adf4d76f8e0c1c',
    'E7 011111 | F 3': '616e790448a46c77',
    'E7 011111 | F 32003': '10200dd753580872',
    'C4 | Q': '001175ba6c88aec8',
    'C4 | F 2': '54b6e29c3a7a8966',
    'C4 | F 3': 'b5d65a5620ad3ca5',
    'C4 | F 32003': 'b27feee59d73a736',
    'C6 | Q': '594d560a54d04a0c',
    'C6 | F 2': 'f1e65db47d397ab6',
    'C6 | F 3': 'd759c2fcd3edee64',
    'C6 | F 32003': '568b9ea9b07831e6',
    'C8 | Q': 'b0ac735ab3961c30',
    'C8 | F 2': 'f441990ec0c4db83',
    'C8 | F 3': 'ab56f8011d82a7e3',
    'C8 | F 32003': 'b14b2d6183a10a14',
}

SLICE = [
    "tube_rank3.tq", "a2.alg | Q", "b_a3.alg | F 2", "cycle3_rad2.alg | F 3",
    "A5 1001 | F 3", "C6 | Q", "C4 | F 32003",
]


@pytest.mark.parametrize(
    "label", [label if label in SLICE else pytest.param(label, marks=pytest.mark.sweep) for label in INPUTS]
)
def test_every_command_is_pinned(tmp_path, label):
    assert sweep_digest(label, tmp_path) == PINNED[label]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for label in INPUTS:
            print(f"    {label!r}: {sweep_digest(label, workdir)!r},", flush=True)
