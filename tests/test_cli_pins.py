"""The bytes of ``ar build``, ``ar dot`` and ``quotient --emit-algebra``,
pinned.

Each digest is a sha256 prefix over the exit code, stdout, stderr and the
written file of every run for one input, with the CLI run in process.  The
digests were recorded before projective sums were built as direct sums of
the cached Ae_v and before the zero module took the general presentation
path; both changes must leave every byte alone.
"""

import hashlib
from itertools import islice

import pytest

from arquiver.algebra import build_basis, parse_presentation
from arquiver.cli import main
from arquiver.cuts import hom_tau_conflict, iter_cuts
from arquiver.knitting import knit
from tests.conftest import FIXTURES
from tests.test_cut_references import dynkin_text


def _text(label):
    if label == "D4 000":
        return dynkin_text("D", 4, "000")
    return (FIXTURES / label).read_text()


def _input(tmp_path, label):
    path = tmp_path / ("in.tq" if label.endswith(".tq") else "in.alg")
    path.write_text(_text(label))
    return str(path)


def _record(data, capsys, argv, written):
    """Feed the exit code, stdout, stderr and the file ``written`` (if the
    run wrote it) of one in-process run to ``data``."""
    if written.exists():
        written.unlink()
    rc = main(argv)
    captured = capsys.readouterr()
    emitted = written.read_text() if written.exists() else None
    data.update(repr((rc, captured.out, captured.err, emitted)).encode())


# tube_rank3.tq is a translation quiver: ``ar build`` refuses it (exit 2),
# and ``ar dot`` draws it
PINNED_AR = {
    "a2.alg": "17bcc402c4883da8",
    "a3_line.alg": "7aaea18da5000d14",
    "b_a3.alg": "0b427adee2daac5f",
    "cycle3_rad2.alg": "6cbb526cc59ffe99",
    "cycle4_rad2.alg": "ab87d54076e6be69",
    "kronecker.alg": "40567a15d92d929b",
    "tube_rank3.tq": "80a860ddb414618a",
    "D4 000": "0878829055f6e758",
}


@pytest.mark.parametrize("label", list(PINNED_AR))
def test_ar_build_and_dot_are_pinned(tmp_path, capsys, label):
    path = _input(tmp_path, label)
    # kronecker.alg exits 3 at the dimension limit, after its partial report
    limits = ["--max-dim", "8"] if label == "kronecker.alg" else []
    dot = tmp_path / "out.dot"
    data = hashlib.sha256()
    _record(data, capsys, ["ar", "build", path, *limits], dot)
    _record(data, capsys, ["ar", "dot", path, "--out", str(dot), *limits], dot)
    assert data.hexdigest()[:16] == PINNED_AR[label]


PINNED_QUOTIENTS = {
    "a2.alg": ("c1fe517b6682f0d3", 2),
    "a3_line.alg": ("932738c4b7895790", 4),
    "b_a3.alg": ("d14da9c0e37e0134", 3),
    "cycle3_rad2.alg": ("6f155826ab86d1fa", 3),
    "cycle4_rad2.alg": ("5d0dc5ab7f38ba8f", 4),
}


@pytest.mark.parametrize("label", list(PINNED_QUOTIENTS))
def test_quotients_by_the_first_cuts_are_pinned(tmp_path, capsys, label):
    path = _input(tmp_path, label)
    arq = knit(build_basis(parse_presentation(_text(label))))
    cuts = [sorted(c) for c in islice(iter_cuts(arq, conflict=hom_tau_conflict(arq)), 5)]
    emitted = tmp_path / "quotient.alg"
    data = hashlib.sha256()
    for cut in cuts:
        argv = ["quotient", path, "--modules", ",".join(cut), "--emit-algebra", str(emitted)]
        _record(data, capsys, argv, emitted)
    assert (data.hexdigest()[:16], len(cuts)) == PINNED_QUOTIENTS[label]
