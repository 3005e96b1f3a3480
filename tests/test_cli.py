import argparse
import hashlib
import inspect
import json
import multiprocessing
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from argparse import Namespace
from pathlib import Path

import pytest

from toricjets import ABOVE_M, ToricSurface, cli, components, equations, hj_evaluate, jets, oracle
from toricjets.cli import _analyze_frame, _canonical_json, _csv_text, _label_str, _yes_no, main
from toricjets.components import class_runs, count_closed_form, enumerate_classes, main_codim
from toricjets.equations import generators, minus_walk
from toricjets.lattice import exceptional_count_dual_cf
from conftest import coprime_family, plant_in_series
import test_components

GOLDEN = Path(__file__).parent / "golden"

# (golden file, argv): every rendering of every command, pinned whole
GOLDEN_OUTPUTS = [
    *(
        (f"analyze_p{p}_q{q}_m{m}.{fmt}",
         ["analyze", "--p", str(p), "--q", str(q), "--m", str(m), "--format", fmt])
        for p, q, m in [(2, 3, 5), (3, 5, 4), (5, 7, 3)]
        for fmt in ("md", "csv")
    ),
    *(
        (f"witness_p3_q5_m{m}_i3_s1_l{l}.{fmt}",
         ["witness", "--p", "3", "--q", "5", "--m", str(m),
          "--i", "3", "--s", "1", "--l", str(l), "--format", fmt])
        for m, l in [(4, 2), (2, 1)]  # m=2: x1 has order 3, censored as above_m
        for fmt in ("json", "md", "csv")
    ),
    *(
        (f"verify_p{p}_q{q}_m{m}_f{f}.{fmt}",
         ["verify", "--p", str(p), "--q", str(q), "--m", str(m), "--field", str(f),
          "--format", fmt])
        # (5,7): e = 5, an s = 2 propagation check, 7 strata, 768 closure points
        for p, q, m, f in [(2, 3, 1, 3), (5, 7, 3, 2)]
        for fmt in ("json", "md", "csv")
    ),
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without_runtime(out):
    """verify output with its wall-clock readings zeroed."""
    out = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out)
    return re.sub(r"^- runtime: \d+ ms$", "- runtime: 0 ms", out, flags=re.M)


@pytest.mark.parametrize("name,argv", GOLDEN_OUTPUTS, ids=[n for n, _ in GOLDEN_OUTPUTS])
def test_output_matches_golden(capsys, name, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert _without_runtime(out) == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "p,q,m",
    [(2, 3, 5), (3, 5, 4), (5, 7, 3)],
)
def test_analyze_json_matches_golden(capsys, p, q, m):
    code, out, err = _run(
        capsys,
        ["analyze", "--p", str(p), "--q", str(q), "--m", str(m), "--format", "json"],
    )
    assert code == 0 and err == ""
    want = (GOLDEN / f"analyze_p{p}_q{q}_m{m}.json").read_text()
    assert out == want


def _wide(e, end):
    """The bench's wide shape: entries all 2 but the one at end, which is 3."""
    entries = [2] * (e - 2)
    entries[end] = 3
    q, p = hj_evaluate(entries)
    return ToricSurface.from_pair(p, q)


WIDE_100 = _wide(100, -1)


@pytest.mark.parametrize("argv", [
    ["analyze", "--p", "3", "--q", "5", "--m", "4"],
    ["analyze", "--p", str(WIDE_100.p), "--q", str(WIDE_100.q), "--m", "12"],
    ["verify", "--p", "2", "--q", "3", "--m", "1", "--field", "3"],
    ["witness", "--p", "3", "--q", "5", "--m", "1000", "--i", "3", "--s", "1", "--l", "2"],
], ids=["analyze-3-5-4", "analyze-e100-12", "verify-2-3-1-f3", "witness-3-5-1000"])
def test_json_is_canonical(capsys, argv):
    code, out, _ = _run(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# (surface, m): every pair with q <= 30 at three levels, wide shapes, deep levels
WRITER_CASES = [
    *((surf, m) for surf in coprime_family(30) for m in (1, 4, 11)),
    *((_wide(e, end), 12) for e in (40, 100) for end in (0, -1)),
    *((ToricSurface.from_pair(p, q), 200) for p, q in [(2, 3), (3, 5)]),
]


# The analyze document, built from generators and enumerate_classes, and its md
# and csv renderers: the references of cli's analyze writers, which read the
# scans.


def _mono_str(exponents) -> str:
    parts = []
    for k, a in enumerate(exponents, start=1):
        if a:
            parts.append(f"x{k}" + (f"^{a}" if a > 1 else ""))
    return "*".join(parts) if parts else "1"


def _analyze_doc(surface: ToricSurface, args) -> dict:
    """The source of md and csv, and the reference for _analyze_json."""
    classes = enumerate_classes(surface, args.m)
    exceptional = exceptional_count_dual_cf(surface.cone)
    equations = [
        {"i": eq.i, "j": eq.j, "minus_exponents": list(eq.minus_exponents)}
        for eq in generators(surface)
    ]
    comp = {
        "m": args.m,
        "classes": [{"canonical": list(cl.canonical), "members": [list(x) for x in cl.members],
                     "s": cl.s, "codim": cl.codim, "dim": cl.dim} for cl in classes],
        "N": {"enumerated": len(classes), "closed_form": count_closed_form(surface, args.m)},
        "s1_count": sum(cl.s == 1 for cl in classes),
        "exceptional": exceptional,
        "main_codim": main_codim(surface, args.m),
    }
    return _analyze_frame(surface, exceptional, equations, comp)


def _analyze_md(doc: dict) -> str:
    surf = doc["surface"]
    comp = doc["components"]
    exc = doc["exceptional"]
    lines = [
        f"# analyze p={surf['p']} q={surf['q']} m={comp['m']}",
        "",
        f"- continued fraction entries: {surf['entries']}",
        f"- embedding dimension e: {surf['e']}",
        "- dual basis: " + ", ".join(f"({u[0]}, {u[1]})" for u in surf["dual_basis"]),
        f"- exceptional divisors: dual_cf={exc['dual_cf']} hull={exc['hull']} "
        f"agree={_yes_no(exc['agree'])}",
        "",
        "## Defining equations",
        "",
        "| i | j | relation |",
        "| - | - | - |",
    ]
    e = surf["e"]
    for eq in doc["equations"]:
        plus = [0] * e
        plus[eq["i"] - 1] = 1
        plus[eq["j"] - 1] = 1
        lines.append(
            f"| {eq['i']} | {eq['j']} | "
            f"{_mono_str(plus)} = {_mono_str(eq['minus_exponents'])} |"
        )
    lines += [
        "",
        f"## Component classes at m={comp['m']}",
        "",
        "| canonical | members | s | codim | dim |",
        "| - | - | - | - | - |",
    ]
    for cl in comp["classes"]:
        members = " ".join(_label_str(x) for x in cl["members"])
        lines.append(
            f"| {_label_str(cl['canonical'])} | {members} | {cl['s']} "
            f"| {cl['codim']} | {cl['dim']} |"
        )
    lines += [
        "",
        f"- N enumerated: {comp['N']['enumerated']}",
        f"- N closed form: {comp['N']['closed_form']}",
        f"- classes with s=1: {comp['s1_count']}",
        f"- exceptional divisors: {comp['exceptional']}",
        f"- main component codim: {comp['main_codim']}",
    ]
    return "\n".join(lines)


def _analyze_csv(doc: dict) -> str:
    rows = []
    for cl in doc["components"]["classes"]:
        ci, cs, cl_ = cl["canonical"]
        members = ";".join(f"{i}:{s}:{l}" for i, s, l in cl["members"])
        rows.append([ci, cs, cl_, cl["s"], cl["codim"], cl["dim"], members])
    return _csv_text(
        ["canonical_i", "canonical_s", "canonical_l", "s", "codim", "dim", "members"],
        rows,
    )


# format -> (the cli writer, looked up at each call so that a fault planted in
# cli reaches it, and the reference renderer of the document)
ANALYZE_WRITERS = {
    "json": (lambda surf, m: cli._analyze_json(surf, m), _canonical_json),
    "md": (lambda surf, m: cli._analyze_md(surf, m), _analyze_md),
    "csv": (lambda surf, m: cli._analyze_csv(surf, m), _analyze_csv),
}


def _writer_mismatch(formats=tuple(ANALYZE_WRITERS)):
    """The first (p, q, m, format) of WRITER_CASES and formats where the cli
    analyze writer differs from the reference rendering of the document, or
    None."""
    for surf, m in WRITER_CASES:
        doc = _analyze_doc(surf, Namespace(m=m))
        for fmt in formats:
            write, reference = ANALYZE_WRITERS[fmt]
            if write(surf, m) != reference(doc):
                return surf.p, surf.q, m, fmt
    return None


def test_analyze_json_writer_matches_the_document(capsys):
    assert _writer_mismatch() is None
    surf = WIDE_100
    code, out, err = _run(capsys, ["analyze", "--p", str(surf.p), "--q", str(surf.q),
                                   "--m", "12", "--format", "json"])
    assert code == 0 and err == ""
    assert out == cli._analyze_json(surf, 12) + "\n"


def _plant_in_walk(monkeypatch, at, plant, into=(cli,)):
    """Patch over checked_walk in each module of into a copy of it whose
    minus_walk yields plant(grow, last) -> (grow, last) at step at = (i, j),
    so the planted step still meets the shape check.  equations.minus_walk is
    left as it is: generators, which the references _analyze_doc and
    _writer_mismatch read, and membership draw the real walk."""
    def walk(surface):
        for i, steps in minus_walk(surface):
            yield i, ((j, *plant(grow, last)) if (i, j) == at else (j, grow, last)
                      for j, grow, last in steps)

    namespace = dict(vars(equations), minus_walk=walk)
    exec(textwrap.dedent(inspect.getsource(equations.checked_walk)), namespace)
    for module in into:
        monkeypatch.setattr(module, "checked_walk", namespace["checked_walk"])


def test_analyze_json_writer_catches_a_grow_off_by_one(monkeypatch):
    _plant_in_walk(monkeypatch, (1, 4), lambda grow, last: ((grow[0], grow[1] + 1), last))
    assert _writer_mismatch(("json",)) is not None


def _plant_in_source(monkeypatch, module, name, good, bad, into=()):
    """Re-execute module.name's source with good replaced by bad, and patch the
    result over name in module and in every module of into."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(good) == 1
    namespace = dict(vars(module))
    exec(source.replace(good, bad), namespace)
    for target in (module, *into):
        monkeypatch.setattr(target, name, namespace[name])


def test_analyze_json_writer_catches_a_short_zero_run(monkeypatch):
    # the zero run after the closing factor, one position short
    _plant_in_source(monkeypatch, cli, "_analyze_json",
                     "zeros[:11 * (e - j + 1)]", "zeros[:11 * (e - j)]")
    assert _writer_mismatch(("json",)) is not None


def test_analyze_json_writer_catches_a_singleton_member_off_by_one(monkeypatch):
    # the span's template writes (i, s, l+1) among the members of (i, s, l)
    _plant_in_source(monkeypatch, cli, "_analyze_json",
                     "single % (l, l)", "single % (l, l + 1)")
    assert _writer_mismatch(("json",)) is not None


def test_analyze_json_writer_catches_s1_count_over_every_s(monkeypatch):
    _plant_in_source(monkeypatch, cli, "_analyze_json", "if s == 1:", "if True:")
    assert _writer_mismatch(("json",)) is not None


def test_analyze_json_writer_catches_a_glued_run_as_a_singleton(monkeypatch):
    # each glued run goes through the singleton template, which keeps only
    # its first member (i, s, s)
    def runs(surface, m):
        for s, codim, dim, groups in class_runs(surface, m):
            yield s, codim, dim, [(g[0][0], range(s, s + 1)) if isinstance(g, list) else g
                                  for g in groups]

    monkeypatch.setattr(cli, "class_runs", runs)
    assert _writer_mismatch(("json",)) is not None


def test_analyze_md_writer_catches_a_grow_off_by_one(monkeypatch):
    _plant_in_walk(monkeypatch, (1, 4), lambda grow, last: ((grow[0], grow[1] + 1), last))
    assert _writer_mismatch(("md",)) is not None


def test_analyze_md_writer_catches_a_printed_zero_grow_factor(monkeypatch):
    # an entry c_k = 2 grows the running product by x_k^0, which is not printed
    _plant_in_source(monkeypatch, cli, "_analyze_md", "if grow and grow[1]:", "if grow:")
    assert _writer_mismatch(("md",)) is not None


def test_analyze_md_writer_catches_s1_count_over_every_s(monkeypatch):
    _plant_in_source(monkeypatch, cli, "_analyze_md", "cl.s == 1", "True")
    assert _writer_mismatch(("md",)) is not None


def test_analyze_csv_writer_catches_a_glued_class_cut_to_its_canonical(monkeypatch):
    _plant_in_source(monkeypatch, cli, "_analyze_csv", "in cl.members", "in cl.members[:1]")
    assert _writer_mismatch(("csv",)) is not None


def test_class_runs_span_off_by_one_reaches_both_consumers(capsys, monkeypatch):
    # a span one past its end: every consumer of class_runs agrees, so the
    # writer check cannot see it, but the union-find reference and the count do
    _plant_in_source(monkeypatch, components, "class_runs",
                     "range(s + 1, top + 1)", "range(s + 1, top + 2)", into=(cli,))
    assert _writer_mismatch() is None
    with pytest.raises(AssertionError):
        test_components.test_classes_match_union_find_reference(coprime_family(12))
    code, out, _ = _run(capsys, ["analyze", "--p", "3", "--q", "5", "--m", "4",
                                 "--format", "json"])
    n = json.loads(out)["components"]["N"]
    assert code == 0 and n["enumerated"] != n["closed_form"]


def test_analyze_json_refuses_a_last_factor_off_its_place(capsys, monkeypatch):
    _plant_in_walk(monkeypatch, (1, 4), lambda grow, last: (grow, (last[0] - 1, last[1])))
    code, out, err = _run(capsys, ["analyze", "--p", "3", "--q", "5", "--m", "4",
                                   "--format", "json"])
    assert code == 2 and out == ""
    assert "step (i=1, j=4) of minus_walk" in err


def test_analyze_md_refuses_a_last_factor_off_its_place(capsys, monkeypatch):
    _plant_in_walk(monkeypatch, (1, 4), lambda grow, last: (grow, (last[0] - 1, last[1])))
    argv = ["analyze", "--p", "3", "--q", "5", "--m", "4"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "step (i=1, j=4) of minus_walk" in err
    # csv writes no equation, so it never reads the walk
    code, out, err = _run(capsys, argv + ["--format", "csv"])
    assert code == 0 and out == (GOLDEN / "analyze_p3_q5_m4.csv").read_text()


# sha256 of analyze --p 999 --q 2000 --m 3 (e = 502) as the document-based
# writers printed it; json, 701 MB, is left out
E502_SHA256 = {
    "md": "bf336e991f43d74d0df0381fdc9646eea269d9469eedf62cc47e3e8db6dd489a",
    "csv": "b6f3f1351039624882e965bad39e10c77f0b73e39125e5d73a65374e6da9aec4",
}


def _refuse_dense_document(monkeypatch, command):
    """Make generators and a BinomialEquation raise.  The generators cache is emptied first, so a call
    through any binding of the real generators builds a BinomialEquation."""
    def refuse(*args):
        raise AssertionError(f"{command} built the dense document")

    generators.cache_clear()
    monkeypatch.setattr(equations, "generators", refuse)
    monkeypatch.setattr(equations.BinomialEquation, "__post_init__", refuse)
    with pytest.raises(AssertionError):  # the spy is live
        generators(ToricSurface.from_pair(3, 5))


@pytest.mark.parametrize("fmt", ["json", "md", "csv"])
def test_analyze_builds_no_dense_document(capsys, monkeypatch, fmt):
    _refuse_dense_document(monkeypatch, f"analyze --format {fmt}")
    code, out, err = _run(capsys, ["analyze", "--p", "3", "--q", "5", "--m", "4",
                                   "--format", fmt])
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"analyze_p3_q5_m4.{fmt}").read_text()
    if fmt in E502_SHA256:
        code, out, err = _run(capsys, ["analyze", "--p", "999", "--q", "2000", "--m", "3",
                                       "--format", fmt])
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == E502_SHA256[fmt]


@pytest.mark.parametrize("fmt", ["json", "md", "csv"])
def test_verify_and_witness_build_no_dense_document(capsys, monkeypatch, fmt):
    _refuse_dense_document(monkeypatch, f"verify or witness --format {fmt}")
    for name, argv in GOLDEN_OUTPUTS:
        if name.endswith(f".{fmt}") and name.startswith(("verify_p5", "witness_p3_q5_m4")):
            code, out, err = _run(capsys, argv)
            assert code == 0 and err == ""
            assert _without_runtime(out) == (GOLDEN / name).read_text()


def test_analyze_json_builds_no_class_objects(capsys, monkeypatch):
    wide = [(surf, m) for surf, m in WRITER_CASES if surf.e == 100]
    wants = [_canonical_json(_analyze_doc(surf, Namespace(m=m))) for surf, m in wide]

    def refuse(*args, **kwargs):
        raise AssertionError("analyze --format json built a ComponentClass")

    monkeypatch.setattr(cli, "enumerate_classes", refuse)
    monkeypatch.setattr(components, "enumerate_classes", refuse)
    monkeypatch.setattr(components.ComponentClass, "__new__", refuse)
    with pytest.raises(AssertionError):
        components.ComponentClass((2, 1, 1), ((2, 1, 1),), 1, 1, 1)
    code, out, err = _run(capsys, ["analyze", "--p", "3", "--q", "5", "--m", "4",
                                   "--format", "json"])
    assert code == 0 and err == ""
    assert out == (GOLDEN / "analyze_p3_q5_m4.json").read_text()
    for (surf, m), want in zip(wide, wants, strict=True):
        code, out, err = _run(capsys, ["analyze", "--p", str(surf.p), "--q", str(surf.q),
                                       "--m", str(m), "--format", "json"])
        assert code == 0 and err == ""
        assert out == want + "\n"


def test_analyze_md_default(capsys):
    code, out, _ = _run(capsys, ["analyze", "--p", "3", "--q", "5", "--m", "4"])
    assert code == 0
    assert out.startswith("# analyze p=3 q=5 m=4\n")
    assert "| (2,1,1) | (2,1,1) (3,1,2) | 1 | 10 | 10 |" in out
    assert "x1*x4 = x2*x3^2" in out
    assert "- N enumerated: 4" in out


def test_analyze_csv(capsys):
    code, out, _ = _run(capsys, ["analyze", "--p", "3", "--q", "5", "--m", "4",
                                 "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "canonical_i,canonical_s,canonical_l,s,codim,dim,members"
    assert lines[1] == "2,1,1,1,10,10,2:1:1;3:1:2"
    assert len(lines) == 5


def test_analyze_rejects_bad_input(capsys):
    for argv, fragment in [
        (["analyze", "--p", "4", "--q", "6", "--m", "2"], "gcd"),
        (["analyze", "--p", "5", "--q", "3", "--m", "2"], "0 < p < q"),
        (["analyze", "--p", "1", "--q", "7", "--m", "2"], "embedding dimension"),
        (["analyze", "--p", "2", "--q", "3", "--m", "0"], "m must be >= 1"),
    ]:
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert fragment in err


def test_witness_json_frozen(capsys):
    code, out, _ = _run(capsys, ["witness", "--p", "3", "--q", "5", "--m", "4",
                                 "--i", "3", "--s", "1", "--l", "2",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["v"] == [1, 1]
    assert doc["inside"] is True
    assert doc["member"] is True
    assert doc["orders"] == [1, 1, 1, 2]
    assert doc["realized"] == [1, 2]
    assert doc["over_origin"] is True
    assert doc["jet"]["characteristic"] == 0
    assert doc["jet"]["coords"][0] == ["0/1", "1/1", "0/1", "0/1", "0/1"]
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_witness_md(capsys):
    code, out, _ = _run(capsys, ["witness", "--p", "3", "--q", "5", "--m", "4",
                                 "--i", "3", "--s", "1", "--l", "1"])
    assert code == 0
    assert "- contact vector v: (2, 3)" in out
    assert "x1 = t^3" in out
    assert "x4 = t" in out
    assert "- realized (s, l): (1, 1)" in out


def test_witness_censored_order_serialization(capsys):
    # (3,5) label (3,1,1) has v=(2,3) with <u1,v>=3 above m=2: shown as above_m
    code, out, _ = _run(capsys, ["witness", "--p", "3", "--q", "5", "--m", "2",
                                 "--i", "3", "--s", "1", "--l", "1",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == ["above_m", 2, 1, 1]
    assert doc["realized"] == [1, 1]


def test_witness_csv(capsys):
    code, out, _ = _run(capsys, ["witness", "--p", "3", "--q", "5", "--m", "4",
                                 "--i", "3", "--s", "1", "--l", "2",
                                 "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("p,q,m,i,s,l,v1,v2,inside,member,orders,"
                        "realized_s,realized_l")
    assert lines[1] == "3,5,4,3,1,2,1,1,yes,yes,1;1;1;2,1,2"


@pytest.mark.parametrize("fmt,line", [
    ("md", "- orders: 1, 1, 1, 2"),
    ("csv", "3,5,10000000,2,1,1,1,1,yes,yes,1;1;1;2,1,1"),
])
def test_witness_md_and_csv_build_no_dense_rows(capsys, monkeypatch, fmt, line):
    # md and csv print the orders alone: at m = 10^7 a dense row would hold
    # 10^7 coefficients, and the spy fails the test if one is built
    def dense(jet):
        pytest.fail("witness built the dense coefficient rows")

    monkeypatch.setattr(jets.TruncatedJet, "coords", property(dense))
    with pytest.raises(pytest.fail.Exception):  # the spy is live
        jets.monomial_arc(ToricSurface.from_pair(3, 5), (1, 1), 4).coords
    code, out, err = _run(capsys, ["witness", "--p", "3", "--q", "5", "--m", "10000000",
                                   "--i", "2", "--s", "1", "--l", "1", "--format", fmt])
    assert (code, err) == (0, "")
    assert line in out.splitlines()


def test_witness_rejects_l_outside_cap(capsys):
    code, out, err = _run(capsys, ["witness", "--p", "3", "--q", "5", "--m", "4",
                                   "--i", "2", "--s", "1", "--l", "2"])
    assert code == 2
    assert "[1, 1]" in err  # the valid interval for i=2, s=1


def test_witness_rejects_bad_i(capsys):
    code, _, err = _run(capsys, ["witness", "--p", "3", "--q", "5", "--m", "4",
                                 "--i", "4", "--s", "1", "--l", "1"])
    assert code == 2


def test_verify_md_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "2",
                                 "--field", "3"])
    assert code == 0
    assert "- [PASS] grading: 3 generators checked" in out
    assert "- [PASS] order_propagation_s1: full space at m=1" in out
    assert "- [PASS] stratum_count_prediction:" in out
    assert "- result: PASS" in out


def test_verify_json_fields(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                 "--field", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "pass"
    assert doc["points_visited"] == 3 ** 4 + 3 ** 8
    assert isinstance(doc["runtime_ms"], int)
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "grading",
        "monomial_arc_witnesses",
        "count_agreement",
        "order_propagation_s1",
        "stratum_nonempty",
        "stratum_min_order",
        "stratum_disjoint",
        "no_impossible_profiles",
        "stratum_count_prediction",
    ]
    assert all(c["status"] == "pass" for c in doc["checks"])
    experimental = doc["checks"][-1]
    assert experimental["hard"] is False
    assert doc["strata"] == [
        {"count": 36, "label": [2, 1, 1], "match": True, "predicted": 36},
        {"count": 36, "label": [3, 1, 1], "match": True, "predicted": 36},
    ]
    assert doc["coverage"]["total"] == 81


def test_verify_strict_marks_prediction_hard(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                 "--field", "3", "--format", "json", "--strict"])
    assert code == 0  # predictions match, so strict still passes
    doc = json.loads(out)
    assert doc["checks"][-1]["name"] == "stratum_count_prediction"
    assert doc["checks"][-1]["hard"] is True


def test_verify_csv(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                 "--field", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,status,hard,detail"
    assert lines[1].startswith("grading,pass,yes,")


def test_verify_guard_flag(capsys):
    code, out, err = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "2",
                                   "--field", "3", "--guard", "100"])
    assert code == 3
    assert "3^12 points" in err
    assert "raise the guard" in err


def test_verify_refuses_a_large_field_before_any_table(capsys, monkeypatch):
    # the oracle's discrete logs are taken to the least primitive root,
    # found in O(sqrt p) steps once a walk meets a lead other than 1: a
    # refusal at p = 10^9+7 stays cheap
    built = []
    real = oracle._primitive_root
    monkeypatch.setattr(oracle, "_primitive_root", lambda p: built.append(p) or real(p))
    t0 = time.monotonic()
    code, out, err = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                   "--field", "1000000007", "--guard", "1"])
    assert time.monotonic() - t0 < 1.0
    assert code == 3 and out == ""
    assert "raise the guard" in err
    assert built == []


def test_verify_reads_discrete_logs_without_a_table(capsys):
    # past the guard at p = 10^6+3 and m = 1 every walk node leads its rows
    # with 1, whose log needs no table: an O(p) table would trace 40 MB
    # here, and some 4 GB at p = 10^8+7
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        code, out, _ = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                     "--field", "1000003", "--guard", str(10 ** 80),
                                     "--format", "json"])
        elapsed, (_, peak) = time.monotonic() - t0, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["result"] == "pass"
    assert peak < 4 << 20 and elapsed < 2.0


def test_verify_rejects_composite_field(capsys):
    code, _, err = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                 "--field", "6"])
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("field", [2 ** 127 - 1, (10 ** 12 + 39) * (10 ** 12 + 61), 4],
                         ids=["prime-2^127-1", "composite-two-large-factors", "composite-4"])
def test_verify_decides_the_field_before_any_walk(capsys, field):
    # a prime past the bound of exact Miller-Rabin, and a composite whose
    # least factor is 10^12+39, where trial division up to sqrt(p) would
    # run for hours, are refused at once, each with one line of stderr
    t0 = time.monotonic()
    code, out, err = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                   "--field", str(field)])
    assert time.monotonic() - t0 < 1.0
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_verify_refuses_before_the_symbolic_suite(capsys, monkeypatch):
    def grading_check(surface):
        raise AssertionError("the symbolic suite ran before the refusal")

    monkeypatch.setattr(cli, "grading_check", grading_check)
    with pytest.raises(AssertionError):  # the spy is live
        main(["verify", "--p", "2", "--q", "3", "--m", "1", "--field", "3"])
    t0 = time.monotonic()
    code, out, err = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "3000",
                                   "--field", "2"])
    assert code == 3 and out == ""
    assert "raise the guard" in err
    code, out, err = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "3000",
                                   "--field", "4"])
    assert code == 2 and out == ""
    assert "prime" in err
    assert time.monotonic() - t0 < 0.5


def _check_refusal_past_the_digit_limit(capsys):
    # (5,7) F_7 m=1017 needs 7^5090 points, 4,302 decimal digits: one past
    # the most that Python converts an int to text
    t0 = time.monotonic()
    code, out, err = _run(capsys, ["verify", "--p", "5", "--q", "7", "--field", "7",
                                   "--m", "1017"])
    assert time.monotonic() - t0 < 1.0
    assert code == 3 and out == ""
    assert "7^5090 points" in err and len(err) < 200


def test_verify_refuses_a_budget_past_the_int_to_text_limit(capsys):
    _check_refusal_past_the_digit_limit(capsys)


def test_refusal_check_catches_a_budget_written_as_an_integer(capsys, monkeypatch):
    # the message writes p^N as the decimal integer it stands for, to the power 1
    real = oracle._full_space

    def as_integer(surface, config):
        p, n = real(surface, config)
        return p ** n, 1

    monkeypatch.setattr(oracle, "_full_space", as_integer)
    with pytest.raises((AssertionError, ValueError)):
        _check_refusal_past_the_digit_limit(capsys)


# e = 5 with an s = 2 stratum check; every check passes unplanted (see the golden)
VERIFY_5_7 = ["verify", "--p", "5", "--q", "7", "--m", "3", "--field", "2",
              "--format", "json"]


def _failed_checks(capsys):
    code, out, _ = _run(capsys, VERIFY_5_7)
    failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] != "pass"]
    return code, failed


@pytest.mark.parametrize("plant", [
    lambda grow, last: ((grow[0], grow[1] + 1), last),
    lambda grow, last: (grow, (last[0], last[1] + 1)),
], ids=["grow", "closing"])
def test_grading_catches_an_exponent_off_by_one(capsys, monkeypatch, plant):
    # an exponent one too high, still on the walk's shape; membership reads
    # minus_walk, not checked_walk, so only grading sees it
    _plant_in_walk(monkeypatch, (1, 4), plant, into=(equations,))
    assert _failed_checks(capsys) == (1, ["grading"])


def _plant_in_fiber(monkeypatch, edit):
    """verify's fiber profile counts go through edit(profiles) before they
    are classified."""
    real = cli.fiber_profiles

    def planted(surface, config):
        profiles = real(surface, config)
        edit(profiles)
        return profiles

    monkeypatch.setattr(cli, "fiber_profiles", planted)


def _move_one_point(profiles, old, new):
    profiles[old] -= 1
    profiles[new] += 1
    if not profiles[old]:
        del profiles[old]


def test_stratum_min_order_catches_an_order_below_s(capsys, monkeypatch):
    def edit(profiles):
        # a point of stratum (2,2,2): ord x2 = ord x3 = 2; x1 is in no key
        profile = next(pr for pr in profiles if pr[1:3] == (2, 2))
        _move_one_point(profiles, profile, (1,) + profile[1:])

    _plant_in_fiber(monkeypatch, edit)
    assert _failed_checks(capsys) == (1, ["stratum_min_order"])


def test_stratum_disjoint_catches_a_repeated_label(capsys, monkeypatch):
    real = oracle.valid_labels
    monkeypatch.setattr(oracle, "valid_labels", lambda surface, m: (
        real(surface, m) + real(surface, m)[:1]))
    assert _failed_checks(capsys) == (1, ["stratum_disjoint"])


def test_no_impossible_profiles_catches_one(capsys, monkeypatch):
    def edit(profiles):
        # the zero jet is a closure point; give it ord x2 = 1, ord x3 = 2:
        # l = 2 > (c_2 - 1) * 1 with c_2 * 1 = 2 <= m, and (2,1,2) is no label
        assert profiles[(ABOVE_M,) * 5] == 1
        _move_one_point(profiles, (ABOVE_M,) * 5, (ABOVE_M, 1, 2, ABOVE_M, ABOVE_M))

    _plant_in_fiber(monkeypatch, edit)
    code, out, _ = _run(capsys, VERIFY_5_7)
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert code == 1
    assert [name for name, c in checks.items() if c["status"] != "pass"] == [
        "no_impossible_profiles"]
    # one point flagged, out of the fiber's points outside every stratum
    closure = doc["coverage"]["closure"]
    assert checks["no_impossible_profiles"]["detail"] == f"1 flagged, {closure} closure points"
    assert doc["coverage"]["impossible"] == 1


def _propagation_status(capsys, p, q, m):
    code, out, _ = _run(capsys, ["verify", "--p", str(p), "--q", str(q), "--m", str(m),
                                 "--field", "2", "--format", "json"])
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    return code, {name: st for name, st in status.items() if name.startswith("order_prop")}


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (2, 5), (5, 7)])
def test_order_propagation_s2_catches_a_dropped_top_residual(capsys, monkeypatch, p, q):
    # the residual of each upper layer k over its tangent condition,
    # r_k + sum over g < k of D_(k-g) a_g, is dropped: every layer solves
    # J(x_0) a_k = 0 as if it had no residual, so every candidate at level 1
    # with a tangent direction along its pair seems to have members above it
    plant_in_series(monkeypatch, lambda plus, minus, grad: (
        (), (), {l: [(d, c) for d, c in terms if d < 1] for l, terms in grad.items()}))
    code, status = _propagation_status(capsys, p, q, 3)
    assert code == 1
    assert status["order_propagation_s2"] == "fail"
    # the t^1 coefficient along a constant layer is zero: no residual to drop
    assert status["order_propagation_s1"] == "pass"


def test_order_propagation_s1_catches_a_void_tangent_condition(capsys, monkeypatch):
    # every constant layer treated as the origin, D_0 = J = 0: a member with
    # a unit coordinate gets all p^e first-order layers
    plant_in_series(monkeypatch, lambda plus, minus, grad: (plus, minus, {}))
    code, status = _propagation_status(capsys, 2, 3, 1)
    assert code == 1
    assert status["order_propagation_s1"] == "fail"


def test_order_propagation_catches_a_dropped_both_zero_term(capsys, monkeypatch):
    # every value of a layer-s pair column counted as nonzero, zero
    # included: a fixed zero counts 1 and a free column p, so each count is
    # every member above its candidate.  A free column's zero alone would
    # not show: where one column of the pair is free the lemma makes the
    # other a fixed zero
    monkeypatch.setattr(oracle, "bool", lambda value: True, raising=False)
    code, status = _propagation_status(capsys, 5, 7, 3)
    assert code == 1
    assert status == {"order_propagation_s1": "fail", "order_propagation_s2": "fail"}


def _plant_cap_off_by(monkeypatch, off):
    real = components.m_cap
    monkeypatch.setattr(components, "m_cap", lambda surface, i, s, m: (
        real(surface, i, s, m) + off))


@pytest.mark.parametrize("off", [1, -1])
def test_verify_catches_a_cap_off_by_one(capsys, monkeypatch, off):
    _plant_cap_off_by(monkeypatch, off)
    code, failed = _failed_checks(capsys)
    # a cap read by valid_labels and enumerate_classes, not by the closed form
    assert code == 1 and "count_agreement" in failed
    # +1 names labels beyond the cap, whose contact vectors leave the cone
    assert ("monomial_arc_witnesses" in failed) == (off == 1)


@pytest.mark.parametrize("off", [1, -1])
def test_analyze_json_counts_a_cap_off_by_one(capsys, monkeypatch, off):
    _plant_cap_off_by(monkeypatch, off)
    code, out, _ = _run(capsys, ["analyze", "--p", "3", "--q", "5", "--m", "4",
                                 "--format", "json"])
    n = json.loads(out)["components"]["N"]
    assert code == 0 and n["enumerated"] != n["closed_form"]


def test_stratum_nonempty_catches_no_strata(capsys, monkeypatch):
    # at m = 1 every cap is 1; one lower leaves no valid label at all
    _plant_cap_off_by(monkeypatch, -1)
    code, out, _ = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                 "--field", "3", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert checks["stratum_nonempty"]["status"] == "fail"
    assert checks["stratum_nonempty"]["detail"] == "0 strata"


def test_witness_detail_counts_the_realized_labels(capsys, monkeypatch):
    _plant_cap_off_by(monkeypatch, 1)
    code, out, _ = _run(capsys, VERIFY_5_7)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert checks["monomial_arc_witnesses"]["status"] == "fail"
    assert checks["monomial_arc_witnesses"]["detail"] == "9 of 13 labels realized"


def test_verify_jobs_flag(capsys, monkeypatch):
    # --jobs >= 1 is accepted and ignored: the output is the same and no
    # process starts, even at m = 4, where the fiber walk reaches level 2
    def no_process(self):
        raise AssertionError("verify started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    for p, q, m in [("3", "5", "2"), ("2", "3", "4")]:
        argv = ["verify", "--p", p, "--q", q, "--m", m, "--field", "2", "--format", "csv"]
        code_seq, out_seq, _ = _run(capsys, argv)
        code_par, out_par, _ = _run(capsys, argv + ["--jobs", "2"])
        assert code_seq == code_par == 0
        assert out_seq == out_par
    for jobs in ("0", "-7"):
        code, out, err = _run(capsys, ["verify", "--p", "2", "--q", "3", "--m", "1",
                                       "--field", "3", "--jobs", jobs])
        assert code == 2 and out == ""
        assert err == f"error: --jobs must be >= 1, got {jobs}\n"


def _exit_of(capsys, argv):
    """(exit code, stdout, stderr) of a main call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_usage_error_exits_2(capsys):
    tree_usage = "usage: toricjets [-h] {analyze,verify,witness} ...\n"
    for argv, usage in [
        (["analyze", "--p", "2", "--q", "3"], "usage: toricjets analyze [-h]"),  # missing --m
        (["analyze", "--p", "2", "--q", "3", "--m", "2", "--format", "xml"],
         "usage: toricjets analyze [-h]"),
        ([], tree_usage),  # no command
        (["bogus"], tree_usage),
        (["--p", "2", "analyze"], tree_usage),  # an option before the command
        # an option of another command: reported by analyze's own parser
        (["analyze", "--p", "2", "--q", "3", "--m", "2", "--field", "3"],
         "usage: toricjets analyze [-h]"),
    ]:
        code, out, err = _exit_of(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith(usage), argv
    assert err.endswith("toricjets analyze: error: unrecognized arguments: --field 3\n")


def _spy_parsers(monkeypatch):
    """The prog of every ArgumentParser built from here on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    return built


@pytest.mark.parametrize("argv", [
    ["analyze", "--p", "3", "--q", "5", "--m", "4", "--format", "json"],
    ["verify", "--p", "2", "--q", "3", "--m", "1", "--field", "3", "--format", "csv"],
    ["witness", "--p", "3", "--q", "5", "--m", "4", "--i", "3", "--s", "1", "--l", "2"],
], ids=lambda argv: argv[0])
def test_main_builds_only_the_command_parser(capsys, monkeypatch, argv):
    built = _spy_parsers(monkeypatch)
    code, _, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert built == [f"toricjets {argv[0]}"]


@pytest.mark.parametrize("command", ["analyze", "verify", "witness"])
def test_command_help_matches_the_full_tree(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _exit_of(capsys, [command, "-h"])
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args([command, "-h"])
    assert code == exc.value.code == 0
    assert out == capsys.readouterr().out
    assert out.startswith(f"usage: toricjets {command} [-h] --p P --q Q --m M ")


def test_help_builds_the_full_tree(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built = _spy_parsers(monkeypatch)
    code, out, _ = _exit_of(capsys, ["-h"])
    assert code == 0
    assert built == ["toricjets", "toricjets analyze", "toricjets verify", "toricjets witness"]
    assert out.startswith("usage: toricjets [-h] {analyze,verify,witness} ...\n")
    for line in [
        "    analyze             classify the jet fiber components at level m",
        "    verify              run the invariant suite and the finite-field oracle",
        "    witness             produce the arc realizing a contact label (i, s, l)",
    ]:
        assert line in out.splitlines()


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["toricjets", "analyze", "--p", "5", "--q", "7",
                                      "--m", "3", "--format", "json"])
    code, out, _ = _run(capsys, None)
    assert code == 0
    assert out == (GOLDEN / "analyze_p5_q7_m3.json").read_text()


def test_console_script_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "toricjets.cli", "analyze", "--p", "5", "--q", "7",
         "--m", "3", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "analyze_p5_q7_m3.json").read_text()
