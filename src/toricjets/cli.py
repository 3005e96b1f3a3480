"""Command line front end: analyze, verify, and witness subcommands.

analyze classifies the jet fiber components of one surface at one level;
verify drives the symbolic invariant suite and the finite-field oracle;
witness produces an explicit arc realizing a prescribed contact label.
Output is json (the standard encoder with sorted keys and two-space indent),
md (default) or csv (fixed header per subcommand).  verify and witness build
one document and render md and csv from it alone; witness adds its jet's
coefficients for json only.  analyze builds no document: every format reads
its equations from checked_walk and its classes from the gluing scan
class_runs (json places them as text into the standard encoder's text of the
rest; csv writes only the class rows).  verify's grading check reads the same
walk, so no command builds the dense generators.

main builds one parser, for the named command alone; the full tree of all
three commands only when the first argument names no command.  Every command
runs through its writer in COMMANDS.

Exit codes: 0 pass, 1 verification failure, 2 usage or validation error,
3 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import components
from .components import (
    class_runs,
    count_closed_form,
    enumerate_classes,
    m_cap,
    main_codim,
    valid_labels,
)
from .equations import checked_walk, grading_check
from .errors import (
    GuardExceededError,
    InputRangeError,
    NonMemberError,
    ToricJetsError,
)
from .jets import ABOVE_M, contact_profile, monomial_arc
from .lattice import (
    ToricSurface,
    contact_vector,
    exceptional_count_dual_cf,
    exceptional_count_hull,
)
from .oracle import (
    DEFAULT_GUARD,
    OracleConfig,
    check_order_propagation,
    coverage_spot_check,
    fiber_profiles,
    required_budget,
)

def _canonical_json(doc) -> str:
    """Canonical JSON, the standard encoder's text with sorted keys and a
    two-space indent; _analyze_json places its text-written sections into it."""
    return json.dumps(doc, sort_keys=True, indent=2)


def _order_json(o):
    return "above_m" if o is ABOVE_M else o


def _yes_no(flag) -> str:
    return "yes" if flag else "no"


def _label_str(label) -> str:
    return f"({label[0]},{label[1]},{label[2]})"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------- analyze


def _analyze_frame(surface: ToricSurface, dual_cf: int, equations, comp) -> dict:
    hull = exceptional_count_hull(surface.cone)
    return {
        "surface": {
            "p": surface.p,
            "q": surface.q,
            "entries": list(surface.entries),
            "e": surface.e,
            "dual_basis": [list(u) for u in surface.basis],
        },
        "equations": equations,
        "components": comp,
        "exceptional": {"dual_cf": dual_cf, "hull": hull, "agree": dual_cf == hull},
    }


def _analyze_json(surface: ToricSurface, m: int) -> str:
    """The canonical json of analyze's document, without the dense exponent
    vectors or any ComponentClass.  The classes are written from class_runs: a
    glued run from one template per class, a span of singletons (i, s, l) from
    one template per (i, s) with l filled in; the equations per step of
    checked_walk as a zero run, the running product's text, the closing factor
    and a zero run.  Both sections go in place of their placeholder strings in
    the standard encoder's text of the frame, by one join of its slices."""
    canon = '{\n        "canonical": [\n          %s,\n          %s,\n          %s\n        ],\n'
    member = "[\n            %s,\n            %s,\n            %s\n          ]"
    sep = ",\n          "
    classes = []
    s1_count = 0
    for s, codim, dim, groups in class_runs(surface, m):
        body = f'        "codim": {codim},\n        "dim": {dim},\n        "members": [\n          '
        tail = f'\n        ],\n        "s": {s}\n      }}'
        for g in groups:
            if isinstance(g, list):  # a glued run
                classes.append(canon % g[0] + body + sep.join([member % x for x in g]) + tail)
            else:  # (i, span): the singleton classes (i, s, l)
                i, span = g
                single = canon % (i, s, "%d") + body + member % (i, s, "%d") + tail
                classes += [single % (l, l) for l in span]
        if s == 1:
            s1_count = len(classes)
    dual_cf = exceptional_count_dual_cf(surface.cone)
    comp = {
        "m": m,
        "classes": "\0classes",
        # read through its module, as _analyze_md reads it: a count planted
        # in components reaches both
        "N": {"enumerated": len(classes), "closed_form": components.count_closed_form(surface, m)},
        "s1_count": s1_count,
        "exceptional": dual_cf,
        "main_codim": main_codim(surface, m),
    }
    e = surface.e
    zeros = ",\n        0" * e  # zeros[:11 * n] is a run of n zero exponents
    rows = []
    for i, steps in checked_walk(surface):
        head = f'{{\n      "i": {i},\n      "j": '
        mid = f',\n      "minus_exponents": [\n        0{zeros[:11 * (i - 1)]}'
        run = ""  # the running product at positions i+1..j-2
        for j, grow, (k, a) in steps:
            if grow:
                run += f",\n        {grow[1]}"
            rows.append(
                f"{head}{j}{mid}{run},\n        {a}{zeros[:11 * (e - j + 1)]}\n      ]\n    }}")
    text = _canonical_json(_analyze_frame(surface, dual_cf, "\0equations", comp))
    # the encoder writes each placeholder as "\u0000...", once, and sorted
    # keys put components before equations
    at_classes, at_equations = '"\\u0000classes"', '"\\u0000equations"'
    lo = text.index(at_classes)
    hi = text.index(at_equations, lo)
    return "".join((
        text[:lo], "[\n      ", ",\n      ".join(classes), "\n    ]",
        text[lo + len(at_classes):hi], "[\n    ", ",\n    ".join(rows), "\n  ]",
        text[hi + len(at_equations):],
    ))


def _factor(k: int, a: int) -> str:
    return f"x{k}" if a == 1 else f"x{k}^{a}"


def _analyze_md(surface: ToricSurface, m: int) -> str:
    """One equation row per step of checked_walk, from a running text of the
    nonzero grow factors of its i (an entry c_k = 2 grows by x_k^0, skipped)
    and the closing factor.  The class rows and counts from enumerate_classes."""
    classes = enumerate_classes(surface, m)
    dual_cf, hull = exceptional_count_dual_cf(surface.cone), exceptional_count_hull(surface.cone)
    lines = [
        f"# analyze p={surface.p} q={surface.q} m={m}",
        "",
        f"- continued fraction entries: {list(surface.entries)}",
        f"- embedding dimension e: {surface.e}",
        "- dual basis: " + ", ".join(f"({a}, {b})" for a, b in surface.basis),
        f"- exceptional divisors: dual_cf={dual_cf} hull={hull} agree={_yes_no(dual_cf == hull)}",
        "",
        "## Defining equations",
        "",
        "| i | j | relation |",
        "| - | - | - |",
    ]
    for i, steps in checked_walk(surface):
        run = ""  # "*" and the text of each nonzero grow factor so far
        for j, grow, (k, a) in steps:
            if grow and grow[1]:
                run += "*" + _factor(*grow)
            minus = run + "*" + _factor(k, a) if a else run
            lines.append(f"| {i} | {j} | x{i}*x{j} = {minus[1:] or '1'} |")
    lines += [
        "",
        f"## Component classes at m={m}",
        "",
        "| canonical | members | s | codim | dim |",
        "| - | - | - | - | - |",
    ]
    for cl in classes:
        members = " ".join(_label_str(x) for x in cl.members)
        lines.append(
            f"| {_label_str(cl.canonical)} | {members} | {cl.s} | {cl.codim} | {cl.dim} |"
        )
    lines += [
        "",
        f"- N enumerated: {len(classes)}",
        f"- N closed form: {components.count_closed_form(surface, m)}",
        f"- classes with s=1: {sum(cl.s == 1 for cl in classes)}",
        f"- exceptional divisors: {dual_cf}",
        f"- main component codim: {main_codim(surface, m)}",
    ]
    return "\n".join(lines)


def _analyze_csv(surface: ToricSurface, m: int) -> str:
    rows = [[*cl.canonical, cl.s, cl.codim, cl.dim,
             ";".join(f"{i}:{s}:{l}" for i, s, l in cl.members)]
            for cl in enumerate_classes(surface, m)]
    return _csv_text(
        ["canonical_i", "canonical_s", "canonical_l", "s", "codim", "dim", "members"], rows)


def _analyze(surface: ToricSurface, args):
    write = {"json": _analyze_json, "md": _analyze_md, "csv": _analyze_csv}[args.format]
    return write(surface, args.m), 0


# ---------------------------------------------------------------- verify


def _verify_doc(surface: ToricSurface, args) -> dict:
    """Every verification check for one surface; exit status follows "result"."""
    m, field, guard = args.m, args.field, args.guard
    if args.jobs < 1:
        raise InputRangeError(f"--jobs must be >= 1, got {args.jobs}")
    t0 = time.monotonic()
    # the fiber is charged the largest budget, p^(e(m+1)): refuse before any work
    config = OracleConfig(field, m, guard)
    profiles = fiber_profiles(surface, config)
    checks = []

    def check(name, ok, detail, hard=True):
        status = "pass" if ok else ("fail" if hard else "warn")
        checks.append({"name": name, "status": status, "hard": hard, "detail": detail})

    checked, ok = grading_check(surface)
    check("grading", ok, f"{checked} generators checked")

    labels = valid_labels(surface, m)
    realized = 0
    for (i, s, l) in labels:
        v, inside = contact_vector(surface, i, s, l)
        if not inside:  # a label beyond its cap: monomial_arc refuses v
            continue
        try:
            profile, over = contact_profile(monomial_arc(surface, v, m), surface)
        except NonMemberError:
            continue
        realized += over and profile[i - 1] == s and profile[i] == l
    ok = realized == len(labels)
    of = "" if ok else f" of {len(labels)}"
    check("monomial_arc_witnesses", ok, f"{realized}{of} labels realized")

    n_enum = len(enumerate_classes(surface, m))
    n_formula = count_closed_form(surface, m)
    check(
        "count_agreement",
        n_enum == n_formula,
        f"enumerated={n_enum} closed_form={n_formula}",
    )

    visited = required_budget(surface, OracleConfig(field, m - 1, guard))  # the fiber
    for s in range(1, (m + 1) // 2 + 1):
        sub = OracleConfig(field, 2 * s - 1, guard)
        ok = check_order_propagation(surface, sub, s)
        visited += required_budget(surface, sub)
        check(f"order_propagation_s{s}", ok, f"full space at m={2 * s - 1}")

    coverage = coverage_spot_check(surface, config, profiles)
    impossible = sum(n for _, n in coverage.impossible_profiles)
    strata = coverage.strata
    check(
        "stratum_nonempty",
        # every surface has the labels (i, 1, 1), so no strata is a fault too
        bool(strata) and all(st.point_count >= 1 for st in strata),
        f"{len(strata)} strata",
    )
    check(
        "stratum_min_order",
        all(st.all_orders_ge_s for st in strata),
        "minimum coordinate order equals s on every stratum point",
    )
    check("stratum_disjoint", coverage.disjoint, "strata at fixed i are pairwise disjoint")
    check(
        "no_impossible_profiles",
        not coverage.impossible_profiles,
        f"{impossible} flagged, "
        f"{coverage.closure_points} closure points",
    )
    mismatches = sum(1 for st in strata if st.point_count != st.predicted_count)
    check(
        "stratum_count_prediction",
        mismatches == 0,
        f"{len(strata) - mismatches}/{len(strata)} match (experimental)",
        hard=args.strict,
    )
    return {
        "p": surface.p,
        "q": surface.q,
        "m": m,
        "field": field,
        "guard": guard,
        "checks": checks,
        "strata": [
            {
                "label": list(st.label),
                "count": st.point_count,
                "predicted": st.predicted_count,
                "match": st.point_count == st.predicted_count,
            }
            for st in strata
        ],
        "coverage": {
            "total": coverage.total_points,
            "stratum": coverage.stratum_points,
            "closure": coverage.closure_points,
            "impossible": impossible,
        },
        "points_visited": visited,
        "runtime_ms": int((time.monotonic() - t0) * 1000),
        "result": "fail" if any(c["status"] == "fail" for c in checks) else "pass",
    }


def _verify_md(doc: dict) -> str:
    lines = [f"# verify p={doc['p']} q={doc['q']} m={doc['m']} field={doc['field']}", ""]
    for ch in doc["checks"]:
        lines.append(f"- [{ch['status'].upper()}] {ch['name']}: {ch['detail']}")
    lines += ["", "## Strata", "", "| label | count | predicted | match |",
              "| - | - | - | - |"]
    for st in doc["strata"]:
        lines.append(
            f"| {_label_str(st['label'])} | {st['count']} "
            f"| {st['predicted']} | {_yes_no(st['match'])} |"
        )
    cov = doc["coverage"]
    lines += [
        "",
        f"- fiber points: {cov['total']} "
        f"({cov['stratum']} in strata, {cov['closure']} closure)",
        f"- points visited: {doc['points_visited']}",
        f"- runtime: {doc['runtime_ms']} ms",
        f"- result: {doc['result'].upper()}",
    ]
    return "\n".join(lines)


def _verify_csv(doc: dict) -> str:
    rows = [
        [ch["name"], ch["status"], _yes_no(ch["hard"]), ch["detail"]]
        for ch in doc["checks"]
    ]
    return _csv_text(["check", "status", "hard", "detail"], rows)


# ---------------------------------------------------------------- witness


def _witness_doc(surface: ToricSurface, args) -> dict:
    m, i, s, l = args.m, args.i, args.s, args.l
    cap = m_cap(surface, i, s, m)  # validates i and s
    if not s <= l <= cap:
        raise InputRangeError(
            f"l={l} is outside the valid interval [{s}, {cap}] for i={i} s={s} m={m}"
        )
    v, inside = contact_vector(surface, i, s, l)
    arc = monomial_arc(surface, v, m)
    profile, over = contact_profile(arc, surface)
    doc = {
        "p": surface.p,
        "q": surface.q,
        "m": m,
        "i": i,
        "s": s,
        "l": l,
        "v": list(v),
        "inside": inside,
        "member": True,
        "orders": [_order_json(o) for o in profile],
        "realized": [_order_json(profile[i - 1]), _order_json(profile[i])],
        "over_origin": over,
    }
    if args.format == "json":  # the arc's rational coefficients; md and csv print orders
        coords = [["0/1"] * (m + 1) for _ in arc.terms]
        for row, terms in zip(coords, arc.terms):
            for d, c in terms:
                row[d] = f"{c}/1"
        doc["jet"] = {"m": m, "characteristic": arc.field.characteristic, "coords": coords}
    return doc


def _power_str(d) -> str:
    """Coordinate t^d of a monomial arc; an order above m truncates to 0."""
    if d == "above_m":
        return "0"
    return "t" if d == 1 else f"t^{d}"


def _witness_md(doc: dict) -> str:
    coords = ", ".join(
        f"x{k} = {_power_str(d)}" for k, d in enumerate(doc["orders"], start=1)
    )
    label = (doc["i"], doc["s"], doc["l"])
    return "\n".join([
        f"# witness p={doc['p']} q={doc['q']} m={doc['m']} label {_label_str(label)}",
        "",
        f"- contact vector v: ({doc['v'][0]}, {doc['v'][1]})",
        f"- inside cone: {_yes_no(doc['inside'])}",
        f"- jet: {coords}",
        "- member: yes",
        "- orders: " + ", ".join(str(o) for o in doc["orders"]),
        f"- realized (s, l): ({doc['realized'][0]}, {doc['realized'][1]})",
        f"- over singular point: {_yes_no(doc['over_origin'])}",
    ])


def _witness_csv(doc: dict) -> str:
    row = [
        doc["p"], doc["q"], doc["m"], doc["i"], doc["s"], doc["l"], *doc["v"],
        _yes_no(doc["inside"]), "yes",
        ";".join(str(o) for o in doc["orders"]),
        *doc["realized"],
    ]
    return _csv_text(
        ["p", "q", "m", "i", "s", "l", "v1", "v2", "inside", "member",
         "orders", "realized_s", "realized_l"],
        [row],
    )


# ---------------------------------------------------------------- driver


def _documented(build, render_md, render_csv):
    """The writer of a command that builds one document: json is its
    canonical text, and the exit status follows its "result"."""
    def write(surface: ToricSurface, args):
        doc = build(surface, args)
        render = {"json": _canonical_json, "md": render_md, "csv": render_csv}[args.format]
        return render(doc), 1 if doc.get("result") == "fail" else 0
    return write


# the options of every command, as (flag, add_argument keywords) pairs
SHARED_OPTIONS = (
    ("--p", dict(type=int, required=True, help="first entry of the coprime pair")),
    ("--q", dict(type=int, required=True, help="second entry of the coprime pair")),
    ("--m", dict(type=int, required=True, help="jet level, >= 1")),
    ("--format", dict(choices=("json", "md", "csv"), default="md", help="output format")),
)

# command -> (help line, its own options, writer); a writer takes the surface
# and the parsed arguments and returns (output text, exit status)
COMMANDS = {
    "analyze": ("classify the jet fiber components at level m", (), _analyze),
    "verify": ("run the invariant suite and the finite-field oracle", (
        ("--field", dict(type=int, required=True, help="prime field characteristic")),
        ("--guard", dict(type=int, default=DEFAULT_GUARD,
                         help=f"enumeration point budget (default {DEFAULT_GUARD})")),
        ("--strict", dict(action="store_true",
                          help="treat experimental count mismatches as hard failures")),
        ("--jobs", dict(type=int, default=1, help=">= 1, accepted and ignored: single process")),
    ), _documented(_verify_doc, _verify_md, _verify_csv)),
    "witness": ("produce the arc realizing a contact label (i, s, l)", (
        ("--i", dict(type=int, required=True, help="coordinate index, 2..e-1")),
        ("--s", dict(type=int, required=True, help="contact order of x_i")),
        ("--l", dict(type=int, required=True, help="contact order of x_{i+1}")),
    ), _documented(_witness_doc, _witness_md, _witness_csv)),
}


def _with_options(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    parser.set_defaults(command=command)
    for flag, kwargs in SHARED_OPTIONS + COMMANDS[command][1]:
        parser.add_argument(flag, **kwargs)
    return parser


def _build_parser(command=None) -> argparse.ArgumentParser:
    """A new parser for one command, prog "toricjets <command>"; with no command,
    the full tree of the top-level parser and one subparser per command.  main
    builds the full tree only when its first argument names no command."""
    if command is not None:
        return _with_options(argparse.ArgumentParser(prog=f"toricjets {command}"), command)
    parser = argparse.ArgumentParser(
        prog="toricjets",
        description="Jet fiber component classification for the toric surface of a coprime pair (p, q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        _with_options(sub.add_parser(name, help=entry[0]), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args = _build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = _build_parser().parse_args(argv)
    write = COMMANDS[args.command][2]
    try:
        if args.m < 1:
            raise InputRangeError(f"m must be >= 1, got {args.m}")
        surface = ToricSurface.from_pair(args.p, args.q)
        text, code = write(surface, args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToricJetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
