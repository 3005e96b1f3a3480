"""Seeded inputs, operations and the correctness gate of each workload.

Every workload has a fixed shape: a list of slots (a stratum of q, e, m or a
verify cell) that is the same for every seed.  The seed fills each slot with
a concrete surface and level.  Keeping the shape fixed makes two runs with
different seeds do comparable amounts of work, so their timings can be
compared; varying the fill keeps a change from being tuned to one input.

An operation is one unit a user waits for: one ``analyze`` or ``verify``
command, or one witness label, given as a tuple of its inputs.  ``run`` is
the timed part and ``check`` the untimed gate; ``check`` raises ``OpFailed``
when an output breaks one of the workload's invariants and otherwise returns
the text that goes into the output digest, with the counters it read.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from typing import NamedTuple

from toricjets import cli, components, equations, jets, lattice
from toricjets.lattice import ToricSurface, hj_evaluate

CANONICAL_SEED = 1

# verify's JSON keys that carry the answer.  runtime_ms is not byte-stable
# and check names and details are presentation, so neither is hashed.
VERIFY_ANSWER_KEYS = ("p", "q", "m", "field", "strata", "coverage", "points_visited", "result")
ANALYZE_ANSWER_KEYS = ("surface", "equations", "components", "exceptional")


class OpFailed(Exception):
    """An operation raised, exited non-zero or broke an invariant."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cli(argv):
    """Run the command line in-process; returns (exit code, captured stdout)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, sink.getvalue()


def clear_program_caches():
    """Empty the generators cache, as a fresh command-line process would."""
    clear = getattr(equations.generators, "cache_clear", None)
    if clear is not None:
        clear()


def _nearest_coprime(q, p):
    """The p' in 2..q-1 coprime to q that is closest to p (smaller first)."""
    p = min(max(p, 2), q - 1)
    for step in range(q):
        for cand in (p - step, p + step):
            if 2 <= cand <= q - 1 and math.gcd(cand, q) == 1:
                return cand
    raise ValueError(f"no p coprime to q={q}")


def _surface_for(entries):
    q, p = hj_evaluate(entries)
    return ToricSurface.from_pair(p, q)


# ---------------------------------------------------------------- analyze

ANALYZE_NARROW = 96
# Narrow pairs are stratified on a cost proxy: the seed draws this many
# candidates per pair, they are sorted by proxy, and one is kept per stratum.
# Without it the median analyze latency moved by a sixth between seeds.
NARROW_OVERSAMPLE = 16
ANALYZE_WIDE_E = (40, 52, 64, 76, 88, 100)
# Long pairs are (p, a p - 1), whose expansion [a, p] gives e = 4.  The
# exceptional_count_hull scan costs about p q, so p is set from a to keep
# p q near LONG_BOX: every long slot costs the same while q = a p - 1 still
# runs from about 1.5*10^3 (a = 2) to 5*10^3 (a = 21).
ANALYZE_LONG_A = ((2, 3), (4, 6), (7, 9), (10, 13), (14, 17), (18, 21))
LONG_BOX = 1_200_000


@functools.lru_cache(maxsize=None)
def _labels_per_entry(c, m):
    """Valid labels (i, s, l) at one index i with entry c, at level m."""
    return sum(min((c - 1) * s, m + 1 - s) - s + 1 for s in range(1, (m + 1) // 2 + 1))


def _narrow_pairs(rng, n):
    """n pairs with q <= 60, m <= 60, one per stratum of the cost proxy
    e^3/2 + 20 * (valid labels), which tracks the analyze time of a pair."""
    cands = []
    for _ in range(n * NARROW_OVERSAMPLE):
        q = rng.randint(3, 60)
        p = _nearest_coprime(q, rng.randint(2, q - 1))
        m = rng.randint(1, 60)
        entries = ToricSurface.from_pair(p, q).entries
        proxy = (len(entries) + 2) ** 3 / 2 + 20 * sum(_labels_per_entry(c, m) for c in entries)
        cands.append((proxy, p, q, m))
    cands.sort()
    return [cands[k * NARROW_OVERSAMPLE + rng.randrange(NARROW_OVERSAMPLE)][1:] for k in range(n)]


def draw_analyze(seed, tiny=False):
    """Narrow pairs (q <= 60, m <= 60), wide pairs (e = 40..100, all entries
    2 but one end entry 3) and long pairs (e = 4, q = 10^3..5*10^3)."""
    rng = random.Random(f"analyze:{seed}")
    narrow_n, wide_e, long_a, box = (
        (6, (12,), ((2, 3),), 20_000) if tiny
        else (ANALYZE_NARROW, ANALYZE_WIDE_E, ANALYZE_LONG_A, LONG_BOX)
    )
    pairs = _narrow_pairs(rng, narrow_n)
    for e in wide_e:
        entries = [2] * (e - 2)
        entries[rng.choice((0, -1))] = 3
        q, p = hj_evaluate(entries)
        pairs.append((p, q, rng.randint(4, 12)))
    for lo, hi in long_a:
        a = rng.randint(lo, hi)
        p = round(math.sqrt(box / a))
        pairs.append((p, a * p - 1, rng.randint(1, 30)))
    rng.shuffle(pairs)
    return pairs


def run_analyze(op):
    p, q, m = op
    rc, out = _cli(["analyze", "--p", str(p), "--q", str(q), "--m", str(m), "--format", "json"])
    if rc != 0:
        raise OpFailed(f"analyze {op} exited {rc}")
    return out


def check_analyze(op, out):
    p, q, m = op
    doc = json.loads(out)
    e = doc["surface"]["e"]
    n = doc["components"]["N"]
    if (doc["surface"]["p"], doc["surface"]["q"], doc["components"]["m"]) != (p, q, m):
        raise OpFailed(f"analyze {op} reports another input")
    if n["enumerated"] != n["closed_form"]:
        raise OpFailed(f"analyze {op}: enumerated {n['enumerated']} != closed form {n['closed_form']}")
    if not doc["exceptional"]["agree"]:
        raise OpFailed(f"analyze {op}: exceptional counts disagree")
    if len(doc["equations"]) != (e - 1) * (e - 2) // 2:
        raise OpFailed(f"analyze {op}: {len(doc['equations'])} equations at e={e}")
    return _canonical({k: doc[k] for k in ANALYZE_ANSWER_KEYS}), {"output_bytes": len(out.encode())}


# ---------------------------------------------------------------- witness

# (e, m) slots.  Entries are 2 except a fifth of them, half 3 and half 4, so
# a slot's label count depends on e and m alone.  The big entries are evenly
# spaced from a seeded offset in a seeded order: placing them at random moved
# the p99 witness latency by a fifth between seeds.
WITNESS_SLOTS = (
    (4, 24), (4, 16), (5, 22), (5, 14), (6, 20), (6, 12),
    (8, 24), (10, 18), (12, 16), (16, 14), (20, 14), (24, 12),
    (28, 12), (32, 12), (36, 12), (40, 12),
)


def draw_witness(seed, tiny=False):
    """Every valid label of one seeded surface per slot."""
    rng = random.Random(f"witness:{seed}")
    ops = []
    for e, m in ((4, 8), (7, 6)) if tiny else WITNESS_SLOTS:
        n = e - 2
        n_big = max(1, round(0.2 * n))
        big = [3 if k % 2 == 0 else 4 for k in range(n_big)]
        rng.shuffle(big)
        offset = rng.randrange(n)
        entries = [2] * n
        for k, c in enumerate(big):
            entries[(offset + k * n // n_big) % n] = c
        surface = _surface_for(entries)
        ops.extend((surface, m, label) for label in components.valid_labels(surface, m))
    return ops


def run_witness(op):
    surface, m, (i, s, l) = op
    v, inside = lattice.contact_vector(surface, i, s, l)
    arc = jets.monomial_arc(surface, v, m)
    profile, over = jets.contact_profile(arc, surface)  # raises NonMemberError
    return v, inside, profile, over


def check_witness(op, out):
    surface, m, (i, s, l) = op
    v, inside, profile, over = out
    where = f"witness p={surface.p} q={surface.q} m={m} label {(i, s, l)}"
    if not inside:
        raise OpFailed(f"{where}: v={v} outside the cone")
    if not over:
        raise OpFailed(f"{where}: arc not over the origin")
    if (profile[i - 1], profile[i]) != (s, l):
        raise OpFailed(f"{where}: realizes {profile[i - 1], profile[i]}")
    orders = ["above_m" if o is jets.ABOVE_M else o for o in profile]
    return _canonical([surface.p, surface.q, m, [i, s, l], list(v), orders]), {}


# ---------------------------------------------------------------- verify

# (e, field, m, leading entries) cells of one round; the seed draws the other
# entries from {2, 3}.  The leading entry moves a cell's cost by about an
# eighth, so it is fixed per cell.  Three cells of distinct cost put the
# median latency inside one cell's samples rather than between two.  e = 5
# at F_2, m = 3 visits 1,082,368 points (about 23 s), too long for one run,
# so it is left out.
VERIFY_CELLS = ((4, 2, 3, (2,)), (4, 3, 2, ()), (5, 3, 2, (3,)))


def draw_verify(seed, tiny=False):
    """One seeded surface per cell.

    verify and verify_jobs2 share the draw, so their outputs must agree.
    """
    rng = random.Random(f"verify:{seed}")
    ops = []
    for e, field, m, lead in ((4, 2, 2, ()), (4, 3, 1, ())) if tiny else VERIFY_CELLS:
        entries = list(lead) + [rng.choice((2, 3)) for _ in range(e - 2 - len(lead))]
        surface = _surface_for(entries)
        ops.append((surface.p, surface.q, m, field))
    return ops


def run_verify(op, jobs):
    p, q, m, field = op
    rc, out = _cli([
        "verify", "--p", str(p), "--q", str(q), "--m", str(m), "--field", str(field),
        "--format", "json", "--jobs", str(jobs),
    ])
    if rc != 0:
        raise OpFailed(f"verify {op} --jobs {jobs} exited {rc}")
    return out


def check_verify(op, out):
    doc = json.loads(out)
    if doc["result"] != "pass":
        raise OpFailed(f"verify {op}: result {doc['result']}")
    answer = {k: doc[k] for k in VERIFY_ANSWER_KEYS}
    return _canonical(answer), {"output_bytes": len(out.encode()), "points_visited": doc["points_visited"]}


class Workload(NamedTuple):
    name: str
    draw: object
    run: object
    check: object
    jobs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze", draw_analyze, run_analyze, check_analyze, 0),
        Workload("witness", draw_witness, run_witness, check_witness, 0),
        Workload("verify", draw_verify, lambda op: run_verify(op, 1), check_verify, 1),
        Workload("verify_jobs2", draw_verify, lambda op: run_verify(op, 2), check_verify, 2),
    )
}
