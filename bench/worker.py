"""One measured run of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (imports, input generation and surface construction) is timed from
the first line of this file.  The run then repeats rounds until ``--seconds``
have passed; a round runs every operation of the seeded draw once, in a
closed loop with one client, and starts with the generators cache empty as a
new command-line process would.  Only whole rounds are measured.

Times are scaled to a reference machine speed, because the cores this runs
on are shared and their speed drifts by up to a factor of two within
seconds.  A ``Speedometer`` times a fixed pure-Python kernel between
operations and, from a timer signal, inside them; each operation's time, less
the kernel runs inside it, is multiplied by (CAL_REF_NS / k) ** CAL_POWER, k
being the mean kernel time around it.  A change to toricjets does not touch
the kernel, so it shows in full; raw times stay in the record.

With ``--trace 1`` rounds alternate untraced and traced: the traced rounds
give the per-layer metrics and the difference of the two kinds of round
gives the tracing overhead.  The last line printed is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Percentiles tried for op_tail_ms, highest first.  The tail is the highest
# one with at least TAIL_BEYOND samples above it; with fewer samples than
# p90 needs, the maximum is reported.
TAIL_LADDER = (99, 95, 90)
TAIL_BEYOND = 10

CAL_GAP_NS = 20_000_000
CAL_REF_NS = 500_000
# Elasticity of operation time to kernel time, fitted by least squares on
# repeated identical operations of the analyze, witness and verify workloads
# (0.72 to 0.85); scaling by the full ratio over-corrected the fast phases.
CAL_POWER = 0.8
_KERNEL_DOC = {"rows": [[i * j % 7 for j in range(12)] for i in range(40)], "name": "x", "flag": True}


def _kernel():
    """Fixed interpreter work like toricjets' own: products of sparse
    (degree, coefficient) series in dicts, and an indented JSON dump."""
    acc = ((0, 1),)
    row = ((1, 3), (2, 5), (4, 7))
    total = 0
    for _ in range(60):
        merged = {}
        for d1, c1 in acc:
            for d2, c2 in row:
                d = d1 + d2
                if d > 24:
                    break
                merged[d] = merged.get(d, 0) + c1 * c2
        acc = tuple(merged.items()) or ((0, 1),)
        total += len(acc)
    return total + len(json.dumps(_KERNEL_DOC, sort_keys=True, indent=2))


def calibrate():
    """(time, kernel duration) in ns."""
    t0 = time.perf_counter_ns()
    _kernel()
    t1 = time.perf_counter_ns()
    return t1, t1 - t0


def speed(kernel_ns):
    """Factor that scales a time measured at this kernel time to the reference."""
    return (CAL_REF_NS / kernel_ns) ** CAL_POWER


class Speedometer:
    """Kernel timings: between operations at least every CAL_GAP_NS of wall
    time and, while ``in_op`` is on, also from a SIGVTALRM handler every
    CAL_GAP_NS of CPU time, so that long operations are sampled inside."""

    def __init__(self, in_op=True):
        self.samples = []  # (end ns, kernel ns)
        self.in_op = in_op
        self._busy = False

    def sample(self):
        self._busy = True
        try:
            self.samples.append(calibrate())
        finally:
            self._busy = False

    def _on_timer(self, signum, frame):
        if not self._busy:
            self.sample()

    def between_ops(self):
        if not self.samples or time.perf_counter_ns() - self.samples[-1][0] >= CAL_GAP_NS:
            self.sample()

    def __enter__(self):
        if self.in_op:
            self._previous = signal.signal(signal.SIGVTALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_VIRTUAL, CAL_GAP_NS / 1e9, CAL_GAP_NS / 1e9)
        return self

    def __exit__(self, *exc):
        if self.in_op:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
            signal.signal(signal.SIGVTALRM, self._previous)
        self.sample()

    def scale(self, spans):
        """For each (start, end): (time minus the kernel runs inside it,
        that time scaled by the mean kernel time of the samples inside it
        and of the nearest sample on either side)."""
        ends = [t for t, _ in self.samples]
        out = []
        for start, end in spans:
            i = max(bisect.bisect_right(ends, start) - 1, 0)
            j = min(bisect.bisect_right(ends, end), len(ends) - 1)
            inside = sum(k for t, k in self.samples[i + 1:j] if t <= end)
            kernels = [k for _, k in self.samples[i:j + 1]]
            own = end - start - inside
            out.append((own, own * speed(sum(kernels) / len(kernels))))
        return out


def tail(samples):
    """(value, percentile, samples beyond it) for sorted samples."""
    n = len(samples)
    for pct in TAIL_LADDER:
        idx = -(-pct * n // 100) - 1  # nearest rank
        if n - idx - 1 >= TAIL_BEYOND:
            return samples[idx], pct, n - idx - 1
    return samples[-1], 100, 0


def _cpu_children():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _round(wl, ops, tracer):
    """Run every op once.  Returns the round's scaled and raw wall times,
    scaled latencies, failures, per-op digests and bench-side counters.
    Traced rounds sample the kernel only between ops, so that no kernel
    time lands inside a span."""
    workloads.clear_program_caches()
    cpu0 = _cpu_children()
    spans, digests, failures = [], [], []
    counters = {"output_bytes": 0, "points_visited": 0}
    meter = Speedometer(in_op=tracer is None)
    if tracer is not None:
        tracer.install()
    try:
        with meter:
            for k, op in enumerate(ops):
                meter.between_ops()
                if tracer is not None:
                    tracer.op_id = k
                t0 = time.perf_counter_ns()
                try:
                    out = wl.run(op)
                    error = None
                except Exception as exc:  # a failed op is counted, not fatal
                    error = exc
                spans.append((t0, time.perf_counter_ns()))
                if error is None:
                    try:
                        digest, info = wl.check(op, out)
                    except Exception as exc:
                        error = exc
                if error is not None:
                    failures.append(f"{type(error).__name__}: {error}")
                    digests.append(None)
                    continue
                digests.append(hashlib.sha256(digest.encode()).hexdigest())
                for key, value in info.items():
                    counters[key] += value
    finally:
        if tracer is not None:
            tracer.uninstall()
    counters["worker_cpu_s"] = _cpu_children() - cpu0
    times = meter.scale(spans)
    return {
        "wall_s": sum(s for _, s in times) / 1e9,
        "raw_wall_s": sum(r for r, _ in times) / 1e9,
        "latencies_ms": [s / 1e6 for _, s in times],
        "kernel_ms": statistics.median(k for _, k in meter.samples) / 1e6,
        "failures": failures,
        "digests": digests,
        "counters": counters,
        "traced": tracer is not None,
    }


def layer_metrics(tracer, counters, jobs):
    """Per-layer metrics of one traced round."""
    tot = tracer.totals()

    def self_ms(name):
        return tot.get(name, (0, 0, 0))[1] / 1e6

    def incl_ms(name):
        return tot.get(name, (0, 0, 0))[2] / 1e6

    c = tracer.counts
    gen_calls = c.get("generators.calls", 0)
    gen_cold = c.get("generators.cold_builds", 0)
    out = {
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.output_bytes": counters["output_bytes"],
        "equations.generators.calls": gen_calls,
        "equations.generators.cold_builds": gen_cold,
        "equations.generators.hit_ratio": (gen_calls - gen_cold) / gen_calls if gen_calls else 0.0,
        "equations.generators.cold_ms": incl_ms("equations.generators"),
        "lattice.exceptional_count_hull.self_ms": self_ms("lattice.exceptional_count_hull"),
        "lattice.contact_vector.self_ms": self_ms("lattice.contact_vector"),
        "lattice.from_pair.self_ms": self_ms("lattice.ToricSurface.from_pair"),
        "components.component_report.self_ms": self_ms("components.component_report"),
        "components.enumerate_classes.self_ms": self_ms("components.enumerate_classes"),
        "components.count_closed_form.self_ms": self_ms("components.count_closed_form"),
        "components.valid_labels.self_ms": self_ms("components.valid_labels"),
        "jets.monomial_arc.self_ms": self_ms("jets.monomial_arc"),
        "jets.contact_profile.self_ms": self_ms("jets.contact_profile"),
    }
    calls = {"arc": 0, "dense": 0}
    for name, (n, self_ns, _) in tot.items():
        if name.startswith("jets.is_member."):
            calls[name.split(".")[2]] += n
    for kind, buckets in (
        ("arc", [f"e{lo}-{hi}" for lo, hi in tracing.ARC_BUCKETS]),
        ("dense", ["e4", "e5"]),
    ):
        out[f"jets.is_member.calls.{kind}"] = calls[kind]
        for b in buckets:
            n, self_ns, _ = tot.get(f"jets.is_member.{kind}.{b}", (0, 0, 0))
            out[f"jets.is_member.us_per_call.{kind}.{b}"] = self_ns / n / 1e3 if n else 0.0
    checks = calls["dense"]
    points = counters["points_visited"]
    enum_ms = incl_ms("oracle.enumerate_fiber") + incl_ms("oracle.check_order_propagation")
    for name in ("enumerate_fiber", "check_order_propagation", "stratum_counts", "coverage_spot_check"):
        out[f"oracle.{name}.self_ms"] = self_ms(f"oracle.{name}")
    worker_cpu = counters["worker_cpu_s"]
    out.update({
        "oracle.member_checks": checks,
        "oracle.points_covered": points,
        "oracle.check_ratio": checks / points if points else 0.0,
        "oracle.member_ratio": c.get("is_member.dense.true", 0) / checks if checks else 0.0,
        "oracle.us_per_check": enum_ms * 1e3 / points if points else 0.0,
        "oracle.worker_cpu_s": worker_cpu,
        "oracle.parallel_efficiency": (
            worker_cpu / (jobs * enum_ms / 1e3) if jobs > 1 and enum_ms else 0.0
        ),
    })
    return out


def measure(name, seed, seconds, trace, tiny=False, spans_path=None, reference=None):
    """Run whole rounds of one workload for ``seconds``; returns a result dict."""
    wl = workloads.WORKLOADS[name]
    ops = wl.draw(seed, tiny=tiny)
    return run_rounds(wl, ops, seed, seconds, trace, tiny, spans_path, reference)


def run_rounds(wl, ops, seed, seconds, trace, tiny=False, spans_path=None, reference=None):
    rounds, tracers = [], []
    for _ in range(3):
        calibrate()  # let the interpreter specialise the kernel first
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(rounds) % 2 == 1 else None
        rounds.append(_round(wl, ops, tracer))
        if tracer is not None:
            tracers.append(tracer)
        if time.perf_counter() - start >= seconds and (not trace or tracers):
            break

    failures, failed = [], 0
    first = rounds[0]["digests"]
    for r in rounds:
        failures.extend(r["failures"])
        # an op fails if it failed its gate, or gave another answer than in round 1
        failed += sum(1 for d, d0 in zip(r["digests"], first) if d is None or d != d0)
    digest = hashlib.sha256("".join(d or "-" for d in first).encode()).hexdigest()
    correct = failed == 0
    notes = []
    if not tiny and seed == workloads.CANONICAL_SEED:
        if reference is None:
            with open(REFERENCE) as fh:
                reference = json.load(fh)
        if reference.get(wl.name) != digest:
            correct = False
            notes.append(f"output digest {digest} differs from the recorded reference")

    plain = [r for r in rounds if not r["traced"]]
    lat = sorted(x for r in plain for x in r["latencies_ms"])
    tail_ms, tail_pct, beyond = tail(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.jobs > 1:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": wl.name,
        "seed": seed,
        "correct": correct,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "failures": failures[:5],
        "notes": notes,
        "digest": digest,
        "samples": {
            "rounds": len(plain),
            "ops": len(lat),
            "ops_per_round": len(ops),
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
            "round_raw_wall_s": [round(r["raw_wall_s"], 4) for r in rounds],
            "round_kernel_ms": [round(r["kernel_ms"], 4) for r in rounds],
        },
        "end_to_end": {
            "ops_per_s": len(lat) / sum(r["wall_s"] for r in plain),
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": tail_ms,
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": rss_kb / 1024,
        },
    }
    if trace:
        traced = [r for r in rounds if r["traced"]]
        per_round = [
            layer_metrics(t, r["counters"], wl.jobs) for t, r in zip(tracers, traced)
        ]
        layers = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        untraced_s = statistics.median(r["wall_s"] for r in plain)
        traced_s = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        result["per_layer"] = layers
        result["samples"]["traced_rounds"] = len(traced)
        result["samples"]["spans"] = sum(len(t.t0) for t in tracers)
        if spans_path:
            tracers[0].dump(spans_path)
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the first traced round's spans here")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.draw(args.seed)
    raw_setup_s = time.perf_counter() - T0
    kernel_ns = statistics.median(calibrate()[1] for _ in range(5))
    setup = {"setup_s": raw_setup_s * speed(kernel_ns), "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    result = run_rounds(wl, ops, args.seed, args.seconds, args.trace, spans_path=args.spans)
    result.update(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
