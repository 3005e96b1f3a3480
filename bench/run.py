"""toricjets benchmark: analyze, witness, verify and verify_jobs2 workloads.

Run from the repository root:

    python3 bench/run.py --workload analyze --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --out results.jsonl
    python3 bench/run.py --compare base.jsonl head.jsonl

A run starts fresh worker processes (bench/worker.py): a few that only time
set-up, then one that measures whole rounds of the workload for --seconds.
It prints every metric with its unit, then, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json and --trace 1 the per-layer ones.
--out appends the full record (machine, Python, revision, seed, sample
counts, every metric) to a JSON-lines file; --compare judges the records of
two such files against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PACKAGE = os.path.join(ROOT, "src", "toricjets")
WORKLOADS = ("analyze", "witness", "verify", "verify_jobs2")
# set-up is timed in this many set-up-only processes plus the measuring one
SETUP_REPEATS = 4
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child(argv):
    env = {k: v for k, v in os.environ.items() if k != "TORICJETS_GUARD"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; src_digest names the code
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest():
    """Hash of the package sources, which names the code when git is absent."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_workload(name, seed, seconds, trace, spans=None):
    args = ["--workload", name, "--seed", str(seed)]
    setups = [_child(args + ["--setup-only"]) for _ in range(SETUP_REPEATS)]
    extra = ["--spans", spans] if spans else []
    result = _child(args + ["--seconds", str(seconds), "--trace", str(trace)] + extra)
    setups.append({k: result.pop(k) for k in ("setup_s", "raw_setup_s")})
    result["end_to_end"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    result["samples"]["setup_runs"] = len(setups)
    return result


def stamp(record, seconds, trace):
    record.update({
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_digest": _src_digest(),
        "seconds": seconds,
        "trace": trace,
    })
    return record


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record, spec):
    """Print the record's metrics with units; returns the chosen metrics."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    metrics = {}
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} nproc={record['nproc']} cpu={record['cpu_model']!r} "
          f"python={record['python']} rev={record['git_rev'][:12]} src={record['src_digest']}")
    print(f"#   samples {json.dumps(record['samples'], sort_keys=True)}")
    print(f"#   ops attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']} digest={record['digest'][:16]}")
    for note in record["notes"] + record["failures"]:
        print(f"#   ! {note}")
    for m in spec[section]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{record['workload']:>13}  {m['name']:<48} {_fmt(value):>14} {m['unit']}")
    return metrics


# ------------------------------------------------------------------ compare


def _spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(base, head, better, bound):
    """Verdict for one metric: improved, unchanged, regressed or unresolved."""
    mb, mh = statistics.median(base), statistics.median(head)
    sign = 1 if better == "higher" else -1
    change = sign * (mh - mb) / abs(mb) if mb else 0.0  # positive is better
    wins = all(sign * (h - b) > 0 for h in head for b in base)
    if bound is not None and max(_spread(base), _spread(head)) > bound and not wins:
        return change, "unresolved"
    if bound is not None and change < -bound:
        return change, "regressed"
    if change > _spread(base) and (wins or len(base) == 1):
        return change, "improved"
    return change, "unchanged"


def compare(base_path, head_path, spec):
    def load(path):
        groups = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
        return groups

    base, head = load(base_path), load(head_path)
    print(f"{'workload':>13}  {'metric':<48} {'base':>12} {'head':>12} {'change':>8}  verdict")
    verdicts = set()
    for (workload, trace) in sorted(set(base) & set(head)):
        section = "per_layer" if trace else "end_to_end"
        for m in spec[section]:
            b = [r[section][m["name"]] for r in base[(workload, trace)]]
            h = [r[section][m["name"]] for r in head[(workload, trace)]]
            change, verdict = judge(b, h, m["better"], m.get("bound"))
            if trace:
                verdict = "info"  # per-layer metrics have no bound
            verdicts.add(verdict)
            print(f"{workload:>13}  {m['name']:<48} {_fmt(statistics.median(b)):>12} "
                  f"{_fmt(statistics.median(h)):>12} {change:>+8.1%}  {verdict}  (n={len(b)}/{len(h)})")
    overall = next((v for v in ("regressed", "unresolved") if v in verdicts), "ok")
    print(f"# overall: {overall}")
    return 1 if overall == "regressed" else 0


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.workload is None:
            parser.error("--workload is required")
        if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
            raise BenchError(f"no toricjets sources under {os.path.relpath(PACKAGE, ROOT)}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for name in names:
            spans = f"{args.out}.spans-{name}-{args.seed}.tsv.gz" if args.out and args.trace else None
            rec = stamp(run_workload(name, args.seed, args.seconds, args.trace, spans), args.seconds, args.trace)
            records.append((rec, report(rec, spec)))
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0][1]
    else:
        metrics = {f"{rec['workload']}.{k}": v for rec, ms in records for k, v in ms.items()}
    print(json.dumps({
        "correct": all(rec["correct"] for rec, _ in records),
        "attempted": sum(rec["attempted"] for rec, _ in records),
        "failed": sum(rec["failed"] for rec, _ in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
