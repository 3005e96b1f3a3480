"""Spans around toricjets' public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every toricjets module
that binds it: the defining module and each module that imported the name.
``uninstall`` puts the originals back.  A span holds its name, start, end,
parent span and operation id; spans stay in flat arrays in memory until the
run ends, and self times are derived from them afterwards.

Two functions are special.  ``generators`` is called once per ``is_member``
call and is almost always a cache hit, so a hit is only counted and a span
is kept for cold builds alone.  ``is_member`` spans are named by the kind of
jet and the embedding dimension: ``arc`` for calls made by ``contact_profile``
(monomial arcs) and ``dense`` for calls made by the oracle's enumeration.

With ``--jobs`` above 1 the oracle enumerates in forked worker processes,
which inherit the wrappers.  Each such worker starts with empty spans and, as
it exits, sends the totals of its own spans to the parent through a pipe;
``totals`` adds them in.  A start method other than fork leaves workers
untraced.
"""

from __future__ import annotations

import functools
import gzip
import json
import multiprocessing.util
import os
import time
from array import array

import toricjets
from toricjets import cli, components, equations, jets, lattice, oracle

MODULES = (toricjets, lattice, equations, components, jets, oracle, cli)

SPANNED = (
    (lattice, "hj_expand"),
    (lattice, "dual_hilbert_basis"),
    (lattice, "contact_vector"),
    (lattice, "exceptional_count_hull"),
    (lattice, "exceptional_count_dual_cf"),
    (equations, "grading_check"),
    (components, "component_report"),
    (components, "enumerate_classes"),
    (components, "count_closed_form"),
    (components, "valid_labels"),
    (components, "report_as_dict"),
    (jets, "monomial_arc"),
    (jets, "contact_profile"),
    (oracle, "enumerate_fiber"),
    (oracle, "check_order_propagation"),
    (oracle, "stratum_counts"),
    (oracle, "coverage_spot_check"),
    (cli, "main"),
)

# Embedding-dimension buckets of the arc is_member metrics; the witness
# workload's slots fall in these ranges.
ARC_BUCKETS = ((4, 6), (7, 12), (13, 24), (25, 40))


def arc_bucket(e):
    for lo, hi in ARC_BUCKETS:
        if lo <= e <= hi:
            return f"e{lo}-{hi}"
    return f"e{e}"


def is_member_span(kind, e):
    return f"jets.is_member.{kind}.{arc_bucket(e) if kind == 'arc' else f'e{e}'}"


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack = []
        self.op_id = -1
        self.counts = {}
        self._restore = []
        self._pipe = None
        self.child_totals = []

    # ------------------------------------------------------------ recording

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.t1.append(0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.t1[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _leaf(self, nid, t0, t1):
        """A span recorded after the call returned; it has no child spans."""
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.t0.append(t0)
        self.t1.append(t1)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name, fn):
        nid = self._nid(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return functools.wraps(fn)(wrapper)

    def _generators(self, fn):
        nid = self._nid("equations.generators")
        info = getattr(fn, "cache_info", None)

        def wrapper(surface):
            self.count("generators.calls")
            before = info().misses if info else None
            t0 = time.perf_counter_ns()
            result = fn(surface)
            t1 = time.perf_counter_ns()
            if info is None or info().misses != before:
                self.count("generators.cold_builds")
                self._leaf(nid, t0, t1)
            return result

        functools.update_wrapper(wrapper, fn)
        if info is not None:
            wrapper.cache_info = info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _is_member(self, kind, fn):
        nids = {}

        def wrapper(jet, surface):
            e = surface.e
            nid = nids.get(e)
            if nid is None:
                nid = nids[e] = self._nid(is_member_span(kind, e))
            idx = self._open(nid)
            try:
                ok = fn(jet, surface)
            finally:
                self._close(idx)
            if ok:
                self.count(f"is_member.{kind}.true")
            return ok

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------ install

    def _replace(self, original, wrap):
        """Swap original for wrap(module, original) wherever a toricjets
        module binds it."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrap(module, original))
                    self._restore.append((module, attr, original))

    def install(self):
        self._pipe = os.pipe()
        multiprocessing.util.register_after_fork(self, Tracer._become_worker)
        for home, attr in SPANNED:
            original = getattr(home, attr, None)
            if original is not None:
                name = f"{_short(home)}.{attr}"
                self._replace(original, lambda module, fn, name=name: self._spanned(name, fn))
        self._replace(equations.generators, lambda module, fn: self._generators(fn))
        self._replace(
            jets.is_member,
            lambda module, fn: self._is_member("dense" if module is oracle else "arc", fn),
        )
        cls = lattice.ToricSurface
        original = cls.__dict__["from_pair"]
        traced = self._spanned("lattice.ToricSurface.from_pair", original.__func__)
        cls.from_pair = classmethod(traced)
        self._restore.append((cls, "from_pair", original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()
        self._collect_workers()

    # ------------------------------------------------------------ workers

    def _become_worker(self):
        """In a forked pool worker: drop the parent's spans, report at exit."""
        if not self._restore:
            return
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.t0, self.t1 = array("q"), array("q")
        self.stack, self.counts = [], {}
        multiprocessing.util.Finalize(self, self._send_totals, exitpriority=100)

    def _send_totals(self):
        message = json.dumps({"totals": self.totals(), "counts": self.counts}) + "\n"
        os.write(self._pipe[1], message.encode())

    def _collect_workers(self):
        if self._pipe is None:
            return
        rfd, wfd = self._pipe
        self._pipe = None
        os.close(wfd)
        os.set_blocking(rfd, False)
        data = b""
        try:
            while chunk := os.read(rfd, 1 << 16):
                data += chunk
        except BlockingIOError:
            pass
        finally:
            os.close(rfd)
        for line in data.decode().splitlines():
            msg = json.loads(line)
            self.child_totals.append(msg["totals"])
            for key, n in msg["counts"].items():
                self.count(key, n)

    # ------------------------------------------------------------ analysis

    def totals(self):
        """name -> [calls, self ns, inclusive ns], summed over every span,
        workers' spans included."""
        n = len(self.t0)
        t0, t1, parent, name = self.t0, self.t1, self.parent, self.name
        child = [0] * n
        for k in range(n):
            par = parent[k]
            if par >= 0:
                child[par] += t1[k] - t0[k]
        out = {}
        for k in range(n):
            dur = t1[k] - t0[k]
            row = out.setdefault(self.names[name[k]], [0, 0, 0])
            row[0] += 1
            row[1] += dur - child[k]
            row[2] += dur
        for worker in self.child_totals:
            for key, (calls, self_ns, incl_ns) in worker.items():
                row = out.setdefault(key, [0, 0, 0])
                row[0] += calls
                row[1] += self_ns
                row[2] += incl_ns
        return out

    def dump(self, path):
        """Write every span as a tab-separated line: op, name, parent, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\top\tname\tparent\tstart_ns\tend_ns\n")
            for k in range(len(self.t0)):
                fh.write(
                    f"{k}\t{self.op[k]}\t{self.names[self.name[k]]}\t{self.parent[k]}"
                    f"\t{self.t0[k]}\t{self.t1[k]}\n"
                )
