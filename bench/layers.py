"""Per-layer metrics of a traced run (`--trace 1`).

Spans: `Tracer.install` replaces the public entry points of each layer
(the modules under src/mckayq) with wrappers, in every mckayq module
that holds a reference to them.  A wrapper records one span (metric
name, phase, CPU start and end, parent span) per outermost call, so a
recursive or nested call of the same entry point is not counted twice.
The spans stay in memory and are written to bench/out/ at the end.  A
layer's `*_ms` metric is its mean CPU milliseconds per call over set-up
and the timed phase.  An entry point the workload never calls is timed
on a fixed probe (the BD:12 table, its natural quiver and one
unfaithful quiver), so every metric is measured in every run.

Counts: a separate child process (PYTHONHASHSEED=0) sets up and runs the
first round under cProfile, which gives exact call counts; two small
wrappers count the character products formed and recognised as rows,
and the certificates found.  The library itself is not modified.
"""

from __future__ import annotations

import contextlib
import cProfile
import fractions
import functools
import io
import json
import os
import pstats
import shutil
import sys
import time

from mckayq import (catalog, chartab, cli, cyclotomic, galois, mckay, obstructions,
                    polynomials, quiver)

SPANS = {
    "cyclotomic.parse_ms": ("cyclotomic.parse_cyclotomic",),
    "chartab.engine_build_ms": ("chartab._TableEngine.__init__",),
    "chartab.verify_table_ms": ("chartab.verify_table",),
    "chartab.quotient_table_ms": ("chartab.quotient_table",),
    "chartab.decompose_ms": ("chartab.decompose",),
    "chartab.table_to_json_ms": ("chartab.table_to_json",),
    "chartab.table_from_json_ms": ("chartab.table_from_json",),
    "catalog.parse_group_spec_ms": ("catalog.parse_group_spec",),
    "mckay.mckay_quiver_ms": ("mckay.McKayQuiver.__init__",),
    "mckay.eigen_check_ms": ("mckay.eigen_check",),
    "mckay.dual_reversal_ms": ("mckay.dual_reversal_check",),
    "mckay.dual_action_ms": ("mckay.dual_group_action",),
    "mckay.components_ms": ("mckay.component_partition",),
    "mckay.walk_ms": ("mckay.walk_matrix",),
    "mckay.character_walk_ms": ("mckay.character_walk_matrix",),
    "mckay.principal_component_ms": ("mckay.principal_component",),
    "quiver.weighting_ms": ("quiver.reduced_weight_vector",),
    "quiver.char_poly_ms": ("quiver.char_poly",),
    "quiver.automorphism_ms": ("quiver.automorphism_orbits",),
    "quiver.components_ms": ("quiver.strongly_connected_components",
                             "quiver.weakly_connected_components"),
    "quiver.ade_ms": ("quiver.ade_classify",),
    "polynomials.factor_ms": ("polynomials.factor_over_Q",),
    "galois.solvability_ms": ("galois.solvability",),
    "obstructions.battery_ms": ("obstructions.mckay_obstruction_battery",),
    "cli.table_ms": ("cli.cmd_table",),
    "cli.quiver_ms": ("cli.cmd_quiver",),
    "cli.verify_ms": ("cli.cmd_verify",),
    "cli.analyze_ms": ("cli.cmd_analyze",),
    "cli.check_mckay_ms": ("cli.cmd_check_mckay",),
}

_MODULES = {"cyclotomic": cyclotomic, "chartab": chartab, "catalog": catalog,
            "mckay": mckay, "quiver": quiver, "polynomials": polynomials,
            "galois": galois, "obstructions": obstructions, "cli": cli}


def _replace_everywhere(orig, new) -> None:
    """Point every mckayq module attribute that holds `orig` at `new`."""
    for name, mod in list(sys.modules.items()):
        if name == "mckayq" or name.startswith("mckayq."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def _patch(target: str, make_wrapper) -> None:
    mod_name, *path = target.split(".")
    owner = _MODULES[mod_name]
    for part in path[:-1]:
        owner = getattr(owner, part)
    orig = getattr(owner, path[-1])
    new = make_wrapper(orig)
    if isinstance(owner, type):
        setattr(owner, path[-1], new)
    else:
        _replace_everywhere(orig, new)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.bucket = "run"
        self.active = True
        self.depth: dict[str, int] = {}
        self.stack: list[int] = []
        self.spans: list = []
        self.totals: dict[tuple[str, str], list] = {}

    def install(self) -> None:
        for metric, targets in SPANS.items():
            for target in targets:
                _patch(target, functools.partial(self._wrap, metric))

    def install_items(self, wl) -> None:
        """Give every item of the workload a root span named after it."""
        run_item = wl.run_item

        def traced(item):
            idx = self._open()
            t0 = time.process_time()
            try:
                return run_item(item)
            finally:
                self._close(idx, "item:" + item.label, t0, record=False)
        wl.run_item = traced

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx, name, t0, record=True) -> None:
        t1 = time.process_time()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans[idx] = (name, self.phase, t0, t1, parent)
        if record:
            tot = self.totals.setdefault((self.bucket, name), [0.0, 0])
            tot[0] += t1 - t0
            tot[1] += 1

    def _wrap(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self.depth.get(metric):
                return fn(*args, **kwargs)
            self.depth[metric] = 1
            idx = self._open()
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth[metric] = 0
                self._close(idx, metric, t0)
        return wrapper

    def start_timed_phase(self) -> None:
        self.phase = "timed"

    def stop(self) -> None:
        self.active = False

    def add(self, metric: str, seconds: float, calls: int) -> None:
        """Fold in spans recorded by a child process."""
        tot = self.totals.setdefault(("run", metric), [0.0, 0])
        tot[0] += seconds
        tot[1] += calls

    def run_totals(self) -> dict[str, list]:
        return {m: v for (b, m), v in self.totals.items() if b == "run"}

    def write(self, path, workload: str, seed: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "fields": ["name", "phase", "cpu_start", "cpu_end", "parent"],
                       "spans": [s for s in self.spans if s is not None]}, fh)


# -- probes --------------------------------------------------------------------


def _probe(workdir: str) -> None:
    """One call of every entry point, on BD:12."""
    t = catalog.parse_group_spec("BD:12")
    text = json.dumps(chartab.table_to_json(t))
    chartab.table_from_json(text)
    chartab.verify_table(t)
    m = mckay.McKayQuiver(t, catalog.natural_rep(t))
    mckay.eigen_check(m)
    mckay.dual_reversal_check(m)
    mckay.dual_group_action(t)
    mckay.component_partition(m)
    mckay.walk_matrix(m, 3)
    mckay.character_walk_matrix(m, 3)
    mckay.principal_component(mckay.McKayQuiver(t, (0, 0, 0, 0, 1, 0)))
    chartab.decompose(t.irreducible(4) * t.irreducible(5))
    q = m.to_quiver()
    quiver.reduced_weight_vector(q)
    cp = quiver.char_poly(q)
    quiver.automorphism_orbits(q)
    quiver.strongly_connected_components(q)
    quiver.ade_classify(q)
    polynomials.factor_over_Q(cp)
    galois.solvability(cp)
    obstructions.mckay_obstruction_battery(q)
    table_file = os.path.join(workdir, "probe_table.json")
    quiver_file = os.path.join(workdir, "probe_quiver.json")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["table", "BD:12", "--format", "json", "--out", table_file])
        cli.main(["verify", table_file, "--format", "json"])
        cli.main(["quiver", "BD:12", "--out", quiver_file])
        cli.main(["analyze", quiver_file, "--format", "json"])
        cli.main(["check-mckay", quiver_file, "--format", "json"])


# -- counts --------------------------------------------------------------------


class Counters:
    """Wrappers that count character products and certificates."""

    def __init__(self):
        self.products = 0
        self.row_hits = 0
        self.certificates = 0

    def install(self) -> None:
        def decompose_products(fn):
            @functools.wraps(fn)
            def wrapper(t, left):
                rows = fn(t, left)
                self.products += t.n_classes
                self.row_hits += sum(1 for row in rows if sum(row) == 1)
                return rows
            return wrapper

        def dual_action(fn):
            @functools.wraps(fn)
            def wrapper(t):
                action = fn(t)
                self.products += len(action) * t.n_classes
                self.row_hits += len(action) * t.n_classes
                return action
            return wrapper

        def witness(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cert = fn(*args, **kwargs)
                self.certificates += cert is not None
                return cert
            return wrapper

        _replace_everywhere(mckay._decompose_products,
                            decompose_products(mckay._decompose_products))
        _replace_everywhere(mckay.dual_group_action, dual_action(mckay.dual_group_action))
        _replace_everywhere(galois._witness_for_factor, witness(galois._witness_for_factor))


_COUNTED = {
    "cyclotomic.minimize_calls": cyclotomic._minimize,
    "cyclotomic.fraction_calls": fractions.Fraction.__new__,
    "chartab.engine_mul_calls": chartab._TableEngine.mul,
    "chartab.engine_reduce_calls": chartab._TableEngine.reduce_dict,
    "quiver.nullspace_calls": quiver._nullspace,
    "polynomials.ddf_calls": polynomials.ddf_pattern,
}


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def count_calls(work) -> dict:
    """Run `work()` under cProfile and the counting wrappers."""
    witness_key = _key(galois._witness_for_factor)
    counters = Counters()
    counters.install()
    prof = cProfile.Profile()
    prof.enable()
    try:
        work()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    out = {name: stats.get(_key(fn), (0, 0))[1] for name, fn in _COUNTED.items()}
    ddf = stats.get(_key(polynomials.ddf_pattern))
    out["galois.primes_tried"] = ddf[4].get(witness_key, (0, 0))[1] if ddf else 0
    out["galois.certificates"] = counters.certificates
    out["mckay.products_computed"] = counters.products
    out["mckay.row_lookup_hits"] = counters.row_hits
    return out


def count_pass(wl) -> dict:
    """Counts over the first round of the workload."""
    if hasattr(wl, "count_round"):
        return wl.count_round()

    def work():
        for item in wl.round(0):
            try:
                wl.run_item(item)
            except Exception:
                pass
    return count_calls(work)


# -- the metrics -----------------------------------------------------------------


def per_layer(tracer: Tracer, wl, counts: dict, import_ms: float, out_dir) -> dict:
    workdir = os.path.join(out_dir, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer.bucket = "probe"
    tracer.active = True
    try:
        _probe(workdir)
    finally:
        tracer.active = False
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    run = tracer.run_totals()
    for metric in SPANS:
        seconds, calls = run.get(metric) or tracer.totals.get(("probe", metric), (0.0, 0))
        metrics[metric] = {"value": 1e3 * seconds / calls if calls else 0.0, "unit": "ms"}
    metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    battery = metrics["obstructions.battery_ms"]["value"]
    metrics["cli.analyze_to_battery_ratio"] = {
        "value": metrics["cli.analyze_ms"]["value"] / battery if battery else 0.0,
        "unit": "ratio"}
    if hasattr(wl, "layer_metrics"):
        metrics.update(wl.layer_metrics())

    for name in list(_COUNTED) + ["galois.primes_tried", "mckay.products_computed"]:
        metrics[name] = {"value": counts[name], "unit": "count"}
    products = counts["mckay.products_computed"]
    metrics["mckay.row_lookup_hit_ratio"] = {
        "value": counts["mckay.row_lookup_hits"] / products if products else 0.0,
        "unit": "ratio"}
    primes = counts["galois.primes_tried"]
    metrics["galois.certificates_per_prime"] = {
        "value": counts["galois.certificates"] / primes if primes else 0.0,
        "unit": "ratio"}
    return metrics
