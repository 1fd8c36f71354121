"""The four workloads: seeded inputs, the timed operation, its output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come in batches; a batch is
generated, then run with only the operations timed, then checked, so no
check and no input generation falls inside the timed region.  A failed
operation never aborts a run: exceptions are counted by type, CLI exits by
code and wrong answers by the check that caught them.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import filiform_ce as fc
from filiform_ce import jsonio

import calib
import gen
from tracer import OP

#: criterion-7 bound on the witness pushed through the tensor route
MOVED_RTOL = 1e-6
#: bound on a parameter tuple reached through a witness
MATCH_RTOL = 1e-6
#: Leibniz residual of a moved table, relative to its squared scale
RESIDUAL_RTOL = 1e-9
HARNESS_TRIALS = 100
HARNESS_CHECKS = 32
#: trials of the untimed same-seed rerun pair
RERUN_TRIALS = 10

# The checks call the library through these bindings, taken before any
# wrapper is installed, so they never show up in a trace.
_act = fc.act_on_params
_build = fc.build_table
_series = fc.lower_central_series
_rep = fc.representative_params


def _dev(p, q) -> float:
    return max(abs(x - y) for x, y in zip(p.as_tuple(), q.as_tuple()))


class Workload:
    """One workload; subclasses implement the hooks."""

    name = ""
    #: kind of host speed reference timed with the operations (``calib.KINDS``)
    reference = "compute"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None

    def batch(self, b: int) -> list:
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> str | None:
        """Name of the first failed output check, or None."""
        raise NotImplementedError

    def probe_inputs(self) -> list:
        """Untimed robustness inputs whose failures are counted, not fatal."""
        return []

    def extra_checks(self) -> dict[str, bool]:
        return {}


class ClassifyStream(Workload):
    """``classify(p)`` then ``isomorphic(p, q)`` on one pre-generated pair."""

    name = "classify-stream"
    batch_size = 256

    def batch(self, b):
        return gen.pairs(self.seed, b, self.batch_size)

    def probe_inputs(self):
        return gen.pairs(self.seed, 0, 256, scaled=True)

    def op(self, x):
        return fc.classify(x.p), fc.isomorphic(x.p, x.q)

    def check(self, x, out):
        label, (same, witness) = out
        if label.subset != x.cell:
            return "cell"
        rep = label.representative
        if _dev(_act(label.witness, x.p), rep) > MATCH_RTOL * (1 + rep.scale()):
            return "witness"
        if same != x.q_isomorphic:
            return "isomorphic"
        if same and _dev(_act(witness, x.p), x.q) > MATCH_RTOL * (1 + x.q.scale()):
            return "isomorphic-witness"
        return None


def _load_oracles():
    path = Path("tests") / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TensorRoute(Workload):
    """The witness of ``canonicalize(p)`` pushed through the structure tensor."""

    name = "tensor-route"
    batch_size = 64

    def batch(self, b):
        return gen.pairs(self.seed, b, self.batch_size)

    def probe_inputs(self):
        return gen.pairs(self.seed, 0, 128, scaled=True)

    def op(self, x):
        label = fc.canonicalize(x.p)
        matrix = fc.adapted_matrix(label.witness, x.p)
        moved = fc.change_basis(fc.build_table(x.p), matrix)
        return (
            label,
            matrix,
            moved,
            fc.read_params(moved),
            fc.leibniz_residual(moved),
            fc.lower_central_series(moved),
        )

    def check(self, x, out):
        label, _, moved, read, residual, series = out
        if label.subset != x.cell:
            return "cell"
        rep = _rep(x.p.n, label.subset, label.lam)
        target = _build(rep)
        scale = 1 + float(np.max(np.abs(target.gamma)))
        if float(np.max(np.abs(moved.gamma - target.gamma))) > MOVED_RTOL * scale:
            return "moved-tensor"
        if _dev(read, rep) > MOVED_RTOL * scale:
            return "read-params"
        if residual > RESIDUAL_RTOL * scale * scale:
            return "residual"
        if series != _series(target):
            return "series"
        return None

    def extra_checks(self):
        """A seeded sample against the loop oracles of the test suite.

        One member per rank for ``naive_change_basis``; the loop residual
        costs seconds per call at n = 7 and 8, so it runs on n = 4..6.
        """
        oracles = _load_oracles()
        rng = np.random.default_rng([self.seed, 4])
        by_rank: dict[int, list] = {}
        for x in self.batch(0):
            by_rank.setdefault(x.p.n, []).append(x)
        ok = True
        for n in sorted(by_rank):
            x = by_rank[n][int(rng.integers(len(by_rank[n])))]
            _, matrix, moved, _, residual, _ = self.op(x)
            table = _build(x.p).gamma
            scale = 1 + float(np.max(np.abs(moved.gamma)))
            naive = oracles.naive_change_basis(table, matrix)
            ok &= float(np.max(np.abs(naive - moved.gamma))) <= 1e-9 * scale
            if n <= 6:
                ok &= abs(oracles.naive_residual_max(moved.gamma) - residual) <= 1e-9 * scale * scale
        return {"oracles": bool(ok)}


class Harness(Workload):
    """One ``verify_all(seed, trials=100)`` call per operation, a new seed each.

    The byte-identical rerun of a seed happens outside the timed loop (or in
    the traced pass, which repeats the plain pass's seeds), so no timed
    operation of a pass repeats an earlier one.
    """

    name = "harness"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.base = int(np.random.default_rng([seed, 2]).integers(1, 2**31))
        self.reports: dict[int, str] = {}
        self.repeats = 0
        self.failed_checks = 0
        self.checked = 0

    def batch(self, b):
        return [self.base + b]

    def op(self, seed):
        return fc.verify_all(seed, trials=HARNESS_TRIALS)

    def check(self, seed, report):
        passed, total = report.summary
        self.checked += 1
        self.failed_checks += HARNESS_CHECKS - passed
        if (passed, total) != (HARNESS_CHECKS, HARNESS_CHECKS):
            return "harness-checks"
        text = report.to_json()
        if seed in self.reports:
            if self.reports[seed] != text:
                return "harness-not-deterministic"
            self.repeats += 1
        self.reports[seed] = text
        return None

    def check_error_rate(self) -> float:
        """Failed harness checks over the 32 of every checked run."""
        return self.failed_checks / (HARNESS_CHECKS * max(self.checked, 1))

    def extra_checks(self):
        """Two runs of one seed give a byte-identical report.

        A traced run repeats the plain pass's seeds and ``check`` compares
        them; otherwise the first seed runs twice more here, untimed, at
        ``RERUN_TRIALS`` trials so the check does not double the run.
        """
        if self.repeats == 0:
            first, second = (
                fc.verify_all(self.base, trials=RERUN_TRIALS).to_json() for _ in range(2)
            )
            return {"same-seed-byte-identical": first == second}
        return {"same-seed-byte-identical": True}


VERBS = ("build", "check", "act", "classify", "isomorphic", "representatives", "derive-constraints")


@dataclass(frozen=True)
class CliCall:
    verb: str
    n: int
    argv: tuple[str, ...]
    stdin: str
    p: object = None
    q: object = None
    t: object = None
    same: bool | None = None


def _cli_call(verb: str, n: int, rng) -> CliCall:
    cell = gen.SUBSETS[n][int(rng.integers(len(gen.SUBSETS[n])))].name
    p = gen.draw_member(rng, n, cell)
    if verb in ("representatives", "derive-constraints"):
        return CliCall(verb, n, (verb, "--n", str(n)), "")
    if verb == "check":
        return CliCall(verb, n, (verb,), jsonio.dumps(jsonio.encode_tensor(_build(p))), p)
    if verb == "act":
        t = gen.draw_transform(rng, p)
        doc = {"params": jsonio.encode_params(p), "transform": jsonio.encode_transform(t)}
        return CliCall(verb, n, (verb,), jsonio.dumps(doc), p, t=t)
    if verb == "isomorphic":
        if rng.random() < 0.5:
            q, same = _act(gen.draw_transform(rng, p), p), True
        else:
            others = [s.name for s in gen.SUBSETS[n] if s.name != cell]
            q, same = gen.draw_member(rng, n, others[int(rng.integers(len(others)))]), False
        doc = {"first": jsonio.encode_params(p), "second": jsonio.encode_params(q)}
        return CliCall(verb, n, (verb,), jsonio.dumps(doc), p, q=q, same=same)
    return CliCall(verb, n, (verb,), jsonio.dumps(jsonio.encode_params(p)), p)


def _expected(call: CliCall):
    """The in-process library result for the same input, as CLI JSON."""
    if call.verb == "build":
        return jsonio.encode_tensor(_build(call.p))
    if call.verb == "check":
        t = _build(call.p)
        return {
            "leibniz_residual": fc.leibniz_residual(t),
            "filiform": fc.is_filiform(t),
            "series": _series(t),
        }
    if call.verb == "act":
        return jsonio.encode_params(_act(call.t, call.p))
    if call.verb == "classify":
        return jsonio.encode_label(fc.classify(call.p))
    if call.verb == "isomorphic":
        same, witness = fc.isomorphic(call.p, call.q)
        return {
            "isomorphic": same,
            "witness": None if witness is None else jsonio.encode_transform(witness),
        }
    if call.verb == "representatives":
        return {
            "n": call.n,
            "representatives": [
                {"subset": s, "representative": jsonio.encode_params(r), "parametric": par}
                for s, r, par in fc.representatives(call.n)
            ],
        }
    return jsonio.encode_constraints(fc.solve_leibniz_constraints(call.n))


class Cli(Workload):
    """One fresh ``python -m filiform_ce.cli <verb>`` process per operation.

    A batch is one pass over every verb at every rank 4..8 (35 calls) in a
    seeded order, so each batch carries the same mix of cold solves.
    """

    name = "cli"
    reference = "spawn"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.import_s: list[float] = []

    def batch(self, b):
        rng = np.random.default_rng([self.seed, 3, b])
        combos = [(v, n) for v in VERBS for n in gen.RANKS]
        return [_cli_call(*combos[i], rng) for i in rng.permutation(len(combos))]

    def probe_inputs(self):
        rng = np.random.default_rng([self.seed, 5])
        out = []
        for n in gen.RANKS:
            cell = gen.SUBSETS[n][int(rng.integers(len(gen.SUBSETS[n])))].name
            p = gen.scale_member(rng, gen.draw_member(rng, n, cell))
            out.append(CliCall("classify", n, ("classify",), jsonio.dumps(jsonio.encode_params(p)), p))
        return out

    def op(self, call):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "filiform_ce.cli", *call.argv]
        else:
            spans = self.out_dir / "cli-spans.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(spans), *call.argv]
        proc = subprocess.run(cmd, input=call.stdin, capture_output=True, text=True, timeout=150)
        if self.tracer is not None:
            doc = json.loads(spans.read_text())
            self.import_s.append(doc["import_s"])
            self.tracer.add(doc)
        return proc.returncode, proc.stdout

    def check(self, call, out):
        code, stdout = out
        if code != 0:
            return f"exit:{code}"
        got = json.loads(stdout)
        if got != json.loads(jsonio.dumps(_expected(call))):
            return f"wrong:{call.verb}"
        if call.same is not None and got["isomorphic"] != call.same:
            return "wrong:isomorphic-truth"
        return None


WORKLOADS = {w.name: w for w in (Harness, ClassifyStream, TensorRoute, Cli)}


def measure(wl: Workload, seconds: float, tracer=None) -> dict:
    """Run batches until the timed operations add up to ``seconds``.

    The host speed reference (see ``calib``) runs alongside the operations;
    its time is taken out of theirs.  A traced pass runs none, so that no
    reference time falls inside a span.
    """
    op = wl.op if tracer is None else tracer.wrap(OP, wl.op)
    ref = calib.REFERENCES[wl.reference]() if tracer is None else None
    latencies: list[float] = []
    failures: Counter = Counter()
    busy = 0.0
    attempted = 0
    b = 0
    while b == 0 or busy < seconds:
        inputs = wl.batch(b)
        b += 1
        results = []
        if tracer is not None:
            tracer.on = True
        with ref or contextlib.nullcontext():
            for x in inputs:
                t0 = time.perf_counter()
                try:
                    out, err = op(x), None
                except Exception as exc:  # counted below; a failed operation never aborts the run
                    out, err = None, exc
                t1 = time.perf_counter()
                took = t1 - t0 - (ref.taken(t0, t1) if ref else 0.0)
                latencies.append(took)
                results.append((out, err))
                busy += took
                if ref:
                    ref.after(took)
        if tracer is not None:
            tracer.on = False
        for x, (out, err) in zip(inputs, results):
            attempted += 1
            problem = f"raised:{type(err).__name__}" if err is not None else wl.check(x, out)
            if problem:
                failures[problem] += 1
    return {
        "latencies": latencies,
        "busy_s": busy,
        "reference": wl.reference,
        "ref_s": ref.times if ref else None,
        "attempted": attempted,
        "failures": dict(failures),
        "batches": b,
    }


def probe(wl: Workload) -> dict:
    """Untimed robustness pass: failures by kind over the probe inputs."""
    failures: Counter = Counter()
    inputs = wl.probe_inputs()
    for x in inputs:
        try:
            problem = wl.check(x, wl.op(x))
        except Exception as exc:  # the count is the point of the probe
            problem = f"raised:{type(exc).__name__}"
        if problem:
            failures[problem] += 1
    return {"attempted": len(inputs), "failures": dict(failures)}
