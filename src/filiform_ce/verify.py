"""Randomized re-derivation suite for the whole extension family.

Every structural claim the library encodes -- bracket validity of the
tables, the constraint solve, the adapted-transform calculus, and the
per-cell classification with its orbit functions -- is re-checked here
through an independent numerical route: residual tensors are contracted
directly, parameter actions are compared against explicit basis changes,
and normal forms are re-derived from random samples.  The paper's orbit
functions live here, as the reference for the library's normal-form
values.

The suite is deterministic: the seed fixes every random draw (each check
derives its own generator from a hash of ``seed`` and the check id, so
checks stay independent and order-insensitive), and two runs with the
same seed produce byte-identical reports.  Every pass/fail decision goes
through ``_Ctx.gate`` or ``_Ctx.fail``: a check stops at its first failure,
and the runner records it in the report together with the inputs that
witnessed it, so a discrepancy can be replayed from the report alone.
Every check that takes the tensor route draws its trials through one
protocol, ``_trials``: a draw gives a trial's input and its steps, and the
route moves the member's table by the product of the adapted matrices of
those steps and reads it back (``_oracle``).  ``_trials`` computes the
routes of a chunk of trials in one stacked pass (``_oracle_pass``),
without changing a byte of the report.  The classification checks
canonicalize each member they draw once and ask every later question of
its label: the witness is gated on the image the label carries
(``label._image``, the ``act_on_params(witness, p)`` that ``canonicalize``
checked), orbit values are read off the label (``_orbit_value``), and
isomorphism is decided on two labels already held (``_isomorphic``).

``MANIFEST`` is the frozen list of check ids.  It is compared against the
registry on every run, so a check cannot be dropped silently.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from .action import (
    AdaptedTransform,
    ElementaryTransform,
    _bracket_columns,
    _first_columns,
    _read_stack,
    _require_nondegenerate,
    act_on_params,
    adapted_matrix,
    compose,
    elementary_factors,
    elementary_to_adapted,
    inverse_transform,
    random_transform,
    read_params,
    sigma,
    tau,
    transform_from_matrix,
    upsilon,
)
from .classify import (
    STABILIZERS,
    _isomorphic,
    _orbit_value,
    canonicalize,
    classify,
    isomorphic,
    nonzero_flags,
    representative_params,
    representatives,
    subset_of,
)
from .errors import (
    CanonicalizationError,
    DegenerateTransformError,
    DomainError,
    FiliformError,
    TableShapeError,
)
from .family import (
    ExtensionParams,
    _build_stack,
    build_mu,
    build_table,
    params_from_tuple,
    random_params,
    solve_leibniz_constraints,
)
from .subsets import PARAM_SLOTS, SUBSETS, free_pairs, parametric_subsets
from .tensor import (
    StructureTensor,
    _change_stack,
    _finite,
    bracket,
    change_basis,
    is_filiform,
    leibniz_residual,
    lower_central_series,
    worst_leibniz_triple,
)

__all__ = ["CheckResult", "VerificationReport", "MANIFEST", "verify_all"]

#: (free coefficients, cells, parametric cells) at each rank the paper
#: classifies; the checks cover these ranks, whatever the library supports
_PAPER_COUNTS = {4: (4, 9, 1), 5: (5, 13, 2), 6: (5, 13, 2), 7: (6, 17, 3), 8: (6, 17, 3)}
_RANKS = tuple(_PAPER_COUNTS)


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    ``n`` is the rank the check is pinned to, or None for checks that sweep
    every rank.  ``max_residual`` is the largest value any of the check's
    gates recorded, or NaN if one recorded a NaN; 1.0 marks a structural
    failure and -1.0 an aborted check.  A check stops at its first failed
    gate, and a NaN fails its gate.  ``notes`` carries either summary
    statistics or, on failure, the inputs that witnessed the problem.
    """

    check_id: str
    n: int | None
    trials: int
    max_residual: float
    passed: bool
    notes: str


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    trials: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> tuple[int, int]:
        return sum(1 for c in self.checks if c.passed), len(self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> str:
        done, total = self.summary
        payload = {
            "seed": self.seed,
            "trials": self.trials,
            "summary": {"passed": done, "total": total},
            "checks": [
                {
                    "check_id": c.check_id,
                    "n": c.n,
                    "trials": c.trials,
                    "max_residual": c.max_residual,
                    "passed": c.passed,
                    "notes": c.notes,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        head = f"{'check':<30} {'n':>3} {'trials':>6} {'max-resid':>10}  status"
        lines = [head, "-" * len(head)]
        for c in self.checks:
            nn = "all" if c.n is None else str(c.n)
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.check_id:<30} {nn:>3} {c.trials:>6} {c.max_residual:>10.3e}  {status}"
            )
            if not c.passed and c.notes:
                lines.append(f"    {c.notes}")
        done, total = self.summary
        lines.append(f"passed {done}/{total}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# registry plumbing


@dataclass(frozen=True)
class _Check:
    check_id: str
    n: int | None
    fn: object


class _Stop(Exception):
    """A check failed; the message is its note."""


@dataclass
class _Ctx:
    rng: np.random.Generator
    trials: int
    worst: float = 0.0

    def gate(self, value: float, bound: float, note) -> None:
        """Record ``value`` and stop the check unless ``value <= bound``, so
        NaN fails and is recorded; ``note()`` builds the failure note."""
        self.worst = _worst(self.worst, value)
        if not value <= bound:
            raise _Stop(note())

    def fail(self, note: str) -> NoReturn:
        """Stop the check on a structural failure."""
        self.worst = 1.0
        raise _Stop(note)


_REGISTRY: dict[str, _Check] = {}


def _register(check_id: str, n: int | None, fn) -> None:
    if check_id in _REGISTRY:
        raise FiliformError(f"duplicate check id {check_id!r}")
    _REGISTRY[check_id] = _Check(check_id, n, fn)


def _check_seed(seed: int, check_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _dev(x, y) -> float:
    """Relative deviation |x - y| / (1 + max magnitude) of two Python numbers."""
    return abs(x - y) / (1.0 + max(abs(x), abs(y)))


def _worst(*values: float) -> float:
    """The largest of ``values``, or a NaN among them.  Python's ``max``
    keeps a NaN only in first place, so it would hide a NaN deviation from
    the gate the value feeds."""
    for v in values:
        if v != v:
            return v
    return max(values)


def _tuple_dev(p: ExtensionParams, q: ExtensionParams) -> float:
    return _worst(*(_dev(a, b) for a, b in zip(p.as_tuple(), q.as_tuple())))


def _show(p: ExtensionParams) -> str:
    return f"n={p.n} params={p.as_tuple()!r}"


def _show_pt(p: ExtensionParams, t: AdaptedTransform) -> str:
    return f"{_show(p)}, transform(A0={t.A0!r}, A1={t.A1!r}, B={t.B!r})"


def _triple_note(table: StructureTensor, p: ExtensionParams) -> str:
    triple, val = worst_leibniz_triple(table)
    return f"basis triple {triple} (residual {val:.3e}) for {_show(p)}"


# ---------------------------------------------------------------------------
# checks: table construction


def _chk_leibniz_validity(ctx: _Ctx) -> str:
    """Random tables over the solved family satisfy the bracket identity."""
    for n in _RANKS:
        for _ in range(ctx.trials):
            p = random_params(n, rng=ctx.rng)
            # mix in exact zeros so degenerate corners are exercised too
            p = params_from_tuple(n, [0j if ctx.rng.random() < 0.25 else v for v in p.as_tuple()])
            table = build_table(p)
            ctx.gate(
                leibniz_residual(table) / table.scale(),
                1e-9,
                lambda: f"bracket identity violated at {_triple_note(table, p)}",
            )
    return f"{len(_RANKS) * ctx.trials} random tables checked"


def _chk_table_structure(ctx: _Ctx) -> str:
    """Tables carry the chain skeleton, a central top vector, and read back."""
    for n in _RANKS:
        for _ in range(ctx.trials):
            p = random_params(n, rng=ctx.rng)
            table = build_table(p)
            g = table.gamma
            for i in range(1, n):
                if g[i, 0, i + 1] != 1 or g[0, i, i + 1] != -1:
                    ctx.fail(f"chain skeleton broken at row {i} for {_show(p)}")
            if np.any(g[n, :, :] != 0) or np.any(g[:, n, :] != 0):
                ctx.fail(f"top vector is not central for {_show(p)}")
            off = g[:, :, :n].copy()
            for i in range(1, n - 1):
                off[i, 0, i + 1] -= 1
                off[0, i, i + 1] += 1
            if np.max(np.abs(off)) != 0:
                ctx.fail(f"bracket values spill outside the center for {_show(p)}")
            dev = _tuple_dev(p, read_params(table))
            ctx.gate(dev, 1e-12, lambda: f"parameter read-back drifted by {dev:.3e} for {_show(p)}")
        # an off-pattern entry must be rejected, with its location reported
        p = random_params(n, rng=ctx.rng)
        g = build_table(p).gamma.copy()
        g[2, 2, n] += 0.5
        try:
            read_params(StructureTensor(g))
        except TableShapeError as exc:
            if (2, 2, n) not in [e[0] for e in exc.entries]:
                ctx.fail(f"shape rejection at n={n} missed entry (2, 2, {n})")
        else:
            ctx.fail(f"off-pattern table accepted at n={n}")
    return "skeleton, centrality, and read-back verified"


def _chk_central_series(ctx: _Ctx) -> str:
    """Base algebras and extensions have the one-step-deep filiform series."""
    for n in _RANKS:
        expected = [n + 1] + list(range(n - 1, -1, -1))
        mu = build_mu(n)
        if lower_central_series(mu) != expected or not is_filiform(mu):
            ctx.fail(f"base algebra series wrong at n={n}: {lower_central_series(mu)}")
        for p in (random_params(n, rng=ctx.rng), params_from_tuple(n, [0] * len(PARAM_SLOTS[n]))):
            table = build_table(p)
            got = lower_central_series(table)
            if got != expected or not is_filiform(table):
                ctx.fail(f"extension series wrong for {_show(p)}: {got}")
    return "descending series profile matches at every rank"


def _expected_relations(n: int) -> dict[str, tuple[str, int] | None]:
    """Forced value of every dependent pair coordinate: a proportionality
    (source label, integer coefficient) or None for an outright zero."""
    out: dict[str, tuple[str, int] | None] = {}
    free = {f"b{i}{j}" for i, j in free_pairs(n)}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            label = f"b{i}{j}"
            if label in free:
                continue
            # the diagonal i + j follows b1m, m = i + j - 1, when that is free:
            # m even up to n - 2, and the top chain m = n - 1 at odd n
            m = i + j - 1
            out[label] = (f"b1{m}", (-1) ** (i + 1)) if m % 2 == 0 and m < n else None
    return out


def _chk_constraint_reduction(ctx: _Ctx) -> str:
    """The solved constraint system matches the closed-form reduction."""
    for n in _RANKS:
        rep = solve_leibniz_constraints(n)
        free = set(rep.free_labels)
        if free != {f"b{i}{j}" for i, j in free_pairs(n)} or rep.free_count != _PAPER_COUNTS[n][0]:
            ctx.fail(f"free coordinates at n={n}: got {sorted(free)}")
        if rep.rank != rep.total_unknowns - rep.free_count:
            ctx.fail(f"rank {rep.rank} inconsistent at n={n}")
        got = {r.target: list(r.terms) for r in rep.implied_relations}
        want = _expected_relations(n)
        if set(got) != set(want):
            ctx.fail(f"dependent coordinates differ at n={n}: {sorted(got)}")
        differ = f"proportionality coefficients differ at n={n}: {got}"
        peak = 0.0
        for label, expect in want.items():
            terms = got[label]
            if expect is None:
                peak = _worst(peak, *(abs(c) for _, c in terms))
            elif len(terms) == 1 and terms[0][0] == expect[0]:
                peak = _worst(peak, abs(terms[0][1] - expect[1]))
            else:
                ctx.fail(differ)
        ctx.gate(peak, 1e-9, lambda: differ)
        # the solved relations must produce genuinely closed tables
        for _ in range(max(1, ctx.trials // 10)):
            p = random_params(n, rng=ctx.rng)
            table = build_table(p)
            ctx.gate(
                leibniz_residual(table) / table.scale(),
                1e-9,
                lambda: f"solved relations leave the identity open at n={n}, "
                f"{_triple_note(table, p)}",
            )
    return "free counts, relations, and row signs reproduced"


# ---------------------------------------------------------------------------
# checks: transform calculus, with the reference routes only they use


def _coefficient_sum(t: AdaptedTransform, p: ExtensionParams, narrow: bool = False) -> ExtensionParams:
    """``act_on_params`` with the even rows summed directly on the table.
    ``narrow`` stops the inner sum at l = n-k-1, a circulating transcription
    that drops the top-chain terms k + l = n."""
    n = p.n
    ckl = build_table(p).gamma[:, :, n]
    nn = t.A0 ** (n - 2) * (t.A0 + t.A1 * p.b)
    evens = []
    for m in range(2, n - 1, 2):
        total = 0j
        for k in range(1, n - 1):
            for l in range(m, n - k if narrow else n):
                total += t.coeff_B(k) * t.coeff_B(l - m + 1) * ckl[k, l]
        evens.append(t.A0 ** (m - 1) / (nn * t.coeff_B(1)) * total)
    return replace(act_on_params(t, p), b_even=tuple(evens))


def _generator_matrix(e: ElementaryTransform, p: ExtensionParams) -> np.ndarray:
    """Unreduced basis-change matrix of a shift (sigma) or shear (tau)
    generator on the table of ``p``."""
    m = np.eye(p.n + 1, dtype=complex)
    m[e.k, 1 if e.kind == "sigma" else 0] += e.a
    _bracket_columns(m, build_table(p).gamma)
    return m


def _tail_generators(n: int, rng: np.random.Generator) -> list[ElementaryTransform]:
    """tau into e_2..e_n and sigma into e_{n-1}, e_n, with coefficients drawn
    as numpy's ``uniform(0.5, 2)`` draws them."""
    gens = [tau(0.5 + 1.5 * rng.random(), k) for k in range(2, n + 1)]
    return gens + [sigma(0.5 + 1.5 * rng.random(), k) for k in (n - 1, n)]


def _tail_trivial(p: ExtensionParams, generators: list[ElementaryTransform]) -> bool:
    """Whether every generator, applied to the table of ``p`` through its
    unreduced matrix, reads back the same parameters."""
    for e in generators:
        try:
            q = read_params(change_basis(build_table(p), _generator_matrix(e, p)))
        except TableShapeError:
            return False
        if not _tuple_dev(p, q) <= 1e-8:
            return False
    return True


def _naive_factors(t: AdaptedTransform) -> list[ElementaryTransform]:
    """``elementary_factors`` with the shift coefficients B_k/B_1 read off
    per slot, uncorrected for what the earlier shifts feed into the slot."""
    b1 = t.coeff_B(1)
    shifts = [sigma(t.coeff_B(k) / b1, k) for k in range(2, t.n - 1)]
    return [tau(t.A1 / t.A0, 1), *shifts, upsilon(t.A0, b1)]


def _pair(n: int, rng: np.random.Generator, cell: str | None = None) -> tuple[tuple, list]:
    """A trial of a member (of rank n, in ``cell`` if given) and a transform
    that keeps its shear away from zero, routed by the transform itself:
    ((p, t), [(t, p)])."""
    p = random_params(n, cell, rng=rng)
    t = random_transform(n, b=p.b, rng=rng)
    return (p, t), [(t, p)]


def _chain(p: ExtensionParams, factors: list[ElementaryTransform]) -> tuple[list, ExtensionParams]:
    """The closed-form action of the elementary ``factors`` on ``p``, one
    after another: the steps (reduced factor, member it acts on), in order,
    and the image they end on."""
    steps, q = [], p
    for e in factors:
        f = elementary_to_adapted(e, p.n)
        steps.append((f, q))
        q = act_on_params(f, q)
    return steps, q


def _oracle(p: ExtensionParams, steps, read: bool):
    """The tensor route: the table of ``p`` moved by the product of
    ``adapted_matrix(t, q)`` over its ``steps`` (t, q), in order, then read
    back (``read``) or given as its gamma array."""
    moved = change_basis(build_table(p), functools.reduce(np.matmul, itertools.starmap(adapted_matrix, steps)))
    return read_params(moved) if read else moved.gamma


# ---------------------------------------------------------------------------
# the tensor route on stacks of trials

#: members per stacked pass of the tensor route.  Each numpy call costs a
#: few microseconds whatever its size at d <= 9, so a chunk spreads that
#: cost over its members: per member of one adapted step, 143 us alone,
#: 21 at 16 and 14 at 100 for n = 4; 213, 49 and 60 for n = 8, where longer
#: chunks fall out of cache.  The stacked arrays, and with them the
#: harness's peak memory, grow with the chunk: 0.9 MB at 16 members of
#: n = 8, 5.5 MB at 100 (tracemalloc; 2 cores, numpy 2.4.6)
_CHUNK = 16


def _trials(count: int, draw, read: bool):
    """``count`` trials of a check, yielded one by one as (input, route).

    ``draw()`` gives a trial's (input, steps): the input a tuple led by its
    member p, and the steps those of p's ``_oracle``, or None for a trial
    without a route, whose ``route`` is then None.  Inputs are drawn in
    stream order, a chunk of at most ``_CHUNK`` ahead of the trial being
    gated, and ``_oracle_pass`` computes the chunk's routes in one pass.
    ``route()`` gives the member's result or, where the pass gave None,
    calls ``_oracle`` on the member alone, at the point where the check
    asks for it, so it raises (or warns) where a loop over single members
    would.  A draw that raises ends its chunk, and its exception is raised
    once the trials drawn before it are handed out.  A check stops at its
    first failure, so its first failing trial, its note and its worst value
    stay those of the member-by-member loop.
    """
    for start in range(0, count, _CHUNK):
        chunk, error = [], None
        for _ in range(min(_CHUNK, count - start)):
            try:
                chunk.append(draw())
            except Exception as exc:
                error = exc
                break
        results = _oracle_pass([x[0] for x, _ in chunk], [s for _, s in chunk], read) if chunk else ()
        for (x, s), r in zip(chunk, results):
            if s is None:
                yield x, None
            elif r is not None:
                yield x, lambda r=r: r
            else:
                yield x, functools.partial(_oracle, x[0], s, read)
        if error is not None:
            raise error


def _oracle_pass(ps, steps, read: bool) -> list:
    """``_oracle`` of each member p of ``ps`` (one rank) with its steps in
    ``steps``, in one stacked pass that builds the matrices of one step
    across the chunk at a time.

    A member's entry is bit for bit what ``_oracle`` gives it alone, or None
    where its steps are None or one of its route's calls would refuse it or
    warn: where ``adapted_matrix`` refuses a step (``_require_nondegenerate``,
    or ``build_table`` on the member the step acts on: ``_build_stack``),
    where the stack forms of ``change_basis`` and ``read_params`` leave it
    out (each step's own refusals; the pass takes only the lower triangular
    route, see ``_change_stack`` and ``_read_stack``), or where non-finite
    arithmetic would warn.  The caller then makes the member's own call.
    """
    ok = np.array([s is not None for s in steps])
    if not ok.any():
        return [None] * len(ps)
    n = ps[0].n
    width = len(next(s for s in steps if s is not None))
    with np.errstate(all="ignore"):
        tables, kept = _build_stack(n, np.array([p.as_tuple() for p in ps]))
        ok &= kept
        for f in range(width):
            m = np.zeros((len(ps), n + 1, n + 1), dtype=complex)
            for k, s in enumerate(steps):
                if ok[k]:
                    try:
                        _require_nondegenerate(*s[f])
                    except FiliformError:  # the member's own call raises it at its turn
                        ok[k] = False
                    else:
                        _first_columns(m[k], s[f][0])
            acted = [p if s is None else s[f][1] for p, s in zip(ps, steps)]
            gamma = tables
            if any(q is not p for q, p in zip(acted, ps)):
                gamma, kept = _build_stack(n, np.array([q.as_tuple() for q in acted]))
                ok &= kept
            _bracket_columns(m, gamma)
            total = m if f == 0 else total @ m
        moved, kept = _change_stack(tables, total)
        ok &= kept
        if not read:
            return [x if keep else None for x, keep in zip(moved, ok)]
        values, kept = _read_stack(n, moved)
        # numpy warns where it makes an inf or a NaN: read_params' scale
        # takes |entry|, which may overflow where nothing refuses the member
        ok &= kept & _finite(np.abs(moved), (1, 2, 3))
    return [params_from_tuple(n, v) if keep else None for v, keep in zip(values.tolist(), ok)]


def _chk_adapted_form(ctx: _Ctx) -> str:
    """Reduced matrices have the adapted shape and invert/compose correctly."""
    for n in _RANKS:
        for _ in range(max(1, ctx.trials // 2)):
            p = random_params(n, rng=ctx.rng)
            t = random_transform(n, b=p.b, rng=ctx.rng)
            m = adapted_matrix(t, p)
            d = n + 1
            col0 = np.zeros(d, dtype=complex)
            col0[0], col0[1] = t.A0, t.A1
            dev = float(np.max(np.abs(m[:, 0] - col0)))
            table = build_table(p)
            for i in range(1, n):
                step = bracket(table, m[:, i], m[:, 0]) - m[:, i + 1]
                dev = _worst(dev, float(np.max(np.abs(step))))
            t2 = transform_from_matrix(m, n)
            dev = _worst(dev, _dev(t.A0, t2.A0), _dev(t.A1, t2.A1))
            dev = _worst(dev, *(_dev(a, b) for a, b in zip(t.B, t2.B)))
            q = act_on_params(t, p)
            dev = _worst(dev, _tuple_dev(act_on_params(inverse_transform(t, p), q), p))
            s = random_transform(n, b=q.b, rng=ctx.rng)
            dev = _worst(dev, _tuple_dev(act_on_params(compose(t, s, p), p), act_on_params(s, q)))
            ctx.gate(dev, 1e-8, lambda: f"adapted-shape deviation {dev:.3e} for {_show_pt(p, t)}")
        for bad in (
            AdaptedTransform(n, 0, 1, (1,) + (0,) * (n - 3)),
            AdaptedTransform(n, 1, 0, (0,) + (0,) * (n - 3)),
        ):
            try:
                adapted_matrix(bad, random_params(n, rng=ctx.rng))
            except DegenerateTransformError:
                pass
            else:
                ctx.fail(f"degenerate transform accepted at n={n}")
        if n % 2 == 1:
            p = random_params(n, rng=ctx.rng)
            shearless = AdaptedTransform(n, p.b, -1, (1,) + (0,) * (n - 3))
            try:
                act_on_params(shearless, p)
            except DegenerateTransformError:
                pass
            else:
                ctx.fail(f"vanishing shear accepted at n={n}")
    return "shape, inversion, composition, and degeneracy guards hold"


def _chk_elementary_decomposition(ctx: _Ctx) -> str:
    """Generator factorization reproduces the transform, at both levels."""
    for n in _RANKS:

        def draw(n=n):
            (p, t), _ = _pair(n, ctx.rng)
            factors = elementary_factors(t)
            try:
                steps, image = _chain(p, factors)
            except FiliformError as exc:  # raised at the trial's turn
                return (p, t, factors, exc), None
            return (p, t, factors, image), steps

        for (p, t, factors, image), route in _trials(max(1, ctx.trials // 2), draw, read=True):
            if factors[0].kind != "tau" or factors[-1].kind != "upsilon":
                ctx.fail(f"factor order broken at n={n}")
            direct = act_on_params(t, p)
            if isinstance(image, FiliformError):
                raise image
            via_tensor = route()
            dev = _worst(_tuple_dev(image, direct), _tuple_dev(via_tensor, direct))
            ctx.gate(dev, 1e-9, lambda: f"factor composite deviates by {dev:.3e} for {_show_pt(p, t)}")
    return "triangular factor coefficients recompose exactly"


def _chk_tail_triviality(ctx: _Ctx) -> str:
    """Shift/shear generators past the adapted window leave parameters alone."""
    for n in _RANKS:
        seed = int(ctx.rng.integers(2**31))
        gens = _tail_generators(n, np.random.default_rng(seed))
        if not _tail_trivial(random_params(n, seed=seed), gens):
            ctx.fail(f"tail generator moved the parameters at n={n} (seed {seed})")
        if _tail_trivial(random_params(n, rng=ctx.rng), [tau(1.0, 1)]):
            ctx.fail(f"control failed at n={n}: the shear into e_1 looked trivial")
    return "trivial tails confirmed; non-tail control detected"


def _chk_action_general(ctx: _Ctx) -> str:
    """The double coefficient sum agrees with explicit basis changes."""
    for n in _RANKS:
        for (p, t), route in _trials(max(1, ctx.trials // 5), functools.partial(_pair, n, ctx.rng), read=True):
            summed = _coefficient_sum(t, p)
            oracle = route()
            dev = _worst(*(_dev(a, b) for a, b in zip(summed.b_even, oracle.b_even)))
            ctx.gate(dev, 1e-9, lambda: f"coefficient sum off by {dev:.3e} for {_show_pt(p, t)}")
    return "even rows from the general sum match the tensor route"


def _make_closed_forms_check(n: int):
    """Closed-form parameter action equals the basis-change route at rank n."""

    def run(ctx: _Ctx) -> str:
        for (p, t), route in _trials(ctx.trials, functools.partial(_pair, n, ctx.rng), read=True):
            oracle = route()
            dev = _tuple_dev(act_on_params(t, p), oracle)
            ctx.gate(dev, 1e-8, lambda: f"closed form deviates by {dev:.3e} for {_show_pt(p, t)}")
        return f"{ctx.trials} transform/parameter pairs agree"

    return run


# ---------------------------------------------------------------------------
# checks: classification


#: the paper's orbit function of each parametric cell, evaluated on a member:
#: the reference for the library's normal-form values
_PUBLISHED_ORBIT = {
    (4, "U_1"): lambda p: (p.b12 / p.b11) ** 4 * p.delta,
    (5, "U_1"): lambda p: p.delta * p.b**2 / (p.b01 * p.b - 2 * p.b11) ** 2,
    (5, "U_5"): lambda p: (p.b12 / p.b11) ** 6 * p.delta,
    (6, "U_1"): lambda p: (p.b14 / p.b11) ** 8 * p.delta**3,
    (6, "U_2"): lambda p: (p.b12 / p.b11) ** 8 * p.delta,
    (7, "U_1"): lambda p: p.delta * p.b**2 / (p.b01 * p.b - 2 * p.b11) ** 2,
    (7, "U_5"): lambda p: (p.b14 / p.b11) ** 10 * p.delta**3,
    # the first power of the discriminant; the variant report shows the
    # third power drifting along orbits
    (7, "U_9"): lambda p: (p.b12 / p.b11) ** 10 * p.delta,
    (8, "U_1"): lambda p: (p.b16 / p.b11) ** 12 * p.delta**5,
    (8, "U_5"): lambda p: (p.b11 / p.b14) ** 4 / p.delta,
    (8, "U_9"): lambda p: (p.b12 / p.b11) ** 12 * p.delta,
}


def _make_orbit_family_check(n: int, cell: str):
    """Orbit function and normal-form value behave on one parametric cell."""
    published = _PUBLISHED_ORBIT[n, cell]

    def run(ctx: _Ctx) -> str:
        for _ in range(ctx.trials):
            p = random_params(n, cell, rng=ctx.rng)
            label = classify(p)
            if label.subset != cell or label.lam is None:
                ctx.fail(f"member classified as {label.subset} for {_show(p)}")
            dev = _tuple_dev(label._image, label.representative)
            ctx.gate(dev, 1e-6, lambda: f"witness misses the normal form by {dev:.3e} for {_show(p)}")
            dev = _dev(label.invariants.orbit_value, published(p))
            ctx.gate(
                dev, 1e-9, lambda: f"orbit value off the published function by {dev:.3e} for {_show(p)}"
            )
        for _ in range(max(1, ctx.trials // 2)):
            p = random_params(n, cell, rng=ctx.rng)
            t = random_transform(n, b=p.b, rng=ctx.rng)
            q = act_on_params(t, p)
            if subset_of(q) != cell:
                ctx.fail(f"cell membership not stable for {_show_pt(p, t)}")
            label_p, label_q = canonicalize(p), canonicalize(q)
            vp, vq = _orbit_value(label_p), _orbit_value(label_q)
            dev = _dev(vp, vq)
            ctx.gate(dev, 1e-6, lambda: f"orbit function drifts by {dev:.3e} for {_show_pt(p, t)}")
            dev = _worst(_dev(vp, published(p)), _dev(vq, published(q)))
            ctx.gate(
                dev,
                1e-9,
                lambda: f"orbit value off the published function by {dev:.3e} for {_show_pt(p, t)}",
            )
            if not _isomorphic(p, label_p, q, label_q)[0]:
                ctx.fail(f"member not matched with its image for {_show_pt(p, t)}")
        order = STABILIZERS.get((n, cell), (1, 0))[0]
        for _ in range(max(1, ctx.trials // 2)):
            lam = complex((0.3 + 1.7 * ctx.rng.random()) * np.exp(2j * np.pi * ctx.rng.random()))
            rep = representative_params(n, cell, lam)
            back = classify(rep)
            ctx.gate(
                _dev(back.lam, lam),
                1e-9,
                lambda: f"normal-form value not recovered: {lam!r} -> {back.lam!r}",
            )
            other = representative_params(n, cell, 1.3 * lam)
            label = canonicalize(other)
            if _isomorphic(rep, back, other, label)[0]:
                ctx.fail(f"distinct normal forms conflated at lam={lam!r}")
            dev = _worst(
                _dev(back.invariants.orbit_value, published(rep)),
                _dev(_orbit_value(label), published(other)),
            )
            if order > 1:
                root = complex(np.exp(2j * np.pi / order))
                image = representative_params(n, cell, root * lam)
                label = canonicalize(image)
                if not _isomorphic(rep, back, image, label)[0]:
                    ctx.fail(f"stabilizer root refused at lam={lam!r}")
                value = _orbit_value(label)
                ctx.gate(
                    _dev(back.invariants.orbit_value, value),
                    1e-9,
                    lambda: f"orbit function not stabilizer-blind at lam={lam!r}",
                )
                dev = _worst(dev, _dev(value, published(image)))
            ctx.gate(dev, 1e-9, lambda: f"orbit value off the published function at lam={lam!r}")
        return "constancy, recovery, separation, and stabilizer orbits hold"

    return run


def _make_single_orbit_check(n: int):
    """Every non-parametric cell at rank n is one orbit with the listed normal form."""

    def run(ctx: _Ctx) -> str:
        cells = [s.name for s in SUBSETS[n] if not s.parametric]
        for cell in cells:
            rep_table = build_table(representative_params(n, cell))

            # the first 10 members of a cell also take the witness through the tensor route
            def draw(cell=cell, drawn=itertools.count()):
                p = random_params(n, cell, rng=ctx.rng)
                routed = next(drawn) < 10
                try:
                    label = canonicalize(p)
                except CanonicalizationError as exc:
                    return (p, exc), None
                return (p, label), [(label.witness, p)] if routed else None

            for (p, label), route in _trials(ctx.trials, draw, read=False):
                if isinstance(label, CanonicalizationError):
                    ctx.fail(f"normal form unreachable for {_show(p)}: {label}")
                if label.subset != cell or label.lam is not None:
                    ctx.fail(f"member of {cell} classified as {label.subset} for {_show(p)}")
                dev = _tuple_dev(label._image, label.representative)
                if route is not None:
                    dev = _worst(dev, float(np.max(np.abs(route() - rep_table.gamma))))
                ctx.gate(dev, 1e-6, lambda: f"{cell} witness off by {dev:.3e} for {_show(p)}")
        return f"{len(cells)} single-orbit cells collapse to their normal forms"

    return run


def _chk_representative_separation(ctx: _Ctx) -> str:
    """Listed normal forms are pairwise non-equivalent and self-equivalent."""
    pairs = 0
    for n in _RANKS:
        reps = representatives(n)
        labels = []
        for cell, rep, _param in reps:
            if subset_of(rep) != cell:
                ctx.fail(f"normal form of {cell} at n={n} classifies as {subset_of(rep)}")
            same, wit = isomorphic(rep, rep)
            if not same or not abs(wit.A0 - 1) <= 1e-9:
                ctx.fail(f"self-equivalence broken for {cell} at n={n}")
            labels.append(canonicalize(rep))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                pairs += 1
                if _isomorphic(reps[i][1], labels[i], reps[j][1], labels[j])[0]:
                    ctx.fail(f"normal forms conflated at n={n}: {reps[i][0]} vs {reps[j][0]}")
    return f"{pairs} ordered pairs separated"


def _chk_subset_coverage(ctx: _Ctx) -> str:
    """The cells partition parameter space: disjoint, exhaustive, well-counted."""
    for n in _RANKS:
        specs = SUBSETS[n]
        _free, cells, parametric = _PAPER_COUNTS[n]
        if [s.name for s in specs] != [f"U_{i}" for i in range(1, cells + 1)]:
            ctx.fail(f"cell count at n={n}: {len(specs)}")
        if len(parametric_subsets(n)) != parametric:
            ctx.fail(f"parametric cell count wrong at n={n}")
        probes = []
        for _ in range(ctx.trials):
            p = random_params(n, rng=ctx.rng)
            probes.append(params_from_tuple(n, [0j if ctx.rng.random() < 0.45 else v for v in p.as_tuple()]))
        probes.extend(rep for _name, rep, _param in representatives(n))
        probes.append(params_from_tuple(n, [0] * len(PARAM_SLOTS[n])))
        for p in probes:
            flags = nonzero_flags(p)
            hits = [
                s.name
                for s in specs
                if all(flags[slot] == want for slot, want in s.conditions)
            ]
            if len(hits) != 1:
                ctx.fail(f"cells {hits} all match {_show(p)}")
            if subset_of(p) != hits[0]:
                ctx.fail(f"first-match disagrees with unique match for {_show(p)}")
    return "cells are disjoint and exhaustive at every rank"


# ---------------------------------------------------------------------------
# checks: transcription variants


def _chk_variant_report(ctx: _Ctx) -> str:
    """Side-by-side deviations of circulating variant transcriptions.

    Each entry re-computes a quantity two ways: the shipped route (gated
    small against the tensor oracle) and a variant reading that circulates
    in print (gated *large*, so the report proves the shipped correction is
    load-bearing rather than stylistic).
    """
    entries: list[tuple[str, float]] = []

    def gate(name: str, shipped: float, variant: float) -> None:
        ctx.gate(shipped, 1e-9, lambda: f"{name}: shipped route off by {shipped:.3e}")
        if not variant >= 1e-4:
            ctx.fail(f"{name}: variant unexpectedly agrees (dev {variant:.3e})")
        entries.append((name, variant))

    reps = max(3, ctx.trials // 10)

    # inner summation bounds of the even-row coefficient sum
    ship = var = 0.0
    for (p, t), route in _trials(reps, functools.partial(_pair, 5, ctx.rng, "U_1"), read=True):
        oracle = route()
        wide = _coefficient_sum(t, p)
        narrow = _coefficient_sum(t, p, narrow=True)
        ship = _worst(ship, *(_dev(a, b) for a, b in zip(wide.b_even, oracle.b_even)))
        var = _worst(var, *(_dev(a, b) for a, b in zip(narrow.b_even, oracle.b_even)))
    gate("general-sum-narrow-bounds", ship, var)

    # three variant readings of the rank-7 closed forms
    devs = {"e12-doubled-denominator": 0.0, "e12-cubed-shift": 0.0, "e14-row-scale": 0.0}
    ship = 0.0
    for (p, t), route in _trials(reps, functools.partial(_pair, 7, ctx.rng, "U_1"), read=True):
        oracle = route()
        direct = act_on_params(t, p)
        ship = _worst(ship, _tuple_dev(direct, oracle))
        b1, b2, b3, b4, b5 = (t.coeff_B(k) for k in range(1, 6))
        shear = t.A0 + t.A1 * p.b
        e12_num = (
            b1 * b1 * p.b12
            + (2 * b1 * b3 - b2 * b2) * p.b14
            + (2 * b2 * b4 - 2 * b1 * b5 - b3 * b3) * p.b
        )
        devs["e12-doubled-denominator"] = _worst(
            devs["e12-doubled-denominator"],
            _dev(e12_num / (2 * t.A0**4 * b1 * shear), oracle.b12),
        )
        cubed = e12_num + (b3 * b3 - b3**3) * p.b
        devs["e12-cubed-shift"] = _worst(
            devs["e12-cubed-shift"], _dev(cubed / (t.A0**4 * b1 * shear), oracle.b12)
        )
        e14_var = (-b1 * p.b14 + (b2 * b2 - 2 * b1 * b3) * p.b) / (t.A0**2 * b1 * shear)
        devs["e14-row-scale"] = _worst(devs["e14-row-scale"], _dev(e14_var, oracle.b14))
    for name, value in devs.items():
        gate(f"closed-form-{name}", ship, value)

    # the top-chain sign pattern at rank 5
    ship = var = 0.0
    for _ in range(reps):
        p = random_params(5, "U_1", rng=ctx.rng)
        table = build_table(p)
        scale = table.scale()
        ship = _worst(ship, leibniz_residual(table) / scale)
        g = table.gamma.copy()
        g[1, 4, 5] = p.b
        g[4, 1, 5] = -p.b
        var = _worst(var, leibniz_residual(StructureTensor(g)) / scale)
    gate("chain-sign-alignment", ship, var)

    # discriminant power in the rank-7 third-family orbit function
    published = _PUBLISHED_ORBIT[7, "U_9"]
    ship = var = 0.0
    for _ in range(reps):
        p = random_params(7, "U_9", rng=ctx.rng)
        t = random_transform(7, b=p.b, rng=ctx.rng)
        q = act_on_params(t, p)
        ship = _worst(ship, _dev(published(p), published(q)))
        vp = (p.b12 / p.b11) ** 10 * p.delta**3
        vq = (q.b12 / q.b11) ** 10 * q.delta**3
        var = _worst(var, _dev(vp, vq))
    gate("orbit-power-third-family", ship, var)

    # branch of the 2n-4-th root in the discriminant normal form
    ship = var = 0.0
    for _ in range(reps):
        p = random_params(4, "U_2", rng=ctx.rng)
        rep = representative_params(4, "U_2")
        label = canonicalize(p)
        ship = _worst(ship, _tuple_dev(label._image, rep))
        a0 = (p.delta / 4) ** 0.25
        a1 = -a0 * p.b01 / (2 * p.b11)
        tvar = AdaptedTransform(4, a0, a1, (a0**3 / p.b11, 0))
        var = _worst(var, _tuple_dev(act_on_params(tvar, p), rep))
    gate("normal-form-root-branch", ship, var)

    # uncorrected per-slot shift coefficients in the factorization
    ship = var = 0.0
    for n in (7, 8):
        for _ in range(reps):
            p = random_params(n, rng=ctx.rng)
            t = random_transform(n, b=p.b, rng=ctx.rng)
            direct = act_on_params(t, p)
            devs = [_tuple_dev(_chain(p, f)[1], direct) for f in (elementary_factors(t), _naive_factors(t))]
            ship, var = _worst(ship, devs[0]), _worst(var, devs[1])
    gate("factor-coefficients-uncorrected", ship, var)

    body = "; ".join(f"{name} {value:.2e}" for name, value in entries)
    return f"variant deviations (shipped routes exact): {body}"


# ---------------------------------------------------------------------------
# registry


_register("leibniz-validity", None, _chk_leibniz_validity)
_register("extension-table-structure", None, _chk_table_structure)
_register("central-series-filiform", None, _chk_central_series)
_register("constraint-reduction", None, _chk_constraint_reduction)
_register("adapted-form", None, _chk_adapted_form)
_register("elementary-decomposition", None, _chk_elementary_decomposition)
_register("tail-triviality", None, _chk_tail_triviality)
_register("action-coefficients-general", None, _chk_action_general)
for _n in _RANKS:
    _register(f"action-closed-forms-n{_n}", _n, _make_closed_forms_check(_n))
    _register(f"single-orbit-classes-n{_n}", _n, _make_single_orbit_check(_n))
    for _cell in parametric_subsets(_n):
        _register(
            f"orbit-family-n{_n}-{_cell.replace('_', '')}",
            _n,
            _make_orbit_family_check(_n, _cell),
        )
_register("representative-separation", None, _chk_representative_separation)
_register("subset-coverage", None, _chk_subset_coverage)
_register("variant-transcription-report", None, _chk_variant_report)


#: frozen list of every check the harness must run
MANIFEST = (
    "action-closed-forms-n4",
    "action-closed-forms-n5",
    "action-closed-forms-n6",
    "action-closed-forms-n7",
    "action-closed-forms-n8",
    "action-coefficients-general",
    "adapted-form",
    "central-series-filiform",
    "constraint-reduction",
    "elementary-decomposition",
    "extension-table-structure",
    "leibniz-validity",
    "orbit-family-n4-U1",
    "orbit-family-n5-U1",
    "orbit-family-n5-U5",
    "orbit-family-n6-U1",
    "orbit-family-n6-U2",
    "orbit-family-n7-U1",
    "orbit-family-n7-U5",
    "orbit-family-n7-U9",
    "orbit-family-n8-U1",
    "orbit-family-n8-U5",
    "orbit-family-n8-U9",
    "representative-separation",
    "single-orbit-classes-n4",
    "single-orbit-classes-n5",
    "single-orbit-classes-n6",
    "single-orbit-classes-n7",
    "single-orbit-classes-n8",
    "subset-coverage",
    "tail-triviality",
    "variant-transcription-report",
)


def verify_all(seed: int = 1, trials: int = 100) -> VerificationReport:
    """Run every registered check and collect a deterministic report.

    ``trials`` scales the sampling effort of each check but never its
    presence: the report always contains one line per manifest entry.
    A table builder that breaks the bracket identity surfaces as a failed
    validity check naming the basis triple where the identity breaks.

    Failures never raise -- they are recorded with witnessing inputs.
    A ``seed`` or ``trials`` that is not an ``int`` (a ``bool`` or a float
    such as 2.0 included), or ``trials`` below 1, raises :class:`DomainError`.
    """
    for name, value in (("seed", seed), ("trials", trials)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{name} must be an int, got {value!r}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if set(MANIFEST) != set(_REGISTRY) or len(MANIFEST) != len(_REGISTRY):
        missing = set(MANIFEST) ^ set(_REGISTRY)
        raise FiliformError(f"check registry out of sync with manifest: {sorted(missing)}")
    results = []
    for check_id in sorted(_REGISTRY):
        check = _REGISTRY[check_id]
        ctx = _Ctx(rng=np.random.default_rng(_check_seed(seed, check_id)), trials=trials)
        ok = False
        try:
            notes, ok = check.fn(ctx), True
        except _Stop as stop:
            notes = str(stop)
        except Exception as exc:  # a crashed check is a failed check
            ctx.worst, notes = -1.0, f"aborted: {type(exc).__name__}: {exc}"
        results.append(CheckResult(check_id, check.n, trials, float(ctx.worst), ok, notes))
    return VerificationReport(seed=seed, trials=trials, checks=tuple(results))
