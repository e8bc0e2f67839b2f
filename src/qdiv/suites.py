"""Named property suites behind the ``check`` subcommand.

Each suite returns its assertions: a list of dicts with a name, a measured
number, a bound, and a pass flag; failing entries carry whatever witness data
the underlying check produced.  ``run_suite`` rejects ``samples < 1``, runs a
suite by name and returns ``(passed, assertions)``: a suite passes when every
assertion does.
"""

from __future__ import annotations

import math

import numpy as np

from . import matrixcore as mc
from .divergence import d_fg, d_fg_limit_probe, make_divergence, support_contains
from .functions import bounded_ratio_fn, linear_fn, power_fn
from .maps import StateMap
from .operators import PositiveOperator
from .preserver import (
    _pair_stack,
    _reports,
    _require_samples,
    functional_eq_residual,
    order_dominance_test,
    prop1_refutation,
    thm4_scalar_test,
    trace_similarity_check,
    verify_conjugation,
    wigner_probe_projections,
    wigner_reconstruct,
)
from .sampling import SeededRng, haar_unitary, random_antiunitary, random_density, \
    random_positive_definite

SUITES = ("invariance", "lemmas", "prop1", "prop2-limits", "thm4", "wigner")


def _entry(name, measured, bound, ok, **extra):
    rec = {"name": name, "measured": measured, "bound": bound, "pass": bool(ok)}
    rec.update(extra)
    return rec


def run_suite(tag: str, *, dim: int = 3, samples: int = 100, seed: int = 0,
              tol: float = 1e-8, alpha: float = 2.0):
    _require_samples(samples)  # also for a suite that does not read it
    if tag == "invariance":
        assertions = suite_invariance(dim=dim, samples=samples, seed=seed, tol=tol)
    elif tag == "lemmas":
        assertions = suite_lemmas(dim=dim, samples=samples, seed=seed)
    elif tag == "prop1":
        assertions = suite_prop1(alpha=alpha)
    elif tag == "prop2-limits":
        assertions = suite_prop2_limits(dim=dim, samples=samples, seed=seed)
    elif tag == "thm4":
        assertions = suite_thm4(dim=dim, alpha=alpha)
    elif tag == "wigner":
        assertions = suite_wigner(dim=dim, seed=seed, samples=samples)
    else:
        raise KeyError(f"unknown suite {tag!r} (have: {SUITES})")
    return all(a["pass"] for a in assertions), assertions


def suite_invariance(*, dim: int, samples: int, seed: int, tol: float):
    rng = SeededRng(seed)
    maps = [
        ("unitary", StateMap.unitary_conjugation(haar_unitary(dim, rng))),
        ("antiunitary", random_antiunitary(dim, rng)),
    ]
    divergences = [
        ("sandwiched a=0.5", make_divergence("sandwiched", alpha=0.5)),
        ("sandwiched a=2", make_divergence("sandwiched", alpha=2)),
        ("sandwiched a=3", make_divergence("sandwiched", alpha=3)),
        ("umegaki", make_divergence("umegaki")),
        ("renyi a=2", make_divergence("renyi", alpha=2)),
    ]
    # one draw of pairs serves both maps and all five divergences
    reports = _reports(_pair_stack(dim, samples, seed + 1), [m for _, m in maps],
                       [d for _, d in divergences], tol)
    assertions = []
    for (map_name, _), row in zip(maps, reports):
        for (div_name, _), rep in zip(divergences, row):
            extra = {}
            if rep.witness is not None:
                _, _, before, after = rep.witness
                extra["witness"] = {"before": before, "after": after}
            assertions.append(_entry(
                f"{div_name} under {map_name} conjugation",
                rep.max_abs_deviation, tol, rep.passed,
                infinity_mismatches=rep.infinity_mismatches, **extra,
            ))
    return assertions


def suite_lemmas(*, dim: int, samples: int, seed: int):
    if dim < 2:
        raise ValueError("lemmas needs dimension at least 2")
    rng = SeededRng(seed)
    assertions = []
    a, b = zip(*[(random_positive_definite(dim, 10.0, rng), random_density(dim, dim, rng))
                 for _ in range(samples)])
    for h in (power_fn(0.5), power_fn(2), bounded_ratio_fn()):
        worst = max(trace_similarity_check(a, b, h))
        assertions.append(_entry(
            f"trace similarity, h={h.name}", worst, 1e-9, worst <= 1e-9,
        ))

    for c in (-3.0, 0.5, 10.0):
        res = functional_eq_residual(linear_fn(c), dim, n_samples=samples,
                                     seed=seed + 2)
        assertions.append(_entry(
            f"functional equation residual, linear c={c:g}", res, 1e-12,
            res <= 1e-12,
        ))
    perturbed = lambda t: t**2.0 + 0.5 * (t - 1.0)
    res = functional_eq_residual(perturbed, dim, n_samples=samples, seed=seed + 2)
    assertions.append(_entry(
        "functional equation residual, power+linear (must not vanish)",
        res, 1e-3, res > 1e-3,
    ))

    h = power_fn(1)
    same = order_dominance_test(np.eye(dim), 2.0 * np.eye(dim), h,
                                n_samples=20, seed=seed + 3)
    assertions.append(_entry(
        "order dominance, I vs 2I", same.max_violation, 1e-10,
        same.verdict == "consistent",
    ))
    b = np.diag([2.0, 1.0] + [1.0] * (dim - 2))
    c = np.diag([1.0, 2.0] + [1.0] * (dim - 2))
    incomparable = order_dominance_test(b, c, h, n_samples=20, seed=seed + 3)
    assertions.append(_entry(
        "order dominance, incomparable pair yields counterexample",
        incomparable.max_violation, 0.0,
        incomparable.verdict == "counterexample",
    ))
    return assertions


def suite_prop1(*, alpha: float):
    witness = prop1_refutation(alpha)
    assertions = [_entry(
        f"strict-convexity witness for alpha={alpha:g}",
        witness.gap, 1e-3, witness.gap > 1e-3,
        witness={"t": witness.t, "s": witness.s,
                 "lhs": witness.lhs, "rhs": witness.rhs},
    )]
    return assertions


def _singular_pair(dim: int, rng: SeededRng, contained: bool):
    """A singular-support B and an A inside or sticking out of that support."""
    rank_b = rng.integer(1, dim - 1)
    b = random_density(dim, rank_b, rng)
    basis = b.support_basis
    if contained:
        inner = random_density(rank_b, rank_b, rng)
        a = basis @ inner.matrix @ basis.conj().T
    else:
        # Lean half the mass on a kernel direction so the violation is sturdy.
        kernel = b.eigenvectors[:, b.eigenvalues == 0.0][:, 0]
        inner = random_density(rank_b, rank_b, rng)
        a = 0.5 * basis @ inner.matrix @ basis.conj().T \
            + 0.5 * mc.rank_one(kernel, kernel)
    return PositiveOperator(mc.hermitian_part(a)), b


def suite_prop2_limits(*, dim: int, samples: int, seed: int):
    if dim < 2:
        raise ValueError("prop2-limits needs dimension at least 2")
    rng = SeededRng(seed)
    schedule = list(np.geomspace(1e-1, 1e-8, 8))

    def case(f, g):
        """The drawn stacks A and B, the closed value of each pair (one stacked
        call), and its probe estimate."""
        pairs = [_singular_pair(dim, rng, contained=rng.uniform() < 0.5)
                 for _ in range(samples)]
        a, b = map(list, zip(*pairs))
        estimates = [d_fg_limit_probe(x, y, f, g, schedule)[1] for x, y in pairs]
        return a, b, d_fg(a, b, f, g), estimates

    _, _, closed, estimates = case(power_fn(1), power_fn(2))
    worst = max(abs(e - c) for e, c in zip(estimates, closed))
    assertions = [_entry(
        "vanishing-limit case: probe converges to the compressed value",
        worst, 1e-6, worst <= 1e-6,
    )]

    a, b, closed, estimates = case(power_fn(-0.5), power_fn(2))
    expected_inf = [not inside for inside in support_contains(b, a)]
    agree = sum((e == math.inf) == x and (c == math.inf) == x
                for e, c, x in zip(estimates, closed, expected_inf))
    assertions.append(_entry(
        "diverging-limit case: probe flag matches the rank decision",
        agree, samples, agree == samples,
    ))
    return assertions


def suite_thm4(*, dim: int, alpha: float):
    if dim < 2:
        raise ValueError("thm4 needs dimension at least 2: diag(1..n) is scalar at n = 1")
    assertions = []
    # the verdict's threshold: THM4_GAP_TOL relative to the larger mean
    bound = lambda r: mc.THM4_GAP_TOL * max(abs(r.mean_xy), abs(r.mean_x_mean_y))
    scalar = thm4_scalar_test(3.0 * np.eye(dim), alpha)
    assertions.append(_entry(
        "cI is recognized as scalar", abs(scalar.gap), bound(scalar),
        scalar.is_scalar and scalar.spectral_scalar,
    ))
    spread = PositiveOperator(np.diag(np.arange(1.0, dim + 1.0)))
    violating = thm4_scalar_test(spread, alpha)
    assertions.append(_entry(
        "diag(1..n) violates the mean-product identity", abs(violating.gap),
        bound(violating), (not violating.is_scalar) and (not violating.spectral_scalar),
    ))
    return assertions


def suite_wigner(*, dim: int, seed: int, samples: int):
    rng = SeededRng(seed)
    assertions = []
    for kind in ("unitary", "antiunitary"):
        state_map = StateMap(kind=kind, unitary=haar_unitary(dim, rng))
        u, got_kind, residual = wigner_reconstruct(
            state_map.apply(wigner_probe_projections(dim)))
        rep = verify_conjugation(state_map, u, got_kind,
                                 n_samples=min(samples, 50), seed=seed + 5)
        assertions.append(_entry(
            f"{kind} round trip: residual", residual, 1e-8, residual < 1e-8,
        ))
        assertions.append(_entry(
            f"{kind} round trip: fresh-state deviation",
            rep.max_deviation, 1e-8, rep.max_deviation < 1e-8,
        ))
        assertions.append(_entry(
            f"{kind} round trip: kind recovered", got_kind, kind,
            got_kind == kind,
        ))
    return assertions
