"""Named property suites behind the ``check`` subcommand.

Each suite returns ``(passed, assertions)`` where assertions is a list of
dicts with a name, a measured number, a bound, and a pass flag; failing
entries carry whatever witness data the underlying check produced.
"""

from __future__ import annotations

import math

import numpy as np

from . import matrixcore as mc
from .divergence import d_fg, d_fg_limit_probe, make_divergence, support_contains
from .functions import bounded_ratio_fn, linear_fn, power_fn
from .maps import StateMap
from .operators import PositiveOperator, as_positive
from .preserver import (
    functional_eq_residual,
    invariance_pairs,
    invariance_reports,
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
    if tag == "invariance":
        return suite_invariance(dim=dim, samples=samples, seed=seed, tol=tol)
    if tag == "lemmas":
        return suite_lemmas(dim=dim, samples=samples, seed=seed)
    if tag == "prop1":
        return suite_prop1(alpha=alpha)
    if tag == "prop2-limits":
        return suite_prop2_limits(dim=dim, samples=samples, seed=seed)
    if tag == "thm4":
        return suite_thm4(dim=dim, alpha=alpha)
    if tag == "wigner":
        return suite_wigner(dim=dim, seed=seed, samples=samples)
    raise KeyError(f"unknown suite {tag!r} (have: {SUITES})")


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
    pairs = invariance_pairs(dim, n_samples=samples, seed=seed + 1)
    reports = invariance_reports(pairs, [m for _, m in maps],
                                 [d for _, d in divergences], tol=tol)
    assertions = []
    for (map_name, _), row in zip(maps, reports):
        for (div_name, _), rep in zip(divergences, row):
            extra = {}
            if rep.witness is not None:
                _, _, before, after = rep.witness
                extra["witness"] = {"before": before, "after": after}
            assertions.append(_entry(
                f"{div_name} under {map_name} conjugation",
                rep.max_abs_deviation, tol,
                rep.passed and rep.infinity_mismatches == 0,
                infinity_mismatches=rep.infinity_mismatches, **extra,
            ))
    return all(a["pass"] for a in assertions), assertions


def suite_lemmas(*, dim: int, samples: int, seed: int):
    rng = SeededRng(seed)
    assertions = []
    h_fns = [power_fn(0.5), power_fn(2), bounded_ratio_fn()]
    worst = {h.name: 0.0 for h in h_fns}
    for _ in range(samples):
        a = random_positive_definite(dim, 10.0, rng)
        b = random_density(dim, dim, rng)
        for h in h_fns:
            worst[h.name] = max(worst[h.name], trace_similarity_check(a, b, h))
    for h in h_fns:
        assertions.append(_entry(
            f"trace similarity, h={h.name}", worst[h.name], 1e-9,
            worst[h.name] <= 1e-9,
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
    return all(a["pass"] for a in assertions), assertions


def suite_prop1(*, alpha: float):
    witness = prop1_refutation(alpha)
    assertions = [_entry(
        f"strict-convexity witness for alpha={alpha:g}",
        witness.gap, 1e-3, witness.gap > 1e-3,
        witness={"t": witness.t, "s": witness.s,
                 "lhs": witness.lhs, "rhs": witness.rhs},
    )]
    return all(a["pass"] for a in assertions), assertions


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
    assertions = []
    schedule = list(np.geomspace(1e-1, 1e-8, 8))

    f1, g1 = power_fn(1), power_fn(2)
    worst = 0.0
    for _ in range(samples):
        a, b = _singular_pair(dim, rng, contained=rng.uniform() < 0.5)
        closed = d_fg(a, b, f1, g1)
        _, estimate = d_fg_limit_probe(a, b, f1, g1, schedule)
        worst = max(worst, abs(estimate - closed))
    assertions.append(_entry(
        "vanishing-limit case: probe converges to the compressed value",
        worst, 1e-6, worst <= 1e-6,
    ))

    f2, g2 = power_fn(-0.5), power_fn(2)
    agree = 0
    total = 0
    for _ in range(samples):
        contained = rng.uniform() < 0.5
        a, b = _singular_pair(dim, rng, contained=contained)
        expected_inf = not support_contains(b, a)
        _, estimate = d_fg_limit_probe(a, b, f2, g2, schedule)
        closed = d_fg(a, b, f2, g2)
        total += 1
        if ((estimate == math.inf) == expected_inf
                and (closed == math.inf) == expected_inf):
            agree += 1
    assertions.append(_entry(
        "diverging-limit case: probe flag matches the rank decision",
        agree, total, agree == total,
    ))
    return all(a["pass"] for a in assertions), assertions


def suite_thm4(*, dim: int, alpha: float):
    if dim < 2:
        raise ValueError("thm4 needs dimension at least 2: diag(1..n) is scalar at n = 1")
    assertions = []
    scalar = thm4_scalar_test(3.0 * np.eye(dim), alpha)
    assertions.append(_entry(
        "cI is recognized as scalar", abs(scalar.gap), 1e-10,
        scalar.is_scalar and scalar.spectral_scalar,
    ))
    spread = as_positive(np.diag(np.arange(1.0, dim + 1.0)))
    violating = thm4_scalar_test(spread, alpha)
    assertions.append(_entry(
        "diag(1..n) violates the mean-product identity", abs(violating.gap), 1e-10,
        (not violating.is_scalar) and (not violating.spectral_scalar),
    ))
    return all(a["pass"] for a in assertions), assertions


def suite_wigner(*, dim: int, seed: int, samples: int):
    rng = SeededRng(seed)
    assertions = []
    for kind in ("unitary", "antiunitary"):
        u0 = haar_unitary(dim, rng)
        state_map = (StateMap.unitary_conjugation(u0) if kind == "unitary"
                     else StateMap.antiunitary_conjugation(u0))
        images = [state_map.apply(p) for p in wigner_probe_projections(dim)]
        u, got_kind, residual = wigner_reconstruct(images)
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
    return all(a["pass"] for a in assertions), assertions
