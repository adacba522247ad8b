"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with ``pytest -s``)
and carries the criterion's tolerances inline; run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from snowflake_embed import (
    check_negative_type,
    dihedral_action,
    embed,
    euclidean_metric,
    lift_orbits,
    qng_embed,
    quadratic_form,
    reflection_action,
    rotation_action,
    schoenberg_constant,
    schoenberg_constant_quadrature,
    snowflake_embed,
    trivial_action,
    validate_metric,
    verify_power_identity,
)
from snowflake_embed.errors import NonFreeOrbit, OrbitCollision
from snowflake_embed.metric import pairwise_distances

from oracles import (check_kernel_psd, gaussian_kernel_matrix, geometric_form_check,
                     strict_decomposition_check)

ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def report(number, name, ok, detail, started):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {name} ({detail}; {elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"


def separated_cloud(rng, n, m, min_sep=1e-3):
    for _ in range(500):
        pts = rng.normal(size=(n, m))
        if n < 2:
            return pts
        d = pairwise_distances(pts)
        if d[~np.eye(n, dtype=bool)].min() > min_sep:
            return pts
    raise AssertionError("no separated cloud found")


def test_criterion_1_geometric_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 9))
        pts = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0)
        k = int(rng.integers(1, n))
        lam = np.concatenate([rng.dirichlet(np.ones(k)), -rng.dirichlet(np.ones(n - k))])
        lam = lam[rng.permutation(n)]
        lhs, rhs = geometric_form_check(pts, lam)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    report(1, "geometric identity", worst <= 1e-9,
           f"worst scaled gap {worst:.3e} <= 1e-9 over 1000 instances", started)


@pytest.fixture(scope="module")
def snowflake_sweep():
    """200 random Euclidean clouds, each embedded at every alpha in ALPHAS."""
    rng = np.random.default_rng(102)
    cases = []
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 9))
        X = euclidean_metric(separated_cloud(rng, n, m))
        for a in ALPHAS:
            result = snowflake_embed(X, a)
            cases.append((n, a, result))
    return cases


def test_criterion_2_embedding_fidelity(snowflake_sweep):
    started = time.perf_counter()
    worst = max(result.residual for _, _, result in snowflake_sweep)
    report(2, "embedding fidelity", worst <= 1e-8,
           f"worst residual {worst:.3e} <= 1e-8 over {len(snowflake_sweep)} embeddings",
           started)


def test_criterion_3_dimension_theorem(snowflake_sweep):
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    full_rank = all(result.rank == n - 1 for n, _, result in snowflake_sweep)
    margin_ok = all(
        result.eigenvalues[result.rank - 1] > 1e-9 * result.eigenvalues[0]
        for _, _, result in snowflake_sweep
    )
    # sharpness of alpha < 1: collinear clouds collapse back to rank 1 at
    # alpha = 1 while their snowflakes above were full rank
    sharp = True
    for _ in range(10):
        n = int(rng.integers(3, 9))
        line = np.sort(separated_cloud(rng, n, 1, min_sep=1e-2), axis=0)
        sharp = sharp and embed(euclidean_metric(line)).rank == 1
    ok = full_rank and margin_ok and sharp
    report(3, "dimension theorem", ok,
           f"rank n-1 in all {len(snowflake_sweep)} cases, margins > 1e-9*lam_max, "
           f"alpha=1 gives rank 1 on 10 collinear clouds", started)


def test_criterion_4_negative_type_classifier(claw_matrix):
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    claw = validate_metric(claw_matrix)
    rep = check_negative_type(claw)
    witness = rep.witness / np.abs(rep.witness).max()
    achieved = quadratic_form(claw.d ** 2, witness)
    claw_ok = (not rep.is_negative_type) and abs(achieved - 2.0) <= 1e-9
    accepted = all(
        check_negative_type(
            euclidean_metric(separated_cloud(rng, int(rng.integers(2, 20)), int(rng.integers(1, 6))))
        ).is_negative_type
        for _ in range(50)
    )
    report(4, "negative-type classifier", claw_ok and accepted,
           f"claw rejected with witness form {achieved:.12g} ~ 2, "
           f"50 Euclidean metrics accepted", started)


def test_criterion_5_integral_identity():
    started = time.perf_counter()
    worst_identity = 0.0
    worst_constant = 0.0
    for a in ALPHAS:
        closed = schoenberg_constant(a)
        quad = schoenberg_constant_quadrature(a)
        worst_constant = max(worst_constant, abs(closed - quad) / closed)
        for t in (0.1, 0.5, 1.0, 2.0, 10.0):
            _, _, rel = verify_power_identity(t, a)
            worst_identity = max(worst_identity, rel)
    known = abs(schoenberg_constant(0.5) - 0.5641895835477563) <= 1e-12
    ok = worst_identity <= 1e-6 and worst_constant <= 1e-6 and known
    report(5, "integral identity", ok,
           f"worst identity rel err {worst_identity:.3e}, "
           f"worst constant rel err {worst_constant:.3e} <= 1e-6, "
           f"c(1/2) = 1/sqrt(pi)", started)


def test_criterion_6_kernel_positivity():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = np.inf
    for _ in range(30):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 6))
        pts = separated_cloud(rng, n, m)
        for lam in (0.1, 1.0, 10.0):
            is_psd, min_eig = check_kernel_psd(gaussian_kernel_matrix(pts, lam), tol=1e-10)
            worst = min(worst, min_eig)
            assert is_psd
    report(6, "kernel positivity", worst >= -1e-10,
           f"smallest eigenvalue {worst:.3e} >= -1e-10 over 90 kernels", started)


def test_criterion_7_strict_decomposition():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_gap = 0.0
    weakest_margin = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        pts = separated_cloud(rng, n, m, min_sep=1e-2)
        a = float(rng.uniform(0.1, 0.9))
        lam = rng.normal(size=n)
        lam -= lam.mean()
        form, integral = strict_decomposition_check(pts, a, lam)
        worst_gap = max(worst_gap, abs(form - integral) / (1.0 + abs(form)))
        weakest_margin = min(weakest_margin, -form)
    ok = worst_gap <= 1e-6 and weakest_margin > 0.0
    report(7, "strict decomposition", ok,
           f"worst scaled gap {worst_gap:.3e} <= 1e-6, "
           f"weakest negativity margin {weakest_margin:.3e} > 0 over 50 instances",
           started)


def test_criterion_8_quotient_pipeline():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    actions = [
        ("C2", reflection_action()),
        ("C3", rotation_action(3)),
        ("C4", rotation_action(4)),
        ("D3", dihedral_action(3)),
    ]
    worst_resid = 0.0
    worst_defect = 0.0
    cases = 0
    for _, action in actions:
        for a in (0.0, 0.25, 0.5, 0.75, 0.9):
            config = None
            while config is None:
                n = int(rng.integers(2, 5))
                reps = rng.uniform(0.5, 2.5, size=(n, action.dim)) * rng.choice(
                    [-1.0, 1.0], size=(n, action.dim)
                )
                try:
                    config = lift_orbits(reps, action, tol=1e-6)
                except (NonFreeOrbit, OrbitCollision):
                    config = None
            result = qng_embed(config, a)
            worst_resid = max(worst_resid, result.max_abs_error)
            worst_defect = max(worst_defect, result.equivariance_defect)
            zeros = int(np.sum(result.spectrum <= 1e-9 * float(result.spectrum[0])))
            assert zeros == 1, f"{zeros} zero eigenvalues at alpha={a}"
            cases += 1
    ok = worst_resid <= 1e-8 and worst_defect <= 1e-9
    report(8, "quotient pipeline", ok,
           f"worst residual {worst_resid:.3e} <= 1e-8, "
           f"worst equivariance defect {worst_defect:.3e} <= 1e-9, "
           f"single zero eigenvalue in all {cases} runs", started)


def test_criterion_9_trivial_group_cross_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        pts = separated_cloud(rng, n, m, min_sep=1e-2)
        a = float(rng.uniform(0.1, 0.9))
        quotient = qng_embed(lift_orbits(pts, trivial_action(m)), a)
        euclidean = snowflake_embed(euclidean_metric(pts), a)
        gap = np.abs(
            pairwise_distances(quotient.points)
            - pairwise_distances(euclidean.coordinates)
        ).max()
        worst = max(worst, gap)
    report(9, "trivial-group cross-consistency", worst <= 1e-9,
           f"worst pairwise distance gap {worst:.3e} <= 1e-9 over 20 inputs", started)
