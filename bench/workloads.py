"""Seeded inputs and command lists of the three benchmark workloads.

A workload is a fixed list of CLI invocations whose sizes are part of its
definition; only the random data inside the inputs depends on the seed.
Every command carries the verdict its input was built to have (exit code
and failure type) and a check that re-derives the claim in its output from
the generated ground truth with numpy/scipy alone, never through the
library under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import pdist, squareform
from scipy.special import gamma

#: Relative distance-reconstruction error the library promises for embeddings.
RESIDUAL_LIMIT = 1e-8

#: The CLI's default --quad-tol, the limit on every Schoenberg relative error.
QUAD_LIMIT = 1e-6

#: Slack when comparing a reported quotient target with its recomputation.
TARGET_RTOL = 1e-9

# A check gets the exit code and the parsed --json report and returns a
# description of what in the output is false, or None.
Check = Callable[[int, dict], "str | None"]


@dataclass
class Command:
    """One CLI invocation with the verdict its input was built to have."""

    label: str
    argv: list[str]
    expect_exit: int
    expect_error: str | None
    check: Check
    inputs: list[Path]
    outputs: list[Path]
    report: Path


def write_json(path: Path, body: dict) -> Path:
    # json.dumps encodes in C in one go; json.dump streams through the
    # pure-Python encoder, about half as fast on large matrices
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def _load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _command(work: Path, label: str, argv: list[str], inputs=(), outputs=(),
             expect_exit: int = 0, expect_error: str | None = None,
             check: Check | None = None) -> Command:
    report = work / f"{label}.report.json"
    return Command(
        label=label,
        argv=[*argv, "--json", str(report)],
        expect_exit=expect_exit,
        expect_error=expect_error,
        check=check or (lambda code, report: None),
        inputs=list(inputs),
        outputs=[*outputs, report],
        report=report,
    )


# ---------------------------------------------------------------------------
# independent checks


def _check_embedding(points: np.ndarray, alpha: float | None, out: Path, rank: int) -> Check:
    target = pdist(points) ** (1.0 if alpha is None else alpha)

    def check(code, report):
        if code != 0:
            return None
        coords = np.asarray(_load_json(out)["points"], dtype=float)
        if coords.shape != (points.shape[0], rank):
            return f"coordinates have shape {coords.shape}, expected ({points.shape[0]}, {rank})"
        if report["payload"]["rank"] != rank:
            return f"reported rank {report['payload']['rank']}, expected {rank}"
        err = float(np.max(np.abs(pdist(coords) - target) / target))
        if not err <= RESIDUAL_LIMIT:
            return f"relative distance error {err:.3g} exceeds {RESIDUAL_LIMIT:g}"
        return None

    return check


def _check_witness(d: np.ndarray) -> Check:
    """A failed negative-type verdict must come with L, sum L = 0, L D L^T > 0."""
    D = d * d

    def check(code, report):
        payload = report["payload"]
        if code == 0 or "violation" in payload:
            return None
        if payload.get("witness") is None:
            return "negative-type failure without a witness"
        lam = np.asarray(payload["witness"], dtype=float)
        if abs(lam.sum()) > 1e-9 * np.abs(lam).sum():
            return f"witness sums to {lam.sum():.3g}, not 0"
        form = float(lam @ D @ lam)
        if not form > 0.0:
            return f"witness gives L D L^T = {form:.3g}, not > 0"
        return None

    return check


def _check_triangle(d: np.ndarray) -> Check:
    def check(code, report):
        v = report["payload"].get("violation")
        if v is None or v["error"] != "TriangleViolation":
            return None
        i, j, k = v["i"], v["j"], v["k"]
        if not d[i, j] > d[i, k] + d[k, j]:
            return f"reported triangle ({i}, {j}) via {k} holds"
        return None

    return check


def _check_schoenberg(a: float, t_grid: list[float]) -> Check:
    c = 2.0 * a / gamma(1.0 - a)

    def check(code, report):
        if code != 0:
            return None
        payload = report["payload"]
        c_err = abs(payload["constant_quadrature"] - c) / c
        if not c_err <= QUAD_LIMIT:
            return f"quadrature constant off by {c_err:.3g}"
        if [row["t"] for row in payload["per_t"]] != t_grid:
            return "per-t rows do not match the t grid"
        for row in payload["per_t"]:
            lhs = row["t"] ** (2.0 * a)
            rel = abs(lhs - row["rhs"]) / lhs
            if not rel <= QUAD_LIMIT:
                return f"t = {row['t']}: relative error {rel:.3g} exceeds {QUAD_LIMIT:g}"
        return None

    return check


def _check_quotient(reps: np.ndarray, elements: np.ndarray, alpha: float) -> Check:
    n = reps.shape[0]
    images = np.einsum("gab,jb->jga", elements, reps)
    qdist = np.linalg.norm(reps[:, None, None, :] - images[None], axis=-1).min(axis=-1)

    def check(code, report):
        if code != 0:
            return None
        payload = report["payload"]
        if payload["group_order"] != len(elements):
            return f"group order {payload['group_order']}, expected {len(elements)}"
        rows = payload["report"]
        if len(rows) != n * (n - 1) // 2:
            return f"{len(rows)} report rows, expected {n * (n - 1) // 2}"
        tol = payload["max_abs_error"]["tolerance"]
        if not payload["max_abs_error"]["value"] <= tol:
            return f"max_abs_error {payload['max_abs_error']['value']:.3g} exceeds {tol:.3g}"
        for row in rows:
            target = qdist[row["i"], row["j"]] ** alpha
            if abs(row["target"] - target) > TARGET_RTOL * (1.0 + target):
                return f"pair ({row['i']}, {row['j']}): target {row['target']!r}, expected {target!r}"
            if not abs(row["achieved"] - target) <= tol:
                return f"pair ({row['i']}, {row['j']}): error {abs(row['achieved'] - target):.3g}"
        return None

    return check


def _check_nonfree(orbit: int) -> Check:
    def check(code, report):
        failure = report["payload"].get("failure", {})
        if failure.get("error") == "NonFreeOrbit" and failure["orbit"] != orbit:
            return f"blamed orbit {failure['orbit']}, the fixed point is orbit {orbit}"
        return None

    return check


# ---------------------------------------------------------------------------
# embed-snowflake


def _embed(work: Path, label: str, points: np.ndarray, alpha: float | None) -> Command:
    src = write_json(work / f"{label}.json", {"points": points.tolist()})
    out = work / f"{label}.out.json"
    argv = ["embed", str(src), "--out", str(out)]
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]
    rank = points.shape[1] if alpha is None else points.shape[0] - 1
    return _command(work, label, argv, [src], [out],
                    check=_check_embedding(points, alpha, out, rank))


def embed_snowflake(rng: np.random.Generator, work: Path) -> list[Command]:
    cmds = [
        _embed(work, f"cloud{n}-a{alpha}", rng.standard_normal((n, 3)), alpha)
        for n, alpha in ((200, 0.3), (250, 0.5), (300, 0.5), (300, 0.9))
    ]
    # no alpha: a generic 3-d cloud embeds with rank 3
    cmds.append(_embed(work, "cloud500-plain", rng.standard_normal((500, 3)), None))
    # the theorem guarantees rank n-1 for every alpha in (0, 1), so both
    # grids are expected to pass; the second sits where double precision
    # runs short of the fixed spectral tolerance
    grid = np.arange(200.0)[:, None]
    cmds += [_embed(work, f"grid200-a{alpha}", grid, alpha) for alpha in (0.5, 0.999)]
    return cmds


# ---------------------------------------------------------------------------
# certify-metrics


def _graph_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Shortest-path metric of a sparse connected random weighted graph,
    verified here not to be of negative type."""
    tree = np.stack([np.arange(1, n), rng.integers(0, np.arange(1, n))])
    extra = rng.integers(0, n, size=(2, n // 2))
    extra = extra[:, extra[0] != extra[1]]
    edges = np.concatenate([tree, extra], axis=1)
    weights = rng.uniform(1.0, 2.0, size=edges.shape[1])
    graph = coo_matrix((weights, (edges[0], edges[1])), shape=(n, n)).tocsr()
    S = shortest_path(graph, directed=False)
    # the solver's two triangles differ in the last ulp; a metric file must
    # be exactly symmetric or validation rejects it before the spectral test
    S = np.minimum(S, S.T)
    D = S * S
    r = D.mean(axis=1)
    B = -0.5 * (D - r[:, None] - r[None, :] + r.mean())
    evals = np.linalg.eigvalsh(0.5 * (B + B.T))
    if not evals[0] < -1e-6 * evals[-1]:
        raise RuntimeError(f"graph metric on {n} points is of negative type")
    return S


def _metric_file(work: Path, label: str, d: np.ndarray) -> Path:
    return write_json(work / f"{label}.json", {"n": d.shape[0], "distances": d.tolist()})


def certify_metrics(rng: np.random.Generator, work: Path) -> list[Command]:
    cmds = []
    for n in (300, 450):
        d = squareform(pdist(rng.standard_normal((n, 3))))
        src = _metric_file(work, f"euclid{n}", d)
        cmds.append(_command(work, f"validate-euclid{n}", ["validate", str(src)], [src]))
        cmds.append(_command(work, f"strict-euclid{n}",
                             ["negtype", str(src), "--alpha", "0.5", "--strict"], [src]))
        g = _graph_metric(rng, n)
        gsrc = _metric_file(work, f"graph{n}", g)
        cmds.append(_command(work, f"negtype-graph{n}", ["negtype", str(gsrc)], [gsrc],
                             expect_exit=2, check=_check_witness(g)))

    # one entry inflated past the path through point 0, so validation
    # stops at its first intermediate point
    i, j = rng.choice(np.arange(1, n), size=2, replace=False)
    d[i, j] = d[j, i] = 2.0 * (d[i, 0] + d[0, j])
    src = _metric_file(work, f"inflated{n}", d)
    cmds.append(_command(work, f"validate-inflated{n}", ["validate", str(src)], [src],
                         expect_exit=2, expect_error="TriangleViolation",
                         check=_check_triangle(d)))

    claw = np.array([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float)
    src = _metric_file(work, "claw", claw)
    cmds.append(_command(work, "negtype-claw", ["negtype", str(src)], [src],
                         expect_exit=2, check=_check_witness(claw)))

    t_grid = [0.001, 0.1, 1.0, 10.0, 1000.0]
    for a in (0.5, 0.9):
        cmds.append(_command(
            work, f"schoenberg-a{a}",
            ["schoenberg", "--alpha", repr(a), "--t-grid", ",".join(f"{t:g}" for t in t_grid)],
            check=_check_schoenberg(a, t_grid)))
    return cmds


# ---------------------------------------------------------------------------
# quotient-orbits


def _rotation(theta: float) -> np.ndarray:
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _cyclic(k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Generators and all elements of C_k acting on E^2."""
    return [_rotation(2.0 * np.pi / k)], np.stack([_rotation(2.0 * np.pi * j / k) for j in range(k)])


def _dihedral(k: int) -> tuple[list[np.ndarray], np.ndarray]:
    mirror = np.diag([1.0, -1.0])
    rots = [_rotation(2.0 * np.pi * j / k) for j in range(k)]
    return [rots[1], mirror], np.stack(rots + [r @ mirror for r in rots])


def _hyperoctahedral() -> tuple[list[np.ndarray], np.ndarray]:
    """B_3, the signed permutations of E^3 (order 48), from three generators."""
    eye = np.eye(3)
    gens = [eye[[1, 0, 2]], eye[[1, 2, 0]], np.diag([-1.0, 1.0, 1.0])]
    perms = [eye[list(p)] for p in
             ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))]
    signs = [np.diag([a, b, c]) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)]
    return gens, np.stack([s @ p for p in perms for s in signs])


def _group_file(work: Path, label: str, key: str, mats) -> Path:
    mats = [np.asarray(m).tolist() for m in mats]
    return write_json(work / f"{label}.group.json", {"dim": len(mats[0]), key: mats})


def quotient_orbits(rng: np.random.Generator, work: Path) -> list[Command]:
    cases = [  # label, (generators, elements), orbits, alphas, key
        ("c16", _cyclic(16), 20, (0.5,), "generators"),
        ("d8", _dihedral(8), 28, (0.5, 0.0), "generators"),
        ("c64", _cyclic(64), 5, (0.5,), "generators"),
        ("d32", _dihedral(32), 5, (0.5,), "generators"),
        ("b3", _hyperoctahedral(), 7, (0.5,), "generators"),
        # every element listed: closure is driven by 64 generators
        ("d32-all", _dihedral(32), 2, (0.5,), "matrices"),
    ]
    cmds = []
    for label, (gens, elements), n, alphas, key in cases:
        group = _group_file(work, label, key, gens if key == "generators" else elements)
        reps = rng.standard_normal((n, elements.shape[1]))
        rsrc = write_json(work / f"{label}.reps.json", {"representatives": reps.tolist()})
        for alpha in alphas:
            cmds.append(_command(
                work, f"{label}-n{n}-a{alpha}",
                ["quotient-embed", str(group), str(rsrc), "--alpha", repr(alpha)],
                [group, rsrc], check=_check_quotient(reps, elements, alpha)))

    # one representative on the mirror axis of D8, fixed by the mirror
    group = work / "d8.group.json"
    reps = rng.standard_normal((8, 2))
    axis = int(rng.integers(0, 8))
    reps[axis] = [abs(reps[axis, 0]) + 0.5, 0.0]
    rsrc = write_json(work / "d8-nonfree.reps.json", {"representatives": reps.tolist()})
    cmds.append(_command(work, "d8-nonfree", ["quotient-embed", str(group), str(rsrc)],
                         [group, rsrc], expect_exit=2, expect_error="NonFreeOrbit",
                         check=_check_nonfree(axis)))
    return cmds


WORKLOADS = {
    "embed-snowflake": embed_snowflake,
    "certify-metrics": certify_metrics,
    "quotient-orbits": quotient_orbits,
}
