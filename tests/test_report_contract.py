"""The report contract of every command, on drawn inputs.

With ``--json``: exit 0 means outcome "pass" and every judged
``{"value", "tolerance"}`` node has value <= tolerance; exit 2 means a report
was written with outcome "fail"; and in a negtype report ``is_negative_type``
holds exactly when min_eigenvalue >= -tolerance, ``is_strict`` exactly when
min_eigenvalue > tolerance.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import pdist, squareform

from snowflake_embed.cli import main

CLAW = [[0.0, 2.0, 1.0, 1.0], [2.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]


def judged_nodes(obj, where=""):
    if isinstance(obj, dict):
        if set(obj) == {"value", "tolerance"}:
            yield where, obj
            return
        for key, value in obj.items():
            yield from judged_nodes(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from judged_nodes(value, f"{where}[{i}]")


def run_with_report(command, files, options):
    """Exit code and --json report of one command on input files written
    from ``files`` (a list of (name, JSON body)).  The report is read as RFC 8259
JSON: a NaN or Infinity token fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, body in files:
            path = Path(tmp) / name
            path.write_text(json.dumps(body))
            paths.append(str(path))
        report_path = Path(tmp) / "report.json"
        code = main([command, *paths, *options, "--json", str(report_path)])
        assert code in (0, 2), f"exit {code}"
        report = json.loads(report_path.read_text(), parse_constant=refuse_constant)
    return code, report


def refuse_constant(token):
    """``parse_constant`` of a strict reader: NaN and Infinity are not JSON."""
    raise ValueError(f"{token} is not an RFC 8259 JSON value")


def assert_contract(code, report):
    assert report["outcome"] == ("pass" if code == 0 else "fail")
    payload = report["payload"]
    if code == 0:
        for where, node in judged_nodes(payload):
            # negtype's judged eigenvalue has its own rule, below
            if where != ".min_eigenvalue":
                assert node["value"] <= node["tolerance"], where
    if report["command"] == "negtype" and "min_eigenvalue" in payload:
        value, tolerance = payload["min_eigenvalue"]["value"], payload["min_eigenvalue"]["tolerance"]
        assert payload["is_negative_type"] == (value >= -tolerance)
        assert payload["is_strict"] == (value > tolerance)


def metric_body(kind, seed, n, m, scale, as_matrix):
    """A small cloud or grid (as points or as its distance matrix), the claw,
    or a shortest-path metric of random edge weights."""
    rng = np.random.default_rng(seed)
    if kind == "claw":
        return {"distances": CLAW}
    if kind == "graph":
        w = np.triu(rng.uniform(0.5, 2.0, size=(n, n)), 1)
        d = shortest_path(w + w.T, directed=False)
        return {"distances": np.minimum(d, d.T).tolist()}
    if kind == "cloud":
        pts = rng.standard_normal((n, m)) * scale
    else:
        side = int(np.ceil(n ** (1.0 / m)))
        axes = np.meshgrid(*[np.arange(side)] * m, indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1)[:n] * scale
    if as_matrix:
        return {"distances": squareform(pdist(pts)).tolist()}
    return {"points": pts.tolist()}


@given(
    kind=st.sampled_from(["cloud", "grid", "claw", "graph"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.integers(1, 3),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    as_matrix=st.booleans(),
    command=st.sampled_from(["validate", "negtype", "negtype --strict", "embed"]),
    alpha=st.none() | st.floats(0.0, 1.0, exclude_min=True),
    tol=st.sampled_from([[], ["--tol", "1e-12"], ["--tol", "1e-6"]]),
)
@settings(max_examples=120, deadline=None)
def test_metric_commands(kind, seed, n, m, scale, as_matrix, command, alpha, tol):
    command, *options = command.split()
    if alpha is not None and command != "validate":
        options += ["--alpha", repr(alpha)]
    body = metric_body(kind, seed, n, m, scale, as_matrix)
    assert_contract(*run_with_report(command, [("metric.json", body)], options + tol))


def rotation(theta):
    return [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]


@given(
    k=st.integers(2, 8),
    dihedral=st.booleans(),
    n=st.integers(1, 6),
    scale=st.sampled_from([1.0, 1e3, 1e6]),
    alpha=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=4, dihedral=False, n=6, scale=1e6, alpha=0.9, seed=2)
@settings(max_examples=60, deadline=None)
def test_quotient_embed(k, dihedral, n, scale, alpha, seed):
    generators = [rotation(2.0 * np.pi / k)] + ([[[1.0, 0.0], [0.0, -1.0]]] if dihedral else [])
    reps = np.random.default_rng(seed).standard_normal((n, 2)) * scale
    files = [("group.json", {"dim": 2, "generators": generators}),
             ("reps.json", {"representatives": reps.tolist()})]
    code, report = run_with_report("quotient-embed", files, ["--alpha", repr(alpha)])
    assert_contract(code, report)
    if code == 0:
        # one row per pair of orbits i < j, row-major, rendered from the record array
        payload = report["payload"]
        rows = payload["report"]
        assert [(row["i"], row["j"]) for row in rows] == [
            (i, j) for i in range(n) for j in range(i + 1, n)]
        for row in rows:
            assert list(row) == ["i", "j", "target", "achieved", "abs_error"]
            assert type(row["i"]) is int and type(row["j"]) is int
            assert row["abs_error"] == abs(row["achieved"] - row["target"])
        assert max((row["abs_error"] for row in rows), default=0.0) == \
            payload["max_abs_error"]["value"]


@given(
    alpha=st.floats(0.01, 0.99),
    # t**2 stays a positive finite double: the domain of the identity's check
    exponents=st.lists(st.floats(-160.0, 153.0), min_size=1, max_size=4),
)
@example(alpha=0.99, exponents=[100.0])  # far from t = 1, where rhs must stay finite
@settings(max_examples=60, deadline=None)
def test_schoenberg(alpha, exponents):
    grid = ",".join(repr(10.0 ** e) for e in exponents)
    assert_contract(*run_with_report("schoenberg", [],
                                     ["--alpha", repr(alpha), "--t-grid", grid]))
