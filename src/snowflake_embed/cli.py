"""Command-line front end: ingestion, dispatch, JSON reports, exit codes.

Exit codes are a stable contract: 0 the requested property holds, 2 it
fails (details in the report payload), 3 I/O or parse trouble, 4 usage
errors.  Runs are fully deterministic; every numeric verdict in a payload
carries the tolerance it was judged against.  Every file written is one line
of RFC 8259 JSON: a finite float in its shortest form that reads back
bit-equal, a non-finite one as ``null``.  Each input file is read once; its
digest and its decoding use the same bytes.  The table of a JSON input
(``distances``, ``points``, ``representatives``) is decoded row by row with
orjson into a float64 array, and the rest of the document with the standard
library's ``json``.  The standard library decodes the whole document instead
whenever the row reader declines: a ``NaN`` or ``Infinity`` token or any other
non-finite value, rows that are not flat arrays of numbers of one length, a
row orjson rejects, or a key it cannot locate without doubt.  Group files are
decoded by the standard library alone.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .embedding import RESIDUAL_LIMIT, check_point_count, embed, snowflake_embed
from .errors import DomainError, NotStrict, SnowflakeError
from .groups import IDENTIFICATION_TOL, OrthogonalAction, close_group
from .metric import euclidean_metric, snowflake, validate_metric
from .negative_type import (DEFAULT_TOL, HYPOTHESIS_FAILS, check_negative_type,
                            check_strict_negative_type)
from .quotient import lift_orbits, qng_embed
from .schoenberg import (
    QuadratureSpec,
    schoenberg_constant,
    schoenberg_constant_quadrature,
    verify_power_identity,
)

EXIT_PASS = 0
EXIT_PROPERTY = 2
EXIT_IO = 3
EXIT_USAGE = 4


class InputError(Exception):
    """A file exists but its contents cannot be interpreted."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # mathematical failures, so remap to 4.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# ingestion


def _read(path: Path, inputs: dict, role: str) -> bytes:
    """The bytes of an input file, read once: its digest under ``inputs[role]``
    and its decoding both come from them."""
    data = path.read_bytes()
    inputs[role] = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return data


def _utf8_text(data: bytes) -> str:
    # what reading the file opened as UTF-8 text gives, universal newlines included
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _load_json(path: Path, data: bytes):
    """``data``, the bytes of the JSON file at ``path``, decoded by the standard
    library's ``json``."""
    try:
        return json.loads(_utf8_text(data))
    except (UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


_WS = rb"[ \t\n\r]*"
# one row of a table, a flat array of number characters, and the comma before
# the next row or the bracket that closes the table
_ROW = _WS + rb"(\[[-+.0-9eE \t\n\r,]*\])" + _WS + rb"([,\]])"


def _json_rows(data: bytes, key: str):
    """``(rest, table)``: the {key: [[...]]} table of the JSON document ``data``
    decoded one row at a time by orjson into a float64 array, bit-equal to
    ``np.asarray(json.loads(text)[key], dtype=float)``, and the rest of the
    document, the table read as ``[]``, decoded by the standard library.  None
    where that library must decide: the key is not the one top-level key of its
    name, a row is not a flat array of numbers as long as the first, a value is
    not finite (NaN and Infinity tokens included), or orjson rejects a row."""
    found = re.search(rb'"%s"%s:%s\[' % (key.encode(), _WS, _WS), data)
    if found is None:
        return None
    start = found.start()
    while start and data[start - 1] in b" \t\n\r":
        start -= 1
    if not start or data[start - 1] not in b"{,":
        return None  # a key opens after "{" or ","; else the match is no key of that name
    spans, pos, match_row = [], found.end(), re.compile(_ROW).match
    while True:
        m = match_row(data, pos)
        if m is None:
            return None
        spans.append(m.span(1))
        pos = m.end()
        if m[2] == b"]":
            break
    names = []

    def pairs(items):
        names.extend(name for name, _ in items)
        return dict(items)

    try:
        rest = json.loads(_utf8_text(data[:found.end()] + b"]" + data[pos:]),
                          object_pairs_hook=pairs)
    except (ValueError, RecursionError):
        return None
    # the match is a key of that name whose value is the table; being the only
    # key of that name in the document, it is the top-level object's
    if not isinstance(rest, dict) or key not in rest or names.count(key) != 1:
        return None
    view = memoryview(data)
    try:
        first = orjson.loads(view[slice(*spans[0])])
        table = np.empty((len(spans), len(first)))
        table[0] = first
        for i, (a, b) in enumerate(spans[1:], 1):
            values = orjson.loads(view[a:b])
            if len(values) != len(first):
                return None
            table[i] = values
    except orjson.JSONDecodeError:
        return None
    return (rest, table) if np.isfinite(table).all() else None


def _load_table(path: Path, data: bytes, *keys: str) -> tuple[np.ndarray, str]:
    """The 2-d array of a JSON ({key: [[...]]}) or CSV (one row per line) input
    whose bytes are ``data``, and its key: the first of ``keys`` that the JSON
    object holds, else (and for CSV) ``keys[0]``."""
    if path.suffix.lower() != ".json":
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # numpy only warns on a file with no data
                return np.loadtxt(path, delimiter=",", ndmin=2), keys[0]
        except (ValueError, UserWarning) as exc:
            raise InputError(f"{path}: {exc}")
    for key in keys:
        found = _json_rows(data, key)
        if found is not None and _table_key(found[0], keys) == key:
            obj, arr = found
            break
    else:
        obj = _load_json(path, data)
        key = _table_key(obj, keys)
        try:
            table = obj[key]
        except (KeyError, TypeError):
            raise InputError(f"{path}: expected a JSON object with a {key!r} field")
        try:
            arr = np.asarray(table, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}: {exc}")
        if arr.ndim != 2:
            raise InputError(f"{path}: expected a 2-d array, got shape {arr.shape}")
    declared = obj.get("n")
    if declared is not None and _json_number(path, "n", declared, int) != arr.shape[0]:
        raise InputError(f"{path}: declared n = {declared} but found {arr.shape[0]} rows")
    return arr, key


def _table_key(obj, keys: tuple[str, ...]) -> str:
    return next((key for key in keys if isinstance(obj, dict) and key in obj), keys[0])


def _json_number(path: Path, field: str, value, kind):
    """``kind(value)`` for a scalar field of an input file, or InputError.  The
    field takes a JSON number, never a string or a boolean; an int field one
    equal to an integer."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        number = kind(value)
        if kind is int and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{path}: field {field!r} must be {what}, got {value!r}")


def _load_action(path: Path, data: bytes) -> OrthogonalAction:
    if path.suffix.lower() != ".json":
        raise InputError(f"{path}: group files must be JSON")
    obj = _load_json(path, data)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    tol = _json_number(path, "tolerance", obj.get("tolerance", IDENTIFICATION_TOL), float)
    mats = obj.get("generators", obj.get("matrices"))
    if mats is None:
        raise InputError(f"{path}: expected a 'generators' or 'matrices' field")
    try:
        mats = [np.asarray(m, dtype=float) for m in mats]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}")
    if not mats:
        raise InputError(f"{path}: the group needs at least one matrix")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in mats):
        raise InputError(f"{path}: expected square matrices of one shape, got "
                         f"{sorted({m.shape for m in mats})}")
    dim = obj.get("dim")
    if dim is not None:
        dim = _json_number(path, "dim", dim, int)
        if mats[0].shape != (dim, dim):
            raise InputError(f"{path}: declared dim = {dim} but matrices have shape {mats[0].shape}")
    return close_group(mats, tol=tol)


# ---------------------------------------------------------------------------
# report plumbing


def _plain(value):
    """The ``default`` of every JSON file written, for the arrays orjson leaves to
    it: a record array (such as ``QngEmbedding.report``) as one object per
    record, and any other array (such as a non-contiguous view) as its ``tolist()``."""
    if isinstance(value, np.ndarray):
        if value.dtype.names:
            return [dict(zip(value.dtype.names, row)) for row in value.tolist()]
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: str, body: dict) -> None:
    """``body`` as one line of compact RFC 8259 JSON, encoded by orjson: finite
    floats in the shortest form that reads back bit-equal (``0.00001`` where
    Python's ``repr`` gives ``1e-05``), non-finite floats as ``null``."""
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(body, default=_plain,
                              option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE))


def _error_payload(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc), **vars(exc)}


def _judged(value: float, tolerance: float) -> dict:
    return {"value": value, "tolerance": tolerance}


@dataclass
class _Report:
    """The one report of a command run.  The command fills it and returns its
    outcome; ``fail`` records the SnowflakeError that ends a command under
    ``failure`` (``violation`` while the metric is being validated)."""

    command: str
    inputs: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    summary: list = field(default_factory=list)
    failure: tuple = ("failure", "FAIL: ")  # payload key and summary prefix

    def fail(self, exc: SnowflakeError) -> None:
        key, label = self.failure
        self.payload[key] = _error_payload(exc)
        if isinstance(exc, NotStrict):
            # the verdict the strict check ended on: of X, or of X**alpha
            self.payload.update(
                is_negative_type=exc.reason != HYPOTHESIS_FAILS,
                is_strict=False,
                min_eigenvalue=_judged(exc.min_eigenvalue, exc.threshold),
                witness=exc.witness,
            )
        self.summary = [f"{label}{exc}"]

    def write(self, path: str | None, outcome: bool) -> None:
        if not path:
            for line in self.summary:
                print(line)
            return
        _write_json(path, {"command": self.command, "inputs": self.inputs,
                           "outcome": "pass" if outcome else "fail",
                           "payload": self.payload, "tolerances": self.tolerances})
        print(f"report: {path}")


# ---------------------------------------------------------------------------
# commands


def _metric_input(args, report: _Report) -> tuple[np.ndarray, bool]:
    """The distance matrix of a metric file, or the points (one per row) of a
    point-cloud JSON ({"points": [[...]]}), and whether it is a cloud."""
    path = Path(args.metric)
    matrix, key = _load_table(path, _read(path, report.inputs, "metric"), "distances", "points")
    return matrix, key == "points"


def _validated(args, report: _Report, loaded, label: str):
    """The metric of a ``_metric_input`` result; an error on the way is
    the report's violation.  A point cloud becomes its Euclidean metric, a
    metric by construction, without a triangle scan.  A distance matrix passes
    ``validate_metric``: O(n^2 r) time when it is Euclidean of rank r <=
    ceil(sqrt(n)), whose verified coordinates prove the triangle inequality, and
    the O(n^3) Floyd-Warshall scan otherwise."""
    matrix, cloud = loaded
    report.failure = ("violation", label)
    X = euclidean_metric(matrix) if cloud else validate_metric(matrix, tol=args.tol)
    report.failure = ("failure", "FAIL: ")
    return X


def _cmd_validate(args, report: _Report) -> bool:
    report.tolerances["triangle_tol"] = args.tol
    report.payload["valid"] = False
    X = _validated(args, report, _metric_input(args, report), "INVALID: ")
    report.payload.update(valid=True, n=X.n)
    report.summary = [f"valid metric on {X.n} points"]
    return True


def _cmd_negtype(args, report: _Report) -> bool:
    report.tolerances.update(spectral_tol=args.tol, triangle_tol=args.tol)
    report.payload.update(alpha=args.alpha, strict=args.strict)
    X = _validated(args, report, _metric_input(args, report), "FAIL: input is not a metric: ")

    if args.strict and args.alpha is not None:
        verdict = check_strict_negative_type(X, args.alpha, tol=args.tol)
    else:
        Y = snowflake(X, args.alpha) if args.alpha is not None else X
        verdict = check_negative_type(Y, tol=args.tol)
    ok = verdict.is_strict if args.strict else verdict.is_negative_type
    report.payload.update(
        is_negative_type=verdict.is_negative_type,
        is_strict=verdict.is_strict,
        embeddable=verdict.embeddable,
        min_eigenvalue=_judged(verdict.min_eigenvalue, verdict.threshold),
        witness=verdict.witness,
    )
    label = "strict negative type" if args.strict else "negative type"
    report.summary = [f"{label} {'holds' if ok else 'FAILS'} "
                      f"(min eigenvalue {verdict.min_eigenvalue:.6g})"]
    return ok


def _cmd_embed(args, report: _Report) -> bool:
    loaded = _metric_input(args, report)
    report.tolerances.update(spectral_tol=args.tol, triangle_tol=args.tol,
                             residual_limit=RESIDUAL_LIMIT)
    if args.alpha is not None and not 0.0 <= args.alpha <= 1.0:
        raise DomainError(f"--alpha must lie in [0, 1], got {args.alpha}")
    check_point_count(len(loaded[0]))
    X = _validated(args, report, loaded, "FAIL: input is not a metric: ")

    theorem_applies = args.alpha is not None and 0.0 < args.alpha < 1.0
    report.payload.update(n=X.n, alpha=args.alpha)
    if theorem_applies:
        result = snowflake_embed(X, args.alpha, tol=args.tol)
    else:
        result = embed(snowflake(X, args.alpha) if args.alpha is not None else X, tol=args.tol)

    full_rank = result.rank == X.n - 1
    report.payload.update(
        rank=result.rank,
        full_rank=full_rank,
        eigenvalues=result.eigenvalues,
        residual=_judged(result.residual, RESIDUAL_LIMIT),
    )
    report.summary = [f"embedded {X.n} points with rank {result.rank}, "
                      f"residual {result.residual:.3g}"]
    if not full_rank and not theorem_applies:
        report.payload["note"] = (
            "rank below n-1; the full-rank guarantee applies only to "
            "snowflake exponents strictly between 0 and 1"
        )
        report.summary.append(report.payload["note"])
    if args.out:
        _write_json(args.out, {"points": result.coordinates})
        report.summary.append(f"coordinates: {args.out}")
    return True


def _cmd_schoenberg(args, report: _Report) -> bool:
    a = args.alpha
    if not 0.0 < a < 1.0:
        raise DomainError(f"--alpha must lie strictly between 0 and 1 (it is the half-power "
                          f"a = alpha/2 of the verified identity), got {a}")
    try:
        t_grid = [float(t) for t in args.t_grid.split(",") if t.strip()]
    except ValueError:
        raise DomainError(f"cannot parse --t-grid {args.t_grid!r}") from None
    if not t_grid or any(t <= 0.0 for t in t_grid):
        raise DomainError("--t-grid entries must be positive")

    spec = QuadratureSpec()
    report.tolerances.update(rel_err_limit=args.quad_tol, quadrature_rel_tol=spec.rel_tol,
                             quadrature_abs_tol=spec.abs_tol,
                             max_subdivisions=spec.max_subdivisions)
    c_closed = schoenberg_constant(a)
    c_quad = schoenberg_constant_quadrature(a, spec)
    rel_errs = [abs(c_closed - c_quad) / c_closed]
    report.payload.update(a=a, power=2.0 * a, constant_closed_form=c_closed,
                          constant_quadrature=c_quad,
                          constant_rel_err=_judged(rel_errs[0], args.quad_tol), per_t=[])
    for t in t_grid:
        lhs, rhs, rel = verify_power_identity(t, a, spec)
        report.payload["per_t"].append({"t": t, "lhs": lhs, "rhs": rhs,
                                        "rel_err": _judged(rel, args.quad_tol)})
        rel_errs.append(rel)
    worst = float(np.max(rel_errs))  # nan if any is, unlike max
    ok = worst <= args.quad_tol
    report.summary = [
        f"c({a}) = {c_closed:.12g} (quadrature {c_quad:.12g}, rel err {rel_errs[0]:.3g})",
        f"power identity t**{2 * a:g} over {len(t_grid)} grid points: "
        f"worst rel err {worst:.3g} ({'pass' if ok else 'FAIL'})",
    ]
    return ok


def _cmd_quotient_embed(args, report: _Report) -> bool:
    group_path, reps_path = Path(args.group), Path(args.reps)
    group = _read(group_path, report.inputs, "group")
    reps = _read(reps_path, report.inputs, "representatives")
    if not 0.0 <= args.alpha < 1.0:
        raise DomainError(f"--alpha must lie in [0, 1) for the quotient pipeline "
                          f"(the alpha = 1 endpoint is excluded), got {args.alpha}")
    report.tolerances["tol"] = args.tol
    report.payload["alpha"] = args.alpha

    action = _load_action(group_path, group)
    config = lift_orbits(_load_table(reps_path, reps, "representatives")[0], action, tol=args.tol)
    result = qng_embed(config, args.alpha, tol=args.tol)

    report.payload.update(
        group_order=action.group.order,
        n_orbits=config.n_orbits,
        lifted_points=config.size,
        max_abs_error=_judged(result.max_abs_error, result.verification_tol),
        equivariance_defect=_judged(result.equivariance_defect, result.equivariance_tol),
        spectrum=result.spectrum,
        zero_eigenvalues=result.zero_eigenvalues,
        report=result.report,
        scale_note=result.scale_note,
    )
    report.summary = [
        f"embedded {config.n_orbits} orbits (group order {action.group.order}, "
        f"{config.size} lifted points) at alpha = {args.alpha}",
        f"max abs distance error {result.max_abs_error:.3g}, "
        f"equivariance defect {result.equivariance_defect:.3g}, "
        f"{result.zero_eigenvalues} zero eigenvalue(s)",
    ]
    if args.out:
        _write_json(args.out, {"points": result.points, "report": result.report,
                               "scale_note": result.scale_note})
        report.summary.append(f"embedding: {args.out}")
    return True


# ---------------------------------------------------------------------------
# wiring


def _tolerance(text: str) -> float:
    """Type of --tol and --quad-tol: one relative tolerance, a number in [0, 1)."""
    tol = float(text)
    if not 0.0 <= tol < 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text}")
    return tol


def _build_parser() -> _Parser:
    parser = _Parser(prog="snowflake-embed",
                     description="snowflake metrics: certificates and embeddings")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help="relative tolerance in [0, 1): triangle slack and spectral threshold")
        p.add_argument("--json", metavar="FILE",
                       help="write the machine-readable report to FILE")

    metric_help = "distance matrix (JSON/CSV), or point-cloud JSON ({points: [[...]]})"

    p = sub.add_parser("validate", help="check the metric axioms")
    p.add_argument("metric", help=metric_help)
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("negtype", help="negative-type certificate")
    p.add_argument("metric", help=metric_help)
    p.add_argument("--alpha", type=float, default=None,
                   help="test the snowflake d**alpha instead of d")
    p.add_argument("--strict", action="store_true",
                   help="require strict negative type")
    common(p)
    p.set_defaults(func=_cmd_negtype)

    p = sub.add_parser("embed", help="spectral isometric embedding")
    p.add_argument("metric", help=metric_help)
    p.add_argument("--alpha", type=float, default=None,
                   help="embed the snowflake d**alpha; rank n-1 is asserted for alpha in (0,1)")
    p.add_argument("--out", metavar="FILE", help="write embedded coordinates to FILE")
    common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("schoenberg", help="verify the fractional-power integral identity")
    p.add_argument("--alpha", type=float, required=True,
                   help="half-power a in (0, 1); the identity verified is t**(2a)")
    p.add_argument("--t-grid", default="0.1,0.5,1,2,10",
                   help="comma-separated positive t values")
    p.add_argument("--quad-tol", type=_tolerance, default=1e-6,
                   help="largest acceptable relative error, in [0, 1)")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_schoenberg)

    p = sub.add_parser("quotient-embed",
                       help="embed a snowflaked orbit space into the canonical quotient target")
    p.add_argument("group", help="group JSON ({generators|matrices, dim, tolerance})")
    p.add_argument("reps", help="orbit representatives (JSON or CSV)")
    p.add_argument("--alpha", type=float, default=0.5, help="snowflake exponent in [0, 1)")
    p.add_argument("--out", metavar="FILE", help="write the embedding to FILE")
    common(p)
    p.set_defaults(func=_cmd_quotient_embed)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = _Report(args.command)
    try:
        try:
            outcome = args.func(args, report)
        except DomainError:
            raise
        except SnowflakeError as exc:
            report.fail(exc)
            outcome = False
        report.write(getattr(args, "json", None), outcome)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if outcome else EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
