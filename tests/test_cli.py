import builtins
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from snowflake_embed import (cli, close_group, embed, embedding, euclidean_metric, lift_orbits,
                             qng_embed, quadratic_form, snowflake_embed, validate_metric)
from snowflake_embed.cli import main
from snowflake_embed.errors import NotEmbeddable, QuadratureNonconvergence, VerificationFailure
from snowflake_embed.metric import pairwise_distances


def strict_loads(text):
    """``text`` read as RFC 8259 JSON, where a NaN or Infinity token is an error."""
    def refuse(token):
        raise ValueError(f"{token} is not an RFC 8259 JSON value")

    return json.loads(text, parse_constant=refuse)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def collinear_json(tmp_path):
    return write_json(
        tmp_path / "collinear.json",
        {"n": 3, "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    )


@pytest.fixture
def claw_json(tmp_path, claw_matrix):
    return write_json(tmp_path / "claw.json", {"distances": claw_matrix.tolist()})


@pytest.fixture
def cloud_and_matrix_json(tmp_path, make_cloud):
    """Points, their point-cloud file and the distance-matrix file of the
    same metric."""
    pts = make_cloud(12, 3)
    cloud = write_json(tmp_path / "cloud.json", {"points": pts.tolist()})
    d = euclidean_metric(pts).d
    matrix = write_json(tmp_path / "matrix.json", {"distances": d.tolist()})
    return pts, cloud, matrix


def count_kernels(monkeypatch):
    """A dict counting the calls of numpy's ``eigh`` and ``eigvalsh`` from now on."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        kernel = getattr(np.linalg, name)

        def count(a, *args, **kwargs):
            calls[name] += 1
            return kernel(a, *args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def spectral_radius(d):
    """Largest |eigenvalue| of -1/2 J D J for the distance matrix d, by a full
    numpy eigendecomposition."""
    d = np.asarray(d, dtype=float)
    J = np.eye(len(d)) - 1.0 / len(d)
    return np.abs(np.linalg.eigvalsh(-0.5 * J @ (d * d) @ J)).max()


def refuse(*args, **kwargs):
    raise AssertionError("called although the input needs no such check")


@pytest.fixture
def c2_group_json(tmp_path):
    return write_json(
        tmp_path / "c2.json", {"dim": 1, "generators": [[[-1.0]]], "tolerance": 1e-8}
    )


class TestValidate:
    def test_valid_csv(self, tmp_path, capsys):
        path = tmp_path / "metric.csv"
        path.write_text("0,1,2\n1,0,1\n2,1,0\n")
        assert main(["validate", str(path)]) == 0
        assert "valid metric on 3 points" in capsys.readouterr().out

    def test_asymmetric_names_indices(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"distances": [[0, 1], [2, 0]]})
        report_path = tmp_path / "report.json"
        assert main(["validate", path, "--json", str(report_path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["outcome"] == "fail"
        violation = report["payload"]["violation"]
        assert violation["error"] == "NotSymmetric"
        assert (violation["i"], violation["j"]) == (0, 1)

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 3

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 3

    def test_wrong_field(self, tmp_path):
        path = write_json(tmp_path / "odd.json", {"matrix": [[0, 1], [1, 0]]})
        assert main(["validate", path]) == 3

    def test_declared_n_mismatch(self, tmp_path):
        path = write_json(tmp_path / "short.json", {"n": 5, "distances": [[0, 1], [1, 0]]})
        assert main(["validate", path]) == 3

    def test_declared_n_not_a_number(self, tmp_path):
        path = write_json(tmp_path / "odd.json", {"n": "x", "distances": [[0, 1], [1, 0]]})
        assert main(["validate", path]) == 3

    @pytest.mark.parametrize("n, distances", [
        (3.7, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
        (True, [[0]]),
    ])
    def test_declared_n_not_an_integer(self, n, distances, tmp_path, capsys):
        path = write_json(tmp_path / "odd.json", {"n": n, "distances": distances})
        assert main(["validate", path]) == 3
        assert "field 'n' must be an integer" in capsys.readouterr().err

    def test_declared_n_integral_float_accepted(self, tmp_path):
        path = write_json(tmp_path / "three.json",
                          {"n": 3.0, "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
        assert main(["validate", path]) == 0

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 4

    @pytest.mark.parametrize("argv", [["validate"], ["negtype"], ["embed", "--alpha", "0.5"]])
    def test_matrix_file_decoded_once(self, argv, collinear_json, monkeypatch):
        # one open of the file, whose bytes feed the digest and one decode by
        # the row reader; the whole-document decode never runs
        opens, decodes = [], []

        def spy(name, log, wrapped):
            def call(*args, **kwargs):
                log.append(args[:2] if name == "_json_rows" else (name, str(args[0])))
                return wrapped(*args, **kwargs)
            return call

        for module, name in [(io, "open"), (builtins, "open")]:
            monkeypatch.setattr(module, name, spy(name, opens, getattr(module, name)))
        for name in ["_json_rows", "_load_json"]:
            monkeypatch.setattr(cli, name, spy(name, decodes, getattr(cli, name)))
        assert main([argv[0], collinear_json, *argv[1:]]) == 0
        assert [o for o in opens if o[1] == collinear_json] == [("open", collinear_json)]
        assert decodes == [(Path(collinear_json).read_bytes(), "distances")]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_distance_tokens_fail_with_report(self, token, tmp_path):
        # the standard library reads the tokens that orjson rejects, so the input
        # gets its verdict rather than a parse error
        path = tmp_path / "bad.json"
        path.write_text('{"distances": [[0, %s], [%s, 0]]}' % (token, token))
        report_path = tmp_path / "report.json"
        assert main(["validate", str(path), "--json", str(report_path)]) == 2
        violation = json.loads(report_path.read_text())["payload"]["violation"]
        assert (violation["error"], violation["message"]) == ("MetricValidationError",
                                                              "distances must be finite")

    @pytest.mark.parametrize("text", ["", "# a comment and a blank line\n\n"])
    def test_csv_without_data_is_parse_error(self, text, tmp_path, capsys, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert main(["validate", str(path)]) == 3
        assert "input contained no data" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("text", [
        "0,1,2\n1,0,1\n2,1,0\n",
        "# header\r\n0, 1e0 ,2.5\r\n1,0,-0.0\r\n\r\n2.5,1,0 # last row\r\n",
        "0,0.1,5e-324\n0.1,0,1e308\n5e-324,1e308,0",
    ], ids=["plain", "crlf-comments", "extremes"])
    def test_csv_decoded_from_the_digested_bytes(self, text, tmp_path, monkeypatch):
        path = tmp_path / "metric.csv"
        path.write_bytes(text.encode())
        expected = np.loadtxt(path, delimiter=",", ndmin=2)
        opens = []

        def spy(wrapped):
            def call(*args, **kwargs):
                opens.append(str(args[0]))
                return wrapped(*args, **kwargs)
            return call

        for module in (io, builtins):
            monkeypatch.setattr(module, "open", spy(module.open))
        inputs = {}
        matrix, key = cli._load_table(path, cli._read(path, inputs, "metric"),
                                      "distances", "points")
        assert opens == [str(path)]
        assert key == "distances" and matrix.tobytes() == expected.tobytes()
        assert matrix.shape == expected.shape
        # the bytes given are decoded, not the file read again
        other = cli._load_table(path, b"0,9\n9,0\n", "distances", "points")[0]
        assert np.array_equal(other, [[0.0, 9.0], [9.0, 0.0]])

    def test_csv_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0,1\n1,0 # \xe9\n")
        assert main(["validate", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_square_csv_reports(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0,1,2\n1,0,1\n")
        report_path = tmp_path / "report.json"
        assert main(["validate", str(path), "--json", str(report_path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["payload"]["violation"]["error"] == "DimensionMismatch"


class TestParser:
    def test_built_once(self, collinear_json):
        main(["validate", collinear_json])
        parser = cli._build_parser()
        main(["negtype", collinear_json])
        assert cli._build_parser() is parser

    def test_successive_commands_share_no_options(self, cloud_and_matrix_json, tmp_path):
        _, cloud, _ = cloud_and_matrix_json
        out = tmp_path / "coords.json"

        def run(*argv):
            report_path = tmp_path / "report.json"
            assert main([*argv, "--json", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            return report["payload"], report["tolerances"]

        payload, tolerances = run("embed", cloud, "--alpha", "0.5", "--tol", "1e-6",
                                  "--out", str(out))
        assert payload["alpha"] == 0.5 and tolerances["spectral_tol"] == 1e-6
        out.unlink()
        payload, tolerances = run("negtype", cloud)
        assert (payload["alpha"], payload["strict"]) == (None, False)
        assert tolerances["spectral_tol"] == 1e-9
        payload, tolerances = run("negtype", cloud, "--alpha", "0.3", "--strict", "--tol", "1e-7")
        assert (payload["alpha"], payload["strict"], tolerances["spectral_tol"]) == (0.3, True, 1e-7)
        payload, tolerances = run("embed", cloud)
        assert payload["alpha"] is None and tolerances["spectral_tol"] == 1e-9
        assert not out.exists()
        payload, tolerances = run("validate", cloud)
        assert tolerances == {"triangle_tol": 1e-9}


class TestToleranceOption:
    @pytest.mark.parametrize("tol", ["nan", "-1", "2", "inf", "1"])
    @pytest.mark.parametrize("command", ["validate", "negtype", "embed", "quotient-embed"])
    def test_tolerance_outside_unit_interval_is_usage_error(self, command, tol, tmp_path,
                                                            c2_group_json, capsys):
        if command == "quotient-embed":
            reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0], [2.0]]})
            files = [c2_group_json, reps]
        else:
            # triangle-violating: `validate --tol nan` once accepted it
            files = [write_json(tmp_path / "bad.json",
                                {"distances": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]})]
        report_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([command, *files, "--tol", tol, "--json", str(report_path)])
        assert exc.value.code == 4
        assert not report_path.exists()
        assert "--tol: must lie in [0, 1)" in capsys.readouterr().err

    def test_tolerance_zero_accepted(self, collinear_json):
        assert main(["validate", collinear_json, "--tol", "0"]) == 0


class TestNegtype:
    def test_claw_rejected_with_witness(self, claw_json, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["negtype", claw_json, "--json", str(report_path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["payload"]["is_negative_type"] is False
        witness = report["payload"]["witness"]
        assert witness is not None and abs(sum(witness)) < 1e-9

    def test_euclidean_strict_snowflake(self, collinear_json):
        assert main(["negtype", collinear_json, "--alpha", "0.5", "--strict"]) == 0

    def test_two_point_metric(self, tmp_path):
        path = write_json(tmp_path / "two.json", {"distances": [[0, 3], [3, 0]]})
        assert main(["negtype", path]) == 0

    def test_strict_alpha_one_on_collinear_fails(self, collinear_json, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "negtype", collinear_json, "--alpha", "1", "--strict",
            "--json", str(report_path),
        ])
        assert code == 2
        report = json.loads(report_path.read_text())
        assert report["payload"]["is_negative_type"] is True
        assert report["payload"]["is_strict"] is False

    def test_invalid_metric_fails(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"distances": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]})
        assert main(["negtype", path]) == 2

    def test_alpha_tests_the_snowflake(self, claw_json):
        # claw**0.9 is still rejected: the explicit weights (1,1,-1,-1) give
        # 2*(2**1.8 - 3) > 0 on the snowflaked squared distances
        assert 2 * (2 ** 1.8 - 3) > 0
        assert main(["negtype", claw_json, "--alpha", "0.9"]) == 2

    def test_strict_claw_fails_hypothesis(self, claw_json, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "negtype", claw_json, "--alpha", "0.5", "--strict",
            "--json", str(report_path),
        ])
        assert code == 2
        payload = json.loads(report_path.read_text())["payload"]
        assert payload["is_negative_type"] is False
        assert payload["failure"]["reason"] == "input metric is not of negative type"

    def test_alpha_out_of_range(self, collinear_json):
        assert main(["negtype", collinear_json, "--alpha", "1.5"]) == 4

    def test_reported_tolerance_is_the_applied_threshold(self, claw_json, claw_matrix,
                                                          tmp_path):
        # tol times the spectral radius 2 of the claw's form, not --tol
        report_path = tmp_path / "report.json"
        assert main(["negtype", claw_json, "--json", str(report_path)]) == 2
        judged = json.loads(report_path.read_text())["payload"]["min_eigenvalue"]
        assert spectral_radius(claw_matrix) == pytest.approx(2.0, rel=1e-12)
        assert judged["tolerance"] == pytest.approx(2e-9, rel=1e-12)
        assert judged["value"] < -judged["tolerance"]

    @pytest.mark.parametrize("case", ["hypothesis", "margin"])
    def test_strict_failure_reports_the_applied_threshold(self, case, claw_json, claw_matrix,
                                                          collinear_json, tmp_path):
        # the hypothesis fails on the claw (X decided), the margin on
        # collinear points at alpha = 1 (X**1 = X decided)
        path, d = ((claw_json, claw_matrix) if case == "hypothesis"
                   else (collinear_json, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        report_path = tmp_path / "report.json"
        assert main(["negtype", path, "--strict", "--alpha", "0.5" if case == "hypothesis" else "1",
                     "--json", str(report_path)]) == 2
        payload = json.loads(report_path.read_text())["payload"]
        judged = payload["min_eigenvalue"]
        assert judged["tolerance"] == pytest.approx(1e-9 * spectral_radius(d), rel=1e-12)
        assert payload["failure"]["threshold"] == judged["tolerance"]
        assert payload["is_negative_type"] == (judged["value"] >= -judged["tolerance"])
        assert payload["is_strict"] is False and not judged["value"] > judged["tolerance"]

    def test_strict_failure_decides_each_metric_once(self, claw_json, collinear_json,
                                                      monkeypatch):
        # eigenvalues first; the eigenpairs of the metric whose verdict fails
        # give the witness
        calls = count_kernels(monkeypatch)
        # the hypothesis fails: X alone is decided
        assert main(["negtype", claw_json, "--alpha", "0.5", "--strict"]) == 2
        assert calls == {"eigh": 1, "eigvalsh": 1}
        calls.update(eigh=0, eigvalsh=0)
        # the margin fails: the values of X, then X**alpha
        assert main(["negtype", collinear_json, "--alpha", "1", "--strict"]) == 2
        assert calls == {"eigh": 1, "eigvalsh": 2}

    def test_collinear_cloud_strict_at_zero_tolerance(self, tmp_path):
        # a cloud is Euclidean by construction: round-off in the eigenvalues of
        # X itself (about -4e-13 here) decides nothing at --tol 0
        cloud = write_json(tmp_path / "line.json", {"points": [[float(i)] for i in range(30)]})
        report_path = tmp_path / "report.json"
        assert main(["negtype", cloud, "--alpha", "0.5", "--strict", "--tol", "0",
                     "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())["payload"]
        assert payload["is_strict"] is True and payload["witness"] is None
        assert payload["min_eigenvalue"]["value"] > payload["min_eigenvalue"]["tolerance"] == 0.0


class TestEmbed:
    def test_collinear_snowflake_full_rank(self, collinear_json, tmp_path):
        out = tmp_path / "coords.json"
        report_path = tmp_path / "report.json"
        code = main([
            "embed", collinear_json, "--alpha", "0.5",
            "--out", str(out), "--json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["payload"]["rank"] == 2
        coords = np.asarray(json.loads(out.read_text())["points"])
        d = pairwise_distances(coords)
        assert d[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert d[0, 2] == pytest.approx(2 ** 0.5, abs=1e-9)

    def test_collinear_cloud_at_zero_tolerance(self, tmp_path):
        # the hypothesis holds by construction for a cloud, whatever the
        # round-off in the eigenvalues of X
        cloud = write_json(tmp_path / "line.json", {"points": [[float(i)] for i in range(30)]})
        out = tmp_path / "coords.json"
        report_path = tmp_path / "report.json"
        assert main(["embed", cloud, "--alpha", "0.5", "--tol", "0", "--out", str(out),
                     "--json", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["payload"]["rank"] == 29
        coords = np.asarray(strict_loads(out.read_text())["points"])
        expected = np.abs(np.subtract.outer(np.arange(30.0), np.arange(30.0))) ** 0.5
        assert np.allclose(pairwise_distances(coords), expected, rtol=0.0, atol=1e-12)

    def test_alpha_one_flags_rank_deficit(self, collinear_json, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["embed", collinear_json, "--alpha", "1", "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["payload"]["rank"] == 1
        assert report["payload"]["full_rank"] is False
        assert "note" in report["payload"]

    def test_claw_fails(self, claw_json):
        assert main(["embed", claw_json]) == 2
        assert main(["embed", claw_json, "--alpha", "0.5"]) == 2

    def test_alpha_out_of_range(self, collinear_json):
        assert main(["embed", collinear_json, "--alpha", "1.5"]) == 4

    def test_point_cap_is_usage_error(self, collinear_json, monkeypatch, capsys):
        from snowflake_embed import embedding

        monkeypatch.setattr(embedding, "MAX_POINTS", 2)
        for argv in (["embed", collinear_json], ["embed", collinear_json, "--alpha", "0.5"]):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert "exceeds the configured cap 2" in err
            assert "Traceback" not in err

    def test_point_cap_before_cubic_work(self, tmp_path, make_cloud, monkeypatch, capsys):
        pts = make_cloud(60, 3)
        cloud = write_json(tmp_path / "cloud.json", {"points": pts.tolist()})
        matrix = write_json(tmp_path / "matrix.json",
                            {"distances": pairwise_distances(pts).tolist()})
        monkeypatch.setattr(embedding, "MAX_POINTS", 40)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(cli, "validate_metric", refuse)
        for path in (cloud, matrix):
            assert main(["embed", path, "--alpha", "0.5"]) == 4
            assert "exceeds the configured cap 40" in capsys.readouterr().err

    def test_out_roundtrips_coordinates(self, cloud_and_matrix_json, tmp_path):
        pts, cloud, _ = cloud_and_matrix_json
        out = tmp_path / "coords.json"
        assert main(["embed", cloud, "--alpha", "0.5", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        expected = snowflake_embed(euclidean_metric(pts), 0.5).coordinates
        assert np.asarray(strict_loads(text)["points"]).tobytes() == expected.tobytes()

    def test_report_roundtrips(self, collinear_json, tmp_path):
        report_path = tmp_path / "report.json"
        main(["embed", collinear_json, "--alpha", "0.5", "--json", str(report_path)])
        first = json.loads(report_path.read_text())
        main(["embed", collinear_json, "--alpha", "0.5", "--json", str(report_path)])
        assert json.loads(report_path.read_text()) == first

    def test_point_cloud_input(self, tmp_path):
        cloud = write_json(tmp_path / "cloud.json", {"points": [[0.0], [1.0], [2.0]]})
        report_path = tmp_path / "report.json"
        assert main(["embed", cloud, "--alpha", "0.5", "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["payload"]["rank"] == 2

    def test_point_cloud_duplicates(self, tmp_path):
        cloud = write_json(tmp_path / "cloud.json", {"points": [[0.0], [0.0]]})
        assert main(["validate", cloud]) == 2


class TestPointCloudInput:
    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["negtype"],
        ["negtype", "--alpha", "0.5", "--strict"],
        ["embed"],
        ["embed", "--alpha", "0.5"],
    ])
    def test_skips_triangle_scan(self, argv, cloud_and_matrix_json,
                                 tmp_path, monkeypatch):
        _, cloud, matrix = cloud_and_matrix_json
        expected = main([argv[0], matrix, *argv[1:], "--json", str(tmp_path / "m.json")])
        monkeypatch.setattr(cli, "validate_metric", refuse)
        code = main([argv[0], cloud, *argv[1:], "--json", str(tmp_path / "c.json")])
        assert code == expected == 0
        by_points = json.loads((tmp_path / "c.json").read_text())["payload"]
        by_matrix = json.loads((tmp_path / "m.json").read_text())["payload"]
        if argv == ["negtype"]:
            # the cloud's spectrum comes from its 3 coordinates: its smallest of 11
            # eigenvalues is an exact zero, the matrix's a round-off within the
            # threshold, and its witness a unit vector of the exact kernel
            points, matrix_ = by_points.pop("min_eigenvalue"), by_matrix.pop("min_eigenvalue")
            assert points["value"] == 0.0 and abs(matrix_["value"]) <= matrix_["tolerance"]
            assert points["tolerance"] == pytest.approx(matrix_["tolerance"], rel=1e-12)
            witness = np.asarray(by_points.pop("witness"))
            by_matrix.pop("witness")
            d = json.loads(Path(matrix).read_text())["distances"]
            assert abs(witness.sum()) <= 1e-14 and np.linalg.norm(witness) == pytest.approx(1.0)
            assert abs(quadratic_form(np.square(d), witness)) <= 1e-13 * np.square(d).max()
        elif argv == ["embed"]:
            points, matrix_ = (np.asarray(payload.pop("eigenvalues"))
                               for payload in (by_points, by_matrix))
            assert np.allclose(points[:3], matrix_[:3], rtol=1e-12, atol=0.0)
            assert not points[3:].any() and np.abs(matrix_[3:]).max() <= 1e-12 * matrix_[0]
            for payload in (by_points, by_matrix):
                assert payload.pop("residual")["value"] <= embedding.RESIDUAL_LIMIT
        assert by_points == by_matrix

    @pytest.mark.parametrize("command", ["validate", "negtype", "embed"])
    def test_coincident_points_reported(self, command, tmp_path):
        cloud = write_json(tmp_path / "cloud.json", {"points": [[0], [0], [1]]})
        report_path = tmp_path / "report.json"
        assert main([command, cloud, "--json", str(report_path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["outcome"] == "fail"
        violation = report["payload"]["violation"]
        assert violation["error"] == "DuplicatePoints"
        assert violation["pairs"] == [[0, 1]]

    @pytest.mark.parametrize("body", [
        {"points": []},
        {"points": [0.0, 1.0]},
        {"n": 3, "points": [[0.0], [1.0]]},
    ], ids=["empty", "one-dimensional", "declared-n"])
    @pytest.mark.parametrize("command", ["validate", "negtype", "embed"])
    def test_malformed_cloud_is_parse_error(self, command, body, tmp_path, capsys):
        # not one point in E^0, nor one point in E^2: the rule of a distance table
        cloud = write_json(tmp_path / "cloud.json", body)
        report_path = tmp_path / "report.json"
        assert main([command, cloud, "--json", str(report_path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not report_path.exists()


class TestCloudSpectrum:
    """A point cloud is decided and embedded from the thin SVD of its centred
    points, so round-off in a Gram matrix it never forms decides nothing."""

    @pytest.mark.parametrize("points", [
        np.random.default_rng(60).standard_normal((60, 3)),
        np.arange(30.0)[:, None],
    ], ids=["gaussian60", "collinear30"])
    @pytest.mark.parametrize("command", ["negtype", "embed"])
    def test_zero_tolerance(self, command, points, tmp_path):
        # both exited 2 on a round-off eigenvalue of about -3e-14 of the full eigh
        cloud = write_json(tmp_path / "cloud.json", {"points": points.tolist()})
        report_path = tmp_path / "report.json"
        assert main([command, cloud, "--tol", "0", "--json", str(report_path)]) == 0
        payload = strict_loads(report_path.read_text())["payload"]
        if command == "negtype":
            assert payload["is_negative_type"] and not payload["is_strict"]
            assert payload["min_eigenvalue"] == {"value": 0.0, "tolerance": 0.0}
        else:
            n, m = points.shape
            assert payload["rank"] == m and payload["eigenvalues"][m:] == [0.0] * (n - 1 - m)

    @pytest.mark.parametrize("scale", [1.0, 5e153])
    def test_strict_alpha_one_in_general_position(self, scale, tmp_path):
        # at 5e153 the centred Gram matrix of the distances overflowed, and the
        # eigvalsh of its restricted form raised LinAlgError out of main
        points = np.random.default_rng(7).standard_normal((4, 3)) * scale
        cloud = write_json(tmp_path / "cloud.json", {"points": points.tolist()})
        report_path = tmp_path / "report.json"
        assert main(["negtype", cloud, "--alpha", "1", "--strict", "--tol", "0",
                     "--json", str(report_path)]) == 0
        payload = strict_loads(report_path.read_text())["payload"]
        assert payload["is_strict"] and payload["witness"] is None

    def test_distances_near_the_top_of_the_range(self, tmp_path):
        # finite distances whose squares' row sums overflow: the centred Gram
        # matrix of the distances held NaN, and the verdict followed it
        cloud = write_json(tmp_path / "cloud.json", {
            "points": (np.random.default_rng(50).standard_normal((50, 3)) * 1e153).tolist()})
        report_path = tmp_path / "report.json"
        assert main(["embed", cloud, "--json", str(report_path)]) == 0
        payload = strict_loads(report_path.read_text())["payload"]
        assert payload["rank"] == 3 and payload["residual"]["value"] <= embedding.RESIDUAL_LIMIT
        assert np.isfinite(payload["eigenvalues"][:3]).all()

    def test_eigenvalue_beyond_the_range(self, tmp_path):
        # 500 points at 1e153: the largest eigenvalue is about 5e308, beyond
        # the double range, and the verdicts are taken on scaled values
        cloud = write_json(tmp_path / "cloud.json", {
            "points": (np.random.default_rng(500).standard_normal((500, 3)) * 1e153).tolist()})
        report_path = tmp_path / "report.json"
        assert main(["negtype", cloud, "--json", str(report_path)]) == 0
        payload = strict_loads(report_path.read_text())["payload"]
        assert payload["is_negative_type"] and not payload["is_strict"]
        # 1e-9 times the eigenvalue past the range, which would itself be inf
        assert payload["min_eigenvalue"]["value"] == 0.0
        assert 1e299 < payload["min_eigenvalue"]["tolerance"] < np.finfo(float).max
        assert np.isfinite(payload["witness"]).all()
        assert main(["embed", cloud, "--json", str(report_path)]) == 2
        failure = strict_loads(report_path.read_text())["payload"]["failure"]
        assert failure["error"] == "NotEmbeddable"
        assert failure["reason"] == "the largest eigenvalue overflows the double range"

    @pytest.mark.parametrize("argv, by_points, by_matrix", [
        (["embed"], {"eigh": 0, "eigvalsh": 0}, {"eigh": 1, "eigvalsh": 0}),
        (["negtype"], {"eigh": 0, "eigvalsh": 0}, {"eigh": 1, "eigvalsh": 0}),
        (["negtype", "--alpha", "1"], {"eigh": 0, "eigvalsh": 0}, {"eigh": 1, "eigvalsh": 0}),
        (["negtype", "--alpha", "1", "--strict"], {"eigh": 0, "eigvalsh": 0},
         {"eigh": 1, "eigvalsh": 2}),
    ], ids=["embed", "negtype", "negtype-alpha1", "negtype-alpha1-strict"])
    def test_no_eigendecomposition(self, argv, by_points, by_matrix, cloud_and_matrix_json,
                                   monkeypatch):
        _, cloud, matrix = cloud_and_matrix_json
        calls = count_kernels(monkeypatch)
        code = 2 if "--strict" in argv else 0  # 12 points in E^3 are not strict at alpha 1
        assert main([argv[0], cloud, *argv[1:]]) == code
        assert calls == by_points
        calls.update(eigh=0, eigvalsh=0)
        assert main([argv[0], matrix, *argv[1:]]) == code
        assert calls == by_matrix


class TestSchoenberg:
    def test_normalization_grid_point(self, capsys):
        assert main(["schoenberg", "--alpha", "0.5", "--t-grid", "1"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_default_grid(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "schoenberg", "--alpha", "0.5", "--t-grid", "0.1,1,2,10",
            "--json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        for row in report["payload"]["per_t"]:
            assert row["rel_err"]["value"] <= 1e-6

    def test_alpha_out_of_domain(self):
        assert main(["schoenberg", "--alpha", "1.5"]) == 4

    def test_bad_t_grid(self):
        assert main(["schoenberg", "--alpha", "0.5", "--t-grid", "0,1"]) == 4
        assert main(["schoenberg", "--alpha", "0.5", "--t-grid", "abc"]) == 4

    @pytest.mark.parametrize("t", ["1e-300", "1e160", "1e300"])
    def test_t_beyond_double_precision_is_usage_error(self, t, tmp_path, capsys):
        # t**2 underflows to 0 or overflows to inf: outside the domain
        report_path = tmp_path / "report.json"
        assert main(["schoenberg", "--alpha", "0.99", "--t-grid", t,
                     "--json", str(report_path)]) == 4
        err = capsys.readouterr().err
        assert "t**2 a positive finite double" in err
        assert "Traceback" not in err
        assert not report_path.exists()

    @pytest.mark.parametrize("quad_tol", ["nan", "-1", "1", "inf"])
    def test_quad_tol_outside_unit_interval_is_usage_error(self, quad_tol, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["schoenberg", "--alpha", "0.5", "--t-grid", "1,2", "--quad-tol", quad_tol,
                  "--json", str(report_path)])
        assert exc.value.code == 4
        assert not report_path.exists()
        assert "--quad-tol: must lie in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--quad-tol", "0"], []])
    def test_quad_tol_in_unit_interval_accepted(self, extra, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["schoenberg", "--alpha", "0.5", "--t-grid", "1,2", *extra,
                     "--json", str(report_path)])
        # a zero limit is a valid request that round-off may fail
        assert code in (0, 2)
        limit = json.loads(report_path.read_text())["tolerances"]["rel_err_limit"]
        assert limit == (0.0 if extra else 1e-6)

    def test_quadrature_failure_writes_report(self, tmp_path, monkeypatch):
        def nonconvergent(*args, **kwargs):
            raise QuadratureNonconvergence("subdivision budget exhausted")

        monkeypatch.setattr(cli, "verify_power_identity", nonconvergent)
        report_path = tmp_path / "report.json"
        assert main(["schoenberg", "--alpha", "0.5", "--t-grid", "1,2",
                     "--json", str(report_path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["outcome"] == "fail"
        assert report["payload"]["failure"]["error"] == "QuadratureNonconvergence"
        assert report["payload"]["per_t"] == []


class TestQuotientEmbed:
    def test_reflection_example(self, c2_group_json, tmp_path):
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0], [2.0]]})
        out = tmp_path / "embedding.json"
        report_path = tmp_path / "report.json"
        code = main([
            "quotient-embed", c2_group_json, reps, "--alpha", "0.5",
            "--out", str(out), "--json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["payload"]["max_abs_error"]["value"] <= 1e-9
        assert report["payload"]["zero_eigenvalues"] == 1
        # judged against tol * (1 + largest target), the tolerance qng_embed applied
        judged = report["payload"]["max_abs_error"]
        largest = max(row["target"] for row in report["payload"]["report"])
        assert judged["value"] <= judged["tolerance"] == 1e-9 * (1.0 + largest)
        body = json.loads(out.read_text())
        assert set(body) == {"points", "report", "scale_note"}
        row = body["report"][0]
        assert row["target"] == pytest.approx(1.0)
        assert abs(row["abs_error"]) <= 1e-9

    def test_error_tolerance_follows_the_targets(self, c2_group_json, tmp_path):
        # one pair at quotient distance 4: target 4**0.5 = 2, tolerance 3 tol
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0], [5.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", c2_group_json, reps, "--tol", "1e-8",
                     "--json", str(report_path)]) == 0
        judged = json.loads(report_path.read_text())["payload"]["max_abs_error"]
        assert judged["tolerance"] == 1e-8 * (1.0 + 2.0)

    def test_fixed_point_rep_fails(self, c2_group_json, tmp_path):
        reps = write_json(tmp_path / "reps.json", {"representatives": [[0.0]]})
        report_path = tmp_path / "report.json"
        code = main([
            "quotient-embed", c2_group_json, reps, "--json", str(report_path),
        ])
        assert code == 2
        report = json.loads(report_path.read_text())
        assert report["payload"]["failure"]["error"] == "NonFreeOrbit"

    def test_trivial_group_matches_embed(self, tmp_path):
        group = write_json(tmp_path / "trivial.json", {"dim": 2, "matrices": [[[1.0, 0.0], [0.0, 1.0]]]})
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
        reps = write_json(tmp_path / "reps.json", {"representatives": pts})
        qreport = tmp_path / "quotient.json"
        code = main(["quotient-embed", group, reps, "--alpha", "0.5", "--json", str(qreport)])
        assert code == 0

        d = pairwise_distances(np.asarray(pts))
        metric = write_json(tmp_path / "metric.json", {"distances": d.tolist()})
        ereport = tmp_path / "embed.json"
        assert main(["embed", metric, "--alpha", "0.5", "--json", str(ereport)]) == 0

        qrows = json.loads(qreport.read_text())["payload"]["report"]
        for row in qrows:
            expected = d[row["i"], row["j"]] ** 0.5
            assert row["achieved"] == pytest.approx(expected, abs=1e-9)

    def test_point_cap_is_usage_error(self, c2_group_json, tmp_path, monkeypatch, capsys):
        # two orbits of C2 lift to 4 points, one above the cap: no report
        monkeypatch.setattr(embedding, "MAX_POINTS", 3)
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0], [2.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", c2_group_json, reps, "--json", str(report_path)]) == 4
        assert not report_path.exists()
        err = capsys.readouterr().err
        assert "point count 4 exceeds the configured cap 3" in err
        assert "Traceback" not in err

    def test_alpha_one_rejected(self, c2_group_json, tmp_path):
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0], [2.0]]})
        assert main(["quotient-embed", c2_group_json, reps, "--alpha", "1"]) == 4

    def test_csv_group_rejected(self, tmp_path):
        group = tmp_path / "group.csv"
        group.write_text("-1.0\n")
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0]]})
        assert main(["quotient-embed", str(group), reps]) == 3

    @pytest.mark.parametrize("group", [
        {"generators": []},
        {"generators": [[[-1.0]]], "tolerance": "abc"},
        {"generators": [[[-1.0]]], "dim": "x"},
        {"generators": [5]},
        {"generators": [[1, 0]]},
        {"matrices": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]},
        # a declared dim is an integer, never truncated to one
        {"generators": [[[0.0, -1.0], [1.0, 0.0]]], "dim": 2.5},
        {"generators": [[[-1.0]]], "dim": True},
    ])
    def test_malformed_group_rejected(self, group, tmp_path):
        path = write_json(tmp_path / "group.json", group)
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0]]})
        assert main(["quotient-embed", path, reps]) == 3

    def test_loosely_closing_group_fails_with_report(self, tmp_path, capsys):
        # C5 through a rounded angle closes within tolerance 1e-3, but its
        # products miss the identified elements by more than the action allows
        theta = round(2 * np.pi / 5, 4)
        c, s = np.cos(theta), np.sin(theta)
        group = write_json(tmp_path / "c5.json",
                           {"dim": 2, "generators": [[[c, -s], [s, c]]], "tolerance": 1e-3})
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0, 0.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", group, reps, "--json", str(report_path)]) == 2
        failure = json.loads(report_path.read_text())["payload"]["failure"]
        assert failure["error"] == "NumericalAmbiguity"
        assert 0.0 < failure["distance"] <= failure["tol"] == 1e-3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("group", [
        # NaN let the non-orthogonal generator through, and it vanished
        {"dim": 1, "generators": [[[2.0]]], "tolerance": float("nan")},
        {"dim": 2, "generators": [[[0.0, -1.0], [1.0, 0.0]]], "tolerance": -1},
        {"dim": 2, "generators": [[[0.0, -1.0], [1.0, 0.0]]], "tolerance": 5},
    ])
    def test_group_tolerance_outside_its_domain(self, group, tmp_path, capsys):
        path = write_json(tmp_path / "group.json", group)
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0] * group["dim"]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", path, reps, "--json", str(report_path)]) == 4
        assert not report_path.exists()
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["1e-3", False])
    def test_group_tolerance_not_a_number(self, tolerance, tmp_path, capsys):
        # a JSON string or boolean was read as 1e-3 or 0.0 and exited 0
        path = write_json(tmp_path / "c4.json", {"dim": 2, "tolerance": tolerance,
                                                 "generators": [[[0.0, -1.0], [1.0, 0.0]]]})
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0, 0.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", path, reps, "--json", str(report_path)]) == 3
        assert not report_path.exists()
        assert "field 'tolerance' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        (float("nan"), "coordinates must be finite"),
        (float("inf"), "coordinates must be finite"),
        (1e200, "distances must be finite"),
    ])
    def test_non_finite_representatives_fail_with_report(self, bad, message, tmp_path,
                                                          capsys):
        group = write_json(tmp_path / "c4.json",
                           {"dim": 2, "generators": [[[0.0, -1.0], [1.0, 0.0]]]})
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0, 0.5], [bad, 2.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", group, reps, "--json", str(report_path)]) == 2
        failure = json.loads(report_path.read_text())["payload"]["failure"]
        assert (failure["error"], failure["message"]) == ("MetricValidationError", message)
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_generator_fails_with_report(self, tmp_path, capsys):
        group = write_json(tmp_path / "nan.json", {"dim": 1, "generators": [[[float("nan")]]]})
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", group, reps, "--json", str(report_path)]) == 2
        failure = json.loads(report_path.read_text())["payload"]["failure"]
        assert failure["error"] == "NotOrthogonal"
        assert failure["index"] == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_generator_merged_by_loose_tolerance_fails_with_report(self, tmp_path):
        # the C16 generator lies within 0.5 of the identity, which would
        # leave the trivial group
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        group = write_json(tmp_path / "c16.json",
                           {"dim": 2, "generators": [[[c, -s], [s, c]]], "tolerance": 0.5})
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0, 0.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", group, reps, "--json", str(report_path)]) == 2
        failure = json.loads(report_path.read_text())["payload"]["failure"]
        assert failure["error"] == "NumericalAmbiguity"
        assert failure["distance"] == pytest.approx(s, rel=1e-12)
        assert failure["tol"] == 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_equivariance_defect_judged(self, seed, tmp_path):
        # C4 on E^2, representatives scaled by 1e6: the defect of the root
        # is judged against tol * (1 + max |T|), the limit qng_embed applied
        group = write_json(tmp_path / "c4.json",
                           {"dim": 2, "generators": [[[0.0, -1.0], [1.0, 0.0]]]})
        reps = np.random.default_rng(seed).standard_normal((6, 2)) * 1e6
        rsrc = write_json(tmp_path / "reps.json", {"representatives": reps.tolist()})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", group, rsrc, "--alpha", "0.9",
                     "--json", str(report_path)]) == 0
        judged = json.loads(report_path.read_text())["payload"]["equivariance_defect"]
        assert judged["value"] <= judged["tolerance"]
        assert judged["tolerance"] > 1e-9

    def test_verification_failure_writes_report(self, c2_group_json, tmp_path, monkeypatch):
        def unverified(*args, **kwargs):
            row = np.rec.fromarrays([[0], [1], [1.0], [1.5], [0.5]],
                                    names="i,j,target,achieved,abs_error")
            raise VerificationFailure(0.5, 2e-9, report=row)

        monkeypatch.setattr(cli, "qng_embed", unverified)
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0], [2.0]]})
        report_path = tmp_path / "report.json"
        assert main(["quotient-embed", c2_group_json, reps, "--json", str(report_path)]) == 2
        failure = json.loads(report_path.read_text())["payload"]["failure"]
        assert failure["error"] == "VerificationFailure"
        assert failure["report"] == [{"i": 0, "j": 1, "target": 1.0, "achieved": 1.5,
                                      "abs_error": 0.5}]

    def test_csv_reps_without_data_is_parse_error(self, tmp_path, capsys, recwarn):
        group = write_json(tmp_path / "c4.json",
                           {"dim": 2, "generators": [[[0.0, -1.0], [1.0, 0.0]]]})
        reps = tmp_path / "empty.csv"
        reps.write_text("")
        assert main(["quotient-embed", group, str(reps)]) == 3
        assert "input contained no data" in capsys.readouterr().err
        assert not recwarn.list

    def test_csv_reps_accepted(self, c2_group_json, tmp_path):
        reps = tmp_path / "reps.csv"
        reps.write_text("1.0\n2.0\n")
        assert main(["quotient-embed", c2_group_json, str(reps), "--alpha", "0.25"]) == 0


def test_files_are_single_lines_that_round_trip(c2_group_json, claw_json, claw_matrix, tmp_path):
    # compact JSON on one line, and floats read back bit for bit
    def single_line(path):
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        return json.loads(text)

    reps = [[1.0], [-1.5], [3.0]]
    rsrc = write_json(tmp_path / "reps.json", {"representatives": reps})
    out, report_path = tmp_path / "embedding.json", tmp_path / "report.json"
    assert main(["quotient-embed", c2_group_json, rsrc,
                 "--json", str(report_path), "--out", str(out)]) == 0
    result = qng_embed(lift_orbits(reps, close_group([[[-1.0]]], tol=1e-8)), 0.5)
    spectrum = single_line(report_path)["payload"]["spectrum"]
    assert np.array(spectrum).tobytes() == result.spectrum.tobytes()
    assert np.array(single_line(out)["points"]).tobytes() == result.points.tobytes()

    assert main(["embed", claw_json, "--json", str(report_path)]) == 2
    with pytest.raises(NotEmbeddable) as exc:
        embed(validate_metric(claw_matrix))
    witness = single_line(report_path)["payload"]["failure"]["witness"]
    assert np.array(witness).tobytes() == exc.value.witness.tobytes()


@pytest.mark.parametrize("case", ["negtype-one-point", "quotient-nan-generator"])
def test_non_finite_floats_written_as_null(case, tmp_path, capsys):
    # the summary prints the float as before; the report spells it null
    if case == "negtype-one-point":
        # one point: the restricted spectrum is empty, its minimum inf
        argv = ["negtype", write_json(tmp_path / "one.json", {"points": [[1.0, 2.0]]})]
        expected_code, summary, nulls = 0, "min eigenvalue inf", [("min_eigenvalue", "value")]
    elif case == "quotient-nan-generator":
        group = write_json(tmp_path / "nan.json", {"dim": 1, "generators": [[[float("nan")]]]})
        reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0]]})
        argv = ["quotient-embed", group, reps]
        expected_code, summary, nulls = 2, "defect nan", [("failure", "defect")]
    assert main(argv) == expected_code
    assert summary in capsys.readouterr().out
    report_path = tmp_path / "report.json"
    assert main([*argv, "--json", str(report_path)]) == expected_code
    payload = strict_loads(report_path.read_text())["payload"]
    for where in nulls:
        node = payload
        for key in where:
            node = node[key]
        assert node is None, where


def test_point_cloud_commands_start_without_scipy(tmp_path, claw_matrix):
    # a fresh interpreter: scipy is imported only by validate_metric's
    # Floyd-Warshall pass, which point clouds and Euclidean distance matrices
    # of rank up to ceil(sqrt(n)) never reach; a shortest-path matrix does
    cloud = write_json(tmp_path / "cloud.json",
                       {"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]})
    group = write_json(tmp_path / "c2.json", {"dim": 1, "generators": [[[-1.0]]]})
    reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0], [2.0]]})
    grid = np.stack(np.meshgrid(np.arange(2.0), np.arange(2.0), np.arange(4.0)), -1)
    matrix = write_json(tmp_path / "matrix.json",
                        {"distances": pairwise_distances(grid.reshape(-1, 3)).tolist()})
    claw = write_json(tmp_path / "claw.json", {"distances": claw_matrix.tolist()})
    argvs = [["embed", cloud, "--alpha", "0.5"], ["negtype", cloud, "--strict", "--alpha", "0.5"],
             ["schoenberg", "--alpha", "0.5"], ["quotient-embed", group, reps],
             ["validate", matrix], ["negtype", matrix, "--strict", "--alpha", "0.5"],
             ["embed", matrix], ["embed", matrix, "--alpha", "0.5"]]
    snippet = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "from snowflake_embed.cli import main\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "before = scipy_loaded()\n"
        f"codes.append(main(['validate', {claw!r}]))\n"
        "print(json.dumps({'codes': codes, 'before': before,\n"
        "                  'after': 'scipy.sparse.csgraph' in scipy_loaded()}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 9, "before": [], "after": True}


def assert_parse_error(role, body, c2_group_json, tmp_path, capsys):
    """Run the command that reads the bytes ``body`` as its ``role`` input: exit
    3, one ``error:`` line naming the file, no report."""
    bad = tmp_path / f"{role}.json"
    bad.write_bytes(body)
    reps = write_json(tmp_path / "reps.json", {"representatives": [[1.0]]})
    argv = {"metric": ["validate", str(bad)],
            "group": ["quotient-embed", str(bad), reps],
            "representatives": ["quotient-embed", c2_group_json, str(bad)]}[role]
    report = tmp_path / "report.json"
    assert main([*argv, "--json", str(report)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and not report.exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(bad) in err


@pytest.mark.parametrize("role", ["metric", "group", "representatives"])
def test_json_that_is_not_utf8_is_parse_error(role, c2_group_json, tmp_path, capsys):
    # a byte 0xff, never valid UTF-8, inside an otherwise valid JSON input
    bodies = {"metric": '{"distances": [[0, 1], [1, 0]], "note": "@"}',
              "group": '{"dim": 1, "generators": [[[-1.0]]], "note": "@"}',
              "representatives": '{"representatives": [[1.0]], "note": "@"}'}
    assert_parse_error(role, bodies[role].encode().replace(b"@", b"\xff"),
                       c2_group_json, tmp_path, capsys)


@pytest.mark.parametrize("value", ["[" * 5000 + "0" + "]" * 5000, "1" + "0" * 400],
                         ids=["nested-past-recursion-limit", "int-past-float-range"])
@pytest.mark.parametrize("role", ["metric", "group", "representatives"])
def test_json_value_past_decoding_limits_is_parse_error(role, value, c2_group_json, tmp_path,
                                                        capsys):
    # the standard library's decoder raises RecursionError on the one, and
    # numpy's conversion of the int to a float OverflowError on the other
    bodies = {"metric": '{"distances": [[0, @], [@, 0]]}',
              "group": '{"dim": 1, "generators": [[[@]]]}',
              "representatives": '{"representatives": [[@]]}'}
    assert_parse_error(role, bodies[role].replace("@", value).encode(),
                       c2_group_json, tmp_path, capsys)


def test_schoenberg_far_from_one_is_finite(tmp_path):
    # t = 1e100 at a = 0.99: the right-hand side is about 1e198, and the split
    # points scale with t, so it neither overflows nor loses accuracy
    report_path = tmp_path / "report.json"
    assert main(["schoenberg", "--alpha", "0.99", "--t-grid", "1e100",
                 "--json", str(report_path)]) == 0
    row = strict_loads(report_path.read_text())["payload"]["per_t"][0]
    assert math.isfinite(row["rhs"])
    assert row["rel_err"]["value"] <= 1e-12


# every class of double: st.floats draws subnormals, +-0.0 and values near
# 1e+-308; integer-valued floats are drawn on their own
finite_doubles = st.floats(allow_nan=False, allow_infinity=False) | \
    st.integers(-2**53, 2**53).map(float)


class TestWriteJson:
    """``cli._write_json``, the one writer of every file the CLI produces."""

    @given(values=arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(1, 5)),
                         elements=finite_doubles))
    @example(values=np.array([[5e-324, -5e-324, 2.2250738585072014e-308],
                              [0.0, -0.0, 1e-308],
                              [1e308, -1.7976931348623157e308, 1e-5],
                              [3.0, -2.0**53, 1e22]]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_floats_read_back_bit_equal(self, values, tmp_path):
        path = tmp_path / "out.json"
        views = {"array": values, "reversed": values[::-1], "column": values[:, 0]}
        cli._write_json(str(path), {**views, "floats": values.ravel().tolist()})
        body = strict_loads(path.read_text())
        views["floats"] = values.ravel()
        for key, expected in views.items():
            got = np.array(body[key], dtype=np.float64).reshape(expected.shape)
            assert np.array_equal(got.view(np.uint64),
                                  np.ascontiguousarray(expected).view(np.uint64)), key
        # a view that is not C-contiguous renders as its tolist()
        assert body["reversed"] == values[::-1].tolist()
        assert body["column"] == values[:, 0].tolist()

    def test_record_array_renders_one_object_per_row(self, tmp_path):
        rows = np.rec.fromarrays([np.array([0, 0, 1]), np.array([1, 2, 2]),
                                  np.array([1.0, 0.5, 2.0**-60])], names="i,j,target")
        path = tmp_path / "out.json"
        cli._write_json(str(path), {"report": rows, "empty": rows[:0]})
        body = strict_loads(path.read_text())
        assert body["report"] == [{"i": 0, "j": 1, "target": 1.0},
                                  {"i": 0, "j": 2, "target": 0.5},
                                  {"i": 1, "j": 2, "target": 2.0**-60}]
        for row in body["report"]:
            assert (type(row["i"]), type(row["j"]), type(row["target"])) == (int, int, float)
        assert body["empty"] == []


# JSON number tokens as writers spell them: every class of double in its
# shortest form and with 17 or 25 significant digits, integers beyond 2**64
number_tokens = (
    (finite_doubles | st.floats(min_value=1e-308, max_value=1e308)
     | st.floats(min_value=-2.3e-308, max_value=2.3e-308))
    .flatmap(lambda x: st.sampled_from([repr(x), f"{x:.17e}", f"{x:.25g}", f"{x:.16E}"]))
    | (st.integers(-2**70, 2**70) | st.integers(2**64, 2**200)).map(str)
)
# tokens the row reader must leave to the standard library: non-finite values,
# values that are not numbers, nested rows, and spellings that orjson rejects
odd_tokens = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
                              "true", "null", '"1.5"', "[1]", "[]", "+1", ".5", "01", "1.", "1e"])
whitespace = st.sampled_from(["", " ", "\n", "\t", "\r\n", "  ", "\n    "])


def json_sequence(draw, items, brackets):
    """``items`` joined into a JSON array or object, with drawn whitespace."""
    parts = [brackets[0]]
    for i, item in enumerate(items):
        parts.append(("," if i else "") + draw(whitespace) + item + draw(whitespace))
    return "".join(parts) + brackets[1]


@st.composite
def json_tables(draw):
    """The text of a table and its row count: mostly rectangular, at times ragged,
    with empty rows when it has no columns."""
    cells = number_tokens | odd_tokens if draw(st.booleans()) else number_tokens
    cols, rows = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    lengths = st.sampled_from([cols] * 4 + [cols + 1, max(cols - 1, 0)])
    return json_sequence(draw, [
        json_sequence(draw, [draw(cells) for _ in range(draw(lengths))], "[]")
        for _ in range(rows)], "[]"), rows


@st.composite
def json_documents(draw):
    """The keys of an input role and the text of a document that holds a table
    under one of them, with extra keys in a drawn order: a declared n, the key's
    name inside a string value and inside a nested object, a duplicate key, the
    role's other key, and keys that only look like it."""
    keys = draw(st.sampled_from([("distances", "points"), ("representatives",)]))
    key = draw(st.sampled_from(keys))
    table, rows = draw(json_tables())
    entries = [(json.dumps(key), table)]
    for extra in draw(st.lists(st.sampled_from(["n", "wrong n", "n string", "note", "nested",
                                                "duplicate", "other", "escaped", "unicode"]),
                               unique=True, max_size=3)):
        entries.append({
            "n": lambda: ('"n"', str(rows)),
            "wrong n": lambda: ('"n"', str(rows + 1)),
            "n string": lambda: ('"n"', '"x"'),
            "note": lambda: ('"note"', json.dumps(f'{{"{key}": [[1]]}}')),
            "nested": lambda: ('"meta"', '{"%s": [[5]]}' % key),
            "duplicate": lambda: (json.dumps(key), draw(json_tables())[0]),
            "other": lambda: ('"points"' if key == "distances" else '"distances"',
                              draw(json_tables())[0]),
            "escaped": lambda: (json.dumps('a"' + key), draw(json_tables())[0]),
            "unicode": lambda: ('"%s\\u0073"' % key[:-1], draw(json_tables())[0]),
        }[extra]())
    entries = draw(st.permutations(entries))
    text = json_sequence(draw, [name + draw(whitespace) + ":" + draw(whitespace) + value
                                for name, value in entries], "{}")
    return keys, f"[{text}]" if draw(st.integers(0, 9)) == 0 else text


@st.composite
def dumped_documents(draw):
    """The keys of an input role and a document written by ``json.dumps``,
    indented or not, its keys sorted or not."""
    keys = draw(st.sampled_from([("distances", "points"), ("representatives",)]))
    cols = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(finite_doubles | st.integers(-2**70, 2**70),
                                  min_size=cols, max_size=cols), max_size=5))
    body = {draw(st.sampled_from(keys)): rows, "n": len(rows), "note": keys[0]}
    return keys, json.dumps(body, indent=draw(st.sampled_from([None, 0, 1, 2, "\t"])),
                            sort_keys=draw(st.booleans()))


def table_outcome(data, keys):
    """What ``cli._load_table`` makes of the JSON ``data``: the array's shape,
    bytes and key, or the error's type and message."""
    try:
        arr, key = cli._load_table(Path("input.json"), data, *keys)
    except (cli.InputError, json.JSONDecodeError) as exc:
        return type(exc), str(exc)
    return arr.shape, arr.tobytes(), key


class TestJsonRows:
    """``cli._json_rows``, the row reader of JSON tables, against the standard
    library's decoding of the whole document."""

    @given(doc=json_documents() | dumped_documents())
    @example(doc=(("distances", "points"), '{"a\\"distances": [[1]], "distances": []}'))
    @example(doc=(("distances", "points"), '{"x": {"distances": [[1]]}, "distances": [[2]]}'))
    @example(doc=(("distances", "points"), '{"distances": [[0]], "distances": []}'))
    @example(doc=(("distances", "points"), '{"points": [[1, 2]], "meta": {"distances": 1}}'))
    @example(doc=(("distances", "points"), '{"points": [[1]], "distances": [[NaN]]}'))
    @example(doc=(("representatives",), '{"representatives": [[5e-324, -0.0, 18446744073709551617]]}'))
    @settings(max_examples=500, deadline=None)
    def test_reader_matches_standard_library(self, doc):
        keys, text = doc
        data = text.encode()
        with mock.patch.object(cli, "_json_rows", return_value=None):
            expected = table_outcome(data, keys)
        assert table_outcome(data, keys) == expected
        for key in keys:
            found = cli._json_rows(data, key)
            event(f"row reader {'accepts' if found else 'declines'}")
            if found is not None:
                obj = json.loads(text)
                table = np.asarray(obj[key], dtype=float)
                assert (found[1].shape, found[1].tobytes()) == (table.shape, table.tobytes())
                assert json.dumps(found[0]) == json.dumps({**obj, key: []})

    def test_peak_memory_is_the_file_and_two_matrices(self, tmp_path):
        # the file's bytes, the float64 array and its finiteness mask; decoding
        # the whole document holds about 6.5 n^2 doubles of text and Python objects
        n = 450
        d = pairwise_distances(np.random.default_rng(450).standard_normal((n, 3)))
        path = tmp_path / "euclid450.json"
        path.write_text(json.dumps({"n": n, "distances": d.tolist()}))
        tracemalloc.start()
        try:
            matrix, key = cli._load_table(path, path.read_bytes(), "distances", "points")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key == "distances" and matrix.tobytes() == d.tobytes()
        allowed_doubles = 2 * n * n
        assert peak < path.stat().st_size + 8 * allowed_doubles
