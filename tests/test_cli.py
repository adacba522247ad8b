import json

import numpy as np
import pytest

from snowflake_embed import cli, embedding, euclidean_metric, snowflake_embed
from snowflake_embed.cli import main
from snowflake_embed.errors import QuadratureNonconvergence, VerificationFailure
from snowflake_embed.metric import pairwise_distances


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
        loads = []

        def counting_load(fh, **kwargs):
            loads.append(fh.name)
            return json_load(fh, **kwargs)

        json_load = json.load
        monkeypatch.setattr(json, "load", counting_load)
        assert main([argv[0], collinear_json, *argv[1:]]) == 0
        assert loads == [collinear_json]

    @pytest.mark.parametrize("text", ["", "# a comment and a blank line\n\n"])
    def test_csv_without_data_is_parse_error(self, text, tmp_path, capsys, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert main(["validate", str(path)]) == 3
        assert "input contained no data" in capsys.readouterr().err
        assert not recwarn.list

    def test_non_square_csv_reports(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0,1,2\n1,0,1\n")
        report_path = tmp_path / "report.json"
        assert main(["validate", str(path), "--json", str(report_path)]) == 2
        report = json.loads(report_path.read_text())
        assert report["payload"]["violation"]["error"] == "DimensionMismatch"


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
        eigh = np.linalg.eigh
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        # the hypothesis fails: X alone is decided
        assert main(["negtype", claw_json, "--alpha", "0.5", "--strict"]) == 2
        assert len(calls) == 1
        calls.clear()
        # the margin fails: X, then X**alpha
        assert main(["negtype", collinear_json, "--alpha", "1", "--strict"]) == 2
        assert len(calls) == 2


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
        assert np.array_equal(np.asarray(json.loads(text)["points"]), expected)

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
        assert (json.loads((tmp_path / "c.json").read_text())["payload"]
                == json.loads((tmp_path / "m.json").read_text())["payload"])

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
        from snowflake_embed.quotient import PairCheck

        def unverified(*args, **kwargs):
            raise VerificationFailure(0.5, 2e-9, report=[PairCheck(0, 1, 1.0, 1.5, 0.5)])

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
