import json
from fractions import Fraction

import pytest

from thicket import __version__, load_class
from thicket.cli import main

from helpers import c3, powerset3, write_class_file


@pytest.fixture()
def c3_file(tmp_path):
    return write_class_file(tmp_path / "c3.json", c3())


@pytest.fixture()
def powerset_file(tmp_path):
    return write_class_file(tmp_path / "p3.json", powerset3())


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_ldim_report(capsys, c3_file):
    code, out, err = run(capsys, ["ldim", "--class", c3_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["ldim"] == 1
    assert doc["command"] == "ldim"
    assert doc["version"] == __version__
    assert doc["seed"] is None
    assert doc["concepts"] == 3
    assert doc["config"]["class"] == c3_file
    assert "elapsed" in err


def test_ldim_powerset(capsys, powerset_file):
    code, out, _ = run(capsys, ["ldim", "--class", powerset_file])
    assert code == 0
    assert json.loads(out)["ldim"] == 3


def test_missing_file_is_io_error(capsys, tmp_path):
    code, out, err = run(capsys, ["ldim", "--class", str(tmp_path / "nope.json")])
    assert code == 3
    assert not out
    assert "nope.json" in err


def test_malformed_file_diagnostic(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"domain\": [\"x\"], \"mu\": [\"1/2\"], \"concepts\": {\"A\": \"0\"}}")
    code, out, err = run(capsys, ["ldim", "--class", str(p)])
    assert code == 3
    assert not out
    assert err.strip()


def test_exponent_weight_is_malformed(capsys, tmp_path):
    # Fraction would expand the exponent into a 10**99999999 denominator
    p = tmp_path / "exp.json"
    p.write_text('{"domain":["a","b"],"mu":["1e-99999999","1"],"concepts":{"A":"01"}}')
    code, out, err = run(capsys, ["ldim", "--class", str(p)])
    assert code == 3
    assert not out
    assert "malformed weight" in err


def test_exponent_prior_ratio_is_usage_error(capsys):
    code, out, err = run(capsys, ["staged", "--prior-geometric", "1e-99999999"])
    assert code == 2
    assert not out
    assert "malformed prior ratio" in err


def test_unknown_target_is_usage_error(capsys, c3_file):
    code, _, err = run(capsys, ["learn-exact", "--class", c3_file, "--target", "Z"])
    assert code == 2
    assert "Z" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_learn_json_report(capsys, c3_file):
    code, out, _ = run(
        capsys,
        ["learn", "--class", c3_file, "--target", "A", "--trials", "50", "--seed", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "learn"
    assert doc["seed"] == 1
    assert doc["summary"]["mean"] == "2"
    assert doc["summary"]["trials"] == 50
    assert doc["summary"]["class"] == c3_file
    assert doc["summary"]["target"] == "A"


def test_learn_csv_report(capsys, c3_file):
    code, out, _ = run(
        capsys,
        [
            "learn", "--class", c3_file, "--target", "B",
            "--trials", "10", "--seed", "4", "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "class,target,trials,seed,mean,variance,max"
    assert lines[1].startswith(f"{c3_file},B,10,4,")


def test_learn_exact_report(capsys, c3_file):
    code, out, _ = run(capsys, ["learn-exact", "--class", c3_file, "--target", "A"])
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_queries"] == "2"
    assert doc["ldim"] == 1
    assert doc["seed"] is None


def test_learn_exact_rational_output(capsys, tmp_path):
    from helpers import mk_class

    skew = mk_class(
        ["101", "000", "011"],
        mu=(Fraction(11, 23), Fraction(1, 23), Fraction(11, 23)),
    )
    path = write_class_file(tmp_path / "skew.json", skew)
    code, out, _ = run(capsys, ["learn-exact", "--class", path, "--target", "c1"])
    assert code == 0
    assert json.loads(out)["expected_queries"] == "25/12"


def test_staged_intervals_report(capsys):
    code, out, _ = run(
        capsys,
        ["staged", "--family", "intervals", "--trials", "20", "--seed", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "staged"
    assert doc["summary"]["identified"] == 20
    assert doc["summary"]["class"] == "intervals(ratio=1/2)"


def test_staged_file_family(capsys, tmp_path):
    tau = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    path = write_class_file(tmp_path / "fam.json", c3(), tau)
    code, out, _ = run(
        capsys,
        ["staged", "--family", f"file:{path}", "--trials", "25", "--seed", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["identified"] == 25


def test_staged_file_family_requires_prior(capsys, c3_file):
    code, _, err = run(
        capsys, ["staged", "--family", f"file:{c3_file}", "--trials", "5"]
    )
    assert code == 2
    assert "tau" in err


def test_staged_unknown_family(capsys):
    code, _, err = run(capsys, ["staged", "--family", "mystery"])
    assert code == 2
    assert "mystery" in err


def test_compress_report(capsys, c3_file):
    code, out, _ = run(capsys, ["compress", "--class", c3_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == {"d": 1, "rho_count": 2}


def test_compress_verify_report(capsys, c3_file):
    code, out, _ = run(capsys, ["compress", "--class", c3_file, "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["samples_tested"] == 7
    assert doc["report"]["failures"] == []


def test_verify_single_class(capsys, powerset_file):
    code, out, _ = run(capsys, ["verify", "--class", powerset_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["classes_checked"] == 1
    assert doc["violations"] == []
    assert "expected_query_bound" in doc["checks"]


def test_verify_random_classes(capsys):
    code, out, _ = run(capsys, ["verify", "--random-classes", "12", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["classes_checked"] == 12
    assert doc["seed"] == 7


def test_verify_needs_exactly_one_source(capsys, c3_file):
    code, _, _ = run(capsys, ["verify"])
    assert code == 2
    code, _, _ = run(
        capsys, ["verify", "--class", c3_file, "--random-classes", "3"]
    )
    assert code == 2


def test_gen_round_trips_through_loader(capsys, tmp_path):
    out_path = tmp_path / "gen.json"
    code, out, _ = run(
        capsys,
        [
            "gen", "--seed", "5", "--points", "3", "--concepts", "4",
            "--output", str(out_path),
        ],
    )
    assert code == 0
    cc = load_class(out_path.read_bytes())
    assert len(cc.domain) == 3
    assert len(cc) == 4


def test_gen_is_deterministic(capsys):
    _, first, _ = run(capsys, ["gen", "--seed", "9", "--points", "2", "--concepts", "3"])
    _, second, _ = run(capsys, ["gen", "--seed", "9", "--points", "2", "--concepts", "3"])
    assert first == second
    _, third, _ = run(capsys, ["gen", "--seed", "10", "--points", "2", "--concepts", "3"])
    assert third != first


def test_reports_are_byte_identical_across_runs(capsys, c3_file):
    argv = ["learn", "--class", c3_file, "--target", "C", "--trials", "30", "--seed", "6"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_timing_never_pollutes_stdout(capsys, c3_file):
    code, out, err = run(capsys, ["learn-exact", "--class", c3_file, "--target", "B"])
    assert code == 0
    json.loads(out)
    assert "elapsed" in err


def test_output_file_matches_stdout_bytes(capsys, c3_file, tmp_path):
    dest = tmp_path / "report.json"
    argv = ["ldim", "--class", c3_file]
    _, stdout_text, _ = run(capsys, argv)
    code, out, _ = run(capsys, argv + ["--output", str(dest)])
    assert code == 0
    assert not out
    assert dest.read_text() == stdout_text
