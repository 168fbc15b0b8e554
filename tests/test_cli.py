import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from thicket import ClassValidationError, Concept, ConceptClass, Domain, LdimCache
from thicket import __version__, load_class
from thicket import QueryGraph, cli, compression, exact_expected_queries, ldim
from thicket.cli import main
from thicket.generate import random_class, random_classes
from thicket.learner import derive_seed

from helpers import (
    all_three_point_classes,
    c3,
    mk_class,
    powerset3,
    ref_ldim,
    ref_sample_count,
    write_class_file,
)


@pytest.fixture()
def c3_file(tmp_path):
    return write_class_file(tmp_path / "c3.json", c3())


@pytest.fixture()
def powerset_file(tmp_path):
    return write_class_file(tmp_path / "p3.json", powerset3())


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
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


# sha256 of `learn --trials 200` reports on four seeded 9-point,
# 48-concept classes, taken from a learner that replayed every trial as a
# full transcript; keyed by (class k, target index, seed)
LEARN_PINS = {
    (0, 30, 0): "a1dca1b60c3bc7806091fdb560fe19a2a20b2f24d54805b6e90061b8f98c1839",
    (0, 30, 5): "c4e2d594272384d626e2663cec4a7dfeb81fd3ccffd35f8dd9bbd68d70ee6c0b",
    (1, 27, 0): "8164f08234b8fec9e56cd2fa5f188d4eb472c63b34950aee69ddf8f4aeb4a0fc",
    (1, 27, 5): "7fdf115907be9329fc820d319d216cb3fdce6467185cd6bb7e631624ec47aa1d",
    (2, 13, 0): "85e17455025542eb5a02a642598ed95a7d1a0d5a62e1b08c945caa2222a51843",
    (2, 13, 5): "ad6f51e274136d8f25094e4707a036c658edb00d866308453202f37f19e4b8e9",
    (3, 18, 0): "5829d525f2bc31e65f92a24cd414570b5b465e2092706f176b534515af7bee6e",
    (3, 18, 5): "2316c92451ec2da30df866d1cd0f9c7a6e6fb4abc25192a086e93230b3ee3784",
}


def test_learn_trials_reports_match_pinned_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for k in range(4):
        name = write_class_file(
            Path(f"k{k}.json"), random_class(random.Random(derive_seed(9, k)), 9, 48, 9, 48)
        )
        target = random.Random(f"target {k}").randrange(48)
        for seed in (0, 5):
            code, out, _ = run(
                capsys,
                ["learn", "--class", name, "--target", f"c{target}",
                 "--trials", "200", "--seed", str(seed)],
            )
            assert code == 0
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == LEARN_PINS[k, target, seed], out


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


def test_staged_prefix_past_the_point_cap_exits_3():
    # stage 1 at ratio 1/500 needs 693 intervals, whose atomization
    # would have 694 points; the run stops before it atomizes any
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "thicket.cli", "staged", "--prior-geometric", "1/500",
         "--trials", "5"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert not proc.stdout
    assert "stage 1 needs more than 255 intervals" in proc.stderr
    assert "at most 256 are supported" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_staged_tiny_prior_ratio_exits_3_before_drawing():
    # stage 1 at ratio 1/1000000 needs about 1.4 million intervals; a
    # target draw alone would sum hundreds of thousands of priors
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "thicket.cli", "staged", "--prior-geometric", "1/1000000",
         "--trials", "5"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert not proc.stdout
    assert "stage 1 needs more than 255 intervals" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "options, digest",
    [
        (
            "--prior-geometric 1/2 --trials 200 --seed 3",
            "b75789142b0709f646bcbc6c5e72486804ab9bd3a54d57f746294b8dfe77d52d",
        ),
        (
            "--prior-geometric 1/20 --trials 200 --seed 3",
            "4412f2763f20425c4a930ceed4a07e1a6a148565028877c578dcd36e9cf67b8c",
        ),
        # the staged command of the trials-replay benchmark workload
        (
            "--family intervals --trials 2500 --seed 0",
            "4849b76d418164f9b129f9f04bdbd3552c8009f3ec06bd7e984cd98ab6e760f7",
        ),
    ],
)
def test_staged_reports_within_the_point_cap_are_unchanged(capsys, options, digest):
    code, out, _ = run(capsys, ["staged", *options.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


WIDE = ["0" * 17, "1" * 17, "01" * 8 + "0", "0" * 8 + "1" * 9]


@pytest.fixture()
def wide_file(tmp_path):
    # 17 points: 2**17 point subsets, more than a full 16-point domain has
    return write_class_file(tmp_path / "wide.json", mk_class(WIDE))


@pytest.fixture(scope="module")
def cube14_file(tmp_path_factory):
    # every concept on 14 points: 16384**2 lanes of 13 bits, about 3.5e9
    # bits of query-graph rows, over MAX_ROW_BITS
    cube = mk_class([format(v, "014b") for v in range(2**14)])
    return write_class_file(tmp_path_factory.mktemp("cube") / "cube14.json", cube)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["compress", "--class", "{c3}", "--verify", "--max-sample-size", "0"], 2),
        (["verify", "--class", "{c3}", "--max-cycle-len", "1"], 2),
        (["verify", "--random-classes", "2", "--max-domain", "0"], 2),
        (["verify", "--random-classes", "2", "--max-concepts", "0"], 2),
        (["verify", "--random-classes", "-1"], 2),
        (["gen", "--seed", "1", "--points", "3", "--concepts", "0"], 2),
        (["gen", "--seed", "1", "--points", "0", "--concepts", "1"], 2),
        (["learn", "--class", "{c3}", "--target", "A", "--trials", "0"], 2),
        (["learn", "--class", "{c3}", "--target", "A", "--trials", "-1"], 2),
        (["learn", "--class", "{c3}", "--target", "A", "--trials", "many"], 2),
        (["staged", "--trials", "-5"], 2),
        (["staged", "--trials", "3", "--stage-cap", "0"], 2),
        (["verify", "--class", "{empty}"], 3),
        (["compress", "--class", "{empty}", "--verify"], 3),
        (["verify", "--random-classes", "2", "--max-domain", "17"], 2),
        (["verify", "--class", "{wide}"], 3),
        # random.sample cannot draw from range(2**63): the parser refuses first
        (["gen", "--seed", "1", "--points", "63", "--concepts", "2"], 2),
        (["gen", "--seed", "1", "--points", "300", "--concepts", "2"], 2),
        # query-graph rows over MAX_ROW_BITS
        (["learn-exact", "--class", "{cube14}", "--target", "c0"], 3),
        (["verify", "--class", "{cube14}"], 3),
        # more concepts than MAX_GEN_CONCEPTS
        (["gen", "--seed", "1", "--points", "30", "--concepts", "65537"], 2),
        (["gen", "--seed", "1", "--points", "40", "--concepts", "100000000"], 2),
    ],
)
def test_out_of_range_values_exit_with_a_message(
    capsys, tmp_path, c3_file, wide_file, cube14_file, argv, expected
):
    empty = write_class_file(tmp_path / "empty.json", ConceptClass(Domain.uniform(["x1"]), ()))
    argv = [a.format(c3=c3_file, empty=empty, wide=wide_file, cube14=cube14_file) for a in argv]
    code, _, err = run(capsys, argv)
    assert code == expected
    assert "Traceback" not in err
    assert err.strip()


def test_verify_refuses_oversized_class(capsys, wide_file):
    # verify replays every point subset, with no flag to bound the replay
    code, out, err = run(capsys, ["verify", "--class", wide_file])
    assert code == 3
    assert not out
    assert "at most 16 points" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["learn-exact", "--class", "{cube14}", "--target", "c0"], ["verify", "--class", "{cube14}"]],
)
def test_query_graph_rows_over_the_budget_exit_3_before_any_row(
    capsys, monkeypatch, cube14_file, argv
):
    def forbidden(*args):
        raise AssertionError("the budget is checked before any lane spread")

    monkeypatch.setattr(QueryGraph, "_spread", forbidden)
    code, out, err = run(capsys, [a.format(cube14=cube14_file) for a in argv])
    assert code == 3
    assert not out
    assert "3489660928 bits of query-graph rows" in err
    assert f"exceed {2**30}" in err
    assert "Traceback" not in err


def test_compress_verify_refuses_infeasible_sample_universe(capsys, wide_file):
    code, _, err = run(capsys, ["compress", "--class", wide_file, "--verify"])
    assert code == 2
    assert "--max-sample-size" in err


def test_compress_verify_bounded_sample_size_runs(capsys, wide_file):
    code, out, _ = run(
        capsys, ["compress", "--class", wide_file, "--verify", "--max-sample-size", "2"]
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["failures"] == []
    patterns = [tuple(int(b) for b in bits) for bits in WIDE]
    assert report["samples_tested"] == ref_sample_count(patterns, 2)


def test_compress_verify_exits_one_on_failures(capsys, c3_file, monkeypatch):
    def zero_decoders(cache, mask):
        return (lambda points: 0,) * (cache.ldim_mask(mask) + 1)

    monkeypatch.setattr(compression, "_index_decoders", zero_decoders)
    code, out, _ = run(capsys, ["compress", "--class", c3_file, "--verify"])
    assert code == 1
    assert json.loads(out)["report"]["failures"]


# sha256 of `compress --verify` reports on `gen --points 8 --concepts 64`
# classes and of `verify --class` reports on `gen --points 6 --concepts 12`
# classes, keyed by (command, gen seed); "zero" is `compress --verify` on
# the seed-0 wide class with every decoder answering all zeros, whose
# failure list is long. Taken before the replay carried verdicts down the
# subset tree.
REPLAY_PINS = {
    ("compress", 0): "18eef2a852413ba2a50e71fb725bfa570ae7a5d877d929511af9b636fcc9a457",
    ("compress", 1): "21822e639e2f4fa2c76971fef62721c3b3c0bbf5b20057a2580bb25490dc1e4a",
    ("compress", 2): "dac014292bc365631db056218b88cc46b369a4c692191a976f7a9adcb7d9c1c2",
    ("verify", 0): "1b01127a590bb83ce5db9b8addf895ac10ef917136d1e9aaf09a8b7799cdd459",
    ("verify", 1): "d91c5205580819348cde2c72c455f2e0fcc4c50a42a7723d51b67547b4382bc2",
    ("verify", 2): "b7ff98c39088e378d098c6f9085b3fe5bc31dce5e18a1489dbf6d5469e7bec58",
    ("zero", 0): "f53bb84e6bd51990fae4e1c1b4d1ed85ffab6667b886c225e59487e976e578b5",
}


def test_replay_reports_match_pinned_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def digest(argv, expected_code):
        code, out, _ = run(capsys, argv)
        assert code == expected_code
        return hashlib.sha256(out.encode()).hexdigest()

    for seed in range(3):
        for name, points, concepts in ((f"w{seed}.json", 8, 64), (f"v{seed}.json", 6, 12)):
            argv = ["gen", "--seed", str(seed), "--points", str(points),
                    "--concepts", str(concepts), "--output", name]
            assert run(capsys, argv)[0] == 0
        compress = digest(["compress", "--class", f"w{seed}.json", "--verify"], 0)
        assert compress == REPLAY_PINS["compress", seed]
        assert digest(["verify", "--class", f"v{seed}.json"], 0) == REPLAY_PINS["verify", seed]
    monkeypatch.setattr(
        compression,
        "_index_decoders",
        lambda cache, mask: (lambda points: 0,) * (cache.ldim_mask(mask) + 1),
    )
    zero = digest(["compress", "--class", "w0.json", "--verify"], 1)
    assert zero == REPLAY_PINS["zero", 0]


@pytest.mark.parametrize(
    "tau, seed, message",
    [
        # the first target's variate lies above the prior's total mass 3/80
        (["1/80"] * 3, 0, "exhausted below variate"),
        # the target is drawn, then stage 1 needs mass 3/4 of a prior of 5/8
        (["1/2", "1/8", "0"], 1, "enumeration ended at mass 5/8, needed 3/4"),
    ],
)
def test_staged_truncated_prior_exits_3(tmp_path, tau, seed, message):
    path = write_class_file(tmp_path / "c3.json", c3(), tuple(map(Fraction, tau)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "thicket.cli", "staged", "--family", f"file:{path}",
         "--trials", "5", "--seed", str(seed)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert not proc.stdout
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["ldim", "--class", "{path}"], "["),
        (["staged", "--family", "file:{path}", "--trials", "5"], '{"domain": ['),
    ],
)
def test_deeply_nested_class_file_exits_3(tmp_path, depth, argv, prefix):
    # json.loads recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text(prefix + "[" * depth)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "thicket.cli", *(a.format(path=path) for a in argv)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert not proc.stdout
    assert "invalid JSON: nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


LONG = "x" * 1_000_000


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({"domain": ["a"], "mu": [LONG], "concepts": {}}), "malformed weight 'xxx"),
        (json.dumps({"domain": ["a"], "mu": ["1"], "concepts": {LONG: 1}}), "concept 'xxx"),
        (json.dumps({"domain": ["a"], "mu": ["1"], "concepts": {LONG: "01"}}), "concept 'xxx"),
        ('{"domain": ["a"], "mu": [' + "[" * 900 + "]" * 900 + '], "concepts": {}}',
         "weight must be a rational string, got [[[[[[[...]]]]]]]"),
        (f'{{"domain": [], "mu": [], "concepts": {{"{LONG}": "", "{LONG}": ""}}}}',
         "duplicate key 'xxx"),
        (json.dumps({"domain": [], "mu": [], "concepts": {}, **{f"{k}{LONG}": 0 for k in range(9)}}),
         "unknown class file keys: ['0xx"),
    ],
    ids=["mu", "label", "label-length", "nested-mu", "duplicate-key", "unknown-keys"],
)
def test_loader_messages_quote_a_bounded_form_of_long_values(tmp_path, text, message):
    path = tmp_path / "long.json"
    path.write_text(text)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "thicket.cli", "ldim", "--class", str(path)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert not proc.stdout
    assert len(proc.stderr) < 1024
    assert proc.stderr.decode().startswith(f"thicket ldim: {message}")


# the loader checks the domain before any concept, so this bitstring is as
# long as a domain of 5,000 distinct points; the CLI refuses such a domain
# at the point cap, before the concepts, so the library loader reads it
LONG_BITSTRING = json.dumps({"domain": [f"p{k}" for k in range(5000)],
                             "mu": ["1/5000"] * 5000, "concepts": {"A": "x" * 5000}})


def test_loader_message_quotes_a_bounded_form_of_a_long_bitstring():
    with pytest.raises(ClassValidationError) as caught:
        load_class(LONG_BITSTRING)
    assert len(str(caught.value)) < 1024
    assert str(caught.value).startswith("invalid bitstring 'xxx")


def test_oversized_class_file_exits_3_before_its_weights_are_parsed(capsys, tmp_path):
    # 200,000 points, about 4.7 MB: parsing every weight and building the
    # class took seconds; json.loads alone takes a few hundredths
    n = 200_000
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"domain": [f"x{k}" for k in range(n)], "mu": [f"1/{n}"] * n,
                                "concepts": {"A": "0" * n, "B": "1" * n}}))
    wide = tmp_path / "wide.json"
    wide.write_text(LONG_BITSTRING)
    for path, points in ((huge, n), (wide, 5000)):
        started = time.perf_counter()
        code, out, err = run(capsys, ["ldim", "--class", str(path)])
        elapsed = time.perf_counter() - started
        assert code == 3
        assert not out
        assert err.startswith(
            f"thicket ldim: class file {str(path)!r} has {points} points;"
            " at most 256 are supported\n"
        )
        assert elapsed < 0.5


def test_json_integer_past_the_digit_limit_exits_3(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"domain": ["a"], "mu": [' + "1" * 5000 + '], "concepts": {}}')
    code, out, err = run(capsys, ["ldim", "--class", str(path)])
    assert code == 3
    assert not out
    assert "invalid JSON: a number has too many digits" in err


def test_gen_takes_points_up_to_the_cap(capsys):
    argv = ["gen", "--seed", "0", "--points", str(cli.MAX_GEN_POINTS), "--concepts", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert len(load_class(out.encode("utf-8"))) == 3


def one_hot_file(path, n, tau=False):
    cc = mk_class(["".join("1" if p == i else "0" for p in range(n)) for i in range(n)])
    return write_class_file(path, cc, (Fraction(1, n),) * n if tau else None)


@pytest.mark.parametrize(
    "argv",
    [
        ["ldim", "--class", "{path}"],
        ["learn", "--class", "{path}", "--target", "c0", "--trials", "1"],
        ["learn-exact", "--class", "{path}", "--target", "c0"],
        ["compress", "--class", "{path}"],
        ["staged", "--family", "file:{path}", "--trials", "1"],
    ],
)
def test_oversized_class_file_exits_3(capsys, tmp_path, argv):
    # the dimension recursion can recurse once per point
    path = one_hot_file(tmp_path / "wide.json", 257, tau=True)
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert code == 3
    assert not out
    assert "257 points" in err and "at most 256" in err
    assert "Traceback" not in err


def test_class_file_at_the_point_limit_is_read(capsys, tmp_path):
    path = one_hot_file(tmp_path / "edge.json", 256)
    code, out, _ = run(capsys, ["ldim", "--class", path])
    assert code == 0
    assert json.loads(out)["ldim"] == 1


def test_verify_reports_failed_query_graph_checks(capsys, c3_file, monkeypatch):
    # every edge weighs 1/3: opposite sums, the best rank and every
    # two-cycle fall short
    def thin_edges(self, mask):
        members = [i for i in range(3) if mask >> i & 1]
        return {(i, j): (1, 3) for i in members for j in members if i != j}

    monkeypatch.setattr(QueryGraph, "edges", thin_edges)
    code, out, _ = run(capsys, ["verify", "--class", c3_file])
    assert code == 1
    doc = json.loads(out)
    assert not doc["ok"]
    assert [(v["check"], v["detail"]) for v in doc["violations"]] == [
        ("edge_weight_sums", "d(A,B) + d(B,A) = 2/3 < 1"),
        ("edge_weight_sums", "d(A,C) + d(C,A) = 2/3 < 1"),
        ("edge_weight_sums", "d(B,C) + d(C,B) = 2/3 < 1"),
        ("max_query_rank", "maximal query rank 1/3 below 1/2"),
        ("no_deficient_cycles", "deficient cycle through 01,10"),
    ]


def test_verify_reports_failed_drop_sums(capsys, c3_file, monkeypatch):
    # the drops at x2 sum to 0 for every pair split there: A,B and A,C
    monkeypatch.setattr(cli, "_drop_sums", lambda cache, mask: [1, 0])
    code, out, _ = run(capsys, ["verify", "--class", c3_file])
    assert code == 1
    doc = json.loads(out)
    assert [(v["check"], v["detail"]) for v in doc["violations"]] == [
        ("drop_sums", "drops at x2 for A,B sum below 1"),
        ("drop_sums", "drops at x2 for A,C sum below 1"),
    ]


def test_drop_sums_are_the_plain_per_point_sums():
    def plain_sums(patterns):
        d = ref_ldim(patterns)
        return [
            sum(d - ref_ldim([c for c in patterns if c[p] == v]) for v in (0, 1))
            for p in range(len(patterns[0]))
        ]

    drawn = [random_class(random.Random(f"drop sums {k}"), 7, 16, 6, 10) for k in range(4)]
    for cc in [*all_three_point_classes(), *drawn]:
        cache = LdimCache(cc)
        patterns = [c.bits for c in cc.concepts]
        assert cli._drop_sums(cache, cache.full_mask) == plain_sums(patterns)
    # a point no concept splits reads ldim + 1: one side keeps the class,
    # the other is empty
    cc = mk_class(["100", "010", "110"])
    assert cli._drop_sums(LdimCache(cc), 0b111) == [1, 1, 2]


def test_verify_builds_one_edge_table_per_class(monkeypatch):
    def forbidden(*args):
        raise AssertionError("verify reads weights and ranks off the edge table")

    real_edges, real_row = QueryGraph.edges, QueryGraph._row
    tables, rows, building = [], [0], [False]

    def edges(self, mask):
        building[0] = True
        try:
            table = real_edges(self, mask)
        finally:
            building[0] = False
        tables.append(table)
        return table

    def row(self, *args, **kwargs):
        rows[0] += building[0]
        return real_row(self, *args, **kwargs)

    monkeypatch.setattr(QueryGraph, "weight", forbidden)
    monkeypatch.setattr(QueryGraph, "rank", forbidden)
    monkeypatch.setattr(QueryGraph, "edges", edges)
    monkeypatch.setattr(QueryGraph, "_row", row)
    for cc in random_classes(606, 40, 4, 6):
        tables.clear()
        rows[0] = 0
        assert cli._verify_one(cc, 5) == []
        # verify and the cycle search share one table, built once from one
        # row per concept
        assert len(tables) == 2 and tables[0] is tables[1]
        assert rows[0] == len(cc)
        assert len(tables[0]) == len(cc) * (len(cc) - 1)


def test_verify_builds_one_ldim_cache_per_class(monkeypatch):
    from thicket.littlestone import LdimCache

    real_init, built = LdimCache.__init__, []

    def init(self, root):
        built.append(root)
        real_init(self, root)

    monkeypatch.setattr(LdimCache, "__init__", init)
    for cc in random_classes(607, 20, 4, 6):
        built.clear()
        assert cli._verify_one(cc, 5) == []
        assert built == [cc]


def parse_text(parser, argv):
    """The parsed options, or the exit code, with the stdout and stderr
    text of parsing `argv`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_subcommand_parser_prints_what_the_full_parser_prints(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    (commands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    cases = [[], ["-h"], ["--help"], ["--version"], ["bogus"], ["bogus", "--seed", "1"]]
    for name, sub in commands.choices.items():
        required = [arg for a in sub._actions if a.required for arg in (a.option_strings[0], "1")]
        cases += [[name, "-h"], [name], [name, *required, "--bogus"], [name, *required, "extra"]]
        for a in sub._actions:
            if a.type is not None or a.choices is not None:
                cases += [[name, *required, a.option_strings[0], v] for v in ("0", "x")]
    for argv in cases:
        # main builds the parser of the command its first token names
        only = cli.build_parser(argv[0] if argv else None)
        assert parse_text(only, argv) == parse_text(cli.build_parser(), argv), argv
    assert {a[0] for a in cases if a} >= set(commands.choices)
    assert parse_text(cli.build_parser(), ["learn", "--trials", "0"])[0] == 2


def test_learn_exact_builds_one_ldim_cache(monkeypatch, capsys, c3_file):
    from thicket.littlestone import LdimCache

    real_init, built = LdimCache.__init__, []

    def init(self, root):
        built.append(root)
        real_init(self, root)

    monkeypatch.setattr(LdimCache, "__init__", init)
    code, out, _ = run(capsys, ["learn-exact", "--class", c3_file, "--target", "A"])
    assert code == 0
    assert json.loads(out)["ldim"] == 1
    assert len(built) == 1


def test_main_without_arguments_reads_sys_argv(monkeypatch, capsys, c3_file):
    monkeypatch.setattr(sys, "argv", ["thicket", "ldim", "--class", c3_file])
    code, out, _ = run(capsys, None)
    assert code == 0
    assert json.loads(out)["config"]["class"] == c3_file
    monkeypatch.setattr(sys, "argv", ["thicket", "--version"])
    assert run(capsys, None)[:2] == (0, __version__ + "\n")


def test_duplicate_concept_label_exits_3(capsys, tmp_path):
    p = tmp_path / "dup.json"
    p.write_text('{"domain":["x1","x2"],"mu":["1/2","1/2"],"concepts":{"A":"01","A":"10","B":"11"}}')
    code, out, err = run(capsys, ["ldim", "--class", str(p)])
    assert code == 3
    assert not out
    assert "thicket ldim: duplicate key 'A' in class file" in err


def _class_text(concepts, mu=("1/3", "1/3", "1/3"), tau=None):
    doc = {"domain": [f"x{p}" for p in range(len(mu))], "mu": list(mu), "concepts": concepts}
    if tau is not None:
        doc["tau"] = tau
    return json.dumps(doc, ensure_ascii=False)


HALVES = ("1/2", "1/2")


@pytest.mark.parametrize(
    "text, message",
    [
        (_class_text({"A": "011", "B": "0_1"}), "invalid bitstring '0_1'"),
        (_class_text({"A": " 01"}), "invalid bitstring ' 01'"),
        (_class_text({"A": "+1"}, HALVES), "invalid bitstring '+1'"),
        (_class_text({"A": "\u0661\u0660"}, HALVES), "invalid bitstring '\u0661\u0660'"),
        (_class_text({"A": "011", "B": "01"}), "concept 'B' has bitstring length 2, expected 3"),
        (_class_text({"A": "011", "B": "011"}), "duplicate concepts in class"),
        ('{"domain": ["a", "b"], "mu": ["1/2", "1/2"], "concepts": {"A": "01", "A": "10"}}',
         "duplicate key 'A' in class file"),
        (_class_text({"A": "011"}, ("1/3", "1/3", "1/2")), "point weights must sum to exactly 1"),
        (_class_text({"A": "011"}, ("1/3", "1/3", "x")), "malformed weight 'x'"),
        # precedence: concepts in file order, each by length and then by
        # characters; duplicates after every bitstring; weights and JSON keys
        # before any concept, the prior after the class
        (_class_text({"A": "0x1", "B": "01"}), "invalid bitstring '0x1'"),
        (_class_text({"A": "01", "B": "0x1"}), "concept 'A' has bitstring length 2, expected 3"),
        (_class_text({"A": "011", "B": "011", "C": "+11"}), "invalid bitstring '+11'"),
        (_class_text({"A": "0_1"}, ("1/3", "1/3", "1/2")), "point weights must sum to exactly 1"),
        (_class_text({"A": "011", "B": "011"}, tau=["2"]), "duplicate concepts in class"),
        ('{"domain": ["a", "b"], "mu": ["1/2", "1/2"], "concepts": {"A": "0_", "A": "10"}}',
         "duplicate key 'A' in class file"),
    ],
)
def test_malformed_class_files_keep_their_messages_and_order(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["ldim", "--class", str(path)], ["learn-exact", "--class", str(path), "--target", "A"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == f"thicket {argv[0]}: {message}"


def test_learn_exact_builds_no_concept_but_the_target(monkeypatch, capsys, tmp_path):
    cc = random_class(random.Random(derive_seed(0, 0)), 10, 64, 10, 64)
    path = write_class_file(tmp_path / "wide.json", cc)
    real_init, built = Concept.__init__, []

    def init(self, domain, bits):
        built.append(bits)
        real_init(self, domain, bits)

    monkeypatch.setattr(Concept, "__init__", init)
    code, out, _ = run(capsys, ["learn-exact", "--class", path, "--target", "c5"])
    assert code == 0
    assert built == [cc.concepts[5].bits]
    monkeypatch.undo()
    assert json.loads(out)["expected_queries"] == str(exact_expected_queries(cc, cc.concepts[5]))


def test_kernel_runs_on_a_loaded_class_without_reading_its_concepts(monkeypatch, tmp_path):
    cc = random_class(random.Random(derive_seed(0, 1)), 10, 64, 10, 64)
    loaded = load_class(Path(write_class_file(tmp_path / "wide.json", cc)).read_bytes())
    target = loaded.by_label("c7")

    def unread(self):
        raise AssertionError("ConceptClass.concepts was read")

    monkeypatch.setattr(ConceptClass, "concepts", property(unread))
    cache, graph = LdimCache(loaded), QueryGraph(loaded)
    expected = exact_expected_queries(loaded, target, graph)
    dimension = ldim(loaded, graph.cache)
    monkeypatch.undo()
    assert cache.point_bits == LdimCache(cc).point_bits
    assert expected == exact_expected_queries(cc, cc.concepts[7])
    assert dimension == ldim(cc)
