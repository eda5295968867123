"""Command-line verbs driven in-process, plus one cross-process serve/drive."""

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from atlas import cli

from helpers import tiny_scenario


@pytest.fixture()
def tiny_path(tmp_path) -> str:
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_scenario().to_doc()))
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def test_run_verb_passes_all_checks(tiny_path, tmp_path, capsys):
    out = tmp_path / "run_out"
    code = run_cli([
        "run", "--scenario", tiny_path, "--seeds", "42",
        "--policies", "class_ratio@0.5,random@0.5", "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    for name in (
        "reference_ratio_is_one",
        "observation_ratio_bounded",
        "cap_respected",
        "uncapped_count_non_decreasing",
        "regression_rms_within_tolerance",
    ):
        assert f"check {name}: PASS" in captured
    for filename in ("metrics.csv", "composition.csv", "run_meta.json", "summary.json"):
        assert (out / filename).exists()


def test_run_verb_config_file_and_flag_precedence(tiny_path, tmp_path, capsys):
    out = tmp_path / "cfg_out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "scenario": tiny_path,
        "seeds": "7",
        "policies": "random@0.5",
        "out": str(out),
    }))
    code = run_cli(["run", "--config", str(config), "--seeds", "42"])
    assert code == 0
    capsys.readouterr()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seeds"] == [42]  # explicit flag beat the config file
    assert meta["policies"] == ["random@0.5"]  # config filled the gap


def test_unknown_config_key_refused(tiny_path, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"scenario": tiny_path, "landmark_budget": 3}))
    with pytest.raises(SystemExit):
        run_cli(["run", "--config", str(config)])


@pytest.mark.parametrize("key, value", [("seeds", [42]), ("regression", "false")])
def test_config_value_the_flag_cannot_take_refused(tiny_path, tmp_path, key, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"scenario": tiny_path, "out": str(tmp_path / "x"), key: value}))
    with pytest.raises(SystemExit, match=key):
        run_cli(["run", "--config", str(config)])
    assert not (tmp_path / "x").exists()


def test_config_switch_takes_a_bool_and_a_flag_a_number(tiny_path, tmp_path, capsys):
    out = tmp_path / "cfg_out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "scenario": tiny_path, "seeds": 7, "policies": "random@0.5", "regression": False,
        "out": str(out),
    }))
    assert run_cli(["run", "--config", str(config)]) == 0
    assert "check regression_rms_within_tolerance: PASS (regression disabled)" in (
        capsys.readouterr().out
    )
    assert json.loads((out / "run_meta.json").read_text())["seeds"] == [7]
    with (out / "metrics.csv").open(newline="") as fh:
        assert {row["mode"] for row in csv.DictReader(fh)} == {"chronological"}


def test_bad_cap_and_unknown_scenario_exit_2(tmp_path, capsys):
    assert run_cli(["run", "--scenario", "nowhere", "--out", str(tmp_path / "x")]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert run_cli(["run", "--caps", "0", "--out", str(tmp_path / "y")]) == 2
    assert "cap" in capsys.readouterr().err


def test_bad_verb_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        run_cli(["conjure"])
    assert info.value.code == 2


@pytest.mark.parametrize("scenario", [
    "parking_year",
    pytest.param("city_dusk", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="early_stage_gap_positive fails, ROADMAP item 7")),
])
def test_regress_verb(tmp_path, capsys, scenario):
    out = tmp_path / "regress_out"
    code = run_cli([
        "regress", "--scenario", scenario, "--seeds", "42", "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    for name in (
        "early_stage_gap_positive",
        "gap_shrinks_with_maturity",
        "converged_ranked_beats_random",
    ):
        assert f"check {name}: PASS" in captured
    summary = json.loads((out / "regress_summary.json").read_text())
    assert summary["scenario"] == scenario
    assert summary["gap_mean_by_stage"]
    assert (out / "gaps.csv").exists() and (out / "converged.csv").exists()


# sha256 of every file `atlas run` and `atlas regress` write for seed 42.  The
# metrics, composition, gap and converged tables and their JSON companions
# are the experiment's results; these bytes may not change.
OUTPUT_SHA256 = {
    ("run", "city_dusk"): {
        "metrics.csv": "44f8e54f8e73f09ae05edbf76ada9b59f77d1b2068ee018e933c34fc94296b16",
        "composition.csv": "7b3bac63c8df7307e650cce431d85fac960d22096c89f995ba87310057d52826",
        "run_meta.json": "b5abfbc10290fd7f65141eca9a21f84d08cf0d1932aa41e9250fce40394b712b",
        "summary.json": "2779a0d53f1b03088770a59361c53d5a7aca0acc3c68265955e47ba2def9ede4",
    },
    ("regress", "parking_year"): {
        "gaps.csv": "89af16492157e4f943dd9d555478d44a24ba39425c72b87a0e48377165f72fa2",
        "converged.csv": "198cb454b6523101e8c8b2152b434ec379ed330420d666c696734be7bd9f0e2a",
        "regress_summary.json": "3e78cc8957eed5a15554938ea39a5f967be39c3928dffac169b015c79d1b26b8",
    },
}


# The same files for seed 7, a second guard on every path a seed steers.
OUTPUT_SHA256_SEED_7 = {
    ("run", "city_dusk"): {
        "metrics.csv": "dd88a9024a187e8f3a6eb790590a0019fafd6504f3096b8d690f605cfd4a6f62",
        "composition.csv": "272d895f73a9f07e2b892df0296f94607383d5cd837c27aa2160b1370670c265",
        "run_meta.json": "f9f9ab42fb787ea7d26e42e34670b81338f816f172bde7296a0293c9b2224e9f",
        "summary.json": "2e368e4f37ed4cc3284f2565865a2348bf3a85e8bbeff60e4f55db6d7f75bab9",
    },
    ("regress", "parking_year"): {
        "gaps.csv": "d15504d844200f5fe8085f2b2ce4450bd9e61731d6c2f509db79d50ee75a5e05",
        "converged.csv": "61e515d5f7de51f466e86de066fa9fca4e0d6eac154e3f5032721fd7fe5fd875",
        "regress_summary.json": "86fc83472e58d5f6b2c64acbed0da35a72071256e6ef0c703020971e83c1d0ee",
    },
}


def output_digests(verb, scenario, seed, names, out) -> dict[str, str]:
    """sha256 of the named files one verb writes for one seed."""
    assert run_cli([verb, "--scenario", scenario, "--seeds", str(seed), "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("verb, scenario", sorted(OUTPUT_SHA256))
def test_output_files_are_pinned(verb, scenario, tmp_path):
    pins = OUTPUT_SHA256[verb, scenario]
    assert output_digests(verb, scenario, 42, pins, tmp_path / verb) == pins


@pytest.mark.parametrize("verb, scenario", sorted(OUTPUT_SHA256_SEED_7))
def test_output_files_are_pinned_on_seed_7(verb, scenario, tmp_path):
    pins = OUTPUT_SHA256_SEED_7[verb, scenario]
    assert output_digests(verb, scenario, 7, pins, tmp_path / verb) == pins


def test_compare_verb(tiny_path, tmp_path, capsys):
    run_dir = tmp_path / "run_out"
    assert run_cli([
        "run", "--scenario", tiny_path, "--seeds", "42",
        "--policies", "class_ratio@0.5,random@0.5", "--out", str(run_dir),
    ]) == 0
    capsys.readouterr()
    summary_path = tmp_path / "cmp.json"
    code = run_cli(["compare", "--runs", str(run_dir), "--out", str(summary_path)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "check observation_ratio_bounded: PASS" in captured
    assert "check reference_ratio_is_one: PASS" in captured
    doc = json.loads(summary_path.read_text())
    policies = {row["policy"] for row in doc["per_policy"]}
    assert policies == {"all@1", "class_ratio@0.5", "random@0.5"}
    assert "class_ratio" in doc["sr_sweep"] and "random" in doc["sr_sweep"]
    assert "class_ratio_minus_random" in doc["deltas"]


def test_compare_requires_reference_rows(tiny_path, tmp_path, capsys):
    run_dir = tmp_path / "run_out"
    assert run_cli([
        "run", "--scenario", tiny_path, "--seeds", "42",
        "--policies", "random@0.5", "--out", str(run_dir),
    ]) == 0
    capsys.readouterr()
    # strip the full-selection reference rows out of the metrics file
    metrics = run_dir / "metrics.csv"
    with metrics.open(newline="") as fh:
        reader = csv.DictReader(fh)
        columns = reader.fieldnames
        rows = list(reader)
    kept = [r for r in rows if r["ranking"] != "all"]
    assert len(kept) < len(rows)
    with metrics.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(kept)
    code = run_cli(["compare", "--runs", str(run_dir), "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert "missing full-selection reference" in capsys.readouterr().err


def test_compare_missing_inputs_exit_2(tmp_path, capsys):
    assert run_cli(["compare", "--runs", str(tmp_path / "void")]) == 2
    assert "not found" in capsys.readouterr().err
    assert run_cli(["compare"]) == 2
    assert "--runs" in capsys.readouterr().err


def test_drive_against_dead_server_exits_1(capsys):
    code = run_cli(["drive", "--connect", "127.0.0.1:9", "--scenario", "city_dusk"])
    assert code == 1
    assert "drive:" in capsys.readouterr().err


def test_bad_listen_spec_exits_2(capsys):
    assert run_cli(["drive", "--connect", "nocolon"]) == 2
    assert capsys.readouterr().err


def test_serve_and_drive_across_processes(tiny_path, tmp_path, capsys):
    proc = subprocess.Popen(
        [sys.executable, "-m", "atlas.cli", "serve", "--listen", "127.0.0.1:0",
         "--threshold-m", "0.10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        hello = json.loads(line)
        assert hello["event"] == "listening"
        port = hello["port"]
        code = run_cli([
            "drive", "--connect", f"127.0.0.1:{port}", "--scenario", tiny_path,
            "--seed", "42", "--indices", "0,1",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        lines = [json.loads(l) for l in captured.strip().splitlines()]
        assert len(lines) == 3  # two sorties plus the close ledger
        assert lines[0]["session_kind"] == "rich"
        assert lines[0]["sortie_index"] == 0
        assert lines[1]["session_kind"] == "observation"
        assert lines[1]["rms_m"] < 0.10
        assert lines[2]["event"] == "closed"
        assert lines[2]["ledger"]["queries"] == 2 * tiny_scenario().n_iterations
        closed = json.loads(proc.stdout.readline())
        assert closed["event"] == "session_closed"
    finally:
        proc.terminate()
        try:
            proc.communicate(timeout=10)  # reaps the server and closes its pipes
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def test_parse_helpers():
    assert cli._parse_cap("inf") == cli._parse_cap("none")
    assert cli._parse_cap("12") == 12
    with pytest.raises(ValueError):
        cli._parse_cap("-3")
    assert cli._parse_listen("0.0.0.0:88") == ("0.0.0.0", 88)
    with pytest.raises(ValueError):
        cli._parse_listen("88")
    assert cli._split_csv(" a, b ,,c ") == ["a", "b", "c"]
