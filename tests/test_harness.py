import contextlib
import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import microlie
from microlie import cli, harness, liealg, spaces
from microlie.cli import main
from microlie.harness import (
    MAX_TRIALS,
    SUITE_IDS,
    SUITES,
    ConfigError,
    LawEnv,
    SuiteConfig,
    parse_groupoid_spec,
    run_suite,
)
from microlie.groupoids import PairGroupoid, TrivialGaugeGroupoid
from microlie.liealg import bracket
from microlie.oracles import PolyVectorField, classical_vf_bracket
from microlie.vfexpr import format_vector_field, parse_vector_field


def config(spec="pair:dim=2:deg=2", suite="flows", trials=5, seed=0):
    groupoid, degree = parse_groupoid_spec(spec)
    return SuiteConfig(suite=suite, groupoid=groupoid, degree=degree, trials=trials, seed=seed)


class TestConfig:
    def test_parse_specs(self):
        g, deg = parse_groupoid_spec("pair:dim=3:deg=1")
        assert g == PairGroupoid(3) and deg == 1
        g, _ = parse_groupoid_spec("gauge:base=4:k=3")
        assert g == TrivialGaugeGroupoid(4, 3)

    def test_bad_specs(self):
        for text in (
            "ring:dim=2",
            "pair:dim=x",
            "pair:foo=2",
            "gauge:base=2:k=2:z=1",
            "pair:dim=2:deg=2:deg=3",
        ):
            with pytest.raises(ConfigError):
                parse_groupoid_spec(text)

    @pytest.mark.parametrize(
        "text",
        ["pair:dim=\u0663:deg=\u0662", "pair:dim=\uff12", "pair:deg= 2", "pair:deg=2 ", "pair:dim=0_2",
         "pair:dim=+2", "pair:dim=", "pair:dim=-", "pair:dim=--2", "gauge:base=\u0662:k=2"],
        ids=["arabic-indic", "fullwidth", "leading-space", "trailing-space", "underscore", "plus", "empty",
             "bare-minus", "double-minus", "gauge-arabic-indic"],
    )
    def test_option_values_are_ascii_integers(self, text, capsys):
        with pytest.raises(ConfigError, match="non-integer value in groupoid option"):
            parse_groupoid_spec(text)
        assert main(["verify", "--groupoid", text, "--trials", "0"]) == 2
        assert "non-integer value" in capsys.readouterr().err

    def test_negative_option_values_get_the_bounds_messages(self):
        assert parse_groupoid_spec("pair:dim=-1:deg=-2") == (PairGroupoid(-1), -2)
        with pytest.raises(ConfigError, match="dimension must be between 1 and 3"):
            config("pair:dim=-1:deg=2")
        with pytest.raises(ConfigError, match="field degree must be between"):
            config("pair:dim=2:deg=-2")
        assert parse_groupoid_spec("pair:dim=02:deg=0") == (PairGroupoid(2), 0)

    def test_bounds(self):
        with pytest.raises(ConfigError):
            config("pair:dim=5:deg=2")
        with pytest.raises(ConfigError):
            config("pair:dim=2:deg=9")
        with pytest.raises(ConfigError):
            config("gauge:base=9:k=2")
        with pytest.raises(ConfigError):
            SuiteConfig(suite="nope", groupoid=PairGroupoid(2))

    def test_trials_are_bounded(self, capsys):
        # configs are only built here: a run with this many trials would take half an hour
        assert config("pair:dim=3:deg=3", trials=MAX_TRIALS).trials == MAX_TRIALS
        for trials in (MAX_TRIALS + 1, 10**12, -1):
            with pytest.raises(ConfigError, match=f"trials must be between 0 and {MAX_TRIALS}, got {trials}"):
                config("pair:dim=3:deg=3", trials=trials)
        assert main(["verify", "--groupoid", "pair:dim=3:deg=3", "--trials", str(MAX_TRIALS + 1)]) == 2
        assert f"between 0 and {MAX_TRIALS}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        ("groupoid", "options", "message"),
        [
            (partial(PairGroupoid, 2.0), {}, "dim must be an integer, got 2.0"),
            (partial(PairGroupoid, True), {}, "dim must be an integer, got True"),
            (partial(PairGroupoid, 2), {"degree": 1.5}, "degree must be an integer, got 1.5"),
            (partial(PairGroupoid, 2), {"degree": True}, "degree must be an integer, got True"),
            (partial(TrivialGaugeGroupoid, 2.0, 2), {}, "base_size must be an integer, got 2.0"),
            (partial(TrivialGaugeGroupoid, 2, 2.0), {}, "matrix_size must be an integer, got 2.0"),
            (partial(TrivialGaugeGroupoid, 2, 2), {"degree": 0.0}, "degree must be an integer, got 0.0"),
            (partial(PairGroupoid, 2), {"trials": 2.5}, "trials must be an integer, got 2.5"),
            (partial(PairGroupoid, 2), {"trials": True}, "trials must be an integer, got True"),
            (partial(PairGroupoid, 2), {"trials": "3"}, "trials must be an integer, got '3'"),
            (partial(PairGroupoid, 2), {"seed": 1.0}, "seed must be an integer, got 1.0"),
            (partial(PairGroupoid, 2), {"seed": False}, "seed must be an integer, got False"),
        ],
    )
    def test_sizes_counts_and_seeds_are_integers(self, groupoid, options, message):
        # configs are only built: a bad count or seed is a ConfigError before any law runs, never a law
        # failure, and a bad size is the groupoid's TypeError, raised when it is built
        with pytest.raises(ConfigError if options else TypeError, match=f"^{message}$"):
            SuiteConfig(suite="all", groupoid=groupoid(), **options)


def triple(cfg, trial, law="generate"):
    return LawEnv(cfg, cfg.suite, bracket, law).triple(trial)


class TestGenerate:
    def test_deterministic(self):
        cfg = config(suite="bracket", trials=10)
        for trial in range(6):
            assert triple(cfg, trial) == triple(cfg, trial)

    def test_seed_changes_data(self):
        a = triple(config(seed=0, suite="bracket"), 4)
        b = triple(config(seed=1, suite="bracket"), 4)
        assert a != b

    def test_degenerate_strata(self):
        x, y, z = triple(config(suite="bracket"), 0)
        assert x == y == z  # all-zero stratum
        x1, y1, z1 = triple(config(suite="bracket"), 1)
        assert x1 == y1 == z1  # repeated-section stratum


class TestRunSuite:
    def test_flows_clean(self):
        report = run_suite(config(suite="flows"))
        assert report.ok
        assert {c.status for c in report.cases} == {"pass"}

    def test_zero_trials_vacuous(self):
        report = run_suite(config(trials=0))
        assert report.ok and report.cases == []

    def test_report_records_seed_and_spec(self):
        report = run_suite(config(spec="gauge:base=2:k=2", seed=7, trials=2))
        assert report.seed == 7
        assert report.groupoid == "gauge:base=2:k=2"

    def test_mutation_fails_bracket_suite(self):
        report = run_suite(config(suite="bracket", trials=5), mutation="flip-bracket-sign")
        assert not report.ok
        failing = [c for c in report.cases if c.status == "fail"]
        assert failing and all(c.counterexample for c in failing)

    def test_unknown_mutation(self):
        with pytest.raises(ConfigError):
            run_suite(config(), mutation="scramble")

    def test_report_schema(self):
        report = run_suite(config(suite="oracle", trials=3))
        data = report.to_dict()
        assert set(data) == {"suite", "groupoid", "seed", "trials", "cases", "ok"}
        for case in data["cases"]:
            assert {"law", "anchor", "status"} <= set(case)
            assert case["status"] in ("pass", "fail")
        json.dumps(data)  # serializable

    def test_registry_holds_every_law_once(self):
        # a law function written but never decorated would silently never run
        runs = [law.run for laws in SUITES.values() for law in laws]
        defined = {fn for name, fn in vars(harness).items() if name.startswith("_law_") and callable(fn)}
        assert set(runs) == defined
        names = [law.name for laws in SUITES.values() for law in laws]
        assert len(names) == 36 and len(set(names)) == 36
        assert list(SUITES) == list(SUITE_IDS)
        assert all(SUITES.values())

    def test_every_law_carries_an_anchor(self):
        report = run_suite(config(suite="all", trials=1))
        assert report.cases
        assert all(case.anchor for case in report.cases)


# SHA-256 of the indented JSON report of `verify --suite all --trials 3 --seed 0`.
# Refactors must keep reports byte-identical; a deliberate change of report
# content updates these digests in the same commit.
GOLDEN_REPORTS = {
    ("pair:dim=2:deg=2", "none"): "cf6e979ac804368f129540aa9cd67788f0adf4aef84eaee74ffa0b1efcb71d11",
    ("pair:dim=2:deg=2", "flip-bracket-sign"): "1a03e9d7c04ec5822bf6c6b33c6d62f1112ca432c6c0b161a259930f4a4d3ff2",
    ("gauge:base=2:k=2", "none"): "3899f83aaf17892f4f17f83f91fcec285f79d200c3e33361dfb0f5e23882be8e",
    ("gauge:base=2:k=2", "flip-bracket-sign"): "9015d1fb62ac8fb75bba21a16a7349c23bb93412d32fd2eec4a8c5e26ce9b208",
    ("gauge:base=4:k=3", "none"): "546a1428f743d8337f610aac93542fec85cbce05f6efd6f2b6675754994a128a",
    ("pair:dim=3:deg=1", "none"): "d820ea796653b9155e066cb61689b410db0f50ffa5bf6d91ed1e296517794f58",
    ("pair:dim=1:deg=3", "none"): "7977a9f29ba1d7b8d1c40c697294b37774c21060e612d761e7627997113bd1a5",
    ("pair:dim=3:deg=2", "none"): "12c125af45f386996c570f78ff51e784ee08087dc66c315191fd7e6a7d70d673",
    ("pair:dim=2:deg=3", "flip-bracket-sign"): "300de67171ff14eef74d6a76fbb0751e7c8ac86a579ae7cb3b16aa94db8207e1",
    ("gauge:base=4:k=3", "flip-bracket-sign"): "490df9345625aa32b8e51f622e40a067e515c9a63d3123bb44578da0d4f5a545",
    ("gauge:base=1:k=1", "none"): "6e30fb3b94a7c5921660dfcb751d8a6c056964dab2029b9a9576d2e5c0f46756",
    ("gauge:base=1:k=2", "none"): "a1b6665d720a5adb153fed3bd6d676153cdae997f481078d18ac399bf44a6ef2",
    ("gauge:base=1:k=3", "none"): "d9a3cce6cfc71d79be08c5198e971a4894724642ee509a4841f540731cf7384a",
    ("gauge:base=2:k=1", "none"): "903398ac73dfd55d3371e9d314ef4bb136283cbd5f3a4497a93e7dbf4810e7e1",
    ("gauge:base=2:k=3", "none"): "5226595c9101f2ee8605952d5fbaf1aa768e3005c987836beddb355feec5cb98",
    ("gauge:base=3:k=1", "none"): "46fe7edb8df1b859e77bc6c29b7d25061ed3b2bbad95eba120868c9b5353d24b",
    ("gauge:base=3:k=2", "none"): "e58ddd33aa69bce880bccbca5e702497fa4c5e3d63ddf2c3944ad5b4ae5b4911",
    ("gauge:base=3:k=3", "none"): "068ce1b9f8afdd43b26ed0d660848bed517d5b29fa36483caa6081d2db117c86",
    ("gauge:base=4:k=1", "none"): "d96e713af5320f1801c62ca80c79143542633a13f79c78ee6061c36a6beb8985",
    ("gauge:base=4:k=2", "none"): "cca2f0d275e666e48745015a91112009f44be03f0a0d69bdb0b7ba453777b76f",
    # the one accepted config whose polynomials reach degree 27
    ("pair:dim=3:deg=3", "none"): "b14e7ce69ac0f0e598acb5db061108eb2fa6b1e9d1aa24199709c74e55ee7090",
}


@pytest.mark.parametrize(("spec", "mutation"), sorted(GOLDEN_REPORTS))
def test_golden_report(spec, mutation):
    report = run_suite(config(spec=spec, suite="all", trials=3, seed=0), mutation=mutation)
    text = json.dumps(report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[spec, mutation]


@pytest.mark.parametrize("mutation", ["none", "flip-bracket-sign"])
@pytest.mark.parametrize("spec", ["pair:dim=2:deg=2", "gauge:base=2:k=2"])
def test_each_suite_reports_its_slice_of_all(spec, mutation):
    # a case depends on (seed, suite, law, trial) alone, so nothing a trial leaves behind reaches another
    def cases(suite):
        return [c.to_dict() for c in run_suite(config(spec=spec, suite=suite, trials=3), mutation).cases]

    everything = iter(cases("all"))
    for suite in SUITE_IDS:
        alone = cases(suite)
        assert alone == [next(everything) for _ in alone] and len(alone) == len(SUITES[suite]), suite
    assert next(everything, None) is None


@pytest.mark.parametrize("spec", ["pair:dim=2:deg=2", "gauge:base=2:k=2"])
def test_a_swapped_strong_difference_fails_exactly_its_laws(spec, monkeypatch):
    # every module that binds strong_difference gets the defect, so the point and section routes both see it
    strong_difference = spaces.strong_difference
    swapped = lambda plus, minus: strong_difference(minus, plus)
    for module in (spaces, liealg, harness):
        monkeypatch.setattr(module, "strong_difference", swapped)
    report = run_suite(config(spec=spec, suite="all", trials=3, seed=0))
    failing = {c.law for c in report.cases if c.status == "fail"}
    assert failing == {
        "axis-recovery",
        "relative-difference-equivalence",
        "bracket-strong-difference",
        "six-cube-identities",
    }


@pytest.mark.parametrize("mutation", ["none", "flip-bracket-sign"])
@pytest.mark.parametrize("spec", ["pair:dim=2:deg=2", "gauge:base=2:k=2"])
def test_the_trial_memo_changes_no_report(spec, mutation, monkeypatch):
    memoised = run_suite(config(spec=spec, suite="all", trials=3), mutation).to_dict()
    monkeypatch.setattr(harness, "_memoised", contextlib.nullcontext)  # every call computes its value
    assert run_suite(config(spec=spec, suite="all", trials=3), mutation).to_dict() == memoised


DENSE_CUBIC_6 = "; ".join(["(x0+x1+x2+x3+x4+x5+1)^3"] * 6)


def run_bracket_subprocess(spec, x_text, y_text):
    # a subprocess with a timeout, so that a computation that hangs fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(microlie.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "microlie", "bracket", "--groupoid", spec, "--x", x_text, "--y", y_text],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
    )


class TestCli:
    def test_verify_exit_zero(self, capsys):
        assert main(["verify", "--suite", "flows", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "ok" in out

    def test_verify_json(self, capsys):
        code = main(["verify", "--suite", "oracle", "--trials", "2", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_mutation_exit_one_with_counterexample(self, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "bracket",
                "--trials",
                "3",
                "--mutate",
                "flip-bracket-sign",
                "--format",
                "json",
            ]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert any("counterexample" in case for case in data["cases"])

    def test_usage_errors_exit_two(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == 2
        assert main(["verify", "--groupoid", "pair:dim=9"]) == 2
        assert main(["bracket", "--groupoid", "gauge:base=2:k=2", "--x", "x0", "--y", "x0"]) == 2

    def test_bracket_command(self, capsys):
        code = main(["bracket", "--groupoid", "pair:dim=2", "--x", "1; 0", "--y", "0; x0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0; 1"

    def test_cached_parser_keeps_no_state_between_calls(self, capsys):
        calls = [
            ["bracket", "--groupoid", "pair:dim=2", "--x", "-x1; x0", "--y", "x0^2; 1/2*x1"],
            ["verify", "--trials"],  # usage error: exit 2
            ["verify", "--trials", "1"],
            ["bracket", "--groupoid", "pair:dim=2", "--x", "-x1; x0", "--y", "x0^2; 1/2*x1"],
        ]

        def run(argv):
            code = main(argv)
            return code, *capsys.readouterr()

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()  # as in a fresh process
            alone.append(run(argv))
        cli._build_parser.cache_clear()
        together = [run(argv) for argv in calls]
        assert together == alone
        assert [code for code, _, _ in together] == [0, 2, 0, 0]
        assert cli._build_parser.cache_info().misses == 1

    def test_bracket_parse_error(self, capsys):
        code = main(["bracket", "--groupoid", "pair:dim=1", "--x", "x0 +", "--y", "x0"])
        assert code == 2
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["(x0+x1+x2+1)^100000; 0; 0", "x0^5000; 0; 0"])
    def test_bracket_rejects_fields_above_degree_limit(self, field):
        proc = run_bracket_subprocess("pair:dim=3", field, "x0; x1; x2")
        assert proc.returncode == 2
        assert "above the degree limit 3" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        ("spec", "field", "message"),
        [
            # a dense degree-3 field in dimension 6 takes over a minute when it is computed
            ("pair:dim=6", DENSE_CUBIC_6, "dimension must be between 1 and 3"),
            ("pair:dim=2:deg=9", "x0^3; x1^3", "field degree must be between 0 and 3"),
            ("gauge:base=9:k=2", "1", "error: the bracket command works on the pair groupoid (pair:dim=N)\n"),
        ],
        ids=["dense-dim-6", "deg-9", "gauge"],
    )
    def test_bracket_rejects_groupoids_outside_bounds(self, spec, field, message):
        proc = run_bracket_subprocess(spec, field, field)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bracket_text_is_pinned(self, capsys):
        # the exact output, term order included, for one dense degree-3 pair
        x_text = "(x0+x1+x2+1)^3; x0*x1*x2 - 2*x1^2; 1/2*x2^3"
        y_text = "x1 - 3*x2^2*x0; (x0 - 2*x1 + 1/3)^3; (x0 - x1)^3 + x2"
        assert main(["bracket", "--groupoid", "pair:dim=3", "--x", x_text, "--y", y_text]) == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "data" / "bracket_pair_dim3.txt").read_text()

    def test_bracket_accepts_degree_three(self, capsys):
        x_text = "(x0+x1+x2+1)^3; x0*x1*x2 - 2*x1^2; 1/2*x2^3"
        y_text = "x1; x0^2*x2; (x0 - x1)^3"
        code = main(["bracket", "--groupoid", "pair:dim=3", "--x", x_text, "--y", y_text])
        assert code == 0
        x, y = (PolyVectorField(parse_vector_field(text, 3)) for text in (x_text, y_text))
        assert capsys.readouterr().out.strip() == format_vector_field(classical_vf_bracket(x, y).components)
