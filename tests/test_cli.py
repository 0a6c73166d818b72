"""Command-line runner: exit codes, artifacts, determinism."""
import json
import os

import pytest

from dyadlab.cli import main


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _run(tmp_path_factory, argv):
    """Exit code and manifest of one subcommand run in a fresh directory."""
    out = str(tmp_path_factory.mktemp(argv[0]))
    rc = main([*argv, "--out", out])
    return rc, _read(os.path.join(out, f"manifest_{argv[0]}.json"))


@pytest.fixture(scope="module")
def carleson_run(tmp_path_factory):
    return _run(tmp_path_factory, ["carleson", "--trials", "3"])


@pytest.fixture(scope="module")
def ad_run(tmp_path_factory):
    return _run(tmp_path_factory, ["ad"])


class TestSubcommands:
    def test_quilt(self, tmp_path):
        out = str(tmp_path)
        assert main(["quilt", "--generations", "2", "--out", out]) == 0
        man = _read(os.path.join(out, "manifest_quilt.json"))
        assert all(man["checks"].values())
        assert "config_hash" in man and "wall_clock_s" in man
        assert os.path.exists(os.path.join(out, "quilt_results.json"))

    def test_sigma(self, tmp_path):
        out = str(tmp_path)
        assert main(["sigma", "--n", "2000", "--out", out]) == 0
        man = _read(os.path.join(out, "manifest_sigma.json"))
        assert all(man["checks"].values())

    def test_norms(self, tmp_path):
        out = str(tmp_path)
        assert main(["norms", "--trials", "3", "--out", out,
                     "--seed", "5"]) == 0
        man = _read(os.path.join(out, "manifest_norms.json"))
        assert all(man["checks"].values())

    def test_weights(self, tmp_path):
        out = str(tmp_path)
        assert main(["weights", "--trials", "5", "--out", out]) == 0
        man = _read(os.path.join(out, "manifest_weights.json"))
        assert all(man["checks"].values())

    def test_maximal(self, tmp_path):
        out = str(tmp_path)
        assert main(["maximal", "--out", out]) == 0
        man = _read(os.path.join(out, "manifest_maximal.json"))
        assert all(man["checks"].values())

    def test_carleson(self, carleson_run):
        rc, man = carleson_run
        assert rc == 0
        assert all(man["checks"].values())

    def test_carleson_checks_rect_necessity(self, carleson_run):
        _, man = carleson_run
        assert man["checks"]["rect_at_most_truncated"] is True

    def test_ad(self, ad_run):
        rc, man = ad_run
        assert rc == 0
        assert all(man["checks"].values())

    def test_ad_checks_thresholds(self, ad_run):
        _, man = ad_run
        names = ["sufficient_kernel_meets_thresholds",
                 *(f"witness_{k}_fails_only_{k}" for k in "DEF")]
        assert [man["checks"].get(n) for n in names] == [True] * 4

    def test_counterexample(self, tmp_path):
        out = str(tmp_path)
        rc = main(["counterexample", "--case", "CARL_SP",
                   "--p", "1.0", "--q", "0.5", "--s", "1.0",
                   "--N-grid", "16", "64", "256", "--out", out])
        assert rc == 0
        man = _read(os.path.join(out, "manifest_counterexample.json"))
        assert all(man["checks"].values())
        assert os.path.exists(
            os.path.join(out, "counterexample_CARL_SP.csv"))


class TestReport:
    def test_empty_dir_is_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    def test_consolidates_manifests(self, tmp_path):
        out = str(tmp_path)
        assert main(["sigma", "--n", "500", "--out", out]) == 0
        assert main(["quilt", "--generations", "2", "--out", out]) == 0
        assert main(["report", "--out", out]) == 0
        rep = _read(os.path.join(out, "report_results.json"))
        assert rep["n_commands"] == 2
        assert rep["n_failed"] == 0
        assert os.path.exists(os.path.join(out, "report.csv"))


class TestDeterminism:
    def test_same_seed_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["norms", "--trials", "3", "--seed", "9",
                         "--out", str(out)]) == 0
        fa = (a / "norms_results.json").read_bytes()
        fb = (b / "norms_results.json").read_bytes()
        assert fa == fb
        ha, hb = (_read(d / "manifest_norms.json")["config_hash"]
                  for d in (a, b))
        assert ha == hb

    def test_report_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sigma", "--n", "500", "--out", str(out)]) == 0
            assert main(["report", "--out", str(out)]) == 0
        fa = (a / "report_results.json").read_bytes()
        fb = (b / "report_results.json").read_bytes()
        assert fa == fb

    def test_config_file_merges(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"n": 500}))
        out = str(tmp_path / "o")
        assert main(["sigma", "--config", str(cfgp), "--out", out]) == 0
        man = _read(os.path.join(out, "manifest_sigma.json"))
        assert man["config"]["n"] == 500
