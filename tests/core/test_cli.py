"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_stream(self, capsys):
        assert main(["stream", "iadd", "--ilp", "max"]) == 0
        out = capsys.readouterr().out
        assert "iadd" in out and "CPI" in out

    def test_stream_dual(self, capsys):
        assert main(["stream", "fadd", "--threads", "2"]) == 0
        assert "2thr" in capsys.readouterr().out

    def test_app_single_variant(self, capsys):
        assert main(["app", "mm", "--variant", "serial",
                     "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out

    def test_app_bad_name(self):
        # Unknown positional is rejected by argparse itself.
        with pytest.raises(SystemExit):
            main(["app", "bogus"])

    def test_cg_size_rejected(self, capsys):
        assert main(["app", "cg", "--size", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "fixed scaled size" in err

    def test_fig2_panel_c(self, capsys, tmp_path):
        assert main(["fig2", "--panel", "c", "--ilp", "min",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(c)" in out

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIErrorPaths:
    """Every failure mode exits with the argparse error shape
    (``repro: error: <message>``, status 2) — no tracebacks."""

    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--jobs", "0"])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_jobs_garbage_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--jobs", "many"])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_unwritable_cache_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["fig1", "--cache-dir", str(blocker / "cache")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "cannot create cache dir" in err

    def test_unwritable_cache_dir_names_flag_and_escape_hatch(
            self, tmp_path, capsys):
        """The UsageError names the offending flag and the way out."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["fig1", "--cache-dir", str(blocker / "cache")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--cache-dir" in err
        assert "--no-cache" in err

    def test_jobs_error_names_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--jobs", "-2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_stream(self, capsys):
        assert main(["stream", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "bogus" in err

    def test_jobs_with_single_variant_rejected(self, capsys):
        rc = main(["app", "mm", "--variant", "serial", "--size", "16",
                   "--jobs", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "--variant" in err

    def test_unwritable_report_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["stream", "iadd",
                   "--report", str(blocker / "r.json")])
        assert rc == 1
        assert "cannot write report" in capsys.readouterr().err


class TestCLISweepFlags:
    """Sweep-flag plumbing, exercised through ``table1`` — its cells
    are functional replays, so cold runs stay cheap."""

    def test_warm_cache_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["table1", "--cache-dir", cache, "--json"]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["sweep"]["cache_hits"] == 0
        assert cold["sweep"]["cache_misses"] == cold["sweep"]["cells"] > 0

        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["sweep"]["cache_hits"] == warm["sweep"]["cells"]
        assert warm["sweep"]["cache_misses"] == 0

    def test_no_check_results_are_never_cached(self, tmp_path, capsys):
        """--no-check reads checked entries but never publishes, so an
        unchecked result can never come back later as a trusted hit."""
        cache = tmp_path / "cache"
        args = ["fig1", "--streams", "iadd", "--cache-dir", str(cache),
                "--json"]
        assert main(args + ["--no-check"]) == 0
        unchecked = json.loads(capsys.readouterr().out)
        assert unchecked["sweep"]["cache_misses"] == 6
        assert list((cache / "objects").rglob("*.json")) == []

        assert main(args) == 0
        checked = json.loads(capsys.readouterr().out)
        assert checked["sweep"]["cache_hits"] == 0
        assert checked["sweep"]["cache_misses"] == 6
        assert len(list((cache / "objects").rglob("*.json"))) == 6

    def test_no_cache_reports_disabled(self, capsys):
        assert main(["table1", "--no-cache", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sweep"]["cache_enabled"] is False
        assert report["sweep"]["cache_dir"] is None

    def test_sweep_note_on_stderr(self, tmp_path, capsys):
        assert main(["table1",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        err = capsys.readouterr().err
        assert "sweep:" in err and "misses" in err
