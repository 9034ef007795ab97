"""End-to-end `repro check` / `repro engines --verify` CLI behaviour."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.staticcheck.runner import run_check


class TestRunCheck:
    def test_full_repo_is_clean(self):
        diagnostics, code = run_check(".")
        assert code == 0
        unwaived_errors = [
            d for d in diagnostics if d.severity == "error" and not d.waived
        ]
        assert unwaived_errors == []

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown analyzer families"):
            run_check(".", only=["spelling"])

    def test_scoped_lint_suppresses_stale_waiver_noise(self):
        diagnostics, code = run_check(
            ".", only=["lint"], lint_paths=["src/repro/rng.py"]
        )
        assert code == 0 and diagnostics == []


class TestCheckCommand:
    def test_check_exit_zero_on_repo(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out or "clean" in out

    def test_json_output_parses(self, capsys):
        assert main(["check", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
        assert set(payload["summary"]) == {"error", "warning", "info"}

    def test_injected_global_rng_fails_the_check(self, tmp_path, capsys):
        bad = tmp_path / "bad_module.py"
        bad.write_text("import random\nvalue = random.random()\n")
        code = main(["check", "--only", "lint", "--paths", str(bad)])
        assert code == 1
        assert "D301" in capsys.readouterr().out

    def test_injected_wall_clock_fails_the_check(self, tmp_path, capsys):
        bad = tmp_path / "bad_module.py"
        bad.write_text("import time\nstamp = time.time()\n")
        code = main(["check", "--only", "lint", "--paths", str(bad)])
        assert code == 1
        assert "D302" in capsys.readouterr().out

    def test_only_rejects_the_removed_typing_family(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--only", "typing"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_waiver_file_downgrades_injected_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad_module.py"
        bad.write_text("import random\n")
        waivers = tmp_path / "waivers.json"
        waivers.write_text(
            json.dumps(
                {
                    "waivers": [
                        {
                            "rule": "D301",
                            "location": str(bad),
                            "justification": "test fixture",
                        }
                    ]
                }
            )
        )
        code = main(
            [
                "check",
                "--only",
                "lint",
                "--paths",
                str(bad),
                "--waivers",
                str(waivers),
            ]
        )
        assert code == 0
        assert "[waived: test fixture]" in capsys.readouterr().out

    def test_bad_waiver_file_is_usage_error(self, tmp_path, capsys):
        waivers = tmp_path / "waivers.json"
        waivers.write_text(json.dumps({"waivers": [{"rule": "D301"}]}))
        assert main(["check", "--waivers", str(waivers)]) == 2


class TestEnginesVerify:
    def test_verify_passes_on_repo(self, capsys):
        assert main(["engines", "--verify"]) == 0
        assert "capability matrix verified" in capsys.readouterr().out

    def test_plain_engines_listing_still_works(self, capsys):
        assert main(["engines"]) == 0
        assert "scheduler" in capsys.readouterr().out.lower()
