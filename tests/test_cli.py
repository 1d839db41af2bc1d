import hashlib
import json
import math
from pathlib import Path

import pytest

from qkd3 import DomainError, __version__
from qkd3.cli import _distances, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_limiting_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--eb", "0", "--alpha", "0.3")
        assert code == 0
        rec = json.loads(out)
        assert rec["ep_exact"] == pytest.approx(0.3)

    def test_limiting_eb(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--eb", "0.1", "--alpha", "0")
        assert code == 0
        assert json.loads(out)["ep_exact"] == pytest.approx(0.2)

    def test_five_eb(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--eb", "0.04", "--alpha", "0.04")
        rec = json.loads(out)
        assert rec["ep_simple"] == pytest.approx(0.2)
        assert set(rec) == {
            "e_b",
            "alpha",
            "ep_exact",
            "ep_approx",
            "ep_simple",
            "ay_star",
            "witness",
        }

    def test_witness_parses(self, capsys):
        from qkd3 import KrausCoefficients, rates_from_ensemble

        _, out, _ = run_cli(capsys, "bound", "--eb", "0.05", "--alpha", "0.05")
        rec = json.loads(out)
        w = KrausCoefficients.deserialize(rec["witness"])
        r = rates_from_ensemble([w])
        assert r.e_p == pytest.approx(rec["ep_exact"], abs=1e-9)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--eb", "0.7", "--alpha", "0.1")
        assert code == 3
        assert "domain error" in err

    def test_tiny_rates_exit_code(self, capsys):
        # (1 - e_b) / (e_b * alpha) overflows: a domain error, not a traceback
        code, _, err = run_cli(capsys, "bound", "--eb", "1e-300", "--alpha", "1e-300")
        assert code == 3
        assert "domain error" in err


class TestFig1:
    def test_columns_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "fig1", "--eb-max", "0.1", "--steps", "26")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eb,ep_exact,ep_approx,ep_5eb"
        assert len(lines) == 27
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]
        row_04 = [float(v) for v in lines[11].split(",")]
        assert row_04[0] == pytest.approx(0.04)
        assert row_04[3] == pytest.approx(0.2)

    def test_ordering_in_rows(self, capsys):
        _, out, _ = run_cli(capsys, "fig1", "--eb-max", "0.1", "--steps", "21")
        for line in out.strip().split("\n")[1:]:
            _, ex, ap, sb = (float(v) for v in line.split(","))
            assert ex <= ap + 1e-9 <= sb + 2e-9

    def test_tiny_rates_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "fig1", "--eb-max", "1e-300", "--steps", "3")
        assert code == 3
        assert "domain error" in err


class TestRegion:
    def test_intercept_rows(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--steps", "11")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,eb_max"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(0.0756794560, abs=2e-6)
        assert last == [0.5, 0.0]

    def test_monotone_column(self, capsys):
        _, out, _ = run_cli(capsys, "region", "--steps", "11")
        ebs = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(ebs, ebs[1:]))


class TestDecoy:
    def test_header_and_positive_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "decoy", "--protocol", "bb84",
            "--L-min", "0", "--L-max", "20", "--L-step", "10",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "L_km,mu,Q_mu,E_mu,Q1,e1,e_p,R"
        assert len(lines) == 4
        r0 = [float(v) for v in lines[1].split(",")]
        assert r0[0] == 0.0
        assert r0[-1] > 0.0

    def test_blind_receiver_clamped_to_zero(self, capsys, tmp_path):
        f = tmp_path / "blind.params"
        f.write_text("eta_bob = 0\n")
        code, out, _ = run_cli(
            capsys, "decoy", "--params", str(f),
            "--L-min", "0", "--L-max", "10", "--L-step", "5",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[-1]) == 0.0

    def test_bad_params_file(self, capsys, tmp_path):
        f = tmp_path / "bad.params"
        f.write_text("nonsense = 1\n")
        code, _, err = run_cli(
            capsys, "decoy", "--params", str(f),
            "--L-min", "0", "--L-max", "10", "--L-step", "5",
        )
        assert code == 2
        assert "nonsense" in err

    @pytest.mark.parametrize(
        "L_min, L_max, L_step",
        [
            (0.0, 150.0, 1e-300),  # about 1e302 rows
            (0.0, math.inf, 5.0),
            (0.0, 150.0, math.inf),
            (math.nan, 150.0, 5.0),
            (1e17, 1e17 + 1000.0, 1.0),  # L + L_step == L
        ],
    )
    def test_unbounded_distance_range_rejected(self, L_min, L_max, L_step):
        with pytest.raises(DomainError):
            _distances(L_min, L_max, L_step)

    def test_distance_rows(self):
        assert _distances(0.0, 150.0, 5.0) == [5.0 * k for k in range(31)]
        assert len(_distances(0.0, 999_999.0, 1.0)) == 1_000_000

    @pytest.mark.parametrize("flag, value", [("--L-step", "1e-300"), ("--L-max", "inf")])
    def test_unbounded_distance_range_exit_code(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "decoy", flag, value)
        assert code == 3
        assert out == ""
        assert "domain error" in err


class TestSimulate:
    ATTACK = ",".join(
        repr(v)
        for v in (math.sqrt(0.9), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.sqrt(0.1))
    )

    def test_identity_attack(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--N", "1000", "--seed", "4",
            "--attack", "1,0,0,0,0,0,0,0",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["stats"]["observed_eb"] == 0.0
        assert rec["stats"]["observed_alpha"] == 0.0

    def test_repeated_seed_identical_bytes(self, capsys):
        args = ("simulate", "--N", "2000", "--seed", "9", "--attack", self.ATTACK)
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_alpha_within_5_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--N", "100000", "--seed", "3",
            "--attack", self.ATTACK,
        )
        rec = json.loads(out)
        sigma = math.sqrt(0.1 * 0.9 / 200000)
        assert abs(rec["stats"]["observed_alpha"] - 0.1) <= 5 * sigma
        assert rec["azuma"]["within_error"] is True

    def test_bad_attack_string(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--N", "100", "--seed", "1", "--attack", "1,2,3"
        )
        assert code == 2

    def test_insufficient_sift_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--N", "2000", "--seed", "0",
            "--delta", "1e-6", "--attack", "1,0,0,0,0,0,0,0",
        )
        assert code == 4
        assert "simulation error" in err


class TestOutputPinned:
    """stdout of a fixed command set is pinned byte for byte (sha256), so
    refactors of the bound, key-rate and decoy code cannot drift output."""

    PINNED = {
        ("bound", "--eb", "0.05", "--alpha", "0.05"):
            "b7cec7e1ac566b676b8591dc5fdd4f364a8e63d30e8fa0600b621e3c5432fca0",
        ("bound", "--eb", "0.3", "--alpha", "0.3"):
            "0e1ea8d860609b7b9ec0fd597462c91ca2278050d472761869c33848b36ca07c",
        ("fig1",):
            "c6ddb85c4cf55595b95a8fc7a3bfbc55af884f2ddc011bb398982ad48870c338",
        ("region", "--method", "exact"):
            "a8837aaf73a8d70a19d487c8807d74ef236d115ddc76b11fe4b4759c0664c130",
        ("decoy", "--protocol", "three-state"):
            "c748ebcb65efc470c38730d7255f2648133ca074052dbec3adb95f937fcc1f83",
        ("region", "--method", "exact", "--steps", "21"):
            "c941f000fd773a9cb795fa6edcb7e2557a5e08c605260f2c0a04f722e5ea8828",
        ("fig1", "--steps", "401"):
            "21ab138de5650a10180245f6244221434b94f9bfc5e89d552c1c208d7d986e84",
        ("decoy", "--L-step", "1"):
            "c284b0f4047b8c909ea6debdc2e5e1368edd952956eb07ce6eb31422e9926415",
        ("decoy", "--protocol", "bb84", "--L-step", "1"):
            "49dfde135fbbd7e86458c6b40cf742c59c9cd7a1eabd680f6af55f4fd410197c",
    }

    @pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
    def test_stdout_sha256(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[argv]


class TestManifest:
    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            assert tomllib.load(f)["project"]["version"] == __version__

    def test_manifest_checksum_and_reproducibility(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["fig1", "--eb-max", "0.05", "--steps", "11"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "fig1"
        assert manifest["params"]["steps"] == 11
        assert manifest["sha256"] == hashlib.sha256(out1.read_bytes()).hexdigest()

    def test_simulate_manifest_records_seed(self, tmp_path):
        out = tmp_path / "run.json"
        assert (
            main(
                ["simulate", "--N", "500", "--seed", "21",
                 "--attack", "1,0,0,0,0,0,0,0", "--out", str(out)]
            )
            == 0
        )
        manifest = json.loads((tmp_path / "run.json.manifest.json").read_text())
        assert manifest["params"]["seed"] == 21
        assert manifest["params"]["N"] == 500

    def test_nine_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "fig1", "--eb-max", "0.1", "--steps", "11")
        val = out.strip().split("\n")[5].split(",")[1]
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) <= 9
