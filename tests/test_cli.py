import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd3 import DomainError, KrausCoefficients, __version__, rates_from_ensemble
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
        # a subnormal rate gets a bound and a witness that reproduces it,
        # with no warnings
        for eb, alpha, ep in [("0.3", "5e-324", 0.5), ("5e-324", "0.5", 0.5)]:
            code, out, err = run_cli(capsys, "bound", "--eb", eb, "--alpha", alpha)
            assert (code, err) == (0, "")
            rec = json.loads(out)
            assert rec["ep_exact"] == ep
            r = rates_from_ensemble([KrausCoefficients.deserialize(rec["witness"])])
            assert (r.e_b, r.alpha, r.e_p) == pytest.approx(
                (float(eb), float(alpha), ep), abs=1e-9
            )

    def test_smallest_normal_eb_exit_code(self, capsys):
        # unscaled, the witness at e_b = 2**-1022 would weigh more than a
        # quarter of the largest double, which KrausCoefficients rejects
        for alpha in ("0.5", "1e-300"):
            code, out, err = run_cli(
                capsys, "bound", "--eb", "2.2250738585072014e-308", "--alpha", alpha
            )
            assert (code, err) == (0, "")
            rec = json.loads(out)
            r = rates_from_ensemble([KrausCoefficients.deserialize(rec["witness"])])
            assert (r.e_b, r.alpha, r.e_p) == pytest.approx(
                (rec["e_b"], rec["alpha"], rec["ep_exact"]), rel=1e-9
            )

    def test_alpha_half_rounding_over_cap_exit_code(self, capsys):
        # the uncapped value rounds to 0.5000000000000001 at these points
        for eb in ("3.1571837583107767e-34", "2.2312818145724366e-308"):
            code, out, err = run_cli(capsys, "bound", "--eb", eb, "--alpha", "0.5")
            assert (code, err) == (0, "")
            rec = json.loads(out)
            assert rec["ep_exact"] == 0.5
            r = rates_from_ensemble([KrausCoefficients.deserialize(rec["witness"])])
            assert (r.e_b, r.alpha, r.e_p) == pytest.approx(
                (rec["e_b"], 0.5, 0.5), rel=1e-9
            )


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
        # the row at 5e-324 has subnormal rates, and a bound from each method
        code, out, err = run_cli(capsys, "fig1", "--eb-max", "1e-323", "--steps", "3")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [float(row[0]) for row in rows] == [0.0, 5e-324, 1e-323]
        for row in rows[1:]:
            eb, ex, ap, sb = (float(v) for v in row)
            assert 0.0 < ex <= ap <= sb <= 5 * eb


@pytest.mark.parametrize("subcommand", ["fig1", "region"])
def test_steps_capped_before_any_row(capsys, monkeypatch, subcommand):
    import qkd3.cli

    def no_rows(*args, **kwargs):
        raise AssertionError("row computed before the --steps check")

    monkeypatch.setattr(qkd3.cli, "exact_ep", no_rows)
    monkeypatch.setattr(qkd3.cli, "secure_region_frontier", no_rows)
    code, out, err = run_cli(capsys, subcommand, "--steps", "100000000")
    assert code == 3
    assert out == ""
    assert err == f"qkd3: domain error: --steps must be in [2, {qkd3.cli._MAX_ROWS}]\n"


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
        "text, line",
        [("eta_bob = 0.1\neta_bob = 0.2\n", 2), ("y0 = 2e-6\n\neta_bob =\n", 3)],
        ids=["repeated key", "empty value"],
    )
    def test_params_file_error_names_its_line(self, capsys, tmp_path, text, line):
        f = tmp_path / "bad.params"
        f.write_text(text)
        code, out, err = run_cli(
            capsys, "decoy", "--params", str(f),
            "--L-min", "0", "--L-max", "10", "--L-step", "5",
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"qkd3: {f}:{line}: ")
        assert "eta_bob" in err

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

    def test_distance_rows_stop_at_L_max(self):
        # an absolute slack of 1e-9 km let steps below it add rows past
        # L_max: 1000 rows here, then 11, where one is asked for
        assert _distances(0.0, 0.0, 1e-12) == [0.0]
        assert _distances(10.0, 10.0, 1e-10) == [10.0]

    def test_distance_rows_within_range(self):
        # rounding to 9 decimals took 4e-10 to 0.0, below L_min, and made
        # eleven rows of 0.0 from steps below the rounding
        assert _distances(4e-10, 4e-10, 1.0) == [4e-10]
        assert _distances(4e-10, 1.0, 0.5) == [4e-10, 0.5, 1.0]
        with pytest.raises(DomainError, match="rounding"):
            _distances(0.0, 1e-11, 1e-12)

    @pytest.mark.parametrize("flag, value", [("--L-step", "1e-300"), ("--L-max", "inf")])
    def test_unbounded_distance_range_exit_code(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "decoy", flag, value)
        assert code == 3
        assert out == ""
        assert "domain error" in err

    def test_three_state_past_bound_domain_row(self, capsys, tmp_path):
        # e1 > 1/2: no key, printed as e_p = 1/2 and R = 0 at the first mu
        f = tmp_path / "misaligned.params"
        f.write_text("e_det = 0.6\n")
        code, out, err = run_cli(
            capsys, "decoy", "--params", str(f), "--L-min", "10", "--L-max", "10",
        )
        assert code == 0
        assert err == ""
        row = [float(v) for v in out.strip().split("\n")[1].split(",")]
        assert row[5] > 0.5
        assert (row[1], row[6], row[7]) == (0.0025, 0.5, 0.0)


class TestClaims:
    def test_headline_values(self, capsys):
        from qkd3 import GYS, bb84_tolerable_eb, decoy, keyrate, max_secure_distance
        from qkd3 import tolerable_eb, tolerable_eb_equal

        code, out, err = run_cli(capsys, "claims")
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert rec == {
            "tolerable_eb_alpha0": tolerable_eb(0.0, "exact"),
            "tolerable_eb_diagonal": {
                m: tolerable_eb_equal(m) for m in ("exact", "approximate", "simple")
            },
            "bb84_tolerable_eb": bb84_tolerable_eb(),
            "max_secure_distance_km": {
                p: max_secure_distance(GYS, p) for p in ("three-state", "bb84")
            },
            "eb_tolerance": keyrate._ROOT_TOL,
            "distance_tolerance_km": decoy._DISTANCE_RESOLUTION_KM,
        }
        # the README's headline numbers, at the rounding it prints
        assert f"{rec['tolerable_eb_alpha0']:.4f}" == "0.0757"
        assert [f"{rec['tolerable_eb_diagonal'][m]:.4f}" for m in
                ("simple", "approximate", "exact")] == ["0.0425", "0.0436", "0.0443"]
        assert f"{rec['bb84_tolerable_eb']:.4f}" == "0.1100"
        km = rec["max_secure_distance_km"]
        assert (f"{km['three-state']:.2f}", f"{km['bb84']:.2f}") == ("88.50", "142.21")

    def test_alpha0_equal_for_every_method(self):
        # every bound is 2 e_b at alpha = 0, so the method does not matter
        from qkd3 import tolerable_eb

        values = {tolerable_eb(0.0, m) for m in ("exact", "approximate", "simple")}
        assert len(values) == 1

    def test_manifest_checksum(self, capsys, tmp_path):
        out = tmp_path / "claims.json"
        assert main(["claims", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "claims.json.manifest.json").read_text())
        assert manifest["subcommand"] == "claims"
        assert manifest["params"] == {"params": None, "subcommand": "claims"}
        assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert out.read_text() == run_cli(capsys, "claims")[1]

    def test_blind_receiver_exit_code(self, capsys, tmp_path):
        f = tmp_path / "blind.params"
        f.write_text("eta_bob = 0\n")
        code, out, err = run_cli(capsys, "claims", "--params", str(f))
        assert code == 3
        assert out == ""
        assert err.startswith("qkd3: no secure distance:")
        assert err.count("\n") == 1

    def test_bad_params_file(self, capsys, tmp_path):
        f = tmp_path / "bad.params"
        f.write_text("nonsense = 1\n")
        code, out, err = run_cli(capsys, "claims", "--params", str(f))
        assert (code, out) == (2, "")
        assert "nonsense" in err


UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
CHANNEL_FIELDS = {
    "fiber_loss_db_per_km": st.sampled_from([0.0, 1.0]) | st.floats(0.0, sys.float_info.max),
    "eta_bob": UNIT,
    "y0": UNIT,
    "e_det": UNIT,
    "e0": UNIT,
    "f_ec": st.sampled_from([1.0]) | st.floats(1.0, sys.float_info.max),
}


def run_cleanly(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of main(argv), asserting no warning and at most
    one `qkd3:` line on stderr: no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert caught == []
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("qkd3:"))
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    params=st.fixed_dictionaries({}, optional=CHANNEL_FIELDS),
    protocol=st.sampled_from(["three-state", "bb84"]),
    L_min=st.sampled_from([0.0]) | st.floats(0.0, 1000.0),
    L_step=st.floats(0.01, 100.0),
    rows=st.integers(1, 20),
)
def test_decoy_exits_cleanly_on_any_params_file(params, protocol, L_min, L_step, rows):
    """Every channel in the valid ranges ends in exit 0, 2 or 3 with at
    most one `qkd3:` line on stderr: no traceback, no warning."""
    L_max = L_min + (rows - 1) * L_step
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "channel.params"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in params.items()))
        argv = [
            "decoy", "--protocol", protocol, "--params", str(path),
            "--L-min", repr(L_min), "--L-max", repr(L_max), "--L-step", repr(L_step),
        ]
        code, out = run_cleanly(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert 2 <= len(out.splitlines()) <= 21


@settings(max_examples=40, deadline=None)
@given(params=st.fixed_dictionaries({}, optional=CHANNEL_FIELDS))
def test_claims_exits_cleanly_on_any_params_file(params):
    """Every channel in the valid ranges ends in exit 0, 2 or 3 (no secure
    distance included) with at most one `qkd3:` line on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "channel.params"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in params.items()))
        code, out = run_cleanly(["claims", "--params", str(path)])
    assert code in (0, 2, 3)
    if code == 0:
        km = json.loads(out)["max_secure_distance_km"]
        assert all(0.0 <= v < 20_000.0 for v in km.values())


# any float argparse accepts, with the domain's edges; passed as --opt=VALUE
# so that a negative value is not read as an option
ANY_FLOAT = st.floats() | st.sampled_from([0.0, 0.25, 0.5, 1e-15, 2.3e-308, 5e-324])
# --steps outside [2, 10**6] is rejected up front; inside, rows stay cheap
ANY_STEPS = st.integers(-3, 60) | st.sampled_from([10**6 + 1, 2**63])


@settings(max_examples=120, deadline=None)
@given(
    argv=st.one_of(
        st.tuples(ANY_FLOAT, ANY_FLOAT).map(
            lambda p: ["bound", f"--eb={p[0]!r}", f"--alpha={p[1]!r}"]
        ),
        st.tuples(ANY_FLOAT, ANY_STEPS).map(
            lambda p: ["fig1", f"--eb-max={p[0]!r}", f"--steps={p[1]}"]
        ),
        st.tuples(st.sampled_from(["exact", "approx", "simple"]), ANY_STEPS).map(
            lambda p: ["region", f"--method={p[0]}", f"--steps={p[1]}"]
        ),
    )
)
def test_bound_fig1_region_exit_cleanly_on_any_arguments(argv):
    """bound, fig1 and region end in a documented exit code with at most
    one `qkd3:` line on stderr for every value their options parse to."""
    code, out = run_cleanly(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert out


# every argument vector argparse accepts for simulate: any integers for
# --N and --seed (past 2**63 rounds too), any float for --delta, and an
# --attack of any floats, of any length, or any text
SCALAR = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, 1.0, 1e-200, 1e154, 1e200, 1.5e308]
)
ATTACK_TEXT = (
    st.lists(SCALAR, min_size=8, max_size=8) | st.lists(ANY_FLOAT, max_size=9)
).map(lambda v: ",".join(map(repr, v))) | st.text(max_size=24)


@settings(max_examples=120, deadline=None)
@given(
    N=st.integers(-3, 10**6) | st.sampled_from([2**59, 2**60, 10**30]),
    seed=st.integers(-3, 2**64) | st.sampled_from([2**130]),
    delta=ANY_FLOAT,
    attack=ATTACK_TEXT,
)
def test_simulate_exits_cleanly_on_any_arguments(N, seed, delta, attack):
    """simulate ends in a documented exit code with at most one `qkd3:`
    line on stderr for every value its options parse to."""
    argv = [
        "simulate", f"--N={N}", f"--seed={seed}", f"--delta={delta!r}", f"--attack={attack}"
    ]
    code, out = run_cleanly(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert json.loads(out)["stats"]["z_check_total"] == N


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

    @pytest.mark.parametrize("scale", ["1e-200", "5e-324"])
    def test_tiny_identity_attack(self, capsys, scale):
        # the identity attack scaled down until every square underflows:
        # the rates, and so the output, do not depend on the scale
        args = ("simulate", "--N", "1000", "--seed", "4")
        code, out, _ = run_cli(capsys, *args, f"--attack={scale},0,0,0,0,0,0,0")
        assert code == 0
        assert out == run_cli(capsys, *args, "--attack=1,0,0,0,0,0,0,0")[1]

    def test_tiny_check_terms(self, capsys):
        # a normal total weight whose check-state terms underflow: the
        # output is that of the same attack scaled by 2**600
        args = ("simulate", "--N", "1000", "--seed", "4")
        tiny = (2e-154, 0.0, -2e-154, 0.0, 1e-170, 0.0, 0.0, 0.0)
        code, out, _ = run_cli(capsys, *args, "--attack=" + ",".join(map(repr, tiny)))
        assert code == 0
        big = ",".join(repr(x * 2.0**600) for x in tiny)
        assert out == run_cli(capsys, *args, f"--attack={big}")[1]

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
            "40fb92e85ee4be5e7af21a396fd6a1f11ebd1e29446ecd4f6b5fb33f2ba88865",
        ("bound", "--eb", "0.3", "--alpha", "0.3"):
            "29110aad22bb1b6c1063f44b5731c1a563703b4e1d2f9f9ca3bb0fd517ad615e",
        ("fig1",):
            "c6ddb85c4cf55595b95a8fc7a3bfbc55af884f2ddc011bb398982ad48870c338",
        ("region", "--method", "exact"):
            "37d3a98a8ccf95c7625a6b80e2bc422b1d668d91ddd8f068dc1f8232d24a064e",
        ("region", "--method", "approx"):
            "31fe257c581cb0c90c99ba15b95d0aaab1086d95057130c79ddc37ebaaa70d77",
        ("region", "--method", "simple"):
            "611676f491a87937162644997ed12591b09885b103961e510cb0ba2c08256bf0",
        ("decoy", "--protocol", "three-state"):
            "b43a2bde3273d13290c1cf4668fd7723e1304684f9cff22ec798d8f12576cc87",
        ("region", "--method", "exact", "--steps", "21"):
            "97a43e55c45f7f785be84f36a53a069e99723aaf7e288cd6a8ef4cb9aa8a5d7a",
        ("fig1", "--steps", "401"):
            "21ab138de5650a10180245f6244221434b94f9bfc5e89d552c1c208d7d986e84",
        ("decoy", "--L-step", "1"):
            "bd52cfc1b2ac907296625809bfea06fa7fdab31b5c1ee1f39f68ba79e11e5576",
        ("decoy", "--protocol", "bb84", "--L-step", "1"):
            "bf2d17553a76bd9a82be777e152a49290bfc731174f1c5c390466ce7e5024590",
        # one per exact_bound branch: e_b = 0 (an int a_Y), alpha = 0 below
        # and above the cap, the aligned crossing, and the capped |a_Y| grid
        # through `_element` (at e_b = 1/2 too: e_p = 1 is capped, and its
        # witness has a vanishing magnitude product)
        ("bound", "--eb", "0", "--alpha", "0.3"):
            "e30c75047eab9e455f38954ff268e4dd7c3d0dc24dd93896ffbc4b0b15c6fc52",
        ("bound", "--eb", "0.1", "--alpha", "0"):
            "4700b4ff704c9b5d9fcb79b8ba97324231e216530d9ec5770c02fa2a965d04bb",
        ("bound", "--eb", "0.3", "--alpha", "0"):
            "569827f8efe5a79135c9a57e3552c23c99ca067c527db17effc1a9e12c557d10",
        ("bound", "--eb", "0.3", "--alpha", "1e-8"):
            "0ae4915e9a4855eb889b440fbec0911cbc970a6f6a199095ab47dbec1d40cd09",
        ("bound", "--eb", "0.01", "--alpha", "0.44"):
            "ed4c72a3d17f83ed1beaac3d93069cccf536db1b81af5f966c85982109de1ff9",
        ("bound", "--eb", "0.5", "--alpha", "0.5"):
            "2c53af802e9a1f43ee365d301a89903ec47711e41bb686de8c15d728197c6cd1",
        # alpha = 1/2 where the uncapped value rounds just above the cap
        # (0.9.0); since 0.15.0 the unit-weight |a_Y| grid finds the
        # witness at |a_Y| = 0 there
        ("bound", "--eb", "3.1571837583107767e-34", "--alpha", "0.5"):
            "60186668505c4bbacb7e5ee77af1225efa4d10be9d94e4e15978bb119a364f6d",
        ("bound", "--eb", "2.2312818145724366e-308", "--alpha", "0.5"):
            "03941bd7ffcb8892323b0451b7fed4f4acfac017030e0cd41198345baba6592e",
        ("claims",):
            "f4e8f5aa2e1f8c649d76f6f9d9c395955ef42a281c6e4a20d56c2b4c23658230",
        ("simulate", "--N", "100000", "--seed", "7", "--attack",
         "0.9486832980505138,0,0,0,0,0,0,0.31622776601683794"):
            "d74c65556567155fdfeb6683bf010198e4ee38da5750fe5a5d207e6f272920f6",
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
