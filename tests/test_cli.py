import contextlib
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aiisac.allocate import grid_argmax
from aiisac.cli import _allocation_problem, main
from aiisac.config import PRESETS, RunConfig, parse_config, preset_config
from aiisac.errors import ConfigError


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.preset == "tableI-dbm"
        assert cfg.power == 0.01
        assert math.isclose(cfg.rician_k, 10 ** 0.6)

    def test_presets(self):
        assert preset_config("tableI-normalized").power == 10.0
        with pytest.raises(ConfigError):
            preset_config("bogus")

    def test_parse_basic(self):
        cfg = parse_config("power = 5.0\nseed = 7\n# comment\n[allocate]\n"
                           "weight = 0.5\n")
        assert cfg.power == 5.0
        assert cfg.seed == 7
        assert cfg.weight == 0.5

    def test_parse_preset_then_override(self):
        cfg = parse_config("preset = tableI-normalized\nnoise_c = 0.2\n")
        assert cfg.power == 10.0
        assert cfg.noise_c == 0.2

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("frobnicate = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("power = banana\n")

    def test_invalid_physical_value(self):
        with pytest.raises(ConfigError):
            parse_config("power = -3\n")


_OFF_PRESET_CONFIG = ("mimo_nt = 4\nmimo_nr = 4\nrician_k_db = 12\n"
                      "quadrature_order = 40\npower = 1\nprior_var = 30\n"
                      "weight = 0.05\nalloc_c_ai = 2\n")


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    return header, rows


class TestCommands:
    def test_gaussian_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["gaussian-sweep", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["c_ai", "rate_awgn", "rate_rayleigh", "rate_rician",
                          "dist_awgn", "dist_rayleigh", "dist_rician"]
        assert len(rows) == 33
        for col in (1, 2, 3):
            vals = [float(r[col]) for r in rows]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_frontier_blocks(self, tmp_path):
        out = tmp_path / "front.csv"
        assert main(["frontier", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        labels = {r[0] for r in rows}
        assert labels == {"0.5", "2", "4", "6", "inf"}
        assert len(rows) == 5 * 201

    def test_mimo_surface(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["mimo-surface", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 16 * 31
        # Rate must grow with the capacity budget at fixed SNR.
        by_snr = {}
        for r in rows:
            by_snr.setdefault(r[1], []).append(float(r[2]))
        for vals in by_snr.values():
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_allocate(self, tmp_path):
        out = tmp_path / "alloc.csv"
        assert main(["allocate", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        mi = [float(r[3]) for r in rows]
        assert all(abs(v - 4.0) <= 1e-9 for v in mi)
        objs = [float(r[2]) for r in rows]
        assert all(b >= a for a, b in zip(objs, objs[1:]))
        assert abs(float(rows[-1][1]) - 1.0) <= 2e-3

    def test_verify_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["verify", "--out", str(out)]) == 0
        text = out.read_text()
        assert "FAIL" not in text

    @pytest.mark.parametrize("preset", PRESETS)
    def test_verify_passes_on_every_preset(self, preset, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["verify", "--preset", preset, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "all checks passed"

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("power = -1\n")
        assert main(["verify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command, line", [
        ("gaussian-sweep", "power = nan"),
        ("frontier", "noise_c = inf"),
        ("allocate", "alloc_c_ai = -inf"),
        ("mimo-surface", "snr_step_db = 0"),
        ("mimo-surface", "snr_step_db = -1"),
        ("mimo-surface", "snr_max_db = -10"),
        ("mimo-surface", "mimo_nt = 0"),
        ("mimo-surface", "mimo_nr = 0"),
        ("gaussian-sweep", "c_min = -3"),
        ("gaussian-sweep", "gain_c = -1"),
        ("allocate", "alloc_c_ai = 0"),
        ("allocate", "weight = 2"),
        ("allocate", "alpha0 = -1"),
        ("verify", "alpha_verify = 1.5"),
        ("gaussian-sweep", "c_step = 1e-9"),
        ("gaussian-sweep", "c_step = 5e-324"),
        ("mimo-surface", "snr_step_db = 1e-7"),
        ("mimo-surface", "snr_max_db = 1e300"),
        ("mimo-surface", "mimo_nt = 65"),
    ])
    def test_malformed_value_exit_code(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("config error:") == 1 and err.count("\n") == 1
        assert not out.exists()

    def test_unresolved_fading_density_is_an_error(self, tmp_path, capsys):
        # At K = 400 dB the order-20 rule misses the gain density's unit
        # mass by about 9; the average it gave was an MMSE of 8.4 under a
        # prior variance of 1.
        cfg = tmp_path / "k.cfg"
        cfg.write_text("rician_k_db = 400\n")
        out = tmp_path / "out.csv"
        assert main(["gaussian-sweep", "--config", str(cfg), "--out", str(out)]) != 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    # sha256 of CSVs, which rest on libm and IEEE arithmetic only: frontier's
    # as written before frontier and in_region ran over alpha arrays,
    # allocate's as written since it solves the stationarity quadratic in
    # closed form (a start row and an optimum row, not 50 gradient steps),
    # gaussian-sweep's and mimo-surface's as written per grid point, before
    # each ran as one pass over its whole grid. The "off-preset" rows, on
    # _OFF_PRESET_CONFIG (4 antennas, K = 12 dB, order 40, a weight and
    # budget that put the optimal split inside (0, 1)), are as written
    # while each cell type had its own format, before one %.17g template.
    @pytest.mark.parametrize("command, preset, digest", [
        ("gaussian-sweep", "tableI-dbm",
         "2091301a2f16b044491cfc763958f3a0db3c68cd6ebfa5b0168143bacfb87b5c"),
        ("gaussian-sweep", "tableI-normalized",
         "8812a1d139cfcba0583f63ac383214d55a2ce3186f4a86ac730e8149c99cc889"),
        ("mimo-surface", "tableI-dbm",
         "295bc582d1d23a2859504d09a31bb6628d4dbdb69eb80af7057a56f3db73e145"),
        ("mimo-surface", "tableI-normalized",
         "ee9b17a96388a742ed637b6645f4f1441935c5252b59fe770226b0d370610c25"),
        ("frontier", "tableI-dbm",
         "df6d6d86497b26417127e0a01e69ee2a159578c64b8a7935c5143f6ccb081ef1"),
        ("frontier", "tableI-normalized",
         "8279fff928c91caaad86532e665231def644d69d66f8fa87145581ad971441bf"),
        ("allocate", "tableI-dbm",
         "7e1c9fcd16cc00ce078eeb283aa0dc4b529d93d46faa058184dc001c3f06706c"),
        ("allocate", "tableI-normalized",
         "db8eaf7d8e75907ace0ed75aafb8f95f3eecf867182b851314acfc5ae8072c94"),
        ("gaussian-sweep", "off-preset",
         "ada8d30e7ae5524b77c578a252bf3c9cff0ac057b0f0c258ae975fbfc89df404"),
        ("frontier", "off-preset",
         "89b4efcf3748b60e995f9c5a063684b5040e2d463a2df1c2755f7cbc0ddde1e1"),
        ("mimo-surface", "off-preset",
         "69a2ff0f2ae81125226531a6d1708277d641f22bd0d87bef980d09cb3e932c8a"),
        ("allocate", "off-preset",
         "0136c728cfd331d5a1e9c77e64251313db2ed4af6e784e52a3121c4d61f07ff6"),
    ])
    def test_csv_bytes_unchanged(self, command, preset, digest, tmp_path):
        out = tmp_path / "out.csv"
        if preset in PRESETS:
            source = ["--preset", preset]
        else:
            cfg = tmp_path / "off.cfg"
            cfg.write_text(_OFF_PRESET_CONFIG)
            source = ["--config", str(cfg)]
        assert main([command, *source, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["verify", "gaussian-sweep"])
    @pytest.mark.parametrize("text", ["gain_c = 5e-324\nnoise_c = 10\n",
                                      "power = 1e300\nnoise_c = 1e-300\n"],
                             ids=["snr_zero", "snr_inf"])
    def test_degenerate_mean_snr_is_an_error(self, command, text, tmp_path,
                                             capsys):
        # The mean SNR gain_c * power / noise_c rounds to 0 or overflows to
        # inf: verify ended in a raw ValueError traceback on the first, and
        # gaussian-sweep wrote 32 nan cells on the second.
        cfg = tmp_path / "d.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: mean SNR") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line", ["noise_c = 1", "power = 1e300",
                                      "power = 1e-20", "power = 1e-150",
                                      "power = 1e-300", "alloc_c_ai = 1000",
                                      "noise_c = 4e190", "alloc_c_ai = inf"])
    def test_verify_passes_off_preset(self, line, tmp_path):
        # noise_c = 1 puts the optimum inside (0, 1), where a capped gradient
        # loop stopped 0.11 short of it; at power = 1e300 the link slopes
        # are about 1e-299. At power = 1e-20 the reference split compared
        # two objectives that round equal and took the wrong end; the other
        # lines ended in an OverflowError traceback from e^-u in the MI
        # enforcement or u**2 in the closed-form Rayleigh rate, except
        # alloc_c_ai = inf, whose MI check read inf - inf = nan and failed.
        cfg = tmp_path / "v.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "report.txt"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "all checks passed"

    @pytest.mark.parametrize("command", ["allocate", "verify"])
    @pytest.mark.parametrize("c_ai", ["70", "1000"])
    def test_underflowing_latent_noise_is_an_error(self, command, c_ai,
                                                   tmp_path, capsys):
        # N_z = P/(2^C - 1) is subnormal at 70 bits and 0 at 1000: allocate
        # wrote an achieved MI of 70.0037 and inf, verify printed a FAIL.
        cfg = tmp_path / "u.cfg"
        cfg.write_text(f"power = 1e-300\nalloc_c_ai = {c_ai}\n")
        out = tmp_path / "out.txt"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: latent noise") and err.count("\n") == 1
        assert not out.exists()

    def test_allocate_at_extreme_sensing_gain(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("gain_s = 1e300\n")
        out = tmp_path / "a.csv"
        assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        problem = _allocation_problem(parse_config("gain_s = 1e300\n"))
        a_grid, _ = grid_argmax(problem, 10_001)
        assert abs(float(rows[-1][1]) - a_grid) <= 1e-4

    def test_unresolvable_split_is_an_error(self, tmp_path, capsys):
        # Without latent noise the optimal sensing power is about 5e-150 of
        # the total, which no split alpha in [0, 1] can express.
        cfg = tmp_path / "g.cfg"
        cfg.write_text("alloc_c_ai = inf\ngain_s = 1e300\n")
        out = tmp_path / "a.csv"
        assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_past_kappa_overflow(self, tmp_path):
        # 1/expm1(C ln2) overflows from C = 1024 on; kappa is exp(-C ln2) there.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("c_max = 2000\n")
        out = tmp_path / "s.csv"
        assert main(["gaussian-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 8001
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_classical_limit_budget_accepted(self, tmp_path):
        cfg = tmp_path / "classical.cfg"
        cfg.write_text("alloc_c_ai = inf\n")
        assert main(["allocate", "--config", str(cfg),
                     "--out", str(tmp_path / "a.csv")]) == 0

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gaussian-sweep", "--out", str(a)])
        main(["gaussian-sweep", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "norm.csv"
        assert main(["gaussian-sweep", "--preset", "tableI-normalized",
                     "--out", str(out)]) == 0
        assert "tableI-normalized" in out.read_text().splitlines()[0]


class TestCachedParser:
    """main builds its argument parser once; no call may see the flags of
    an earlier one."""

    def test_seed_does_not_leak(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gaussian-sweep", "--seed", "5", "--out", str(a)]) == 0
        assert main(["gaussian-sweep", "--out", str(b)]) == 0
        assert a.read_text().splitlines()[0].endswith(", seed = 5")
        assert b.read_text().splitlines()[0].endswith(f", seed = {RunConfig().seed}")

    def test_quadrature_order_does_not_leak(self, tmp_path):
        a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
        assert main(["gaussian-sweep", "--out", str(a)]) == 0
        assert main(["gaussian-sweep", "--quadrature-order", "40",
                     "--out", str(b)]) == 0
        assert main(["gaussian-sweep", "--out", str(c)]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    def test_usage_error_after_good_call(self, tmp_path, capsys):
        assert main(["frontier", "--out", str(tmp_path / "f.csv")]) == 0
        for argv in (["frontier", "--seed", "x"], ["bogus"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


# The config keys the five commands read; floats are drawn log-uniform in
# magnitude over 1e-300 .. 1e300, with either sign, and fractions around
# [0, 1]. Few keys per config, so that most configs get past the checks
# into the physics.
_FUZZ_FLOAT = st.tuples(st.booleans(), st.floats(-300.0, 300.0)).map(
    lambda t: (-1.0 if t[0] else 1.0) * 10.0 ** t[1])
_FUZZ_KEYS = {
    **{key: _FUZZ_FLOAT for key in (
        "power", "noise_c", "noise_s", "gain_c", "gain_s", "prior_var",
        "c_min", "c_max", "c_step", "rician_k_db", "snr_min_db",
        "snr_max_db", "snr_step_db")},
    **{key: st.floats(-0.25, 1.25) for key in (
        "weight", "alpha0", "alpha_verify")},
    "alloc_c_ai": st.one_of(_FUZZ_FLOAT, st.just(math.inf)),
    "preset": st.sampled_from(PRESETS),
    "mimo_nt": st.integers(0, 9),
    "mimo_nr": st.integers(0, 9),
    "quadrature_order": st.integers(0, 130),
    "seed": st.integers(-5, 2**70),
}
_fuzz_config = st.lists(st.sampled_from(sorted(_FUZZ_KEYS)), min_size=1,
                        max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _FUZZ_KEYS[k] for k in keys}))


def _exit_code_of_clean_run(command, fields, tmp_path):
    """Exit code of command on the config fields, after checking that it
    ends in an output (0), a domain error or failed check (1) or a config
    error (2): never a traceback, never a nan cell, and on an error no
    output and one line on stderr; a failed check prints verify's report."""
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue()
    if rc == 1 and command == "verify" and err.getvalue() == "":
        assert out.getvalue().endswith("one or more checks FAILED\n")
    elif rc != 0:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    return rc


_COMMAND_NAMES = ["gaussian-sweep", "frontier", "mimo-surface", "allocate",
                  "verify"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=_fuzz_config, command=st.sampled_from(_COMMAND_NAMES))
def test_fuzzed_config_exits_cleanly(fields, command, tmp_path):
    _exit_code_of_clean_run(command, fields, tmp_path)


@pytest.mark.parametrize("command, fields, code", [
    ("allocate", {"power": 1e-300}, 0),
    ("allocate", {"alloc_c_ai": 1000.0}, 0),
    ("verify", {"power": 1e-320, "alloc_c_ai": 1e-10}, 0),
    ("frontier", {"power": 1e300, "noise_c": 1e-300}, 1),
    ("allocate", {"power": 1e-300, "alloc_c_ai": 70.0}, 1),
    ("verify", {"power": 1e-300, "alloc_c_ai": 1000.0}, 1),
])
def test_known_configs_exit_cleanly(command, fields, code, tmp_path):
    # Configs that ended in an OverflowError traceback (allocate, verify),
    # or in 201 inf-rate rows and nan cells (frontier) before. In the last
    # two, N_z = P/(2^C - 1) lies below the normal range: allocate wrote an
    # achieved MI of 70.0037 for 70 bits, and verify a FAIL on an MI of inf.
    assert _exit_code_of_clean_run(command, fields, tmp_path) == code
