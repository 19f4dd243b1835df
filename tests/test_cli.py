import argparse
import contextlib
import hashlib
import io
import math
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aiisac import allocate, bottleneck, cli, mimo, numerics, region
from aiisac.allocate import grid_argmax
from aiisac.bottleneck import AiBudget, covariance_map, gaussian_mi
from aiisac.cli import _allocation_problem, _verify_checks, main
from aiisac.config import MAX_GRID_POINTS, PRESETS, RunConfig, parse_config, preset_config
from aiisac.errors import ConfigError
from aiisac.gaussian import ScalarScenario, distortion, effective_snrs, rate
from aiisac.numerics import RandomStream


# An out-of-range value of each float field of RunConfig, and those of each
# integer field.
_FLOAT_OUT_OF_RANGE = {
    "power": 0.0, "noise_c": -1.0, "noise_s": 0.0, "gain_c": -1.0, "gain_s": 0.0,
    "prior_var": 0.0, "c_min": -1.0, "c_max": -0.5, "c_step": 0.0,
    "rician_k_db": 3001.0, "snr_min_db": -3001.0, "snr_max_db": 3001.0,
    "snr_step_db": -1.0, "weight": 1.5, "alpha0": -0.5, "alloc_c_ai": 0.0}
_INT_OUT_OF_RANGE = {"quadrature_order": (0, 129), "mimo_nt": (0, 65),
                     "mimo_nr": (0, 65), "seed": (), "mc_samples": (0,)}
# Each field with a value it rejects: NaN, +-inf, out of range, and for an
# integer field a wrong type. alloc_c_ai = inf is the classical limit.
_BAD_FIELDS = (
    [(name, value) for name, bad in _FLOAT_OUT_OF_RANGE.items()
     for value in (math.nan, math.inf, -math.inf, bad)
     if (name, value) != ("alloc_c_ai", math.inf)]
    + [(name, value) for name, bad in _INT_OUT_OF_RANGE.items()
       for value in (*bad, math.nan, math.inf, -math.inf, 20.5, True, 2.5)]
    + [("preset", "bogus")])


class TestConfig:
    def test_bad_field_table_covers_every_field(self):
        assert ({name for name, _ in _BAD_FIELDS}
                == {field.name for field in fields(RunConfig)})

    @pytest.mark.parametrize("name, value", _BAD_FIELDS)
    def test_bad_field_is_a_config_error_naming_it(self, name, value):
        # quadrature_order = 20.5 and mimo_nt = 2.5 (or 2.5 antennas in any
        # integer field) passed RunConfig; the first made gaussian-sweep exit
        # 1, the second mimo-surface raise a bare TypeError.
        for load in (lambda: RunConfig(**{name: value}),
                     lambda: parse_config(f"{name} = {value}\n")):
            with pytest.raises(ConfigError) as exc:
                load()
            assert name in str(exc.value) or name.replace("_", " ") in str(exc.value)

    @pytest.mark.parametrize("name", sorted(_FLOAT_OUT_OF_RANGE))
    def test_unparsable_float_names_its_field(self, name):
        with pytest.raises(ConfigError, match=f"bad value for '{name}'"):
            parse_config(f"{name} = True\n")

    def test_classical_limit_loads(self):
        assert RunConfig(alloc_c_ai=math.inf).alloc_c_ai == math.inf
        assert parse_config("alloc_c_ai = inf\n").alloc_c_ai == math.inf

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.preset == "tableI-dbm"
        assert cfg.power == 0.01
        assert math.isclose(cfg.rician_k, 10 ** 0.6)

    def test_presets(self):
        assert preset_config("tableI-normalized").power == 10.0
        with pytest.raises(ConfigError):
            preset_config("bogus")

    def test_unknown_preset_field(self):
        # RunConfig built directly checks its preset at the same raise site.
        with pytest.raises(ConfigError, match="unknown preset 'bogus'; choose from"):
            RunConfig(preset="bogus")

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

    def test_line_without_equals_names_it(self):
        with pytest.raises(ConfigError,
                           match="line 2: expected 'key = value', got 'power 0.5'"):
            parse_config("seed = 1\npower 0.5\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("power = banana\n")

    def test_invalid_physical_value(self):
        with pytest.raises(ConfigError):
            parse_config("power = -3\n")

    @pytest.mark.parametrize("c_max, c_step, n", [
        (8.0, 0.25, 33), (8.0, 3.0, 3), (0.8, 0.1, 9), (0.3, 0.1, 4), (1.0, 1 / 3, 4)])
    def test_capacity_axis_stops_at_its_max(self, c_max, c_step, n):
        # round() took a c = 9 step past c_max = 8 at step 3; steps that
        # land on c_max up to rounding (0.8 / 0.1 = 7.999999999999999)
        # still reach it.
        axis = RunConfig(c_max=c_max, c_step=c_step).capacity_axis()
        assert len(axis) == n
        assert axis[-1] <= c_max + 1e-9 * c_step
        assert math.isclose(axis[-1], c_max) or axis[-1] + c_step > c_max

    def test_grid_point_limit_counts_the_built_axis(self):
        # round() counted 10,001 points for this axis of 10,000 and
        # rejected it.
        cfg = RunConfig(c_max=9999.6, c_step=1.0)
        assert len(cfg.capacity_axis()) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="more than"):
            RunConfig(c_max=float(MAX_GRID_POINTS), c_step=1.0)
        with pytest.raises(ConfigError, match="more than"):
            RunConfig(snr_min_db=0.0, snr_max_db=float(MAX_GRID_POINTS),
                      snr_step_db=1.0)


_OFF_PRESET_CONFIG = ("mimo_nt = 4\nmimo_nr = 4\nrician_k_db = 12\n"
                      "quadrature_order = 40\npower = 1\nprior_var = 30\n"
                      "weight = 0.05\nalloc_c_ai = 2\n")
# At 1e300 W and unit noises, N_z = P kappa overflows at 1e-10 bits: allocate
# and verify exited 1 on this config where gaussian-sweep saturated.
_FOUND = {"power": 1e300, "noise_c": 1.0, "noise_s": 1.0, "alloc_c_ai": 1e-10}


def _config_text(fields: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in fields.items())


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

    @pytest.mark.parametrize("command, text, column, points", [
        ("gaussian-sweep", "c_step = 3\n", 0, ["0", "3", "6"]),
        ("mimo-surface", "snr_step_db = 8\n", 1, ["-5", "3", "11", "19"]),
    ])
    def test_axis_ends_at_or_below_its_max(self, command, text, column, points,
                                          tmp_path):
        # Both axes took a last step past their max: a c_ai = 9 row past
        # c_max = 8, and 27 dB columns past snr_max_db = 25.
        cfg = tmp_path / "axis.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert sorted({r[column] for r in rows}, key=float) == points

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

    @pytest.mark.parametrize("text, alpha_star", [("", "1"), ("noise_c = 1\n", "0")],
                             ids=["tableI-dbm", "noise_c_1"])
    def test_boundary_optimum_has_zero_kkt_residual(self, text, alpha_star,
                                                    tmp_path):
        # dJ/dP_c is +10.06 at tableI-dbm's optimum alpha = 1 and -1.02 at
        # noise_c = 1's optimum alpha = 0: both slopes point out of the
        # split, so neither is a KKT violation.
        cfg = tmp_path / "b.cfg"
        cfg.write_text(text)
        out = tmp_path / "alloc.csv"
        assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = out.read_text().splitlines()[0]
        assert f"alpha_star = {alpha_star}," in summary
        assert summary.endswith("kkt_residual = 0")

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
        ("verify", "alpha_verify = 0.6"),  # a deleted key is unknown
        ("gaussian-sweep", "c_step = 1e-9"),
        ("gaussian-sweep", "c_step = 5e-324"),
        ("mimo-surface", "snr_step_db = 1e-7"),
        ("mimo-surface", "snr_max_db = 1e300"),
        ("mimo-surface", "mimo_nt = 65"),
        ("frontier", "power 0.5"),
        ("gaussian-sweep", "rician_k_db = 3001"),
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
    # allocate's as written since its achieved_mi column is the MI of the
    # closed-form latent noise N_z = P/(2^C - 1) its SNRs use, not of a
    # root-found one (the column read 3.9999999999999964, 4.0000000000000036
    # and 1.9999999999999987 on the three configs, now 3.9999999999999996,
    # 4 and 2; alpha_star, J_star, kkt_residual and the objective column
    # unchanged),
    # mimo-surface's as written per grid point, before it ran as one pass
    # over its whole grid, gaussian-sweep's fading columns as written since
    # its Gauss rules come from numpy.polynomial (each cell within 4e-15
    # relative of the scipy.special rules' output) and its AWGN columns as
    # written since they come from gaussian.link_snrs at N_z = P kappa, as
    # gaussian.rate and distortion give them, not from the unit-gain SNR
    # g / (1 + g kappa) of the mean SNR g (only rate_awgn and dist_awgn cells
    # moved then, in 3 of 33 rows on tableI-dbm, by at most 11 ulps, and in
    # 13 of 33 on tableI-normalized and 12 of 33 off-preset, by at most 2
    # ulps). The other "off-preset" rows, on
    # _OFF_PRESET_CONFIG (4 antennas, K = 12 dB, order 40, a weight and
    # budget that put the optimal split inside (0, 1)), are as written
    # while each cell type had its own format, before one %.17g template.
    @pytest.mark.parametrize("command, preset, digest", [
        ("gaussian-sweep", "tableI-dbm",
         "a504c5be8cb582f7c4edd18f5e4cdd9fd9c587fa1e0295b7329b1b33b5eec667"),
        ("gaussian-sweep", "tableI-normalized",
         "478ccefe789366c02f5e476bf550d5a39c77ee95f0c47af35581b9daea261040"),
        ("mimo-surface", "tableI-dbm",
         "295bc582d1d23a2859504d09a31bb6628d4dbdb69eb80af7057a56f3db73e145"),
        ("mimo-surface", "tableI-normalized",
         "ee9b17a96388a742ed637b6645f4f1441935c5252b59fe770226b0d370610c25"),
        ("frontier", "tableI-dbm",
         "df6d6d86497b26417127e0a01e69ee2a159578c64b8a7935c5143f6ccb081ef1"),
        ("frontier", "tableI-normalized",
         "8279fff928c91caaad86532e665231def644d69d66f8fa87145581ad971441bf"),
        ("allocate", "tableI-dbm",
         "85b825d117ec113b2809a4f84bd2fe0d74fc6d97d609734b42eb4145391f9606"),
        ("allocate", "tableI-normalized",
         "fd9ddbeb1477366d52c4b0719e1907501e8f19eb817ba174e120f4248752c43e"),
        ("gaussian-sweep", "off-preset",
         "7c6e3abde4dbd5f53c53c80f0fa9f9d50344d1ce589285d5008454105c47710f"),
        ("frontier", "off-preset",
         "89b4efcf3748b60e995f9c5a063684b5040e2d463a2df1c2755f7cbc0ddde1e1"),
        ("mimo-surface", "off-preset",
         "69a2ff0f2ae81125226531a6d1708277d641f22bd0d87bef980d09cb3e932c8a"),
        ("allocate", "off-preset",
         "ba09790f0546b22d70b36bc2dbc8fb1c30d87323b7fc2eaf2d52a36c68b453fa"),
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

    @pytest.mark.parametrize("preset", [*PRESETS, "off-preset", "found"])
    def test_sweep_awgn_columns_are_the_scalar_link(self, preset, tmp_path):
        # The AWGN cells once came from an SNR of their own and differed
        # from frontier's in the last digits (5 cells on tableI-normalized).
        # On the found config, with the capacity axis at 1e-10 bits, rate()
        # and distortion() raised where N_z = P kappa overflows.
        if preset in PRESETS:
            source, cfg = ["--preset", preset], preset_config(preset)
        else:
            text = (_OFF_PRESET_CONFIG if preset == "off-preset" else
                    _config_text({**_FOUND, "c_min": 1e-10, "c_max": 1e-10}))
            path = tmp_path / "off.cfg"
            path.write_text(text)
            source, cfg = ["--config", str(path)], parse_config(text)
        sweep, front = tmp_path / "sweep.csv", tmp_path / "front.csv"
        assert main(["gaussian-sweep", *source, "--out", str(sweep)]) == 0
        assert main(["frontier", *source, "--out", str(front)]) == 0
        header, rows = read_csv(sweep)
        i_rate, i_dist = header.index("rate_awgn"), header.index("dist_awgn")
        sc = cli._scenario(cfg)
        for row in rows:
            budget = AiBudget(float(row[0]))
            assert float(row[i_rate]) == rate(sc, budget)
            assert float(row[i_dist]) == distortion(sc, budget)
        # rate at alpha = 1 and distortion at alpha = 0, as written by frontier
        ends = {(r[0], r[1]): r for r in read_csv(front)[1] if r[1] in ("0", "1")}
        awgn = {r[0]: (r[i_rate], r[i_dist]) for r in rows}
        # The found config's axis holds none of frontier's budgets.
        for c in ("0.5", "2", "4", "6") if preset != "found" else ():
            assert awgn[c] == (ends[c, "1"][2], ends[c, "0"][3])

    @pytest.mark.parametrize("target", ["missing/dir/out.csv", "."])
    def test_unwritable_out_path_exit_code(self, target, tmp_path, capsys):
        out = tmp_path / target
        assert main(["frontier", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.is_file()

    # sha256 of verify's report as written since allocate reports the MI of
    # the closed-form latent noise: only optimizer_mi_max_dev moved, from
    # 3.6e-15, 3.6e-15 and 1.3e-15 to 4.4e-16, 0 and 0 on the three configs.
    # Since verify measures distortions in units of sigma^2, only the
    # off-preset (sigma^2 = 30) theory_vs_achieved_max_dev moved, from
    # 7.1e-15 to 1.3e-15; at sigma^2 = 1 the report is byte-identical.
    @pytest.mark.parametrize("preset, digest", [
        ("tableI-dbm",
         "47284c93a2b3b724a9249395872e6eeb713bbda0b87a316940bac6b5d9a2857e"),
        ("tableI-normalized",
         "fadb8c69469e005615ba0a9783c36957b5b4726d32a2eebe1a01757325bd672b"),
        ("off-preset",
         "a3d759b1b7de87dfbdf4aadd3359070a40665b8ec9c8c7f173eefed1b86ab1b9"),
    ])
    def test_verify_bytes_unchanged(self, preset, digest, tmp_path):
        self.test_csv_bytes_unchanged("verify", preset, digest, tmp_path)

    @pytest.mark.parametrize("command", ["allocate", "frontier", "gaussian-sweep",
                                         "mimo-surface"])
    @pytest.mark.parametrize("preset", [*PRESETS, "off-preset"])
    def test_csv_commands_find_no_roots(self, command, preset, monkeypatch,
                                        tmp_path):
        # Root finding is a reference, for verify and the tests: the CSV
        # commands run on closed forms alone (allocate solved for its latent
        # noise by Brent's method once per run).
        def no_root(*args, **kwargs):
            raise AssertionError("find_root called")

        for mod in (numerics, bottleneck, allocate):
            monkeypatch.setattr(mod, "find_root", no_root)
        if preset in PRESETS:
            source = ["--preset", preset]
        else:
            cfg = tmp_path / "off.cfg"
            cfg.write_text(_OFF_PRESET_CONFIG)
            source = ["--config", str(cfg)]
        assert main([command, *source, "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_frontier_matches_per_row_writer(self, seed, tmp_path):
        # The writer frontier had before it formatted each distinct cell
        # once: six %.17g cells per row, with the baseline computed from the
        # scenario (rate tau * log2(1 + g_c), the frontier's distortion).
        rng = np.random.default_rng(seed)
        fields = {"power": 10 ** rng.uniform(-6, 6),
                  **{key: 10 ** rng.uniform(-3, 3)
                     for key in ("gain_c", "gain_s", "noise_c", "noise_s")},
                  "prior_var": 10 ** rng.uniform(-3, 150)}
        text = "".join(f"{key} = {value!r}\n" for key, value in fields.items())
        path = tmp_path / "f.cfg"
        path.write_text(text)
        out = tmp_path / "front.csv"
        assert main(["frontier", "--config", str(path), "--out", str(out)]) == 0

        cfg = parse_config(text)
        sc = ScalarScenario(cfg.power, cfg.gain_c, cfg.gain_s, cfg.noise_c,
                            cfg.noise_s, cfg.prior_var)
        taus = np.linspace(0.0, 1.0, 201)
        lines = [f"# preset = {cfg.preset}, seed = {cfg.seed}",
                 "c_ai,alpha,rate,distortion,baseline_rate,baseline_distortion"]
        for c in (0.5, 2.0, 4.0, 6.0, math.inf):
            g_c, g_s = effective_snrs(sc, AiBudget(c))
            rates = [math.log2(1.0 + a * g_c) for a in taus.tolist()]
            dists = (cfg.prior_var / (1.0 + (1.0 - taus) * g_s)).tolist()
            base = (taus * math.log2(1.0 + g_c)).tolist()
            lines += [",".join(["%.17g"] * 6) % row
                      for row in zip([c] * 201, taus.tolist(), rates, dists, base, dists)]
        # Line lists, so that a failure reports the first differing line.
        assert out.read_text(encoding="utf-8").split("\n") == [*lines, ""]

    @pytest.mark.parametrize("prior_var", [5e-324, 1e-300, 1.0, 1e300])
    def test_frontier_writer_matches_write_csv(self, prior_var, tmp_path):
        # Distortion cells of 0, subnormals and exponent forms, which each
        # budget's one format-and-split of its distortions must keep: at
        # power 10 the sensing SNR reaches 100, so 5e-324 gives 0 and 5e-324.
        cfg = replace(preset_config("tableI-normalized"), prior_var=prior_var)
        sc = cli._scenario(cfg)
        fronts = [region.frontier(sc, AiBudget(c)) for c in cli.FRONTIER_BUDGETS]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.cmd_frontier(cfg, str(a)) == 0
        cli._write_csv(str(b), cli._header(cfg),
                       ["c_ai", "alpha", "rate", "distortion", "baseline_rate",
                        "baseline_distortion"],
                       [(c, alpha, r, d, br, d) for c, front in zip(cli.FRONTIER_BUDGETS, fronts)
                        for alpha, r, d, br in zip(
                            front.alphas.tolist(), front.rates.tolist(),
                            front.distortions.tolist(),
                            region.separated_baseline(front).rates.tolist())])
        assert a.read_bytes() == b.read_bytes()
        # Every frontier, of any scenario, shares one read-only alpha grid.
        fronts.append(region.frontier(cli._scenario(RunConfig()), AiBudget(1.0)))
        assert all(front.alphas is fronts[0].alphas for front in fronts)
        assert not fronts[0].alphas.flags.writeable

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 20240817, 2**31 - 1])
    def test_covariance_check_matches_per_point_loop(self, preset, seed):
        # The per-point loop verify ran before its stacked passes.
        rng = RandomStream(seed=seed, stream=7).generator()
        dev = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q = a @ a.conj().T
            c = float(rng.uniform(0.5, 8.0))
            dev = max(dev, abs(gaussian_mi(q, covariance_map(q, c)) - c))
        checks = _verify_checks(replace(preset_config(preset), seed=seed))
        assert [name for name, *_ in checks] == [
            "theory_vs_achieved_max_dev", "covariance_map_mi_max_dev",
            "rayleigh_anchor_dev", "frontier_nesting_violation",
            "optimizer_alpha_err", "optimizer_mi_max_dev",
            "objective_max_decrease"]
        assert checks[1][1] == dev

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

    def test_sweep_saturates_where_the_latent_noise_overflows(self, tmp_path):
        # At 1e300 W and 1e-10 bits, N_z = P kappa and x gamma kappa overflowed:
        # rate_awgn read 0, rate_rayleigh 1.09e-12 and rate_rician 8.1e-15
        # where 1e290 W gives about 1e-10 in all three.
        rows = {}
        for power in ("1e300", "1e290"):
            cfg = tmp_path / f"p{power}.cfg"
            cfg.write_text(f"power = {power}\nnoise_c = 1\nnoise_s = 1\n"
                           "c_min = 1e-10\nc_max = 1e-10\n")
            out = tmp_path / f"p{power}.csv"
            assert main(["gaussian-sweep", "--config", str(cfg), "--out", str(out)]) == 0
            header, rows[power] = read_csv(out)
        (big,), (less,) = rows["1e300"], rows["1e290"]
        for name, got, want in zip(header, big, less):
            assert math.isclose(float(got), float(want), rel_tol=1e-12), name
        assert all(math.isclose(float(v), 1e-10, rel_tol=1e-5) for v in big[1:4])

    def test_sweep_below_the_smallest_capacity_with_a_finite_kappa(self, tmp_path):
        # kappa = 1/(2^C - 1) overflows below about 8e-309 bits, and the sweep
        # exited 1 with "kappa must be >= 0 and finite, got inf". Such rows
        # read as the c = 0 row, and the rows after them are unchanged.
        def sweep(text):
            cfg, out = tmp_path / "c.cfg", tmp_path / "c.csv"
            cfg.write_text(text)
            assert main(["gaussian-sweep", "--config", str(cfg), "--out", str(out)]) == 0
            return out.read_text()

        assert sweep("c_min = 5e-324\nc_max = 5e-324\n") == (
            "# preset = tableI-dbm, seed = 20240817\n"
            "c_ai,rate_awgn,rate_rayleigh,rate_rician,dist_awgn,dist_rayleigh,dist_rician\n"
            "4.9406564584124654e-324,0,0,0,1,1,1\n")
        low = sweep("c_min = 0\nc_max = 2\nc_step = 1\n").splitlines()
        tiny = sweep("c_min = 1e-309\nc_max = 2\nc_step = 1\n").splitlines()
        assert tiny[2] == "1.0000000000000019e-309,0,0,0,1,1,1"
        assert low[2] == "0,0,0,0,1,1,1" and tiny[3:] == low[3:]

    @pytest.mark.parametrize("c_ai", [1e-10, 5e-9])
    def test_allocate_and_verify_saturate_where_the_latent_noise_overflows(
            self, c_ai, tmp_path):
        # N_z = P kappa overflows at 1e300 W: both exited 1 with "N_z = P /
        # (2^C - 1) overflows". The SNRs saturate at 1/kappa by 1e290 W.
        def config(power):
            path = tmp_path / f"p{power:g}.cfg"
            path.write_text(_config_text({**_FOUND, "power": power, "alloc_c_ai": c_ai}))
            return str(path)

        outs = {power: tmp_path / f"p{power:g}.csv" for power in (1e300, 1e290)}
        for power, out in outs.items():
            assert main(["allocate", "--config", config(power), "--out", str(out)]) == 0
        assert outs[1e300].read_bytes() == outs[1e290].read_bytes()
        report = tmp_path / "report.txt"
        assert main(["verify", "--config", config(1e300), "--out", str(report)]) == 0
        assert report.read_text().splitlines()[-1] == "all checks passed"

    def test_frontier_saturates_where_the_latent_noise_overflows(self, tmp_path):
        # N_z = P kappa overflows at 1e308 W and 0.5 bits, where frontier
        # exited 1; at 7e307 W it is finite.
        rows = {}
        for power in ("1e308", "7e307"):
            cfg = tmp_path / f"p{power}.cfg"
            cfg.write_text(f"power = {power}\nnoise_c = 1\nnoise_s = 1\n")
            out = tmp_path / f"p{power}.csv"
            assert main(["frontier", "--config", str(cfg), "--out", str(out)]) == 0
            rows[power] = [r for r in read_csv(out)[1] if r[0] != "inf"]
        assert len(rows["1e308"]) == len(rows["7e307"]) == 4 * 201
        for big, less in zip(rows["1e308"], rows["7e307"]):
            assert big[:2] == less[:2]
            for got, want in zip(big[2:], less[2:]):
                assert math.isclose(float(got), float(want), rel_tol=1e-12)

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
    """main keeps no parser state between calls; no call may see the flags
    of an earlier one."""

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


def _counting(fn, name, counts):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


class TestMimoSurfacePath:
    """mimo-surface checks and formats each input once."""

    @pytest.mark.parametrize("text", [
        "", "mimo_nt = 64\nmimo_nr = 64\nsnr_step_db = 10\n"], ids=["one_block", "blocks"])
    def test_one_psd_decomposition_per_matrix(self, text, tmp_path, monkeypatch):
        # One eigh for R_c's PSD test, one stacked eigh per block (the
        # scaled Q's, also Q's PSD test) and two stacked Choleskys per
        # block, all through the one eigh of bottleneck._check_psd, and no
        # MimoScenario with its sensing fields.
        cfg_path = tmp_path / "surface.cfg"
        cfg_path.write_text(text)
        cfg = parse_config(text)
        per_block = max(1, mimo._BLOCK // (len(cli.HALF_BIT_BUDGETS) * cfg.mimo_nt ** 2))
        blocks = -(-len(cfg.snr_axis_db()) // per_block)
        counts = Counter()
        for name in ("eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name,
                                _counting(getattr(np.linalg, name), name, counts))
        monkeypatch.setattr(mimo.MimoScenario, "__post_init__",
                            _counting(mimo.MimoScenario.__post_init__, "MimoScenario",
                                      counts))
        assert main(["mimo-surface", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert counts == {"eigh": blocks + 1, "cholesky": 2 * blocks}

    @pytest.mark.parametrize("fields", [
        dict(snr_min_db=-7.3, snr_step_db=0.1, snr_max_db=-3.0),
        dict(snr_min_db=-7.3, snr_step_db=0.7, snr_max_db=11.0),
        dict(snr_min_db=-7.3, snr_max_db=-7.3),
        dict(snr_min_db=0.0, snr_step_db=2.0, snr_max_db=1.0),
    ], ids=["step_0.1", "step_0.7", "one_point_negative", "one_point_zero"])
    @pytest.mark.parametrize("c_grid", [cli.HALF_BIT_BUDGETS, (0.1, 1 / 3, 7.7, math.inf)],
                             ids=["half_bits", "fractional"])
    def test_surface_writer_matches_write_csv(self, fields, c_grid, tmp_path):
        # The pinned digests cover only whole-dB axes and half-bit capacities.
        snr_db = RunConfig(**fields).snr_axis_db()
        rng = np.random.default_rng(len(snr_db))
        surface = 10.0 ** rng.uniform(-300.0, 300.0, size=(len(c_grid), len(snr_db)))
        surface[0, 0] = 0.0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli._write_surface(str(a), "h", c_grid, snr_db, surface)
        cli._write_csv(str(b), "h", ["c_ai", "snr_db", "rate"],
                       [(c, snr, rate) for c, rates in zip(c_grid, surface.tolist())
                        for snr, rate in zip(snr_db, rates)])
        assert a.read_bytes() == b.read_bytes()


class TestVerifyPath:
    """verify decomposes each dimension group of its random Q's once."""

    @pytest.mark.parametrize("seed", [0, 1, 3, 12345])
    def test_one_psd_decomposition_per_dimension_group(self, seed, tmp_path, monkeypatch):
        # Each Q = a a^H is full rank, so a dimension group is one rank group:
        # one eigh and two stacked Choleskys (R_z, then R_z + Q) per group,
        # and no other factorization anywhere in verify.
        cfg = replace(RunConfig(), seed=seed)
        rng = RandomStream(seed=seed, stream=7).generator()
        dims = set()
        for _ in range(20):  # verify's draws, in its order
            n = int(rng.integers(1, 5))
            rng.normal(size=(2, n, n))
            rng.uniform(0.5, 8.0)
            dims.add(n)
        counts = Counter()
        for name in ("eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name,
                                _counting(getattr(np.linalg, name), name, counts))
        assert cli.cmd_verify(cfg, str(tmp_path / "v.txt")) == 0
        assert counts == {"eigh": len(dims), "cholesky": 2 * len(dims)}


def _argparse_reference(argv: list[str]) -> tuple[str, RunConfig, str | None]:
    """(command, RunConfig, --out) of argv as the argparse front end read
    them: one flat parser, --preset as the base of --config, then --seed
    and --quadrature-order."""
    parser = argparse.ArgumentParser(prog="aiisac")
    parser.add_argument("command", choices=tuple(cli._COMMANDS))
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--quadrature-order", type=int)
    parser.add_argument("--preset", choices=PRESETS)
    args = parser.parse_args(argv)
    cfg = preset_config(args.preset) if args.preset else None
    if args.config is not None:
        with open(args.config, encoding="utf-8") as f:
            cfg = parse_config(f.read(), base=cfg)
    flags = {k: v for k in ("seed", "quadrature_order")
             if (v := getattr(args, k)) is not None}
    cfg = replace(cfg or RunConfig(), **flags)
    return args.command, cfg, args.out


class TestConfigLoad:
    """argv to one validated RunConfig: one flat parser, one construction.
    The getopt front end accepts every form the argparse one did, with the
    same result, and rejects the same argvs with a usage error."""

    @staticmethod
    def _run(monkeypatch, argv: list[str]) -> tuple[str, RunConfig, str | None]:
        """The (command, RunConfig, --out) main hands to the command, which
        is stubbed out."""
        seen = []
        for name in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, name, lambda cfg, out, name=name:
                                seen.append((name, cfg, out)) or 0)
        assert main(argv) == 0
        (call,) = seen
        return call

    @pytest.mark.parametrize("preset", PRESETS)
    def test_config_file_overrides_preset_flag(self, preset, tmp_path,
                                               monkeypatch):
        path = tmp_path / "f.cfg"
        path.write_text("noise_c = 0.2\nweight = 0.5\n")
        _, cfg, _ = self._run(monkeypatch, ["allocate", "--preset", preset,
                                            "--config", str(path)])
        assert cfg == replace(preset_config(preset), noise_c=0.2, weight=0.5)

    def test_keys_before_the_preset_line_are_kept(self):
        cfg = parse_config("noise_c = 0.2\npreset = tableI-normalized\nseed = 3\n")
        assert cfg == replace(preset_config("tableI-normalized"), noise_c=0.2,
                              seed=3)

    def test_parse_config_overrides_base(self):
        base = replace(preset_config("tableI-normalized"), weight=0.5, seed=3)
        cfg = parse_config("noise_s = 0.3\nseed = 9\n", base=base)
        assert cfg == replace(base, noise_s=0.3, seed=9)
        assert parse_config("", base=base) == base

    @pytest.mark.parametrize("argv", [
        ["--preset", "tableI-normalized", "verify"],
        ["--seed", "5", "verify", "--preset", "tableI-normalized"],
    ])
    def test_options_may_precede_the_command(self, argv, monkeypatch):
        _, cfg, _ = self._run(monkeypatch, argv)
        assert cfg.preset == "tableI-normalized" and cfg.power == 10.0
        assert cfg.seed == (5 if "--seed" in argv else RunConfig().seed)

    def test_help_lists_every_command(self, capsys):
        for argv in (["--help"], ["allocate", "-h"], ["--he", "verify"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out, err = capsys.readouterr()
            assert err == "" and all(word in out for word in [
                *cli._COMMANDS, *PRESETS, "-h", "--config", "--out", "--seed",
                "--quadrature-order", "--preset"])

    @pytest.mark.parametrize("text", ["", "weight = 0.5\n",
                                      "preset = tableI-normalized\nseed = 3\n"])
    def test_one_validation_per_config_load(self, text, tmp_path, monkeypatch):
        # Each RunConfig built runs __post_init__ once: a --config load with
        # no override flags builds exactly one.
        calls = []
        validate = RunConfig.__post_init__
        monkeypatch.setattr(RunConfig, "__post_init__",
                            lambda self: calls.append(1) or validate(self))
        path = tmp_path / "f.cfg"
        path.write_text(text)
        self._run(monkeypatch, ["allocate", "--config", str(path)])
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["allocate", "--config=@"],
        ["allocate", "--conf", "@"],
        ["allocate", "--seed", "1", "--seed", "2"],
        ["allocate", "--preset", "tableI-dbm", "--preset=tableI-normalized"],
        ["--out=a.csv", "frontier", "--out", "b.csv"],
        ["--quad", "40", "gaussian-sweep", "--s=7", "--o", "x.csv"],
        ["--preset", "tableI-normalized", "--config", "@", "verify", "--out",
         "o.csv", "--seed", "5"],
        ["mimo-surface", "--seed", "-5", "--quadrature-order=64"],
    ])
    def test_accepted_forms_match_argparse(self, argv, tmp_path, monkeypatch):
        path = tmp_path / "f.cfg"
        path.write_text("noise_c = 0.2\nseed = 3\n")
        argv = [a.replace("@", str(path)) for a in argv]
        assert self._run(monkeypatch, argv) == _argparse_reference(argv)

    @pytest.mark.parametrize("argv", [
        ["allocate", "--bogus"],
        ["allocate", "--seed"],
        ["allocate", "--seed", "x"],
        ["allocate", "--quadrature-order", "1.5"],
        ["allocate", "--preset", "bogus"],
        [],
        ["bogus"],
        ["allocate", "verify"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as ref:
            _argparse_reference(argv)
        assert ref.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage:") and "Traceback" not in err

    def test_entry_point_reads_sys_argv(self, tmp_path, monkeypatch):
        # pyproject.toml's aiisac script calls main() with no argv.
        out = tmp_path / "f.csv"
        monkeypatch.setattr(sys, "argv", ["aiisac", "frontier", "--out", str(out)])
        assert main() == 0
        assert out.read_text().startswith("# preset = tableI-dbm")

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_parse_alike(self, newline, tmp_path, monkeypatch):
        lines = [b"# a comment", b"[link]", b"noise_c = 0.2", b"", b"seed = 3  # x"]
        paths = {}
        for name, sep in (("lf", b"\n"), ("other", newline)):
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_bytes(sep.join(lines) + sep)
        lf, other = (self._run(monkeypatch, ["allocate", "--config", str(paths[n])])
                     for n in ("lf", "other"))
        assert other == lf and lf[1] == replace(RunConfig(), noise_c=0.2, seed=3)

    def test_invalid_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"noise_c = 0.2\nseed = \xff\n")
        assert main(["allocate", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_import_loads_no_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, aiisac.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout == "False\n"


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
    **{key: st.floats(-0.25, 1.25) for key in ("weight", "alpha0")},
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


def _check_verdicts(report, rc):
    """Every line of a verify report reads PASS exactly where its observed
    value is at most its tolerance, and the exit code and last line say
    whether all did."""
    lines = report.splitlines()
    verdicts = []
    for line in lines[1:-1]:
        verdict, rest = line.split(" ", 1)
        observed, tol = (float(f.split(" = ")[1]) for f in rest.split(": ", 1)[1].split(", "))
        assert verdict == ("PASS" if observed <= tol else "FAIL"), line
        verdicts.append(verdict)
    assert len(verdicts) == 7
    ok = set(verdicts) == {"PASS"}
    assert rc == (0 if ok else 1)
    assert lines[-1] == ("all checks passed" if ok else "one or more checks FAILED")


def _exit_code_of_clean_run(command, fields, tmp_path):
    """Exit code of command on the config fields, after checking that it
    ends in an output (0), a domain error or failed check (1) or a config
    error (2): never a traceback, never a nan cell, and on an error no
    output and one line on stderr; a failed check prints verify's report."""
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(_config_text(fields))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue()
    if command == "verify" and err.getvalue() == "":
        _check_verdicts(out.getvalue(), rc)
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
    ("allocate", {"gain_c": 1e300, "noise_c": 1e-5, "gain_s": 1e-10,
                  "alloc_c_ai": math.inf}, 0),
    ("verify", {"gain_c": 1e300, "noise_c": 1e-5, "gain_s": 1e-10,
                "alloc_c_ai": math.inf}, 0),
    ("verify", {"power": 1e308}, 1),
    ("mimo-surface", {"noise_c": 1e308}, 0),
    ("mimo-surface", {"power": 1e307}, 1),
    ("gaussian-sweep", {"rician_k_db": 2000.0}, 1),
    ("frontier", {"prior_var": 1e-300, "noise_s": 1e-300}, 0),
    ("gaussian-sweep", {"power": 1e300, "noise_c": 1.0, "noise_s": 1.0,
                        "c_min": 1e-10, "c_max": 1e-10}, 0),
    ("allocate", _FOUND, 0),
    ("verify", _FOUND, 0),
    ("frontier", {"power": 1e308, "noise_c": 1.0, "noise_s": 1.0}, 0),
    ("verify", {"alloc_c_ai": 5e-324}, 0),
    ("gaussian-sweep", {"prior_var": 1.7976931348623157e308, "quadrature_order": 128,
                        "c_min": 1e-300, "c_max": 1e-300}, 1),
])
def test_known_configs_exit_cleanly(command, fields, code, tmp_path):
    # Configs that ended in an OverflowError traceback (allocate, verify),
    # or in 201 inf-rate rows and nan cells (frontier) before. In the last
    # two, N_z = P/(2^C - 1) lies below the normal range: allocate wrote an
    # achieved MI of 70.0037 for 70 bits, and verify a FAIL on an MI of inf.
    # In the last two, g_c / g_s overflows: allocate wrote a nan optimum.
    # Then: N_z overflows (verify at 1e308 W); the Hermitian part of
    # R_c = 1e308 I overflowed into 496 nan rows; zeta Q and R_c + H R_z H^H
    # overflow into nan and inf rates at 1e307 W; the K = 2000 dB weights
    # printed numpy warnings; the distortion underflows to 0, a plain
    # ValueError traceback from Frontier, then rejected with exit 1 though
    # gaussian.distortion returns the same 0; and N_z = P kappa and x gamma kappa
    # overflow at 1e300 W and 1e-10 bits, where the sweep wrote SNRs of 0;
    # and N_z = P kappa overflows at 1e300 W and 1e-10 bits (allocate and
    # verify) and at 1e308 W and 0.5 bits (frontier), which exited 1; and
    # at 5e-324 bits both SNRs are 0, J is flat, and verify failed its
    # optimizer check on a Brent reference of alpha = 1e-12 against 1. Last,
    # an MMSE near the largest prior sums past the float range: the sweep
    # wrote an inf distortion after a numpy overflow warning.
    assert _exit_code_of_clean_run(command, fields, tmp_path) == code


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("prior_var", [1e7, 1e10, 1e300, 5e-324])
def test_commands_agree_on_extreme_prior_var(preset, prior_var, tmp_path):
    # verify measured distortions in absolute units against 1e-9 and failed
    # on tableI-normalized at the first three; at 5e-324 the distortion
    # rounds to 0, which frontier and verify rejected.
    fields = {"preset": preset, "prior_var": prior_var}
    for command in _COMMAND_NAMES:
        assert _exit_code_of_clean_run(command, fields, tmp_path) == 0
