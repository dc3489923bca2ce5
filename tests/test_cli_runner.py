import json

import pytest

from critherm.cli_runner import (
    main,
    parse_config,
    replay_manifest,
    resolve,
    run,
    validate,
)
from critherm.errors import SchemaError

MAGNETIZE = """\
[run]
kind = magnetize

[magnet]
m_sat_apm = 3.626e5
radius_m = 100e-9
tc_k = 340.0

[grids]
temp_start_k = 300.0
temp_stop_k = 360.0
temp_step_k = 2.0
"""

SPECTRUM = """\
[run]
kind = spectrum
seed = 41

[magnet]
material = cuni74_milled
radius_m = 100e-9

[assembly]
n_nv = 120

[grids]
temp_k = 336.15
"""

TRACK = """\
[run]
kind = track
seed = 11

[magnet]
m_sat_apm = 6.0e4
radius_m = 100e-9
tc_k = 340.0

[assembly]
n_nv = 150

[protocol]
dwell_s = 0.005
low_k = 335.40
high_k = 336.90
period_s = 4.8
bin_s = 0.06
duration_s = 9.6
"""

SWEEP = """\
[run]
kind = design-sweep
seed = 23

[magnet]
radius_m = 100e-9

[assembly]
n_nv = 60

[grids]
x_start = 0.60
x_stop = 0.80
x_step = 0.10
"""

SENSITIVITY = """\
[run]
kind = sensitivity
seed = 19

[magnet]
material = cuni74_milled
radius_m = 100e-9

[assembly]
n_nv = 80

[grids]
temp_start_k = 334.0
temp_stop_k = 338.0
temp_step_k = 2.0
"""


SHOT_NOISE_NO_WINDOW = """\
[run]
kind = shot-noise
seed = 9

[magnet]
material = cuni74_milled
radius_m = 100e-9

[assembly]
n_nv = 60

[grids]
temp_k = 339.0

[protocol]
dwell_s = 0.005
total_time_s = 1.0
window_grid_s = 0.6 1.2
"""

SHOT_NOISE = SHOT_NOISE_NO_WINDOW.replace("window_grid_s = 0.6 1.2",
                                         "window_grid_s = 0.06 0.12")

# every 60 ms point straddles a switch of the 0.1 s square wave
TRACK_ALL_MIXED = TRACK.replace("period_s = 4.8", "period_s = 0.1")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParsing:
    def test_round_trip_values(self):
        raw = parse_config(MAGNETIZE)
        assert raw["run"]["kind"] == "magnetize"
        assert raw["magnet"]["tc_k"] == "340.0"

    def test_unknown_key_is_hard_error(self):
        bad = MAGNETIZE + "\nmsat_apm = 1.0\n"
        with pytest.raises(SchemaError, match="grids.msat_apm"):
            resolve(parse_config(bad))

    def test_unknown_section(self):
        bad = MAGNETIZE + "\n[extras]\nfoo = 1\n"
        with pytest.raises(SchemaError, match="extras"):
            resolve(parse_config(bad))

    def test_missing_required_key(self):
        bad = MAGNETIZE.replace("temp_step_k = 2.0\n", "")
        with pytest.raises(SchemaError, match="grids.temp_step_k"):
            resolve(parse_config(bad))

    def test_descending_grid_names_field(self):
        bad = MAGNETIZE.replace("temp_stop_k = 360.0", "temp_stop_k = 250.0")
        with pytest.raises(SchemaError, match="temp_start_k"):
            resolve(parse_config(bad))

    def test_missing_seed_on_stochastic_kind(self):
        bad = SPECTRUM.replace("seed = 41\n", "")
        with pytest.raises(SchemaError, match="run.seed"):
            resolve(parse_config(bad))

    def test_tc_and_composition_mutually_exclusive(self):
        bad = MAGNETIZE.replace("tc_k = 340.0", "tc_k = 340.0\ncomposition_x = 0.74")
        with pytest.raises(SchemaError, match="exactly one"):
            resolve(parse_config(bad))

    def test_duplicate_key(self):
        bad = MAGNETIZE + "\n[magnet2]\n"
        with pytest.raises(SchemaError):
            resolve(parse_config(bad))
        with pytest.raises(SchemaError, match="duplicate"):
            parse_config(MAGNETIZE.replace(
                "[grids]", "tc_k = 1.0\n[grids]"))

    def test_material_lookup(self):
        resolved = resolve(parse_config(SPECTRUM))
        assert resolved["magnet"]["m_sat_apm"] == pytest.approx(6.0e4)
        assert resolved["magnet"]["tc_k"] == pytest.approx(340.0)

    def test_sweep_rejects_m_sat(self):
        bad = SWEEP.replace("radius_m = 100e-9", "radius_m = 100e-9\nm_sat_apm = 1e5")
        with pytest.raises(SchemaError, match="magnet.m_sat_apm"):
            resolve(parse_config(bad))


class TestValidate:
    def test_ok_report_echoes_defaults(self, tmp_path):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        report = validate(p)
        assert report.endswith("ok")
        assert "assembly" not in report.split("resolved defaults:")[0]
        assert "grids.temp_step_k = 2.0" in report

    def test_overlap_named(self, tmp_path):
        text = SPECTRUM.replace("n_nv = 120", "n_nv = 120\nfnd_center_m = 0 0 120e-9")
        p = write(tmp_path, "overlap.cfg", text)
        from critherm.errors import GeometryError
        with pytest.raises(GeometryError, match="overlap"):
            validate(p)

    def test_no_fittable_shot_noise_window(self, tmp_path):
        p = write(tmp_path, "nowin.cfg", SHOT_NOISE_NO_WINDOW)
        with pytest.raises(SchemaError, match="window_grid_s"):
            validate(p)
        grid = SHOT_NOISE_NO_WINDOW.replace("0.6 1.2", "0.06 0.3")
        assert validate(write(tmp_path, "twowin.cfg", grid)).endswith("ok")

    def test_track_level_without_unmixed_points(self, tmp_path):
        with pytest.raises(SchemaError, match="period_s"):
            validate(write(tmp_path, "mixed.cfg", TRACK_ALL_MIXED))
        # 0.25 s period: eight 60 ms points leave two unmixed low points,
        # seven leave one
        two = TRACK.replace("period_s = 4.8", "period_s = 0.25").replace(
            "duration_s = 9.6", "duration_s = 0.49")
        p = write(tmp_path, "two.cfg", two)
        assert validate(p).endswith("ok")
        run(p, out_dir=tmp_path / "out")
        one = two.replace("duration_s = 0.49", "duration_s = 0.46")
        with pytest.raises(SchemaError, match="period_s"):
            validate(write(tmp_path, "one.cfg", one))
        # 0.13 s period: three periods hold no unmixed low point, the whole
        # 9.6 s track holds five
        rare = TRACK.replace("period_s = 4.8", "period_s = 0.13")
        assert validate(write(tmp_path, "rare.cfg", rare)).endswith("ok")

    def test_reference_detuning_checked(self, tmp_path):
        text = TRACK.replace("dwell_s = 0.005",
                             "dwell_s = 0.005\nf1_hz = 2.87e9\nf2_hz = 2.868e9\nf_ref_hz = 2.875e9")
        p = write(tmp_path, "badref.cfg", text)
        with pytest.raises(SchemaError, match="f_ref"):
            validate(p)


class TestRun:
    def test_magnetize_outputs(self, tmp_path):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        csv_path, manifest_path = run(p, out_dir=tmp_path / "out")
        lines = [l for l in csv_path.read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["t_k", "m_reduced", "dm_dt_per_k"]
        rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert rows[342.0] == 0.0  # above Tc
        assert rows[300.0] > 0.5
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "magnetize"
        assert manifest["resolved"]["grids"]["temp_step_k"] == 2.0
        assert manifest["assumptions_hash"]

    def test_spectrum_replay_bit_identical(self, tmp_path):
        p = write(tmp_path, "spec.cfg", SPECTRUM)
        csv_path, manifest_path = run(p, out_dir=tmp_path / "a")
        csv2, _ = replay_manifest(manifest_path, tmp_path / "b")
        assert csv_path.read_bytes() == csv2.read_bytes()
        lines = [l for l in csv_path.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "freq_hz,signal,dsignal_dT"
        values = [float(v) for v in lines[1].split(",")]  # parses cleanly
        assert len(values) == 3

    def test_seed_override_changes_output(self, tmp_path):
        p = write(tmp_path, "spec.cfg", SPECTRUM)
        a, _ = run(p, out_dir=tmp_path / "a")
        b, _ = run(p, out_dir=tmp_path / "b", seed=99)
        assert a.read_bytes() != b.read_bytes()
        c, _ = run(p, out_dir=tmp_path / "c", seed=41)
        assert a.read_bytes() == c.read_bytes()

    def test_sweep_threads_identical(self, tmp_path):
        p = write(tmp_path, "sweep.cfg", SWEEP)
        a, _ = run(p, out_dir=tmp_path / "a", threads=1)
        b, _ = run(p, out_dir=tmp_path / "b", threads=4)
        assert a.read_bytes() == b.read_bytes()

    def test_sensitivity_eta_improves_toward_tc(self, tmp_path):
        p = write(tmp_path, "sens.cfg", SENSITIVITY)
        csv_path, manifest_path = run(p, out_dir=tmp_path / "out")
        lines = [l for l in csv_path.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0].startswith("t_k,eta_cw_numeric_k_per_sqrthz")
        etas = [float(l.split(",")[1]) for l in lines[1:]]
        assert etas[-1] < etas[0]  # closer to Tc is more sensitive
        manifest = json.loads(manifest_path.read_text())
        assert manifest["results"]["t_opt_k"] == pytest.approx(338.0)

    def test_track_csv_columns(self, tmp_path):
        p = write(tmp_path, "track.cfg", TRACK)
        csv_path, manifest_path = run(p, out_dir=tmp_path / "out")
        lines = [l for l in csv_path.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "t_s,counts_f1,counts_f2,counts_fref,t_hat_k,t_true_k"
        first = lines[1].split(",")
        assert len(first) == 6
        float(first[0]), float(first[4]), float(first[5])
        assert all(int(c) >= 0 for c in first[1:4])
        manifest = json.loads(manifest_path.read_text())
        assert "separation_sigma" in manifest["results"]

    def test_explicit_probes_match_auto(self, tmp_path):
        auto_csv, auto_manifest = run(write(tmp_path, "auto.cfg", TRACK),
                                      out_dir=tmp_path / "auto")
        auto = json.loads(auto_manifest.read_text())["results"]
        f1, f2, f_ref = auto["probes_hz"]
        text = TRACK.replace("dwell_s = 0.005", f"dwell_s = 0.005\nf1_hz = {f1!r}"
                             f"\nf2_hz = {f2!r}\nf_ref_hz = {f_ref!r}")
        csv_path, manifest_path = run(write(tmp_path, "explicit.cfg", text),
                                      out_dir=tmp_path / "explicit")

        def data_rows(path):
            return [l for l in path.read_text().splitlines()
                    if not l.startswith("#")]

        assert data_rows(csv_path) == data_rows(auto_csv)
        assert json.loads(manifest_path.read_text())["results"] == auto

    @pytest.mark.parametrize("text", [TRACK, SHOT_NOISE],
                             ids=["track", "shot-noise"])
    def test_protocol_run_samples_ensemble_once(self, tmp_path, monkeypatch,
                                                text):
        from critherm import cli_runner, ensemble_spectrum, protocol_sim, sensitivity

        calls = []
        original = ensemble_spectrum.sample_ensemble

        def counting(asm):
            calls.append(asm)
            return original(asm)

        for module in (cli_runner, ensemble_spectrum, protocol_sim, sensitivity):
            monkeypatch.setattr(module, "sample_ensemble", counting)
        run(write(tmp_path, "protocol.cfg", text), out_dir=tmp_path / "out")
        assert len(calls) == 1


class TestShippedScenarios:
    def test_all_examples_validate(self):
        from pathlib import Path

        scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
        files = sorted(scenario_dir.glob("*.cfg"))
        assert len(files) >= 6
        for f in files:
            assert validate(f).endswith("ok"), f.name


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        code = main(["run", str(p), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "mag.csv" in capsys.readouterr().out

    def test_schema_error_exit_2(self, tmp_path, capsys):
        p = write(tmp_path, "bad.cfg", MAGNETIZE.replace("temp_stop_k = 360.0",
                                                         "temp_stop_k = 250.0"))
        code = main(["run", str(p)])
        assert code == 2
        assert "temp_start_k" in capsys.readouterr().err

    def test_physics_error_exit_3(self, tmp_path, capsys):
        text = SPECTRUM.replace("n_nv = 120", "n_nv = 120\nfnd_center_m = 0 0 120e-9")
        p = write(tmp_path, "overlap.cfg", text)
        code = main(["run", str(p)])
        assert code == 3
        assert "overlap" in capsys.readouterr().err

    def test_validate_ok(self, tmp_path, capsys):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        assert main(["validate", str(p)]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")

    @pytest.mark.parametrize("text", [SHOT_NOISE_NO_WINDOW, TRACK_ALL_MIXED],
                             ids=["shot-noise-no-window", "track-all-mixed"])
    def test_unusable_protocol_exit_2(self, tmp_path, capsys, text):
        p = write(tmp_path, "bad.cfg", text)
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("schema error: protocol.") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_validate_never_writes(self, tmp_path):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        main(["validate", str(p)])
        assert list(tmp_path.glob("*.csv")) == []
