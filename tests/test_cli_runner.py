import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from critherm.cli_runner import (
    MATERIALS,
    SCHEMAS,
    _plan,
    _prepare,
    assumptions_hash,
    main,
    parse_config,
    replay_manifest,
    resolve,
    run,
    validate,
)
from critherm.ensemble_spectrum import SensorAssembly
from critherm.errors import SchemaError, SolverError, ThermoError
from critherm.magnet_model import Magnet, curie_temperature
from critherm.spin_model import SpinSystem

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

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

SUSCEPTIBILITY = """\
[run]
kind = susceptibility

[magnet]
material = gd
radius_m = 1.0e-3

[spin]
nv_position_m = 0 0 6.2e-3

[grids]
temp_start_k = 289.0
temp_stop_k = 291.0
temp_step_k = 1.0
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

TRACK_63C = (SCENARIO_DIR / "track_63c.cfg").read_text()


def shipped(name, *edits):
    """A shipped scenario with the edits old, new, old, new, ... made in turn."""
    text = (SCENARIO_DIR / f"{name}.cfg").read_text()
    for old, new in zip(edits[::2], edits[1::2]):
        assert old in text
        text = text.replace(old, new)
    return text


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# design-sweep assemblies that cannot be built, which validate once passed
# because it built nothing for the sweep
BAD_SWEEPS = [
    shipped("design_sweep", "fnd_center_m = 0 0 200e-9", "fnd_center_m = 0 0 120e-9"),
    shipped("design_sweep", "n_nv = 500", "n_nv = 0"),
    shipped("design_sweep", "n_nv = 500", "n_nv = 500\ncontrast = 1.5"),
    shipped("design_sweep", "radius_m = 100e-9", "radius_m = 100e-9\nspin_j = -1"),
]

# explicit probes whose reference sits 8 MHz above D(T), inside the dip
TRACK_BAD_REF = TRACK.replace(
    "dwell_s = 0.005", "dwell_s = 0.005\nf1_hz = 2.87e9\nf2_hz = 2.868e9\nf_ref_hz = 2.875e9")


# explicit probes with f1 == f2: the three-point calibration has no slope
SHOT_NOISE_EQUAL_PROBES = shipped(
    "shot_noise", "dwell_s = 0.005", "dwell_s = 0.005\nf1_hz = 2.868e9\n"
    "f2_hz = 2.868e9\nf_ref_hz = 3.5e9")
TRACK_EQUAL_PROBES = TRACK.replace(
    "dwell_s = 0.005", "dwell_s = 0.005\nf1_hz = 2.868e9\nf2_hz = 2.868e9\n"
    "f_ref_hz = 3.5e9")


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

    def test_descending_grid_names_field(self, tmp_path):
        bad = MAGNETIZE.replace("temp_stop_k = 360.0", "temp_stop_k = 250.0")
        with pytest.raises(SchemaError, match="temp_start_k"):
            validate(write(tmp_path, "bad.cfg", bad))

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

    @pytest.mark.parametrize("text, message", [
        ("[run]\nkind = magnetize\n[run]\n", "run: duplicate section (line 3)"),
        ("[run]\nkind\n", "line 2: expected 'key = value', got 'kind'"),
        ("kind = magnetize\n[run]\n", "line 1: key outside any [section]"),
    ], ids=["duplicate-section", "no-equals", "key-outside-section"])
    def test_malformed_line(self, text, message):
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("tree, named", [
        (["run"], "the tree must map"),
        ({"run": {}}, "run.kind: required"),
        ({"run": {"kind": "bake"}}, "run.kind: unknown kind 'bake'"),
        (parse_config(MAGNETIZE.replace("m_sat_apm = 3.626e5", "material = bronze")),
         "magnet.material: unknown material 'bronze'"),
        (parse_config(MAGNETIZE.replace("m_sat_apm = 3.626e5\n", "")),
         "magnet.m_sat_apm: required"),
        (parse_config(SHOT_NOISE.replace("window_grid_s = 0.06 0.12", "window_grid_s =")),
         "protocol.window_grid_s: empty list"),
    ], ids=["not-a-dict", "no-kind", "unknown-kind", "unknown-material",
            "no-m-sat", "empty-list"])
    def test_resolve_rejects(self, tree, named):
        with pytest.raises(SchemaError, match=f"^{named}"):
            resolve(tree)

    def test_schema_value_types(self):
        # the value types _parse_value reads: s, i, f, v3 and fl
        for kind, schema in SCHEMAS.items():
            for section, keys in schema.items():
                for key, (vtype, _, _) in keys.items():
                    assert vtype in ("s", "i", "f", "v3", "fl"), (kind, section, key)

    def test_material_lookup(self):
        resolved = resolve(parse_config(SPECTRUM))
        assert resolved["magnet"]["m_sat_apm"] == pytest.approx(6.0e4)
        assert resolved["magnet"]["tc_k"] == pytest.approx(340.0)

    def test_sweep_rejects_m_sat(self):
        bad = SWEEP.replace("radius_m = 100e-9", "radius_m = 100e-9\nm_sat_apm = 1e5")
        with pytest.raises(SchemaError, match="magnet.m_sat_apm"):
            resolve(parse_config(bad))


class TestSchemaDefaults:
    def test_schema_defaults_are_the_dataclass_defaults(self):
        # a scenario file leans on the schema defaults, a preset on the
        # dataclass defaults: both describe the same design point
        plan = _prepare(resolve(parse_config(
            "[run]\nkind = spectrum\nseed = 7\n"
            "[magnet]\nm_sat_apm = 6e4\nradius_m = 100e-9\ntc_k = 340.0\n"
            "[grids]\ntemp_k = 336.15\n")))
        magnet = plan.magnet
        assert magnet == Magnet(m_sat=magnet.m_sat, radius=magnet.radius,
                                tc=magnet.tc)
        assert plan.asm == SensorAssembly(magnet=magnet, rng_seed=7)
        assert plan.asm.spin == SpinSystem()
        strain = SCHEMAS["susceptibility"]["spin"]["strain_e_hz"]
        assert strain[2] == SpinSystem().strain_e


def magnetize_plan(magnet_keys):
    """The plan of MAGNETIZE with its Tc and m_sat lines replaced."""
    text = MAGNETIZE.replace("m_sat_apm = 3.626e5\n", "").replace(
        "tc_k = 340.0", magnet_keys)
    return _prepare(resolve(parse_config(text)))


class TestMaterials:
    def test_every_row_resolves_and_builds(self):
        curie_keys = {"tc_k", "composition_x"}
        for name, row in MATERIALS.items():
            assert set(row) <= set(SCHEMAS["magnetize"]["magnet"])
            assert len(curie_keys & set(row)) == 1
            plan = magnetize_plan(f"material = {name}")
            assert plan.magnet.m_sat == row["m_sat_apm"]
            tc = row["tc_k"] if "tc_k" in row else curie_temperature(
                row["composition_x"])
            assert plan.magnet.tc == tc
        assert MATERIALS["gd"]["m_sat_apm"] == pytest.approx(2.1e6)
        assert MATERIALS["gd"]["tc_k"] == pytest.approx(292.0)
        assert MATERIALS["cuni74"]["composition_x"] == pytest.approx(0.74)
        assert MATERIALS["cuni74_milled"]["tc_k"] == pytest.approx(340.0)

    def test_composition_sets_tc(self):
        plan = magnetize_plan("m_sat_apm = 3.626e5\ncomposition_x = 0.74")
        assert plan.magnet.tc == curie_temperature(0.74)

    def test_scenario_tc_overrides_material_composition(self):
        plan = magnetize_plan("material = cuni74\ntc_k = 330.0")
        assert "composition_x" not in plan.resolved["magnet"]
        assert plan.magnet.tc == 330.0
        assert plan.magnet.m_sat == MATERIALS["cuni74"]["m_sat_apm"]

    def test_scenario_composition_overrides_material_tc(self):
        plan = magnetize_plan("material = gd\ncomposition_x = 0.8")
        assert "tc_k" not in plan.resolved["magnet"]
        assert plan.magnet.tc == curie_temperature(0.8)
        assert plan.magnet.m_sat == MATERIALS["gd"]["m_sat_apm"]

    def test_material_does_not_admit_both_curie_keys(self):
        with pytest.raises(SchemaError, match="exactly one"):
            magnetize_plan("material = gd\ntc_k = 330.0\ncomposition_x = 0.8")


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

    def test_reference_detuning_reported(self, tmp_path):
        cfg = _prepare(resolve(parse_config(TRACK))).cfg
        text = TRACK.replace("dwell_s = 0.005", f"dwell_s = 0.005\nf1_hz = {cfg.f1!r}"
                             f"\nf2_hz = {cfg.f2!r}\nf_ref_hz = {cfg.f_ref!r}")
        report = validate(write(tmp_path, "explicit.cfg", text)).splitlines()
        assert "protocol: reference detuning ok" in report
        assert "protocol: reference detuning ok" not in validate(
            write(tmp_path, "auto.cfg", TRACK)).splitlines()

    def test_reference_detuning_checked(self, tmp_path):
        p = write(tmp_path, "badref.cfg", TRACK_BAD_REF)
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

    def test_seed_supplies_a_missing_seed(self, tmp_path, capsys):
        # --seed is set on the file before it is resolved, so it also
        # supplies the seed a stochastic file lacks
        p = write(tmp_path, "spec.cfg", shipped("spectrum_63c", "seed = 2026\n", ""))
        assert main(["validate", str(p)]) == 2
        assert "run.seed: required" in capsys.readouterr().err
        assert main(["run", str(p), "--seed", "5", "--out", str(tmp_path / "a")]) == 0
        seeded = write(tmp_path, "seeded.cfg",
                       shipped("spectrum_63c", "seed = 2026", "seed = 5"))
        run(seeded, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "spec.csv").read_bytes() \
            == (tmp_path / "b" / "seeded.csv").read_bytes()

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

    def test_failed_track_leaves_earlier_trace(self, tmp_path, monkeypatch,
                                               capsys):
        # the trace is written while the counts are drawn: a track that fails
        # in its second draw block leaves no partial file, and the trace of
        # an earlier run in the same place stays as it was
        from critherm import protocol_sim
        from critherm.errors import EstimationError
        p = write(tmp_path, "track.cfg",
                  TRACK.replace("duration_s = 9.6", "duration_s = 144.0"))
        out = tmp_path / "out"
        csv_path, _ = run(p, out_dir=out)
        before = csv_path.read_bytes()
        real, calls = protocol_sim.window_estimates, []

        def fail_second_block(*args):
            calls.append(args)
            if len(calls) == 2:
                raise EstimationError("reference channel collected zero "
                                      "counts in a window")
            return real(*args)

        monkeypatch.setattr(protocol_sim, "window_estimates", fail_second_block)
        assert main(["run", str(p), "--out", str(out)]) == 3
        assert "zero counts" in capsys.readouterr().err
        assert len(calls) == 2
        assert sorted(f.name for f in out.iterdir()) == [
            "track.csv", "track.manifest.json"]
        assert csv_path.read_bytes() == before

    def test_failed_run_keeps_earlier_csv(self, tmp_path, monkeypatch, capsys):
        # every kind writes its CSV beside the earlier one and renames it
        # only once the run returns: a run that fails after writing leaves
        # the earlier CSV as it was, and no partial file
        from critherm import cli_runner
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        out = tmp_path / "out"
        csv_path, _ = run(p, out_dir=out)
        before = csv_path.read_bytes()
        real = cli_runner._write_header

        def fail_after_writing(fh, *args):
            real(fh, *args)
            raise ThermoError("failed after writing the header")

        monkeypatch.setattr(cli_runner, "_write_header", fail_after_writing)
        assert main(["run", str(p), "--out", str(out)]) == 3
        assert "failed after writing the header" in capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == ["mag.csv", "mag.manifest.json"]
        assert csv_path.read_bytes() == before

    @pytest.mark.parametrize("name, failing, n_calls", [
        ("line_centers", (2,), 3),
        ("solve_magnetization", (1, 3), 4),
        ("representative_domega_dt", (2,), 3),
    ], ids=["line_centers", "solve_magnetization", "representative_domega_dt"])
    def test_failed_composition_is_its_row(self, tmp_path, monkeypatch, name,
                                           failing, n_calls):
        # a composition whose spectrum, magnetization or reference dw/dT
        # fails is reported in its row's status; the sweep goes on and the
        # run exits 0.  The line centres and the reference dw/dT are solved
        # per composition; the magnetization in one call for all three, and
        # when that call fails each composition repeats it alone
        from critherm import sensitivity
        p = write(tmp_path, "sweep.cfg", SWEEP)

        def data_rows(out):
            text = (tmp_path / out / "sweep.csv").read_text()
            return [l.split(",") for l in text.splitlines() if not l.startswith("#")]

        assert main(["run", str(p), "--out", str(tmp_path / "a")]) == 0
        real, calls = getattr(sensitivity, name), []

        def fail_second_composition(*args):
            calls.append(args)
            if len(calls) in failing:
                raise SolverError("mean-field root not bracketed at T = 1 K")
            return real(*args)

        monkeypatch.setattr(sensitivity, name, fail_second_composition)
        assert main(["run", str(p), "--out", str(tmp_path / "b")]) == 0
        assert len(calls) == n_calls
        good, failed = data_rows("a"), data_rows("b")
        status = failed[0].index("status")
        assert failed[2][status] == "error: mean-field root not bracketed at T = 1 K"
        assert failed[2][:2] == good[2][:2]
        assert failed[:2] + failed[3:] == good[:2] + good[3:]
        manifest = json.loads((tmp_path / "b" / "sweep.manifest.json").read_text())
        assert manifest["results"]["n_failed"] == 1

    def test_sweep_of_no_ferromagnetic_composition(self, tmp_path, monkeypatch):
        # every Ni fraction from 0.10 to 0.40 lies below the ferromagnetic
        # threshold: each row is an error row, the run exits 0, and no
        # magnetization is solved for an empty batch
        from critherm import sensitivity

        def forbidden(*args):
            raise AssertionError("solved the magnetization of an empty batch")

        monkeypatch.setattr(sensitivity, "solve_magnetization", forbidden)
        p = write(tmp_path, "sweep.cfg", SWEEP.replace("x_start = 0.60", "x_start = 0.10")
                  .replace("x_stop = 0.80", "x_stop = 0.40"))
        with pytest.warns(UserWarning, match="below the ferromagnetic threshold"):
            assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
        lines = [l.split(",") for l in (tmp_path / "out" / "sweep.csv").read_text()
                 .splitlines() if not l.startswith("#")]
        status = lines[0].index("status")
        assert [row[status] for row in lines[1:]] \
            == ["error: non-ferromagnetic composition"] * 4

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

    @pytest.mark.parametrize("text", [TRACK, SHOT_NOISE, SWEEP],
                             ids=["track", "shot-noise", "design-sweep"])
    def test_run_samples_ensemble_once(self, tmp_path, monkeypatch, text):
        from critherm import cli_runner, ensemble_spectrum, protocol_sim, sensitivity

        calls = []
        original = ensemble_spectrum.sample_ensemble

        def counting(asm):
            calls.append(asm)
            return original(asm)

        for module in (cli_runner, ensemble_spectrum, protocol_sim, sensitivity):
            monkeypatch.setattr(module, "sample_ensemble", counting)
        run(write(tmp_path, "scenario.cfg", text), out_dir=tmp_path / "out")
        assert len(calls) == 1

    @pytest.mark.parametrize("text, batches", [
        (SPECTRUM, 1), (SUSCEPTIBILITY, 1), (SENSITIVITY, 2), (TRACK, 2),
        (SHOT_NOISE, 2),
    ], ids=["spectrum", "susceptibility", "sensitivity", "track", "shot-noise"])
    def test_line_centers_batches_per_runner(self, tmp_path, forward_model_calls,
                                             text, batches):
        # every temperature a runner needs goes into one line_centers call:
        # sensitivity makes one for the ensemble and one for the reference
        # NV; track and shot-noise one for the calibration and one for the
        # rate table of the count draw
        run(write(tmp_path, "scenario.cfg", text), out_dir=tmp_path / "out")
        assert len(forward_model_calls["batches"]) == batches


    def test_runners_never_reach_the_scalar_oracles(self, tmp_path, monkeypatch):
        # the single NV goes through the same line_centers path as the
        # ensemble: the eigh, scalar-dipole and moment oracles stay unused
        from critherm import magnet_model, spin_model

        oracles = {id(f) for f in (spin_model.transition_frequencies,
                                   magnet_model.dipole_field,
                                   magnet_model.magnetic_moment)}

        def forbidden(*args, **kwargs):
            raise AssertionError("a runner reached a scalar oracle")

        patched = set()
        for name, module in list(sys.modules.items()):
            if name == "critherm" or name.startswith("critherm."):
                for attr, value in list(vars(module).items()):
                    if id(value) in oracles:
                        monkeypatch.setattr(module, attr, forbidden)
                        patched.add(f"{name}.{attr}")
        assert {"critherm.spin_model.transition_frequencies",
                "critherm.magnet_model.dipole_field",
                "critherm.magnet_model.magnetic_moment"} <= patched
        for i, text in enumerate((SUSCEPTIBILITY, SENSITIVITY, SWEEP)):
            p = write(tmp_path, f"scenario{i}.cfg", text)
            assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0


def scenario_text(resolved):
    """A scenario file whose resolved tree is `resolved`."""
    return "".join(f"[{section}]\n" + "".join(
        f"{k} = {' '.join(map(repr, v)) if isinstance(v, list) else v}\n"
        for k, v in keys.items()) for section, keys in resolved.items())


@pytest.fixture(scope="module")
def shipped_manifest(tmp_path_factory):
    """name -> a fresh copy of the manifest of one run of that shipped
    scenario; each scenario runs once per module."""
    out, texts = tmp_path_factory.mktemp("shipped"), {}

    def manifest(name):
        if name not in texts:
            _, path = run(SCENARIO_DIR / f"{name}.cfg", out_dir=out)
            texts[name] = path.read_text()
        return json.loads(texts[name])
    return manifest


class TestReplayChecksThePlan:
    # scenario, section, {key: new value, or None to delete it}, the key the
    # SchemaError names
    @pytest.mark.parametrize("name, section, edit, key", [
        ("magnetize_cuni", "grids", {"temp_stop_k": 250.0}, "grids.temp_start_k"),
        ("spectrum_63c", "grids", {"freq_points": 11}, "grids.freq_start_hz"),
        ("spectrum_63c", "grids", {"freq_start_hz": 2.8e9}, "grids.freq_stop_hz"),
        ("spectrum_63c", "grids", {"freq_start_hz": 2.9e9, "freq_stop_hz": 2.8e9,
                                   "freq_points": 11}, "grids.freq_start_hz"),
        ("spectrum_63c", "grids", {"freq_start_hz": 2.8e9, "freq_stop_hz": 2.9e9,
                                   "freq_points": 1}, "grids.freq_points"),
        ("design_sweep", "grids", {"x_stop": 0.4}, "grids.x_start"),
        ("design_sweep", "grids", {"x_stop": 1.2}, "grids.x_start/x_stop"),
        ("track_63c", "protocol", {"f1_hz": 2.87e9}, "protocol.f1_hz/f2_hz/f_ref_hz"),
        ("shot_noise", "protocol", {"f_ref_hz": 3.0e9}, "protocol.f1_hz/f2_hz/f_ref_hz"),
        ("shot_noise", "protocol", {"window_grid_s": [2.4, 1.2, 0.6, 0.24, 0.12, 0.06]},
         "protocol.window_grid_s"),
        ("shot_noise", "protocol", {"window_grid_s": [-0.06, 0.3, 1.5, 3.0]},
         "protocol.window_grid_s"),
        ("shot_noise", "protocol", {"floor_period_s": -30.0}, "protocol.floor_period_s"),
        ("shot_noise", "protocol", {"floor_period_s": None},
         "protocol.floor_rms_k and protocol.floor_period_s"),
        ("shot_noise", "protocol", {"dwell_s": -0.005}, "protocol.dwell_s"),
        ("track_63c", "protocol", {"dwell_s": -0.005}, "protocol.dwell_s"),
        ("track_63c", "protocol", {"period_s": 0.0}, "protocol.period_s"),
        ("track_63c", "protocol", {"bin_s": 0.001}, "protocol.bin_s"),
        ("track_63c", "protocol", {"low_k": 337.0}, "protocol.low_k"),
        ("track_63c", "assembly", {"photon_rate_cps": 1e16}, "assembly.photon_rate_cps"),
        # these five fail in the schema half of the gate, resolve
        ("track_63c", "protocol", {"dwell_s": None}, "protocol.dwell_s"),
        ("track_63c", "protocol", {"dwel_s": 0.005}, "protocol.dwel_s"),
        ("track_63c", "assembly", {"n_nv": 500.0}, "assembly.n_nv"),
        ("track_63c", "magnet", {"center_m": [0.0, 0.0]}, "magnet.center_m"),
        ("track_63c", "protocol", {"period_s": True}, "protocol.period_s"),
    ], ids=["descending-temps", "lone-freq-points", "lone-freq-start",
            "descending-freqs", "one-freq-point", "descending-compositions",
            "composition-above-1", "lone-f1", "lone-f-ref", "descending-windows",
            "negative-window", "negative-floor-period", "floor-without-period",
            "shot-noise-negative-dwell", "track-negative-dwell", "zero-period",
            "bin-below-cycle", "low-above-high", "count-guard", "deleted-key",
            "unknown-key", "float-for-int", "two-component-vector", "bool-for-float"])
    def test_edited_manifest_fails_as_validate(self, tmp_path, shipped_manifest,
                                               name, section, edit, key):
        # replay runs the plan that validate checks: an edited manifest
        # fails before anything is written, naming the key validate names
        # for the same scenario
        manifest = shipped_manifest(name)
        values = manifest["resolved"][section]
        for k, v in edit.items():
            if v is None:
                del values[k]
            else:
                values[k] = v
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError) as replayed:
            replay_manifest(path, tmp_path / "out")
        with pytest.raises(SchemaError) as checked:
            validate(write(tmp_path, "edited.cfg", scenario_text(manifest["resolved"])))
        assert str(replayed.value).startswith(key)
        assert str(checked.value).startswith(key)
        assert not (tmp_path / "out").exists()

    def test_number_for_string_fails(self, tmp_path, shipped_manifest):
        # a file's value is always text, so only a manifest can hold this
        manifest = shipped_manifest("track_63c")
        manifest["resolved"]["run"]["out_dir"] = 5
        path = write(tmp_path, "edited.manifest.json", json.dumps(manifest))
        with pytest.raises(SchemaError, match="^run.out_dir: must be a string"):
            replay_manifest(path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    # an edit of the tree's structure, not of a value, and what the
    # SchemaError names
    @pytest.mark.parametrize("edit, named", [
        (lambda tree: tree["run"].update(kind=["track"]), "run.kind"),
        (lambda tree: tree.update(protocol=5), "protocol"),
        (lambda tree: tree.update(protocol=list(tree["protocol"])), "protocol"),
        (lambda tree: tree.update(run=list(tree["run"])), "run"),
    ], ids=["kind-as-list", "section-as-number", "section-as-key-list",
            "run-as-list"])
    def test_structure_edit_fails(self, tmp_path, shipped_manifest, edit, named):
        manifest = shipped_manifest("track_63c")
        edit(manifest["resolved"])
        path = write(tmp_path, "edited.manifest.json", json.dumps(manifest))
        with pytest.raises(SchemaError, match=f"^{named}: must"):
            replay_manifest(path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    # an edit of the manifest around the resolved tree, and the key the
    # SchemaError names
    @pytest.mark.parametrize("edit, named", [
        (lambda m: [m], "resolved"),
        (lambda m: {k: v for k, v in m.items() if k != "resolved"}, "resolved"),
        (lambda m: {k: v for k, v in m.items() if k != "stem"}, "stem"),
        (lambda m: dict(m, stem="../evil"), "stem"),
        (lambda m: dict(m, stem="sub/x"), "stem"),
        (lambda m: dict(m, stem=5), "stem"),
        (lambda m: dict(m, stem=""), "stem"),
        (lambda m: dict(m, stem=".."), "stem"),
    ], ids=["not-an-object", "no-resolved", "no-stem", "parent-stem",
            "nested-stem", "number-stem", "empty-stem", "dot-dot-stem"])
    def test_manifest_edit_fails(self, tmp_path, shipped_manifest, edit, named):
        # the stem names the output files inside out_dir and nowhere else
        manifest = edit(shipped_manifest("magnetize_cuni"))
        path = write(tmp_path, "edited.manifest.json", json.dumps(manifest))
        with pytest.raises(SchemaError, match=f"^{named}: "):
            replay_manifest(path, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.manifest.json"]

    def test_number_as_text_reads_as_a_file_would(self, tmp_path, shipped_manifest):
        # "0.005" is what a file holds for dwell_s, and validate passes that
        # file, so the replay equals the replay of the unedited manifest
        manifest = shipped_manifest("track_63c")
        plain = write(tmp_path, "plain.manifest.json", json.dumps(manifest))
        manifest["resolved"]["protocol"]["dwell_s"] = "0.005"
        edited = write(tmp_path, "edited.manifest.json", json.dumps(manifest))
        a = replay_manifest(plain, tmp_path / "a")
        b = replay_manifest(edited, tmp_path / "b")
        for x, y in zip(a, b):
            assert x.read_bytes() == y.read_bytes()


# a stability floor whose snapped trough-to-crest rows outnumber the cycles,
# and explicit probes, whose reference is checked at both levels
SHOT_NOISE_FLOOR = SHOT_NOISE + "floor_rms_k = 0.010\nfloor_period_s = 0.5\n"
TRACK_PROBES = TRACK.replace(
    "dwell_s = 0.005", "dwell_s = 0.005\nf1_hz = 2.866e9\nf2_hz = 2.874e9\nf_ref_hz = 3.5e9")


class TestPlanCoversEveryCall:
    @pytest.mark.parametrize("text", [MAGNETIZE, SPECTRUM, SUSCEPTIBILITY, SENSITIVITY,
                                      SWEEP, SHOT_NOISE_FLOOR, TRACK_PROBES],
                             ids=["magnetize", "spectrum", "susceptibility",
                                  "sensitivity", "design-sweep", "shot-noise", "track"])
    def test_every_solved_row_lies_in_a_planned_call(self, tmp_path, monkeypatch, text):
        # the rows of each line_centers and solve_magnetization call of a run
        # lie within one entry of plan.calls, the entry the plan checked:
        # no row below its lowest or above its highest, no more rows, and
        # the same sites (a magnetization solve has none).  The sweep's rows
        # follow each composition's Tc, so only its size is checked
        from critherm import (cli_runner, ensemble_spectrum, magnet_model,
                              protocol_sim, sensitivity)
        seen, centers = [], ensemble_spectrum.line_centers
        solve = magnet_model.solve_magnetization

        def record_centers(asm, temps, sites, m=None):
            seen.append((np.asarray(temps, dtype=float), len(sites)))
            return centers(asm, temps, sites, m)

        def record_solve(mag, temps):
            seen.append((np.atleast_1d(np.asarray(temps, dtype=float)), None))
            return solve(mag, temps)

        for module in (ensemble_spectrum, protocol_sim, sensitivity):
            monkeypatch.setattr(module, "line_centers", record_centers)
        for module in (magnet_model, ensemble_spectrum, sensitivity, cli_runner):
            monkeypatch.setattr(module, "solve_magnetization", record_solve)
        calls = _plan(resolve(parse_config(text))).calls
        run(write(tmp_path, "scenario.cfg", text), out_dir=tmp_path / "out")

        def inside(rows, sites, call):
            lowest, highest, n_rows, n_sites = call[:4]
            if lowest is None:
                return rows.size * (sites or 1) <= n_rows * n_sites
            return sites in (None, n_sites) and lowest <= rows.min() \
                and rows.max() <= highest and rows.size <= n_rows

        assert seen
        for rows, sites in seen:
            assert any(inside(rows, sites, call) for call in calls), (rows, sites)


def one_value_edits(text):
    """Every copy of a scenario text with one number (one component of a
    vector or list) set to 0, -1, 1e-9 or 1e300."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, eq, value = line.split("#", 1)[0].partition("=")
        numbers = value.split()
        try:
            [float(v) for v in numbers]
        except ValueError:
            continue
        for j in range(len(numbers) if eq else 0):
            for new in ("0", "-1", "1e-9", "1e300"):
                edited = " ".join(numbers[:j] + [new] + numbers[j + 1:])
                yield "\n".join(lines[:i] + [f"{key}= {edited}"] + lines[i + 1:])


class TestShippedScenarios:
    def test_all_examples_validate(self):
        files = sorted(SCENARIO_DIR.glob("*.cfg"))
        assert len(files) >= 6
        for f in files:
            assert validate(f).endswith("ok"), f.name

    @pytest.mark.parametrize("name", sorted(f.stem for f in SCENARIO_DIR.glob("*.cfg")))
    def test_one_value_edit_exits_0_2_or_3(self, tmp_path, name):
        """Each one-value edit of a shipped scenario ends in a documented
        exit code from validate, never a traceback.  Warnings are ignored:
        the command prints them and does not raise them (a 1e300
        fnd_center_m makes numpy warn of an overflow in the gap)."""
        p = tmp_path / f"{name}.cfg"
        for text in one_value_edits((SCENARIO_DIR / f"{name}.cfg").read_text()):
            p.write_text(text)
            with warnings.catch_warnings(), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore")
                code = main(["validate", str(p)])
            assert code in (0, 2, 3), text


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        code = main(["run", str(p), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "mag.csv" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        code = main(["run", str(p), "--out", str(tmp_path / "out"), "--threads", threads])
        assert code == 2
        assert capsys.readouterr().err.startswith("thermo: error: --threads")
        assert not (tmp_path / "out").exists()

    def test_threads_load_no_thread_pool(self, tmp_path):
        # --threads is accepted and has no effect: every run is serial
        p = write(tmp_path, "sweep.cfg", SWEEP)
        code = ("import sys\n"
                "from critherm.cli_runner import main\n"
                "code = main(['run', sys.argv[1], '--out', sys.argv[2], "
                "'--threads', '4'])\n"
                "print(code, 'concurrent.futures' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(p), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SCENARIO_DIR.parent / "src")))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_out_path_the_os_rejects_exit_2(self, tmp_path, capsys):
        # a 300-byte name is longer than any file system allows (ENAMETOOLONG)
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        out = tmp_path / ("o" * 300)
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"thermo: error: {out}: ")
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [p]

    def test_output_name_the_os_rejects_exit_2(self, tmp_path, capsys):
        # a 246-byte stem: the CSV name (250 bytes) is allowed, the
        # manifest's (260) is longer than any file system allows
        stem = "m" * 246
        p = write(tmp_path, f"{stem}.cfg", MAGNETIZE)
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"thermo: error: {out / stem}.manifest.json: ")
        # validate refuses it in the scenario's own out_dir too
        assert main(["validate", str(p)]) == 2
        assert f"{stem}.manifest.json: " in capsys.readouterr().err
        assert "Traceback" not in err
        assert not out.exists()
        # the same refusal under two missing levels makes neither
        assert main(["run", str(p), "--out", str(tmp_path / "new" / "out")]) == 2
        assert sorted(tmp_path.iterdir()) == [p]

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

    @pytest.mark.parametrize("text, key", [
        (SHOT_NOISE_NO_WINDOW, "protocol.window_grid_s"),
        (TRACK_ALL_MIXED, "protocol.period_s/bin_s/duration_s"),
        (TRACK_63C.replace("dwell_s = 0.005", "dwell_s = -0.005"), "protocol.dwell_s"),
        (TRACK_63C.replace("period_s = 9.6", "period_s = 0"), "protocol.period_s"),
        (TRACK_63C.replace("bin_s = 0.06", "bin_s = 0.001"), "protocol.bin_s"),
        (TRACK_63C.replace("low_k = 335.40", "low_k = 0.0"), "protocol.low_k"),
        (MAGNETIZE.replace("temp_start_k = 300.0", "temp_start_k = 0.0"),
         "grids.temp_start_k"),
        (SPECTRUM.replace("temp_k = 336.15", "temp_k = -3.0"), "grids.temp_k"),
        # positive, but a finite-difference row below it is not: 10 mK dS/dT
        # steps, 1 mK dw/dT and dm/dT steps, and the track calibration row
        # t0 - cal_step, exactly 0 here
        (shipped("spectrum_63c", "temp_k = 336.15", "temp_k = 0.005"),
         "grids.temp_k"),
        (shipped("shot_noise", "temp_k = 339.0", "temp_k = 0.005"),
         "grids.temp_k"),
        (shipped("sensitivity_vs_temp", "temp_start_k = 320.0",
                 "temp_start_k = 0.005"), "grids.temp_start_k"),
        (shipped("gd_susceptibility", "temp_start_k = 280.0",
                 "temp_start_k = 0.0005"), "grids.temp_start_k"),
        (shipped("magnetize_cuni", "temp_start_k = 300.0",
                 "temp_start_k = 0.0005"), "grids.temp_start_k"),
        (shipped("track_63c", "low_k = 335.40\nhigh_k = 336.90",
                 "low_k = 1e-20\nhigh_k = 1.0"), "protocol.low_k"),
        # the floor trace t0 + sqrt(2) rms sin(...) dips below 0 K
        (shipped("shot_noise", "floor_rms_k = 0.010", "floor_rms_k = 300.0"),
         "protocol.floor_rms_k"),
        (shipped("shot_noise", "floor_period_s = 30.0", "floor_period_s = 0"),
         "protocol.floor_period_s"),
        # photon_rate_cps * dwell_s above the count guard of the rate table
        (shipped("track_63c", "n_nv = 500", "n_nv = 500\nphoton_rate_cps = 1e16"),
         "assembly.photon_rate_cps"),
        (shipped("shot_noise", "n_nv = 500", "n_nv = 500\nphoton_rate_cps = 1e16"),
         "assembly.photon_rate_cps"),
        # run checks the reference too, rather than probing inside the dip
        (TRACK_BAD_REF, "protocol.f_ref_hz"),
        # sizes no machine can allocate, rejected before allocating:
        # 6e16 temperatures, 6.7e26 protocol cycles and 1e15 NV sites
        (shipped("magnetize_cuni", "temp_step_k = 0.5", "temp_step_k = 1e-15"),
         "grids.temp_step_k"),
        (shipped("track_63c", "duration_s = 28.8", "duration_s = 1e25"),
         "protocol.duration_s"),
        (shipped("spectrum_63c", "n_nv = 500", "n_nv = 1000000000000000"),
         "assembly.n_nv"),
        # each a few million temperature rows of 500 sites in one forward-
        # model call: 1,950,001 temperatures of 3 rows, and the distinct
        # 0.1 mK rows of a 100 K floor
        (shipped("sensitivity_vs_temp", "temp_step_k = 0.5", "temp_step_k = 1e-5"),
         "grids.temp_step_k"),
        (shipped("shot_noise", "floor_rms_k = 0.010\n", "floor_rms_k = 100\n")
         .replace("total_time_s = 400.0", "total_time_s = 100000"),
         "protocol.floor_rms_k"),
        # numpy seeds only from non-negative integers
        (shipped("spectrum_63c", "seed = 2026", "seed = -1"), "run.seed"),
        # a record length that is not positive
        (shipped("track_63c", "duration_s = 28.8", "duration_s = -1"),
         "protocol.duration_s"),
        (shipped("shot_noise", "total_time_s = 400.0", "total_time_s = -1"),
         "protocol.total_time_s"),
        # a grid step that is not positive
        (MAGNETIZE.replace("temp_step_k = 2.0", "temp_step_k = 0.0"),
         "grids.temp_step_k"),
        # a 1 GHz square wave under 60 ms points: every point spans many
        # switches, whatever the wave reads at its two ends
        (shipped("track_63c", "period_s = 9.6", "period_s = 1e-9"),
         "protocol.period_s/bin_s/duration_s"),
        # a highest row where D(T) = d0 + dD/dT (T - t_ref) is not positive:
        # the spectrum's T + 10 mK, the last sensitivity row's and the
        # track's upper level, positive at its lower one
        (shipped("spectrum_63c", "temp_k = 336.15", "temp_k = 1e300"),
         "grids.temp_k"),
        (shipped("sensitivity_vs_temp", "temp_step_k = 0.5",
                 "temp_step_k = 0.5\n\n[spin]\ndd_dt_hz_per_k = -1e8"),
         "grids.temp_stop_k"),
        (shipped("track_63c", "duration_s = 28.8",
                 "duration_s = 28.8\n\n[spin]\ndd_dt_hz_per_k = -7.9e7"),
         "protocol.high_k"),
    ], ids=["shot-noise-no-window", "track-all-mixed", "negative-dwell",
            "zero-period", "bin-below-cycle", "zero-low", "zero-start",
            "negative-temp", "spectrum-slope-row", "shot-noise-slope-row",
            "sensitivity-slope-row", "susceptibility-dt-row",
            "magnetize-dt-row", "track-calibration-row", "shot-noise-floor-trough",
            "shot-noise-zero-floor-period", "track-count-guard",
            "shot-noise-count-guard", "track-reference-in-dip",
            "magnetize-oversize-grid", "track-oversize-record",
            "spectrum-oversize-ensemble", "sensitivity-oversize-rows",
            "shot-noise-oversize-floor-rows", "negative-seed",
            "track-negative-duration", "shot-noise-negative-total-time",
            "zero-temp-step", "track-aliased-period", "spectrum-d-not-positive",
            "sensitivity-d-not-positive", "track-d-not-positive"])
    def test_unusable_protocol_exit_2(self, tmp_path, capsys, text, key):
        # every precondition validate can check: run never starts
        p = write(tmp_path, "bad.cfg", text)
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"schema error: {key}: ") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, named", [
        (None, "bad.cfg"),
        ((MAGNETIZE + "# 63 \u00b0C\n").encode("latin-1"), "bad.cfg"),
        (MAGNETIZE.encode(), "out"),
        (MAGNETIZE.encode(), "out/bad.csv"),
        (MAGNETIZE.encode(), "out/bad.manifest.json"),
    ], ids=["missing-file", "not-utf-8", "out-is-a-file", "csv-is-a-directory",
            "manifest-is-a-directory"])
    def test_unusable_path_exit_2(self, tmp_path, capsys, content, named):
        # invocation errors, exit 2 as argparse's own, naming the path;
        # validate takes no --out, so it passes the last three files
        p, out = tmp_path / "bad.cfg", tmp_path / "out"
        if content is not None:
            p.write_bytes(content)
        if named.startswith("out/"):  # an output file's name is a directory
            (tmp_path / named).mkdir(parents=True)
        else:
            out.write_text("a file\n")
        codes = [main(["validate", str(p)]),
                 main(["run", str(p), "--out", str(out)])]
        assert codes == ([2, 2] if named == "bad.cfg" else [0, 2])
        err = capsys.readouterr().err
        assert err.count(f"thermo: error: {tmp_path / named}: ") == codes.count(2)
        assert "Traceback" not in err
        if out.is_file():
            assert out.read_text() == "a file\n"
        else:  # nothing written, nothing removed
            assert [q.name for q in out.iterdir()] == [Path(named).name]
            assert not any((tmp_path / named).iterdir())

    @pytest.mark.parametrize("out_dir, named", [
        ("/dev/null/sub", "/dev/null/sub"),
        ("a\0b", "'a\\x00b'"),
        ("file/sub", "file/sub"),
        ("new/" + "o" * 300, "new/" + "o" * 300),
        ("link/sub", "link/sub"),
    ], ids=["under-dev-null", "nul-byte", "under-a-file", "long-dir-name",
            "dangling-symlink"])
    def test_unusable_out_dir_exit_2_from_validate_and_run(
            self, tmp_path, monkeypatch, capsys, out_dir, named):
        # the scenario's own run.out_dir: validate checks it as run does,
        # and neither creates anything
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("a file\n")
        (tmp_path / "link").symlink_to("nowhere")
        p = write(tmp_path, "bad.cfg", MAGNETIZE.replace(
            "kind = magnetize", f"kind = magnetize\nout_dir = {out_dir}"))
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"thermo: error: {named}: ") == 2, err
        assert "Traceback" not in err
        assert sorted(q.name for q in tmp_path.iterdir()) == ["bad.cfg", "file", "link"]

    def test_out_dir_without_permission_exit_2(self, tmp_path, monkeypatch, capsys):
        # a directory that refuses this process write or search access, or
        # sits on a read-only file system: validate refuses the scenario's
        # run.out_dir as run does, and neither creates anything.  Root
        # passes every mode-bit check, so os.access is patched to refuse
        # rather than a directory's mode changed
        monkeypatch.chdir(tmp_path)
        p = write(tmp_path, "mag.cfg", MAGNETIZE.replace(
            "kind = magnetize", "kind = magnetize\nout_dir = new/out"))
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"thermo: error: new/out: {os.strerror(errno.EACCES)}\n") == 2
        assert sorted(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("text", [MAGNETIZE, SPECTRUM, SUSCEPTIBILITY,
                                      SENSITIVITY, SWEEP, SHOT_NOISE, TRACK],
                             ids=["magnetize", "spectrum", "susceptibility",
                                  "sensitivity", "design-sweep", "shot-noise", "track"])
    def test_part_file_is_a_directory_exit_2(self, tmp_path, capsys, text):
        # every kind writes its CSV to <stem>.csv.part first
        p, out = write(tmp_path, "bad.cfg", text), tmp_path / "out"
        part = out / "bad.csv.part"
        part.mkdir(parents=True)
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"thermo: error: {part}: is a directory\n"
        assert [q.name for q in out.iterdir()] == ["bad.csv.part"]
        assert not any(part.iterdir())

    def test_closed_stdout_no_traceback(self, tmp_path):
        # `thermo validate f | head -1`: the reader is gone before the
        # report is written
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "critherm.cli_runner", "validate", str(p)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=str(SCENARIO_DIR.parent / "src")))
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("text, key", [
        (SPECTRUM.replace("n_nv = 120", "n_nv = 120\nline_width_hz = nan"),
         "assembly.line_width_hz"),
        (SPECTRUM.replace("n_nv = 120", "n_nv = 120\nbias_field_t = 0 0 inf"),
         "assembly.bias_field_t"),
        (SHOT_NOISE.replace("0.06 0.12", "0.06 0.12 inf"),
         "protocol.window_grid_s"),
    ], ids=["scalar", "vector", "list"])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, text, key):
        p = write(tmp_path, "nonfinite.cfg", text)
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"schema error: {key}: non-finite value") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, edit, key", [
        # 11 points within 1 MHz of the dip minimum (2.853047 GHz): the
        # half-depth crossings fall off the grid, so the width is undefined
        ("spectrum_63c", lambda text: text + "freq_start_hz = 2.852047e9\n"
         "freq_stop_hz = 2.854047e9\nfreq_points = 11\n", "effective_width_hz"),
        # one period per level: no spread between periods
        ("track_63c", lambda text: text.replace("duration_s = 28.8",
                                                "duration_s = 9.6"),
         "max_period_spread_k"),
        # a bare dD/dT of 0: no enhancement over it
        ("gd_susceptibility", lambda text: text.replace(
            "nv_axis = 0 0 1", "nv_axis = 0 0 1\ndd_dt_hz_per_k = 0.0"),
         "enhancement_over_bare"),
    ], ids=["spectrum-width", "track-spread", "susceptibility-zero-dd-dt"])
    def test_undefined_result_is_null(self, tmp_path, name, edit, key):
        text = (SCENARIO_DIR / f"{name}.cfg").read_text()
        p = write(tmp_path, f"{name}.cfg", edit(text))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0

        def reject(constant):
            raise ValueError(f"manifest holds {constant}")

        manifest = json.loads(
            (tmp_path / "out" / f"{name}.manifest.json").read_text(),
            parse_constant=reject)
        assert manifest["results"][key] is None

    @pytest.mark.parametrize("text", [
        shipped("gd_susceptibility", "nv_position_m = 0 0 6.2e-3",
                "nv_position_m = 0 0 0.5e-3"),
        shipped("gd_susceptibility", "nv_axis = 0 0 1", "nv_axis = 0 0 0"),
        shipped("gd_susceptibility", "nv_axis = 0 0 1",
                "nv_axis = 0 0 1\nstrain_e_hz = -1e6"),
        *BAD_SWEEPS,
        # the axis norm overflows to inf, with numpy's overflow warning
        pytest.param(shipped("gd_susceptibility", "nv_axis = 0 0 1",
                             "nv_axis = 1e300 1e300 1e300"),
                     marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
        # the squared half-width of the Lorentzian underflows to 0
        shipped("spectrum_63c", "n_nv = 500", "n_nv = 500\nline_width_hz = 1e-300"),
    ], ids=["nv-inside-magnet", "zero-nv-axis", "negative-strain",
            "sweep-overlap", "sweep-no-nv", "sweep-contrast", "sweep-spin-j",
            "overflowing-nv-axis", "tiny-line-width"])
    def test_bad_single_nv_exit_3_from_validate_and_run(self, tmp_path, capsys,
                                                        text):
        # the single NV, the design sweep's template assembly and an
        # ensemble kind's assembly: both commands build them before anything
        # is written
        p = write(tmp_path, "bad.cfg", text)
        assert main(["validate", str(p)]) == 3
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("physics error: ") == 2
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out/*"))

    @pytest.mark.parametrize("line", ["nv_axis = 1 0 0",
                                      "nv_position_m = 0 0 1e-3",
                                      "strain_e_hz = 5e6"])
    def test_ensemble_kind_rejects_single_nv_keys(self, tmp_path, capsys, line):
        # only the susceptibility kind places a single NV; the ensemble kinds
        # sample theirs (strain included), so these keys would be accepted
        # and ignored
        text = (SCENARIO_DIR / "sensitivity_vs_temp.cfg").read_text()
        p = write(tmp_path, "single_nv.cfg", f"{text}\n[spin]\n{line}\n")
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        key = line.split(" = ")[0]
        err = capsys.readouterr().err
        assert err.count(f"schema error: spin.{key}: unknown key for kind "
                         "'sensitivity'") == 2
        assert not (tmp_path / "out").exists()

    def test_nv_inside_magnet_named(self, tmp_path, capsys):
        # the susceptibility kind has no FND: the message names the NV, its
        # distance from the magnet centre and the magnet radius
        text = (SCENARIO_DIR / "gd_susceptibility.cfg").read_text().replace(
            "nv_position_m = 0 0 6.2e-3", "nv_position_m = 0 0 0.5e-3")
        p = write(tmp_path, "inside.cfg", text)
        assert main(["validate", str(p)]) == 3
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        lines = capsys.readouterr().err.splitlines()
        expect = ("physics error: NV inside the magnet: 5.000e-04 m from the "
                  "magnet centre, radius 1.000e-03 m")
        assert lines == [expect, expect]

    def test_validate_never_writes(self, tmp_path):
        p = write(tmp_path, "mag.cfg", MAGNETIZE)
        main(["validate", str(p)])
        assert list(tmp_path.glob("*.csv")) == []


# Small shot-noise and track files around the edges of what validate checks:
# the 10 mK slope rows, the mean-field solver at tens of mK, Tc = 340 K of
# cuni74_milled, a floor trace that dips below 0 K and the count guard
# photon_rate_cps * dwell_s <= 1e12 (2e14 * 0.005 sits on it).
SMALL_ASSEMBLY = """\
[run]
kind = {kind}
seed = 3

[magnet]
material = cuni74_milled
radius_m = 100e-9

[assembly]
n_nv = {n_nv}
photon_rate_cps = {rate!r}
"""
EDGE_TEMPS = st.sampled_from([0.0099, 0.0101, 0.02, 1.0, 336.0, 340.0, 345.0])
RATES = st.sampled_from([1e5, 12e6, 2e14, 1e16])


def small_shot_noise(n_nv, rate, dwell, temp, rms):
    return SMALL_ASSEMBLY.format(kind="shot-noise", n_nv=n_nv, rate=rate) \
        + f"\n[grids]\ntemp_k = {temp!r}\n\n[protocol]\ndwell_s = {dwell!r}\n" \
        "total_time_s = 3.0\nwindow_grid_s = 0.06 0.12 0.3\n" \
        + ("" if rms is None else f"floor_rms_k = {rms!r}\nfloor_period_s = 1.5\n")


def small_track(n_nv, rate, dwell, low, high):
    return SMALL_ASSEMBLY.format(kind="track", n_nv=n_nv, rate=rate) \
        + f"\n[protocol]\ndwell_s = {dwell!r}\nlow_k = {low!r}\nhigh_k = {high!r}\n" \
        "period_s = 1.2\nbin_s = 0.06\nduration_s = 3.6\n"


SMALL_FILES = st.builds(
    small_shot_noise, n_nv=st.integers(1, 5), rate=RATES,
    dwell=st.sampled_from([1e-4, 0.005, 0.02, 0.5]), temp=EDGE_TEMPS,
    rms=st.sampled_from([None, 0.0, 0.007, 1.0, 300.0])) | st.builds(
    small_track, n_nv=st.integers(1, 5), rate=RATES,
    dwell=st.sampled_from([1e-4, 0.005, 0.02]),
    low=st.sampled_from([1e-20, 0.0101]) | EDGE_TEMPS, high=EDGE_TEMPS)


def small_file(kind, **sections):
    """A seeded scenario of `kind` with the given {key: value} sections."""
    return f"[run]\nkind = {kind}\nseed = 3\n" + "".join(
        f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items())


def temp_range(start):
    return {"temp_start_k": start, "temp_stop_k": start + 1.0, "temp_step_k": 0.5}


def small_sweep(assembly, spin_j, x):
    # one composition: below the ferromagnetic threshold, with Tc = 0.23 K
    # too low for any offset of the temperature policy, or ordinary
    return small_file("design-sweep", magnet={"radius_m": "100e-9", "spin_j": spin_j},
                      assembly=assembly,
                      grids={"x_start": x, "x_stop": x + 0.01, "x_step": 1.0})


# The other five kinds around the same edges: the 1 mK dm/dT and dw/dT rows,
# an NV inside the magnet or on a zero axis, and assemblies that cannot be
# built (an FND overlapping the magnet, no NV, contrast above 1).
CUNI = {"material": "cuni74_milled", "radius_m": "100e-9"}
DT_EDGE_TEMPS = st.sampled_from([0.0009, 0.0011, 0.02, 339.999, 340.0])
ASSEMBLIES = st.fixed_dictionaries({
    "n_nv": st.integers(0, 5),
    "fnd_center_m": st.sampled_from(["0 0 120e-9", "0 0 200e-9", "0 0 1e-6"]),
    "contrast": st.sampled_from([0.05, 0.2, 0.9, 1.5])})
OTHER_FILES = st.one_of(
    st.builds(lambda j, t: small_file("magnetize", magnet=dict(CUNI, spin_j=j),
                                      grids=temp_range(t)),
              st.sampled_from([0.5, 3.5, -1.0]), DT_EDGE_TEMPS),
    st.builds(lambda z, axis, t: small_file(
        "susceptibility", magnet={"material": "gd", "radius_m": "1e-3"},
        spin={"nv_position_m": f"0 0 {z!r}", "nv_axis": axis}, grids=temp_range(t)),
        st.sampled_from([0.5e-3, 1.2e-3, 6.2e-3]),
        st.sampled_from(["0 0 1", "1 0 0", "0 0 0"]), DT_EDGE_TEMPS),
    st.builds(lambda asm, t, freqs: small_file(
        "spectrum", magnet=CUNI, assembly=asm, grids=dict(freqs, temp_k=t)),
        ASSEMBLIES, EDGE_TEMPS, st.sampled_from([{}, {
            "freq_start_hz": 2.8e9, "freq_stop_hz": 2.95e9, "freq_points": 11}])),
    st.builds(lambda asm, t: small_file("sensitivity", magnet=CUNI, assembly=asm,
                                        grids=temp_range(t)),
              ASSEMBLIES, EDGE_TEMPS),
    st.builds(small_sweep, ASSEMBLIES, st.sampled_from([0.5, -1.0]),
              st.sampled_from([0.3, 0.4502, 0.6])))


# Edits of the shipped files whose default grid, transition labels or magnet
# cannot be made: each exits alike from validate and run (3), or, in a
# design sweep, makes every row an error row with exit 0 from both.
NARROW_LINES = ("n_nv = 500", "n_nv = 500\nline_width_hz = 1e-100")
HUGE_BIAS = ("n_nv = 500", "n_nv = 500\nbias_field_t = 0 0 1e300")
HUGE_MAGNET = ("radius_m = 100e-9", "radius_m = 1e300",
               "fnd_center_m = 0 0 200e-9", "fnd_center_m = 0 0 1e300")
GRID_REFUSED = "assembly.line_width_hz: the default frequency grid cannot resolve"
AMBIGUOUS = "two levels overlap |m_s=0> equally"
VOLUME_OVERFLOWS = "radius 1e+300 m is too large: its volume overflows"
# the 1e300 T field overflows in the closed-form eigenvalues
OVERFLOWS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


EDIT_MATRIX = [
    *(pytest.param(shipped(name, *NARROW_LINES), 3, GRID_REFUSED, id=f"{name}-width")
      for name in ("spectrum_63c", "sensitivity_vs_temp", "track_63c", "shot_noise")),
    *(pytest.param(shipped(name, *HUGE_BIAS), 3, AMBIGUOUS, id=f"{name}-bias",
                   marks=OVERFLOWS)
      for name in ("spectrum_63c", "sensitivity_vs_temp")),
    *(pytest.param(shipped(name, *HUGE_MAGNET), 3, VOLUME_OVERFLOWS, id=f"{name}-radius")
      for name in ("spectrum_63c", "track_63c", "shot_noise")),
    pytest.param(small_sweep({"n_nv": 3, "line_width_hz": "1e-100"}, 0.5, 0.6), 0,
                 GRID_REFUSED, id="sweep-width"),
    pytest.param(small_sweep({"n_nv": 3, "bias_field_t": "0 0 1e300"}, 0.5, 0.6), 0,
                 AMBIGUOUS, id="sweep-bias", marks=OVERFLOWS),
]


class TestValidatePredictsRun:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(text=SMALL_FILES | OTHER_FILES)
    @example(text=BAD_SWEEPS[0])
    @example(text=BAD_SWEEPS[1])
    @example(text=BAD_SWEEPS[2])
    @example(text=BAD_SWEEPS[3])
    @example(text=TRACK_BAD_REF)
    @example(text=small_sweep({"n_nv": 3}, 0.5, 0.4502))
    @example(text=shipped("shot_noise", "floor_rms_k = 0.010", "floor_rms_k = 300.0"))
    @example(text=shipped("track_63c", "n_nv = 500", "n_nv = 500\nphoton_rate_cps = 1e16"))
    # the floor trace reaches 0.024 K, where f(1e-12) needs the series branch
    # of brillouin to keep the mean-field root bracketed
    @example(text=small_shot_noise(1, 12e6, 0.005, 0.02, 0.007))
    @example(text=SHOT_NOISE_EQUAL_PROBES)
    @example(text=TRACK_EQUAL_PROBES)
    @example(text=shipped("gd_susceptibility", "nv_axis = 0 0 1",
                          "nv_axis = 0 0 1\ndd_dt_hz_per_k = 0.0"))
    def test_validate_ok_means_run_exits_0(self, text):
        # exit 0, 2 or 3 from both commands, never a traceback (an exception
        # out of main), and run exits 0 whenever validate said ok; warnings
        # only print from the command line
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            p = write(Path(tmp), "gen.cfg", text)
            checked = main(["validate", str(p)])
            ran = main(["run", str(p), "--out", str(Path(tmp) / "out")])
        assert checked in (0, 2, 3) and ran in (0, 2, 3)
        assert checked != 0 or ran == 0, text

    @pytest.mark.parametrize("text", [SHOT_NOISE_EQUAL_PROBES, TRACK_EQUAL_PROBES],
                             ids=["shot-noise", "track"])
    def test_zero_calibration_slope_fails_both(self, tmp_path, capsys, text):
        # the calibration is part of the gate: validate fails as run does,
        # and run writes nothing, not even its --out directory
        p = write(tmp_path, "equal.cfg", text)
        assert main(["validate", str(p)]) == 3
        assert "calibration slope must be nonzero" in capsys.readouterr().err
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        assert "calibration slope must be nonzero" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("text, code, message", EDIT_MATRIX)
    def test_edit_exits_alike_from_validate_and_run(self, tmp_path, capsys, text,
                                                    code, message):
        p = write(tmp_path, "edited.cfg", text)
        assert main(["validate", str(p)]) == code
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 2 and err[0] == err[1], err
            assert err[0].startswith("physics error: ") and message in err[0]
            assert not (tmp_path / "out").exists()
            return
        assert err == []
        lines = (tmp_path / "out" / "edited.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")]
        status = rows[0].index("status")
        assert rows[1:] and all(row[status].startswith(f"error: {message}")
                                for row in rows[1:])


class TestResolveAcceptsItsOwnOutput:
    @pytest.mark.parametrize("name", sorted(f.stem for f in SCENARIO_DIR.glob("*.cfg")))
    def test_shipped_scenarios(self, name):
        resolved = resolve(parse_config((SCENARIO_DIR / f"{name}.cfg").read_text()))
        again = resolve(json.loads(json.dumps(resolved)))
        assert again == resolved
        assert assumptions_hash(again) == assumptions_hash(resolved)
        assert resolve(resolved) == resolved

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(text=SMALL_FILES | OTHER_FILES)
    def test_generated_files(self, text):
        try:
            resolved = resolve(parse_config(text))
        except SchemaError:
            return
        again = resolve(resolved)
        assert again == resolved
        assert assumptions_hash(again) == assumptions_hash(resolved)
