"""Configuration loading and the synth/run/check command-line surface."""

import csv
import math
from pathlib import Path

import pytest

from pmcmc.cli import (
    _check_routing_battery,
    main,
    read_observations,
    write_chain_csv,
    write_diagnostics_csv,
    write_observations,
)
from pmcmc.config import Schedule, load_config
from pmcmc.core import ObservationSeries, Parameters, ValidationError
from pmcmc.executor import FilterSession
from pmcmc.models import LinearGaussianModel, get_model_entry, synthesize_linear_gaussian
from pmcmc.sampler import (
    Prior,
    SamplerSettings,
    UniformPrior,
    make_filter_evaluator,
    run_chain,
)

_LG_YAML = """\
config_version: 1
model:
  name: linear_gaussian
prior:
  a: {kind: uniform, lower: -1.0, upper: 1.0}
initial:
  a: 0.6
proposal_scales:
  a: 0.3
schedule:
  init_steps: 2
  observations: 4
  spacing: 2
samples: 4
particles: 16
workers: 2
seed: 5
observations_path: obs.csv
output_dir: out
"""

_DESK_YAML = """\
config_version: 1
model:
  name: predator_prey
  profile: desk
prior:
  K_prey: {kind: lognormal, mu: 3.2, sigma: 0.5}
  K_pred: {kind: lognormal, mu: 2.7, sigma: 0.5}
initial:
  K_prey: 25.0
  K_pred: 15.0
proposal_scales:
  K_prey: 2.0
  K_pred: 1.5
schedule:
  init_steps: 50
  observations: 10
  spacing: 5
samples: 5
particles: 16
workers: 2
seed: 42
observations_path: obs.csv
output_dir: out
"""


def _write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSchedule:
    def test_evenly_spaced_times(self):
        assert Schedule(50, 10, 5).times == tuple(range(50, 100, 5))
        assert Schedule(2, 4, 2).times == (2, 4, 6, 8)

    def test_long_horizon(self):
        times = Schedule(1901, 20, 37).times
        assert len(times) == 20
        assert times[0] == 1901 and times[-1] == 2604

    def test_validation(self):
        with pytest.raises(ValidationError, match="schedule.observations"):
            Schedule(1, 0, 1)
        with pytest.raises(ValidationError, match="schedule.init_steps"):
            Schedule(0, 1, 1)


class TestConfigLoading:
    def test_load_resolves_paths_and_builds_prior(self, tmp_path):
        config = load_config(_write_config(tmp_path, _LG_YAML))
        assert config.model_name == "linear_gaussian"
        assert config.initial == Parameters({"a": 0.6})
        assert config.proposal_scales == {"a": 0.3}
        assert config.schedule.times == (2, 4, 6, 8)
        assert config.observations_path == tmp_path / "obs.csv"
        assert config.output_dir == tmp_path / "out"
        assert config.prior.log_density(Parameters({"a": 0.0})) == -math.log(2.0)

    def test_field_identified_errors(self, tmp_path):
        cases = [
            ("config_version: 1\n", "model"),
            (_LG_YAML.replace("config_version: 1", "config_version: 2"), "config_version"),
            (_LG_YAML.replace("samples: 4", "samples: true"), "samples"),
            (_LG_YAML.replace("samples: 4", "samples: 0"), "samples"),
            (_LG_YAML.replace("kind: uniform", "kind: beta"), "prior.a.kind"),
            (_LG_YAML.replace("  a: 0.3", "  zz: 0.3"), "proposal_scales"),
            (_LG_YAML + "extra_key: 1\n", "unknown config keys"),
            (_LG_YAML.replace("seed: 5", "seed: -1"), "seed"),
            (_LG_YAML.replace("workers: 2", "workers: 0"), "workers"),
            (_DESK_YAML.replace("  profile: desk", "  profle: full"), "model.profle"),
            (_DESK_YAML.replace("  profile: desk", "  profile: desk\n  initial_prey: abc"),
             "model.initial_prey"),
            (_LG_YAML.replace("  name: linear_gaussian", "  name: linear_gaussian\n  q: big"), "model.q"),
            (_LG_YAML.replace("  a: 0.3", "  a: -0.1"), "proposal_scales.a"),
            (_LG_YAML.replace("  a: 0.6", "  a: 0.6\n  q: 0.2").replace("  a: 0.3", "  a: 0.3\n  q: 0.5"),
             "proposal_scales.q has no prior"),
            (_LG_YAML.replace("  name: linear_gaussian", "  name: delay\n  delay_ms: .nan"), "delay_ms"),
            (_LG_YAML.replace("  name: linear_gaussian", "  name: delay\n  delay_ms: .inf"), "delay_ms"),
            (_LG_YAML.replace("lower: -1.0", "lower: abc"), "prior.a.lower"),
            (_LG_YAML.replace("lower: -1.0", "lower: [1]"), "prior.a.lower"),
            (_LG_YAML.replace("upper: 1.0", "upper: true"), "prior.a.upper"),
            (_LG_YAML.replace("kind: uniform", "kind: [1]"), "prior.a.kind"),
            (_LG_YAML.replace("  a: 0.6", "  a: true"), "initial.a"),
            (_LG_YAML.replace("  a: 0.3", "  a: true"), "proposal_scales.a"),
            ("- 1\n", "config root"),
            (_LG_YAML.replace("  name: linear_gaussian", "  q: 1.0"), "config.model"),
            (_LG_YAML.replace("  name: linear_gaussian", "  name: ''"), "model.name"),
            (_DESK_YAML.replace("profile: desk", "profile: huge"), "model.profile"),
            (_LG_YAML.replace("{kind: uniform, lower: -1.0, upper: 1.0}", "3"), "prior.a"),
            (_LG_YAML.replace("kind: uniform, ", ""), "prior.a"),
            (_DESK_YAML.replace("mu: 3.2, sigma: 0.5", "mu: 3.2"), "prior.K_prey (lognormal) is missing key 'sigma'"),
            (_LG_YAML.replace("upper: 1.0}", "upper: 1.0, scale: 2}"), "prior.a has unexpected keys ['scale']"),
            (_DESK_YAML.replace("mu: 3.2", "mu: .nan"), "prior.K_prey.mu"),
            (_LG_YAML.replace("prior:\n  a: {kind: uniform, lower: -1.0, upper: 1.0}", "prior: {}"), "config.prior"),
            (_LG_YAML.replace("initial:\n  a: 0.6", "initial: {}"), "initial"),
            (_LG_YAML.replace("schedule:\n  init_steps: 2\n  observations: 4\n  spacing: 2", "schedule: [1]"),
             "config.schedule"),
            (_LG_YAML.replace("  spacing: 2", "  spacing: 2\n  offset: 1"), "schedule has unexpected keys ['offset']"),
            (_DESK_YAML.replace("  profile: desk", "  profile: desk\n  encounter_rate: true"),
             "model.encounter_rate"),
        ]
        for text, needle in cases:
            with pytest.raises(ValidationError) as info:
                load_config(_write_config(tmp_path, text, "broken.yaml"))
            assert needle in str(info.value), f"{needle!r} not named in: {info.value}"

    def test_rate_override_reaches_the_model(self, tmp_path):
        text = _DESK_YAML.replace("  profile: desk", "  profile: desk\n  encounter_rate: 0.005")
        config = load_config(_write_config(tmp_path, text))
        model = get_model_entry(config.model_name).factory(config.model_config)
        model.init(config.initial, 1)
        assert model._params.encounter_rate == 0.005

    def test_prior_over_unknown_parameter_rejected(self, tmp_path):
        text = _LG_YAML.replace("  a: {kind: uniform, lower: -1.0, upper: 1.0}",
                                "  b: {kind: uniform, lower: -1.0, upper: 1.0}")
        with pytest.raises(ValidationError, match="unknown parameter"):
            load_config(_write_config(tmp_path, text, "broken.yaml"))

    def test_invalid_yaml_and_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not valid YAML"):
            load_config(_write_config(tmp_path, "model: [unclosed\n", "bad.yaml"))
        with pytest.raises(ValidationError, match="cannot read config"):
            load_config(tmp_path / "nope.yaml")


class TestObservationIO:
    def test_round_trip_counts(self, tmp_path):
        series = ObservationSeries((5, 10), ({"prey": 120, "predator": 9},
                                             {"prey": 98, "predator": 11}))
        path = tmp_path / "obs.csv"
        write_observations(series, ("prey", "predator"), path)
        again = read_observations(path, "predator_prey")
        assert again.times == (5.0, 10.0)
        assert again.data == series.data

    def test_round_trip_floats_exact(self, tmp_path):
        series = synthesize_linear_gaussian(Parameters({"a": 0.7}), (1, 2, 3), seed=8)
        path = tmp_path / "obs.csv"
        write_observations(series, ("y",), path)
        again = read_observations(path, "linear_gaussian")
        assert again.data == series.data

    def test_header_checked(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,prey\n1,5\n")
        with pytest.raises(ValidationError, match="header"):
            read_observations(path, "predator_prey")

    def test_errors_carry_line_and_field(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,prey,predator\n1,5,2\n2,-3,1\n")
        with pytest.raises(ValidationError, match=r"line 3, field 'prey'"):
            read_observations(path, "predator_prey")
        path.write_text("time,prey,predator\nx,5,2\n")
        with pytest.raises(ValidationError, match=r"line 2, field 'time'"):
            read_observations(path, "predator_prey")
        path.write_text("time,prey,predator\n1,5\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_observations(path, "predator_prey")
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            read_observations(path, "predator_prey")

    def test_header_only_file_names_the_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,prey,predator\n")
        with pytest.raises(ValidationError) as info:
            read_observations(path, "predator_prey")
        assert f"{path} line 2:" in str(info.value)

    def test_decreasing_time_names_the_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,prey,predator\n1,5,2\n3,5,2\n2,5,2\n")
        with pytest.raises(ValidationError) as info:
            read_observations(path, "predator_prey")
        assert f"{path} line 4, field 'time'" in str(info.value)
        assert "strictly increasing" in str(info.value)

    def test_non_finite_time_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        for text in ("nan", "inf", "-inf"):
            path.write_text(f"time,prey,predator\n1,5,2\n{text},5,2\n")
            with pytest.raises(ValidationError, match=r"line 3, field 'time': not a finite number"):
                read_observations(path, "predator_prey")


def _tiny_chain():
    obs = synthesize_linear_gaussian(Parameters({"a": 0.6}), (2, 4), seed=3)
    settings = SamplerSettings(Parameters({"a": 0.5}), 4, {"a": 0.2},
                               Prior({"a": UniformPrior(-1.0, 1.0)}))
    with FilterSession(LinearGaussianModel, 8, 2, chain_index=7) as session:
        return run_chain(settings, make_filter_evaluator(session, obs), chain_index=7)


class TestResultCsv:
    def test_chain_csv_layout(self, tmp_path):
        records = _tiny_chain()
        path = tmp_path / "chain.csv"
        write_chain_csv(records, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["sample", "theta_a", "log_likelihood", "log_std",
                           "log_prior", "accepted"]
        assert len(rows) == 1 + len(records)
        for row, record in zip(rows[1:], records):
            assert int(row[0]) == record.sample_index
            assert float(row[1]) == record.theta["a"]
            assert float(row[2]) == record.log_likelihood
            assert row[5] == ("1" if record.accepted else "0")

    def test_rejected_rows_repeat_theta(self, tmp_path):
        records = _tiny_chain()
        path = tmp_path / "chain.csv"
        write_chain_csv(records, path)
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        for prev, row in zip(rows, rows[1:]):
            if row[5] == "0":
                assert row[1] == prev[1] and row[2] == prev[2]

    def test_diagnostics_csv_layout(self, tmp_path):
        records = _tiny_chain()
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(records, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["sample", "observation", "redraw_rate", "move_fraction",
                           "copy_fraction", "stage", "worker", "duration"]
        traffic = [r for r in rows[1:] if r[2] != ""]
        timing = [r for r in rows[1:] if r[5] != ""]
        assert traffic and timing
        for row in traffic:
            assert row[5] == "" and row[6] == "" and row[7] == ""
            assert 0.0 < float(row[2]) <= 1.0
        for row in timing:
            assert row[2] == "" and row[3] == "" and row[4] == ""
            assert float(row[7]) >= 0.0
        assert any(r[6] == "-1" for r in timing)       # master-side stages
        assert any(r[1] == "0" for r in timing)        # initialization stages


class TestSynthCommand:
    def test_desk_synthesis(self, tmp_path, capsys):
        config = _write_config(tmp_path, _DESK_YAML)
        assert main(["synth", "--config", str(config)]) == 0
        assert "wrote 10 observations" in capsys.readouterr().out
        lines = (tmp_path / "obs.csv").read_text().splitlines()
        assert lines[0] == "time,prey,predator"
        assert len(lines) == 11
        assert lines[1] == "50,127,2"                  # frozen for seed 42
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(50, 100, 5))

    def test_deterministic_and_seed_sensitive(self, tmp_path):
        config = _write_config(tmp_path, _DESK_YAML)
        main(["synth", "--config", str(config)])
        first = (tmp_path / "obs.csv").read_bytes()
        main(["synth", "--config", str(config)])
        assert (tmp_path / "obs.csv").read_bytes() == first
        main(["synth", "--config", str(config), "--seed", "43"])
        assert (tmp_path / "obs.csv").read_bytes() != first

    def test_requires_observations_path(self, tmp_path, capsys):
        text = _DESK_YAML.replace("observations_path: obs.csv\n", "")
        config = _write_config(tmp_path, text)
        assert main(["synth", "--config", str(config)]) == 2
        assert "observations_path" in capsys.readouterr().err

    def test_model_without_synthesizer_fails_cleanly(self, tmp_path, capsys):
        config = _write_config(tmp_path, _LG_YAML.replace("name: linear_gaussian", "name: delay"))
        assert main(["synth", "--config", str(config)]) == 2
        assert "model 'delay' does not support synthesis" in capsys.readouterr().err
        assert not (tmp_path / "obs.csv").exists()


class TestRunCommand:
    def test_run_writes_results(self, tmp_path, capsys):
        config = _write_config(tmp_path, _LG_YAML)
        assert main(["synth", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "4 samples" in out
        chain_rows = (tmp_path / "out" / "chain.csv").read_text().splitlines()
        assert len(chain_rows) == 5
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_chain_is_worker_count_invariant(self, tmp_path):
        config = _write_config(tmp_path, _LG_YAML)
        main(["synth", "--config", str(config)])
        outputs = {}
        for W in (1, 2):
            main(["run", "--config", str(config), "--workers", str(W),
                  "--output", str(tmp_path / f"out{W}")])
            outputs[W] = (tmp_path / f"out{W}" / "chain.csv").read_bytes()
        assert outputs[1] == outputs[2]

    def test_run_is_deterministic(self, tmp_path):
        config = _write_config(tmp_path, _LG_YAML)
        main(["synth", "--config", str(config)])
        main(["run", "--config", str(config)])
        first = (tmp_path / "out" / "chain.csv").read_bytes()
        main(["run", "--config", str(config)])
        assert (tmp_path / "out" / "chain.csv").read_bytes() == first

    def test_missing_observations_fail_cleanly(self, tmp_path, capsys):
        config = _write_config(tmp_path, _LG_YAML)
        assert main(["run", "--config", str(config)]) == 2
        assert "cannot read observations" in capsys.readouterr().err

    def test_requires_observations_path(self, tmp_path, capsys):
        config = _write_config(tmp_path, _LG_YAML.replace("observations_path: obs.csv\n", ""))
        assert main(["run", "--config", str(config)]) == 2
        assert "observations_path is required to run the sampler" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCheckCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "all 3 checks passed" in out
        for name in ("pf-vs-kalman", "routing-battery", "worker-invariance"):
            assert f"PASS {name}" in out

    def test_seed_fault_fails_only_invariance(self, capsys):
        assert main(["check", "--fault-worker-seeds"]) == 1
        out = capsys.readouterr().out
        assert "FAIL worker-invariance" in out
        assert "PASS pf-vs-kalman" in out
        assert "PASS routing-battery" in out

    def test_seed_without_config_reaches_the_checks(self, capsys, monkeypatch):
        seen = []

        def stub(seed, fault):
            seen.append(seed)
            return True, "stubbed"

        for name in ("_check_pf_vs_kalman", "_check_routing_battery", "_check_worker_invariance"):
            monkeypatch.setattr(f"pmcmc.cli.{name}", stub)
        assert main(["check", "--seed", "11"]) == 0
        assert seen == [11, 11, 11]

    def test_top_seed_passes(self, capsys):
        assert main(["check", "--seed", str(2**64 - 1)]) == 0
        assert "all 3 checks passed" in capsys.readouterr().out

    def test_routing_battery_passes_for_every_seed(self):
        # the battery's random layouts may overfill a worker; only those
        # that fit its capacity promise an identity resample no moves
        for seed in range(50):
            ok, detail = _check_routing_battery(seed, False)
            assert ok, f"seed {seed}: {detail}"


class TestMainErrors:
    def test_run_requires_config(self, capsys):
        assert main(["run"]) == 2
        assert "requires --config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["synth", "--workers", "2"], ["check", "--output", "d"]])
    def test_unread_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "synth", "run"])
    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_out_of_range_names_the_option(self, tmp_path, capsys, command, seed):
        argv = [command, "--seed", str(seed)]
        if command != "check":
            argv += ["--config", str(_write_config(tmp_path, _LG_YAML))]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --seed must be an integer in [0, 2**64), got {seed}\n"

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("line, needle", [("  profle: full", "model.profle"),
                                              ("  profile: desk\n  initial_prey: abc", "model.initial_prey")],
                             ids=["typo", "unparsable"])
    def test_bad_model_key_fails_cleanly(self, tmp_path, capsys, line, needle):
        config = _write_config(tmp_path, _DESK_YAML.replace("  profile: desk", line))
        for command in ("synth", "run"):
            assert main([command, "--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err and "Traceback" not in err
        assert not (tmp_path / "obs.csv").exists()

    def test_unwritable_output_fails_before_the_chain(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path, _LG_YAML)
        assert main(["synth", "--config", str(config)]) == 0
        (tmp_path / "outfile").write_text("")

        def no_chain(*args, **kwargs):
            raise AssertionError("the chain ran before the output path was checked")

        monkeypatch.setattr("pmcmc.cli.run_chain", no_chain)
        assert main(["run", "--config", str(config), "--output", str(tmp_path / "outfile")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "outfile" in err and "Traceback" not in err

    def test_bad_prior_value_fails_cleanly(self, tmp_path, capsys):
        config = _write_config(tmp_path, _LG_YAML.replace("lower: -1.0", "lower: abc"))
        assert main(["synth", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "prior.a.lower" in err and "Traceback" not in err

    def test_synth_to_a_directory_fails_cleanly(self, tmp_path, capsys):
        config = _write_config(tmp_path, _LG_YAML.replace("obs.csv", "obsdir"))
        (tmp_path / "obsdir").mkdir()
        assert main(["synth", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "obsdir" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_observation_fails_cleanly(self, tmp_path, capsys, text):
        config = _write_config(tmp_path, _LG_YAML)
        (tmp_path / "obs.csv").write_text(f"time,y\n2,0.5\n4,{text}\n")
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"obs.csv line 3, field 'y': not a finite number: '{text}'" in err

    def test_acceptance_window_is_unknown(self, tmp_path, capsys):
        config = _write_config(tmp_path, _LG_YAML + "acceptance_window: 20\n")
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown config keys: ['acceptance_window']" in err

    def test_unknown_model_lists_registry(self, tmp_path, capsys):
        text = _LG_YAML.replace("name: linear_gaussian", "name: volcano")
        config = _write_config(tmp_path, text)
        assert main(["synth", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "volcano" in err and "predator_prey" in err
