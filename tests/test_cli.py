import json
import re

import numpy as np
import pytest

import droope
from droope import smallsignal, timedomain
from droope.cli import main
from droope.errors import InitializationError, ScenarioError
from droope.metrics import headroom_csv, headroom_markdown, headroom_table
from droope.network import solve_power_flow
from droope.scenario import (BUILTINS, load_scenario, scenario_from_dict)


def fail_release_at(monkeypatch, dispatches):
    """Make the sweep's points at ``dispatches`` fail as a release would."""
    real = smallsignal.modal_point

    def modal_point(scenario, p_set):
        if p_set in dispatches:
            raise InitializationError(f"release refused at p_set={p_set}")
        return real(scenario, p_set)

    monkeypatch.setattr(smallsignal, "modal_point", modal_point)


# A value of each JSON type: string, bool, NaN, Infinity, list and object.
WRONG_VALUES = ("0.3", True, float("nan"), float("inf"), [], {})


def json_leaves(node, path=""):
    """``(container, key, path)`` of every value in a JSON document that is
    neither a list nor an object."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        if isinstance(node, list):
            sub = f"{path}[{key}]"
        else:
            sub = f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from json_leaves(value, sub)
        else:
            yield node, key, sub


class TestBuiltinScenarios:
    def test_case_a_dispatch(self):
        scen = load_scenario("3bus-caseA")
        sg = scen.device("sg1")
        gfm = scen.device("gfm3")
        assert sg.kind == "sg" and sg.p_set is None  # slack machine
        assert gfm.p_set == 0.05
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        assert pf.injections[1].real == pytest.approx(0.73, abs=0.01)

    def test_case_b_and_c_dispatches(self):
        assert load_scenario("3bus-caseB").device("gfm3").p_set == 0.50
        assert load_scenario("3bus-caseC").device("gfm3").p_set == 0.95

    def test_nine_bus_case_c_configuration(self):
        scen = load_scenario("9bus-caseC")
        kinds = {d.name: d.kind for d in scen.devices}
        assert kinds == {"gen1": "gfm_droop_e", "gen2": "sg",
                         "gen3": "gfm_droop_e"}
        mw = {d.name: (None if d.p_set is None
                       else d.p_set * d.params.rating_mva)
              for d in scen.devices}
        assert mw["gen1"] == pytest.approx(71.5)
        assert mw["gen3"] == pytest.approx(85.0)
        assert mw["gen2"] is None  # slack, dispatch from the power flow
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        assert pf.injections[2].real * 100 == pytest.approx(163.0, abs=8.0)
        assert all(d.power_sharing.enabled for d in scen.devices
                   if d.kind == "gfm_droop_e")

    def test_empty_events_valid(self):
        import dataclasses
        scen = dataclasses.replace(load_scenario("3bus-caseA"), events=())
        assert scen.events == ()

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_round_trip_identity(self, name):
        scen = load_scenario(name)
        again = scenario_from_dict(json.loads(scen.to_json()))
        assert again == scen
        assert again.to_json() == scen.to_json()

    def test_event_has_one_home(self):
        from droope import scenario
        assert droope.Event is timedomain.Event is scenario.Event


class TestScenarioValidation:
    def _minimal(self):
        return {
            "name": "mini",
            "base": {"system_mva": 100.0},
            "buses": [
                {"id": 1, "kind": "slack", "voltage_setpoint": 1.0},
                {"id": 2, "kind": "pq"},
            ],
            "branches": [{"from": 1, "to": 2, "x": 0.1}],
            "loads": [{"bus": 2, "p": 0.5, "q": 0.1}],
            "devices": [{"name": "g1", "bus": 1, "kind": "sg"}],
        }

    def test_minimal_loads_with_defaults(self):
        scen = scenario_from_dict(self._minimal())
        assert scen.sim.dt == 0.001
        assert scen.f_nominal_hz == 60.0
        assert scen.network.bases.base_rad_per_s == 377.0

    def test_unknown_top_level_key(self):
        d = self._minimal()
        d["surprise"] = 1
        with pytest.raises(ScenarioError, match="surprise"):
            scenario_from_dict(d)

    def test_unknown_param_key_labelled(self):
        d = self._minimal()
        d["devices"][0]["params"] = {"h": 3.0, "nonsense": 1}
        with pytest.raises(ScenarioError, match=r"devices\[0\].params"):
            scenario_from_dict(d)

    def test_bad_bus_kind_labelled(self):
        d = self._minimal()
        d["buses"][1]["kind"] = "mystery"
        with pytest.raises(ScenarioError, match=r"buses\[1\].kind"):
            scenario_from_dict(d)

    def test_non_numeric_field(self):
        d = self._minimal()
        d["loads"][0]["p"] = "lots"
        with pytest.raises(ScenarioError, match=r"loads\[0\].p"):
            scenario_from_dict(d)

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_every_leaf_is_type_checked(self, name):
        # each leaf of the document, replaced by a value of another JSON
        # type (or by NaN or Infinity), is rejected under its own path
        doc = json.loads(load_scenario(name).to_json())
        for node, key, path in list(json_leaves(doc)):
            good = node[key]
            for bad in WRONG_VALUES:
                if type(bad) is type(good) and isinstance(good, (str, bool)):
                    continue
                node[key] = bad
                with pytest.raises(ScenarioError,
                                   match="^" + re.escape(path) + ":"):
                    scenario_from_dict(doc)
            node[key] = good
        assert scenario_from_dict(doc) == load_scenario(name)

    def test_string_flag_rejected(self):
        d = self._minimal()
        d["devices"][0]["power_sharing"] = {"enabled": "no"}
        with pytest.raises(ScenarioError,
                           match=r"devices\[0\].power_sharing.enabled"):
            scenario_from_dict(d)

    def test_fractional_bus_id_rejected(self):
        d = self._minimal()
        d["buses"][1]["id"] = 1.9
        with pytest.raises(ScenarioError, match=r"buses\[1\].id"):
            scenario_from_dict(d)

    def test_integral_numbers_accepted_as_floats(self):
        d = self._minimal()
        d["base"]["system_mva"] = 100
        scen = scenario_from_dict(d)
        assert type(scen.network.bases.system_mva) is float
        assert scenario_from_dict(json.loads(scen.to_json())) == scen

    def test_slack_device_with_dispatch_rejected(self):
        d = self._minimal()
        d["devices"][0]["p_set"] = 0.5
        with pytest.raises(ScenarioError, match="slack"):
            scenario_from_dict(d)

    def test_second_device_on_bus_rejected(self):
        d = self._minimal()
        d["devices"].append({"name": "g2", "bus": 1, "kind": "sg"})
        with pytest.raises(ScenarioError, match="second device"):
            scenario_from_dict(d)

    def test_unschedulable_event_rejected(self):
        d = self._minimal()
        d["events"] = [{"t": 1.0, "kind": "gate_armed"}]
        with pytest.raises(ScenarioError, match="events"):
            scenario_from_dict(d)

    @pytest.mark.parametrize("rating", [0.0, -100.0])
    def test_non_positive_rating_labelled(self, rating):
        d = self._minimal()
        d["devices"][0]["params"] = {"rating_mva": rating}
        with pytest.raises(ScenarioError,
                           match=r"devices\[0\].params: .*rating_mva"):
            scenario_from_dict(d)

    def test_unknown_source_rejected(self):
        with pytest.raises(ScenarioError, match="neither a built-in"):
            load_scenario("no-such-scenario")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(self._minimal()))
        assert load_scenario(path).name == "mini"
        assert load_scenario(str(path)).name == "mini"

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  not json\n}")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(path)


class TestCommandLine:
    def test_powerflow_prints_solution(self, capsys):
        assert main(["powerflow", "--scenario", "3bus-caseB"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "0.50000000" in out

    def test_simulate_writes_trace_and_stats(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "3bus-caseA",
                   "--out", str(tmp_path), "--t-end", "0.5"])
        assert rc == 0
        trace = (tmp_path / "3bus-caseA_trace.csv").read_text()
        assert trace.splitlines()[0].startswith("t,dev_sg1_f_hz")
        assert len(trace.splitlines()) == 502
        stats = json.loads((tmp_path / "3bus-caseA_stats.json").read_text())
        assert stats["source"] == "sg"
        assert stats["window_s"] == 0.1

    def test_simulate_deterministic_output(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            main(["simulate", "--scenario", "3bus-caseA", "--out", str(d),
                  "--t-end", "0.3"])
            outs.append((d / "3bus-caseA_trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_droop_curve_with_ufls_annotation(self, tmp_path):
        rc = main(["droop-curve", "--scenario", "3bus-caseA",
                   "--out", str(tmp_path), "--pset", "0.2,0.73"])
        assert rc == 0
        lines = (tmp_path / "3bus-caseA_droop_curve.csv").read_text().splitlines()
        assert lines[0] == "p_set,p,f_droop_e_hz,f_static5_hz,below_ufls_59hz"
        assert len(lines) == 1 + 2 * 201
        flags = {row.split(",")[-1] for row in lines[1:]}
        assert flags == {"0", "1"}  # the curve crosses 59 Hz at full output
        # spot value: at p = p_set the deviation is zero
        row = next(r for r in lines[1:]
                   if r.startswith("0.2,0.2,"))
        assert float(row.split(",")[2]) == 60.0

    def test_eig_sweep_csv(self, tmp_path):
        rc = main(["eig-sweep", "--scenario", "3bus-caseA",
                   "--out", str(tmp_path),
                   "--from", "0.2", "--to", "0.24", "--step", "0.01"])
        assert rc == 0
        lines = (tmp_path / "3bus-caseA_modes.csv").read_text().splitlines()
        assert lines[0].startswith("p_set,track,re,im,zeta,freq_hz")
        assert len(lines) == 1 + 5 * 11

    def test_eig_sweep_grid_beyond_one_rejected_up_front(self, tmp_path,
                                                         capsys):
        rc = main(["eig-sweep", "--scenario", "3bus-caseA",
                   "--out", str(tmp_path),
                   "--from", "0.98", "--to", "1.02", "--step", "0.01"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert err["kind"] == "input" and err["type"] == "ScenarioError"
        assert "p_set=1.01 " in err["message"]
        assert not (tmp_path / "3bus-caseA_modes.csv").exists()

    def test_eig_sweep_names_failure_class(self, tmp_path, capsys,
                                           monkeypatch):
        # points that fail in release, not in power flow, are named by
        # their error class; a sweep with no successful point is a failed run
        fail_release_at(monkeypatch, {0.01, 0.02})
        rc = main(["eig-sweep", "--scenario", "9bus-caseC",
                   "--out", str(tmp_path),
                   "--from", "0.01", "--to", "0.02", "--step", "0.01"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        failed = [ln for ln in err if "point failed" in ln]
        assert len(failed) == 2
        assert all("InitializationError:" in ln for ln in failed)
        assert "no dispatch point succeeded" in err
        assert not (tmp_path / "9bus-caseC_modes.csv").exists()

    def test_eig_sweep_with_some_points_failed_succeeds(self, tmp_path,
                                                         capsys, monkeypatch):
        fail_release_at(monkeypatch, {0.05})
        rc = main(["eig-sweep", "--scenario", "9bus-caseC",
                   "--out", str(tmp_path),
                   "--from", "0.05", "--to", "0.06", "--step", "0.01"])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.count("point failed at p_set=0.05") == 1
        assert "no dispatch point succeeded" not in err
        lines = (tmp_path / "9bus-caseC_modes.csv").read_text().splitlines()
        assert len(lines) > 1
        assert all(ln.startswith("0.06,") for ln in lines[1:])

    def test_report_table_one_byte_identical(self, tmp_path):
        rc = main(["report", "--tables", "I", "--out", str(tmp_path)])
        assert rc == 0
        rows = headroom_table(p_set=0.2, delta_f_hz=[0.25, 0.50, 0.75])
        assert (tmp_path / "table_I.csv").read_text() == headroom_csv(rows)
        assert (tmp_path / "table_I.md").read_text() == headroom_markdown(rows)

    def test_unknown_scenario_is_input_error(self, capsys):
        assert main(["powerflow", "--scenario", "missing.json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "input"

    def test_string_parameter_is_input_error(self, tmp_path, capsys):
        doc = json.loads(load_scenario("3bus-caseA").to_json())
        doc["devices"][1]["params"]["x_gfm"] = "0.3"
        path = tmp_path / "string_param.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path), "--t-end", "0.01"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "input"
        assert err["message"].startswith("devices[1].params.x_gfm:")

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        bad = {
            "name": "collapse",
            "base": {"system_mva": 100.0},
            "buses": [
                {"id": 1, "kind": "slack", "voltage_setpoint": 1.0},
                {"id": 2, "kind": "pq"},
            ],
            "branches": [{"from": 1, "to": 2, "x": 0.5}],
            "loads": [{"bus": 2, "p": 40.0, "q": 10.0}],
            "devices": [{"name": "g1", "bus": 1, "kind": "sg"}],
        }
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(bad))
        assert main(["powerflow", "--scenario", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "numeric"

    def test_report_rejects_unknown_table(self, capsys):
        assert main(["report", "--tables", "IX"]) == 2
