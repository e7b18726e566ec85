"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import make_scenario
from repro.experiments.scenario import run


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return tuple(action.choices)


ALL_SUBCOMMANDS = _subcommands()


def test_help_lists_every_subcommand(capsys):
    assert {"run", "trace", "submit"} <= set(ALL_SUBCOMMANDS)
    # One scenario verb: the family verbs are catalog names under `run`.
    assert not {"inf-train", "train-train", "inf-inf", "faults", "fleet",
                "overload", "llm"} & set(ALL_SUBCOMMANDS)
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ALL_SUBCOMMANDS:
        assert command in out, f"{command} missing from top-level --help"


@pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
def test_subcommand_help_smoke(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert command in out or "usage" in out


def _run_json(argv, capsys):
    assert main(["run", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_parser_rejects_unknown_model(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "overload", "--set", "model=alexnet"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: overload: model: unknown workload 'alexnet'")


# One catalog entry per scenario kind, at a short horizon.
RUN_CELLS = [
    ("inf-train", 0.2, {"warmup": 0.05}),
    ("overload", 0.05, {}),
    ("faults", 0.05, {"be_clients": 1}),
    ("fleet", 0.04, {"num_gpus": 2}),
    ("llm", 0.05, {"max_batch": 4}),
]


@pytest.mark.parametrize("name,duration,overrides", RUN_CELLS,
                         ids=[cell[0] for cell in RUN_CELLS])
def test_run_json_is_the_canonical_result(name, duration, overrides, capsys):
    argv = ["run", name, "--seed", "3", "--duration", str(duration)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    assert main(argv + ["--json"]) == 0
    expected = run(make_scenario(name, seed=3, duration=duration,
                                 **overrides)).to_json()
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("item,message", [
    ("be_client=3", "unknown --set key(s) be_client; valid: "),
    ("policy=drop", "policy must be one of"),
    ("be_clients", "bad --set 'be_clients'; expected KEY=VAL"),
])
def test_run_rejects_bad_set_as_usage_error(item, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "overload", "--set", item])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    if "KEY=VAL" not in message:
        assert "be_clients, be_load" in err  # the valid keys are listed


@pytest.mark.parametrize("name,item,message", [
    ("overload", "be_clients=1.5", "be_clients must be int, got 1.5"),
    ("fleet", "tenants=[1]", "tenants must be a sequence of TenantSpec"),
])
def test_run_rejects_wrong_typed_set_as_usage_error(name, item, message,
                                                    capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", name, "--set", item])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and message in err


def test_run_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "no_such_scenario"])
    assert excinfo.value.code == 2
    assert "known: faults, fleet" in capsys.readouterr().err


def test_inf_train_cli_runs(capsys):
    rc = main(["run", "inf-train", "--duration", "0.3",
               "--set", "hp=mobilenet_v2", "--set", "be=mobilenet_v2",
               "--set", "warmup=0.05"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "hp-mobilenet_v2-inference" in out
    assert "scheduler" in out


def test_inf_inf_cli_json_output(capsys):
    payload = _run_json(["inf-inf", "--duration", "0.3",
                         "--set", "hp=mobilenet_v2", "--set", "be=mobilenet_v2",
                         "--set", "backend=mps", "--set", "warmup=0.05"],
                        capsys)
    result = payload["result"]
    assert payload["name"] == "inf-inf" and result["backend"] == "mps"
    assert len(result["jobs"]) == 2
    assert all("p99" in job["latency"] for job in result["jobs"].values())


def test_train_train_cli_with_sm_threshold(capsys):
    payload = _run_json(["train-train", "--duration", "0.3",
                         "--set", "hp=mobilenet_v2", "--set", "be=mobilenet_v2",
                         "--set", "warmup=0.05",
                         "--set", 'orion={"sm_threshold": 160}'], capsys)
    assert payload["result"]["backend_stats"]["sm_threshold"] == 160


def test_overload_and_llm_cli_summaries(capsys):
    assert main(["run", "overload", "--duration", "0.05",
                 "--set", "guard=false"]) == 0
    out = capsys.readouterr().out
    assert "capacity:" in out and "(2.3x)" in out and "guard: off" in out
    assert "be goodput:" in out
    assert main(["run", "llm", "--duration", "0.05",
                 "--set", "max_batch=4", "--set", "cache_policy=block"]) == 0
    out = capsys.readouterr().out
    assert "batch cap: 4   policy: block" in out
    assert "kv cache:" in out


def test_faults_cli_runs(capsys):
    rc = main(["run", "faults", "--duration", "0.06", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault plan" in out
    assert "kill client 'be-0'" in out
    assert "restarts" in out


def test_faults_cli_json_ledger(capsys):
    payload = _run_json(["faults", "--duration", "0.06", "--seed", "1"],
                        capsys)
    ledger = payload["result"]["ledger"]
    assert "clients" in ledger and "injections" in ledger
    assert ledger["injections"][0]["type"] == "KillClient"
    assert "be-0" in ledger["clients"]


FLEET_2GPU = ["fleet", "--duration", "0.04", "--seed", "1",
              "--set", "num_gpus=2", "--set", "crashes=1",
              "--set", "degrades=0"]


def test_fleet_cli_runs(capsys):
    rc = main(["run", *FLEET_2GPU])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault plan" in out
    assert "crash gpu" in out
    assert "fleet uptime" in out
    assert "failover" in out


def test_fleet_cli_json_report(capsys):
    report = _run_json(FLEET_2GPU, capsys)["result"]["report"]
    assert report["num_gpus"] == 2
    assert report["faults"]["crashes"] == 1
    assert "gpu0" in report["gpus"] and "gpu1" in report["gpus"]


def test_fleet_cli_rebalance_runs(capsys):
    argv = ["fleet", "--duration", "0.1", "--seed", "0",
            "--set", "num_gpus=2", "--set", "crashes=0",
            "--set", "degrades=0", "--set", "be_tenants=1",
            "--set", "hp_load=0.15", "--set", "be_load=0.15",
            "--set", "placement=adversarial", "--set", "rebalance=true",
            "--set", "migration_min_gain=0.01"]
    assert main(["run", *argv]) == 0
    assert "migrations:" in capsys.readouterr().out
    report = _run_json(argv, capsys)["result"]["migration"]
    assert report["started"] >= 1
    assert report["records"][0]["transitions"][0][1] == "planned"


def test_fleet_cli_rebalance_help_lists_flags(capsys):
    # The rebalance knobs are --set keys; a misspelt one lists them all.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fleet", "--set", "rebalanse=true"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    for key in ("rebalance", "placement", "rebalance_interval",
                "migration_cooldown", "max_inflight_migrations",
                "migration_min_gain"):
        assert f" {key}," in err or err.rstrip().endswith(f" {key}"), key


def test_fleet_cli_rejects_rebalance_without_placement():
    with pytest.raises(ValueError):
        main(["run", "fleet", "--duration", "0.02",
              "--set", "num_gpus=2", "--set", "crashes=0",
              "--set", "degrades=0", "--set", "rebalance=true"])


def test_scenarios_cli_lists_catalog(capsys):
    rc = main(["scenarios"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("fleet_ref", "overload_ref", "inf_train_ref",
                 "fleet_rebalance"):
        assert name in out, f"{name} missing from the catalog table"
    assert "experiment" in out and "fleet" in out


def test_scenarios_cli_json_matches_registry(capsys):
    from repro.experiments.registry import scenario_catalog, scenario_names

    rc = main(["scenarios", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert tuple(sorted(payload)) == scenario_names()
    assert payload == scenario_catalog()
    assert payload["fleet_ref"]["kind"] == "fleet"
    assert payload["fleet_ref"]["params"]["num_gpus"] == 8
    assert payload["inf_train_ref"]["kind"] == "experiment"
    assert payload["inf_train_ref"]["params"]["backend"] == "orion"


def test_submit_status_cancel_cli_roundtrip(capsys):
    from repro.serve import ServeConfig, ServeServer

    server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0", workers=1,
                                     telemetry_interval=0))
    address = server.start()
    try:
        rc = main(["submit", "faults", "--address", address,
                   "--duration", "0.05", "--seed", "2", "--wait", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["state"] == "COMPLETED"
        assert payload["result"]["seed"] == 2
        job = payload["id"]

        rc = main(["status", job, "--address", address])
        assert rc == 0
        assert "COMPLETED" in capsys.readouterr().out

        rc = main(["status", "--address", address])
        assert rc == 0
        assert "daemon:" in capsys.readouterr().out

        rc = main(["cancel", job, "--address", address])
        assert rc == 0
        assert "already COMPLETED" in capsys.readouterr().out

        rc = main(["status", "job-9999", "--address", address])
        assert rc == 1
    finally:
        server.shutdown()


def test_submit_cli_reports_queue_full(capsys):
    from repro.serve import ServeConfig, ServeServer

    server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0", workers=0,
                                     max_pending=1, telemetry_interval=0))
    address = server.start()
    try:
        assert main(["submit", "faults", "--address", address,
                     "--duration", "0.05"]) == 0
        rc = main(["submit", "faults", "--address", address,
                   "--duration", "0.05"])
        assert rc == 1
        assert "queue_full" in capsys.readouterr().err
    finally:
        server.shutdown()


def test_profile_cli(capsys, tmp_path):
    out_path = tmp_path / "prof.json"
    rc = main(["profile", "--model", "mobilenet_v2", "--kind", "inference",
               "--out", str(out_path)])
    assert rc == 0
    assert out_path.exists()
    data = json.loads(out_path.read_text())
    assert data["model_name"].startswith("mobilenet_v2")
