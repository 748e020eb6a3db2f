"""The command-line interface."""

import pytest

from repro.cli import EXPERIMENT_IDS, main


def test_list_names_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in EXPERIMENT_IDS:
        assert exp_id in out


def test_experiment_command(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "Energy Sink" in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "fig99"]) == 2


def test_blink_command(capsys):
    assert main(["blink", "--seconds", "8"]) == 0
    out = capsys.readouterr().out
    assert "1:Red" in out
    assert "accounting" in out


def test_blink_dump(capsys):
    assert main(["blink", "--seconds", "8", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "powerstate" in out
    assert "boot" in out


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    # Blink's log is structurally clean; unbound-proxy info lines are
    # expected (the timer proxy never binds).
    assert "error" not in out.split("unbound-proxy")[0]


def test_experiment_ids_all_importable():
    import importlib

    for exp_id in EXPERIMENT_IDS:
        module = importlib.import_module(f"repro.experiments.{exp_id}")
        assert hasattr(module, "run")


@pytest.mark.parametrize("argv", [
    ["experiment", "table1"],
    ["sweep", "table3"],
    ["merge-sweeps"],
    ["campaign", "plan", "m.json", "table3"],
    ["blink"],
])
def test_no_command_offers_an_analysis_backend_flag(argv, capsys):
    """Offline analysis has one engine; no command selects another."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--backend", "streaming"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err
