"""Every config key is live: setting it to a second valid value changes an
artifact body of a command that reads the file.

The tests run over the loaders' own key tables, so a new `.arch` or `.cost`
key fails here until it has an entry below whose value changes some output.
A key that changes only the header hash is a setting nothing reads.
"""
import pytest

from atomshuttle import architectures, cost
from atomshuttle.cli import main

ARCH_BASE = {"L": "8", "a_m": "3e-6", "R_m": "2.7e-6", "v_mps": "1.5", "t2_s": "1e-6",
             "t1_s": "1e-7", "tr_s": "1e-5", "t_route_s": "2e-6", "t_turnaround_s": "2e-6"}

# key -> (variant scheduled, second value); the program declares the config's L
ARCH_SECOND = {
    "variant": ("two-way-belt", "throw-and-measure"),
    "L": ("one-way-belt", "9"),   # its belts ride on to the lattice's far edge
    "a_m": ("two-way-belt", "4e-6"),
    "R_m": ("two-way-belt", "2.4e-6"),
    "v_mps": ("two-way-belt", "1.2"),
    "t2_s": ("two-way-belt", "8e-7"),
    "t1_s": ("two-way-belt", "2e-7"),
    "tr_s": ("throw-and-measure", "2e-5"),
    "t_route_s": ("shuttle-and-route", "3e-6"),
    "t_turnaround_s": ("throw-catch-throw", "3e-6"),
}

COST_BASE = {"f1": "0.9995", "f2_cz": "0.999", "f2_swap": "0.999", "fr": "0.997",
             "f_shuttle": "1.0"}

COST_SECOND = {"f1": "0.999", "f2_cz": "0.998", "f2_swap": "0.998", "fr": "0.99",
               "f_shuttle": "0.999"}


def bodies(workdir, files: dict, command: tuple, artifacts: tuple) -> list[str]:
    """Write `files` into a fresh `workdir`, run `command` on them and
    return its artifact bodies (header line dropped)."""
    workdir.mkdir()
    for name, text in files.items():
        (workdir / name).write_text(text)
    argv = [str(workdir / a) if a in files else a for a in command]
    assert main([*argv, "--out", str(workdir / "out")]) == 0
    return [(workdir / "out" / a).read_text().split("\n", 1)[1] for a in artifacts]


def config_text(config: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config.items())


def schedule_bodies(workdir, config: dict) -> list[str]:
    program = f"lattice {config['L']}\ncz (0,0) (7,7)\ncz (0,7) (7,0)\nh (3,3)\n"
    return bodies(workdir, {"a.arch": config_text(config), "p.program": program},
                  ("schedule", "--arch", "a.arch", "--program", "p.program"),
                  ("events.jsonl", "trajectories.csv", "makespan.txt"))


def cost_bodies(workdir, config: dict) -> list[str]:
    return bodies(workdir, {"c.cost": config_text(config)},
                  ("cost", "--cost", "c.cost"), ("cost.csv",))


def second_value(table: dict, key: str):
    if key not in table:
        pytest.fail(f"config key {key!r} has no second value to show that it "
                    f"changes an output; add one, or delete the key")
    return table[key]


@pytest.mark.parametrize("key", list(architectures._CONFIG_KEYS))
def test_every_arch_key_changes_the_schedule(tmp_path, key):
    variant, value = second_value(ARCH_SECOND, key)
    base = {"variant": variant, **ARCH_BASE}
    first = schedule_bodies(tmp_path / "base", base)
    assert schedule_bodies(tmp_path / "second", {**base, key: value}) != first, \
        f"{key} = {value} changes no schedule body on {variant}"


@pytest.mark.parametrize("key", list(cost._COST_KEYS))
def test_every_cost_key_changes_the_cost_table(tmp_path, key):
    value = second_value(COST_SECOND, key)
    first = cost_bodies(tmp_path / "base", COST_BASE)
    assert cost_bodies(tmp_path / "second", {**COST_BASE, key: value}) != first, \
        f"{key} = {value} changes no cost.csv body"


def test_tables_name_only_config_keys():
    assert set(ARCH_SECOND) == set(architectures._CONFIG_KEYS)
    assert set(ARCH_BASE) == set(architectures._CONFIG_KEYS) - {"variant"}
    assert set(COST_SECOND) == set(COST_BASE) == set(cost._COST_KEYS)
