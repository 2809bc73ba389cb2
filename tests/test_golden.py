"""Golden CLI stdout, byte for byte, for every preset at its defaults and
one cab sequence with g, rotation, launch velocity and pulse phases set.
After an intended output change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py``; the diff shows the cells."""

import contextlib
import io
import pathlib

import pytest

from stalab import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
COMMANDS = {
    "phase": "phase", "phase-csv": "phase --format csv", "area": "area",
    "response-linear": "response --omega-min 0 --omega-max 1e4 --points 41",
    "response-log": "response --omega-min 1 --omega-max 1e4 --points 40 "
                    "--scale log",
    "trajectory": "trajectory --samples 41"}
SOURCES = {**{p: f"--preset {p}" for p in cli.PRESETS},
           "cab-options": "--preset cab --tr 0.005 --g 9.8 --omega-rot "
                          "1e-5,2e-5,0 --vi 0,0.2,0 --phases 0.1,0.2,0.3"}
CASES = {f"{source}-{name}": f"{command} {options}".split()
         for source, options in SOURCES.items()
         for name, command in COMMANDS.items()}


def stdout_of(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(name):
    assert stdout_of(CASES[name]) == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(stdout_of(argv))
