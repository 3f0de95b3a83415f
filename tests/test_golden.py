"""Golden outputs of the CLI: every command run in process (`cli.run`) over
the bundled corpus, plus one refusal per command.  What each command
prints, and the files it writes, are hashed together with its exit codes
and compared with values pinned from an earlier build, so that a change
that should keep every output keeps every byte.  Only public names that
every build has are used, so that the pins can be taken from any build.
The local-model reports are floats: their pins hold for the numpy and the
BLAS that they were taken with.

To pin again after an intended change of output, print `_digests()`."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from momentcut import cli
from momentcut.corpus import asymmetric_wedge, delzant_corpus
from momentcut.lattice import format_rational
from momentcut.polytope import critical_values, dumps

_CORPUS = delzant_corpus() + [("asymmetric-wedge", asymmetric_wedge())]

# the local-model runs: seeded batteries of a few trials, and point queries
_LOCAL_MODEL = [
    ["monotone", "--trials", "3", "--seed", "1"],
    ["solve", "--trials", "3", "--seed", "2"],
    ["solve", "--weights=-1,2", "--z", "0.3,0.4", "--level", "0.1"],
    ["membership", "--weights=-1,2", "--z", "0.3,0.4", "--level", "0.1"],
    ["npm", "--trials", "3"],
    ["npm", "--weights=-2,2", "--z", "4,9"],
    ["convexity", "--weights=-1,1,2", "--trials", "3"],
    ["convexity", "--weights=-1,1", "--trials", "3", "--bad-region"],
    ["psh", "--trials", "2", "--n", "2"],
    ["cut-identity", "--trials", "3"],
    ["cut-identity", "--weights=1,-1", "--z", "0.5,0.2,0.3"],
    ["blowup-potential", "--trials", "3"],
]

# one refusal per command
_REFUSALS = {
    "validate": ["--in", "bad.json"],
    "info": ["--in", "0.json", "--xi", "1"],
    "diff": ["--in", "0.json", "--other", "missing.json"],
    "reduce": ["--in", "0.json", "--level", "0"],
    "cut": ["--in", "0.json", "--level", "x"],
    "compactify": ["--in", "0.json", "--min", "1", "--max", "0"],
    "blowup": ["--in", "0.json", "--vertex-index", "99", "--depth", "1/4"],
    "add-fixed-points": ["--in", "0.json", "--eps", "-1/4"],
    "reverse": ["--in", "missing.json"],
    "dh": ["--in", "0.json", "--samples", "1"],
    "wall-check": ["--in", "0.json", "--wall", "1/2", "--window", "0"],
    "local-model": ["npm", "--weights=1,x", "--z", "1,2"],
}


def _runs(k: int, crit: list) -> dict:
    """Each polytope command's arguments on corpus polytope k (file k.json),
    whose critical values are crit: a level in the first and in the last
    chamber, and the middle critical value as a wall."""
    a = format_rational(crit[0] + (crit[1] - crit[0]) / 3)
    b = format_rational(crit[-1] - (crit[-1] - crit[-2]) / 3)
    p, other, out = f"{k}.json", f"{(k + 1) % len(_CORPUS)}.json", ["--out", "out.json"]
    return {
        "validate": [["--in", p]],
        "info": [["--in", p]],
        "diff": [["--in", p, "--other", p], ["--in", p, "--other", other]],
        "reduce": [["--in", p, "--level", a, *out]],
        "cut": [["--in", p, "--level", a, *out], ["--in", p, "--level", b, "--above", *out]],
        "compactify": [["--in", p, "--min", a, "--max", b, *out]],
        "blowup": [["--in", p, "--vertex-index", "0", "--depth", "1/16", *out]],
        "add-fixed-points": [["--in", p, "--eps", "1/8", *out]],
        "reverse": [["--in", p, *out]],
        "dh": [["--in", p, "--check-log-concavity", "--local-minima"]]
        + ([["--in", p, "--csv", "mu.csv", "--samples", "5"]] if k == 0 else []),
        "wall-check": [["--in", p, "--wall", format_rational(crit[len(crit) // 2])]],
    }


def _digests(workdir: Path) -> dict:
    """For each command: the sha256 of everything it prints and writes, run
    by run, and its exit codes in order."""
    runs: dict = {command: [] for command in _REFUSALS}
    for k, (_, P) in enumerate(_CORPUS):
        (workdir / f"{k}.json").write_text(dumps(P))
    (workdir / "bad.json").write_text("{")
    for k, (_, P) in enumerate(_CORPUS):
        for command, argvs in _runs(k, critical_values(P)).items():
            runs[command] += [[command, *argv] for argv in argvs]
    runs["local-model"] += [["local-model", *argv] for argv in _LOCAL_MODEL]
    for command, argv in _REFUSALS.items():
        runs[command].append([command, *argv])
    out = {}
    for command, argvs in runs.items():
        digest, codes = hashlib.sha256(), ""
        for argv in argvs:
            outcome = cli.run(argv)
            codes += str(outcome.exit_code)
            text = json.dumps(outcome.payload, indent=2, sort_keys=True) + "\n"
            digest.update(text.encode())
            for written in ("out.json", "mu.csv"):
                path = workdir / written
                if path.exists():
                    digest.update(path.read_bytes())
                    path.unlink()
        out[command] = (digest.hexdigest(), codes)
    return out


# taken before the engine's records became named tuples
_PINNED = {
    "validate": ("d221076fd7fb772c50c1594aaafc8798bb98ffc2243497a65c92aba2d388c691",
                 "0000000000000001"),
    "info": ("2de744641f345e37f99903c01dadfa8e22ef2b48b346a6bcdc8fe97e87db4dfe",
             "0000000000000001"),
    "diff": ("cb5ea7dc5a0e793def8e3e7d80cc3f7feca4462cab8540ed0ed0dd290a9ea77f",
             "0101010101010101010101010101011"),
    "reduce": ("0fe46945374399a680e5f4035b01da0bbb112254bd8dc182fa3b5ed812209af4",
               "0000000000000002"),
    "cut": ("ee4ff72032fca52e6681d63ab73476f127847cc40ebd7b7d26f923c14896d507",
            "0000000000000000000000000000001"),
    "compactify": ("d76f295bd0617f75e76c1ee3d337201459063c47e570d43cf31bfe2d116a7517",
                   "0000000000000002"),
    "blowup": ("c74bef8e37b77137c4dd48dd7369959fa162200476d8ff0040ea742b13c0c278",
               "0000000000000022"),
    "add-fixed-points": ("d2ad5a73aab00664cd6f33e2a74f452baf680c4504b5b8dbe1394e90ca6a25d2",
                         "2222222222222202"),
    "reverse": ("4506bd690e424b10205784f38666bb7406d141073594686184c590275b4ffadb",
                "0000000000000001"),
    "dh": ("c1c14d24b7f18bd1f311fd7db00bc618fbc48dd68a7ceaa75f4370fb89e00e5e",
           "00000000000000001"),
    "wall-check": ("c2b1c8d1fda729d822c676b223ac2eecb3513ff6fb17c44de8962b1f862ad161",
                   "2222200002202022"),
    "local-model": ("bd12b79fea53f44a24f4bc69f9196dc9ce6cc144822d47cc1aa059b1454eff38",
                    "0000002000001"),
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)       # every path in a payload is relative
        return _digests(workdir)


@pytest.mark.parametrize("command", list(_REFUSALS))
def test_outputs_match_the_pins(digests, command):
    assert digests[command] == _PINNED[command]


def test_every_command_pinned():
    assert set(_PINNED) == set(cli._COMMANDS) == set(_REFUSALS)
