"""Each command refuses the options that its mode, action or construction does not read.

A refusal exits 3 before any file is read or written: the files named below do not exist, and no `--out`
file is left behind.  The options a command does read keep their defaults.
"""

import json

import pytest

from shadowlab import cli


def run_ok(argv):
    report, status = cli.run(argv)
    assert status == 0
    return report


# (argv, message): an option its mode, action or construction does not read is refused before any file is read
UNREAD = [
    ("entropy --key --family none.json --dist none.json", "--dist applies only to entropy without --key"),
    ("entropy --key --family none.json --shearer 0;1", "--shearer applies only to entropy without --key"),
    ("entropy --key --family none.json --coords 0", "--coords applies only to entropy without --key or --shearer"),
    ("entropy --key --family none.json --k 2", "--k applies only to entropy --shearer"),
    ("entropy --dist none.json --family none.json", "--family applies only to entropy --key"),
    ("entropy --dist none.json --shearer 0;1 --coords 0",
     "--coords applies only to entropy without --key or --shearer"),
    ("entropy --dist none.json --k 1", "--k applies only to entropy --shearer"),
    ("forbidding verify --system repeats --universe-size 5 --d 2 --family none.json",
     "--family applies only to forbidding gkk"),
    ("forbidding sd --system repeats --universe-size 5 --d 2 --set 0,1 --subspaces none.json",
     "--subspaces applies only to forbidding gkk"),
    ("forbidding gkk --system repeats --universe-size 5 --d 2 --family none.json --subspaces none.json",
     "gkk takes --family or --subspaces, not both"),
    ("forbidding verify --system repeats --universe-size 5 --d 2 --set 0,1",
     "--set applies only to forbidding compatible and sd"),
    ("forbidding compatible --system repeats --universe-size 5 --d 2 --set 0,1 --seed 0",
     "--seed applies only to forbidding verify"),
    ("forbidding verify --system qlinear:2,3 --universe-size 7 --d 2",
     "--universe-size applies only to the repeats system, not qlinear:2,3"),
    ("construct k4-blowup --n 2 --a 5 --m 9", "--a applies only to rainbow-tripartite, not k4-blowup"),
    ("construct flats --n 2", "--n applies only to k4-blowup and tripartite-mixed, not flats"),
    ("construct matching --d 4 --m 9", "--m applies only to complete-family, not matching"),
    ("construct complete-family --b 2", "--b applies only to rainbow-tripartite, not complete-family"),
    ("construct tetrahedra8 --d 3", "--d applies only to matching and complete-family, not tetrahedra8"),
]


@pytest.mark.parametrize("argv, message", UNREAD)
def test_unread_option_refused(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv.split(), "--out", "out.json"] if argv.startswith("construct") else argv.split()) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_read_options_keep_their_defaults(tmp_path):
    dist = str(tmp_path / "dist.json")
    with open(dist, "w") as fh:
        json.dump({"arity": 2, "support": [{"values": [0, 0], "p": "1/2"}, {"values": [1, 1], "p": "1/2"}]}, fh)
    assert run_ok(["entropy", "--dist", dist, "--shearer", "0;1"])["quantities"]["k"] == 1
    spot = ["forbidding", "verify", "--system", "repeats", "--universe-size", "100", "--d", "5"]
    assert run_ok(spot)["quantities"] == run_ok([*spot, "--seed", "0"])["quantities"]
    for name, quantities in [("k4-blowup", {"vertices": 4}), ("tripartite-mixed", {"vertices": 3}),
                             ("rainbow-tripartite", {"vertices": 3}), ("matching", {"vertices": 4}),
                             ("complete-family", {"family_size": 1, "d": 3})]:
        q = run_ok(["construct", name])["quantities"]
        assert {key: q[key] for key in quantities} == quantities, name
