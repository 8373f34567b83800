from __future__ import annotations

import gc
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import get_args

import pytest

from matchflip.cli import main
from matchflip.errors import MalformedInputError
from matchflip.generators import (
    random_cograph_instance,
    random_interval_instance,
    random_outerplanar_instance,
)
from matchflip.graph import Flip, Slide, edge_set
from matchflip.outerplanar import TraceStep, solve_outerplanar
from matchflip.io import (
    dumps_canonical,
    instance_to_dict,
    load_instance,
    load_ncl,
    load_sequence,
    sequence_to_dict,
)

from helpers import C4_PM1, C6_PM1, C6_PM2, K4


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data) if isinstance(data, dict) else data)
    return str(p)


C6_INSTANCE = {
    "n": 6,
    "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
    "m_ini": [[0, 1], [2, 3], [4, 5]],
    "m_tar": [[1, 2], [3, 4], [5, 0]],
}

K4_INSTANCE = {
    "n": 4,
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    "m_ini": [[0, 1], [2, 3]],
    "m_tar": [[0, 2], [1, 3]],
}

TWO_OR_MACHINE = {
    "vertices": [{"id": 0, "type": "or"}, {"id": 1, "type": "or"}],
    "edges": [{"u": 0, "v": 1, "w": 2}] * 3,
    "c_ini": [{"edge": 0, "head": 0}, {"edge": 1, "head": 1}, {"edge": 2, "head": 1}],
    "c_tar": [{"edge": 0, "head": 1}, {"edge": 1, "head": 0}, {"edge": 2, "head": 0}],
}


def test_load_instance_identity_labels():
    inst = load_instance(C6_INSTANCE)
    assert inst.graph.n == 6 and inst.m_ini == C6_PM1 and inst.m_tar == C6_PM2


def test_load_instance_arbitrary_labels():
    data = {
        "n": 4,
        "edges": [[10, 20], [20, 30], [30, 40], [40, 10]],
        "m_ini": [[10, 20], [30, 40]],
        "m_tar": [[20, 30], [40, 10]],
    }
    inst = load_instance(data)
    assert inst.graph.n == 4
    assert inst.m_ini == edge_set([(0, 1), (1, 2)]) or len(inst.m_ini) == 2
    assert inst.label_of == (10, 20, 30, 40)


def test_load_instance_bad_labels():
    with pytest.raises(MalformedInputError):
        load_instance({"n": 2, "edges": [[5, 9], [9, 11]], "m_ini": [], "m_tar": []})


def test_sequence_round_trip():
    from matchflip.graph import ReconfigSequence

    seq = ReconfigSequence(
        "flip_slide", (Flip((0, 1, 2, 3)), Slide((0, 1), (1, 2))), None
    )
    again = load_sequence(sequence_to_dict(seq))
    assert again == seq
    kseq = ReconfigSequence("kflip", (Flip((0, 1, 2, 3, 4, 5)),), 6)
    assert load_sequence(sequence_to_dict(kseq)) == kseq


def test_load_ncl():
    machine, c_ini, c_tar = load_ncl(TWO_OR_MACHINE)
    assert machine.n == 2 and len(machine.edges) == 3
    assert c_ini == (0, 1, 1) and c_tar == (1, 0, 0)


def test_instance_dict_round_trip():
    d = instance_to_dict(K4, C4_PM1, edge_set([(0, 2), (1, 3)]))
    inst = load_instance(d)
    assert inst.graph.edges == K4.edges


def test_cli_solve_outerplanar_no(tmp_path, capsys):
    path = _write(tmp_path, "c6.json", C6_INSTANCE)
    rc = main(["solve", "--class", "outerplanar", path])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[0] == "NO"


def test_cli_solve_auto_yes_and_verify(tmp_path, capsys):
    inst = {
        "n": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "m_ini": [[0, 1], [2, 3]],
        "m_tar": [[1, 2], [3, 0]],
    }
    ipath = _write(tmp_path, "c4.json", inst)
    spath = str(tmp_path / "seq.json")
    rc = main(["solve", ipath, "--emit-sequence", spath])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    rc = main(["verify", ipath, spath])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "Accept"


def test_cli_sequences_use_the_instance_labels(tmp_path, capsys):
    # a C4 and a path whose labels are not 0..n-1, solved as cographs
    c4 = {"n": 4, "edges": [[10, 20], [20, 30], [30, 40], [40, 10]],
          "m_ini": [[10, 20], [30, 40]], "m_tar": [[20, 30], [40, 10]]}
    path = {"n": 3, "edges": [[5, 7], [7, 9]], "m_ini": [[5, 7]], "m_tar": [[7, 9]]}
    cases = [
        (c4, {"flip": [10, 20, 30, 40]}, {"flip": [10, 20, 30, 50]}, "invalid_flip"),
        (path, {"slide": {"remove": [5, 7], "add": [7, 9]}},
         {"slide": {"remove": [7, 9], "add": [7, 11]}}, "invalid_slide"),
    ]
    for i, (inst, move, unknown, reason) in enumerate(cases):
        ipath = _write(tmp_path, f"i{i}.json", inst)
        spath = str(tmp_path / f"s{i}.json")
        assert main(["solve", ipath, "--emit-sequence", spath]) == 0
        assert json.loads(Path(spath).read_text())["moves"] == [move]
        capsys.readouterr()
        assert main(["oracle", ipath, "--mode", "flip_slide", "--want-path"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[1])["sequence"]["moves"] == [move]
        assert main(["verify", ipath, spath]) == 0
        # a hand-written file in the instance's labels, then one that names
        # a label the instance lacks at its second move
        hand = _write(tmp_path, f"h{i}.json", {"mode": "flip_slide", "moves": [move]})
        assert main(["verify", ipath, hand]) == 0
        bad = _write(tmp_path, f"b{i}.json", {"mode": "flip_slide", "moves": [move, unknown]})
        assert main(["verify", ipath, bad]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "Accept", "Accept", f"Reject step=1 reason={reason}"]


def test_cli_solve_all_classes_agree(tmp_path, capsys):
    inst = {
        "n": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "m_ini": [[0, 1], [2, 3]],
        "m_tar": [[1, 2], [3, 0]],
        "hints": {"strong_order": [0, 1, 3, 2]},
    }
    path = _write(tmp_path, "c4.json", inst)
    codes = []
    for cls in ("cograph", "outerplanar", "strongly_orderable"):
        codes.append(main(["solve", "--class", cls, path]))
        capsys.readouterr()
    assert codes == [0, 0, 0]


def test_cli_oracle_distance_and_reject(tmp_path, capsys):
    path = _write(tmp_path, "k4.json", K4_INSTANCE)
    spath = str(tmp_path / "seq.json")
    rc = main(["oracle", path, "--want-path", "--emit-sequence", spath])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and out[0] == "YES"
    assert json.loads(out[1])["distance"] == 1
    # corrupt the final matching -> verifier rejects
    bad = dict(K4_INSTANCE)
    bad["m_tar"] = [[0, 3], [1, 2]]
    bpath = _write(tmp_path, "k4bad.json", bad)
    rc = main(["verify", bpath, spath])
    assert rc == 1
    assert capsys.readouterr().out.startswith("Reject")


def test_cli_oracle_emit_sequence_implies_want_path(tmp_path, capsys):
    # on C4 the two perfect matchings are one flip apart
    path = _write(tmp_path, "c4.json", {
        "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "m_ini": [[0, 1], [2, 3]], "m_tar": [[1, 2], [0, 3]],
    })
    spath = tmp_path / "seq.json"
    assert main(["oracle", path, "--emit-sequence", str(spath)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert main(["oracle", path, "--want-path"]) == 0
    assert capsys.readouterr().out.splitlines() == out
    body = json.loads(out[1])
    assert body["distance"] == 1 and json.loads(spath.read_text()) == body["sequence"]
    assert main(["verify", path, str(spath)]) == 0


def test_cli_oracle_no(tmp_path, capsys):
    path = _write(tmp_path, "c6.json", C6_INSTANCE)
    rc = main(["oracle", path])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[0] == "NO"


def test_cli_stats_json(tmp_path, capsys):
    path = _write(tmp_path, "c6.json", C6_INSTANCE)
    rc = main(["stats", path])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["nodes"] == 2 and data["components"] == 2
    # sizes n // 2 and 0 are the ends of the range --target accepts
    assert main(["stats", path, "--target", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == data
    empty = _write(tmp_path, "c6e.json", dict(C6_INSTANCE, m_ini=[], m_tar=[]))
    assert main(["stats", empty, "--target", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 1


def test_cli_gen_random_deterministic(tmp_path, capsys):
    outs = []
    for _ in range(2):
        rc = main(["gen-random", "--class", "interval", "--n", "16", "--seed", "9"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    inst = load_instance(json.loads(outs[0]))
    assert "strong_order" in inst.hints


def test_cli_gen_random_classes_solvable(tmp_path, capsys):
    for cls, solver in (("interval", "strongly_orderable"), ("outerplanar", "outerplanar"), ("cograph", "cograph")):
        path = str(tmp_path / f"{cls}.json")
        rc = main(["gen-random", "--class", cls, "--n", "12", "--seed", "3", "-o", path])
        assert rc == 0
        rc = main(["solve", "--class", solver, path])
        assert rc in (0, 1)
        capsys.readouterr()


def test_cli_gen_ncl_and_oracle(tmp_path, capsys):
    mpath = _write(tmp_path, "m.json", TWO_OR_MACHINE)
    ipath = str(tmp_path / "inst.json")
    rc = main(["gen-ncl", mpath, "-o", ipath])
    assert rc == 0
    rc = main(["oracle", ipath])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    # k-flip subdivided variant
    i6 = str(tmp_path / "inst6.json")
    rc = main(["gen-ncl", mpath, "--k", "6", "-o", i6])
    assert rc == 0
    rc = main(["oracle", "--mode", "kflip", "--k", "6", i6])
    assert rc == 0
    capsys.readouterr()


def test_cli_auto_detection_fails_cleanly(tmp_path, capsys):
    # Petersen graph: not a cograph, not outerplanar, no ordering hint
    outer = [[i, (i + 1) % 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    inst = {
        "n": 10,
        "edges": outer + inner + spokes,
        "m_ini": [[i, i + 5] for i in range(5)],
        "m_tar": [[i, i + 5] for i in range(5)],
    }
    path = _write(tmp_path, "petersen.json", inst)
    assert main(["solve", path]) == 2
    assert "no solver applies" in capsys.readouterr().err


def test_cli_bad_strong_order_hint_names_a_real_violation(tmp_path, capsys):
    # Petersen again: auto-detection falls through to the hint, which is
    # checked before any solve
    outer = [[i, (i + 1) % 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    edges = {frozenset(e) for e in outer + inner + spokes}
    order = [3, 8, 0, 6, 1, 9, 4, 5, 2, 7]
    path = _write(tmp_path, "petersen_hint.json", {
        "n": 10, "edges": outer + inner + spokes,
        "m_ini": spokes, "m_tar": spokes, "hints": {"strong_order": order},
    })
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "strong_order hint is not a strong ordering" in err
    i, j, k, l = map(int, re.search(r"witness \((\d+), (\d+), (\d+), (\d+)\)", err).groups())
    vi, vj, vk, vl = (order[x] for x in (i, j, k, l))
    assert i < j and k < l and j != l
    assert {frozenset((vi, vk)), frozenset((vi, vl)), frozenset((vj, vk))} <= edges
    assert frozenset((vj, vl)) not in edges


def test_cli_malformed_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", "{not json")
    assert main(["solve", path]) == 2
    capsys.readouterr()
    path2 = _write(tmp_path, "noorder.json", {
        "n": 2, "edges": [[0, 1]], "m_ini": [[0, 1]], "m_tar": [[0, 1]]})
    assert main(["solve", "--class", "strongly_orderable", path2]) == 2
    capsys.readouterr()
    base = {"n": 2, "edges": [[0, 1]], "m_ini": [[0, 1]], "m_tar": [[0, 1]]}
    shapes = [
        {"edges": [[0, 1, 2]]},
        {"edges": [0, 1]},
        {"edges": 7},
        {"m_ini": [[0]]},
        {"m_tar": None},
        {"hints": [1]},
        {"hints": {"strong_order": 5}},
        {"hints": {"strong_order": 0}},
        {"n": 2.9},
        {"n": "2"},
        {"n": True},
    ]
    for i, shape in enumerate(shapes):
        path3 = _write(tmp_path, f"shape{i}.json", {**base, **shape})
        assert main(["solve", path3]) == 2, shape
        assert capsys.readouterr().err.startswith("error: bad instance structure"), shape
    faults = [
        ({"edges": [[0, 0]]}, "self-loop"),
        ({"n": 3, "edges": [[0, 1], [1, 2], [2, 1]]}, "duplicate edge"),
        ({"edges": [[0, 1.0]]}, "labels must be integers"),
        ({"edges": [["a", "b"]]}, "labels must be integers"),
        ({"edges": [[0, 5]]}, "distinct labels"),
        ({"m_ini": [[0, 9]]}, "distinct labels"),
        ({"hints": {"strong_order": [0, 1, 7]}}, "distinct labels"),
        ({"n": -1}, "distinct labels"),
        # bool is an int, but no label: both loader paths refuse it
        ({"edges": [[0, True]]}, "labels must be integers"),
        ({"edges": [[False, 1]], "m_ini": [[0, 1]]}, "labels must be integers"),
        ({"m_ini": [[0, True]]}, "labels must be integers"),
        ({"edges": [[5, True]], "m_ini": [[5, 1]], "m_tar": [[5, 1]]}, "labels must be integers"),
        ({"hints": {"strong_order": [False, 1]}}, "labels must be integers"),
    ]
    for i, (shape, message) in enumerate(faults):
        path4 = _write(tmp_path, f"fault{i}.json", {**base, **shape})
        assert main(["solve", path4]) == 2, shape
        assert message in capsys.readouterr().err, shape
    # sequence labels follow the instance rule: ints only
    c4 = _write(tmp_path, "c4.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                                      "m_ini": [[0, 1], [2, 3]], "m_tar": [[1, 2], [3, 0]]})
    seqs = [
        {"mode": "flip", "moves": [{"flip": [0, 1, 2, 3.0]}]},
        {"mode": "flip", "moves": [{"flip": [0, 1, 2.5, 3]}]},
        {"mode": "flip", "moves": [{"flip": [0, True, 2, 3]}]},
        {"mode": "flip_slide", "moves": [{"slide": {"remove": [0, 1], "add": [1, 2.0]}}]},
    ]
    for i, seq in enumerate(seqs):
        path5 = _write(tmp_path, f"seq{i}.json", seq)
        assert main(["verify", c4, path5]) == 2, seq
        assert capsys.readouterr().err.startswith("error: bad sequence structure"), seq
    path5 = _write(tmp_path, "seq_ok.json", {"mode": "flip", "moves": [{"flip": [0, 1, 2, 3]}]})
    assert main(["verify", c4, path5]) == 0
    capsys.readouterr()


def test_cli_budget_exit_code(tmp_path, capsys):
    inst = {
        "n": 6,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]],
        "m_ini": [[0, 1], [2, 3], [4, 5]],
        "m_tar": [[1, 2], [3, 4], [5, 0]],
    }
    path = _write(tmp_path, "inst.json", inst)
    rc = main(["oracle", path, "--budget", "1"])
    assert rc == 3
    capsys.readouterr()


def test_cli_budget_env_var(tmp_path, capsys, monkeypatch):
    inst = {
        "n": 6,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]],
        "m_ini": [[0, 1], [2, 3], [4, 5]],
        "m_tar": [[1, 2], [3, 4], [5, 0]],
    }
    path = _write(tmp_path, "inst.json", inst)
    monkeypatch.setenv("MATCHFLIP_BUDGET", "1")
    assert main(["oracle", path]) == 3
    capsys.readouterr()
    monkeypatch.delenv("MATCHFLIP_BUDGET")
    assert main(["oracle", path]) == 0
    capsys.readouterr()


def test_cli_budget_zero_is_a_budget(tmp_path, capsys, monkeypatch):
    # --budget 0 is an explicit budget, not "unset": it beats the variable
    path = _write(tmp_path, "c4.json", {
        "n": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "m_ini": [[0, 1], [2, 3]],
        "m_tar": [[1, 2], [3, 0]],
    })
    assert main(["stats", path]) == 0
    assert main(["stats", path, "--budget", "0"]) == 3
    # the oracle counts the start and the goal against its budget too
    assert main(["oracle", path, "--budget", "0"]) == 3
    capsys.readouterr()
    assert main(["oracle", path, "--budget", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    monkeypatch.setenv("MATCHFLIP_BUDGET", "1000")
    assert main(["stats", path, "--budget", "0"]) == 3
    monkeypatch.setenv("MATCHFLIP_BUDGET", "0")
    assert main(["stats", path, "--budget", "1000"]) == 0
    capsys.readouterr()


def test_cli_boundary_hint_verified(tmp_path, capsys):
    inst = {
        "n": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "m_ini": [[0, 1], [2, 3]],
        "m_tar": [[1, 2], [3, 0]],
        "hints": {"boundary_order": [0, 2, 1, 3]},
    }
    path = _write(tmp_path, "c4bad.json", inst)
    assert main(["solve", "--class", "outerplanar", path]) == 2
    capsys.readouterr()
    inst["hints"]["boundary_order"] = [0, 1, 2, 3]
    path = _write(tmp_path, "c4ok.json", inst)
    assert main(["solve", "--class", "outerplanar", path]) == 0
    capsys.readouterr()


def test_cli_boundary_hint_checked_before_recognition(tmp_path, capsys):
    bad = {"boundary_order": [0, 2, 1, 3, 4, 5]}
    # outerplanar, not a cograph: a bad hint falls back to recognition and
    # is reported as before
    path = _write(tmp_path, "c6bad.json", {**C6_INSTANCE, "hints": bad})
    assert main(["solve", path]) == 2
    assert "boundary_order hint is not a valid boundary cycle" in capsys.readouterr().err
    # K4 with a pendant path: an interval graph, neither a cograph nor
    # outerplanar; the bad boundary hint yields to the strong order
    path = _write(tmp_path, "k4path.json", {
        "n": 6, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4], [4, 5]],
        "m_ini": [[0, 1], [2, 3], [4, 5]], "m_tar": [[0, 2], [1, 3], [4, 5]],
        "hints": {"strong_order": [0, 1, 2, 3, 4, 5], **bad}})
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    # a valid hint replaces recognition without changing a byte of output
    inst = random_outerplanar_instance(120, 5)
    outs = []
    for name, payload in (("hinted", inst), ("plain", {k: v for k, v in inst.items() if k != "hints"})):
        spath = str(tmp_path / f"{name}.seq.json")
        assert main(["solve", _write(tmp_path, f"{name}.json", payload), "--emit-sequence", spath]) == 0
        outs.append((capsys.readouterr(), Path(spath).read_bytes()))
    assert outs[0] == outs[1]
    # the solver refuses a graph that is not outerplanar before reducing:
    # C6 (matchings frozen apart) beside K4 is an error, not NO
    path = _write(tmp_path, "c6k4.json", {
        "n": 10, "edges": C6_INSTANCE["edges"] + [[u, v] for u in range(6, 10) for v in range(u + 1, 10)],
        "m_ini": C6_INSTANCE["m_ini"] + [[6, 7], [8, 9]],
        "m_tar": C6_INSTANCE["m_tar"] + [[6, 7], [8, 9]]})
    assert main(["solve", "--class", "outerplanar", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not outerplanar" in captured.err


def test_cli_mode_mismatch(tmp_path, capsys):
    ipath = _write(tmp_path, "c4.json", {
        "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "m_ini": [[0, 1], [2, 3]], "m_tar": [[1, 2], [3, 0]]})
    spath = _write(tmp_path, "seq.json", json.dumps(
        {"mode": "flip", "moves": [{"flip": [0, 1, 2, 3]}]}))
    assert main(["verify", ipath, spath, "--mode", "flip_slide"]) == 2
    capsys.readouterr()


def test_cli_solve_and_oracle_agree(tmp_path, capsys):
    # the polynomial solvers and the brute-force oracle give the same
    # answer on every generated instance where both complete
    for cls, seed in (("interval", 1), ("outerplanar", 2), ("outerplanar", 3), ("cograph", 4)):
        path = str(tmp_path / f"{cls}{seed}.json")
        assert main(["gen-random", "--class", cls, "--n", "8", "--seed", str(seed), "-o", path]) == 0
        capsys.readouterr()
        rc_solve = main(["solve", path])
        capsys.readouterr()
        mode = "flip_slide" if cls == "cograph" else "flip"
        rc_oracle = main(["oracle", path, "--mode", mode])
        capsys.readouterr()
        assert rc_solve == rc_oracle, (cls, seed)


def test_canonical_dump_is_stable():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b and a.endswith("\n")


def test_cli_bad_budget_env_exits_2(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "k4.json", K4_INSTANCE)
    monkeypatch.setenv("MATCHFLIP_BUDGET", "abc")
    assert main(["oracle", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "MATCHFLIP_BUDGET" in captured.err


def test_cli_negative_budget_env_exits_2(tmp_path, capsys, monkeypatch):
    # a negative budget is malformed, not a budget that is exceeded (exit 3)
    path = _write(tmp_path, "k4.json", K4_INSTANCE)
    monkeypatch.setenv("MATCHFLIP_BUDGET", "-5")
    for command in ("oracle", "stats"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "MATCHFLIP_BUDGET" in captured.err


@pytest.mark.parametrize("argv", [
    ["stats", "{inst}", "--target", "abc"],
    ["oracle", "{inst}", "--mode", "kflip", "--k", "5"],  # odd k
    ["oracle", "{inst}", "--mode", "kflip", "--k", "14"],  # above the oracle's cap
    ["gen-random", "--class", "cograph", "--n", "-3", "--seed", "1"],
    ["gen-random", "--class", "outerplanar", "--n", "1", "--seed", "1"],
    ["stats", "{inst}", "--target", "-1"],
    ["stats", "{inst}", "--target", "3"],  # above n // 2 on four vertices
    ["stats", "{inst}", "--target", "9"],
    ["oracle", "{inst}", "--mode", "flip", "--k", "6"],  # --k applies to kflip only
    ["stats", "{inst}", "--mode", "flip_slide", "--k", "4"],
    ["oracle", "{inst}", "--mode", "kflip", "--k", "0"],
    ["oracle", "{inst}", "--mode", "kflip"],  # no --k
    ["gen-ncl", "{ncl}", "--k", "0"],  # as --k 2 does
    ["oracle", "{inst}", "--budget", "-1"],  # not a budget that is exceeded (3)
    ["stats", "{inst}", "--budget", "-1"],
    ["verify", "{inst}", "{kseq}"],  # k in a flip sequence file
    ["verify", "{c6}", "{fseq}"],  # a float k
])
def test_cli_malformed_arguments_exit_2(tmp_path, capsys, argv):
    files = {
        "{inst}": _write(tmp_path, "k4.json", K4_INSTANCE),
        "{ncl}": _write(tmp_path, "m.json", TWO_OR_MACHINE),
        "{kseq}": _write(tmp_path, "k.json", {"mode": "flip", "k": 6, "moves": []}),
        "{c6}": _write(tmp_path, "c6.json", C6_INSTANCE),
        "{fseq}": _write(tmp_path, "f.json", {"mode": "kflip", "k": 6.0,
                                               "moves": [{"flip": [0, 1, 2, 3, 4, 5]}]}),
    }
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fault", [RuntimeError("internal: boom"), RecursionError("too deep")])
def test_cli_internal_fault_exits_4(tmp_path, capsys, monkeypatch, fault):
    # a fault inside the library must not read as NO (exit 1)
    import matchflip.cli as cli

    def broken(*args):
        raise fault

    monkeypatch.setattr(cli, "solve_cograph", broken)
    path = _write(tmp_path, "k4.json", K4_INSTANCE)
    assert main(["solve", "--class", "cograph", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:") and captured.err.count("\n") == 1
    assert type(fault).__name__ in captured.err


def test_cli_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    # main runs each command with the collector paused, which is safe only
    # while what a command builds is freed by reference counting alone.  The
    # warm-up call pays the one-time costs: the first main builds the cached
    # parser, the first gen-random imports the generators.
    f = {
        "interval": _write(tmp_path, "iv.json", random_interval_instance(40, 1)),
        "outer": _write(tmp_path, "op.json", random_outerplanar_instance(40, 1)),
        "cograph": _write(tmp_path, "cg.json", random_cograph_instance(40, 2)),
        "c6": _write(tmp_path, "c6.json", C6_INSTANCE),
        "2k2": _write(tmp_path, "2k2.json", {"n": 4, "edges": [[0, 1], [2, 3]],
                                            "m_ini": [[0, 1]], "m_tar": [[2, 3]]}),
        "k4": _write(tmp_path, "k4.json", K4_INSTANCE),
        "k4bad": _write(tmp_path, "k4bad.json", dict(K4_INSTANCE, m_tar=[[0, 3], [1, 2]])),
        "ncl": _write(tmp_path, "m.json", TWO_OR_MACHINE),
        "bad": _write(tmp_path, "bad.json", dict(K4_INSTANCE, edges=[[0, 1], [1, 1]])),
        "seq": str(tmp_path / "seq.json"),
        "out": str(tmp_path / "out.json"),
    }
    cases = [
        (["solve", "--class", "strongly_orderable", f["interval"]], 0),
        (["solve", "--class", "outerplanar", f["outer"]], 0),
        (["solve", "--class", "outerplanar", f["c6"]], 1),
        (["solve", "--class", "cograph", f["cograph"]], 0),
        (["solve", "--class", "cograph", f["2k2"]], 1),
        (["solve", f["k4"], "--emit-sequence", f["seq"]], 0),
        (["verify", f["k4"], f["seq"]], 0),
        (["verify", f["k4bad"], f["seq"]], 1),
        (["oracle", f["k4"], "--want-path"], 0),
        (["oracle", f["c6"]], 1),
        (["oracle", f["k4"], "--budget", "1"], 3),
        (["stats", f["c6"]], 0),
        *((["gen-random", "--class", c, "--n", "20", "--seed", "1", "-o", f["out"]], 0)
          for c in ("interval", "outerplanar", "cograph")),
        (["gen-ncl", f["ncl"], "--k", "6", "-o", f["out"]], 0),
        (["solve", f["bad"]], 2),
    ]
    for argv, code in cases:
        assert main(argv) == code, argv
        capsys.readouterr()
        gc.collect()
        assert main(argv) == code, argv
        assert gc.collect() == 0, argv
        capsys.readouterr()


@pytest.mark.parametrize("collecting", [True, False])
def test_cli_restores_the_collector(tmp_path, capsys, monkeypatch, collecting):
    # paused while a command runs, then as it was before main, on every exit
    k4 = _write(tmp_path, "k4.json", K4_INSTANCE)
    c6 = _write(tmp_path, "c6.json", C6_INSTANCE)
    bad = _write(tmp_path, "bad.json", "{")
    import matchflip.cli as cli

    seen = []

    def broken(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("internal: boom")

    def interrupted(*args):
        raise KeyboardInterrupt

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in (([k4], 0), ([c6], 1), ([bad], 2), (["--budget", "1", k4], 3)):
            assert main(["oracle"] + argv) == code
            assert gc.isenabled() is collecting
        with pytest.raises(SystemExit):
            main(["oracle", k4, "--mode", "nope"])  # refused by argparse
        assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "solve_cograph", broken)
        assert main(["solve", "--class", "cograph", k4]) == 4
        assert seen == [False] and gc.isenabled() is collecting
        monkeypatch.setattr(cli, "solve_cograph", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["solve", "--class", "cograph", k4])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["solve", "--class", "cograph"],
    ["oracle", "--want-path"],
])
def test_cli_unwritable_emit_path_exits_2(tmp_path, capsys, command):
    # a sequence file that cannot be written is the caller's error, and
    # no verdict is printed for an answer that was not delivered
    path = _write(tmp_path, "k4.json", K4_INSTANCE)
    spath = str(tmp_path / "missing-dir" / "seq.json")
    assert main(command + [path, "--emit-sequence", spath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_traced_entry_points_resolve():
    # perfbench wraps these names where the CLI looks them up; a rename or
    # a moved import must fail here rather than in a traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, (module, attr, _) in spans.TARGETS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    # the solve span counts trace steps by class name off a real result, as
    # a --trace 1 run does
    inst = load_instance(random_outerplanar_instance(200, 3))
    res = solve_outerplanar(inst.graph, inst.m_ini, inst.m_tar)
    counts = spans.TARGETS["outerplanar.solve"][2]((), {}, res)
    assert {"Case2Step", "ForcedPairStep", "RemoveEvenChordStep", "SplitStep"} <= set(counts)
    assert set(counts) <= {cls.__name__ for cls in get_args(TraceStep)}
    assert sum(counts.values()) == len(res.trace.steps)


_FRESH_PROCESS = """
import json, sys
import matchflip.cli as cli
f = json.loads(sys.argv[1])
for argv in (["solve", f["cograph"]], ["solve", f["outer"]],
             ["solve", "--class", "strongly_orderable", f["interval"]],
             ["solve", f["k4"], "--emit-sequence", f["seq"]], ["verify", f["k4"], f["seq"]]):
    assert cli.main(argv) == 0, argv
loaded = [sorted(m for m in sys.modules if m.startswith("matchflip."))]
assert cli.main(["oracle", f["k4"]]) == 0
loaded.append(sorted(m for m in sys.modules if m.startswith("matchflip.")))
print(json.dumps(loaded))
"""


def test_solve_and_verify_never_import_the_oracle_or_ncl_modules(tmp_path):
    # a solve or verify process loads neither the oracle nor the NCL
    # reduction nor the generators; oracle loads its module when it runs
    f = {
        "cograph": _write(tmp_path, "cg.json", random_cograph_instance(40, 2)),
        "outer": _write(tmp_path, "op.json", random_outerplanar_instance(40, 1)),
        "interval": _write(tmp_path, "iv.json", random_interval_instance(40, 1)),
        "k4": _write(tmp_path, "k4.json", K4_INSTANCE),
        "seq": str(tmp_path / "seq.json"),
    }
    src = Path(importlib.import_module("matchflip").__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, json.dumps(f)], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    solving, after_oracle = json.loads(proc.stdout.splitlines()[-1])
    lazy = {"matchflip.oracle", "matchflip.hardness", "matchflip.generators"}
    assert "matchflip.cograph" in solving and not lazy & set(solving)
    assert lazy & set(after_oracle) == {"matchflip.oracle"}


# the names `matchflip` exports, by defining module; those of the oracle and
# the NCL reduction resolve on first access
PUBLIC_API = {
    "graph": [
        "DiffComponent", "Flip", "Graph", "Move", "ReconfigSequence", "Slide",
        "Verdict", "apply_move", "canonical_flip", "edge", "edge_set",
        "matching_partners", "symmetric_difference_components", "verify_sequence",
    ],
    "oracle": [
        "FLIP_ONLY", "FLIP_SLIDE", "Mode", "ReachResult", "ReconfigGraphStats",
        "enumerate_matchings", "kflip", "reachable", "reconfiguration_components",
        "reconfiguration_stats",
    ],
    "strongly_orderable": [
        "OrderCheck", "StrongOrder", "canonical_matching", "solve_strongly_orderable",
        "verify_strong_ordering",
    ],
    "outerplanar": [
        "BoundaryOrder", "OuterplanarResult", "boundary_order", "is_outerplanar",
        "solve_outerplanar",
    ],
    "cograph": [
        "CographResult", "CotreeNode", "build_cotree", "is_cograph", "reachability_class",
        "solve_cograph",
    ],
    "hardness": [
        "GadgetInstance", "GadgetReport", "KFactorInstance", "NclMachine",
        "SAMPLE_MACHINES", "enumerate_configurations", "gadget_selftest",
        "k_factor_instance", "reduce_ncl_to_pmr", "split_completion",
        "subdivide_for_kflip", "validate_machine", "validate_ncl",
    ],
    "io": [
        "Instance", "instance_to_dict", "load_instance", "load_ncl", "load_sequence",
        "sequence_to_dict",
    ],
}


def test_package_exports_resolve():
    import matchflip

    listed = dir(matchflip)
    for module, names in PUBLIC_API.items():
        mod = importlib.import_module(f"matchflip.{module}")
        for name in names:
            ns = {}
            exec(f"from matchflip import {name}", ns)
            assert ns[name] is getattr(mod, name) is getattr(matchflip, name), name
            assert name in listed, name
    from matchflip import errors, hardness, oracle

    assert (errors, hardness, oracle) == tuple(
        importlib.import_module(f"matchflip.{m}") for m in ("errors", "hardness", "oracle"))
    assert {"errors", "hardness", "oracle", "__version__"} <= set(listed)
    # an unknown name, and the proof-step entry points that left the API
    for name in ("no_such_name", "check_conditions", "root_partition", "split_at_cut_vertices"):
        with pytest.raises(AttributeError, match=name):
            getattr(matchflip, name)
        with pytest.raises(ImportError):
            exec(f"from matchflip import {name}", {})
