import json

import pytest

from syncsynth import serialize
from syncsynth.cli import main
from syncsynth.letters import Tape

from .conftest import mk_nfa, tag_family


@pytest.fixture()
def files(tmp_path, intro_S, intro_T):
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(intro_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(intro_T), encoding="utf-8")
    return s_path, t_path


def test_roundtrip_serialization(intro_S):
    doc = serialize.dumps(intro_S)
    back = serialize.loads(doc)
    assert serialize.dumps(back) == doc


def test_partition_roundtrip(intro_U):
    doc = serialize.dumps(intro_U)
    back = serialize.loads(doc)
    assert back.input_states == intro_U.input_states


def test_dot_emission_stable(intro_S):
    assert serialize.to_dot(intro_S) == serialize.to_dot(intro_S)
    assert "digraph" in serialize.to_dot(intro_S)


def test_classify_alternating(tmp_path, capsys):
    path = tmp_path / "l.json"
    path.write_text(serialize.dumps(tag_family("(12)*")), encoding="utf-8")
    code = main(["classify", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["shift"]["verdict"] == "infinite"
    assert out["shiftlag"]["verdict"] == "finite"


def test_decide_intro_instance(files, tmp_path, capsys):
    s_path, t_path = files
    out_path = tmp_path / "verdict.json"
    code = main(
        ["decide", str(s_path), str(t_path), "--bound-k", "3", "--depth", "5", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["answer"] == "YES"
    assert doc["machine"]["partition"]["output_states"]


def test_decide_rejects_without_override(files, capsys):
    s_path, t_path = files
    code = main(["decide", str(s_path), str(t_path), "--depth", "4"])
    assert code == 3  # outside the decidable fragment without a cap


def test_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["decide", str(tmp_path / "absent.json"), str(tmp_path / "absent2.json")])
    assert code == 3


def test_canon_emits_automaton(tmp_path, capsys, abst_S):
    path = tmp_path / "s.json"
    path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    code = main(["canon", str(path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "transitions" in doc


def test_synthesize_and_verify(tmp_path, capsys):
    s = mk_nfa(
        {"a"}, {"d"}, "q0", {"q2"},
        [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2")],
    )
    lang_path = tmp_path / "lang.json"
    lang_path.write_text(serialize.dumps(s), encoding="utf-8")
    machine_path = tmp_path / "machine.json"
    code = main(["synthesize", str(lang_path), "--out", str(machine_path)])
    assert code == 0
    doc = json.loads(machine_path.read_text(encoding="utf-8"))
    assert doc["partition"]

    # strip the report key before feeding the machine back in
    doc.pop("report")
    machine_path.write_text(json.dumps(doc), encoding="utf-8")
    from syncsynth.automata import add_endmarkers
    endmarked = tmp_path / "endmarked.json"
    endmarked.write_text(serialize.dumps(add_endmarkers(s)), encoding="utf-8")
    code = main(
        ["verify", str(machine_path), str(endmarked), str(endmarked), "--depth", "4"]
    )
    assert code == 0


def test_profiles_stats(tmp_path, capsys, abst_S, abst_T):
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(abst_T), encoding="utf-8")
    code = main(["profiles", str(s_path), str(t_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == doc["r1"] + doc["r2"]
    assert doc["input_profiles"] >= 1


@pytest.mark.parametrize("fixture", ["abst", "ann"])
def test_profiles_builds_each_closure_once(tmp_path, capsys, monkeypatch, request, fixture):
    from syncsynth import cli as cli_module, profiles

    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(request.getfixturevalue(f"{fixture}_S")), encoding="utf-8")
    t_path.write_text(serialize.dumps(request.getfixturevalue(f"{fixture}_T")), encoding="utf-8")
    calls = []
    closure = profiles.profile_closure

    def counted(*args, **kwargs):
        calls.append(args[3])
        return closure(*args, **kwargs)

    monkeypatch.setattr(profiles, "profile_closure", counted)
    monkeypatch.setattr(cli_module, "profile_closure", counted, raising=False)
    assert main(["profiles", str(s_path), str(t_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(calls) == 2 and set(calls) == {Tape.INPUT, Tape.OUTPUT}
    assert doc["k"] == doc["r1"] + doc["r2"]


def test_resync_emits_stats(tmp_path, capsys, abst_S, abst_T):
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(abst_T), encoding="utf-8")
    code = main(["resync", str(s_path), str(t_path), "--bound-k", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["i"] == 2
    assert doc["stats"]["states"] > 0


def test_decide_rec_cli(tmp_path, capsys):
    s = mk_nfa(
        {"a"}, {"d"}, "s0", {"s1"},
        [("s0", "i", "a", "s0"), ("s0", "o", "d", "s1")],
    )
    t = tag_family("1*2*")
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(s), encoding="utf-8")
    t_path.write_text(serialize.dumps(t), encoding="utf-8")
    code = main(["decide-rec", str(s_path), str(t_path), "--depth", "5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "YES"


def test_env_cap_mirrors_flag(tmp_path, capsys, monkeypatch, abst_S, abst_T):
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(abst_T), encoding="utf-8")
    monkeypatch.setenv("SYNCSYNTH_CAP", "1")
    from syncsynth import cli as cli_module

    code = cli_module.main(["profiles", str(s_path), str(t_path)])
    assert code == 2  # closure cannot fit in one profile


def test_decide_rec_machine_verifies(tmp_path, capsys, ann_S, ann_T):
    """A machine from `decide-rec` is endmarked; `verify` meets it there."""
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(ann_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(ann_T), encoding="utf-8")
    verdict_path = tmp_path / "verdict.json"
    code = main(["decide-rec", str(s_path), str(t_path), "--out", str(verdict_path)])
    assert code == 0
    doc = json.loads(verdict_path.read_text(encoding="utf-8"))
    machine_path = tmp_path / "machine.json"
    machine_path.write_text(json.dumps(doc["machine"]), encoding="utf-8")
    code = main(["verify", str(machine_path), str(s_path), str(t_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report["failures"]
    assert report["ok"]


def test_block_cap_zero_is_one_block_everywhere(files, capsys, intro_S, intro_T):
    from syncsynth.pipeline import PipelineConfig, decide

    s_path, t_path = files
    code = main(["resync", str(s_path), str(t_path), "--bound-k", "0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    verdict = decide(intro_S, intro_T, PipelineConfig(k_override=0, depth=4))
    assert doc["stats"]["n"] == verdict.stats["n"] == 1


def test_profiles_k_matches_decide(tmp_path, capsys):
    """`profiles` and `decide` read n and gamma from one parameter step, so
    they agree on k. Here the output may wait for two inputs: gamma > 0."""
    from syncsynth.pipeline import decide

    s = mk_nfa(
        {"a", "b"}, {"n", "o"}, "q0", {"f"},
        [("q0", "i", x, "q1") for x in "ab"]
        + [("q1", "i", "a", "ra"), ("q1", "i", "b", "rb"), ("ra", "o", "n", "f"), ("rb", "o", "o", "f")]
        + [("f", "i", x, "f") for x in "ab"],
    )
    t = mk_nfa(
        {"a", "b"}, {"n", "o"}, "p0", {"g"},
        [(f"p{j}", "i", x, f"p{j + 1}") for j in range(2) for x in "ab"]
        + [(f"p{j}", "o", y, "g") for j in range(3) for y in "no"]
        + [("g", "i", x, "g") for x in "ab"],
    )
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(s), encoding="utf-8")
    t_path.write_text(serialize.dumps(t), encoding="utf-8")
    assert main(["profiles", str(s_path), str(t_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    stats = decide(s, t).stats
    assert doc["gamma"] == stats["gamma"] > 0
    assert (doc["n"], doc["k"]) == (stats["n"], stats["k_computed"])


REMOVED_FLAGS = (
    [("classify", flag) for flag in ("--bound-k", "--depth", "--format", "--cap")]
    + [(cmd, flag) for cmd in ("canon", "synthesize") for flag in ("--bound-k", "--depth", "--cap")]
    + [("resync", "--depth"), ("resync", "--cap")]
    + [("profiles", "--bound-k"), ("profiles", "--depth")]
    + [("verify", "--format"), ("verify", "--cap")]
)


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_subcommand_rejects_flags_it_does_not_read(command, flag, capsys):
    files = {"verify": ["m.json", "s.json", "t.json"], "resync": ["s.json", "t.json"],
             "profiles": ["s.json", "t.json"]}.get(command, ["l.json"])
    value = "json" if flag == "--format" else "1"
    assert main([command, *files, flag, value]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
