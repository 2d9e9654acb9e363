import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from syncsynth import automata, profiles, serialize
from syncsynth.automata import AutomatonError, SequentialDfa
from syncsynth.cli import main
from syncsynth.letters import Tape
from syncsynth.pipeline import PipelineConfig

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


def test_decide_answers_the_intro_instance_without_a_flag(files, capsys):
    """The intro source has finite shift, so `decide` takes the exact
    finite-shift procedure, which needs no block cap although the target's
    shiftlag is infinite."""
    s_path, t_path = files
    code = main(["decide", str(s_path), str(t_path), "--depth", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0, doc["reason"]
    assert (doc["answer"], doc["procedure"]) == ("YES", "decide_recognizable")
    assert doc["verification"]["ok"]
    assert len(doc["machine"]["states"]) == doc["stats"]["machine_states"] == 7


def test_decide_rejects_without_override(tmp_path, capsys, abst_S, intro_T):
    """An infinite-shift source with an infinite-shiftlag target is outside
    both exact procedures: without a block cap, `decide` rejects it."""
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(intro_T), encoding="utf-8")
    code = main(["decide", str(s_path), str(t_path), "--depth", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert (doc["answer"], doc["procedure"]) == ("REJECTED", "decide")
    assert doc["reason"].startswith("target language has infinite shiftlag")


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
    # `verify` endmarks each of the source and the target whose alphabet
    # lacks `⊣i`, so every mix of plain and endmarked files meets the machine
    for source, target in itertools.product((lang_path, endmarked), repeat=2):
        code = main(["verify", str(machine_path), str(source), str(target), "--depth", "4"])
        captured = capsys.readouterr()
        assert code == 0, (source.name, target.name, captured.out, captured.err)


def test_synthesize_refuses_an_endmarked_language(tmp_path, capsys):
    """`synthesize` plays on the language as it is: an endmarker already in
    its alphabet is an input error that names the endmarker."""
    s = mk_nfa({"a"}, {"d"}, "q0", {"q2"}, [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2")])
    path = tmp_path / "endmarked.json"
    path.write_text(serialize.dumps(automata.add_endmarkers(s)), encoding="utf-8")
    assert main(["synthesize", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "⊣i" in captured.err
    assert captured.out == ""


def test_verify_machine_without_partition_is_input_error(tmp_path, capsys):
    """A machine document with no state partition is not a sequential DFA:
    `verify` reports an input error (exit 3), not a failed verification."""
    s = mk_nfa({"a"}, {"d"}, "q0", {"q2"}, [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2")])
    s_path = tmp_path / "s.json"
    s_path.write_text(serialize.dumps(s), encoding="utf-8")
    code = main(["verify", str(s_path), str(s_path), str(s_path), "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error: the machine must be a sequential DFA" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("partition", [{}, {"input_states": []}, None, []])
def test_malformed_partition_is_input_error(tmp_path, capsys, intro_U, partition):
    """A partition without both state lists is a malformed document: every
    command reports an input error (exit 3)."""
    doc = serialize.to_dict(intro_U)
    doc["partition"] = partition
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(AutomatonError, match="malformed automaton document"):
        serialize.load_path(path)
    assert main(["classify", str(path)]) == 3
    assert "error: malformed automaton document" in capsys.readouterr().err


def _renamed(doc, old, new, keys):
    """`doc` with every `old` under the given transition keys, and in the
    state or alphabet lists that hold it, replaced by `new`."""
    doc = json.loads(json.dumps(doc))
    for t in doc["transitions"]:
        for key in keys:
            if t[key] == old:
                t[key] = new
    for names in (doc["states"], doc["finals"], *doc["alphabet"].values()):
        names[:] = [new if x == old else x for x in names]
    return doc


@pytest.mark.parametrize("edit", ["state", "letter", "alphabet"])
def test_non_string_names_are_input_errors(files, tmp_path, capsys, intro_S, edit):
    """State names and letters must be strings and the alphabets lists: a
    numeric state once crashed `canon` and `decide` with a TypeError
    (exit 1), and an alphabet written as "abc" was read as three letters."""
    doc = serialize.to_dict(intro_S)
    if edit == "state":
        doc = _renamed(doc, "q3", 3, ("from", "to"))
    elif edit == "letter":
        doc = _renamed(doc, "a", 1, ("letter",))
    else:
        doc["alphabet"]["input"] = "abc"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(AutomatonError, match="malformed automaton document"):
        serialize.load_path(path)
    _, t_path = files
    for argv in (["canon", str(path)], ["decide", str(path), str(t_path)]):
        assert main(argv) == 3, argv
        assert "error: malformed automaton document" in capsys.readouterr().err


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


def test_resync_stats_name_the_parameters_and_sizes(tmp_path, capsys, abst_S, abst_late_T):
    """`resync` reports the parameters it built T_i with and the sizes it
    got, at the block cap decide uses on abst-late; T_i's shape bounds the
    queue, so there are no queue refusals to report."""
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(abst_late_T), encoding="utf-8")
    code = main(["resync", str(s_path), str(t_path), "--bound-k", "6"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"] == {"n": 3, "gamma": 0, "i": 6, "t_i_states": 5, "states": 9, "transitions": 9}


def test_decide_rec_cli(tmp_path, capsys):
    """`decide` answers a finite-shift source by `decide_recognizable`."""
    s = mk_nfa(
        {"a"}, {"d"}, "s0", {"s1"},
        [("s0", "i", "a", "s0"), ("s0", "o", "d", "s1")],
    )
    t = tag_family("1*2*")
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(s), encoding="utf-8")
    t_path.write_text(serialize.dumps(t), encoding="utf-8")
    code = main(["decide", str(s_path), str(t_path), "--depth", "5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["answer"], doc["procedure"]) == ("YES", "decide_recognizable")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_depth_must_be_a_positive_integer(files, tmp_path, capsys, value):
    """A depth below 1 would verify no input, so a machine accepting nothing
    would pass; each command that reads --depth refuses it as a usage error.
    A block cap below 0 is refused the same way, before any work (a cap of 0
    is one block and stays valid)."""
    s_path, t_path = files
    empty = mk_nfa({"a", "b", "c"}, {"d", "e"}, "m0", set(), [], cls=SequentialDfa,
                   input_states={"m0"})
    machine_path = tmp_path / "machine.json"
    machine_path.write_text(serialize.dumps(empty), encoding="utf-8")
    assert main(["verify", str(machine_path), str(s_path), str(t_path), "--depth", "3"]) == 1
    capsys.readouterr()
    for argv in (["verify", str(machine_path)], ["decide"]):
        assert main([*argv, str(s_path), str(t_path), "--depth", value]) == 3, argv
        assert "--depth" in capsys.readouterr().err
    if value == "-1":
        for command in ("decide", "resync"):
            assert main([command, str(s_path), str(t_path), "--bound-k", value]) == 3, command
            assert "--bound-k" in capsys.readouterr().err
        with pytest.raises(ValueError, match="block cap"):
            PipelineConfig(k_override=-1)


def test_rejected_witness_is_structured(tmp_path, capsys, intro_T):
    """decide prints a REJECTED source's shiftlag witness as classify does."""
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(intro_T), encoding="utf-8")
    assert main(["classify", str(path)]) == 0
    classified = json.loads(capsys.readouterr().out)
    assert main(["decide", str(path), str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["witness"] == classified["shiftlag"]["witness"]


def test_state_cap_exits_inconclusive(tmp_path, capsys, monkeypatch, abst_S, abst_T):
    """A state cap hit by canon, resync or profiles exits 2 and names the
    construction and the cap, as it does for decide."""
    monkeypatch.setattr(automata, "STATE_CAP", 10)
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(abst_T), encoding="utf-8")
    for command in (
        ["canon", str(s_path)],
        ["resync", str(s_path), str(t_path), "--bound-k", "2"],
        ["profiles", str(s_path), str(t_path)],
    ):
        assert main(command) == 2, command[0]
        assert capsys.readouterr().err == (
            "inconclusive: state cap: canonicalize: construction exceeded 10 states "
            "(automata.STATE_CAP)\n"
        )


def test_closure_cap_exits_inconclusive(tmp_path, capsys, monkeypatch, abst_S, abst_T):
    """A closure cap hit by profiles exits 2 with the reason on stderr, and
    decide exits 2 with the same reason in its JSON."""
    monkeypatch.setattr(profiles, "CLOSURE_CAP", 1)
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(abst_T), encoding="utf-8")
    reason = "closure cap: the input profile closure exceeded 1 profiles (profiles.CLOSURE_CAP)"
    assert main(["profiles", str(s_path), str(t_path)]) == 2
    assert capsys.readouterr().err == f"inconclusive: {reason}\n"
    assert main(["decide", str(s_path), str(t_path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["answer"], doc["reason"]) == ("INCONCLUSIVE", reason)


def test_canon_and_decide_are_hash_seed_independent(files, tmp_path, abst_S, abst_T):
    """`classify` prints the certificates, `canon` the minimal canonical DFA,
    `decide` its verdict by either procedure, `resync` T_iS and `profiles`
    its counts and tree, with the same bytes under every hash seed. T_i is a
    minimal DFA, which keeps T_iS at 69 states."""
    root = Path(__file__).resolve().parent.parent
    s_path, t_path = files
    # the intro target has infinite shiftlag, which `profiles` refuses
    abst_s_path, abst_t_path = tmp_path / "abst_s.json", tmp_path / "abst_t.json"
    abst_s_path.write_text(serialize.dumps(abst_S), encoding="utf-8")
    abst_t_path.write_text(serialize.dumps(abst_T), encoding="utf-8")
    for command in (["classify", str(s_path)],
                    ["classify", str(t_path)],
                    ["classify", str(abst_s_path)],
                    ["classify", str(abst_t_path)],
                    ["canon", str(s_path)],
                    ["decide", str(s_path), str(t_path)],
                    ["decide", str(s_path), str(t_path), "--bound-k", "3"],
                    ["resync", str(s_path), str(t_path), "--bound-k", "3"],
                    ["profiles", str(abst_s_path), str(abst_t_path)],
                    ["profiles", str(abst_s_path), str(abst_t_path), "--format", "dot"]):
        outputs = set()
        for seed in ("0", "7", "99"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
            done = subprocess.run(
                [sys.executable, "-m", "syncsynth.cli", *command],
                cwd=root, env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, command
        if command[0] == "canon":
            assert len(serialize.loads(outputs.pop()).states) == 14
        if command[0] == "resync":
            assert json.loads(outputs.pop())["stats"]["states"] == 69


def test_decide_rec_machine_verifies(tmp_path, capsys, ann_S, ann_T):
    """A machine from `decide` is endmarked; `verify` meets it there."""
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    s_path.write_text(serialize.dumps(ann_S), encoding="utf-8")
    t_path.write_text(serialize.dumps(ann_T), encoding="utf-8")
    verdict_path = tmp_path / "verdict.json"
    code = main(["decide", str(s_path), str(t_path), "--out", str(verdict_path)])
    assert code == 0
    doc = json.loads(verdict_path.read_text(encoding="utf-8"))
    assert doc["procedure"] == "decide_recognizable"
    machine_path = tmp_path / "machine.json"
    machine_path.write_text(json.dumps(doc["machine"]), encoding="utf-8")
    code = main(["verify", str(machine_path), str(s_path), str(t_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report["failures"]
    assert report["ok"]


def test_block_cap_zero_is_one_block_everywhere(files, capsys, intro_S, intro_T):
    from syncsynth.pipeline import decide

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
    + [("profiles", "--bound-k"), ("profiles", "--depth"), ("profiles", "--cap")]
    + [("decide", "--cap")]
    + [("verify", "--format"), ("verify", "--cap")]
    + [("decide-rec", "--bound-k"), ("decide-rec", "--cap")]
)


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_subcommand_rejects_flags_it_does_not_read(command, flag, capsys):
    """A subcommand refuses a flag it does not read. `decide-rec` is gone
    with the flags it took, since `decide` picks the finite-shift procedure
    itself, so argparse refuses the subcommand before its flags."""
    files = {"verify": ["m.json", "s.json", "t.json"], "resync": ["s.json", "t.json"],
             "profiles": ["s.json", "t.json"], "decide": ["s.json", "t.json"],
             "decide-rec": ["s.json", "t.json"]}.get(command, ["l.json"])
    value = "json" if flag == "--format" else "1"
    assert main([command, *files, flag, value]) == 3
    expected = "invalid choice: 'decide-rec'" if command == "decide-rec" else "unrecognized arguments"
    assert expected in capsys.readouterr().err
