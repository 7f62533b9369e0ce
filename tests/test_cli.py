import contextlib
import hashlib
import io
import json
import os
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gbraids.algebra import builtin_group_example
from gbraids.cli import main, render, _flatten

BRAIDED = {"hexagon-right", "hexagon-left", "G9"}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# sha256 of stdout and the exit code of commands whose documents must stay
# byte for byte as they are
GOLDEN = [
    ("check --group C2 --operad --bounds arity=2,order=6,cap=100000", 0,
     "acbceb85d1392beebad3637a1b6d5044350d8f4b29c46292190e7fb8f1e86ad0"),
    ("check --group S3 --operad --bounds cap=400", 3,
     "b1d49036ce45d2560cf29087621e3c2ebe23a810be14755967390913408e9a8d"),
    ("check --group C2 --mutate braiding", 1,
     "876136e93eb376b30f60e680bd97e3417e6f8d2510c080dbc3ee86ad7935abb6"),
    ("check --group S3", 0,
     "2aea38daca64dd4028a90fbba36a409ef2a4ce00030dffe5b6a79a4d0ef5cff6"),
    ("coherence --group C2", 0,
     "61cc2bf6fa5b9e235678b2b1c0abead4798f76db4a1ea600f1eb470aae725035"),
    ("orbits --group S3 --signature 2,5,1,3->1", 0,
     "2f0a71d60996276e2d6f4b3d56b7f35e550742cdbc046647c0dfade49b0dba1d"),
    ("orbits --group D4 --strands 4", 0,
     "880a823a69b909569bc0bc0d13c664be7cf8cbd52ac7ab53c563224cc3841e26"),
    ("orbits --group D4 --signature 3,3,4->4 --sample 4 --seed 640365", 0,
     "5f7ccdcbfceb43ee7dccc8ee80237aa76318d4c2c3a726d523fb94742adbcab3"),
    ("grothendieck --group S3 --strands 2", 0,
     "4b626dd7fa49d7fdb6154e348e60331349d2cb7cefe99c5c05f65cae782d0bf6"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_documents(capsys, monkeypatch, command, code, digest):
    monkeypatch.delenv("GBRAIDS_JOBS", raising=False)
    got, out = run(capsys, command.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_orbits_component(capsys):
    code, doc = run_json(capsys, ["orbits", "--group", "S3",
                                  "--signature", "2,5->4"])
    assert code == 0
    results = doc["results"]
    assert results["space"] == "component"
    assert results["points"] == 24
    assert results["orbit_count"] == 2
    assert [o["size"] for o in results["orbits"]] == [12, 12]
    for o in results["orbits"]:
        assert o["representative"]["colors"] == "2,5"


def test_orbits_bare(capsys):
    code, doc = run_json(capsys, ["orbits", "--group", "C2",
                                  "--strands", "2"])
    assert code == 0
    results = doc["results"]
    assert results["space"] == "bare"
    assert results["points"] == 4
    assert results["orbit_count"] == 3
    assert sorted(o["size"] for o in results["orbits"]) == [1, 1, 2]


def test_orbits_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["orbits", "--group", "C2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["orbits", "--group", "C2", "--strands", "2",
              "--signature", "1,1->0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["orbits", "--group", "nonsense", "--strands", "2"])
    assert err.value.code == 2
    capsys.readouterr()
    # an oversized group is refused from its spec alone: a build would fail
    # here at once, not start
    with contextlib.ExitStack() as stack:
        for name in ("cyclic_group", "symmetric_group", "dihedral_group",
                     "direct_product"):
            stack.enter_context(mock.patch(f"gbraids.groups.{name}",
                                           side_effect=AssertionError(name)))
        for spec, order in [("S12", 479001600), ("C100000", 100000),
                            ("C2xS12", 958003200)]:
            with pytest.raises(SystemExit) as err:
                main(["orbits", "--group", spec, "--strands", "2"])
            assert err.value.code == 2
            assert f"group {spec!r} has order {order}, above the limit of " \
                "256" in capsys.readouterr().err
    # a family index too long for int() is refused like any other
    # oversized group
    with pytest.raises(SystemExit) as err:
        main(["orbits", "--group", "C" + "9" * 5000, "--strands", "2"])
    assert err.value.code == 2
    assert "has order over 2^64, above the limit of 256" in \
        capsys.readouterr().err
    for argv, option in [
            (["orbits", "--group", "C2", "--strands", "-1"], "--strands"),
            (["grothendieck", "--group", "C2", "--strands", "-1"], "--strands"),
            (["orbits", "--group", "S3", "--strands", "2", "--sample", "-1"],
             "--sample")]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"{option} must be >= 0" in capsys.readouterr().err


def test_check_clean_group_passes(capsys):
    code, doc = run_json(capsys, ["check", "--group", "C2"])
    assert code == 0
    assert doc["results"]["total_failures"] == 0
    assert doc["results"]["complete"] is True
    assert len(doc["results"]["relations"]) == 15


def test_check_mutated_braiding_fails(capsys):
    code, doc = run_json(capsys, ["check", "--group", "C2",
                                  "--mutate", "braiding"])
    assert code == 1
    by_id = {r["relation"]: r for r in doc["results"]["relations"]}
    for rid in BRAIDED:
        assert by_id[rid]["failure_count"] == by_id[rid]["assignments_checked"]
    assert by_id["pentagon"]["failure_count"] == 0


def test_check_subset_of_relations(capsys):
    code, doc = run_json(capsys, ["check", "--group", "S3",
                                  "--relations", "pentagon,triangle"])
    assert code == 0
    assert [r["relation"] for r in doc["results"]["relations"]] == \
        ["pentagon", "triangle"]


def test_check_unknown_relation_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--group", "C2", "--relations", "nonsense"])
    assert err.value.code == 2


def test_check_parallel_jobs_matches_serial(capsys):
    code1, serial = run_json(capsys, ["check", "--group", "C2"])
    code2, parallel = run_json(capsys, ["check", "--group", "C2",
                                        "--jobs", "2"])
    assert code1 == code2 == 0
    assert serial["results"] == parallel["results"]
    assert parallel["config"]["jobs"] == 2


def test_jobs_default_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("GBRAIDS_JOBS", "2")
    code, doc = run_json(capsys, ["check", "--group", "C2",
                                  "--relations", "triangle"])
    assert code == 0
    assert doc["config"]["jobs"] == 2


def test_output_is_byte_identical_across_runs(capsys):
    _, first = run(capsys, ["coherence", "--group", "C2"])
    _, second = run(capsys, ["coherence", "--group", "C2"])
    assert first == second
    assert first.endswith("\n")


def test_bad_jobs_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GBRAIDS_JOBS", "abc")
    with pytest.raises(SystemExit) as err:
        main(["check", "--group", "C2", "--relations", "triangle"])
    assert err.value.code == 2
    # an explicit --jobs does not read the environment
    code, doc = run_json(capsys, ["check", "--group", "C2",
                                  "--relations", "triangle", "--jobs", "1"])
    assert code == 0
    assert doc["config"]["jobs"] == 1


def test_common_options_accepted_on_either_side(capsys):
    _, before = run_json(capsys, ["--seed", "9", "orbits", "--group", "C2",
                                  "--strands", "2", "--sample", "1"])
    _, after = run_json(capsys, ["orbits", "--group", "C2", "--strands", "2",
                                 "--sample", "1", "--seed", "9"])
    assert before == after
    assert before["config"]["seed"] == 9


def test_sampling_is_seed_deterministic(capsys):
    argv = ["orbits", "--group", "S3", "--signature", "2,5->4",
            "--sample", "4", "--seed", "3"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    assert first == second
    _, other = run_json(capsys, argv[:-1] + ["4"])
    assert other["results"]["samples"] != first["results"]["samples"]


def test_sampling_an_empty_component(capsys):
    code, doc = run_json(capsys, ["orbits", "--group", "C2",
                                  "--signature", "1->0", "--sample", "2"])
    assert code == 0
    assert doc["results"]["points"] == 0
    assert doc["results"]["samples"] == []


def test_csv_projection(capsys):
    code, out = run(capsys, ["--format", "csv", "orbits", "--group", "C2",
                             "--strands", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "results.orbit_count,3" in lines
    assert "config.format,csv" in lines


def test_grothendieck_comparison(capsys):
    code, doc = run_json(capsys, ["grothendieck", "--group", "C2",
                                  "--strands", "2"])
    assert code == 0
    results = doc["results"]
    assert results["objects"] == 8
    assert results["generators"] == 24
    assert results["failures"] == []


def test_coherence_solve(capsys):
    code, doc = run_json(capsys, ["coherence", "--group", "C2"])
    assert code == 0
    assert doc["results"]["solutions"] == 256
    assert doc["results"]["variables"] == 36
    assert len(doc["results"]["vectors"]) == 5
    code, doc = run_json(capsys, ["coherence", "--group", "C2", "--all"])
    assert len(doc["results"]["vectors"]) == 256


def test_coherence_check_data_file(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(builtin_group_example().to_json()))
    code, doc = run_json(capsys, ["coherence", "--group", "C2",
                                  "--data", str(good)])
    assert code == 0
    assert doc["results"]["coherent"] is True

    payload = builtin_group_example().to_json()
    payload["values"]["alpha:0,0,0"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, doc = run_json(capsys, ["coherence", "--group", "C2",
                                  "--data", str(bad)])
    assert code == 1
    assert doc["results"]["coherent"] is False


def test_coherence_nonpositive_modulus_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coherence", "--group", "C2", "--modulus", "0"])
    assert err.value.code == 2


def _renamed(name):
    """The built-in datum with one more value, under a malformed name."""
    payload = builtin_group_example().to_json()
    payload["values"][name] = 0
    return payload


@pytest.mark.parametrize("payload, named", [
    ([1, 2], None), ({"group": "C2"}, None),
    # JSON true must not pass for the integer 1
    (dict(builtin_group_example().to_json(), modulus=True), None),
    (_renamed("alpha:a,b,c"), "alpha:a,b,c"),
    (_renamed("alpha:0,0,"), "alpha:0,0,"),
    # int() would read both as c:1,1 and let the later value win
    (_renamed("c:+1,01"), "c:+1,01"), (_renamed("c: 1,1"), "c: 1,1")],
    ids=["list", "no-values", "bool-modulus", "letter-in-key",
         "empty-key-part", "signed-padded-key", "spaced-key"])
def test_coherence_malformed_data_is_usage_error(capsys, tmp_path, payload,
                                                 named):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as err:
        main(["coherence", "--group", "C2", "--data", str(path)])
    assert err.value.code == 2
    if named:
        assert f"malformed variable name {named!r}" in capsys.readouterr().err


def test_cap_exit_codes(capsys):
    code, doc = run_json(capsys, ["orbits", "--group", "S3", "--strands", "6",
                                  "--bounds", "cap=1000"])
    assert code == 3
    assert "error" in doc["results"]
    # a component is capped on its r!|G|^(r-1) candidates, before any work
    code, doc = run_json(capsys, ["orbits", "--group", "S3", "--signature",
                                  "1,1,1,1->0", "--bounds", "cap=10"])
    assert code == 3
    assert doc["results"]["error"] == "4!*6^3 tuples exceed the cap 10"
    code, doc = run_json(capsys, ["orbits", "--group", "S3", "--strands", "4",
                                  "--bounds", "cap=10"])
    assert code == 3
    assert doc["results"]["error"] == "6^4 tuples exceed the cap 10"
    # a strand count over the cap's bit length is refused without the power
    for command, count in [("orbits", "6^1000000000000 tuples"),
                           ("grothendieck",
                            "1000000000000!*6^1000000000000 objects")]:
        code, doc = run_json(capsys, [command, "--group", "S3", "--strands",
                                      "1000000000000"])
        assert code == 3
        assert doc["results"]["error"] == f"{count} exceed the cap 1000000"
    # at the cap's bit length the count itself decides; grothendieck counts
    # the r!|G|^r objects of its presentations
    for command, count, fits in [("orbits", "2^4 tuples", 8),
                                 ("grothendieck", "4!*2^4 objects", 48)]:
        code, doc = run_json(capsys, [command, "--group", "C2", "--strands",
                                      "4", "--bounds", "cap=15"])
        assert (code, doc["results"]) == \
            (3, {"error": f"{count} exceed the cap 15"})
        code, doc = run_json(capsys, [command, "--group", "C2", "--strands",
                                      "3", "--bounds", f"cap={fits}"])
        assert code == 0
    code, doc = run_json(capsys, ["grothendieck", "--group", "C2",
                                  "--strands", "3", "--bounds", "cap=47"])
    assert (code, doc["results"]) == \
        (3, {"error": "3!*2^3 objects exceed the cap 47"})
    # a trivial group has one tuple at any strand count, but r! objects
    code, doc = run_json(capsys, ["orbits", "--group", "C1", "--strands",
                                  "5", "--bounds", "cap=1"])
    assert code == 0
    for spec, r, count in [("S3", 7, "7!*6^7"), ("C1", 11, "11!*1^11")]:
        code, doc = run_json(capsys, ["grothendieck", "--group", spec,
                                      "--strands", str(r)])
        assert (code, doc["results"]) == \
            (3, {"error": f"{count} objects exceed the cap 1000000"})
    code, doc = run_json(capsys, ["check", "--group", "S3", "--operad",
                                  "--bounds", "cap=400"])
    assert code == 3
    assert doc["results"]["total_failures"] == 0
    assert doc["results"]["complete"] is False


def test_bad_bounds_is_usage_error(capsys):
    for argv, entry, why in [
            (["check", "--group", "C2"], "nonsense=1", "(want arity="),
            (["check", "--group", "C2", "--operad"], "arity=-2", "(must be"),
            (["check", "--group", "C2", "--relations", "triangle"], "cap=-1",
             "(must be"),
            (["check", "--group", "C2", "--operad"], "arity=x",
             "(not an integer)")]:
        with pytest.raises(SystemExit) as err:
            main(argv + ["--bounds", entry])
        assert err.value.code == 2
        assert f"bad bounds entry {entry!r} {why}" in capsys.readouterr().err


def test_flatten_and_render():
    doc = {"b": [1, {"x": None}], "a": 2}
    rows = list(_flatten(doc))
    assert rows == [("a", 2), ("b[0]", 1), ("b[1].x", None)]
    text = render(doc, "csv")
    assert text.splitlines() == ["key,value", "a,2", "b[0],1", "b[1].x,"]
    assert render(doc, "json") == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def data_paths(tmp_path_factory):
    """``coherence --data`` paths: a missing file, malformed JSON, a JSON
    list and a valid C2 datum."""
    root = tmp_path_factory.mktemp("data")
    files = {"malformed.json": "{\"values\": ",
             "list.json": "[1, 2]",
             "valid.json": json.dumps(builtin_group_example().to_json())}
    for name, text in files.items():
        (root / name).write_text(text)
    return [str(root / name) for name in ("missing.json", *files)]


@st.composite
def cli_argv(draw, data_paths):
    """argv from a small grammar: every subcommand, small groups and one bad
    spec, the subcommand's options with good and bad values, ``--data``
    files, and always a cap of at most 50.  ``--jobs 1`` is drawn or left
    to ``GBRAIDS_JOBS``, which the test draws at most 1."""
    command = draw(st.sampled_from(("orbits", "check", "grothendieck",
                                    "coherence")))
    argv = [command, "--group",
            draw(st.sampled_from(("C1", "C2", "C3", "S3", "D4", "Q8")))]
    index = st.integers(-1, 8).map(str)
    if command == "orbits":
        if draw(st.booleans()):
            argv += ["--strands", str(draw(st.integers(-1, 4)))]
        else:
            inputs = draw(st.lists(index, max_size=4))
            argv.append(f"--signature={','.join(inputs)}->{draw(index)}")
        if draw(st.booleans()):
            argv += ["--sample", str(draw(st.integers(-1, 3)))]
    elif command == "check":
        if draw(st.booleans()):
            argv += ["--relations", ",".join(draw(st.lists(
                st.sampled_from(("triangle", "hexagon-left", "G9", "none")),
                min_size=1, max_size=2)))]
        if draw(st.booleans()):
            argv += ["--mutate", "braiding"]
        if draw(st.booleans()):
            argv.append("--operad")
    elif command == "grothendieck":
        argv += ["--strands", str(draw(st.integers(-1, 3)))]
    elif draw(st.booleans()):
        argv += ["--data", draw(st.sampled_from(data_paths))]
    else:
        argv += ["--modulus", str(draw(st.integers(-1, 3)))]
    bounds = [f"{name}={draw(st.integers(0, 4))}"
              for name in ("arity", "order") if draw(st.booleans())]
    bounds.append(f"cap={draw(st.integers(0, 50))}")
    argv += ["--bounds", ",".join(bounds)]
    return argv + ["--jobs", "1"] if draw(st.booleans()) else argv


@given(data=st.data(), jobs=st.sampled_from(("1", "0", "x", "")))
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_ends_in_an_exit_code(data_paths, data, jobs):
    argv = data.draw(cli_argv(data_paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"GBRAIDS_JOBS": jobs}):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
