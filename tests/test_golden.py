"""Every entry of tests/golden.json reproduces, and the runner in
tests/golden.py names exactly the entries that do not."""

import json

import pytest

import golden
from cubecrys.crys import catalog_entry, save_group


def test_every_golden_entry_reproduces(tmp_path):
    perfbench = sorted(golden.PERFBENCH.rglob("*"))
    problems = golden.compare(golden.load(),
                              golden.results(golden.build(tmp_path)))
    assert not problems, "\n".join(problems)
    assert sorted(golden.PERFBENCH.rglob("*")) == perfbench


def test_the_manifest_is_one_sorted_line_per_entry(tmp_path):
    manifest = golden.load()
    golden.save(manifest, tmp_path / "golden.json")
    assert (tmp_path / "golden.json").read_bytes() \
        == golden.MANIFEST.read_bytes()
    assert len(golden.MANIFEST.read_text().splitlines()) \
        == len(manifest) + 2


@pytest.fixture
def synthetic(tmp_path):
    """A manifest of three real runs, as recorded, and their runs."""
    save_group(catalog_entry("p4m"), tmp_path / "p4m.json")
    runs = [golden._run("tests", None, argv, name, tmp_path)
            for argv, name in ((["classify", "--json", "p4m.json"],
                                "p4m.json"),
                               (["validate", "p4m.json"], "p4m.json"),
                               (["boundary", "--json", "Line*Line"], None))]
    fresh = golden.results(runs)
    return json.loads(json.dumps(fresh)), runs


def test_a_reproduced_manifest_has_no_problems(synthetic):
    manifest, runs = synthetic
    assert golden.compare(manifest, golden.results(runs)) == []
    assert {e["input"] is None for e in manifest.values()} == {True, False}


def test_one_altered_stdout_digest_fails_exactly_that_entry(synthetic):
    manifest, runs = synthetic
    name = "tests: validate p4m.json"
    manifest[name]["stdout"] = "0" * 64
    assert golden.compare(manifest, golden.results(runs)) == [
        "output changed (stdout): " + name]


def test_an_altered_input_digest_is_an_input_change(synthetic):
    manifest, runs = synthetic
    name = "tests: classify --json p4m.json"
    manifest[name]["input"] = "0" * 64
    manifest[name]["stdout"] = "0" * 64
    assert golden.compare(manifest, golden.results(runs)) == [
        "input changed: " + name]


def test_a_missing_and_a_stale_entry_are_named(synthetic):
    manifest, runs = synthetic
    stale = dict(manifest["tests: validate p4m.json"],
                 argv=["validate", "gone.json"])
    manifest["tests: validate gone.json"] = stale
    del manifest["tests: boundary --json Line*Line"]
    assert golden.compare(manifest, golden.results(runs)) == [
        "missing entry (a run with no line): tests: boundary --json "
        "Line*Line",
        "stale entry (a line with no run): tests: validate gone.json"]


def test_a_rewrite_changes_only_the_named_entries(synthetic):
    manifest, runs = synthetic
    old = {name: dict(e, stdout="0" * 64) for name, e in manifest.items()}
    old["tests: validate gone.json"] = old["tests: validate p4m.json"]
    names = golden.select(old.keys() | manifest.keys(),
                          ["tests: classify *", "*gone*"])
    assert names == {"tests: classify --json p4m.json",
                     "tests: validate gone.json"}
    new = golden.rewrite(old, manifest, names)
    expected = dict(old)
    expected["tests: classify --json p4m.json"] = \
        manifest["tests: classify --json p4m.json"]
    del expected["tests: validate gone.json"]
    assert new == expected
    assert golden.compare(new, manifest) == [
        "output changed (stdout): tests: boundary --json Line*Line",
        "output changed (stdout): tests: validate p4m.json"]
    with pytest.raises(KeyError, match="nothing"):
        golden.select(manifest.keys(), ["nothing"])
