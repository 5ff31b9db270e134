"""The golden manifest: the bytes of every `cubecrys` run the project
keeps the same, and the one runner that checks and re-records them.

tests/golden.json is a JSON list with one line per entry, sorted by
entry name.  An entry is one run of `cubecrys.cli.main(argv)`, made
in-process in the directory that holds its input file, and is keyed by:

- source: where the input comes from.  "perfbench" is perfbench's
  corpus (corpus.group_corpus and corpus.dual_corpus) at corpus seeds
  0-2; "perfbench-defects" is its KNOWN_DEFECTS items
  (corpus.known_defect_items); "tests" is the inputs built here from
  tests/inputs.py and the catalog;
- seed: the corpus seed, or null;
- mode: "json" when argv has --json, else "text";
- argv: the subcommand argv, with the input named by its file name.

and records the run's exit code and the sha256 of its stdout, of its
stderr, of the file it writes with --out ("out", only when there is
one) and of its input file ("input", null for `catalog` and
`boundary`).  An entry whose input digest differs is reported as an
input change, not a code change: perfbench's corpus or a test input
moved, not the output of the code under test.

A joined entry ("join") records the sha256 of the stdouts of the named
entries written one after another, and of their inputs likewise: the
form of a pin on a whole sequence of runs.

perfbench's corpus is built by one `python -B` subprocess with
perfbench/ first on its path, so that its `import groups` finds
perfbench/groups.py, and -B keeps it from writing a bytecode cache
under perfbench/.  Nothing under perfbench/ is written.

Re-record entries, by name or fnmatch pattern, from the root of a
checkout:

    PYTHONPATH=src python tests/golden.py 'tests: classify *'

Only the entries named are rewritten, added (a run with no line yet)
or dropped (a line with no run left); every other line stays as it is.
"""

import contextlib
import fnmatch
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import cubecrys
from cubecrys import cli
from cubecrys.crys import load_catalog, save_group
from cubecrys.dual import save_wallspace
from inputs import (
    b4_generic,
    fourteen_crossing_lines,
    pinned_groups,
    spatial_arrangement,
    ten_crossing_lines,
    wf4,
    wf4_generic,
    wf4_sub48,
)

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.json"
PERFBENCH = ROOT / "perfbench"
CORPUS_SEEDS = (0, 1, 2)
RESULT_FIELDS = ("exit", "stdout", "stderr", "out", "input")

# Run under `python -B` in the build directory: write perfbench's corpus
# at each seed, and its known-defect items, each into a subdirectory
# named as the runs' source and seed, and print their argvs as JSON.
# The corpus paths are relative to that subdirectory.
_CORPUS_SCRIPT = """
import json, os, sys
import corpus
runs = []
for seed in %r:
    os.mkdir("perfbench@%%d" %% seed)
    os.chdir("perfbench@%%d" %% seed)
    items = {**corpus.group_corpus("", seed), **corpus.dual_corpus("", seed)}
    runs += [["perfbench", seed, i.argv]
             for w in corpus.WORKLOADS for i in items[w]]
    os.chdir("..")
os.mkdir("perfbench-defects")
os.chdir("perfbench-defects")
runs += [["perfbench-defects", None, i.argv]
         for i in corpus.known_defect_items("")]
json.dump(runs, sys.stdout)
""" % (CORPUS_SEEDS,)

# The joined entry: dual --json over the 32 wallspaces of
# seeded_wallspaces(count=32, seed=0, max_walls=5), which perfbench's
# dual-check corpus saves at seed 0.
SEEDED_JOIN = "tests: dual --json on seeded_wallspaces(count=32, seed=0, " \
              "max_walls=5), joined"
SEEDED_PARTS = ["perfbench@0: dual --json w_seeded-%d.json" % i
                for i in range(32)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry_name(entry) -> str:
    if "join" in entry:
        return entry["name"]
    seed = "" if entry["seed"] is None else "@%d" % entry["seed"]
    return "%s%s: %s" % (entry["source"], seed, " ".join(entry["argv"]))


def tests_entry(command, input_name, *options, mode="json") -> str:
    """The name of the entry that runs command on input_name, one of
    the tests' own inputs, in mode."""
    argv = [command] + ["--json"] * (mode == "json") + [input_name]
    return entry_name({"source": "tests", "seed": None,
                       "argv": argv + list(options)})


def _run(source, seed, argv, input_name, where: Path) -> dict:
    return {"source": source, "seed": seed,
            "mode": "json" if "--json" in argv else "text",
            "argv": list(argv), "input_name": input_name, "dir": where}


def group_file_name(group_name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_"
                   for c in group_name) + ".json"


def _perfbench_runs(root: Path) -> list:
    """Write perfbench's corpus under root; its runs, each item in
    --json and text mode."""
    src = str(Path(cubecrys.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [str(PERFBENCH), src,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CORPUS_SCRIPT], cwd=root,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        check=True, timeout=300)
    runs = []
    for source, seed, argv in json.loads(proc.stdout):
        assert argv[1] == "--json", argv
        where = root / (source if seed is None else "%s@%d" % (source, seed))
        input_name = next((a for a in argv if a.endswith(".json")), None)
        for mode_argv in (argv, argv[:1] + argv[2:]):
            runs.append(_run(source, seed, mode_argv, input_name, where))
    return runs


def _tests_runs(root: Path) -> list:
    """Write the tests' inputs under root/tests; their runs."""
    where = root / "tests"
    where.mkdir()
    groups = {g.name: g for g in load_catalog()}
    catalog = list(groups)
    groups.update(pinned_groups())
    for g in (wf4(), b4_generic(), wf4_generic(), wf4_sub48()):
        groups[g.name] = g
    for g in groups.values():
        save_group(g, where / group_file_name(g.name))
    spaces = (ten_crossing_lines, spatial_arrangement,
              fourteen_crossing_lines)
    for space in spaces:
        save_wallspace(space(), where / (space.__name__ + ".json"))

    runs = []

    def add(command, input_name, options=(), modes=("json", "text")):
        for mode in modes:
            argv = [command] + ["--json"] * (mode == "json") + [input_name]
            runs.append(_run("tests", None, argv + list(options),
                             input_name, where))

    for name in catalog + ["W(F4)", "m-skew"]:
        add("classify", group_file_name(name))
        add("validate", group_file_name(name), modes=("json",))
    for name in ("p4-skew", "C2^2.p-skew", "B4-generic", "WF4-sub48"):
        add("classify", group_file_name(name), modes=("json",))
    for name in catalog:
        add("cubulate", group_file_name(name), ["--seed", "0"])
        add("cubulate", group_file_name(name),
            ["--seed", "0", "--use-witness-basis"])
    for name, seeds in (("W(F4)-D4U", ["0"]),
                        ("B4-generic", ["0", "1", "987654321", "-3"]),
                        ("p4m", ["1", "987654321", "-3"]),
                        ("pg", ["1", "987654321", "-3"])):
        for seed in seeds:
            add("cubulate", group_file_name(name), ["--seed", seed])
    for space in spaces[:2]:
        add("dual", space.__name__ + ".json", ["--out", "complex.json"],
            modes=("json",))
    add("dual", spaces[2].__name__ + ".json")
    return runs


def build(root: Path) -> list:
    """Write every input under root; every run, in manifest order."""
    return sorted(_perfbench_runs(root) + _tests_runs(root), key=entry_name)


def execute(run) -> dict:
    """Run one entry in-process in its directory: its result fields,
    with its stdout and input bytes under "_stdout" and "_input"."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(run["dir"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(run["argv"]))
    finally:
        os.chdir(cwd)
    stdout = out.getvalue().encode("utf-8")
    result = {"exit": code, "stdout": sha256(stdout),
              "stderr": sha256(err.getvalue().encode("utf-8")),
              "input": None, "_stdout": stdout, "_input": b""}
    if run["input_name"] is not None:
        result["_input"] = (run["dir"] / run["input_name"]).read_bytes()
        result["input"] = sha256(result["_input"])
    if "--out" in run["argv"]:
        written = run["argv"][run["argv"].index("--out") + 1]
        result["out"] = sha256((run["dir"] / written).read_bytes())
    return result


def results(runs, wanted=None, stdouts=None) -> dict:
    """Run every entry, or every entry whose name is in wanted: {name:
    manifest entry}.  The joined entry is made when its parts ran.
    Each run's stdout bytes go into stdouts, when given, by name."""
    needed = wanted
    if wanted is not None and SEEDED_JOIN in wanted:
        needed = set(wanted) | set(SEEDED_PARTS)
    fresh, parts = {}, {}
    for run in runs:
        name = entry_name(run)
        if needed is not None and name not in needed:
            continue
        result = execute(run)
        if stdouts is not None:
            stdouts[name] = result["_stdout"]
        if name in SEEDED_PARTS:
            parts[name] = result
        fresh[name] = {k: run[k] for k in ("source", "seed", "mode", "argv")}
        fresh[name].update((k, v) for k, v in result.items() if k[0] != "_")
    if len(parts) == len(SEEDED_PARTS):
        fresh[SEEDED_JOIN] = {"name": SEEDED_JOIN, "join": SEEDED_PARTS}
        for field in ("stdout", "input"):
            fresh[SEEDED_JOIN][field] = sha256(b"".join(
                parts[n]["_" + field] for n in SEEDED_PARTS))
    return fresh if wanted is None else {n: fresh[n] for n in wanted}


def compare(manifest: dict, fresh: dict) -> list:
    """One line per run with no line in the manifest, per line with no
    run, and per entry whose fresh result differs: an input change when
    its input digest differs, else an output change."""
    problems = []
    for name in sorted(fresh.keys() - manifest.keys()):
        problems.append("missing entry (a run with no line): %s" % name)
    for name in sorted(manifest.keys() - fresh.keys()):
        problems.append("stale entry (a line with no run): %s" % name)
    for name in sorted(manifest.keys() & fresh.keys()):
        old, new = manifest[name], fresh[name]
        if old.get("input") != new.get("input"):
            problems.append("input changed: %s" % name)
            continue
        differ = [k for k in RESULT_FIELDS if old.get(k) != new.get(k)]
        if differ:
            problems.append("output changed (%s): %s"
                            % (", ".join(differ), name))
    return problems


def check(root: Path, names, stdouts=None) -> list:
    """compare() over the named entries alone, with their inputs written
    under root: the tests' own inputs, and perfbench's corpus only when a
    named entry needs it."""
    runs = _tests_runs(root)
    if SEEDED_JOIN in names or any(not n.startswith("tests: ")
                                   for n in names):
        runs += _perfbench_runs(root)
    manifest = load()
    return compare({n: manifest[n] for n in names},
                   results(runs, names, stdouts))


def select(names, patterns) -> set:
    """The names that some pattern equals or matches (fnmatch); a
    pattern that matches none is an error."""
    chosen = set()
    for pattern in patterns:
        matched = {n for n in names
                   if n == pattern or fnmatch.fnmatchcase(n, pattern)}
        if not matched:
            raise KeyError("no entry or run is named %r" % pattern)
        chosen |= matched
    return chosen


def rewrite(manifest: dict, fresh: dict, names) -> dict:
    """The manifest with each named entry taken from the fresh results,
    or dropped where the run is gone; every other entry as it was."""
    out = dict(manifest)
    for name in names:
        if name in fresh:
            out[name] = fresh[name]
        else:
            out.pop(name, None)
    return out


def load(path=MANIFEST) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {entry_name(e): e for e in json.load(fh)}


def save(manifest: dict, path=MANIFEST) -> None:
    lines = [json.dumps(manifest[name], sort_keys=True)
             for name in sorted(manifest)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")


def main(patterns) -> int:
    if not patterns:
        print("usage: python tests/golden.py NAME-OR-PATTERN...",
              file=sys.stderr)
        return 1
    manifest = load() if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = build(Path(tmp))
        every = {entry_name(run) for run in runs} | {SEEDED_JOIN}
        try:
            names = select(every | manifest.keys(), patterns)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        fresh = results(runs, names & every)
    save(rewrite(manifest, fresh, names))
    print("rewrote %d entries" % len(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
