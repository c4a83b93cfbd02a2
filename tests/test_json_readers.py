"""Every JSON reader against every way a valid file of its format can be broken.

Each reader starts from a valid file. Each key is deleted in turn; each value
is replaced by a JSON value of every other kind, and by 1e400, NaN and
10**400; the file is truncated; a 0xff byte is put first. Each change must
raise FormatError with a message that starts with the file's
path, and make the command that reads the file exit 1 with that message,
except the changes in LOADS, which leave a valid file.
"""

import copy
import json

import pytest

from leadlag.charts import FormatError
from leadlag.cli import main
from leadlag.exports import read_acyclicity_json, read_manifest, read_size_leadership_json
from leadlag.lagcorr import load_dyads
from leadlag.synth import load_hierarchy, load_synth_config

from helpers import cache_payload

DYADS = cache_payload(["a", "b"], leader=[0], follower=[1], lag=[1], correlation=[0.2], sizes=[2],
                      weeks=[0, 1], values=[0.1, 0.3])

GRAPH = ("graph", "--dyads", "{dir}/dyads.json", "--out", "{dir}/out")
REPORT = ("report", "--run-dir", "{dir}")
SYNTH = ("synth", "--hierarchy", "{dir}/hierarchy.json", "--config", "{dir}/config.json",
         "--out", "{dir}/out")

# name: (reader, file name, a valid file's payload, the command reading it)
READERS = {
    "dyads": (load_dyads, "dyads.json", DYADS, GRAPH),
    "acyclicity": (read_acyclicity_json, "acyclicity.json", {
        "total_weight": 2.0, "fas_weight": 0.5, "percent_removed": 25.0, "exact": True,
        "removed_edges": [{"follower": "b", "leader": "a", "weight": 0.5, "lag_weeks": 2}],
    }, REPORT),
    "size_leadership": (read_size_leadership_json, "size_leadership.json", {
        "spearman_pagerank": 0.5, "spearman_indegree": 0.4, "percent_weight_larger_leads": 60.0,
        "cities_used": ["a", "b"],
    }, REPORT),
    "manifest": (read_manifest, "manifest.json", {
        "created_at": "2026-01-01T00:00:00+00:00", "inputs": {}, "parameters": {"genre_id": "rock"},
        "tool_version": "0.1.0",
    }, REPORT),
    "hierarchy": (load_hierarchy, "hierarchy.json", {
        "cities": [{"city": "aa", "population": 500, "activity": 50.0},
                   {"city": "bb", "population": 400, "activity": 50.0}],
        "edges": [{"leader": "aa", "follower": "bb", "lag": 1, "coupling": 0.5}],
    }, SYNTH),
    "synth_config": (load_synth_config, "config.json", {
        "n_artists": 6, "n_weeks": 12, "noise_sigma": 0.05, "seed": 3, "step_scale": 0.1,
        "missing_weeks": [5, 7],
    }, SYNTH),
}

# One JSON value of each kind, then numbers that no double or no int64 holds.
KINDS = ["null", "true", "1", "1.5", '"x"', "[]", "{}"]
SPECIALS = {"1e400": "1e400", "NaN": "NaN", "10**400": "1" + "0" * 400}

# The changes that leave a valid file: optional keys deleted, and a run without a genre.
LOADS = {
    ("hierarchy", "edges deleted"),
    ("manifest", "parameters.genre_id deleted"),
    ("manifest", "parameters.genre_id=null"),
    *(("synth_config", f"{key} deleted")
      for key in ("n_weeks", "noise_sigma", "seed", "step_scale", "missing_weeks")),
}


def spots(value, at=()):
    """The path of every value inside a JSON object or array."""
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        yield at + (key,)
        if isinstance(item, (dict, list)):
            yield from spots(item, at + (key,))


def same_kind(old, new) -> bool:
    """Whether `new` is of `old`'s JSON kind; any number is of a float's."""
    return type(new) in ((int, float) if type(old) is float else (type(old),))


def changed(payload, at, text=None) -> str:
    """`payload` as JSON text with the value at `at` deleted, or replaced by `text`."""
    payload = copy.deepcopy(payload)
    *parents, key = at
    parent = payload
    for step in parents:
        parent = parent[step]
    if text is None:
        del parent[key]
        return json.dumps(payload)
    parent[key] = "\0spot\0"
    return json.dumps(payload).replace(json.dumps("\0spot\0"), text)


def changes(payload):
    """(id, file content) of every change to a valid file's `payload`."""
    text = json.dumps(payload)
    yield "truncated", text[: len(text) // 2]
    yield "0xff first", b"\xff" + text.encode()
    for at in spots(payload):
        name = ".".join(map(str, at))
        if isinstance(at[-1], str):
            yield f"{name} deleted", changed(payload, at)
        old = payload
        for step in at:
            old = old[step]
        for kind in KINDS:
            if not same_kind(old, json.loads(kind)):
                yield f"{name}={kind}", changed(payload, at, kind)
        for label, number in SPECIALS.items():
            yield f"{name}={label}", changed(payload, at, number)


CASES = [(reader, change, content) for reader, spec in READERS.items()
         for change, content in changes(spec[2])]


def write_run(directory, name=None, content=None):
    """Every reader's valid file in `directory`, but with `content` in `name`'s."""
    for reader, (_, file_name, payload, _) in READERS.items():
        text = content if reader == name else json.dumps(payload)
        (directory / file_name).write_bytes(text if isinstance(text, bytes) else text.encode())


def command(name, directory):
    return [arg.format(dir=directory) for arg in READERS[name][3]]


@pytest.mark.parametrize("name", READERS)
def test_valid_file_loads_and_runs(tmp_path, capsys, name):
    write_run(tmp_path)
    assert READERS[name][0](tmp_path / READERS[name][1])
    assert main(command(name, tmp_path)) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, content",
    [pytest.param(r, content, id=f"{r}: {change}") for r, change, content in CASES
     if (r, change) not in LOADS],
)
def test_broken_file_rejected_naming_it(tmp_path, capsys, name, content):
    reader, file_name, _, _ = READERS[name]
    write_run(tmp_path, name, content)
    path = tmp_path / file_name
    with pytest.raises(FormatError) as caught:
        reader(path)
    assert type(caught.value) is FormatError
    assert str(caught.value).startswith(f"{path}: ")
    assert main(command(name, tmp_path)) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "name, content",
    [pytest.param(r, content, id=f"{r}: {change}") for r, change, content in CASES
     if (r, change) in LOADS],
)
def test_change_that_keeps_the_file_valid_loads(tmp_path, capsys, name, content):
    write_run(tmp_path, name, content)
    assert READERS[name][0](tmp_path / READERS[name][1])
    assert main(command(name, tmp_path)) == 0
    capsys.readouterr()
