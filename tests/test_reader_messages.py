"""Every rejection of the input-file readers, pinned to its exact message.

One row per raise site: the reader, the file's text (or bytes) and the
message it must raise (`{path}` stands for the file), or None where the file
reads without error and gives an empty result. Every reader raises FormatError.
"""

import csv
import json

import pytest

from leadlag.charts import (
    ChartStore,
    FormatError,
    read_chart_csv,
    read_genre_catalog,
    read_missing_weeks,
)
from leadlag.exports import (
    read_acyclicity_json,
    read_edge_csv,
    read_manifest,
    read_populations,
    read_size_leadership_json,
)
from leadlag.lagcorr import load_dyads
from leadlag.synth import load_hierarchy, load_synth_config

from helpers import LAYOUT, cache_payload

CHART = "week,city,artist,listeners\n"
GENRE = "genre,rank,artist\n"
EDGE = "follower,leader,weight,lag_weeks\n"
POPULATION = "city,population\n"
CROWDED = CHART + "".join(f"0,c,a{i},1\n" for i in range(501))
# The scalars of an acyclicity report whose one removed edge is EDGE_RECORD.
ACYCLICITY = '{"total_weight": 1.0, "fas_weight": 0.5, "percent_removed": 50.0, "exact": true'
EDGE_RECORD = '{"follower": "b", "leader": "a", "weight": 0.5, "lag_weeks": 2}'
SIZE = '{"spearman_pagerank": 0.5, "spearman_indegree": 0.5, "percent_weight_larger_leads": 50.0}'
MANIFEST = '{"created_at": "", "inputs": {}, "tool_version": "0.1.0", "parameters": '
CITY = '{"cities": [{"city": "aa", "activity": 1.0'
# A field one character over csv's limit, and the rejection of a row holding it.
LONG = "a" * (csv.field_size_limit() + 1)
OVER_LIMIT = f"{{path}}:2: field larger than field limit ({csv.field_size_limit()})"
INT64_MAX = 2**63 - 1


def removed(*edges, scalars=ACYCLICITY):
    """An acyclicity report of `scalars` whose removed edges are `edges`."""
    return scalars + ', "removed_edges": [' + ", ".join(edges) + "]}"


def dyads(cities=("a", "b"), rows=1, **columns):
    """A dyad cache over `cities` of `rows` copies of the dyad b -> a at lag 1 over
    the samples [0.1, 0.3] at weeks [0, 1], with `columns` replaced (None drops one)."""
    table = {"leader": [0], "follower": [1], "lag": [1], "correlation": [0.2], "sizes": [2],
             "weeks": [0, 1], "values": [0.1, 0.3]}
    table = {name: items * rows for name, items in table.items()} | columns
    return json.dumps(cache_payload(cities, **{k: v for k, v in table.items() if v is not None}))


def hierarchy(cities=(("aa", 5, 1.0), ("bb", 4, 1.0)), edges=()):
    """A hierarchy JSON of (city, population, activity) and (leader, follower, lag, coupling)."""
    return json.dumps({
        "cities": [dict(zip(("city", "population", "activity"), c)) for c in cities],
        "edges": [dict(zip(("leader", "follower", "lag", "coupling"), e)) for e in edges],
    })

UNDECODABLE = "{path}: not UTF-8 text"


def over_limit(reader, header):
    """A case of `reader` on a file whose one row after `header` has a field over csv's limit."""
    fields = header.count(",") + 1
    text = header + ",".join([LONG] + ["1"] * (fields - 1)) + "\n"
    return pytest.param(reader, text, OVER_LIMIT, id=f"{reader.__name__}-field-over-limit")


CASES = [
    (read_missing_weeks, "", None),
    (read_missing_weeks, "\n  \n", None),
    (read_missing_weeks, "3\n\nx y\n", "{path}:3: expected a week index, got 'x y'"),
    (read_missing_weeks, "1.5\n", "{path}:1: expected a week index, got '1.5'"),
    (read_missing_weeks, "2\n-1\n", "{path}:2: negative week index -1"),
    (read_genre_catalog, "", "{path}:1: expected header genre,rank,artist"),
    (read_genre_catalog, "\n" + GENRE, "{path}:1: expected header genre,rank,artist"),
    (read_genre_catalog, "genre,rank\n", "{path}:1: expected header genre,rank,artist"),
    (read_genre_catalog, GENRE + "\nrock,1\n", "{path}:3: expected 3 fields, got 2"),
    (read_genre_catalog, GENRE + "rock,1,a,b\n", "{path}:2: expected 3 fields, got 4"),
    (read_genre_catalog, GENRE + "rock,one,a\n", "{path}:2: bad rank 'one'"),
    (read_genre_catalog, GENRE + "rock,0,a\n", "{path}:2: rank 0 outside 1..1000"),
    (read_genre_catalog, GENRE + "rock,1001,a\n", "{path}:2: rank 1001 outside 1..1000"),
    (read_genre_catalog, GENRE + "rock,1,a\nrock,1,b\n",
     "{path}:3: duplicate rank 1 for genre 'rock'"),
    (read_genre_catalog, GENRE + "rock,1,a\nrock,2,a\n",
     "{path}:3: genre 'rock' lists artist 'a' twice"),
    (read_genre_catalog, GENRE + ",1,\n", "{path}:2: empty genre or artist id"),
    over_limit(read_genre_catalog, GENRE),
    (read_chart_csv, "", None),
    (read_chart_csv, CHART, None),
    (read_chart_csv, "\n", "{path}:1: expected header week,city,artist,listeners"),
    (read_chart_csv, "week,city,artist\n", "{path}:1: expected header week,city,artist,listeners"),
    (read_chart_csv, CHART + "\n0,c,a\n", "{path}:3: expected 4 fields, got 3"),
    (read_chart_csv, CHART + "0,c,a,1,2\n", "{path}:2: expected 4 fields, got 5"),
    (read_chart_csv, CHART + "w0,c,a,1\n", "{path}:2: bad week 'w0'"),
    (read_chart_csv, CHART + "-1,c,a,1\n", "{path}:2: negative week index -1"),
    (read_chart_csv, CHART + f"{INT64_MAX + 1},c,a,1\n",
     f"{{path}}:2: week index must be at most {INT64_MAX}, got {INT64_MAX + 1}"),
    (read_chart_csv, CHART + "0,,a,1\n", "{path}:2: empty city or artist id"),
    (read_chart_csv, CHART + "0,c,,1\n", "{path}:2: empty city or artist id"),
    (read_chart_csv, CHART + "0,c,a,many\n", "{path}:2: bad listener count 'many'"),
    (read_chart_csv, CHART + "0,c,a,0\n", "{path}:2: listener count must be positive, got 0"),
    (read_chart_csv, CHART + f"0,c,a,{INT64_MAX + 1}\n",
     f"{{path}}:2: listener count must be at most {INT64_MAX}, got {INT64_MAX + 1}"),
    (read_chart_csv, CHART + "0,c,a,1\n0,c,a,2\n",
     "{path}:3: duplicate entry for week 0, city 'c', artist 'a'"),
    (read_chart_csv, CHART + '0,c,"a\nb",1\n0,c,x,zz\n', "{path}:4: bad listener count 'zz'"),
    (read_chart_csv, CROWDED, "{path}: week 0, city 'c' has 501 entries, cap is 500"),
    over_limit(read_chart_csv, CHART),
    (read_edge_csv, "", "{path}:1: expected header follower,leader,weight,lag_weeks"),
    (read_edge_csv, "leader,follower,weight,lag_weeks\n",
     "{path}:1: expected header follower,leader,weight,lag_weeks"),
    (read_edge_csv, EDGE + "\nb,a,0.5\n", "{path}:3: expected 4 fields, got 3"),
    (read_edge_csv, EDGE + ",a,0.5,2\n", "{path}:2: empty city id"),
    (read_edge_csv, EDGE + "b,,0.5,2\n", "{path}:2: empty city id"),
    (read_edge_csv, EDGE + "b,a,0.5,2\nb,a,0.5,2\n", "{path}:3: duplicate edge 'b' -> 'a'"),
    (read_edge_csv, EDGE + "b,b,0.5,2\n", "{path}:2: self-loop on 'b'"),
    (read_edge_csv, EDGE + "b,a,heavy,2\n", "{path}:2: bad weight 'heavy'"),
    (read_edge_csv, EDGE + "b,a,nan,2\n",
     "{path}:2: weight must be finite and positive, got 'nan'"),
    (read_edge_csv, EDGE + "b,a,-0.25,2\n",
     "{path}:2: weight must be finite and positive, got '-0.25'"),
    (read_edge_csv, EDGE + "b,a,0.5,2.0\n", "{path}:2: bad lag '2.0'"),
    (read_edge_csv, EDGE + "b,a,0.5,6\n", "{path}:2: lag must be in 1..5, got 6"),
    over_limit(read_edge_csv, EDGE),
    (read_populations, "", "{path}:1: expected header city,population"),
    (read_populations, "town,people\n", "{path}:1: expected header city,population"),
    (read_populations, POPULATION + "\nx\n", "{path}:3: expected 2 fields, got 1"),
    (read_populations, POPULATION + ",10\n", "{path}:2: empty city id"),
    (read_populations, POPULATION + "x,10\nx,20\n", "{path}:3: duplicate city 'x'"),
    (read_populations, POPULATION + "x,lots\n", "{path}:2: bad population 'lots'"),
    (read_populations, POPULATION + "x,0\n", "{path}:2: population must be positive, got 0"),
    (read_populations, POPULATION + f"x,{INT64_MAX}\ny,{INT64_MAX + 1}\n",
     f"{{path}}:3: population must be at most {INT64_MAX}, got {INT64_MAX + 1}"),
    over_limit(read_populations, POPULATION),
    (read_acyclicity_json, "[]", "{path}: expected a JSON object"),
    (read_acyclicity_json, "{}", "{path}: missing 'total_weight'"),
    (read_acyclicity_json, ACYCLICITY + "}", "{path}: missing 'removed_edges'"),
    (read_acyclicity_json, ACYCLICITY + ', "removed_edges": [{"follower": "b"}]}',
     "{path}: removed_edges: 0: missing 'leader'"),
    (read_acyclicity_json, ACYCLICITY.replace("true", '"no"') + ', "removed_edges": []}',
     "{path}: exact: expected true or false, got 'no'"),
    (read_acyclicity_json, ACYCLICITY.replace("true", "1") + ', "removed_edges": []}',
     "{path}: exact: expected true or false, got 1"),
    (read_acyclicity_json, ACYCLICITY.replace("1.0", '"x"') + ', "removed_edges": []}',
     "{path}: total_weight: expected a number, got 'x'"),
    (read_acyclicity_json, ACYCLICITY.replace('"fas_weight": 0.5', '"fas_weight": false')
     + ', "removed_edges": []}', "{path}: fas_weight: expected a number, got False"),
    (read_acyclicity_json, ACYCLICITY.replace('"percent_removed": 50.0', '"percent_removed": "0"')
     + ', "removed_edges": []}', "{path}: percent_removed: expected a number, got '0'"),
    (read_acyclicity_json, ACYCLICITY + ', "removed_edges": [' + EDGE_RECORD.replace("0.5", '"0.5"')
     + "]}", "{path}: removed_edges: 0: weight: expected a number, got '0.5'"),
    (read_acyclicity_json, ACYCLICITY + ', "removed_edges": [' + EDGE_RECORD.replace("2}", "2.0}")
     + "]}", "{path}: removed_edges: 0: lag_weeks: expected an integer, got 2.0"),
    (read_acyclicity_json, ACYCLICITY + ', "removed_edges": [' + EDGE_RECORD.replace("2}", "true}")
     + "]}", "{path}: removed_edges: 0: lag_weeks: expected an integer, got True"),
    (read_size_leadership_json, '"size"', "{path}: expected a JSON object"),
    (read_size_leadership_json, SIZE.replace("0.5", "true", 1)[:-1] + ', "cities_used": []}',
     "{path}: spearman_pagerank: expected a number, got True"),
    (read_size_leadership_json, SIZE.replace("50.0", '"50"')[:-1] + ', "cities_used": []}',
     "{path}: percent_weight_larger_leads: expected a number, got '50'"),
    (read_size_leadership_json, SIZE, "{path}: missing 'cities_used'"),
    (read_manifest, "{}", "{path}: missing 'created_at'"),
    (read_manifest, '{"created_at": "", "inputs": {}, "parameters": {}}',
     "{path}: missing 'tool_version'"),
    (read_manifest, MANIFEST + "[]}", "{path}: parameters: expected a JSON object, got []"),
    (read_manifest, MANIFEST + '{"genre_id": 5}}', "{path}: parameters: genre_id: expected a string, got 5"),
    (read_manifest, b"\xff" + MANIFEST.encode() + b"{}}", UNDECODABLE),
    (read_acyclicity_json, "not json", "{path}: not JSON: Expecting value: line 1 column 1 (char 0)"),
    (read_acyclicity_json, ACYCLICITY + ', "removed_edges": 5}',
     "{path}: removed_edges: expected a list, got 5"),
    (read_acyclicity_json, ACYCLICITY + ', "removed_edges": [' + EDGE_RECORD.replace('"b"', "1")
     + "]}", "{path}: removed_edges: 0: follower: expected a string, got 1"),
    (read_acyclicity_json, ACYCLICITY.replace("1.0", "1e400") + ', "removed_edges": []}',
     "{path}: total_weight: expected a finite number, got inf"),
    (read_size_leadership_json, SIZE[:-1] + ', "cities_used": 3}',
     "{path}: cities_used: expected a list, got 3"),
    (load_dyads, "not json", "{path}: not JSON: Expecting value: line 1 column 1 (char 0)"),
    (load_dyads, "[]", "{path}: expected a JSON object"),
    (load_dyads, dyads(lag=None), "{path}: " + LAYOUT),
    (load_dyads, dyads(correlation=[float("inf")]),
     "{path}: dyad 'b' -> 'a' has correlation inf, not a finite number"),
    (load_dyads, dyads(correlation=[float("nan")]),
     "{path}: dyad 'b' -> 'a' has correlation nan, not a finite number"),
    (load_dyads, b"\xff{}", UNDECODABLE),
    (load_dyads, dyads(cities=("a", "b", "b")),
     "{path}: city 'b' appears twice in the cache's city list, which must be sorted"),
    (load_dyads, dyads(cities=("b", "a")),
     "{path}: city 'a' is out of order in the cache's city list, which must be sorted"),
    (load_dyads, dyads(rows=2), "{path}: dyad 'b' -> 'a' appears twice"),
    (load_dyads, dyads(rows=2, leader=[1, 0], follower=[0, 1]),
     "{path}: dyad 'b' -> 'a' is out of (leader, follower) order"),
    (load_dyads, dyads(follower=[2]), "{path}: dyad 0 names a city outside the city list"),
    (load_dyads, dyads(rows=2, follower=[1, -1]),
     "{path}: dyad 1 names a city outside the city list"),
    (load_dyads, dyads(sizes=[]), "{path}: the columns of one item per dyad differ in length"),
    (load_dyads, dyads().replace('"lag": "AQAAAAAAAAA="', '"lag": 5'),
     "{path}: lag: expected a string, got 5"),
    # Counts that sum to the columns' length only past the int64 limit.
    (load_dyads, dyads(rows=5, sizes=[2**62] * 4 + [2], weeks=[0, 1], values=[0.1, 0.3]),
     "{path}: the dyads' sample counts do not sum to the length of the weeks and values columns"),
    # Counts that sum to the columns' length through a negative one.
    (load_dyads, dyads(rows=2, leader=[0, 1], follower=[1, 0], sizes=[3, -1], weeks=[0, 1],
                       values=[0.1, 0.3]),
     "{path}: dyad 'a' -> 'b' has -1 samples, fewer than 2"),
    (read_acyclicity_json, removed(EDGE_RECORD.replace('"a"', '"b"')),
     "{path}: removed_edges: 0: self-loop on 'b'"),
    (read_acyclicity_json, removed(EDGE_RECORD, EDGE_RECORD),
     "{path}: removed_edges: 1: duplicate edge 'b' -> 'a'"),
    (read_acyclicity_json, removed(EDGE_RECORD.replace("0.5", "-1.0")),
     "{path}: removed_edges: 0: weight must be finite and positive, got -1.0"),
    (read_acyclicity_json, removed(EDGE_RECORD.replace("0.5", "0")),
     "{path}: removed_edges: 0: weight must be finite and positive, got 0.0"),
    (read_acyclicity_json, removed(EDGE_RECORD.replace("2}", "9}")),
     "{path}: removed_edges: 0: lag must be in 1..5, got 9"),
    (read_acyclicity_json, removed(EDGE_RECORD.replace("2}", "0}")),
     "{path}: removed_edges: 0: lag must be in 1..5, got 0"),
    (read_acyclicity_json, removed(scalars=ACYCLICITY.replace("fas_weight\": 0.5", "fas_weight\": 2")),
     "{path}: fas_weight 2.0 is outside [0, total_weight 1.0]"),
    (read_acyclicity_json, removed(scalars=ACYCLICITY.replace("fas_weight\": 0.5", "fas_weight\": -1")),
     "{path}: fas_weight -1.0 is outside [0, total_weight 1.0]"),
    (read_acyclicity_json, removed(scalars=ACYCLICITY.replace("removed\": 50.0", "removed\": 250")),
     "{path}: percent_removed 250.0 is outside [0, 100]"),
    (read_acyclicity_json, removed(scalars=ACYCLICITY.replace("removed\": 50.0", "removed\": -1")),
     "{path}: percent_removed -1.0 is outside [0, 100]"),
    (read_acyclicity_json, removed(EDGE_RECORD, scalars=ACYCLICITY.replace("0.5", "0.0").replace(
        "50.0", "0.0")), "{path}: fas_weight 0.0 is not the sum of the removed edges' weights, 0.5"),
    (read_acyclicity_json, removed(),
     "{path}: fas_weight 0.5 is not the sum of the removed edges' weights, 0.0"),
    (read_acyclicity_json, removed(EDGE_RECORD, scalars=ACYCLICITY.replace("50.0", "40.0")),
     "{path}: percent_removed 40.0 is not 100 * fas_weight / total_weight, 50.0"),
    (read_acyclicity_json, removed(scalars=ACYCLICITY.replace("1.0", "0.0").replace("0.5", "0.0")),
     "{path}: percent_removed 50.0 is not 100 * fas_weight / total_weight, 0.0"),
    (read_size_leadership_json, SIZE.replace("0.5", "7", 1)[:-1] + ', "cities_used": []}',
     "{path}: spearman_pagerank 7.0 is outside [-1, 1]"),
    (read_size_leadership_json, SIZE.replace('indegree": 0.5', 'indegree": -1.5')[:-1]
     + ', "cities_used": []}', "{path}: spearman_indegree -1.5 is outside [-1, 1]"),
    (read_size_leadership_json, SIZE.replace("50.0", "250")[:-1] + ', "cities_used": []}',
     "{path}: percent_weight_larger_leads 250.0 is outside [0, 100]"),
    (read_size_leadership_json, SIZE.replace("50.0", "-0.5")[:-1] + ', "cities_used": []}',
     "{path}: percent_weight_larger_leads -0.5 is outside [0, 100]"),
    (read_size_leadership_json, SIZE[:-1] + ', "cities_used": ["a", "b", "a"]}',
     "{path}: cities_used lists 'a' twice"),
    (load_hierarchy, hierarchy(cities=[("", 5, 1.0)]), "{path}: city_id must be non-empty"),
    (load_hierarchy, hierarchy(cities=[("aa", 0, 1.0)]), "{path}: population must be positive, got 0"),
    (load_hierarchy, hierarchy(cities=[("aa", 5, 0.0)]), "{path}: activity must be positive, got 0.0"),
    (load_hierarchy, hierarchy(edges=[("aa", "aa", 1, 0.5)]),
     "{path}: self-influence is not allowed: 'aa'"),
    (load_hierarchy, hierarchy(edges=[("aa", "bb", 9, 0.5)]),
     "{path}: lag_weeks must be in [1, 5], got 9"),
    (load_hierarchy, hierarchy(edges=[("aa", "bb", 1, 1.5)]),
     "{path}: coupling must be in (0, 1], got 1.5"),
    (load_hierarchy, hierarchy(cities=[("aa", 5, 1.0)] * 2), "{path}: duplicate city ids in hierarchy"),
    (load_hierarchy, hierarchy(edges=[("aa", "zz", 1, 0.5)]),
     "{path}: edge references unknown city 'zz'"),
    (load_hierarchy, hierarchy(edges=[("aa", "bb", 1, 0.5), ("aa", "bb", 2, 0.5)]),
     "{path}: duplicate planted edge ('aa', 'bb')"),
    (load_hierarchy, hierarchy(edges=[("aa", "bb", 1, 0.5), ("bb", "aa", 1, 0.5)]),
     "{path}: planted edges contain a cycle"),
    (load_synth_config, '{"n_artists": 0}', "{path}: n_artists must be positive, got 0"),
    (load_synth_config, '{"n_artists": 5, "n_weeks": 0}', "{path}: n_weeks must be positive, got 0"),
    (load_synth_config, '{"n_artists": 5, "noise_sigma": -0.5}',
     "{path}: noise_sigma must be non-negative, got -0.5"),
    (load_synth_config, '{"n_artists": 5, "step_scale": -0.5}',
     "{path}: step_scale must be non-negative, got -0.5"),
    (load_synth_config, '{"n_artists": 5, "seed": -1}', "{path}: seed must be non-negative, got -1"),
    (load_synth_config, '{"n_artists": 5, "n_weeks": 12, "missing_weeks": [12]}',
     "{path}: missing week 12 outside [0, 12)"),
    (load_hierarchy, '{"cities": 5}', "{path}: cities: expected a list, got 5"),
    (load_hierarchy, CITY + "}]}", "{path}: cities: 0: missing 'population'"),
    (load_hierarchy, CITY + ', "population": 1e400}]}',
     "{path}: cities: 0: population: expected an integer, got inf"),
    (read_missing_weeks, b"1\n\xff\n", UNDECODABLE),
    (read_genre_catalog, GENRE.encode() + b"rock,1,\xff\n", UNDECODABLE),
    (read_chart_csv, b"\xff" + CHART.encode(), UNDECODABLE),
    (ChartStore.from_files, CHART.encode() + b"0,c,\xff,1\n", UNDECODABLE),
    (read_edge_csv, EDGE.encode() + b"b,\xff,0.5,2\n", UNDECODABLE),
    (read_populations, (POPULATION + "".join(f"c{i},10\n" for i in range(2000))).encode()
     + b"\xff,10\n", UNDECODABLE),
]


@pytest.mark.parametrize("reader, text, message", CASES)
def test_reader_message(tmp_path, reader, text, message):
    path = tmp_path / "input"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8", newline="")
    if message is None:
        assert not list(reader(path))
        return
    with pytest.raises(FormatError) as caught:
        reader(path)
    assert type(caught.value) is FormatError
    assert str(caught.value) == message.format(path=path)
