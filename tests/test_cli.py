import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zipzeta import (CosetTables, ExtWeylGroup, ZetaProduct, ZipDatum,
                     classify, weyl, zeta_from_strata)
from zipzeta.cli import (MAX_COUNT_DEGREE, MAX_SERIES_ORDER, _write_json,
                         main, parse_config)
from zipzeta.zipstrata import FACTOR_LIMIT

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
O4 = str(CONFIGS / "o4.json")
GL21 = str(CONFIGS / "gl-2-1.json")
BT212 = str(CONFIGS / "bt-2-1-2.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_strata_command(capsys):
    doc = run_json(capsys, ["strata", O4])
    assert doc["schema"] == 1 and doc["kind"] == "strata"
    assert doc["twist"] == {"J": [1], "w1_word": [2], "w2_word": [2]}
    assert doc["flag_dim"] == 1
    assert doc["config"]["q0"] == 2
    assert doc["config"]["parabolic_type"] == [1]
    assert len(doc["minimal_set"]) == 4
    row = doc["minimal_set"][3]
    assert row == {
        "weyl_word": [2], "omega": "sigma", "conjugated_word": [1],
        "double_min_word": [], "parabolic_word": [1], "length": 1,
    }
    assert [(r["aut_dim"], r["degree"]) for r in doc["strata"]] == \
        [(0, 1), (0, 1), (1, 1), (1, 1)]


def test_zeta_symbolic_with_series(capsys):
    doc = run_json(capsys, ["zeta", O4, "--series", "2"])
    assert doc["display"] == "1/((1 - t)^2 (1 - q^-1 t)^2)"
    assert doc["q"] is None
    assert doc["factors"] == [
        {"aut_dim": 0, "degree": 1, "multiplicity": 2},
        {"aut_dim": 1, "degree": 1, "multiplicity": 2},
    ]
    assert doc["series"] == [
        {"0": "1"},
        {"-1": "2", "0": "2"},
        {"-1": "4", "-2": "3", "0": "3"},
    ]


def test_zeta_numeric(capsys):
    doc = run_json(capsys, ["zeta", O4, "--q", "2", "--series", "2"])
    assert doc["display"] == "1/((1 - t)^2 (1 - t/2)^2)"
    assert doc["series"] == ["1", "3", "23/4"]


def test_count_command(capsys):
    doc = run_json(capsys, ["count", O4, "--v", "2", "--q", "2"])
    assert doc["values"] == [
        {"v": 1, "count": "3"},
        {"v": 2, "count": "5/2"},
    ]
    sym = run_json(capsys, ["count", O4, "--v", "1"])
    assert sym["values"] == [{"v": 1, "count": {"-1": "2", "0": "2"}}]


def test_bt_command(capsys):
    doc = run_json(capsys, ["bt", "--h", "2", "--d", "1", "--p", "2"])
    assert doc["display"] == "1/((1 - t) (1 - t/2))"
    assert doc["q"] == 2
    assert (doc["h"], doc["d"], doc["p"], doc["n"]) == (2, 1, 2, 1)
    assert doc["strata"] == [
        {"length": 1, "aut_dim": 0},
        {"length": 0, "aut_dim": 1},
    ]
    from_config = run_json(capsys, ["bt", BT212])
    assert from_config == doc


def test_bt_cap_bounds_the_strata_count(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, ["bt", "--h", "20", "--d", "10",
                                  "--p", "2"])
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert "184756" in err and "100000" in err
    doc = run_json(capsys, ["bt", "--h", "10", "--d", "5", "--p", "2"])
    assert len(doc["strata"]) == 252


def test_bt_root_cap_is_predicted(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, ["bt", "--h", "151", "--d", "1",
                                  "--p", "2"])
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("error: the root system has at least 11325 positive "
                   "roots, over the cap of 10000\n")


@pytest.mark.parametrize("command", [["zeta"], ["count", "--v", "1"]])
def test_split_data_over_the_cap_are_still_refused(command, tmp_path,
                                                   capsys):
    cfg = tmp_path / "a8.json"
    cfg.write_text(json.dumps({
        "cartan": [[2 if i == j else -1 if abs(i - j) == 1 else 0
                    for j in range(8)] for i in range(8)],
        "I": []}))
    code, out, err = run(capsys, [command[0], str(cfg), *command[1:]])
    assert code == 2 and out == ""
    assert "362880" in err and "100000" in err


def test_huge_characteristic_is_refused_quickly(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, ["bt", "--h", "2", "--d", "1",
                                  "--p", str(10 ** 18 + 3)])
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert str(FACTOR_LIMIT) in err


def test_oracle_command(capsys):
    doc = run_json(capsys, ["oracle", "--h", "2", "--d", "1", "--p", "2"])
    assert doc["ok"] is True
    assert doc["predicted"] == doc["observed"] == "3/2"
    assert doc["candidate_count"] == 9
    assert doc["group_order"] == 6
    assert sorted((c["orbit_size"], c["aut_count"])
                  for c in doc["classes"]) == [(3, 2), (6, 1)]


def test_oracle_from_config(capsys):
    doc = run_json(capsys, ["oracle", BT212, "--k", "2"])
    assert doc["ok"] is True
    assert doc["observed"] == "5/4"


def test_parse_failures_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"cartan": [[2]], "I": [], "zz": 1}))
    schemas = []
    for value in (2, True, 1.0):
        schemas.append(tmp_path / f"schema-{value}.json")
        schemas[-1].write_text(json.dumps(
            {"schema": value, "cartan": [[2]], "I": []}))
    cases = [
        ["strata", str(tmp_path / "missing.json")],
        ["strata", str(bad_json)],
        ["strata", str(unknown)],
        *(["strata", str(schema)] for schema in schemas),
        ["strata", BT212],
        ["zeta", BT212],
        ["bt", O4],
        ["bt", "--h", "2", "--d", "1"],
        ["bt", "--h", "2", "--d", "5", "--p", "2"],
        ["oracle", "--h", "2", "--d", "1", "--p", "4"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")
        assert out == ""


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the range check")


@pytest.mark.parametrize("argv", [
    ["zeta", O4, "--series", "-1"],
    ["zeta", O4, "--q", "2", "--series", str(MAX_SERIES_ORDER + 1)],
    ["bt", "--h", "2", "--d", "1", "--p", "2", "--series", "-2"],
    ["bt", BT212, "--series", str(MAX_SERIES_ORDER + 1)],
    ["count", O4, "--v", "0"],
    ["count", O4, "--v", "-2"],
    ["count", O4, "--v", str(MAX_COUNT_DEGREE + 1)],
    ["zeta", O4, "--series", "1", "--q", "0"],
    ["count", O4, "--v", "1", "--q", "1"],
    ["zeta", O4, "--q", "-3"],
])
def test_out_of_range_series_and_degree_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr("zipzeta.cli.parse_config", _no_work)
    monkeypatch.setattr("zipzeta.cli.zeta_function", _no_work)
    monkeypatch.setattr("zipzeta.cli.bt_zeta", _no_work)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    flag, value = argv[-2:]
    bound = "be at least 2" if flag == "--q" else "lie between "
    assert err.startswith(f"error: {flag} must {bound}")
    assert err.endswith(f"got {value}\n")


def test_series_and_degree_caps_are_admitted(capsys):
    doc = run_json(capsys, ["bt", "--h", "2", "--d", "1", "--p", "2",
                            "--series", str(MAX_SERIES_ORDER)])
    assert len(doc["series"]) == MAX_SERIES_ORDER + 1
    doc = run_json(capsys, ["zeta", O4, "--series", "0"])
    assert doc["series"] == [{"0": "1"}]
    doc = run_json(capsys, ["count", O4, "--v", str(MAX_COUNT_DEGREE)])
    assert [r["v"] for r in doc["values"]] == \
        list(range(1, MAX_COUNT_DEGREE + 1))


@pytest.mark.parametrize("doc,message", [
    ({"h": True, "d": False, "p": 2}, "height must be a positive integer"),
    ({"h": 2, "d": True, "p": 2},
     "dimension must lie between 0 and the height"),
    ({"h": 2, "d": 1, "p": 2, "n": True},
     "truncation level must be a positive integer"),
])
def test_bt_config_rejects_booleans(doc, message, tmp_path, capsys):
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["bt", str(cfg)])
    assert code == 2 and out == ""
    assert err == f"error: config: {message}\n"


@pytest.mark.parametrize("argv", [
    ["bt", BT212, "--h", "3"],
    ["oracle", BT212, "--p", "3"],
])
def test_config_with_bt_flags_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr("zipzeta.cli.parse_config", _no_work)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[-2]} cannot be given with a config file\n"


def test_validation_failure_exit_2(tmp_path, capsys):
    cfg = tmp_path / "movedI.json"
    cfg.write_text(json.dumps({
        "cartan": [[2, -1], [-1, 2]], "I": [1],
        "phi0": {"diagram_perm": [2, 1]},
    }))
    code, out, err = run(capsys, ["strata", str(cfg)])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("exc", [TypeError("unhashable type: 'list'"),
                                 KeyError("diagram_action")])
def test_malformed_values_exit_2(exc, monkeypatch, capsys):
    """A TypeError or KeyError from ZipDatum on a config that passed the
    shape checks is reported as a malformed value, not a traceback."""
    def raise_exc(*args, **kwargs):
        raise exc

    monkeypatch.setattr("zipzeta.cli.ZipDatum", raise_exc)
    code, out, err = run(capsys, ["zeta", O4])
    assert code == 2 and out == ""
    assert err == f"error: config: malformed value ({exc})\n"


def test_split_zeta_builds_each_poincare_polynomial_once(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    """ZipDatum and zeta_function both read W^I(q); the tables build it
    once, from the degrees of W and of W_I alone."""
    cfg = tmp_path / "a3.json"
    cfg.write_text(json.dumps({"cartan": [[2, -1, 0], [-1, 2, -1],
                                          [0, -1, 2]], "I": [1, 3]}))
    calls = []
    real = weyl.degrees

    def counted(cartan, nodes=None):
        calls.append(real(cartan, nodes))
        return calls[-1]

    monkeypatch.setattr(weyl, "degrees", counted)
    doc = run_json(capsys, ["zeta", str(cfg)])
    assert doc["factors"]
    # One call for the degrees of A3, one for those of W_I, I = {1, 3},
    # which is A1 x A1.
    assert calls == [[2, 3, 4], [2, 2]]


LAZY_ROUTE_ARGS = [
    pytest.param([cmd, str(CONFIGS / config), *rest],
                 id=" ".join([cmd, config, *rest]))
    for config in ("gl-2-1.json", "gl-3-1.json", "o4.json")
    for cmd, *rest in (["zeta"], ["count", "--v", "3"])]
LAZY_ROUTE_ARGS += [
    pytest.param(["bt", BT212], id="bt bt-2-1-2.json"),
    pytest.param(["bt", "--h", "141", "--d", "1", "--p", "2"],
                 id="bt --h 141 --d 1 --p 2")]


@pytest.mark.parametrize("argv", LAZY_ROUTE_ARGS)
def test_split_commands_never_close_the_roots(argv, monkeypatch, capsys):
    """Split zeta, count and bt read W^I(q) and flag_dim off the degrees:
    they build no root, and no reflection."""
    closed = run(capsys, argv)
    assert closed[0] == 0, closed[2]

    def closure_must_not_run(*args):
        raise AssertionError("a root was reflected")

    monkeypatch.setattr("zipzeta.rootsystem._reflect_coords",
                        closure_must_not_run)
    assert run(capsys, argv) == closed


def test_mismatch_exit_3(monkeypatch, capsys):
    monkeypatch.setattr("zipzeta.btgl.bt_zeta",
                        lambda params: ZetaProduct({(0, 1): 999}))
    code, out, err = run(capsys, ["oracle", "--h", "2", "--d", "1",
                                  "--p", "2"])
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["predicted"] == "999"
    assert doc["observed"] == "3/2"
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_output_is_deterministic(capsys):
    first = run(capsys, ["strata", O4])
    second = run(capsys, ["strata", O4])
    assert first == second
    assert run(capsys, ["zeta", GL21, "--series", "3"]) == \
        run(capsys, ["zeta", GL21, "--series", "3"])


def test_factors_round_trip(capsys):
    doc = run_json(capsys, ["zeta", O4])
    rebuilt = ZetaProduct({(f["aut_dim"], f["degree"]): f["multiplicity"]
                           for f in doc["factors"]})
    datum = ZipDatum(
        [[2, 0], [0, 2]], [1],
        omega={"elements": ["1", "sigma"], "table": [[0, 1], [1, 0]],
               "diagram_action": {"1": [1, 2], "sigma": [2, 1]}},
        theta=["1"])
    assert rebuilt == zeta_from_strata(classify(datum))


def test_pretty_rendering(capsys):
    code, out, err = run(capsys, ["--pretty", "strata", O4])
    assert code == 0
    assert out.startswith("kind: strata")
    assert "J = [1]" in out
    code, out, err = run(capsys, ["--pretty", "oracle", "--h", "2",
                                  "--d", "1", "--p", "2"])
    assert code == 0
    assert "ok = True" in out
    code, out, err = run(capsys, ["--pretty", "zeta", O4, "--series", "2"])
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == [
        "zeta = 1/((1 - t)^2 (1 - q^-1 t)^2)",
        "series = [{'0': '1'}, {'-1': '2', '0': '2'}, "
        "{'-2': '3', '-1': '4', '0': '3'}]"]


def written(value):
    """What _write_json writes for value, collected from its parts."""
    stream = io.StringIO()
    _write_json(value, stream)
    return stream.getvalue()


def dumped(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# Keys that sort differently as strings and as numbers, and strings that
# need escapes: quotes, backslashes, control characters, non-ASCII and
# characters outside the basic plane.
JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(-12, 12).map(str))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-300, 300),
    st.integers(min_value=2 ** 64), st.integers(max_value=-2 ** 64),
    st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x1F), max_size=3))
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(JSON_KEYS, inner, max_size=5)),
    max_leaves=40)


@settings(deadline=None)
@given(JSON_TREES)
@example({"-3": [], "10": {}, "2": [[], {}, ()]})
@example([1, True, 0, False, None, -2 ** 70, 2 ** 70])
@example({"\u00e9\x00\n\"\\": "\U0001f600\ud800\x1f\t", "": [-1, 0, 2 ** 64]})
def test_json_text_matches_json_dumps(tree):
    assert written(tree) == dumped(tree)


@pytest.mark.parametrize("value", [
    1.5, {1: "a"}, {"a": {2: 3}}, {"a": [float("nan")]}, {1, 2}, b"x",
    object(),
])
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        written(value)


# Row lists as the strata command writes them: dicts with one key set,
# whose words are shared objects.  The pool mixes lists and tuples whose
# values compare equal across types, (1, 0) and (True, False), so a cache
# keyed by value would mix them up.
SHARED_WORDS = st.lists(st.one_of(
    st.lists(st.integers(-3, 3), max_size=4),
    st.lists(st.integers(-3, 3), max_size=4).map(tuple),
    st.lists(st.booleans(), max_size=3).map(tuple),
    st.lists(st.sampled_from([2 ** 64, -2 ** 64, 0]), max_size=2)),
    min_size=1, max_size=4)


@st.composite
def row_lists(draw):
    keys = draw(st.lists(JSON_KEYS, min_size=1, max_size=5, unique=True))
    pool = draw(SHARED_WORDS)
    values = st.one_of(JSON_LEAVES, st.sampled_from(pool), JSON_TREES)
    rows = [{key: draw(values) for key in keys}
            for _ in range(draw(st.integers(2, 6)))]
    # One row may break the shared key set.
    flaw = draw(st.sampled_from([None, "lacks a key", "has an extra key",
                                 "is not a dict"]))
    if flaw is not None:
        i = draw(st.integers(0, len(rows) - 1))
        if flaw == "lacks a key":
            del rows[i][draw(st.sampled_from(keys))]
        elif flaw == "has an extra key":
            extra = draw(JSON_KEYS.filter(lambda k: k not in keys))
            rows[i][extra] = draw(values)
        else:
            rows[i] = draw(st.one_of(JSON_LEAVES, st.sampled_from(pool)))
    return rows


@settings(deadline=None)
@given(row_lists())
@example([{}])
@example([{}, {}])
@example([{"a": (1, 0)}, {"a": (True, False)}, {"a": [1, 0]}])
@example([{"a": 1, "b": "é\n"}, {"a": True, "b": None}])
@example([{"a": {"x": ()}}, {"a": {}}])
def test_row_templates_match_json_dumps(rows):
    assert written(rows) == dumped(rows)
    nested = {"rows": rows, "more": [rows]}
    assert written(nested) == dumped(nested)


@pytest.mark.parametrize("rows", [
    [{"a": 1}, {"a": 1.5}],
    [{"a": (1, 2)}, {"a": (1, 2.0)}],
    [{"a": [1]}, {"a": [1.0]}],
    [{"a": {"b": 0.5}}, {"a": {}}],
], ids=["int then float", "float in a tuple", "float in a list",
        "float in a nested dict"])
def test_row_templates_reject_floats(rows):
    with pytest.raises(TypeError):
        written(rows)
    shared = (1, 2)
    with pytest.raises(TypeError):
        written([{"a": shared}, {"a": shared}] + rows)


def _commands(config):
    path = str(CONFIGS / config)
    if "h" in json.loads((CONFIGS / config).read_text()):
        return [["bt", path], ["bt", path, "--series", "4"],
                ["oracle", path]]
    return [["strata", path], ["zeta", path, "--series", "4"],
            ["zeta", path, "--q", "3", "--series", "4"],
            ["count", path, "--v", "4"]]


def _argv_id(argv):
    """A parameter id naming configs by file name, not by path."""
    return " ".join(Path(a).name if a.startswith(str(CONFIGS)) else a
                    for a in argv)


@pytest.mark.parametrize("argv", [
    argv for config in sorted(p.name for p in CONFIGS.glob("*.json"))
    for argv in _commands(config)], ids=_argv_id)
def test_output_is_canonical_indented_json(argv, capsys):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# sha256 of stdout for every shipped stratification config: a refactor
# must leave each byte of these outputs as it is.
GOLDEN_DIGESTS = {
    "a2-flip.json": {
        "strata": "984507149918a76299a26268d023e4e52147b995a9da07285bea4625b3f7767e",
        "zeta --series 4": "5836cb28d8d3d1db9dbb25d35d7119048fc6cb06f3fa5db4dd6aafaa1526438e",
        "count --v 3": "0a08f4d98ad9f175271a9bd6220887f2b710e492ce347c512d6e99b79805447c",
    },
    "a3a3-swap-flip.json": {
        "strata": "28d04cd26cf7f8801b4665b18cbb62e524998311035dd7c1313902f1cd27b447",
        "zeta --series 4": "7888817d1f77eb9534af65bc0bc099ca1ca6f1234ad3cc597862ca9be3295403",
        "count --v 3": "3f09ef8b9c9407178b27063f526005fd5cc63f339f819b16e48886e8c59517d6",
    },
    "gl-2-1.json": {
        "strata": "7da10b4b97c0fb0bb4b77c84d5ae93076f2dc120738b8d8a9ca8ba4562e80fb5",
        "zeta --series 4": "5f05a9ae9a3a75f0ba9607f9d40331e3ebac0fd414b095676914d9375006192c",
        "count --v 3": "c04740aea87be402bf13448f59a84fbeeff3b1a0f19dd146a1997626f125f6e3",
    },
    "gl-3-1.json": {
        "strata": "a0f564f0b61be1eeb4486428956a79d896dd14faf05247eabb0426f10181c84d",
        "zeta --series 4": "1379a7232370373a54beb12082a0455bf9878fa7b691f4e35aa1de9c69cad715",
        "count --v 3": "c51f53f28c5529eeb408f46e10a4bc07ea73792bab8de488808e045ef26cbaab",
    },
    "o4.json": {
        "strata": "092e594613b86ae67116bbd194f11a6d29348e2cf1b6efd735b420cd909e000c",
        "zeta --series 4": "0f991452a297b1b4f435c8c5f66d583207fe22ccafea91a073666900847a06b2",
        "count --v 3": "3c024a0a2c91c07b024787c1cb1f9df5b32bb4b36e6db84c7764ab65dca02fab",
    },
    "sl2-omega.json": {
        "strata": "77f4a8cb07839e8a39b29d817e659f67cfa7cc0f5af04daf4eb2083db47878eb",
        "zeta --series 4": "b41f53205336fe245c0522431b6466e1e5c71456960bcb02b6806c8cba202afa",
        "count --v 3": "90877ada0e282a8378bb8f307f42a3c44f52512158e168c9034272cc0890e84e",
    },
}


def test_every_shipped_stratification_config_has_golden_digests():
    shipped = {p.name for p in CONFIGS.glob("*.json")
               if "cartan" in json.loads(p.read_text())}
    assert shipped == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize("config,command", [
    (config, command) for config, digests in GOLDEN_DIGESTS.items()
    for command in digests], ids=lambda v: v)
def test_output_matches_golden_digest(config, command, capsys):
    cmd, *rest = command.split()
    code, out, err = run(capsys, [cmd, str(CONFIGS / config), *rest])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[config][command]


A3_ALL = {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "I": []}


@pytest.mark.parametrize("config", ["o4.json", "a2-flip.json",
                                    "sl2-omega.json", "A3, I empty"])
def test_strata_decomposes_each_minimal_element_once(config, tmp_path,
                                                     monkeypatch, capsys):
    path = CONFIGS / config
    if not path.exists():
        path = tmp_path / "a3.json"
        path.write_text(json.dumps(A3_ALL))
    original = ExtWeylGroup.canonical_decomposition
    seen = []

    def counted(self, a, I, J):
        seen.append((a.w.perm, a.omega))
        return original(self, a, I, J)

    monkeypatch.setattr(ExtWeylGroup, "canonical_decomposition", counted)
    doc = run_json(capsys, ["strata", str(path)])
    assert len(seen) == len(set(seen)) == len(doc["minimal_set"])


def _no_decomposition(self, w, I, J):
    raise AssertionError("an element was decomposed")


@pytest.mark.parametrize("config,command", [
    (config, command) for config in ("a2-flip.json", "a3a3-swap-flip.json")
    for command in ("zeta --series 4", "count --v 3")], ids=lambda v: v)
def test_zeta_and_count_decompose_nothing(config, command, capsys,
                                         monkeypatch):
    """Twisted data are stratified, and the lengths are read off the
    elements: only strata prints the decompositions."""
    monkeypatch.setattr(CosetTables, "decompose_left", _no_decomposition)
    cmd, *rest = command.split()
    code, out, err = run(capsys, [cmd, str(CONFIGS / config), *rest])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[config][command]


def test_classify_decomposes_nothing(monkeypatch):
    """Theta = {1, sigma} here, so the strata join subgroup orbits."""
    path = str(CONFIGS / "a3a3-swap-flip.json")

    def summary():
        datum = parse_config(path)
        assert len(datum.theta_indices) == 2
        return [(datum.tables.word(s.rep.w), s.rep.omega, s.length,
                 s.degree, s.size) for s in classify(datum)]

    expected = summary()
    monkeypatch.setattr(CosetTables, "decompose_left", _no_decomposition)
    assert summary() == expected


SPLIT_ROUTE_ARGS = [
    ("zeta",), ("zeta", "--q", "3"), ("zeta", "--series", "6"),
    ("count", "--v", "5"), ("count", "--v", "5", "--q", "2"),
]
BT_ROUTE_ARGS = [("bt",), ("bt", "--series", "6"), ("oracle",)]


def _route_cases():
    """Every shipped config under the commands its kind accepts, then the
    bt command for h <= 7, every d and p in {2, 3}."""
    for config in sorted(p.name for p in CONFIGS.glob("*.json")):
        is_bt = "h" in json.loads((CONFIGS / config).read_text())
        for cmd, *rest in BT_ROUTE_ARGS if is_bt else SPLIT_ROUTE_ARGS:
            yield pytest.param([cmd, str(CONFIGS / config), *rest],
                               id=f"{config}-{' '.join([cmd, *rest])}")
    for h in range(1, 8):
        for d in range(h + 1):
            for p in (2, 3):
                argv = ["bt", "--h", str(h), "--d", str(d), "--p", str(p)]
                yield pytest.param(argv, id=" ".join(argv))


@pytest.mark.parametrize("argv", _route_cases())
def test_zeta_and_count_match_the_classify_route(argv, monkeypatch, capsys):
    closed = run(capsys, argv)
    assert closed[0] == 0, closed[2]
    reference = lambda datum: zeta_from_strata(classify(datum))
    monkeypatch.setattr("zipzeta.cli.zeta_function", reference)
    monkeypatch.setattr("zipzeta.btgl.zeta_function", reference)
    assert run(capsys, argv) == closed


def _src_env():
    """The environment with the package's src directory on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


LAZY_CENSUS = """
import contextlib, io, json, sys
import zipzeta
from zipzeta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = "zipzeta.fforacle" in sys.modules
from zipzeta import crosscheck
from zipzeta import *
public = {n for n in vars(zipzeta) if not n.startswith("_")}
print(json.dumps({"codes": codes, "loaded": loaded,
                  "census": crosscheck.__module__,
                  "all": sorted(zipzeta.__all__), "public": sorted(public)}))
"""

CENSUS_NAMES = {"CensusReport", "CrosscheckReport", "FqField", "crosscheck",
                "enumerate_census"}


def test_only_the_oracle_loads_the_census_module():
    argvs = [["zeta", O4, "--series", "2"], ["count", O4, "--v", "2"],
             ["strata", O4], ["bt", "--h", "2", "--d", "1", "--p", "2"]]
    proc = subprocess.run([sys.executable, "-c", LAZY_CENSUS,
                           json.dumps(argvs)],
                          capture_output=True, text=True, env=_src_env(),
                          check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0, 0]
    assert got["loaded"] is False
    assert got["census"] == "zipzeta.fforacle"
    # __all__ is every public name of the namespace with the census
    # loaded (less the cli module, which the package never imports), as
    # when the package imported the census eagerly; the census names are
    # served through __getattr__ instead of the namespace.
    assert len(got["all"]) == len(set(got["all"])) == 63
    assert set(got["all"]) == set(got["public"]) - {"cli"} | CENSUS_NAMES
    assert "fforacle" in got["public"]


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # A5 with I empty: about 0.5 MB of strata, far more than a pipe holds.
    n = 5
    config = tmp_path / "a5.json"
    config.write_text(json.dumps({"cartan": [
        [2 if i == j else -(abs(i - j) == 1) for j in range(n)]
        for i in range(n)], "I": []}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "zipzeta.cli", "strata", str(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
