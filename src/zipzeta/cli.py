"""Command-line interface.

Commands read a JSON config and write a single JSON document to stdout
(schema field 1), deterministically serialized, so runs are
byte-for-byte reproducible.  --pretty switches to an aligned text view
of the same data.  _write_json writes the document in parts, never
joined: its bytes are those of json.dumps(doc, indent=2, sort_keys=True),
without the pure-Python encoder that indent forces; json itself only
parses input.  The minimal_set and strata lists of strata are typed
rows (Rows): tuples in sorted key order, with a column spec naming each
column a word, a label or an int.  Their tuples come from generators,
run only after the whole stratification has succeeded, so each row is
decomposed and written as it is made and no list of rows is held.  Each
row is written from one %-template with no check of its values' types:
its words are rendered once per row and its labels encoded once per
document.  Every other list goes through the generic encoder.

Exit codes: 0 on success, 1 when stdout is closed before the document
is written, 2 on any parse or validation failure, 3 when the census
oracle disagrees with the predicted count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from .btgl import BTParams, bt_zeta
from .errors import MismatchDetected, ParseError, ZipzetaError, _is_int
from .zetafn import QLaurent, expand_series
from .zipstrata import ZipDatum, _stratify, zeta_function

ZIP_KEYS = {"schema", "cartan", "I", "omega", "phi0", "q0", "e", "theta"}
BT_KEYS = {"schema", "h", "d", "p", "n"}

# Largest accepted --series order and --v degree.  One cap suits both
# rings: BT(6,3) to order 100 takes about 0.5 s symbolic and 0.2 s numeric.
MAX_SERIES_ORDER = 100
MAX_COUNT_DEGREE = 100


_encode_str = json.encoder.encode_basestring_ascii

# Column kinds of typed rows.
WORD, LABEL, INT = "word", "label", "int"


class Rows(namedtuple("Rows", "columns shown rows")):
    """A JSON list of objects that all have one key set, held as typed
    tuples.  columns is ((key, kind), ...) in sorted key order; shown
    gives the positions of the columns in the order --pretty shows them;
    rows yields one tuple of values per object, in column order.  A WORD
    value is a tuple of ints (bool excluded), a LABEL a str and an INT
    an int: the writer trusts the kinds and checks no value."""

    __slots__ = ()

    @classmethod
    def of(cls, shown, rows):
        """Typed rows whose columns are the (key, kind) pairs shown, in
        the order --pretty shows them; rows must still yield its tuples
        in sorted key order."""
        columns = tuple(sorted(shown))
        return cls(columns, tuple(map(columns.index, shown)), rows)


class _Memo(dict):
    """The text of each key, made by make on first use: a hit is one
    lookup in C, as map() makes it."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _write_json(value, stream):
    """Write to stream the text json.dumps(value, indent=2, sort_keys=True)
    gives, for Rows, dicts with str keys, lists, tuples, str, int, bool
    and None, and a final newline, without the pure-Python encoder that
    indent forces on json.dumps.  The text is never joined whole: its
    parts, one per typed row, go straight to stream, which buffers them.
    Any other type raises TypeError."""
    _emit_json(value, "\n", stream.write)
    stream.write("\n")


def _emit_json(value, newline, write):
    """Pass the text of value to write, in parts; newline is a line
    break followed by the indentation of the line value starts on."""
    if isinstance(value, str):
        write(_encode_str(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif type(value) is Rows:
        _emit_rows(value, newline, write)
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _emit_json(item, inner, write)
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(sep + _encode_str(key) + ": ")
            _emit_json(value[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _emit_rows(table, newline, write):
    """Pass to write the text of typed rows, one part per row, each from
    one %-template.  An INT goes to the template as it is (%s writes an
    int as repr does), a LABEL is encoded once per document, and a WORD
    is rendered once per row however many of its columns hold it, from
    the text of each letter, made once per document."""
    inner = newline + "  "
    deeper = inner + "  "
    body = "{" + ",".join(
        deeper + _encode_str(key).replace("%", "%%") + ": %s"
        for key, _ in table.columns) + inner + "}"
    words = [i for i, (_, kind) in enumerate(table.columns) if kind == WORD]
    labels = [i for i, (_, kind) in enumerate(table.columns)
              if kind == LABEL]
    encoded = _Memo(_encode_str)
    letters = _Memo(repr)
    opening = "[" + deeper + "  "
    letter_sep = "," + deeper + "  "
    closing = deeper + "]"
    template = "[" + inner + body
    later = "," + inner + body
    for row in table.rows:
        texts = list(row)
        rendered = {}
        for i in words:
            word = row[i]
            text = rendered.get(id(word))
            if text is None:
                text = rendered[id(word)] = (
                    opening + letter_sep.join(map(letters.__getitem__, word))
                    + closing if word else "[]")
            texts[i] = text
        for i in labels:
            texts[i] = encoded[row[i]]
        write(template % tuple(texts))
        template = later
    write("[]" if template[0] == "[" else newline + "]")


def _load_json(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None


def _expect(cond, path, message):
    if not cond:
        raise ParseError(f"{path}: {message}")


def _int_list(value, path):
    _expect(isinstance(value, list), path, "expected a list of integers")
    for x in value:
        _expect(_is_int(x), path, "expected a list of integers")
    return value


def parse_config(path):
    """Load a config file into a ZipDatum or BTParams."""
    doc = _load_json(path)
    _expect(isinstance(doc, dict), "config", "expected a JSON object")
    if "schema" in doc:
        _expect(_is_int(doc["schema"]) and doc["schema"] == 1,
                "config.schema", "unsupported schema")
    if "h" in doc or "d" in doc or "p" in doc:
        unknown = set(doc) - BT_KEYS
        _expect(not unknown, "config", f"unknown keys {sorted(unknown)}")
        for key in ("h", "d", "p"):
            _expect(key in doc, f"config.{key}", "missing")
        try:
            return BTParams(doc["h"], doc["d"], doc["p"], doc.get("n", 1))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"config: {exc}") from None
    unknown = set(doc) - ZIP_KEYS
    _expect(not unknown, "config", f"unknown keys {sorted(unknown)}")
    _expect("cartan" in doc, "config.cartan", "missing")
    _expect("I" in doc, "config.I", "missing")
    cartan = doc["cartan"]
    _expect(isinstance(cartan, list), "config.cartan",
            "expected a list of rows")
    for row in cartan:
        _int_list(row, "config.cartan")
    parabolic = _int_list(doc["I"], "config.I")

    omega = doc.get("omega")
    if omega is not None:
        _expect(isinstance(omega, dict), "config.omega", "expected an object")
        for key in ("elements", "table", "diagram_action"):
            _expect(key in omega, f"config.omega.{key}", "missing")
        _expect(isinstance(omega["elements"], list) and all(
            isinstance(x, str) for x in omega["elements"]),
            "config.omega.elements", "expected a list of labels")
        _expect(isinstance(omega["table"], list), "config.omega.table",
                "expected a list of rows")
        for row in omega["table"]:
            _int_list(row, "config.omega.table")
        action = omega["diagram_action"]
        _expect(isinstance(action, dict), "config.omega.diagram_action",
                "expected an object keyed by label")
        _expect(set(action) == set(omega["elements"]),
                "config.omega.diagram_action",
                "labels do not match the element list")
        for lab, val in action.items():
            _int_list(val, f"config.omega.diagram_action.{lab}")

    phi0 = doc.get("phi0")
    if phi0 is not None:
        _expect(isinstance(phi0, dict), "config.phi0", "expected an object")
        _expect(set(phi0) <= {"diagram_perm", "omega_perm"}, "config.phi0",
                "unknown keys")
        _expect("diagram_perm" in phi0, "config.phi0.diagram_perm", "missing")
        _int_list(phi0["diagram_perm"], "config.phi0.diagram_perm")
        if "omega_perm" in phi0:
            _expect(isinstance(phi0["omega_perm"], list) and all(
                isinstance(x, str) for x in phi0["omega_perm"]),
                "config.phi0.omega_perm", "expected a list of labels")

    theta = doc.get("theta")
    if theta is not None:
        _expect(isinstance(theta, list) and all(
            isinstance(x, str) for x in theta),
            "config.theta", "expected a list of labels")

    q0 = doc.get("q0", 2)
    e = doc.get("e", 1)
    try:
        return ZipDatum(cartan, parabolic, omega=omega, phi0=phi0,
                        q0=q0, e=e, theta=theta)
    except (TypeError, KeyError) as exc:
        raise ParseError(f"config: malformed value ({exc})") from None


def _coeff_json(c):
    if isinstance(c, QLaurent):
        return c.to_json()
    return str(c)


def _echo(datum):
    return {
        "cartan": [list(r) for r in datum.rs.cartan.entries],
        "parabolic_type": sorted(datum.parabolic_type),
        "q0": datum.q0,
        "e": datum.e,
        "theta": list(datum.theta_labels),
        "omega_elements": list(datum.omega.labels),
    }


# The columns of the strata rows and the minimal_set rows, in the
# order --pretty shows them.
STRATA_COLUMNS = (("rep_word", WORD), ("rep_omega", LABEL),
                  ("orbit_size", INT), ("length", INT), ("aut_dim", INT),
                  ("degree", INT))
MINIMAL_COLUMNS = (("weyl_word", WORD), ("omega", LABEL),
                   ("conjugated_word", WORD), ("double_min_word", WORD),
                   ("parabolic_word", WORD), ("length", INT))


def _strata_rows(datum, strata):
    """The strata rows, in sorted key order: aut_dim, degree, length,
    orbit_size, rep_omega, rep_word."""
    word = datum.tables.word
    label = datum.omega.label
    for s in strata:
        yield (s.aut_dim, s.degree, s.length, s.size,
               label(s.rep.omega), word(s.rep.w))


def _minimal_rows(datum, found):
    """The minimal_set rows, one per element, decomposed as they are
    written, in sorted key order: conjugated_word, double_min_word,
    length, omega, parabolic_word, weyl_word."""
    word = datum.tables.word
    label = datum.omega.label
    decompose = datum.ext.canonical_decomposition
    I = datum.parabolic_type
    J = found.twist.J
    for a, length in zip(found.reps, found.lengths):
        dec = decompose(a, I, J)
        yield (word(dec.wpp), word(dec.y), length, label(a.omega),
               word(dec.w_J), word(a.w))


def _check_range(flag, value, low, high):
    """ParseError unless value is None or lies in low..high."""
    if value is not None and not low <= value <= high:
        raise ParseError(
            f"--{flag} must lie between {low} and {high}, got {value}")


def _check_field_size(q):
    """ParseError unless q is None (symbolic) or at least 2."""
    if q is not None and q < 2:
        raise ParseError(f"--q must be at least 2, got {q}")


def _require_zip(parsed):
    if not isinstance(parsed, ZipDatum):
        raise ParseError("config: this command needs a stratification "
                         "config, not height/dimension parameters")
    return parsed


def _require_bt(parsed):
    if not isinstance(parsed, BTParams):
        raise ParseError("config: this command needs h, d, p keys")
    return parsed


def _cmd_strata(args):
    """The strata document.  Validation and the stratification are done
    before it is returned; its two row lists are generators, so each
    row is decomposed and formatted only as it is written."""
    datum = _require_zip(parse_config(args.config))
    found = _stratify(datum)
    twist = found.twist
    tables = datum.tables
    return {
        "schema": 1,
        "kind": "strata",
        "config": _echo(datum),
        "flag_dim": datum.flag_dim,
        "twist": {
            "J": sorted(twist.J),
            "w1_word": tables.word(twist.w1),
            "w2_word": tables.word(twist.w2),
        },
        "minimal_set": Rows.of(MINIMAL_COLUMNS, _minimal_rows(datum, found)),
        "strata": Rows.of(STRATA_COLUMNS, _strata_rows(datum, found.strata)),
    }


def _zeta_doc(kind, zeta, q, series_order, extra):
    doc = {
        "schema": 1,
        "kind": kind,
        "factors": [{"aut_dim": a, "degree": f, "multiplicity": m}
                    for (a, f), m in zeta.factor_items()],
        "display": zeta.to_str(q),
        "q": q,
    }
    doc.update(extra)
    if series_order is not None:
        expansion = expand_series(zeta, series_order, q)
        doc["series"] = [_coeff_json(c) for c in expansion.coefficients]
    return doc


def _cmd_zeta(args):
    _check_range("series", args.series, 0, MAX_SERIES_ORDER)
    _check_field_size(args.q)
    datum = _require_zip(parse_config(args.config))
    return _zeta_doc("zeta", zeta_function(datum), args.q, args.series,
                     {"config": _echo(datum)})


def _cmd_count(args):
    _check_range("v", args.v, 1, MAX_COUNT_DEGREE)
    _check_field_size(args.q)
    datum = _require_zip(parse_config(args.config))
    zeta = zeta_function(datum)
    values = [{"v": v, "count": _coeff_json(zeta.n_value(v, args.q))}
              for v in range(1, args.v + 1)]
    return {
        "schema": 1,
        "kind": "count",
        "config": _echo(datum),
        "q": args.q,
        "values": values,
    }


def _bt_params(args):
    if args.config is not None:
        for key in ("h", "d", "p"):
            if getattr(args, key) is not None:
                raise ParseError(f"--{key} cannot be given with a config file")
        return _require_bt(parse_config(args.config))
    for key in ("h", "d", "p"):
        if getattr(args, key) is None:
            raise ParseError(f"either a config file or --{key} is required")
    try:
        return BTParams(args.h, args.d, args.p, getattr(args, "n", 1))
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None


def _cmd_bt(args):
    _check_range("series", args.series, 0, MAX_SERIES_ORDER)
    params = _bt_params(args)
    zeta = bt_zeta(params)
    # Every stratum has degree 1 and length d*(h-d) - aut_dim; rows come
    # in ascending aut_dim, the order classify gives them.
    top = params.d * (params.h - params.d)
    extra = {
        "h": params.h, "d": params.d, "p": params.p, "n": params.n,
        "strata": [{"length": top - a, "aut_dim": a}
                   for (a, _), m in zeta.factor_items() for _ in range(m)],
    }
    return _zeta_doc("bt", zeta, params.p, args.series, extra)


def _cmd_oracle(args):
    # Only this command runs the census, so only it loads the module.
    from .fforacle import crosscheck

    params = _bt_params(args)
    report = crosscheck(params, args.k)
    return {
        "schema": 1,
        "kind": "oracle",
        "h": params.h, "d": params.d, "p": params.p, "k": args.k,
        "predicted": str(report.predicted),
        "observed": str(report.observed),
        "ok": report.ok,
        "candidate_count": report.census.candidate_count,
        "group_order": report.census.group_order,
        "classes": [{"orbit_size": c.orbit_size, "aut_count": c.aut_count}
                    for c in report.census.classes],
    }


def _cell(value):
    """The text of a value in the pretty view; words, stored as tuples,
    are shown as the lists the JSON has."""
    return str(list(value) if type(value) is tuple else value)


def _render_pretty(doc):
    lines = [f"kind: {doc['kind']}"]
    if "twist" in doc:
        lines.append(f"J = {doc['twist']['J']}, "
                     f"w1 = {_cell(doc['twist']['w1_word'])}")
    for key in ("minimal_set", "strata", "classes", "values", "factors"):
        table = doc.get(key)
        if type(table) is Rows:
            headers = [table.columns[i][0] for i in table.shown]
            rows = [[row[i] for i in table.shown] for row in table.rows]
        elif table:
            headers = list(table[0])
            rows = [[row[hdr] for hdr in headers] for row in table]
        else:
            continue
        if not rows:
            continue
        lines.append(f"{key}:")
        lines.append("  " + " | ".join(headers))
        for row in rows:
            lines.append("  " + " | ".join(map(_cell, row)))
    if "display" in doc:
        lines.append(f"zeta = {doc['display']}")
    if "series" in doc:
        lines.append(f"series = {doc['series']}")
    for key in ("predicted", "observed", "ok"):
        if key in doc:
            lines.append(f"{key} = {doc[key]}")
    return "\n".join(lines)


def _add_bt_flags(sub):
    sub.add_argument("config", nargs="?", default=None,
                     help="config file with h, d, p keys")
    sub.add_argument("--h", type=int, default=None, help="height")
    sub.add_argument("--d", type=int, default=None, help="dimension")
    sub.add_argument("--p", type=int, default=None, help="characteristic")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zipzeta",
        description="Exact stratification and zeta functions of zip-type "
                    "quotient stacks.")
    parser.add_argument("--pretty", action="store_true",
                        help="aligned text output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("strata", help="stratify a config")
    s.add_argument("config")
    s.set_defaults(handler=_cmd_strata)

    z = sub.add_parser("zeta", help="zeta function of a config")
    z.add_argument("config")
    z.add_argument("--q", type=int, default=None,
                   help="numeric field size (symbolic when omitted)")
    z.add_argument("--series", type=int, default=None,
                   help="also expand to this order")
    z.set_defaults(handler=_cmd_zeta)

    c = sub.add_parser("count", help="groupoid point counts")
    c.add_argument("config")
    c.add_argument("--v", type=int, required=True,
                   help="count over degrees 1..v")
    c.add_argument("--q", type=int, default=None)
    c.set_defaults(handler=_cmd_count)

    b = sub.add_parser("bt", help="truncated group-scheme stack zeta")
    _add_bt_flags(b)
    b.add_argument("--n", type=int, default=1, help="truncation level")
    b.add_argument("--series", type=int, default=None)
    b.set_defaults(handler=_cmd_bt)

    o = sub.add_parser("oracle", help="census crosscheck")
    _add_bt_flags(o)
    o.add_argument("--k", type=int, default=1, help="field degree")
    o.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point fd 1 at the null device, so the
        # flush at interpreter exit is silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args):
    """Run the command and write its document, or the mismatch report;
    returns the exit code."""
    try:
        doc, code = args.handler(args), 0
    except MismatchDetected as exc:
        doc, code = {
            "schema": 1,
            "kind": "oracle",
            "ok": False,
            "predicted": str(exc.predicted),
            "observed": str(exc.observed),
        }, 3
    except (ZipzetaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pretty:
        print(_render_pretty(doc))
    else:
        _write_json(doc, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
