"""Command-line interface.

Commands read a JSON config and write a single JSON document to stdout
(schema field 1), deterministically serialized, so runs are
byte-for-byte reproducible.  --pretty switches to an aligned text view
of the same data.  _write_json writes the document in parts, never
joined: its bytes are those of json.dumps(doc, indent=2, sort_keys=True),
without the pure-Python encoder that indent forces; json itself only
parses input.  The minimal_set and strata rows of strata come from
generators, run only after the whole stratification has succeeded, so
each row is decomposed and written as it is made and no list of rows is
held.  Consecutive dicts that share one set of keys are each written
from one %-template, and each word in a row is rendered once.

Exit codes: 0 on success, 1 when stdout is closed before the document
is written, 2 on any parse or validation failure, 3 when the census
oracle disagrees with the predicted count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import GeneratorType

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
_INT_ONLY = frozenset({int})


def _write_json(value, stream):
    """Write to stream the text json.dumps(value, indent=2, sort_keys=True)
    gives, for dicts with str keys, lists, tuples, str, int, bool and
    None, and a final newline, without the pure-Python encoder that indent
    forces on json.dumps.  A generator is written as the list of what it
    yields, so a producer of rows is written as it yields them.  The text
    is never joined whole: its parts, one per templated row, go straight
    to stream, which buffers them.  Any other type raises TypeError."""
    _emit_json(value, "\n", stream.write)
    stream.write("\n")


def _text(value, newline):
    """The text of value, joined, for the line indentation newline."""
    parts = []
    _emit_json(value, newline, parts.append)
    return "".join(parts)


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
    elif isinstance(value, (list, tuple, GeneratorType)):
        _emit_array(value, newline, write)
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


def _emit_array(items, newline, write):
    """Pass to write the text of a list, a tuple or what a generator
    yields.  Each dict whose keys are the non-empty str keys of the dict
    before it is written from that dict's row template."""
    if type(items) is not GeneratorType:
        text = _ints_text(items, newline)
        if text is not None:
            write(text)
            return
    inner = newline + "  "
    keys = template = None
    sep = "[" + inner
    for item in items:
        if type(item) is dict and item.keys() != keys:
            keys = item.keys()
            template = _row_template(keys, inner)
        if type(item) is dict and template is not None:
            write(sep + _fill_row(item, *template))
        else:
            write(sep)
            _emit_json(item, inner, write)
        sep = "," + inner
    write("[]" if sep[0] == "[" else newline + "]")


def _ints_text(items, newline):
    """The text of a list or tuple of ints alone, bool excluded; None
    when another type is in it.  The type check runs in C."""
    if not items:
        return "[]"
    if not _INT_ONLY.issuperset(map(type, items)):
        return None
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(repr, items)) + newline + "]"


def _row_template(keys, inner):
    """(names, %-template, deeper) for dicts with these keys, written
    at the indentation inner: names are the keys in sorted order, the
    template takes the text of each value in that order, and deeper is
    the line break and indentation of a value.  None when the keys are
    not all str or there are none."""
    if not keys or not all(isinstance(k, str) for k in keys):
        return None
    names = sorted(keys)
    deeper = inner + "  "
    heads = ["," + deeper + _encode_str(k).replace("%", "%%") + ": %s"
             for k in names]
    return names, "{" + "".join(heads)[1:] + inner + "}", deeper


def _fill_row(row, names, template, deeper):
    """The text of one row from its template.  Ints go to the template
    as they are (%s writes an int as repr does), strings are escaped,
    and each list or tuple object is rendered once for the row, however
    many of its keys share it."""
    texts = []
    rendered = {}
    for v in map(row.__getitem__, names):
        t = type(v)
        if t is int:
            texts.append(v)
        elif t is str:
            texts.append(_encode_str(v))
        elif t is tuple or t is list:
            text = rendered.get(id(v))
            if text is None:
                text = _ints_text(v, deeper)
                if text is None:
                    text = _text(v, deeper)
                rendered[id(v)] = text
            texts.append(text)
        else:
            texts.append(_text(v, deeper))
    return template % tuple(texts)


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


def _strata_rows(datum, strata):
    tables = datum.tables
    omega = datum.omega
    for s in strata:
        yield {
            "rep_word": tables.word(s.rep.w),
            "rep_omega": omega.label(s.rep.omega),
            "orbit_size": s.size,
            "length": s.length,
            "aut_dim": s.aut_dim,
            "degree": s.degree,
        }


def _minimal_rows(datum, found):
    """The minimal_set rows, one per element, decomposed as they are
    written."""
    word = datum.tables.word
    label = datum.omega.label
    decompose = datum.ext.canonical_decomposition
    I = datum.parabolic_type
    J = found.twist.J
    for a, length in zip(found.reps, found.lengths):
        dec = decompose(a, I, J)
        yield {
            "weyl_word": word(a.w),
            "omega": label(a.omega),
            "conjugated_word": word(dec.wpp),
            "double_min_word": word(dec.y),
            "parabolic_word": word(dec.w_J),
            "length": length,
        }


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
        "minimal_set": _minimal_rows(datum, found),
        "strata": _strata_rows(datum, found.strata),
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
        rows = list(doc.get(key, ()))
        if not rows:
            continue
        lines.append(f"{key}:")
        headers = list(rows[0])
        lines.append("  " + " | ".join(headers))
        for row in rows:
            lines.append("  " + " | ".join(_cell(row[hdr]) for hdr in headers))
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
