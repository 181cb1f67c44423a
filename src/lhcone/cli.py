"""Command-line front end.  Every analysis is a subcommand with
machine-readable output (json, csv, or text).

Exit codes: 0 success, 1 negative predicate verdict (a non-Gorenstein cone
for `gor`, no product form for `product`, disagreeing criteria for
`crosscheck`), 2 for every error (usage, parse, budget, horizon), 3 for an
internal error: a failed invariant (an answer that breaks a theorem) or any
other exception, each a bug, reported in one line on stderr.

JSON objects carry "schema": 2; unbounded integers are emitted as decimal
strings so they survive any JSON reader, while small structural indices
(n, fails_at, thresholds) stay plain numbers.  The JSON text is written by
a small writer of this module whose output is byte-for-byte
json.dumps(payload, indent=2).

The text format prints one "key: value" line per key.  In a value, a
backslash is written as two backslashes, a carriage return as \\r and a line
feed as \\n, so every value stays on its line and reads back unambiguously.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from math import gcd, prod

from .enumeration import (
    BudgetExceeded,
    _charge_terms,
    cross_check_gorenstein,
    denominator_exponents,
    ehrhart_counts,
    h_star,
    numerator_H,
    product_form,
    weight_series,
)
from .exact_arith import is_palindromic
from .gcd_structure import (
    _check_pair,
    _threshold_verdict,
    f_sequence,
    find_n0,
    gcd_profile,
    ratio_table,
)
from .gorenstein import (
    GorensteinResult,
    _index_recursion,
    gorenstein_fail_index,
    parse_matrix,
    simple_cone_gorenstein,
)
from .sequences import (
    CoprimalityError,
    InvariantViolation,
    _coprimality_sweep,
    _shared_factor,
    _two_term_walk,
    _u_steps,
    parse_sequence_spec,
)

SCHEMA = 2


def _emit(args, payload, table=None):
    """Render one result object in the chosen format, byte-deterministically.

    JSON puts "schema" first.  table, when given, is the command's csv, a
    `_Rows`: a header line of its names and a line per row.  Other csv is
    key,value rows, a value quoted (RFC 4180) when it holds a comma, a quote
    or a line break.  Text is "key: value" lines, a value escaped as the
    module docstring says.  Long lists and rows go out through _join.
    """
    csv = args.format == "csv"
    if args.format == "json":
        _write_json({"schema": SCHEMA, **payload})
    elif csv and table:
        _join([",".join(table.names) + "\n"], "", table.pieces("csv"))
    else:
        parts = ["key,value\n"] if csv else []
        for key, value in payload.items():
            parts.append(f"{key}," if csv else f"{key}: ")
            if isinstance(value, _Decimals):
                _join(parts, " ", value.pieces())
            elif isinstance(value, _Rows):  # in text: a payload with rows gives csv a table
                _join(parts, " ", value.pieces("text"))
            else:
                field = _flat(value)
                if not csv:
                    field = field.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")
                elif any(c in field for c in ',"\r\n'):
                    field = '"' + field.replace('"', '""') + '"'
                parts.append(field)
            parts.append("\n")
        sys.stdout.write("".join(parts))


class _Decimals:
    """A list of integers, ints or integral Decimals, written in decimal:
    JSON strings that need no escaping, csv fields that need no quoting.
    items is the caller's list or tuple, which is not copied but cut into
    pieces as it is written, or else the list's pieces themselves, as a walk
    (`_walk`) hands them over: each is written as it comes and then dropped,
    so such a list is written once and never held whole."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items

    def pieces(self):
        items = self.items
        return _cut(items) if isinstance(items, (list, tuple)) else items

    def __iter__(self):
        return chain.from_iterable(self.pieces())

    def __bool__(self):
        return bool(self.items)


class _Rows:
    """A table: rows, tuples of ints, under names.  Each row is written from
    one format string, only as it comes, in the pieces _join writes: a csv
    line, a text {name=value, ...}, or a JSON object whose first entry, an
    index, is a number and whose others, unbounded, are decimal strings (see
    the module docstring).  rows may be an iterator, then written once."""

    __slots__ = ("names", "rows")

    def __init__(self, names, rows):
        self.names, self.rows = names, rows

    def pieces(self, fmt, indent=""):
        """The rows as csv lines, text or JSON objects at indent, formatted
        as _join writes them."""
        names = [name.replace("%", "%%") for name in self.names]
        if fmt == "csv":
            template = ",".join(["%d"] * len(names)) + "\n"
        elif fmt == "text":
            template = "{" + ", ".join(f"{name}=%d" for name in names) + "}"
        else:
            inner = indent + "  "
            first, *rest = (inner + encode_basestring_ascii(name) + ": " for name in names)
            template = "{" + first + "%d" + "".join(f',{key}"%d"' for key in rest) + indent + "}"
        return _cut(map(template.__mod__, self.rows))


def _write_json(value):
    """Write json.dumps(value, indent=2) and a newline to stdout, byte for
    byte, for the types an answer holds: dicts with str keys, str, int, bool
    and None, a _Decimals list, its entries as strings, and a _Rows table,
    its rows as objects.  Any other type, a plain list or a float, raises
    the TypeError json.dumps raises for a type it cannot write.

    json.dumps cannot use its C encoder when indenting, and escape-scans
    every string; a _Decimals list and a _Rows table go through _join
    instead.  The short parts between such lists are joined, one write per
    run, since on answers of many small parts a write each costs more than
    the join.
    """
    parts = []
    _json_parts(value, parts, "\n")
    parts.append("\n")
    sys.stdout.write("".join(parts))


# characters of text in one piece of _join, an entry counted with the 8 of a
# json separator: a cache-sized piece.  On the benchmark's recurrence_cli,
# whose tail is gor points of about 1 MB, op_p90_ms read 4.4 ms at 16, 32
# and 64 kB pieces, against 4.9 ms with each list in one piece (seed 3);
# in-process, those points took 20% longer at 4 kB pieces than at 32 kB
_PIECE_CHARS = 1 << 15


def _piece_len(k, x):
    """The length of a piece that starts with x, after one of k entries: as
    many entries as x's text would fill _PIECE_CHARS, 2k at most, since the
    entries of a walk grow as it goes, and 1 at least.  A first piece is
    given k = 32.  x is a str, an int or an integral Decimal, whose digits
    are read off its size."""
    if isinstance(x, str):
        chars = len(x)
    elif isinstance(x, int):
        chars = x.bit_length() * 3 // 10 + 1
    else:
        chars = x.adjusted() + 1
    return max(1, min(2 * k, _PIECE_CHARS // (chars + 8)))


def _cut(items):
    """items, any iterable, as the lists _join writes, each as long as
    _piece_len gives for its first entry."""
    items, k = iter(items), 32
    for first in items:
        piece = [first]
        piece += islice(items, _piece_len(k, first) - 1)
        yield piece
        k = len(piece)


def _join(parts, sep, pieces):
    """Write parts, then the entries of pieces, an iterable of lists, joined
    by sep, to stdout, a whole list at a time, its entries turned into text
    only as it is written; parts is written and emptied before each piece,
    and the caller goes on appending to it."""
    lead = ""
    for piece in pieces:
        parts.append(lead)
        sys.stdout.write("".join(parts))
        parts.clear()
        sys.stdout.write(sep.join(map(str, piece)))
        lead = sep


def _json_parts(value, parts, indent):
    """Append the pieces of value's text to parts; a _Decimals list and a
    _Rows table are written through _join."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
        return
    inner = indent + "  "
    if isinstance(value, _Decimals) and value:
        parts += ("[", inner, '"')
        _join(parts, '",' + inner + '"', value.pieces())
        parts += ('"', indent, "]")
    elif isinstance(value, _Rows) and value.rows:
        parts += ("[", inner)
        _join(parts, "," + inner, value.pieces("json", inner))
        parts += (indent, "]")
    elif isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in value.items():
            parts += (sep, encode_basestring_ascii(key), ": ")
            _json_parts(item, parts, inner)
            sep = "," + inner
        parts += (indent, "}")
    elif isinstance(value, (dict, _Decimals, _Rows)):
        parts.append("{}" if isinstance(value, dict) else "[]")
    elif value is None or isinstance(value, bool):
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _flat(value):
    if isinstance(value, _Decimals):
        return " ".join(_flat(v) for v in value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_flat(v)}" for k, v in value.items()) + "}"
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _spec(args):
    """The parsed --seq and its n: --n, charged against the budget, or else
    the spec's own length."""
    spec = parse_sequence_spec(args.seq)
    n = args.n
    if n is not None:
        _charge_terms(n)
    elif spec.needs_length():
        raise ValueError(f"--n is required for '{args.seq}'")
    return spec, spec.default_length() if n is None else n


def _realized(args):
    spec, n = _spec(args)
    return spec.realize(n)


# integers computed exactly: every digit kept, and any rounding an error
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)
# _walk turns a piece into Decimal when its first entry passes this many
# bits.  Walked and printed, a 64-entry piece of ell:3's or ell:7's point
# costs 3-17% more per entry in Decimal than in int at 300-400 bits, and
# 13-15% less at 600, 39-42% at 1000: str(int) is quadratic, str(Decimal)
# linear.  recurrence_cli's op_p90_ms read 4.41 ms at 600 bits, 4.46 at 700
# and 4.44 at 1000 (6 runs each, seeds 91-96, shared 2-core Xeon)
_DECIMAL_BITS = 600


def _walk(p, q, first, second):
    """The two-term walk x_{i+1} = p_i*x_i + q*x_{i-1} (`_two_term_walk`)
    in the pieces _join writes: over multipliers p = u with q = -1, the
    Gorenstein point from the seeds (0, 1) (see `u_generated_point`) and
    the terms from (1, s_1); rec:l,b's terms over p = l, l, ... with q = b
    from (0, 1), and rec:l,0's point over p = l+1, l+1, ... with q = -l
    from (0, 1) (see `_answer`).  Each piece is one `_two_term_walk` from
    two seeds, the last entry of the piece before, held back, and the one
    before it; once a piece's first entry passes _DECIMAL_BITS its seeds
    become Decimal, and so every entry from there on.  This is the one
    place a point or a term becomes Decimal, whose str() is linear where
    str(int) is quadratic.

    The walk is lazy: each piece is computed only when the writer asks for
    it, under _EXACT entered and left within the piece, so the caller's
    decimal context holds between pieces.  No more than a piece is held."""
    p, a, b, k = iter(p), first, second, _piece_len(32, second)
    while True:
        if isinstance(b, int) and b.bit_length() > _DECIMAL_BITS:
            a, b = decimal.Decimal(a), decimal.Decimal(b)
        with decimal.localcontext(_EXACT):
            x = list(_two_term_walk(islice(p, k), q, a, b))
        if len(x) <= k:  # p ran out within the piece
            yield x
            return
        b = x.pop()
        a = x[-1]
        yield x
        k = _piece_len(k, b)


def _answer(spec, n):
    """The multipliers u of spec at n and its Gorenstein decision.  u is the
    spec's own where it fixes them (`SequenceSpec.multipliers`: a family or
    a u: spec, whose terms are checked for positivity without being held),
    else the leading u-steps of its terms (`_u_steps`), all n - 1 of them
    exactly when the terms are u-generated.  The terms come from the spec's
    lazy source, `SequenceSpec._terms`, so the scan reads no term of
    rec:l,b past the first that no u-step reaches.  With every u-step known
    the decision is the point's lazy `_walk`, the recursion's point (see
    `_index_recursion`), never held whole.  So is it on rec:l,0, whose
    point is the walk over l+1, l+1, ... with q = -l from (0, 1): the
    recursion gives c_j = l*c_{j-1} + 1, as `gorenstein_fail_index` states,
    so c_{j+1} = (l+1)*c_j - l*c_{j-1} from (c_0, c_1) = (0, 1).
    Otherwise the decision is the recursion's answer, which draws the
    terms up to its first failure."""
    u = spec.multipliers(n)
    if u is None:
        u = _u_steps(spec._terms(n))
        if len(u) < n - 1:
            if spec.kind == "recurrence" and spec.params[1] == 0:
                l = spec.params[0]
                return u, GorensteinResult(_walk(repeat(l + 1, n - 1), -l, 0, 1), None, None)
            return u, _index_recursion(spec._terms(n))
    return u, GorensteinResult(_walk(u, -1, 0, 1), None, None)


def _gor_fields(result):
    if result.gorenstein:
        return {"gorenstein": True, "point": _Decimals(result.point)}
    return {"gorenstein": False, "fails_at": result.fails_at, "witness": str(result.witness)}


def _profile_fields(prof):
    return {name: str(value) for name, value in prof._asdict().items()}


def _emit_spec(args, terms, fields, coeffs=None, verdict=True):
    """Write the answer of a command on --seq: seq and n, the number of
    terms, then fields; with coeffs, csv writes them as a table of
    degree,coefficient rows.  Returns the exit code: 1 for a negative
    verdict, else 0."""
    table = None if coeffs is None else _Rows(("degree", "coefficient"), enumerate(coeffs))
    _emit(args, {"seq": args.seq, "n": len(terms), **fields}, table)
    return 0 if verdict else 1


def _emit_pair(args, fields, table=None):
    """Write the answer of a command on --l and --b: l and b as decimal
    strings, then fields, with table as its csv.  Returns the exit code, 0."""
    _emit(args, {"l": str(args.l), "b": str(args.b), **fields}, table)
    return 0


def cmd_gor(args):
    if args.matrix is not None:
        if args.seq is not None:
            raise ValueError("--matrix and --seq are mutually exclusive")
        with open(args.matrix, encoding="utf-8") as fh:
            rows = parse_matrix(fh.read())
        result = simple_cone_gorenstein(rows)
        source = {"matrix": args.matrix}
    else:
        if args.seq is None:
            raise ValueError("one of --seq or --matrix is required")
        spec, n = _spec(args)
        _, result = _answer(spec, n)
        source = {"seq": args.seq, "n": n}
    _emit(args, {**source, **_gor_fields(result)})
    return 0 if result.gorenstein else 1


def cmd_series(args):
    terms = _realized(args)
    f = weight_series(terms, args.m)
    return _emit_spec(args, terms, {"m": args.m, "coefficients": _Decimals(f.coeffs)}, f.coeffs)


def cmd_numerator(args):
    terms = _realized(args)
    H = numerator_H(terms)
    fields = {
        "denominator_exponents": _Decimals(denominator_exponents(terms)),
        "coefficients": _Decimals(H.coeffs),
        "palindromic": is_palindromic(H),
    }
    return _emit_spec(args, terms, fields, H.coeffs)


def cmd_hstar(args):
    terms = _realized(args)
    # charged first: a --t past the budget is refused before the h*-vector
    counts = None if args.t is None else ehrhart_counts(terms, args.t)
    hs = h_star(terms)
    fields = {
        "coefficients": _Decimals(hs.coeffs.coeffs),
        "denominator_exponent": str(hs.denominator_exponent),
        "power": hs.power,
        "q1": str(hs.denominator_exponent * prod(terms)),  # checked by h_star
        "symmetric": hs.symmetric,
        "unimodal": hs.unimodal,
    }
    if counts is not None:
        fields["ehrhart_counts"] = _Decimals(counts)
    return _emit_spec(args, terms, fields, hs.coeffs.coeffs)


def cmd_product(args):
    terms = _realized(args)
    exponents = product_form(terms)
    found = exponents is not None
    fields = {"product_form": found, "exponents": _Decimals(exponents) if found else None}
    return _emit_spec(args, terms, fields, verdict=found)


def cmd_gcd_table(args):
    rows = ratio_table(args.l, args.b, args.n).rows
    fields = {"n": args.n, "rows": _Rows(("n", "gcd", "normalizer", "u"), rows)}
    return _emit_pair(args, fields, _Rows(("n", "gcd", "normalizer", "u_n"), rows))


def cmd_profile(args):
    # as in gcd-table and n0, the charge of --n and the pair rule come first
    # (f_sequence checks both itself), and only then is the profile read
    terms = {} if args.n is None else {"f_sequence": _Decimals(f_sequence(args.l, args.b, args.n))}
    _check_pair(args.l, args.b)
    return _emit_pair(args, {**_profile_fields(gcd_profile(args.l, args.b)), **terms})


def cmd_n0(args):
    n0 = find_n0(args.l, args.b, args.horizon)  # the charge and the pair first, as in profile
    prof = gcd_profile(args.l, args.b)
    fields = {"n0": n0, "threshold": str(prof.t * (prof.r + abs(args.b)))}
    if args.horizon is not None:
        fields["horizon"] = args.horizon
    return _emit_pair(args, fields)


def cmd_classify(args):
    """u-generation, the Gorenstein decision and, for rec:l,b, the profile.

    Let k be the number of leading u-steps s_{i+1} = u_i*s_i - s_{i-1}
    (s_0 = 1) that `_answer` found, or n - 1 where the spec fixes u.  If
    k = n - 1 the status is recognized, and the terms printed are the walk
    from (1, s_1) over u (`SequenceSpec.first_term`), drawn lazily as they
    are written, with the digits of the realized terms.  Otherwise the
    terms are printed as they are: a list's as realized, and rec:l,b's as
    the `_walk` over l, l, ... with q = b from (0, 1), drawn lazily as a
    point is, never held.  The status then tells hypothesis-violated from
    not-u-generated: on a list by `_coprimality_sweep` from the pair
    (k + 1, k + 2), as `recognize_u_generated` sweeps; on rec:l,b
    (b != -1) by a rule with no sweep: hypothesis-violated if
    gcd(l, b) > 1, with the sweep's detail at terms 2 and 3, s_2 = l and
    s_3 = l^2 + b, else not-u-generated.

    Proof.  If gcd(l, b) = 1, consecutive terms are coprime, the Lucas
    sequence fact gcd(U_j, U_{j+1}) = 1 for gcd(P, Q) = 1: s_j = l^{j-1}
    mod b is prime to b, so the lemma of `lhcone.gcd_structure` gives
    gcd(s_{j+1}, s_j) = gcd(b, s_j) = 1 in turn, and the sweep finds no
    shared factor.  If d = gcd(l, b) > 1, step 2 is never a u-step:
    s_2 = l dividing s_3 + s_1 = l^2 + b + 1 makes l | b + 1, so d | 1.
    Step 1 always is one (u_1 = l + 1), so k = 1 for n >= 3, the sweep
    starts at (s_2, s_3), and gcd(s_2, s_3) = gcd(l, l^2 + b) = d.
    """
    spec, n = _spec(args)
    u, result = _answer(spec, n)
    u_generation = {"status": "not-u-generated"}
    if len(u) == n - 1:
        u_generation = {"status": "recognized", "u": _Decimals(u)}
        terms = _walk(u, -1, 1, spec.first_term)
    elif spec.kind == "recurrence":
        l, b = spec.params
        terms = _walk(repeat(l, n - 1), b, 0, 1)
        if gcd(l, b) > 1:
            u_generation = {"status": "hypothesis-violated", "detail": _shared_factor(2, l, l * l + b)}
    else:
        terms = spec.realize(n)
        try:
            _coprimality_sweep(terms, len(u) + 1)
        except CoprimalityError as exc:
            u_generation = {"status": "hypothesis-violated", "detail": str(exc)}
    payload = {
        "seq": args.seq,
        "kind": spec.kind,
        "n": n,
        "terms": _Decimals(terms),
        "u_generation": u_generation,
    }
    payload.update(_gor_fields(result))
    if spec.kind == "recurrence":
        l, b = spec.params
        if b != 0:
            prof = gcd_profile(l, b)
            payload["profile"] = _profile_fields(prof)
        # a failing prefix's index is the family's: both run _index_recursion
        # on the same first terms; a Gorenstein prefix's family fails past it.
        # The threshold check is read off that index, with no recursion
        fail_index = result.fails_at or gorenstein_fail_index(l, b)
        if result.gorenstein and fail_index and fail_index <= n:
            raise InvariantViolation(f"prefix is Gorenstein, family fails at {fail_index}")
        payload["fail_index"] = fail_index
        if b not in (0, -1):
            payload["threshold_check"] = _threshold_verdict(prof, b, fail_index)._asdict()
    elif spec.needs_length():
        # a family whose every step is a u-step: Gorenstein for every n (see
        # u_generated_point)
        payload["fail_index"] = None
    _emit(args, payload)
    return 0


def cmd_crosscheck(args):
    terms = _realized(args)
    report = cross_check_gorenstein(terms)
    return _emit_spec(args, terms, {**report._asdict(), "agree": report.agree}, verdict=report.agree)


def _add_seq(p, required=True):
    p.add_argument("--seq", required=required, help="sequence spec, e.g. rec:3,9 or list:1,3,5")
    p.add_argument("--n", type=int, help="number of terms to realize")


def _add_pair(p):
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--b", type=int, required=True)


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later call
    in the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="lhcone",
        description="Gorenstein decisions, generating functions, and gcd invariants "
        "of lecture hall cones, in exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gor", help="decide the Gorenstein property")
    _add_seq(p, required=False)
    p.add_argument("--matrix", help="file with one inequality row per line (p/q entries)")

    p = sub.add_parser("series", help="weight series coefficients through degree M")
    _add_seq(p)
    p.add_argument("--m", type=int, required=True, help="truncation degree")

    p = sub.add_parser("numerator", help="generating function numerator")
    _add_seq(p)

    p = sub.add_parser("hstar", help="h*-vector of the associated polytope")
    _add_seq(p)
    p.add_argument(
        "--t",
        type=int,
        help="also report lattice counts for dilates 0..T (json and text; csv writes only the "
        "degree,coefficient table)",
    )

    p = sub.add_parser("product", help="test for a pure product-form series")
    _add_seq(p)

    p = sub.add_parser("gcd-table", help="normalized consecutive-gcd table")
    _add_pair(p)
    p.add_argument("--n", type=int, required=True, help="number of rows")

    p = sub.add_parser("profile", help="gcd profile r, t, sigma, gamma, beta")
    _add_pair(p)
    p.add_argument("--n", type=int, help="also report the reduced f-sequence to n")

    p = sub.add_parser("n0", help="stable growth index for the failure bound")
    _add_pair(p)
    p.add_argument("--horizon", type=int, help="verification window (default adaptive)")

    p = sub.add_parser("classify", help="full report: u-generation, Gorenstein, profile")
    _add_seq(p)
    p.add_argument("--horizon", type=int, help="deprecated and ignored: the fail index is exact")

    p = sub.add_parser("crosscheck", help="three-way Gorenstein criteria agreement")
    _add_seq(p)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return parser


def main(argv=None):
    # answers and list: terms may pass CPython's default limit on int <-> str
    # conversion; lift it for this call only, since callers may run main
    # in-process (Python 3.10 before 3.10.7 has no limit)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        old_limit = sys.get_int_max_str_digits()
        set_limit(0)
    try:
        args = build_parser().parse_args(argv)
        # looked up on every call rather than bound into the shared parser,
        # so a command rebound on this module (a patch, a tracer) is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # any other failure is a bug too: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if set_limit is not None:
            set_limit(old_limit)


if __name__ == "__main__":
    sys.exit(main())
