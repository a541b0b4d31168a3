"""Output checks that do not trust the program's own verdicts.

Each check takes an item's argv and the text the CLI printed, and raises
CheckFailed when the text is wrong.  Expected group orders come from
math.factorial, not from the `expected=` field the CLI prints, and emitted
parameters are re-checked with exact integer arithmetic.
"""

from __future__ import annotations

import json
import math

from shortpres.words import Slp

MAX_GENERATORS = 3
MAX_RELATORS = 7


class CheckFailed(AssertionError):
    """An item's output is wrong."""


class FloatBoundOutput(CheckFailed):
    """The wrong output of a known defect: above 2^53 find_glue_prime rounds
    (n+2)/2 in floating point and can pick a glue prime p with 2p < n+2.
    Mostly this raises in the program; where it does not, the emitted
    presentation has k = 2p+4-n < 6.  The item counts as failed, like the
    items where it raises, and the class is recorded."""


def _require(cond, argv, what):
    if not cond:
        raise CheckFailed(f"{' '.join(argv)}: {what}")


def _degree_kind(argv):
    return int(argv[argv.index("-n") + 1]), argv[argv.index("--kind") + 1].capitalize()


def check_verify(argv, text):
    """One report line for the degree and kind asked, ending in ' OK'."""
    n, kind = _degree_kind(argv)
    lines = text.splitlines()
    _require(len(lines) == 1, argv, f"expected one line, got {len(lines)}")
    line = lines[0]
    _require(line.endswith(" OK"), argv, f"not OK: {line!r}")
    fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
    _require(fields.get("degree") == str(n), argv, f"wrong degree in {line!r}")
    _require(fields.get("kind") == kind, argv, f"wrong kind in {line!r}")
    _require(fields.get("identity") == "True", argv, f"relators not identity: {line!r}")
    if "order" in argv:
        expected = math.factorial(n) // (2 if kind == "Alt" else 1)
        _require(fields.get("order") == str(expected), argv,
                 f"order {fields.get('order')} is not {expected}")


def check_emit(argv, text):
    """Parse the SLP text back and re-check its header; return its bit length."""
    n, kind = _degree_kind(argv)
    head = dict(line[2:].split(": ", 1) for line in text.splitlines()
                if line.startswith("# "))
    _require(head.get("degree") == str(n), argv, "wrong degree header")
    _require(head.get("kind") == kind, argv, "wrong kind header")
    try:
        slp = Slp.from_text(text)
        params = json.loads(head["params"])
        p = int(params["p"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{' '.join(argv)}: unreadable output ({exc})") from exc
    _require(len(slp.generators) <= MAX_GENERATORS, argv, "too many generators")
    _require(len(slp.relators) <= MAX_RELATORS, argv, "too many relators")
    _require(p % 12 == 11, argv, f"p = {p} is not 11 mod 12")
    case = head.get("case")
    if case == "glued":
        k = params.get("k")
        if 2 * p < n + 2 and n > 2 ** 53:
            raise FloatBoundOutput(f"{' '.join(argv)}: 2p = {2 * p} < n+2, k = {k}")
        _require(2 * p >= n + 2, argv, f"2p = {2 * p} < n+2")
        _require(k == 2 * p + 4 - n and k >= 6, argv, f"k = {k} is not 2p+4-n >= 6")
    else:
        _require((case, p) in (("base_p2", n - 2), ("alt_p3", n - 3)), argv,
                 f"case {case} does not fit p = {p}")
    return slp.bit_length()


def check(argv, text):
    """Run the check for the item's subcommand; return SLP bits for emit."""
    if argv[0] == "emit":
        return check_emit(argv, text)
    check_verify(argv, text)
    return None
