"""Text format for networks with kinetics, and its parser/renderer.

    # example
    species X1 X2
    r1: 2 X1 -> X1 + X2 rate 1
    r2: X1 + X2 -> 2 X1 rate 3/2
    kinetics powerlaw
    order r1: X1=2
    order r2: X1=1, X2=1

A complex is `0` or a `+`-separated list of `coeff name` terms (coefficient
optional, nonnegative rational); a `+` that signs a coefficient or its
exponent, as in `+2 A` or `1e+2 A`, is part of the number. A species name
holds no `+` and does not read as a number or an exponent head such as `1e`.
The kinetics block is one of:

    kinetics massaction
    kinetics powerlaw     followed by one `order <label>: S=val, ...` per reaction
    kinetics polypl       followed by `term <label> coeff <a>: S=val, ...` lines
    kinetics hill         followed by `hill <label>: S=(f=<val>, d=<val>), ...`

Each species appears at most once per kinetics line; unlisted species
default to order zero. Every number is read by `rational.frac`: integers,
`p/q` rationals (kept exact) and decimals, not `1_000` or `Infinity`; a zero
denominator and a nonzero number a float cannot hold are refused. Decimal
stoichiometric coefficients are kept exact (`0.5 A` is 1/2 A); decimal rates,
orders, coefficients and Hill constants are floats. `#` starts a comment.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .kinetics import (HillKinetics, Kinetics, PolyPLKinetics, PowerLawKinetics,
                       hill, mass_action_from, poly_pl, power_law)
from .network import ReactionNetwork, build_network
from .rational import _NUMBER, frac


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message + ("" if line is None else f" (line {line})"))


class UnknownSpeciesError(ParseError):
    pass


class MissingKineticsRowError(ParseError):
    pass


class NegativeRateError(ParseError):
    pass


def _parse_number(token: str, line: int):
    """`frac(token)`, as a float when the token is written as a decimal."""
    try:
        value = frac(token)
    except ValueError as exc:
        raise ParseError(str(exc), line) from None
    return float(token) if any(c in token for c in ".eE") else value


_EXPONENT_HEAD = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)[eE]")


def _terms(text: str) -> list[str]:
    """`text` split at each `+` that separates the terms of a complex.

    A `+` before a digit or `.` belongs to a number instead where it signs
    a term's coefficient (only whitespace before it in the term) or the
    exponent of one such as `1e+2` (right after a token like `1e`, which
    `parse_crn` refuses as a species name). A split there leaves an empty
    term or an unknown species, so every complex that a split at every `+`
    reads, reads the same.
    """
    terms, start = [], 0
    for i in [i for i, c in enumerate(text) if c == "+"]:
        head = text[start:i].split()
        if text[i + 1:i + 2] in tuple("0123456789.") and (
                not head or (not text[i - 1].isspace() and _EXPONENT_HEAD.fullmatch(head[-1]))):
            continue
        terms.append(text[start:i])
        start = i + 1
    return terms + [text[start:]]


def _parse_complex(text: str, species_index: dict[str, int], line: int):
    text = text.strip()
    if not text:
        raise ParseError("empty complex", line)
    coeffs = [Fraction(0)] * len(species_index)
    if text == "0":
        return tuple(coeffs)
    for part in _terms(text):
        tokens = part.split()
        if len(tokens) not in (1, 2):
            raise ParseError(f"malformed complex term {part.strip()!r}", line)
        *token, name = tokens
        try:  # stoichiometry stays exact: 0.5 A is 1/2 A
            coeff = frac(token[0]) if token else Fraction(1)
        except ValueError:
            raise ParseError(f"bad stoichiometric coefficient {token[0]!r}", line) from None
        if name not in species_index:
            raise UnknownSpeciesError(f"unknown species {name!r}", line)
        if coeff < 0:
            raise ParseError(f"negative stoichiometric coefficient for {name}", line)
        coeffs[species_index[name]] += coeff
    return tuple(coeffs)


_HILL_ENTRY = re.compile(r"^\(\s*f\s*=\s*(?P<f>[^,\s]+)\s*,\s*d\s*=\s*(?P<d>[^)\s]+)\s*\)$")


def _parse_hill_entry(token: str, line: int) -> tuple[object, object]:
    """`(f=<val>, d=<val>)` into its kinetic order and dissociation constant."""
    match = _HILL_ENTRY.match(token)
    if not match:
        raise ParseError(f"malformed hill entry {token!r}", line)
    return _parse_number(match["f"], line), _parse_number(match["d"], line)


def _parse_assignments(text: str, species_index: dict[str, int], line: int,
                       parse_value, form: str):
    """`S1=v, S2=v` into a {species index: value} dict, each value read by
    `parse_value`; `form` is the entry shape an error message asks for."""
    out: dict[int, object] = {}
    text = text.strip()
    if not text:
        return out
    # split on commas that are not inside parentheses
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    items.append(text[start:])
    for item in items:
        if "=" not in item:
            raise ParseError(f"expected {form}, got {item.strip()!r}", line)
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in species_index:
            raise UnknownSpeciesError(f"unknown species {name!r}", line)
        idx = species_index[name]
        if idx in out:
            raise ParseError(f"species {name} assigned twice", line)
        out[idx] = parse_value(value.strip(), line)
    return out


# Each kinetics-line keyword: the family whose block it belongs to, the
# reader of one entry's value and the entry shape its errors ask for.
_KINETICS_LINES = {
    "order": ("powerlaw", _parse_number, "name=value"),
    "term": ("polypl", _parse_number, "name=value"),
    "hill": ("hill", _parse_hill_entry, "name=(f=..., d=...)"),
}
_TERM = re.compile(r"^(?P<label>\S+)\s+coeff\s+(?P<coeff>\S+)\s*:\s*(?P<rest>.*)$")


def parse_crn(text: str) -> tuple[ReactionNetwork, Kinetics]:
    """Parse the text format into a validated network and kinetics."""
    species: list[str] = []
    species_index: dict[str, int] = {}
    complex_index: dict[tuple, int] = {}  # each distinct complex, by first appearance
    reactions: list[tuple[int, int, str]] = []
    rates: list[object] = []
    labels: dict[str, int] = {}
    family: str | None = None
    # reaction label -> [(term coefficient or None, {species index: value}), ...]
    rows: dict[str, list[tuple[object, dict[int, object]]]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        head = stmt.split(None, 1)[0]
        if head == "species":
            names = stmt.split()[1:]
            if not names:
                raise ParseError("species line declares no names", lineno)
            for name in names:
                # a complex reads such a name as a number or a term separator
                if "+" in name or _NUMBER.fullmatch(name) or _EXPONENT_HEAD.fullmatch(name):
                    raise ParseError(f"species name {name!r} reads as a number or contains +",
                                     lineno)
                if name in species_index:
                    raise ParseError(f"duplicate species {name!r}", lineno)
                species_index[name] = len(species)
                species.append(name)
        elif head == "kinetics":
            tokens = stmt.split()
            if family is not None:
                raise ParseError("second kinetics block", lineno)
            if len(tokens) != 2 or tokens[1] not in ("massaction", "powerlaw",
                                                     "polypl", "hill"):
                raise ParseError("expected: kinetics massaction|powerlaw|polypl|hill",
                                 lineno)
            family = tokens[1]
        elif head in _KINETICS_LINES:
            line_family, parse_value, form = _KINETICS_LINES[head]
            if family != line_family:
                raise ParseError(f"{head} lines require `kinetics {line_family}` first",
                                 lineno)
            body = stmt[len(head):].strip()
            if head == "term":
                match = _TERM.match(body)
                if not match:
                    raise ParseError("expected: term <label> coeff <a>: S=val, ...", lineno)
                label, rest = match["label"], match["rest"]
            else:
                label, _, rest = body.partition(":")
                label = label.strip()
            if label not in labels:
                raise ParseError(f"{head} line for unknown reaction {label!r}", lineno)
            coeff = None
            if head == "term":
                coeff = _parse_number(match["coeff"], lineno)
                if coeff <= 0:
                    raise ParseError("poly-PL term coefficients must be positive", lineno)
            elif label in rows:
                raise ParseError(f"duplicate {head} line for {label!r}", lineno)
            rows.setdefault(label, []).append(
                (coeff, _parse_assignments(rest, species_index, lineno, parse_value, form)))
        else:
            match = re.match(r"^(?P<label>[^:\s]+)\s*:\s*(?P<body>.*)$", stmt)
            if not match:
                raise ParseError(f"unrecognized statement {stmt!r}", lineno)
            label, body = match["label"], match["body"]
            if family is not None:
                raise ParseError("reaction lines must precede the kinetics block", lineno)
            if label in labels:
                raise ParseError(f"duplicate reaction label {label!r}", lineno)
            if "->" not in body:
                raise ParseError("reaction needs `->`", lineno)
            lhs, rhs = body.split("->", 1)
            rhs, _, rate_part = rhs.partition(" rate ")
            if not rate_part.strip():
                raise ParseError("reaction needs `rate <positive number>`", lineno)
            rate = _parse_number(rate_part.strip(), lineno)
            if rate <= 0:
                raise NegativeRateError(f"rate for {label} must be positive", lineno)
            ends = [_parse_complex(side, species_index, lineno) for side in (lhs, rhs)]
            reactant, product = (complex_index.setdefault(c, len(complex_index)) for c in ends)
            reactions.append((reactant, product, label))
            labels[label] = len(rates)
            rates.append(rate)

    if not species:
        raise ParseError("no species declared")
    if not reactions:
        raise ParseError("no reactions declared")
    if family is None:
        raise ParseError("no kinetics block")

    net = build_network(species, list(complex_index), reactions)
    if family == "massaction":
        return net, mass_action_from(net, rates)
    keyword = next(k for k, (f, _, _) in _KINETICS_LINES.items() if f == family)
    # a Hill entry is an (order, dissociation constant) pair
    zero = (Fraction(0), Fraction(0)) if family == "hill" else Fraction(0)
    terms = []
    for _, _, label in reactions:
        if label not in rows:
            raise MissingKineticsRowError(f"no {keyword} line for reaction {label!r}")
        reaction_terms = []
        for coeff, entries in rows[label]:
            row = [zero] * len(species)
            for idx, value in entries.items():
                row[idx] = value
            reaction_terms.append((coeff, row))
        terms.append(reaction_terms)
    if family == "polypl":
        return net, poly_pl(terms, rates)
    dense = [reaction_terms[0][1] for reaction_terms in terms]
    if family == "powerlaw":
        return net, power_law(dense, rates)
    return net, hill([[f for f, _ in row] for row in dense],
                     [[d for _, d in row] for row in dense], rates)


def _format_number(value) -> str:
    return str(value) if isinstance(value, Fraction) else repr(float(value))


def _format_assignments(values, species) -> str:
    parts = [f"{name}={_format_number(v)}"
             for v, name in zip(values, species) if v != 0]
    return ", ".join(parts)


def render_crn(net: ReactionNetwork, kin: Kinetics) -> str:
    """Text that parses back to an equal network and kinetics."""
    lines = ["species " + " ".join(net.species)]
    for rx, k in zip(net.reactions, kin.exact_rates or kin.rates):
        rate = _format_number(k if not float(k).is_integer() else Fraction(int(k)))
        lines.append(f"{rx.label}: {net.complexes[rx.reactant].format(net.species)}"
                     f" -> {net.complexes[rx.product].format(net.species)} rate {rate}")
    if isinstance(kin, PowerLawKinetics):
        lines.append("kinetics powerlaw")
        for rx, row in zip(net.reactions, kin.exact_orders or kin.orders):
            lines.append(f"order {rx.label}: {_format_assignments(row, net.species)}")
    elif isinstance(kin, PolyPLKinetics):
        lines.append("kinetics polypl")
        for rx, rx_coeffs, rx_orders in zip(net.reactions,
                                            kin.exact_term_coeffs or kin.term_coeffs,
                                            kin.exact_term_orders or kin.term_orders):
            for coeff, row in zip(rx_coeffs, rx_orders):
                lines.append(f"term {rx.label} coeff {_format_number(coeff)}: "
                             f"{_format_assignments(row, net.species)}")
    elif isinstance(kin, HillKinetics):
        lines.append("kinetics hill")
        for rx, f_row, d_row in zip(net.reactions, kin.orders, kin.dissoc):
            parts = [f"{name}=(f={_format_number(f)}, d={_format_number(d)})"
                     for name, f, d in zip(net.species, f_row, d_row) if f != 0]
            lines.append(f"hill {rx.label}: {', '.join(parts)}")
    else:
        raise ValueError("rendering is defined for power-law, poly-PL and hill kinetics")
    return "\n".join(lines) + "\n"
