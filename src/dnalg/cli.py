"""Command-line front end.

Presentation files are UTF-8 text with ``#`` comments; statements are
separated by newlines or semicolons:

    p = 3
    generator y4 halfdeg 2
    generator y8 halfdeg 4
    action P^1 y4 = y8
    action P^2 y4 = y4^3        # may be omitted: the top power is forced

Action polynomials use ``+``, integer coefficients, ``*`` and ``^``.  A
missing top entry ``P^{m} y = y^p`` is filled in automatically and noted in
the report.

Reports are JSON documents with a fixed key order, so identical inputs and
flags produce byte-identical output; the plain-text rendering is derived
from the JSON document.  Exit status: 0 for success/PASS, 1 for a checker
FAIL (with a witness in the report), 2 for input errors, 3 for an internal
error (an unexpected exception, reported on stderr).  Each command returns
its report and a pass flag; ``main`` writes the flag as the report's last
key ``overall`` and exits 0 exactly when it is true.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys

from . import __version__
from .dn import DnSearchConfig, check_dn, max_dn_report
from .polytopes import boundary_census
from .steenrod import SteenrodParseError, parse_element, render_element
from .theorems import (
    DeriveBoundExceeded,
    IdealNotClosed,
    check_prop_a,
    check_thm_a,
    derive_actions,
    normalize_generators,
    reduce_frobenius,
    thmc_bound,
)
from .truncated import (
    AlgebraError,
    AlgebraPresentation,
    render_polynomial,
    validate_action,
)


class PresentationError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.line = line
        self.column = column


_STMT_RE = {
    "p": re.compile(r"^p\s*=\s*(\d+)$"),
    "generator": re.compile(r"^generator\s+([A-Za-z_]\w*)\s+halfdeg\s+(\d+)$"),
    "action": re.compile(r"^action\s+P\^(\d+)\s+([A-Za-z_]\w*)\s*=\s*(.+)$"),
}

_POLY_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\^|\*|\+)")


def _parse_polynomial(text: str, names: dict[str, int], l: int, line: int):
    """Parse ``2*y4^2*y8 + y8^2`` into an exponent-vector dict."""
    terms: dict[tuple[int, ...], int] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise PresentationError("empty term in polynomial", line)
        pos = 0
        coeff = 1
        exps = [0] * l
        saw = False
        expect_power_of: int | None = None
        while pos < len(chunk):
            match = _POLY_TOKEN.match(chunk, pos)
            if not match:
                raise PresentationError(
                    f"unexpected character {chunk[pos]!r} in polynomial", line, pos + 1
                )
            tok = match.group(1)
            pos = match.end()
            if tok == "*":
                continue
            if tok == "^":
                if expect_power_of is None:
                    raise PresentationError("dangling '^'", line, pos)
                m2 = _POLY_TOKEN.match(chunk, pos)
                if not m2 or not m2.group(1).isdigit():
                    raise PresentationError("'^' must be followed by an integer", line, pos)
                exps[expect_power_of] += int(m2.group(1)) - 1
                pos = m2.end()
                expect_power_of = None
                continue
            if tok.isdigit():
                coeff *= int(tok)
                expect_power_of = None
                saw = True
                continue
            if tok not in names:
                raise PresentationError(f"unknown generator {tok!r}", line, pos)
            exps[names[tok]] += 1
            expect_power_of = names[tok]
            saw = True
        if not saw:
            raise PresentationError(f"cannot parse term {chunk!r}", line)
        if coeff == 0:
            continue
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return {k: v for k, v in terms.items() if v}


def _statements(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        for stmt in body.split(";"):
            stmt = stmt.strip()
            if stmt:
                yield lineno, stmt


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse presentation text into a (structurally checked) presentation."""
    p: int | None = None
    gens: list[tuple[str, int]] = []
    raw_actions: list[tuple[int, int, str, str]] = []  # line, k, name, poly text
    for line, stmt in _statements(text):
        if m := _STMT_RE["p"].match(stmt):
            if p is not None:
                raise PresentationError("p was already set", line)
            p = int(m.group(1))
        elif m := _STMT_RE["generator"].match(stmt):
            name, half = m.group(1), int(m.group(2))
            if any(n == name for n, _ in gens):
                raise PresentationError(f"duplicate generator {name!r}", line)
            gens.append((name, half))
        elif m := _STMT_RE["action"].match(stmt):
            raw_actions.append((line, int(m.group(1)), m.group(2), m.group(3)))
        else:
            raise PresentationError(f"cannot parse statement {stmt!r}", line)
    if p is None:
        raise PresentationError("missing 'p = <prime>'")
    from .fp import is_prime

    if p == 2 or not is_prime(p):
        raise PresentationError(f"p must be an odd prime, got {p}")
    gens.sort(key=lambda nm: (nm[1], nm[0]))
    names = {name: i for i, (name, _) in enumerate(gens)}
    half = {name: m for name, m in gens}
    action: dict[tuple[str, int], dict] = {}
    for line, k, name, poly_text in raw_actions:
        if name not in names:
            raise PresentationError(f"action for unknown generator {name!r}", line)
        if k < 1:
            raise PresentationError("action lines need k >= 1", line)
        poly = _parse_polynomial(poly_text, names, len(gens), line)
        want = 2 * half[name] + 2 * k * (p - 1)
        for exps in poly:
            got = sum(2 * m * e for (_, m), e in zip(gens, exps))
            if got != want:
                raise PresentationError(
                    f"P^{k} {name} term has degree {got}, expected {want}", line
                )
        if (name, k) in action:
            raise PresentationError(f"duplicate action line for P^{k} {name}", line)
        action[(name, k)] = poly
    try:
        return AlgebraPresentation(p, gens, action)
    except AlgebraError as exc:
        raise PresentationError(str(exc)) from exc


def render_presentation(a: AlgebraPresentation) -> str:
    """Canonical text form; parsing it back gives an equal presentation.
    It lists every entry P^k y_i with 1 <= k <= m_i, zero or not, whether
    or not ``a`` stores it, and any stored entry above m_i."""
    lines = [f"p = {a.p}"]
    for name, m in zip(a.names, a.half_degrees):
        lines.append(f"generator {name} halfdeg {m}")
    below = {(i, k) for i, m in enumerate(a.half_degrees) for k in range(1, m + 1)}
    for (i, k) in sorted(below.union(a.stored_entries())):
        entry = a.action_entry(i, k)
        lines.append(f"action P^{k} {a.names[i]} = {render_polynomial(entry)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


def _digest(data: str) -> str:
    return "sha256:" + hashlib.sha256(data.encode("utf-8")).hexdigest()


def _report(command: str, digest: str, config: dict) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "config": config,
        "verdicts": [],
        "witnesses": [],
        "search_bounds": {},
        "version": __version__,
    }


def render_text(doc, indent: int = 0) -> str:
    """Plain-text rendering derived from the JSON document."""
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(doc)}")
    return "\n".join(lines)


def _load(args, config: dict) -> tuple[AlgebraPresentation, dict]:
    """Parse ``args.file`` and start its report under ``args.command``, the
    subcommand name, noting any autofilled action entries in the config."""
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PresentationError(f"cannot read {args.file}: {exc}")
    a = parse_presentation(text)
    report = _report(args.command, _digest(text), config)
    if a.autofilled:
        config["autofilled"] = [f"P^{k} {name}" for name, k in a.autofilled]
    return a, report


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> tuple[dict, bool]:
    a, report = _load(args, {})
    result = validate_action(a)
    report["verdicts"] = [
        {"check": "unstable", "ok": not result.unstable_failures,
         "failures": list(result.unstable_failures)},
        {"check": "adem", "ok": not result.adem_failures,
         "failures": [
             {"a": f.a, "b": f.b, "degree": f.degree,
              "monomial": list(f.monomial)}
             for f in result.adem_failures
         ],
         "instances_checked": result.instances_checked},
    ]
    return report, result.ok


def _cmd_normalize(args) -> tuple[dict, bool]:
    a, report = _load(args, {})
    _require_valid(a)
    norm = normalize_generators(a)
    report["verdicts"] = [{"check": "p1-normal-form", "ok": True}]
    report["presentation"] = render_presentation(norm.presentation).splitlines()
    report["generator_images"] = [
        render_polynomial(img) for img in norm.images
    ]
    return report, True


def _require_valid(a: AlgebraPresentation) -> None:
    result = validate_action(a)
    if not result.ok:
        raise PresentationError(
            "presentation does not define an action: "
            + "; ".join(
                list(result.unstable_failures)
                + [f"P^{f.a} P^{f.b} fails on degree {f.degree}" for f in result.adem_failures]
            )
        )


def _dn_config(args) -> DnSearchConfig:
    try:
        return DnSearchConfig(max_support=args.max_support, theta_dim_bound=args.theta_dim_bound)
    except ValueError as exc:
        raise PresentationError(str(exc))


def _require_order(a: AlgebraPresentation, n: int) -> None:
    if not 1 <= n <= a.p:
        raise PresentationError(f"order must satisfy 1 <= n <= p, got n = {n} at p = {a.p}")


def _cmd_check_dn(args) -> tuple[dict, bool]:
    a, report = _load(args, {"n": args.n, "max_support": args.max_support,
                             "theta_dim_bound": args.theta_dim_bound})
    config = _dn_config(args)
    _require_order(a, args.n)
    _require_valid(a)
    result = check_dn(a, args.n, config)
    report["verdicts"] = [r.to_dict() for r in result.degrees]
    if result.violation is not None:
        report["witnesses"] = [result.violation.to_dict()]
    report["search_bounds"] = result.search_bounds()
    return report, result.ok


def _cmd_max_dn(args) -> tuple[dict, bool]:
    a, report = _load(args, {"max_support": args.max_support,
                             "theta_dim_bound": args.theta_dim_bound})
    config = _dn_config(args)
    _require_valid(a)
    passing = max_dn_report(a, config)
    report["verdicts"] = [{"check": "max-order", "value": passing.n}]
    report["search_bounds"] = passing.search_bounds()
    return report, True


def _cmd_check_propa(args) -> tuple[dict, bool]:
    a, report = _load(args, {"n": args.n})
    _require_order(a, args.n)
    _require_valid(a)
    norm = normalize_generators(a)
    result = check_prop_a(norm, args.n)
    report["verdicts"] = [
        {"check": "pure-power-lifting", "ok": result.ok,
         "checked": result.checked,
         "failures": [
             {"i": norm.presentation.names[i], "j": norm.presentation.names[j], "t": t}
             for i, j, t in result.failures
         ]}
    ]
    return report, result.ok


def _cmd_check_thma(args) -> tuple[dict, bool]:
    a, report = _load(args, {})
    _require_valid(a)
    result = check_thm_a(a)
    report["verdicts"] = [v.to_dict() for v in result.verdicts]
    report["witnesses"] = [v.to_dict() for v in result.failures()]
    return report, result.ok


def _cmd_reduce(args) -> tuple[dict, bool]:
    a, report = _load(args, {})
    _require_valid(a)
    try:
        reduced = reduce_frobenius(a)
    except IdealNotClosed as exc:
        report["verdicts"] = [{"check": "ideal-closure", "ok": False}]
        report["witnesses"] = [{
            "generator": exc.generator, "k": exc.k,
            "escaping_part": render_polynomial(exc.value),
        }]
        return report, False
    report["verdicts"] = [{"check": "ideal-closure", "ok": True}]
    report["presentation"] = render_presentation(reduced.presentation).splitlines()
    report["kept_generators"] = [a.names[i] for i in reduced.kept]
    return report, True


def _cmd_derive(args) -> tuple[dict, bool]:
    halfdegs = _int_list(args.halfdegs)
    digest = _digest(f"derive p={args.p} halfdegs={halfdegs}")
    report = _report("derive", digest, {"p": args.p, "halfdegs": halfdegs,
                                        "max_unknowns": args.max_unknowns})
    try:
        solutions = derive_actions(args.p, halfdegs, max_unknowns=args.max_unknowns)
    except (DeriveBoundExceeded, ValueError) as exc:  # ValueError covers AlgebraError
        raise PresentationError(str(exc))
    report["verdicts"] = [{"check": "solutions", "count": len(solutions)}]
    report["presentations"] = [
        render_presentation(s).splitlines() for s in solutions
    ]
    return report, True


def _cmd_thmc(args) -> tuple[dict, bool]:
    dims = _int_list(args.dims)
    digest = _digest(f"thmc p={args.p} dims={dims}")
    report = _report("thmc", digest, {"p": args.p, "dims": dims})
    try:
        bound = thmc_bound(args.p, dims)
    except ValueError as exc:
        raise PresentationError(str(exc))
    notes = [
        "bound covers compatibility of the commutativity order with the "
        "multiplicative structure; existence questions beyond it are out of scope"
    ]
    m_l = (max(dims) + 1) // 2
    if m_l == 1:
        notes.append(
            "largest sphere is a circle: the literal criterion gives n <= p, "
            "although circles support all orders"
        )
    report["verdicts"] = [{"check": "largest-order", "value": bound, "m_l": m_l}]
    report["notes"] = notes
    return report, True


def _cmd_gamma(args) -> tuple[dict, bool]:
    digest = _digest(f"gamma n={args.n} census={args.census}")
    report = _report("gamma", digest, {"n": args.n, "census": bool(args.census)})
    try:  # checks 1 <= n <= 5 before any smaller census is built
        top = boundary_census(args.n)
    except ValueError as exc:
        raise PresentationError(str(exc))
    smaller = range(1, args.n) if args.census else ()
    report["census"] = [boundary_census(k) for k in smaller] + [top]
    report["verdicts"] = [
        {"n": c["n"], "vertices": c["vertices"], "facets": c["facets"]}
        for c in report["census"]
    ]
    return report, True


def _cmd_steenrod(args) -> tuple[dict, bool]:
    digest = _digest(f"steenrod p={args.p} eval={args.eval}")
    report = _report("steenrod", digest, {"p": args.p, "eval": args.eval})
    try:
        element = parse_element(args.eval, args.p)
    except (SteenrodParseError, ValueError) as exc:
        raise PresentationError(str(exc))
    report["verdicts"] = [{"normal_form": render_element(element),
                           "degree": element.degree()}]
    return report, True


def _int_list(text: str) -> list[int]:
    """A nonempty comma-separated integer list; an empty item is an error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise PresentationError(f"expected a comma-separated integer list, got {text!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnalg",
        description="Exact workbench for truncated unstable algebras and "
        "permuto-associahedron combinatorics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")
    common.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate, help="validate a presentation file")
    sp.add_argument("file")

    sp = add("normalize", _cmd_normalize, help="normalize generators")
    sp.add_argument("file")

    defaults = DnSearchConfig()

    def add_dn(name, fn, **kwargs):
        sp = add(name, fn, **kwargs)
        sp.add_argument("file")
        sp.add_argument("--max-support", type=int, default=defaults.max_support)
        sp.add_argument("--theta-dim-bound", type=int, default=defaults.theta_dim_bound)
        return sp

    sp = add_dn("check-dn", _cmd_check_dn, help="decide the order-n correction condition")
    sp.add_argument("--n", type=int, required=True)

    add_dn("max-dn", _cmd_max_dn, help="largest passing order")

    sp = add("check-propA", _cmd_check_propa, help="pure-power lifting check")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, required=True)

    sp = add("check-thmA", _cmd_check_thma, help="induced-map range checks")
    sp.add_argument("file")

    sp = add("reduce", _cmd_reduce, help="Frobenius-degree reduction")
    sp.add_argument("file")

    sp = add("derive", _cmd_derive, help="enumerate consistent action tables")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--halfdegs", required=True)
    sp.add_argument("--max-unknowns", type=int, default=12, dest="max_unknowns")

    sp = add("thmc", _cmd_thmc, help="compatible-commutativity bound for sphere products")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--dims", required=True)

    sp = add("gamma", _cmd_gamma, help="permuto-associahedron census")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--census", action="store_true")

    sp = add("steenrod", _cmd_steenrod, help="normal form of an operation expression")
    sp.add_argument("--eval", required=True)
    sp.add_argument("--p", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, ok = args.fn(args)
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A fault of the program, never a checker FAIL: keep it off exit 1.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report["overall"] = ok
    payload = (
        json.dumps(report, indent=2) + "\n"
        if args.format == "json"
        else render_text(report) + "\n"
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if not args.quiet:
        sys.stdout.write(payload)
    return 0 if ok else 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
