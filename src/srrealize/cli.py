"""Command line interface.

Subcommands: check, construct, verify, partition, obstruct, prime.  Input is
a JSON complex from a file argument or stdin ("-").  Structured output is
JSON unless --format selects text or dot, byte for byte what
json.dumps(obj, indent=2) plus a newline writes.

Exit codes: 0 realizable (or success), 10 sufficient-only, 20 not realizable,
30 unknown, 40 hypothesis violated, 1 verification discrepancy or no
partition, 2 malformed input, invalid complex or diagram, a
facet-intersection poset above complexes.MAX_POSET_ELEMENTS, a truncation
above hilbert.MAX_TRUNCATION, or a prime beyond admissible._MR_BOUND.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from .admissible import (
    AdmissibleClass,
    Exceptional,
    Inadmissible,
    ObstructionReason,
    SpType,
    SUType,
    ThomasRank,
    Torus,
    class_degrees,
    classify,
    dirichlet_prime,
)
from .complexes import ComplexWithDegrees, complex_from_json
from .decide import (
    HypothesisViolated,
    NotRealizable,
    Realizable,
    SufficientOnly,
    Unknown,
    Verdict,
    find_partition,
    full_report,
)
from .diagram import (
    ColimitDiagram,
    build_diagram,
    diagram_from_json,
    emit_dot,
    emit_json,
    json_container,
    json_record,
    json_strings,
    json_value,
)
from .hilbert import MAX_TRUNCATION, check_truncation
from .verify import verify_construction

VERDICT_EXIT = {
    Realizable: 0, SufficientOnly: 10, NotRealizable: 20, Unknown: 30,
    HypothesisViolated: 40,
}
EXIT_INPUT_ERROR = 2


def reason_to_json(r: ObstructionReason) -> dict:
    if isinstance(r, ThomasRank):
        return {
            "kind": "ThomasRank",
            "target": r.target_degree,
            "i": r.i,
            "source": r.source_degree,
            "dimSource": r.dim_source,
            "dimTarget": r.dim_target,
        }
    return {"kind": type(r).__name__}


def reason_to_text(r: ObstructionReason) -> str:
    if isinstance(r, ThomasRank):
        return (
            f"ThomasRank target {r.target_degree} source {r.source_degree} "
            f"dims {r.dim_source}<{r.dim_target}"
        )
    return type(r).__name__


FAMILIES = {Torus: "Torus", SUType: "SU", SpType: "Sp", Exceptional: "Exceptional"}


def class_to_json(cls: AdmissibleClass) -> dict:
    if isinstance(cls, Inadmissible):
        return {"family": "Inadmissible", "reason": reason_to_json(cls.reason)}
    return {
        "family": FAMILIES[type(cls)],
        **vars(cls),
        "degrees": list(class_degrees(cls)),
    }


def class_to_text(cls: AdmissibleClass) -> str:
    if isinstance(cls, Inadmissible):
        return f"inadmissible: {reason_to_text(cls.reason)}"
    return f"{FAMILIES[type(cls)]} degrees {list(class_degrees(cls))}"


def _verdict_head(v: Verdict) -> dict:
    """The verdict's JSON fields, all but a Realizable verdict's per_sigma,
    which _check_json writes from templates."""
    j: dict = {"verdict": type(v).__name__}
    if isinstance(v, (Realizable, SufficientOnly)):
        j["partition"] = [list(b) for b in v.partition]
    elif isinstance(v, NotRealizable):
        j["witness"] = sorted(v.witness)
        j["reason"] = reason_to_json(v.reason)
    elif isinstance(v, HypothesisViolated):
        j["pair"] = list(v.pair)
        j["shared_power_degree"] = v.shared_power_degree
    return j


# A Realizable verdict's JSON, one per_sigma record per poset element.
_REALIZABLE = json_record(0, "verdict", "partition", "per_sigma") % (
    '"Realizable"', "%s", "%s") + "\n"
_SIGMA = json_record(2, "simplex", "class")


def _check_json(v: Verdict, head: dict) -> str:
    """check's JSON text.  Hundreds of poset elements share a handful of
    classes, so each distinct class record is encoded once."""
    if not isinstance(v, Realizable):
        return json_value(head) + "\n"
    classes: dict[AdmissibleClass, str] = {}
    sigmas = []
    for s, cls in v.per_sigma:
        text = classes.get(cls)
        if text is None:
            text = classes[cls] = json_value(class_to_json(cls), 3)
        sigmas.append(_SIGMA % (json_strings(sorted(s), 3), text))
    return _REALIZABLE % (json_value(head["partition"], 1),
                          json_container("[", sigmas, "]", 1))


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args: argparse.Namespace, json_text: Callable[[], str],
          text: Callable[[], str]) -> None:
    """Write a command's output to --output, or to stdout: json_text()
    under --format json, else text()."""
    out = json_text() if args.format == "json" else text()
    if args.output is None:
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)


def _default_truncation(c: ComplexWithDegrees) -> int:
    top = max(c.degree_map.values(), default=2)
    return 6 * top


def _diagram_or_exit_code(c: ComplexWithDegrees) -> ColimitDiagram | int:
    """The diagram over full_report's partition, or, when the verdict has
    none, the verdict's exit code after saying so on stderr."""
    verdict = full_report(c)
    if isinstance(verdict, (Realizable, SufficientOnly)):
        return build_diagram(c, verdict.partition)
    sys.stderr.write(f"no diagram: verdict is {type(verdict).__name__}\n")
    return VERDICT_EXIT[type(verdict)]


def _check_text(j: dict) -> str:
    lines = [j["verdict"]]
    if "partition" in j:
        lines.append(f"partition: {j['partition']}")
    if "witness" in j:
        lines.append(f"witness: {j['witness']} reason: {json.dumps(j['reason'])}")
    if "pair" in j:
        lines.append(f"pair: {j['pair']} shared degree {j['shared_power_degree']}")
    return "\n".join(lines) + "\n"


def cmd_check(args: argparse.Namespace) -> int:
    verdict = full_report(complex_from_json(_read_input(args.input)))
    head = _verdict_head(verdict)
    _emit(args, lambda: _check_json(verdict, head), lambda: _check_text(head))
    return VERDICT_EXIT[type(verdict)]


def cmd_construct(args: argparse.Namespace) -> int:
    diagram = _diagram_or_exit_code(complex_from_json(_read_input(args.input)))
    if isinstance(diagram, int):
        return diagram
    _emit(args, lambda: emit_json(diagram), lambda: emit_dot(diagram))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    c = complex_from_json(_read_input(args.input))
    truncation = args.max_degree
    if truncation is None:
        truncation = _default_truncation(c)
    check_truncation(truncation)
    if args.diagram is not None:
        with open(args.diagram, "r", encoding="utf-8") as fh:
            diagram = diagram_from_json(fh.read())
    else:
        diagram = _diagram_or_exit_code(c)
        if isinstance(diagram, int):
            return diagram
    report = verify_construction(c, diagram, truncation)
    _emit(args, report.to_json, report.to_text)
    return 0 if report.passed else 1


def cmd_partition(args: argparse.Namespace) -> int:
    part = find_partition(complex_from_json(_read_input(args.input)))
    blocks = None if part is None else [list(b) for b in part]
    text = "none" if part is None else " | ".join(",".join(b) for b in part)
    _emit(args, lambda: json_value({"partition": blocks}) + "\n",
          lambda: text + "\n")
    return 0 if part is not None else 1


def cmd_obstruct(args: argparse.Namespace) -> int:
    poset = complex_from_json(_read_input(args.input)).poset
    entries = [(list(k), list(ms), classify(ms))
               for k, ms in zip(poset.keys, poset.multisets)]
    obj = {"sigmas": [
        {"simplex": ids, "multiset": ms, "class": class_to_json(cls)}
        for ids, ms, cls in entries
    ]}
    _emit(args, lambda: json_value(obj) + "\n", lambda: "\n".join(
        f"sigma {ids}: multiset {ms} -> {class_to_text(cls)}"
        for ids, ms, cls in entries
    ) + "\n")
    return 0


def cmd_prime(args: argparse.Namespace) -> int:
    extras = args.extra or []
    p = dirichlet_prime(extras, args.gt)
    moduli = [16, 3, 5, 7] + list(extras)
    residues = ", ".join(f"mod {m} = {p % m}" for m in moduli)
    obj = {"prime": p, "residues": {str(m): p % m for m in moduli}}
    _emit(args, lambda: json_value(obj) + "\n", lambda: f"{p} ({residues})\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srrealize",
        description="Decide whether a graded Stanley-Reisner ring is an "
        "integral cohomology ring, build the witnessing colimit diagram, "
        "and verify it at Hilbert-function level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("input", nargs="?", default="-",
                       help="input JSON file, or - for stdin")
        p.add_argument("-o", "--output", default=None, help="output file")
        p.add_argument("--format", choices=list(formats), default=formats[0])

    p = sub.add_parser("check", help="print the realizability verdict")
    add_common(p, ("json", "text"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="emit the colimit diagram")
    add_common(p, ("json", "dot"))
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify the construction dimensionwise")
    add_common(p, ("json", "text"))
    p.add_argument("--max-degree", type=int, default=None,
                   help="even truncation degree, at most "
                   f"{MAX_TRUNCATION} (default: 6 x top degree)")
    p.add_argument("--diagram", default=None,
                   help="verify this diagram JSON instead of rebuilding")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partition", help="search for an admissible partition")
    add_common(p, ("json", "text"))
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("obstruct", help="classify every poset element")
    add_common(p, ("json", "text"))
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("prime", help="smallest prime in the congruence class")
    p.add_argument("--gt", type=int, default=0, help="lower bound (exclusive)")
    p.add_argument("--extra", type=int, action="append", default=None,
                   help="extra prime q > 7 forcing p = 2 mod q (repeatable)")
    p.add_argument("-o", "--output", default=None, help="output file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_prime)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # every srrealize error is a ValueError
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
