"""Command line runner.

Every command prints a run report as JSON (or a text rendering) whose
status is a ``Status``: Certified (also plain success), Refuted, Unknown,
or Error for input problems and internal errors; ``Status.exit_code``
turns it into 0, 1, 2 or 3.  Each statement has one entry point,
`verify`.  Each flag sits only on the commands that read it: `--budget` on
verify, reduce, collapse and nerve, `--seed` on fixtures, `--format` and
`--out` on all.
"""

from __future__ import annotations

import argparse
import glob
import os
import random
import sys
from typing import Any, Dict, Optional, Tuple

from . import fixtures as fixtures_mod
from .certificates import Oracle, StatementReport, Status
from .complexes import RegularCWComplex, SimplicialComplex, face_poset, order_complex
from .cylinder import (
    Relation,
    build_cylinder,
    mapping_cylinder,
    verify_equivalence,
    verify_homology_equivalence,
    verify_source_retraction,
    verify_target_retraction,
)
from .errors import InputError
from .formats import (
    complex_to_json,
    cw_to_json,
    dot_complex,
    dot_cw,
    dot_poset,
    json_scalar,
    load_object,
    object_from_json,
    poset_to_json,
    read_fixture_file,
)
from .homology import HomologyProfile, _poset_homology, euler_characteristic, homology
from .mapper import IntervalCover, PointCloud, mapper_completion, parse_filter
from .nerve import (
    ComplexCover,
    PosetCover,
    classify_cover,
    completion_poset,
    verify_corollary_completion,
    verify_nerve_theorem,
)
from .poset import ElementSet, Poset
from .reduction import (
    DEFAULT_BUDGET,
    core,
    find_beat_points,
    find_gamma_points,
    find_weak_points,
    collapse_search,
    shared_oracle,
    verify_dictionary,
)
from .report import RunReport

def profile_json(prof: HomologyProfile) -> Dict[str, Any]:
    return {
        "betti": list(prof.betti),
        "torsion": [list(t) for t in prof.torsion],
        "reduced": prof.reduced,
        "describe": prof.describe(),
    }


# ------------------------------------------------------------ input loading

def _load_input(token: str, report: RunReport) -> Tuple[Optional[dict], Any]:
    """Path, path with extension, or built in fixture name; records the
    hash of the file, or of the fixture's name, on the report.

    Returns (fixture wrapper or None, object).
    """
    for candidate in (token, token + ".json"):
        if os.path.isfile(candidate):
            loaded = load_object(candidate)
            report.add_input("input", path=candidate)
            return loaded
    if token in fixtures_mod.REGISTRY:
        f = fixtures_mod.get_fixture(token)
        report.add_input("input", payload=f.name)
        return fixtures_mod.fixture_wrapper(f), f.build()
    raise InputError(f"no such file or fixture: {token}")


def _as_relation(obj: Any, where: str) -> Relation:
    if isinstance(obj, Relation):
        return obj
    if isinstance(obj, tuple) and len(obj) == 3:
        source, target, mapping = obj
        return Relation.from_monotone_map(source, target, mapping)
    raise InputError(f"{where}: expected a relation or monotone map")


def _as_cover(obj: Any, where: str):
    if isinstance(obj, (PosetCover, ComplexCover)):
        return obj
    raise InputError(f"{where}: expected a cover")


# ----------------------------------------------------------- verify targets

def _homology_version(obj: Any, params: Dict[str, Any], ask: Oracle, where: str):
    r, n = _as_relation(obj, where), json_scalar(params.get("degree", 1), int, "degree", where)
    if n < 0:
        raise InputError(f"{where}: degree bound must be non-negative, got {n}")
    return verify_homology_equivalence(r, n)


def _nerve(variant: str):
    return lambda obj, _, ask, where: verify_nerve_theorem(_as_cover(obj, where), variant, ask)


def _completion_corollary(obj: Any, params: Dict[str, Any], ask: Oracle, where: str):
    cover = _as_cover(obj, where)
    if not isinstance(cover, ComplexCover):
        raise InputError(f"{where}: the completion corollary takes a complex cover")
    return verify_corollary_completion(cover, ask)


def _dictionary(obj: Any, params: Dict[str, Any], ask: Oracle, where: str):
    if not isinstance(obj, (Poset, SimplicialComplex)):
        raise InputError(f"{where}: the dictionary checks take a poset or a complex")
    return verify_dictionary(obj)


# theorem id -> (check taking input, params, verdict table and where; detail
# key).  run_theorem makes one table per statement from the budget, so no
# subspace is decided twice within it, and keeps the statement's status and
# certificates; single-file verify also prints its report under the key.
STATEMENTS = {
    "prop-2.4": (lambda o, _, a, w: verify_source_retraction(_as_relation(o, w), a), "hypotheses"),
    "prop-2.5": (lambda o, _, a, w: verify_target_retraction(_as_relation(o, w), a), "hypotheses"),
    "thm-a": (lambda o, _, a, w: verify_equivalence(_as_relation(o, w), a), "equivalence"),
    "prop-homology": (_homology_version, "homology_version"),
    "nerve-good": (_nerve("good-poset"), "nerve_theorem"),
    "nerve-x0": (_nerve("x-zero"), "nerve_theorem"),
    "nerve-quasigood": (_nerve("quasi-good"), "nerve_theorem"),
    "cor-completion": (_completion_corollary, "completion_corollary"),
    "dictionary": (_dictionary, "dictionary"),
}
THEOREMS = tuple(STATEMENTS)


def run_theorem(theorem: str, obj: Any, params: Dict[str, Any],
                budget: int, report: RunReport, where: str) -> StatementReport:
    """Run one statement, put its status and certificates on the report,
    and return the statement's own report for a caller that prints it."""
    if theorem not in STATEMENTS:
        raise InputError(f"unknown theorem id {theorem!r}; expected one of {', '.join(THEOREMS)}")
    rep = STATEMENTS[theorem][0](obj, params, shared_oracle(budget), where)
    report.set_status(rep.status)
    for label, certificate, target in rep.certificates():
        report.add_certificate(label, certificate, target)
    return rep


def _run_fixture_file(path: str, budget: int, only: Optional[str]) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"file": os.path.basename(path)}
    try:
        wrapper, data = read_fixture_file(path)
        if wrapper is None:
            entry.update(status=Status.ERROR, error="not a fixture file")
            return entry
        theorem = wrapper.get("theorem")
        entry["name"] = wrapper.get("name")
        entry["theorem"] = theorem
        if theorem is None or (only is not None and theorem != only):
            entry["status"] = "Skipped"
            return entry
        expected = wrapper.get("expected_status")
        obj = object_from_json(wrapper["kind"], data, path)
        sub = RunReport(f"verify {theorem}")
        params = wrapper.get("params") or {}
        run_theorem(theorem, obj, params, budget, sub, path)
        sub.finalize()
        entry["status"] = sub.status
        entry["expected"] = expected
        if expected is not None:
            entry["match"] = sub.status == expected
    except InputError as exc:
        entry.update(status=Status.ERROR, error=str(exc))
    except Exception as exc:
        # a failed soundness check or any other crash is this file's internal error;
        # the other files still run
        entry.update(status=Status.ERROR, internal_error=f"{type(exc).__name__}: {exc}")
    return entry


def _verify_batch(args, report: RunReport) -> None:
    directory = args.batch
    if not os.path.isdir(directory):
        raise InputError(f"not a directory: {directory}")
    files = sorted(glob.glob(os.path.join(glob.escape(directory), "*.json")))
    report.add_input("batch", payload=[os.path.basename(p) for p in files])
    if not files:
        raise InputError(f"no fixture files in {directory}")
    results = [_run_fixture_file(p, args.budget, args.theorem) for p in files]
    report.detail["fixtures"] = results
    ran = [e for e in results if e["status"] != "Skipped"]
    report.detail["counts"] = {
        "total": len(results),
        "ran": len(ran),
        "mismatched": sum(1 for e in ran if e.get("match") is False),
        "errors": sum(1 for e in ran if e["status"] is Status.ERROR),
    }
    if any(e["status"] is Status.ERROR for e in ran):
        report.set_status(Status.ERROR)
    elif any(e.get("match") is False for e in ran):
        report.set_status(Status.REFUTED)
    elif not ran or any(e["status"] is Status.UNKNOWN and e.get("expected") is None for e in ran):
        report.set_status(Status.UNKNOWN)
    else:
        report.set_status(Status.CERTIFIED)


# ---------------------------------------------------------------- commands

# Each command returns its report and the object that --format dot draws:
# a Poset, a SimplicialComplex, a RegularCWComplex, or None for verify,
# collapse and fixtures, which draw nothing.

def cmd_verify(args) -> Tuple[RunReport, Any]:
    report = RunReport("verify" + (f" {args.theorem}" if args.theorem else ""))
    if args.degree is not None and (args.batch or args.theorem != "prop-homology"):
        raise InputError("--degree is read only by verify prop-homology, and not with --batch")
    if args.batch:
        _verify_batch(args, report)
        return report, None
    if not args.theorem or not args.input:
        raise InputError("verify needs a theorem id and an input file, or --batch <dir>")
    wrapper, obj = _load_input(args.input, report)
    params: Dict[str, Any] = dict(wrapper.get("params") or {}) if wrapper else {}
    if args.degree is not None:
        params["degree"] = args.degree
    rep = run_theorem(args.theorem, obj, params, args.budget, report, args.input)
    report.detail[STATEMENTS[args.theorem][1]] = rep.to_json_dict()
    for label, profile in rep.homology_profiles():
        report.add_homology(label, profile_json(profile))
    return report, None


def cmd_homology(args) -> Tuple[RunReport, Any]:
    report = RunReport("homology")
    _, obj = _load_input(args.input, report)
    if not isinstance(obj, (Poset, SimplicialComplex, RegularCWComplex)):
        raise InputError(f"{args.input}: homology takes a poset, complex, or CW complex")
    prof = homology(obj, reduced=args.reduced)
    report.add_homology("input", profile_json(prof))
    report.detail["euler_characteristic"] = euler_characteristic(obj)
    report.set_status(Status.CERTIFIED)
    return report, obj


def _load_poset(token: str, report: RunReport) -> Poset:
    _, obj = _load_input(token, report)
    if isinstance(obj, Poset):
        return obj
    if isinstance(obj, SimplicialComplex):
        return face_poset(obj)
    raise InputError(f"{token}: expected a poset (a complex is accepted as its face poset)")


def cmd_reduce(args) -> Tuple[RunReport, Any]:
    report = RunReport("reduce")
    p = _load_poset(args.input, report)
    beats = find_beat_points(p)
    weaks = find_weak_points(p)
    ask = shared_oracle(args.budget)
    gammas, unknowns = find_gamma_points(p, ask)
    q, cert = core(p)
    verdict = ask(ElementSet(p, p.full_mask()))
    report.detail.update({
        "beat_points": [list(t) for t in beats],
        "weak_points": [list(t) for t in weaks],
        "gamma_points": [list(t) for t in gammas],
        "gamma_unknown": [list(t) for t in unknowns],
        "core_size": len(q),
        "core_elements": list(q.elements),
        "oracle": verdict.to_json_dict(),
    })
    report.add_certificate("core", cert, p)
    if verdict.certificate is not None:
        report.add_certificate("oracle", verdict.certificate, p)
    report.set_status(Status.of_verdicts([verdict]))
    return report, q


def cmd_core(args) -> Tuple[RunReport, Any]:
    report = RunReport("core")
    p = _load_poset(args.input, report)
    q, cert = core(p)
    report.detail["core"] = poset_to_json(q)
    report.detail["removed"] = len(p) - len(q)
    report.add_certificate("core", cert, p)
    report.set_status(Status.CERTIFIED)
    return report, q


def cmd_collapse(args) -> Tuple[RunReport, Any]:
    report = RunReport("collapse")
    p = _load_poset(args.input, report)
    cert, stats = collapse_search(p, [args.target], args.budget)
    report.detail["search"] = stats
    if cert is None:
        report.set_status(Status.UNKNOWN)
    else:
        report.add_certificate("collapse", cert, p)
        report.set_status(Status.CERTIFIED)
    return report, None


def cmd_cylinder(args) -> Tuple[RunReport, Any]:
    report = RunReport(f"cylinder {args.action}")
    _, obj = _load_input(args.input, report)
    if isinstance(obj, tuple):
        cyl = mapping_cylinder(*obj)
        if cyl.retraction_certificate is not None:
            report.add_certificate("beat-retraction", cyl.retraction_certificate, cyl.poset)
    else:
        cyl = build_cylinder(_as_relation(obj, args.input))
    report.detail["cylinder"] = poset_to_json(cyl.poset)
    report.detail["source_part"] = sorted(cyl.source_part.members)
    report.detail["target_part"] = sorted(cyl.target_part.members)
    report.set_status(Status.CERTIFIED)
    return report, cyl.poset


def cmd_nerve(args) -> Tuple[RunReport, Any]:
    report = RunReport("nerve")
    _, obj = _load_input(args.input, report)
    cover = _as_cover(obj, args.input)
    nerve_complex = cover.nerve()
    cls = classify_cover(cover, shared_oracle(args.budget))
    report.detail["nerve"] = complex_to_json(nerve_complex)
    report.detail["classification"] = cls.to_json_dict()
    report.add_homology("nerve", profile_json(homology(nerve_complex)))
    report.add_homology("base", profile_json(homology(cover.base)))
    report.set_status(Status.UNKNOWN if cls.status == "unknown" else Status.CERTIFIED)
    return report, nerve_complex


def cmd_completion(args) -> Tuple[RunReport, Any]:
    report = RunReport("completion")
    _, obj = _load_input(args.input, report)
    cover = _as_cover(obj, args.input)
    comp = completion_poset(cover)
    report.detail["completion"] = poset_to_json(comp.poset)
    report.detail["cells_by_dim"] = {
        str(d): sorted(lab for lab, dd in comp.dim.items() if dd == d)
        for d in sorted(set(comp.dim.values()))
    }
    cw = comp.as_cw()
    report.detail["f_vector"] = list(cw.f_vector())
    report.add_homology("completion", profile_json(homology(cw)))
    report.add_homology("base", profile_json(homology(cover.base)))
    report.set_status(Status.CERTIFIED)
    return report, cw


def cmd_mapper(args) -> Tuple[RunReport, Any]:
    report = RunReport("mapper")
    _, cloud = _load_input(args.input, report)
    if not isinstance(cloud, PointCloud):
        raise InputError(f"{args.input}: mapper takes a point cloud, as a CSV file or a fixture name")
    spec = parse_filter(args.filter)
    cover = IntervalCover(args.intervals, args.overlap)
    result = mapper_completion(cloud, spec, cover, args.epsilon)
    report.detail["mapper"] = result.to_json_dict()
    report.add_homology("completion", profile_json(result.completion_homology))
    report.add_homology("nerve", profile_json(result.nerve_homology))
    report.add_homology("component-nerve", profile_json(result.component_nerve_homology))
    report.set_status(Status.CERTIFIED)
    if args.emit == "completion":
        report.detail["emitted"] = cw_to_json(result.complex)
        return report, result.complex
    shown = result.nerve if args.emit == "nerve" else result.component_nerve
    report.detail["emitted"] = complex_to_json(shown)
    return report, shown


def cmd_fixtures(args) -> Tuple[RunReport, Any]:
    report = RunReport(f"fixtures {args.action}")
    if args.action == "list":
        report.detail["fixtures"] = [
            {
                "name": f.name,
                "kind": f.kind,
                "theorem": f.theorem,
                "expected_status": f.expected_status,
                "description": f.description,
            }
            for f in fixtures_mod.all_fixtures()
        ]
    elif args.action == "emit":
        names = [args.name] if args.name else sorted(fixtures_mod.REGISTRY)
        report.detail["written"] = [
            fixtures_mod.write_fixture(fixtures_mod.get_fixture(name), args.dir) for name in names
        ]
    else:
        if args.seed is None:
            raise InputError("fixtures generate needs an explicit --seed")
        if args.recipe is None:
            raise InputError("fixtures generate needs a --recipe")
        rng = random.Random(args.seed)
        report.detail["written"] = [
            fixtures_mod.write_fixture(
                fixtures_mod.generated_fixture(args.recipe, rng, f"{args.recipe}-{args.seed}-{k:03d}"),
                args.dir)
            for k in range(args.count)
        ]
    report.set_status(Status.CERTIFIED)
    return report, None


# ------------------------------------------------------------------ parser

FORMATS = ("json", "text", "dot")


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: they exit 3, not argparse's 2 (Unknown)."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    budget = _Parser(add_help=False)
    budget.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET,
                        help="search node budget for oracle calls")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json")
    common.add_argument("--out", help="write output to this path instead of stdout")

    parser = _Parser(
        prog="finitetopo",
        description="homotopy tools for finite posets: reductions, relation "
                    "cylinders, nerves, completions, homology, mapper",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common, budget],
                       help="beat/weak/gamma points, core, and the triviality oracle")
    p.add_argument("input")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("core", parents=[common], help="beat point core with certificate")
    p.add_argument("input")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("collapse", parents=[common, budget], help="collapse search onto --target")
    p.add_argument("input")
    p.add_argument("--target", required=True, help="the element to collapse onto")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("cylinder", parents=[common], help="relation cylinder operations")
    p.add_argument("action", choices=("build",))
    p.add_argument("input")
    p.set_defaults(func=cmd_cylinder)

    p = sub.add_parser("nerve", parents=[common, budget], help="nerve and cover classification")
    p.add_argument("input")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("completion", parents=[common],
                       help="completion of the nerve of a cover")
    p.add_argument("input")
    p.set_defaults(func=cmd_completion)

    p = sub.add_parser("homology", parents=[common], help="integer homology profile")
    p.add_argument("input")
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("verify", parents=[common, budget], help="check a named statement")
    p.add_argument("theorem", nargs="?", choices=THEOREMS)
    p.add_argument("input", nargs="?")
    p.add_argument("--batch", help="run every fixture file in a directory")
    p.add_argument("--degree", type=non_negative_int, default=None,
                   help="degree bound for prop-homology")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mapper", parents=[common], help="mapper pipeline on a point cloud")
    p.add_argument("input", help="CSV file or point cloud fixture name")
    p.add_argument("--filter", default="x")
    p.add_argument("--intervals", type=int, default=4)
    p.add_argument("--overlap", type=float, default=0.3)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--emit", choices=("nerve", "component-nerve", "completion"),
                   default="completion")
    p.set_defaults(func=cmd_mapper)

    p = sub.add_parser("fixtures", parents=[common], help="shipped and generated fixtures")
    p.add_argument("action", choices=("list", "emit", "generate"))
    p.add_argument("--name", help="emit only this fixture")
    p.add_argument("--dir", default="fixtures")
    p.add_argument("--recipe", choices=tuple(fixtures_mod.RECIPES),
                   help="generator recipe for the generate action")
    p.add_argument("--count", type=non_negative_int, default=1)
    p.add_argument("--seed", type=int, help="seed for the generate action")
    p.set_defaults(func=cmd_fixtures)

    return parser


def _render_text(report: RunReport) -> str:
    data = report.to_json_dict()
    lines = [f"command: {data['command']}", f"status: {data['status']}"]
    for entry in data["homology"]:
        label = entry.get("label", "?")
        lines.append(f"homology[{label}]: {entry.get('describe', '')}")
    for key, value in sorted(data["detail"].items()):
        if isinstance(value, (str, int, float, bool)):
            lines.append(f"{key}: {value}")
        elif isinstance(value, list) and all(isinstance(v, (str, int, float)) for v in value):
            lines.append(f"{key}: {', '.join(str(v) for v in value)}")
    if data["certificates"]:
        sizes = ", ".join(
            f"{c['label']}({len(c['certificate'].get('steps', []))})"
            for c in data["certificates"]
        )
        lines.append(f"certificates: {sizes}")
    return "\n".join(lines) + "\n"


def _check_out(out: Optional[str]) -> None:
    """Reject an --out path that cannot be written, before any work is done."""
    if not out:
        return
    if os.path.isdir(out):
        raise InputError(f"--out {out}: is a directory")
    parent = os.path.dirname(out)
    if parent and not os.path.isdir(parent):
        raise InputError(f"--out {out}: no directory {parent}")


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# built once per process: parsing reads the parser and never changes it
_PARSER = build_parser()
# every cache a command can fill, in a tuple that a tracer rebinding module names leaves alone
_CACHES = (order_complex, _poset_homology)


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Every call parses with the one parser built when the module is
    loaded, so a caller that runs many commands in one process (the tests,
    code that embeds the CLI) does not rebuild its ten subcommands each
    time; it empties every cache, so no command reads another's."""
    for cache in _CACHES:
        cache.cache_clear()
    try:
        args = _PARSER.parse_args(argv)
        _check_out(args.out)
        if args.format == "dot" and args.command in ("verify", "collapse", "fixtures"):
            raise InputError(f"{args.command} has no dot output")
        report, shown = args.func(args)
        report.finalize()
        if args.format == "dot":
            if isinstance(shown, Poset):
                text = dot_poset(shown)
            elif isinstance(shown, SimplicialComplex):
                text = dot_complex(shown)
            else:
                text = dot_cw(shown)
        elif args.format == "text":
            text = _render_text(report)
        else:
            text = report.to_json()
        _write_output(text, args.out)
        return report.exit_code
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return Status.ERROR.exit_code
    except Exception as exc:
        # a failed soundness check, a ReplayError outside a report's replay,
        # or any other crash is not a verdict: exit 1 stays reserved for Refuted
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return Status.ERROR.exit_code


if __name__ == "__main__":
    sys.exit(main())
