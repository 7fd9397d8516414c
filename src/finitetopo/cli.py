"""Command line runner.

Every command prints a run report as JSON (or a text rendering) and
exits 0 for Certified or plain success, 1 for Refuted, 2 for Unknown,
and 3 for input problems.  Flags can be defaulted through environment
variables named FINITETOPO_BUDGET, FINITETOPO_SEED, FINITETOPO_FORMAT
and FINITETOPO_OUT; an explicit flag always wins.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import sys
from typing import Any, Dict, Optional, Tuple

from . import fixtures as fixtures_mod
from .complexes import RegularCWComplex, SimplicialComplex, face_poset
from .cylinder import (
    Relation,
    build_cylinder,
    check_source_retraction,
    check_target_retraction,
    collapse_cylinder_to_source,
    collapse_cylinder_to_target,
    mapping_cylinder,
    verify_equivalence,
    verify_homology_equivalence,
)
from .errors import InputError, NotCertified, ReplayError, ValidationError
from .formats import (
    complex_cover_from_json,
    complex_to_json,
    cw_to_json,
    dot_complex,
    dot_cw,
    dot_poset,
    load_json_file,
    parse_complex_text,
    parse_poset_text,
    poset_cover_from_json,
    poset_from_json,
    poset_to_json,
    complex_from_json,
    cw_from_json,
    read_text_file,
    relation_from_json,
)
from .homology import HomologyProfile, euler_characteristic, homology
from .mapper import IntervalCover, PointCloud, mapper_completion, parse_filter
from .nerve import (
    ComplexCover,
    PosetCover,
    classify_cover,
    completion_poset,
    verify_corollary_completion,
    verify_nerve_theorem,
)
from .poset import Poset
from .reduction import (
    DEFAULT_BUDGET,
    core,
    find_beat_points,
    find_gamma_points,
    find_weak_points,
    collapse_search,
    triviality_oracle,
    verify_dictionary,
)
from .report import RunReport

ENV_PREFIX = "FINITETOPO_"

THEOREMS = (
    "prop-2.4",
    "prop-2.5",
    "thm-a",
    "prop-homology",
    "nerve-good",
    "nerve-x0",
    "nerve-quasigood",
    "cor-completion",
    "dictionary",
)

_NERVE_VARIANT = {
    "nerve-good": "good-poset",
    "nerve-x0": "x-zero",
    "nerve-quasigood": "quasi-good",
}

_STATUS_WORD = {
    "certified": "Certified",
    "refuted": "Refuted",
    "unknown": "Unknown",
    "Certified": "Certified",
    "Refuted": "Refuted",
    "Unknown": "Unknown",
}


def _env(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise InputError(f"bad value {raw!r} for {ENV_PREFIX}{name}")


def profile_json(prof: HomologyProfile) -> Dict[str, Any]:
    return {
        "betti": list(prof.betti),
        "torsion": [list(t) for t in prof.torsion],
        "reduced": prof.reduced,
        "describe": prof.describe(),
    }


# ------------------------------------------------------------ input loading

def _load_wrapper(path: str) -> Tuple[Optional[dict], Any]:
    """Returns (fixture wrapper or None, raw payload)."""
    data = load_json_file(path)
    if isinstance(data, dict) and "kind" in data and "data" in data:
        return data, data["data"]
    return None, data


def object_from_fixture(kind: str, data: Any, where: str) -> Any:
    if kind == "poset":
        return poset_from_json(data, where)
    if kind == "complex":
        return complex_from_json(data, where)
    if kind == "relation":
        return relation_from_json(data, where)
    if kind == "monotone-map":
        for key in ("source", "target", "map"):
            if not isinstance(data, dict) or key not in data:
                raise InputError(f"{where}: monotone map needs 'source', 'target', 'map'")
        return (
            poset_from_json(data["source"], where),
            poset_from_json(data["target"], where),
            {str(k): str(v) for k, v in data["map"].items()},
        )
    if kind == "poset-cover":
        return poset_cover_from_json(data, where)
    if kind == "complex-cover":
        return complex_cover_from_json(data, where)
    raise InputError(f"{where}: cannot build a {kind!r} fixture object")


def _object_from_raw_json(data: Any, where: str) -> Any:
    """Shape detection for plain (non fixture) JSON files."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a JSON object")
    if "pairs" in data and "source" in data:
        return relation_from_json(data, where)
    if "map" in data and "source" in data:
        return object_from_fixture("monotone-map", data, where)
    if "poset" in data and "dim" in data:
        return cw_from_json(data, where)
    if "poset" in data and "parts" in data:
        return poset_cover_from_json(data, where)
    if "complex" in data and "parts" in data:
        return complex_cover_from_json(data, where)
    if "elements" in data:
        return poset_from_json(data, where)
    if "facets" in data:
        return complex_from_json(data, where)
    raise InputError(f"{where}: unrecognized JSON shape")


def load_object(path: str) -> Tuple[Optional[dict], Any]:
    """Load any supported input file into a domain object.

    JSON files may be fixture wrappers or raw payloads; text files hold
    either a poset (lines with '<') or a complex (facet per line).
    """
    if path.endswith(".json"):
        wrapper, data = _load_wrapper(path)
        if wrapper is not None:
            return wrapper, object_from_fixture(wrapper["kind"], data, path)
        return None, _object_from_raw_json(data, path)
    text = read_text_file(path)
    stripped = [
        line for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if any("<" in line for line in stripped):
        return None, parse_poset_text(text, path)
    return None, parse_complex_text(text, path)


def _resolve_input(token: str) -> Tuple[Optional[dict], Any, Optional[str]]:
    """Path, path with extension, or built in fixture name.

    Returns (fixture wrapper or None, object, file path or None).
    """
    for candidate in (token, token + ".json"):
        if os.path.isfile(candidate):
            wrapper, obj = load_object(candidate)
            return wrapper, obj, candidate
    if token in fixtures_mod.REGISTRY:
        f = fixtures_mod.get_fixture(token)
        wrapper = {
            "kind": f.kind,
            "name": f.name,
            "theorem": f.theorem,
            "expected_status": f.expected_status,
            "params": dict(f.params),
        }
        if f.kind == "point-cloud":
            return wrapper, f.build(), None
        payload = fixtures_mod.fixture_payload(f)["data"]
        return wrapper, object_from_fixture(f.kind, payload, token), None
    raise InputError(f"no such file or fixture: {token}")


def _stamp_input(report: RunReport, token: str, wrapper: Optional[dict],
                 path: Optional[str]) -> None:
    if path is not None:
        report.add_input("input", path=path)
    elif wrapper is not None:
        report.add_input("input", payload=wrapper)
    else:
        report.add_input("input", payload=token)


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

def run_theorem(theorem: str, obj: Any, params: Dict[str, Any],
                budget: int, report: RunReport, where: str = "<input>") -> None:
    """Run one verification target and fill the report in place."""
    if theorem in ("prop-2.4", "prop-2.5", "thm-a", "prop-homology"):
        r = _as_relation(obj, where)
        if theorem == "prop-2.4":
            rep = check_source_retraction(r, budget)
            report.detail["hypotheses"] = rep.to_json_dict()
            report.set_status(_STATUS_WORD[rep.status])
            if rep.status == "certified":
                cyl = build_cylinder(r)
                cert = collapse_cylinder_to_source(cyl, budget, rep)
                report.add_certificate("collapse-to-source", cert, cyl.poset)
        elif theorem == "prop-2.5":
            rep = check_target_retraction(r, budget)
            report.detail["hypotheses"] = rep.to_json_dict()
            report.set_status(_STATUS_WORD[rep.status])
            if rep.status == "certified":
                cyl = build_cylinder(r)
                cert = collapse_cylinder_to_target(cyl, budget, rep)
                report.add_certificate("collapse-to-target", cert, cyl.poset)
        elif theorem == "thm-a":
            rep = verify_equivalence(r, budget)
            report.detail["equivalence"] = rep.to_json_dict()
            report.set_status(_STATUS_WORD[rep.status])
            if rep.to_source is not None:
                cyl = build_cylinder(r)
                report.add_certificate("collapse-to-source", rep.to_source, cyl.poset)
                report.add_certificate("collapse-to-target", rep.to_target, cyl.poset)
            if rep.source_homology is not None:
                report.add_homology("source", profile_json(rep.source_homology))
                report.add_homology("target", profile_json(rep.target_homology))
        else:
            degree = int(params.get("degree", 1))
            rep = verify_homology_equivalence(r, degree, budget)
            report.detail["homology_version"] = rep.to_json_dict()
            report.set_status(_STATUS_WORD[rep.status])
            if rep.source_homology is not None:
                report.add_homology("source", profile_json(rep.source_homology))
                report.add_homology("target", profile_json(rep.target_homology))
        return

    if theorem in _NERVE_VARIANT:
        cover = _as_cover(obj, where)
        rep = verify_nerve_theorem(cover, _NERVE_VARIANT[theorem], budget)
        report.detail["nerve_theorem"] = rep.to_json_dict()
        report.set_status(_STATUS_WORD[rep.status])
        eq = rep.equivalence
        if eq is not None and eq.to_source is not None and eq.relation is not None:
            cyl = build_cylinder(eq.relation)
            report.add_certificate("collapse-to-base", eq.to_source, cyl.poset)
            report.add_certificate("collapse-to-nerve", eq.to_target, cyl.poset)
        if rep.base_homology is not None:
            report.add_homology("base", profile_json(rep.base_homology))
            report.add_homology("nerve-side", profile_json(rep.nerve_homology))
        return

    if theorem == "cor-completion":
        cover = _as_cover(obj, where)
        if not isinstance(cover, ComplexCover):
            raise InputError(f"{where}: the completion corollary takes a complex cover")
        rep = verify_corollary_completion(cover, budget)
        report.detail["completion_corollary"] = rep.to_json_dict()
        report.set_status(_STATUS_WORD[rep.status])
        eq = rep.nerve_report.equivalence
        if eq is not None and eq.to_source is not None and eq.relation is not None:
            cyl = build_cylinder(eq.relation)
            report.add_certificate("collapse-to-base", eq.to_source, cyl.poset)
            report.add_certificate("collapse-to-completion", eq.to_target, cyl.poset)
        if rep.base_homology is not None:
            report.add_homology("base", profile_json(rep.base_homology))
            report.add_homology("completion", profile_json(rep.completion_homology))
        return

    if theorem == "dictionary":
        if not isinstance(obj, (Poset, SimplicialComplex)):
            raise InputError(f"{where}: the dictionary checks take a poset or a complex")
        rep = verify_dictionary(obj, budget)
        report.detail["dictionary"] = rep.to_json_dict()
        report.set_status(_STATUS_WORD[rep.status])
        return

    raise InputError(f"unknown theorem id {theorem!r}; expected one of {', '.join(THEOREMS)}")


def _run_fixture_file(path: str, budget: int, only: Optional[str]) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"file": os.path.basename(path)}
    try:
        wrapper, data = _load_wrapper(path)
        if wrapper is None:
            entry.update(status="Error", error="not a fixture file")
            return entry
        theorem = wrapper.get("theorem")
        entry["name"] = wrapper.get("name")
        entry["theorem"] = theorem
        if theorem is None or (only is not None and theorem != only):
            entry["status"] = "Skipped"
            return entry
        obj = object_from_fixture(wrapper["kind"], data, path)
        sub = RunReport(f"verify {theorem}")
        params = wrapper.get("params") or {}
        run_theorem(theorem, obj, params, budget, sub, path)
        sub.finalize()
        entry["status"] = sub.status
        expected = wrapper.get("expected_status")
        entry["expected"] = expected
        if expected is not None:
            entry["match"] = sub.status == expected
    except (InputError, ValidationError, ReplayError, NotCertified) as exc:
        entry.update(status="Error", error=str(exc))
    return entry


def _verify_batch(args, report: RunReport) -> None:
    directory = args.batch
    if not os.path.isdir(directory):
        raise InputError(f"not a directory: {directory}")
    files = sorted(glob.glob(os.path.join(directory, "*.json")))
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
        "errors": sum(1 for e in ran if e["status"] == "Error"),
    }
    if any(e["status"] == "Error" for e in ran):
        report.set_status("Error")
    elif any(e.get("match") is False for e in ran):
        report.set_status("Refuted")
    elif any(e["status"] == "Unknown" and e.get("expected") is None for e in ran):
        report.set_status("Unknown")
    elif not ran:
        report.set_status("Unknown")
    else:
        report.set_status("Certified")


# ---------------------------------------------------------------- commands

def cmd_verify(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("verify" + (f" {args.theorem}" if args.theorem else ""))
    if args.batch:
        _verify_batch(args, report)
        return report, None
    if not args.theorem or not args.input:
        raise InputError("verify needs a theorem id and an input file, or --batch <dir>")
    wrapper, obj, path = _resolve_input(args.input)
    _stamp_input(report, args.input, wrapper, path)
    params: Dict[str, Any] = dict(wrapper.get("params") or {}) if wrapper else {}
    if args.degree is not None:
        params["degree"] = args.degree
    run_theorem(args.theorem, obj, params, args.budget, report, args.input)
    return report, None


def cmd_homology(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("homology")
    wrapper, obj, path = _resolve_input(args.input)
    _stamp_input(report, args.input, wrapper, path)
    if isinstance(obj, tuple):
        raise InputError("homology takes a poset, complex, or CW complex")
    prof = homology(obj, reduced=args.reduced)
    report.add_homology("input", profile_json(prof))
    report.detail["euler_characteristic"] = euler_characteristic(obj)
    report.set_status("Certified")
    dot = None
    if args.format == "dot":
        if isinstance(obj, Poset):
            dot = dot_poset(obj)
        elif isinstance(obj, SimplicialComplex):
            dot = dot_complex(obj)
        elif isinstance(obj, RegularCWComplex):
            dot = dot_cw(obj)
    return report, dot


def _require_poset(obj: Any, where: str) -> Poset:
    if isinstance(obj, Poset):
        return obj
    if isinstance(obj, SimplicialComplex):
        return face_poset(obj)
    raise InputError(f"{where}: expected a poset (a complex is accepted as its face poset)")


def _verdict_status(report: RunReport, verdict) -> None:
    if verdict.is_trivial:
        report.set_status("Certified")
    elif verdict.is_nontrivial:
        report.set_status("Refuted")
    else:
        report.set_status("Unknown")


def cmd_reduce(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("reduce")
    wrapper, obj, path = _resolve_input(args.input)
    p = _require_poset(obj, args.input)
    _stamp_input(report, args.input, wrapper, path)
    beats = find_beat_points(p)
    weaks = find_weak_points(p)
    gammas, unknowns = find_gamma_points(p, args.budget)
    q, cert = core(p)
    verdict = triviality_oracle(p, args.budget)
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
    _verdict_status(report, verdict)
    dot = dot_poset(q) if args.format == "dot" else None
    return report, dot


def cmd_core(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("core")
    wrapper, obj, path = _resolve_input(args.input)
    p = _require_poset(obj, args.input)
    _stamp_input(report, args.input, wrapper, path)
    q, cert = core(p)
    report.detail["core"] = poset_to_json(q)
    report.detail["removed"] = len(p) - len(q)
    report.add_certificate("core", cert, p)
    report.set_status("Certified")
    dot = dot_poset(q) if args.format == "dot" else None
    return report, dot


def cmd_collapse(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("collapse")
    wrapper, obj, path = _resolve_input(args.input)
    p = _require_poset(obj, args.input)
    _stamp_input(report, args.input, wrapper, path)
    if args.target:
        cert, stats = collapse_search(p, args.target, args.budget)
        report.detail["search"] = stats
        if cert is None:
            report.set_status("Unknown")
        else:
            report.add_certificate("collapse", cert, p)
            report.set_status("Certified")
        return report, None
    verdict = triviality_oracle(p, args.budget)
    report.detail["oracle"] = verdict.to_json_dict()
    if verdict.certificate is not None:
        report.add_certificate("oracle", verdict.certificate, p)
    _verdict_status(report, verdict)
    return report, None


def cmd_cylinder(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport(f"cylinder {args.action}")
    wrapper, obj, path = _resolve_input(args.input)
    _stamp_input(report, args.input, wrapper, path)
    if isinstance(obj, tuple):
        source, target, mapping = obj
        r = Relation.from_monotone_map(source, target, mapping)
        is_map = True
    else:
        r = _as_relation(obj, args.input)
        is_map = False
    dot = None
    if args.action == "build":
        if is_map:
            cyl = mapping_cylinder(source, target, mapping)
            if cyl.retraction_certificate is not None:
                report.add_certificate("beat-retraction", cyl.retraction_certificate, cyl.poset)
        else:
            cyl = build_cylinder(r)
        report.detail["cylinder"] = poset_to_json(cyl.poset)
        report.detail["source_part"] = sorted(cyl.source_part.members)
        report.detail["target_part"] = sorted(cyl.target_part.members)
        report.set_status("Certified")
        dot = dot_poset(cyl.poset) if args.format == "dot" else None
    elif args.action == "check-x":
        rep = check_source_retraction(r, args.budget)
        report.detail["hypotheses"] = rep.to_json_dict()
        report.set_status(_STATUS_WORD[rep.status])
    elif args.action == "check-y":
        rep = check_target_retraction(r, args.budget)
        report.detail["hypotheses"] = rep.to_json_dict()
        report.set_status(_STATUS_WORD[rep.status])
    elif args.action == "verify-a":
        run_theorem("thm-a", r, {}, args.budget, report, args.input)
    elif args.action == "verify-homology":
        run_theorem("prop-homology", r, {"degree": args.degree or 1}, args.budget, report, args.input)
    return report, dot


def cmd_nerve(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("nerve")
    wrapper, obj, path = _resolve_input(args.input)
    cover = _as_cover(obj, args.input)
    _stamp_input(report, args.input, wrapper, path)
    nerve_complex = cover.nerve()
    cls = classify_cover(cover, args.budget)
    report.detail["nerve"] = complex_to_json(nerve_complex)
    report.detail["classification"] = cls.to_json_dict()
    report.add_homology("nerve", profile_json(homology(nerve_complex)))
    report.add_homology("base", profile_json(homology(cover.base)))
    report.set_status("Unknown" if cls.status == "unknown" else "Certified")
    dot = dot_complex(nerve_complex) if args.format == "dot" else None
    return report, dot


def cmd_completion(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("completion")
    wrapper, obj, path = _resolve_input(args.input)
    cover = _as_cover(obj, args.input)
    _stamp_input(report, args.input, wrapper, path)
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
    report.set_status("Certified")
    dot = dot_cw(cw) if args.format == "dot" else None
    return report, dot


def cmd_mapper(args) -> Tuple[RunReport, Optional[str]]:
    report = RunReport("mapper")
    if os.path.isfile(args.input):
        cloud = PointCloud.from_csv(args.input)
        report.add_input("input", path=args.input)
    elif args.input in fixtures_mod.REGISTRY:
        f = fixtures_mod.get_fixture(args.input)
        if f.kind != "point-cloud":
            raise InputError(f"{args.input}: not a point cloud fixture")
        cloud = f.build()
        report.add_input("input", payload=f.name)
    else:
        raise InputError(f"no such file or point cloud fixture: {args.input}")
    spec = parse_filter(args.filter)
    cover = IntervalCover(args.intervals, args.overlap)
    result = mapper_completion(cloud, spec, cover, args.epsilon)
    report.detail["mapper"] = result.to_json_dict()
    report.add_homology("completion", profile_json(result.completion_homology))
    report.add_homology("nerve", profile_json(result.nerve_homology))
    report.add_homology("component-nerve", profile_json(result.component_nerve_homology))
    report.set_status("Certified")
    dot = None
    if args.emit == "completion":
        report.detail["emitted"] = cw_to_json(result.complex)
        dot = dot_cw(result.complex) if args.format == "dot" else None
    elif args.emit == "nerve":
        report.detail["emitted"] = complex_to_json(result.nerve)
        dot = dot_complex(result.nerve) if args.format == "dot" else None
    else:
        report.detail["emitted"] = complex_to_json(result.component_nerve)
        dot = dot_complex(result.component_nerve) if args.format == "dot" else None
    return report, dot


def cmd_fixtures(args) -> Tuple[RunReport, Optional[str]]:
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
        report.set_status("Certified")
        return report, None
    if args.action == "emit":
        names = [args.name] if args.name else sorted(fixtures_mod.REGISTRY)
        written = []
        for name in names:
            written.append(fixtures_mod.write_fixture(fixtures_mod.get_fixture(name), args.dir))
        report.detail["written"] = written
        report.set_status("Certified")
        return report, None
    if args.action == "generate":
        if args.seed is None:
            raise InputError("fixtures generate needs an explicit --seed")
        rng = random.Random(args.seed)
        written = []
        os.makedirs(args.dir, exist_ok=True)
        for k in range(args.count):
            name = f"{args.recipe}-{args.seed}-{k:03d}"
            payload = _generated_payload(args.recipe, rng, name)
            path = os.path.join(args.dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)
        report.detail["written"] = written
        report.set_status("Certified")
        return report, None
    raise InputError(f"unknown fixtures action {args.action!r}")


def _generated_payload(recipe: str, rng: random.Random, name: str) -> Dict[str, Any]:
    from .formats import (
        poset_cover_to_json,
        poset_to_json as p2j,
        relation_to_json as r2j,
        complex_to_json as c2j,
    )
    if recipe == "poset":
        data = p2j(fixtures_mod.random_poset(rng, rng.randint(4, 9)))
        kind, theorem, expected = "poset", "dictionary", "Certified"
    elif recipe == "dismantlable":
        data = p2j(fixtures_mod.random_dismantlable_poset(rng, rng.randint(3, 9)))
        kind, theorem, expected = "poset", "dictionary", "Certified"
    elif recipe == "complex":
        data = c2j(fixtures_mod.random_complex(rng))
        kind, theorem, expected = "complex", "dictionary", "Certified"
    elif recipe == "monotone-map":
        source, target, mapping = fixtures_mod.random_monotone_map(
            rng, rng.randint(2, 8), rng.randint(2, 8))
        data = {
            "source": p2j(source),
            "target": p2j(target),
            "map": dict(sorted(mapping.items())),
        }
        kind, theorem, expected = "monotone-map", "prop-2.5", "Certified"
    elif recipe == "relation":
        data = r2j(fixtures_mod.beat_retraction_relation(rng, rng.randint(3, 8)))
        kind, theorem, expected = "relation", "thm-a", "Certified"
    elif recipe == "good-cover":
        data = poset_cover_to_json(fixtures_mod.random_good_cover(rng))
        kind, theorem, expected = "poset-cover", "nerve-good", "Certified"
    elif recipe == "quasi-good-cover":
        data = poset_cover_to_json(fixtures_mod.random_quasi_good_cover(rng))
        kind, theorem, expected = "poset-cover", "nerve-quasigood", "Certified"
    else:
        raise InputError(f"unknown recipe {recipe!r}")
    return {
        "kind": kind,
        "name": name,
        "description": f"generated by recipe {recipe}",
        "theorem": theorem,
        "expected_status": expected,
        "params": {},
        "data": data,
    }


# ------------------------------------------------------------------ parser

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
    common = _Parser(add_help=False)
    common.add_argument("--budget", type=non_negative_int,
                        default=_env("BUDGET", non_negative_int, DEFAULT_BUDGET),
                        help="search node budget for oracle calls")
    common.add_argument("--seed", type=int, default=_env("SEED", int, None),
                        help="seed for randomized commands")
    common.add_argument("--format", choices=("json", "text", "dot"),
                        default=_env("FORMAT", str, "json"))
    common.add_argument("--out", default=_env("OUT", str, None),
                        help="write output to this path instead of stdout")

    parser = _Parser(
        prog="finitetopo",
        description="homotopy tools for finite posets: reductions, relation "
                    "cylinders, nerves, completions, homology, mapper",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common],
                       help="beat/weak/gamma points, core, and the triviality oracle")
    p.add_argument("input")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("core", parents=[common], help="beat point core with certificate")
    p.add_argument("input")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("collapse", parents=[common],
                       help="collapse search (to a point, or to --target)")
    p.add_argument("input")
    p.add_argument("--target", help="collapse onto this element instead of a point")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("cylinder", parents=[common], help="relation cylinder operations")
    p.add_argument("action", choices=("build", "check-x", "check-y", "verify-a", "verify-homology"))
    p.add_argument("input")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_cylinder)

    p = sub.add_parser("nerve", parents=[common], help="nerve and cover classification")
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

    p = sub.add_parser("verify", parents=[common], help="check a named statement")
    p.add_argument("theorem", nargs="?", choices=THEOREMS)
    p.add_argument("input", nargs="?")
    p.add_argument("--batch", help="run every fixture file in a directory")
    p.add_argument("--degree", type=int, default=None,
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
    p.add_argument("--recipe",
                   choices=("poset", "dismantlable", "complex", "monotone-map",
                            "relation", "good-cover", "quasi-good-cover"),
                   help="generator recipe for the generate action")
    p.add_argument("--count", type=int, default=1)
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


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        # the parser reads FINITETOPO_* defaults, so building it can fail too
        args = build_parser().parse_args(argv)
        report, dot = args.func(args)
        report.finalize()
        if args.format == "dot":
            if dot is None:
                raise InputError(f"{args.command} has no dot output for this action")
            _write_output(dot, args.out)
        elif args.format == "text":
            _write_output(_render_text(report), args.out)
        else:
            _write_output(report.to_json(), args.out)
        return report.exit_code
    except (InputError, ValidationError, ReplayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotCertified as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
