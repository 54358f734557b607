"""hades-analyze driver: frontend selection, rule execution, reports.

Usage (from the repo root):
    python3 -m tools.hades_analyze --repo . [--frontend auto|clang|fallback]
        [--json out.json] [--inventory lane_escape_inventory.json]
        [--ast-cache build/hades-analyze-cache] [--rules r1,r2,...]

Exit status: 0 when no unsuppressed finding, 1 otherwise, 2 on usage
or environment errors.
"""

import argparse
import json
import os
import shutil
import sys

from . import config as C
from .model import Index
from . import parse_fallback
from . import parse_clang
from . import rules as R


def collect_sources(repo):
    """Repo-relative posix paths of every file the analysis reads."""
    out = []
    for root in ("src",):
        base = os.path.join(repo, root)
        for dirpath, _dirnames, filenames in os.walk(base):
            for fname in sorted(filenames):
                if fname.endswith((".hh", ".cc", ".hpp", ".cpp", ".h")):
                    full = os.path.join(dirpath, fname)
                    out.append(os.path.relpath(full, repo)
                               .replace(os.sep, "/"))
    return sorted(out)


def pick_frontend(choice, repo):
    if choice == "fallback":
        return "fallback"
    have_clang = shutil.which("clang++") is not None
    have_db = os.path.exists(
        os.path.join(repo, "build", "compile_commands.json"))
    if choice == "clang":
        if not have_clang:
            raise SystemExit("hades-analyze: --frontend=clang but no "
                             "clang++ on PATH")
        return "clang"
    return "clang" if (have_clang and have_db) else "fallback"


def build_index(repo, frontend, paths, cache_dir):
    files = []
    for rel in paths:
        full = os.path.join(repo, rel)
        if frontend == "clang":
            ir = parse_clang.parse_file(full, rel, repo=repo,
                                        cache_dir=cache_dir)
            if ir is None:       # not in the compile db (headers):
                ir = parse_fallback.parse_file(full, rel)
        else:
            ir = parse_fallback.parse_file(full, rel)
        files.append(ir)
    idx = Index(files)
    idx.repo = repo
    return idx


def run_rules(index, selected):
    supp = R.Suppressor(index)
    findings = []
    report = {"verbs": {}, "inventory": {}, "unresolved_ranges": 0}

    def want(rule):
        return not selected or rule in selected

    if want("lane-escape"):
        f, inv = R.rule_lane_escape(index, supp)
        findings += f
        report["inventory"] = inv
    if want("verb-totality"):
        findings += R.rule_verb_totality(index, supp)
    if want("verb-reliability"):
        f, verbs = R.rule_verb_reliability(index, supp)
        findings += f
        report["verbs"] = verbs
    if want("epoch-fence"):
        findings += R.rule_epoch_fence(index, supp)
    if want("unordered-iter"):
        f, unresolved = R.rule_unordered_iter(index, supp)
        findings += f
        report["unresolved_ranges"] = unresolved
    if want("pointer-order"):
        findings += R.rule_pointer_order(index, supp)
    for rule in C.DET_PATTERNS:
        if want(rule):
            findings += R.rule_det_pattern(index, supp, rule)
    if want("suppression"):
        findings += supp.marker_findings()

    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, report


def main(argv=None):
    ap = argparse.ArgumentParser(prog="hades-analyze")
    ap.add_argument("--repo", default=".")
    ap.add_argument("--frontend", default="auto",
                    choices=("auto", "clang", "fallback"))
    ap.add_argument("--json", help="write findings + verb map as JSON")
    ap.add_argument("--inventory",
                    help="write the lane-escape inventory JSON")
    ap.add_argument("--ast-cache",
                    help="directory for sha256-keyed clang AST dumps")
    ap.add_argument("--rules",
                    help="comma-separated subset of rules to run")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    repo = os.path.abspath(args.repo)
    selected = set()
    if args.rules:
        selected = {r.strip() for r in args.rules.split(",") if r.strip()}
        bad = selected - set(C.ALL_RULES)
        if bad:
            print("hades-analyze: unknown rules: %s" % ", ".join(bad),
                  file=sys.stderr)
            return 2

    frontend = pick_frontend(args.frontend, repo)
    paths = collect_sources(repo)
    index = build_index(repo, frontend, paths, args.ast_cache)
    findings, report = run_rules(index, selected)

    if not args.quiet:
        print("hades-analyze: frontend=%s files=%d" %
              (frontend, len(paths)))
        for f in findings:
            print("%s:%d: [%s] %s" % (f.file, f.line, f.rule, f.message))
            if f.detail:
                print("    %s" % f.detail)
        n_escape = sum(
            1 for c in report["inventory"].values()
            for rec in c.values() if rec["classification"] == "ESCAPE")
        print("hades-analyze: %d finding(s); lane inventory: %d "
              "class(es), %d escape(s)"
              % (len(findings), len(report["inventory"]), n_escape))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({
                "frontend": frontend,
                "findings": [vars(f) for f in findings],
                "verbs": report["verbs"],
                "unresolved_ranges": report["unresolved_ranges"],
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.inventory:
        with open(args.inventory, "w", encoding="utf-8") as fh:
            json.dump({
                "_comment": [
                    "hades-analyze lane-escape inventory: every mutable",
                    "field of the protocol/net/recovery/replica classes",
                    "and how each write is lane-confined. Regenerate:",
                    "python3 -m tools.hades_analyze --repo . "
                    "--inventory tools/hades_analyze/"
                    "lane_escape_inventory.json",
                ],
                "classes": report["inventory"],
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
