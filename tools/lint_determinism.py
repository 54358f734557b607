#!/usr/bin/env python3
"""Determinism lint for the HADES simulator sources.

The simulator's contract is bit-reproducible runs: the same RunSpec and
seed must produce the same simulated history on every platform and
standard-library implementation. This lint flags the source patterns
that historically break that contract:

  R1  uncontrolled randomness: rand()/srand(), std::random_device,
      standard mersenne/linear-congruential engines. All randomness
      must flow through the seeded Rng in src/common/rng.hh.
  R2  wall-clock time: time(), gettimeofday, clock_gettime,
      std::chrono clocks. Simulated time comes from the kernel;
      src/common/time.hh owns the only permitted conversions.
  R5  thread identity as data: std::this_thread::get_id(),
      pthread_self(), gettid(), or a stored std::thread::id. Under
      the threaded shard executor the OS thread that runs a lane is
      arbitrary; any ordering or decision keyed on it diverges from
      the serial oracle. Lane identity comes from laneOf(node), not
      from the thread.
  R6  floating-point control-state accumulation: a float/double
      declaration, or a compound assignment feeding a float literal,
      whose identifier names smoothed control state (ewma / slo /
      health / admission tokens / retry budget). Control decisions --
      peer classification, hedging, shedding, quarantine -- must use
      fixed-point integer arithmetic (the Q8 EWMA in
      src/net/slo_tracker.hh) so a classification flips at the same
      sample on every platform, compiler, and FP-contraction mode.
      Derived *report* metrics (throughput, latency means) stay
      double: they are outputs, they never feed back into the
      simulation.

Unordered-container iteration and pointer-keyed ordering are checked
by hades-analyze (rules unordered-iter and pointer-order), which honours
the same `det-lint: ordered-ok` markers.

Suppression: append `// det-lint: ordered-ok` (any `det-lint:` marker)
to the flagged line or the line directly above it.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import pathlib
import re
import sys

# Files allowed to use the primitives they encapsulate.
ALLOWLIST = {
    "src/common/rng.hh": {"R1"},
    "src/common/time.hh": {"R2"},
}

SUPPRESS_RE = re.compile(r"det-lint:")

R1_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand|rand_r|drand48|lrand48)\s*\(|"
    r"\bstd::random_device\b|\bstd::mt19937(?:_64)?\b|"
    r"\bstd::minstd_rand0?\b|\bstd::default_random_engine\b"
)

R2_RE = re.compile(
    r"\bstd::chrono::(?:system|steady|high_resolution)_clock\b|"
    r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\s*\(|"
    r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&)"
)

R5_RE = re.compile(
    r"\bstd::this_thread::get_id\s*\(|\bpthread_self\s*\(|"
    r"(?<![\w:])gettid\s*\(|\bstd::thread::id\b"
)

# Identifiers that hold smoothed *control* state: anything the
# simulation branches on (SLO classification, admission, budgets).
R6_NAME = r"\w*(?:[Ee]wma|[Ss]lo[A-Z_]|SLO|[Hh]ealth[A-Z_]|" \
          r"[Rr]etry[Bb]udget|[Aa]dmission)\w*"

# A float/double declaration of control state...
R6_DECL_RE = re.compile(
    r"\b(?:float|double)\s+(?:\w+\s+)?%s\s*[;={]" % R6_NAME
)

# ...or accumulating into it with floating-point arithmetic.
R6_ACC_RE = re.compile(
    r"\b%s\s*(?:\+=|-=|\*=)\s*[^;]*(?:\d\.\d*\b|\bfloat\b|\bdouble\b)"
    % R6_NAME
)


def suppressed(lines, idx):
    """Marker on the flagged line or the line directly above it."""
    if SUPPRESS_RE.search(lines[idx]):
        return True
    return idx > 0 and SUPPRESS_RE.search(lines[idx - 1]) is not None


def strip_comments(line):
    """Drop // comments so commented-out code is not flagged (but keep
    the raw line for suppression-marker checks)."""
    return line.split("//", 1)[0]


def lint_file(path, rel, findings):
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    allowed = ALLOWLIST.get(rel, set())

    for i, raw in enumerate(lines):
        code = strip_comments(raw)

        def report(rule, msg):
            if rule in allowed or suppressed(lines, i):
                return
            findings.append((rel, i + 1, rule, msg, raw.strip()))

        if R1_RE.search(code):
            report("R1", "uncontrolled randomness; use common/rng.hh")
        if R2_RE.search(code):
            report("R2", "wall-clock time; simulated time only")
        if R5_RE.search(code):
            report("R5", "thread identity as data; lane identity "
                         "comes from laneOf(node), not the OS thread")
        if R6_DECL_RE.search(code) or R6_ACC_RE.search(code):
            report("R6", "floating-point accumulation in control "
                         "state; smoothed SLO/admission state must be "
                         "fixed-point (see the Q8 EWMA in "
                         "src/net/slo_tracker.hh)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", default=["src"],
                    help="directories to scan (default: src)")
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of tools/)")
    args = ap.parse_args()

    repo = pathlib.Path(
        args.repo or pathlib.Path(__file__).resolve().parent.parent
    )
    roots = args.roots or ["src"]

    files = []
    for root in roots:
        base = repo / root
        if not base.is_dir():
            print("lint_determinism: no such directory: %s" % base,
                  file=sys.stderr)
            return 2
        files += sorted(base.rglob("*.hh"))
        files += sorted(base.rglob("*.cc"))

    findings = []
    for f in files:
        lint_file(f, f.relative_to(repo).as_posix(), findings)

    for rel, line, rule, msg, src in findings:
        print("%s:%d: [%s] %s\n    %s" % (rel, line, rule, msg, src))
    print(
        "lint_determinism: %d file(s) scanned, %d finding(s)"
        % (len(files), len(findings))
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
