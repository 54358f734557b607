"""HADES-specific facts the rules are parameterized on.

Everything here is a *named system invariant* with a home in DESIGN.md:
the lane-confinement discipline of section 11 and the epoch-fencing
rules of section 9. Keeping them in one module makes the encoded model
of the system reviewable at a glance.
"""

import re

# --- A1 lane-safety ---------------------------------------------------------

# Modules whose mutable state the lane-escape pass inventories: the
# protocol engines, the interconnect, and recovery/replication. (sim/
# is the kernel itself; core/ is the runner, which executes outside
# event context.)
A1_TARGET_DIRS = ("src/protocol", "src/net", "src/recovery",
                  "src/replica")

# Subsystems the runner's threaded certification statically excludes
# (DESIGN.md section 11: faults, recovery, replication, and audit all
# force the deterministic sharded executor), so their state is never
# touched by concurrent lanes.
A1_UNCERTIFIED_DIRS = ("src/recovery", "src/replica", "src/fault",
                       "src/audit", "src/fuzz")

# Functions that abort the threaded attempt before touching shared
# state (the hard gates). Anything downstream of a call to one of
# these never executes in a threaded run.
A1_GATE_FUNCS = {"refuseIfThreaded", "ensureSerialForLockMode"}

# Per-node accessors: each returns a reference into per-node sharded
# state selected by the *executing* node, so writes through them are
# lane-local by construction (see TxnEngine::st, System::rng,
# System::routerFor).
A1_NODE_ACCESSORS = {"st", "rng", "routerFor", "routerForNode"}

# Subscript spellings that select per-node state by the executing or
# addressed node (per-node arrays like txPort_[src], statsByNode_[n]).
A1_NODE_INDEX_RE = re.compile(
    r"\b(node|src|dst|home|n|ctx\.node|currentNode|laneOf|lane|"
    r"self|peer|coord)\b")

# Writer-function name patterns that run during experiment setup (no
# events in flight), not in per-node event-handler context.
A1_SETUP_FUNC_RE = re.compile(
    r"^(configure\w*|set[A-Z]\w*|reset\w*|init\w*|shard|attach\w*|"
    r"enable\w*|bind\w*|register\w*|reserve)$")

# The runner executes on the main thread outside kernel.run() -- its
# own statements are prologue/epilogue, never event context.
# driveContext is the exception (a coroutine that hops onto a node
# lane), and so is any lambda it schedules.
A1_RUNNER_FILES = ("src/core/",)
A1_RUNNER_EXCEPT = {"driveContext"}

# --- A2 verb totality -------------------------------------------------------

# Enums whose switches must enumerate every member explicitly (a
# `default:` does not excuse a missing case -- adding a verb must
# break loudly, which is the point of the rule).
A2_TOTAL_ENUMS = {"MsgType", "SquashReason", "Overhead", "EngineKind",
                  "AppKind", "StoreKind"}

# Enumerators acting as count sentinels, never real cases.
A2_SENTINEL_RE = re.compile(r"^Num[A-Z]\w*$")

# One-way posts of these verbs are protocol-level replies/confirms:
# the *sender of the original message* owns the retry (commit-fanout
# Ack-timeout resends, reliablePost confirm-Acks), so a bare post is
# the correct idiom.
A2_REPLY_VERBS = {"Ack"}

# Functions that ARE the registered reliability path; bare posts
# inside them are the retry mechanism itself. armCommitResend is the
# commit-phase timeout: it re-posts IntendToCommit to every peer whose
# Ack is missing until the resend budget squashes the transaction.
A2_RELIABILITY_WRAPPERS = {"reliablePost", "reliableAttempt",
                           "armCommitResend"}

# One-sided RDMA verbs ride an RC queue pair: the NIC itself
# retransmits until completion (same delivery guarantee roundTrip
# models), so a post of these needs no protocol-level retry.
A2_NIC_VERBS = {"RdmaRead", "RdmaWrite", "RdmaCas"}

# --- A3 epoch fencing -------------------------------------------------------

# View-changed state (PR 4): mutating any of these outside the view
# change itself requires comparing a configuration epoch first, or an
# explicit epoch-fence-ok justification naming the covering fence.
A3_VIEW_STATE_FIELDS = {"pendingApplies", "decisionLog"}

# The view-change executor and the recovery manager own epoch
# advancement; their mutations happen at the single atomic view-change
# event (DESIGN.md section 9) and are fenced by construction.
A3_OWNER_CLASS_RE = re.compile(r"\bRecoveryManager\b")

A3_EPOCH_RE = re.compile(r"epoch", re.IGNORECASE)

# --- R3X / R4X --------------------------------------------------------------

R3_UNORDERED_RE = re.compile(
    r"\bstd::unordered_(map|set|multimap|multiset)\b")

R4_ORDERED_TMPL_RE = re.compile(
    r"\bstd::(map|set|multimap|multiset|priority_queue)\s*<")

# --- D-rules: determinism line patterns ----------------------------------------

# Source patterns that break bit-reproducible runs, matched per line
# with `//` comments stripped. Each rule maps to (pattern, message).
#
#   randomness       rand()/srand(), std::random_device, the standard
#                    engines. All randomness flows through the seeded
#                    Rng in src/common/rng.hh.
#   wall-clock       time(), gettimeofday, clock_gettime, std::chrono
#                    clocks. Simulated time comes from the kernel;
#                    src/common/time.hh owns the only conversions.
#   thread-identity  std::this_thread::get_id(), pthread_self(),
#                    gettid(), a stored std::thread::id. The OS thread
#                    that runs a lane is arbitrary under the threaded
#                    executor; lane identity comes from laneOf(node).
#   float-control    a float/double declaration of, or floating-point
#                    accumulation into, smoothed control state (ewma,
#                    slo, health, admission, retry budget). Control
#                    decisions use fixed-point integers (the Q8 EWMA in
#                    src/net/slo_tracker.hh) so a classification flips
#                    at the same sample on every platform and compiler.
#                    Report metrics stay double: they never feed back.

_R6_NAME = (r"\w*(?:[Ee]wma|[Ss]lo[A-Z_]|SLO|[Hh]ealth[A-Z_]|"
            r"[Rr]etry[Bb]udget|[Aa]dmission)\w*")

DET_PATTERNS = {
    "randomness": (
        re.compile(
            r"\b(?:std::)?(?:rand|srand|rand_r|drand48|lrand48)\s*\(|"
            r"\bstd::random_device\b|\bstd::mt19937(?:_64)?\b|"
            r"\bstd::minstd_rand0?\b|\bstd::default_random_engine\b"),
        "uncontrolled randomness; use common/rng.hh"),
    "wall-clock": (
        re.compile(
            r"\bstd::chrono::(?:system|steady|high_resolution)_clock\b|"
            r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\s*\(|"
            r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&)"),
        "wall-clock time; simulated time only"),
    "thread-identity": (
        re.compile(
            r"\bstd::this_thread::get_id\s*\(|\bpthread_self\s*\(|"
            r"(?<![\w:])gettid\s*\(|\bstd::thread::id\b"),
        "thread identity as data; lane identity comes from "
        "laneOf(node), not the OS thread"),
    "float-control": (
        re.compile(
            # A float/double declaration of control state...
            r"\b(?:float|double)\s+(?:\w+\s+)?%s\s*[;={]|"
            # ...or accumulating into it with floating-point arithmetic.
            r"\b%s\s*(?:\+=|-=|\*=)\s*[^;]*"
            r"(?:\d\.\d*\b|\bfloat\b|\bdouble\b)" % (_R6_NAME, _R6_NAME)),
        "floating-point accumulation in control state; smoothed "
        "SLO/admission state must be fixed-point (see the Q8 EWMA in "
        "src/net/slo_tracker.hh)"),
}

# Files allowed to use the primitives they encapsulate.
DET_ALLOWLIST = {
    "src/common/rng.hh": {"randomness"},
    "src/common/time.hh": {"wall-clock"},
}

# --- suppression ------------------------------------------------------------

SUPPRESS_RE = re.compile(
    r"hades-analyze:\s*([a-z0-9-]+)-ok(?:\s*\(([^)]*)\))?")
DET_LINT_OK_RE = re.compile(r"det-lint:\s*ordered-ok")
# The D-rules honour any `det-lint:` marker.
DET_LINT_ANY_RE = re.compile(r"det-lint:")

ALL_RULES = (
    "lane-escape", "verb-totality", "verb-reliability", "epoch-fence",
    "unordered-iter", "pointer-order", "randomness", "wall-clock",
    "thread-identity", "float-control", "suppression",
)
