"""hades-analyze: AST-grounded semantic lint suite for the HADES tree.

The analyzer proves (or inventories) three families of HADES-specific
invariants that regex lints cannot see:

  A1 lane-safety       which mutable engine/network/recovery state is
                       confined to one kernel shard lane -- the static
                       precondition for certifying messaging specs for
                       the threaded executor.
  A2 verb totality     every net::MsgType is handled by every switch
                       over the enum, and every one-way post of a verb
                       has a registered reliability/retry path.
  A3 epoch fencing     handlers that mutate view-changed state compare
                       a configuration epoch first (PR 4's stale-epoch
                       fencing rule).

plus R3X/R4X: iteration over unordered containers and pointer-keyed
ordering, with range and key types resolved across files. They are the
only checks for either hazard and honour `det-lint: ordered-ok`.

plus the determinism line patterns (config.DET_PATTERNS): randomness,
wall-clock, thread-identity and float-control, regexes over each
comment-stripped source line with the rng.hh/time.hh allowlist. Any
`det-lint:` marker on the line or the line above suppresses them.

Two interchangeable frontends produce the same semantic IR:

  * parse_clang    -- real `clang++ -Xclang -ast-dump=json` dumps,
                      driven by compile_commands.json, cached by source
                      hash (the CI path);
  * parse_fallback -- a built-in C++ tokenizer/structural parser, used
                      where clang is not installed (dev containers).

Suppression syntax (the justification is mandatory):

    // hades-analyze: <rule>-ok (why this is safe)

on the flagged line or the line directly above it.
"""

__version__ = "1.0"
