"""The hades-analyze rule implementations.

Each rule is a function `(Index, Suppressor) -> list[Finding]`; some
also publish extra machine-readable artifacts on the returned Report.

A note on A1 soundness: Network::refuseIfThreaded and
TxnEngine::ensureSerialForLockMode throw sim::SerialRerunNeeded, and
core::runOne then discards the ENTIRE threaded attempt and redoes the
spec on the deterministic executor (runner.cc). Gate coverage is
therefore sound run-wide and flow-insensitively: if executing a
function guarantees a gate fires somewhere in the same run, every
write of that run is discarded whenever the run was threaded. Coverage
consequently propagates both through synchronous callers and into
lambdas the covered code creates (the lambda only exists in runs where
its creator ran).
"""

import os
import re

from . import config as C
from .model import Finding, WriteSite
from .cpp_lexer import lex


# --- shared helpers ---------------------------------------------------------

class Suppressor:
    """Looks up `// hades-analyze: <rule>-ok (justification)` markers on
    a finding's line or the line above. A marker with no justification
    does not suppress -- it becomes its own finding (rule
    'suppression'). R3X/R4X additionally honor the pre-existing
    `det-lint: ordered-ok` markers, and the D-rules any `det-lint:`
    marker."""

    DET_LINT_RULES = {"unordered-iter", "pointer-order"}

    def __init__(self, index):
        self.index = index
        self.used = set()       # (path, line, rule) markers consulted

    def find(self, path, line, rule):
        """Returns (suppressed, justification)."""
        for ln in (line, line - 1):
            text = self.index.comment_at(path, ln)
            if not text:
                continue
            for m in C.SUPPRESS_RE.finditer(text):
                if m.group(1) == rule:
                    just = (m.group(2) or "").strip()
                    if just:
                        self.used.add((path, ln, rule))
                        return True, just
            if rule in self.DET_LINT_RULES and C.DET_LINT_OK_RE.search(text):
                self.used.add((path, ln, rule))
                return True, "det-lint: ordered-ok"
            if rule in C.DET_PATTERNS and C.DET_LINT_ANY_RE.search(text):
                self.used.add((path, ln, rule))
                return True, "det-lint"
        return False, ""

    def marker_findings(self):
        """Malformed markers: unknown rule name or missing mandatory
        justification."""
        out = []
        for (path, line), text in sorted(self.index.comments.items()):
            for m in C.SUPPRESS_RE.finditer(text):
                rule, just = m.group(1), (m.group(2) or "").strip()
                if rule not in C.ALL_RULES:
                    out.append(Finding(
                        "suppression", path, line,
                        "unknown hades-analyze rule '%s-ok'" % rule,
                        "valid rules: %s" % ", ".join(C.ALL_RULES)))
                elif not just:
                    out.append(Finding(
                        "suppression", path, line,
                        "suppression '%s-ok' has no justification" % rule,
                        "write `hades-analyze: %s-ok (<why this is "
                        "safe>)`" % rule))
        return out


def expr_components(expr):
    """Split a compact expression spelling into postfix-chain
    components: 'sys_.network.post' -> ['sys_', 'network', 'post'];
    calls and subscripts are tagged: 'st().x' -> ['st()', 'x'],
    'm_[k].y' -> ['m_[]', 'y']. '::'-qualified heads stay one
    component ('std::max')."""
    toks, _ = lex(expr)
    comps = []
    i = 0
    n = len(toks)
    depth = 0

    def skip_group(i, open_ch, close_ch):
        d = 0
        while i < n:
            t = toks[i].text
            if t == open_ch:
                d += 1
            elif t == close_ch:
                d -= 1
                if d == 0:
                    return i + 1
            i += 1
        return n

    cur = []
    while i < n:
        t = toks[i].text
        if t in (".", "->"):
            if cur:
                comps.append("".join(cur))
            cur = []
            i += 1
            continue
        if t == "(":
            i = skip_group(i, "(", ")")
            cur.append("()")
            continue
        if t == "[":
            i = skip_group(i, "[", "]")
            cur.append("[]")
            continue
        if t == "::":
            cur.append("::")
            i += 1
            continue
        if toks[i].kind == "id":
            cur.append(t)
            i += 1
            continue
        if t in ("*", "&", "!"):
            i += 1
            continue
        # Anything else (operators, commas) ends the chain of interest.
        if cur:
            comps.append("".join(cur))
            cur = []
        i += 1
    if cur:
        comps.append("".join(cur))
    return comps


class TypeResolver:
    """Best-effort static type resolution over expression spellings.
    Returns a type spelling or '' when unresolvable; rules must treat
    '' as 'no claim', never as 'clean'."""

    def __init__(self, index):
        self.index = index

    def visible_vars(self, fn):
        """Locals and params of @p fn plus, for lambdas, of the parent
        chain (captures)."""
        out = {}
        chain = [fn]
        seen = set()
        cur = fn
        while cur.is_lambda and cur.parent_func and \
                cur.parent_func not in seen:
            seen.add(cur.parent_func)
            parents = self.index.func_by_name.get(cur.parent_func, [])
            if not parents:
                break
            cur = parents[0]
            chain.append(cur)
        for f in reversed(chain):   # innermost shadows outermost
            for v in f.params:
                out[v.name] = v.type_spelling
            for v in f.locals:
                out[v.name] = v.type_spelling
        return out

    def class_of(self, type_spelling, depth=0):
        """ClassInfo for a type spelling, chasing aliases and peeling
        wrapper templates (shared_ptr/unique_ptr/reference_wrapper)."""
        if not type_spelling or depth > 4:
            return None
        t = self.index.resolve_alias(type_spelling).strip()
        t = re.sub(r"\b(const|mutable|static|constexpr|inline)\b", "", t)
        t = t.replace("&", " ").replace("*", " ").strip()
        m = re.match(r"^(?:std::)?(shared_ptr|unique_ptr|optional|"
                     r"reference_wrapper)\s*<(.*)>$", t)
        if m:
            return self.class_of(m.group(2), depth + 1)
        base = t.split("<")[0].strip().split("::")[-1]
        return self.index.classes.get(base)

    @staticmethod
    def template_args(type_spelling):
        """Top-level template argument spellings of 'T<a, b<c,d>, e>'."""
        lt = type_spelling.find("<")
        if lt < 0:
            return []
        gt = type_spelling.rfind(">")
        inner = type_spelling[lt + 1:gt if gt > lt else None]
        args = []
        depth = 0
        cur = []
        for ch in inner:
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            if ch == "," and depth == 0:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        if cur:
            args.append("".join(cur).strip())
        return args

    def element_type(self, container_spelling):
        """Value type yielded by subscripting a container."""
        t = self.index.resolve_alias(container_spelling)
        args = self.template_args(t)
        base = t.split("<")[0].split("::")[-1].strip()
        if base in ("map", "unordered_map") and len(args) >= 2:
            return args[1]
        if args:
            return args[0]
        return ""

    def resolve(self, fn, expr):
        """Type spelling of @p expr evaluated in @p fn, or ''."""
        comps = expr_components(expr)
        if not comps:
            return ""
        head = comps[0]
        name = head.replace("()", "").replace("[]", "")
        if "::" in name:        # std::..., enum constants: no claim
            return ""
        t = self.head_type(fn, name)
        if not t:
            return ""
        if head.endswith("()") and not self.is_var(fn, name):
            pass                # t already the return type
        if head.endswith("[]"):
            t = self.element_type(t)
        for comp in comps[1:]:
            t = self.step(t, comp)
            if not t:
                return ""
        return self.index.resolve_alias(self.unwrap_auto(t))

    def unwrap_auto(self, t):
        return t  # auto handled in head_type

    def is_var(self, fn, name):
        return name in self.visible_vars(fn)

    def head_type(self, fn, name, depth=0):
        if depth > 4:
            return ""
        vars_ = self.visible_vars(fn)
        if name in vars_:
            t = vars_[name]
            if t.startswith("auto="):
                # 'auto &m = map_;' -- resolve the initializer.
                return self.resolve(fn, t[len("auto="):])
            if t in ("auto", ""):
                return ""
            return t
        # Member of the enclosing class?
        if fn.cls:
            ci = self.index.classes.get(fn.cls) or \
                self.index.classes.get(fn.cls.split("::")[-1])
            if ci:
                for fld in ci.fields:
                    if fld.name == name:
                        return fld.type_spelling
                # Method return type.
                for cand in self.index.func_by_name.get(name, []):
                    if cand.cls == ci.name and cand.return_type:
                        return cand.return_type
        # Unique field name anywhere?
        cands = self.index.fields_by_name.get(name, [])
        if len(cands) == 1:
            return cands[0].type_spelling
        # Unique free/method function?
        fns = [f for f in self.index.func_by_name.get(name, [])
               if f.return_type]
        rts = {f.return_type for f in fns}
        if len(rts) == 1:
            return next(iter(rts))
        return ""

    def step(self, t, comp):
        """Type after applying chain component @p comp to a value of
        type @p t."""
        name = comp.replace("()", "").replace("[]", "")
        ci = self.class_of(t)
        nt = ""
        if ci:
            for fld in ci.fields:
                if fld.name == name:
                    nt = fld.type_spelling
                    break
            if not nt:
                for cand in self.index.func_by_name.get(name, []):
                    if cand.cls == ci.name and cand.return_type:
                        nt = cand.return_type
                        break
        if not nt:
            # Container protocol: .second on map iterations etc. --
            # no class info; give up.
            return ""
        if comp.endswith("[]"):
            nt = self.element_type(nt)
        return nt


# --- A1: lane escape --------------------------------------------------------

def compute_context(index):
    """Map function qualified name -> safety reason or '' (unsafe =
    potentially executes, and survives, in a threaded-lane context).
    Reasons: 'setup', 'uncertified-subsystem', 'gate-covered',
    'caller-covered'."""
    safe = {}
    by_short = {}
    for fn in index.functions:
        by_short.setdefault(fn.name.split("::")[-1], []).append(fn)
        reason = ""
        short_name = fn.name.split("::")[-1].split("<")[0]
        if fn.file.startswith(C.A1_UNCERTIFIED_DIRS):
            reason = "uncertified-subsystem"
        elif fn.is_ctor or C.A1_SETUP_FUNC_RE.match(short_name):
            reason = "setup"
        elif fn.file.startswith(C.A1_RUNNER_FILES) and \
                not fn.is_lambda and \
                short_name not in C.A1_RUNNER_EXCEPT:
            reason = "setup"
        else:
            for call in fn.calls:
                callee_short = expr_components(call.callee)
                callee_short = callee_short[-1].replace("()", "") \
                    if callee_short else ""
                if callee_short in C.A1_GATE_FUNCS:
                    reason = "gate-covered"
                    break
        if reason:
            safe[fn.name] = reason

    # Caller sets: short callee name -> caller function names.
    callers = {}
    for fn in index.functions:
        for call in fn.calls:
            comps = expr_components(call.callee)
            short = comps[-1].replace("()", "") if comps else ""
            if short:
                callers.setdefault(short, set()).add(fn.name)

    # Fixpoint: covered if the creator chain (lambdas) or every known
    # caller is covered. 'gated' and 'uncertified-subsystem' are
    # run-level arguments and flow through every edge, including
    # deferred ones (the callee/lambda only exists in runs where its
    # creator ran). 'setup' is a TIMING argument -- it must not flow
    # into deferred execution: not into lambdas (a callback created at
    # t=0 still runs in event context later) and not into coroutines
    # (spawning one from the prologue resumes it on a node lane).
    def is_setupish(reason):
        return reason.startswith("setup")

    fns_by_name = {}
    for fn in index.functions:
        fns_by_name.setdefault(fn.name, fn)
    changed = True
    while changed:
        changed = False
        for fn in index.functions:
            if fn.name in safe:
                continue
            if fn.is_lambda and fn.parent_func in safe and \
                    not is_setupish(safe[fn.parent_func]):
                safe[fn.name] = safe[fn.parent_func]
                changed = True
                continue
            short = fn.name.split("::")[-1]
            cs = callers.get(short, set()) - {fn.name}
            if cs and all(c in safe for c in cs):
                if any(is_setupish(safe[c]) for c in cs):
                    if fn.is_coro:
                        continue    # deferred: timing does not carry
                    safe[fn.name] = "setup-covered"
                else:
                    safe[fn.name] = "caller-covered"
                changed = True
    return safe


def owner_class_of_write(index, resolver, fn, w, target_classes):
    """Qualified class name owning the field written by @p w, or ''."""
    if w.cls:
        return w.cls
    cands = [f.cls for f in index.fields_by_name.get(w.field, [])]
    if len(set(cands)) == 1:
        return cands[0]
    comps = expr_components(w.expr)
    if len(comps) >= 2:
        # Resolve the receiver (everything but the final field).
        recv = w.expr
        cut = recv.rfind(w.field)
        if cut > 0:
            recv = recv[:cut].rstrip(".->")
        t = resolver.resolve(fn, recv)
        ci = resolver.class_of(t)
        if ci and ci.name in cands:
            return ci.name
    in_target = [c for c in set(cands) if c in target_classes]
    if len(in_target) == 1:
        return in_target[0]
    return ""


FIELD_CHAIN_RE = re.compile(
    r"^(?:this\s*->\s*)?[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*$")


def is_mutable_ref(type_spelling):
    """Is @p type_spelling an lvalue reference to non-const ('T &')?"""
    t = type_spelling.strip()
    if not t.endswith("&") or t.endswith("&&"):
        return False
    # Only a top-level const counts: drop template arguments first.
    prev = None
    while prev != t:
        prev, t = t, re.sub(r"<[^<>]*>", "", t)
    return not re.search(r"\bconst\b", t)


def ref_arg_writes(index, resolver, fn):
    """WriteSites for field chains that @p fn passes to a parameter
    declared as a non-const lvalue reference to a type the index does
    not model as a class (a container, a scalar): only the callee can
    mutate such a field, in place. A reference to a modeled class is a
    handle; what its methods write is inventoried as that class's own
    fields, as for a method called on the field directly."""
    out = []
    for call in fn.calls:
        comps = expr_components(call.callee)
        short = comps[-1].replace("()", "").split("<")[0] if comps else ""
        short = short.split("::")[-1]
        written = set()
        for cand in index.func_by_name.get(short, []):
            for i, param in enumerate(cand.params[:len(call.args)]):
                if is_mutable_ref(param.type_spelling) and \
                        resolver.class_of(param.type_spelling) is None:
                    written.add(i)
        for i in sorted(written):
            arg = call.args[i]
            if not FIELD_CHAIN_RE.match(arg):
                continue
            names = re.findall(r"[A-Za-z_]\w*", arg)
            if names[0] == "this":
                names = names[1:]
                cls = fn.cls
            elif len(names) == 1:
                if resolver.is_var(fn, names[0]):
                    continue    # a local or parameter, not a field
                cls = fn.cls
            else:
                cls = ""
            out.append(WriteSite(
                field=names[-1], cls=cls, expr=arg, kind="call",
                via_method=short, file=call.file, line=call.line,
                func=call.func))
    return out


# Lambda names carry their source line (`<lambda:123>`); the inventory
# drops it with the other line numbers.
LAMBDA_LINE_RE = re.compile(r"<lambda:\d+>")


def rule_lane_escape(index, supp):
    """A1: inventory every mutable field of the engine/network/recovery
    classes and prove each write is lane-confined; unexplained writes
    are findings. Also returns the machine-readable inventory."""
    resolver = TypeResolver(index)
    context = compute_context(index)

    target_classes = {}
    for f in index.files:
        if not f.path.startswith(C.A1_TARGET_DIRS):
            continue
        for c in f.classes:
            target_classes[c.name] = c

    inventory = {}
    for cname in sorted(target_classes):
        ci = target_classes[cname]
        cls_supp, cls_just = supp.find(ci.file, ci.line, "lane-escape")
        ent = {}
        for fld in ci.fields:
            if fld.is_static or fld.is_const:
                classification = "const-or-static"
            else:
                classification = "unwritten"
            f_supp, f_just = supp.find(fld.file, fld.line, "lane-escape")
            ent[fld.name] = {
                "type": fld.type_spelling,
                "declared": fld.file,
                "classification": classification,
                "writes": [],
            }
            if cls_supp:
                ent[fld.name]["classification"] = "annotated-class"
                ent[fld.name]["justification"] = cls_just
            elif f_supp:
                ent[fld.name]["classification"] = "annotated-field"
                ent[fld.name]["justification"] = f_just
        inventory[cname] = ent

    findings = []
    fn_by_name = {fn.name: fn for fn in index.functions}
    for fn in index.functions:
        for w in fn.writes + ref_arg_writes(index, resolver, fn):
            owner = owner_class_of_write(index, resolver, fn, w,
                                         target_classes)
            if owner not in target_classes:
                continue
            ent = inventory[owner].get(w.field)
            if ent is None:
                continue    # write to something we did not model
            reason = context.get(fn.name, "")
            if not reason:
                head = expr_components(w.expr)
                head = head[0] if head else ""
                if head.replace("()", "") in C.A1_NODE_ACCESSORS and \
                        head.endswith("()"):
                    reason = "accessor:%s" % head
                elif w.index_expr and \
                        C.A1_NODE_INDEX_RE.search(w.index_expr):
                    reason = "lane-sharded[%s]" % w.index_expr
            site = {
                "at": w.file,
                "func": LAMBDA_LINE_RE.sub("<lambda>", w.func),
                "expr": w.expr,
                "context": reason or "ESCAPE",
            }
            ent["writes"].append(site)
            cur = ent["classification"]
            if cur in ("annotated-class", "annotated-field"):
                site["context"] = reason or cur
                continue
            if reason:
                if cur in ("unwritten", "const-or-static") or \
                        cur == reason:
                    ent["classification"] = reason
                else:
                    ent["classification"] = "mixed"
                continue
            ok, just = supp.find(w.file, w.line, "lane-escape")
            if ok:
                site["context"] = "annotated-site"
                site["justification"] = just
                if cur in ("unwritten",):
                    ent["classification"] = "annotated-site"
                continue
            ent["classification"] = "ESCAPE"
            findings.append(Finding(
                "lane-escape", w.file, w.line,
                "write to %s::%s from threaded-reachable context %s"
                % (owner.split("::")[-1], w.field, fn.name),
                "expr `%s`; not setup, not gate-covered, not "
                "per-node-indexed; annotate the write, field, or class "
                "with lane-escape-ok or route it through a per-node "
                "accessor" % w.expr))

    # Sites carry file paths, not lines, so a change that only moves
    # code leaves the checked-in inventory untouched; sites that become
    # identical merge.
    for ent in inventory.values():
        for rec in ent.values():
            rec["writes"] = [dict(t) for t in sorted(
                {tuple(sorted(s.items())) for s in rec["writes"]})]
    return findings, inventory


# --- A2: verb totality and reliability --------------------------------------

def resolve_switch_enum(index, resolver, fn, sw):
    if sw.cond_enum:            # the clang frontend resolves the type
        return index.enums.get(sw.cond_enum.split("::")[-1])
    for ename in C.A2_TOTAL_ENUMS:
        if re.search(r"\b%s\b" % ename, sw.cond):
            return index.enums.get(ename)
    t = resolver.resolve(fn, sw.cond)
    if t:
        e = index.enums.get(t.split("<")[0].split("::")[-1].strip())
        if e:
            return e
    return None


def rule_verb_totality(index, supp):
    """A2a: switches over protocol enums must name every member (a
    default: clause does not excuse a hole -- new verbs must break
    loudly)."""
    resolver = TypeResolver(index)
    findings = []
    for fn in index.functions:
        for sw in fn.switches:
            e = resolve_switch_enum(index, resolver, fn, sw)
            if e is None or e.name.split("::")[-1] not in C.A2_TOTAL_ENUMS:
                continue
            covered = set()
            for lbl in sw.cases:
                covered.add(lbl.split("::")[-1].strip())
            missing = [m for m in e.members
                       if not C.A2_SENTINEL_RE.match(m)
                       and m not in covered]
            if not missing:
                continue
            ok, _ = supp.find(sw.file, sw.line, "verb-totality")
            if ok:
                continue
            findings.append(Finding(
                "verb-totality", sw.file, sw.line,
                "switch on %s misses: %s"
                % (e.name.split("::")[-1], ", ".join(missing)),
                "in %s%s; every enumerator needs an explicit case"
                % (fn.name,
                   " (default: present, which hides new verbs)"
                   if sw.has_default else "")))
    return findings


def post_verb(call):
    """MsgType verb named in a post/roundTrip call's arguments."""
    for a in call.args:
        m = re.search(r"\bMsgType::(\w+)", a)
        if m:
            return m.group(1)
    return ""


def rule_verb_reliability(index, supp):
    """A2b: every posted verb needs a registered delivery guarantee.
    roundTrip is NIC-reliable (RC retransmission); reliablePost is the
    Ack-confirmed software path; a bare Network::post is only legal for
    protocol replies (Ack) or inside the reliability wrapper itself --
    anything else must carry a verb-reliability-ok justification
    naming the covering retry."""
    findings = []
    verb_map = {}

    def note(verb, how, call):
        verb_map.setdefault(verb, []).append(
            {"via": how, "at": "%s:%d" % (call.file, call.line),
             "func": call.func})

    for fn in index.functions:
        short_chain = {fn.name.split("::")[-1]}
        cur = fn
        while cur.is_lambda and cur.parent_func:
            short_chain.add(cur.parent_func.split("::")[-1])
            parents = index.func_by_name.get(cur.parent_func, [])
            if not parents:
                break
            cur = parents[0]
        for call in fn.calls:
            comps = expr_components(call.callee)
            short = comps[-1].replace("()", "") if comps else ""
            verb = post_verb(call)
            if not verb:
                continue
            if short in ("roundTrip", "faultyRoundTrip"):
                note(verb, "roundTrip (NIC RC retransmission)", call)
                continue
            if short == "reliablePost":
                note(verb, "reliablePost (Ack-confirmed resend)", call)
                continue
            if short != "post":
                continue
            if verb in C.A2_NIC_VERBS:
                note(verb, "one-sided RDMA verb on an RC QP (NIC "
                     "retransmission)", call)
                continue
            if verb in C.A2_REPLY_VERBS:
                note(verb, "bare post (protocol reply; originator "
                     "owns the retry)", call)
                continue
            if short_chain & C.A2_RELIABILITY_WRAPPERS:
                note(verb, "bare post inside the reliability wrapper",
                     call)
                continue
            ok, just = supp.find(call.file, call.line,
                                 "verb-reliability")
            if ok:
                note(verb, "bare post, justified: %s" % just, call)
                continue
            note(verb, "bare post, UNJUSTIFIED", call)
            findings.append(Finding(
                "verb-reliability", call.file, call.line,
                "bare post of MsgType::%s has no registered retry "
                "path" % verb,
                "in %s; use reliablePost/roundTrip, or annotate "
                "verb-reliability-ok naming the covering "
                "timeout/resend" % fn.name))
    for v in verb_map.values():
        v.sort(key=lambda s: s["at"])
    return findings, verb_map


# --- A3: epoch fencing ------------------------------------------------------

def fn_has_epoch_guard(index, fn):
    """An epoch comparison in @p fn or any enclosing function (for
    lambdas, the creator chain: the guard dominating the lambda's
    creation fences everything the lambda does in that view)."""
    seen = set()
    cur = fn
    while cur is not None and cur.name not in seen:
        seen.add(cur.name)
        for cmp_ in cur.comparisons:
            if C.A3_EPOCH_RE.search(cmp_.lhs) or \
                    C.A3_EPOCH_RE.search(cmp_.rhs):
                return True
        if cur.is_lambda and cur.parent_func:
            parents = index.func_by_name.get(cur.parent_func, [])
            cur = parents[0] if parents else None
        else:
            cur = None
    return False


def rule_epoch_fence(index, supp):
    """A3: handlers mutating view-changed state (pendingApplies,
    decisionLog) must compare a configuration epoch first, unless they
    ARE the view-change/recovery machinery or run at setup."""
    findings = []
    for fn in index.functions:
        if C.A3_OWNER_CLASS_RE.search(fn.cls or fn.name):
            continue
        if fn.is_ctor:
            continue
        for w in fn.writes:
            if w.field not in C.A3_VIEW_STATE_FIELDS:
                continue
            if fn_has_epoch_guard(index, fn):
                continue
            ok, _ = supp.find(w.file, w.line, "epoch-fence")
            if ok:
                continue
            findings.append(Finding(
                "epoch-fence", w.file, w.line,
                "%s mutates view-changed state '%s' without an epoch "
                "guard" % (fn.name, w.field),
                "compare a configuration epoch (grant/cm/view) before "
                "mutating, or annotate epoch-fence-ok naming the "
                "fence that already covers delivery"))
    return findings


# --- R3X: unordered iteration (cross-file accurate) -------------------------

def rule_unordered_iter(index, supp):
    """det-lint R3, reimplemented over the IR: ranged-for over an
    unordered container, resolving the range expression through
    locals, parameters, fields declared in OTHER files, aliases, and
    accessor return types (the regex version only saw same-file
    declarations)."""
    resolver = TypeResolver(index)
    findings = []
    unresolved = 0
    for fn in index.functions:
        for rf in fn.ranged_fors:
            t = rf.range_type or resolver.resolve(fn, rf.range_expr)
            if not t:
                unresolved += 1
                continue
            if not C.R3_UNORDERED_RE.search(t):
                continue
            ok, _ = supp.find(rf.file, rf.line, "unordered-iter")
            if ok:
                continue
            findings.append(Finding(
                "unordered-iter", rf.file, rf.line,
                "ranged-for over unordered container `%s`"
                % rf.range_expr,
                "resolved type %s in %s; iteration order is not "
                "deterministic -- iterate a sorted copy or switch the "
                "container" % (t, fn.name)))
    return findings, unresolved


# --- R4X: pointer-keyed ordered containers ----------------------------------

def rule_pointer_order(index, supp):
    """det-lint R4, reimplemented over the IR: ordered containers
    keyed on raw pointers order by address, which varies run to run.
    Unlike the regex, this sees multi-line declarations, typedefs, and
    aliases -- and accepts an explicit custom comparator."""
    findings = []

    def check(name, type_spelling, path, line, where):
        t = index.resolve_alias(type_spelling)
        m = C.R4_ORDERED_TMPL_RE.search(t)
        if not m:
            return
        kind = m.group(1)
        args = TypeResolver.template_args(t[m.start():])
        if not args:
            return
        key = index.resolve_alias(args[0]).strip()
        if kind == "priority_queue":
            # Ordered by the comparator (arg 3) over T (arg 1).
            if len(args) >= 3:
                return      # custom comparator: author chose the order
            if not key.rstrip().endswith("*"):
                return
        else:
            cmp_pos = 2 if kind in ("map", "multimap") else 1
            if len(args) > cmp_pos:
                return      # custom comparator
            if not key.rstrip().endswith("*"):
                return
        ok, _ = supp.find(path, line, "pointer-order")
        if ok:
            return
        findings.append(Finding(
            "pointer-order", path, line,
            "%s `%s` is ordered by raw pointer value" % (where, name),
            "type %s; address order varies run to run -- key on a "
            "stable id or supply a deterministic comparator" % t))

    for f in index.files:
        for c in f.classes:
            for fld in c.fields:
                check(fld.name, fld.type_spelling, fld.file, fld.line,
                      "field")
        for v in f.file_vars:
            check(v.name, v.type_spelling, v.file, v.line, "variable")
        for a in f.aliases:
            check(a.name, a.target, a.file, a.line, "alias")
    for fn in index.functions:
        for v in fn.locals:
            if v.type_spelling.startswith("auto"):
                continue
            check(v.name, v.type_spelling, v.file, v.line, "local")
    return findings


# --- D-rules: determinism line patterns ---------------------------------------

def rule_det_pattern(index, supp, rule):
    """The determinism line patterns (config.DET_PATTERNS; formerly
    det-lint R1, R2, R5 and R6): a regex over each source line with its
    `//` comment stripped, so commented-out code is not flagged."""
    pattern, message = C.DET_PATTERNS[rule]
    findings = []
    for f in index.files:
        if rule in C.DET_ALLOWLIST.get(f.path, ()):
            continue
        with open(os.path.join(index.repo, f.path), "r", encoding="utf-8",
                  errors="replace") as fh:
            lines = fh.read().splitlines()
        for i, raw in enumerate(lines, 1):
            if not pattern.search(raw.split("//", 1)[0]):
                continue
            ok, _ = supp.find(f.path, i, rule)
            if not ok:
                findings.append(Finding(rule, f.path, i, message,
                                        raw.strip()))
    return findings
