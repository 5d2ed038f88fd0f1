// Member-level state-flow pass of planaria-lint (DESIGN.md §17).
//
// For every class that declares a save_state/load_state pair, this pass
// reconciles the class's data members (trailing-underscore identifiers from
// the structural analysis) against what the pair actually serializes:
//
//   state-unsaved-member   member mutated somewhere reachable from the state
//                          roots (state-root + hot-root specs) but never
//                          touched by save_state/load_state
//   state-unloaded-member  member serialized on one side of the pair only
//   state-order-mismatch   save and load touch the common members in
//                          different sequences — PLNSNAP1 has no field tags,
//                          so the touch order IS the byte layout
//   state-det-taint        serialized member assigned from a nondeterminism
//                          source, directly or through a called helper
//
// Soundness limits, deliberate and documented (§17):
//   * members are recognized by the project's trailing-underscore
//     convention; plain structs (SimResult) are invisible to the pass;
//   * an ordered "serializing touch" is a whole-value use (w.u64(m_),
//     m_ = r.u64()) or a member call (m_.save_state(w, ...)) in a statement
//     that names the codec object (the method's Writer/Reader parameter) —
//     derived-state rebuilds (clear(), rebuild_free()) and bare field
//     accesses (w.u64(counters_.reads)) register as mentions but never as
//     ordered touches, so field-granular codecs are checked at member
//     granularity only;
//   * helper calls are followed same-class only, to depth 3; lambdas are
//     scanned at their definition site, which matches the define-then-call
//     shape every codec in this tree uses;
//   * templates are analyzed once over their written body, never per
//     instantiation — one SetAssocTable node stands for every payload type.
//
// Waivers: a lint-prefixed `volatile(<member>): reason` comment near the
// member or the codec, or a `volatile-member <spec> : <reason>` line in
// layers.conf.
// Waived findings are emitted with suppress_reason pre-filled so they land
// in the report's suppressed list — auditable, not invisible.
#include "lint/internal.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

namespace planaria::lint {
namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}
bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], opener)) ++depth;
    else if (is_punct(toks[i], closer) && --depth == 0) return i;
  }
  return std::string::npos;
}

bool member_prefix(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && (is_punct(toks[i - 1], ".") ||
                   (is_punct(toks[i - 1], ">") && i > 1 &&
                    is_punct(toks[i - 2], "-")));
}

/// Same mutating-member-function list the race rules use (rules.cpp keeps
/// its copy in its own anonymous namespace).
const std::set<std::string>& container_mutators() {
  static const std::set<std::string> m = {
      "push_back", "emplace_back", "emplace_front", "push_front", "insert",
      "emplace",   "erase",        "clear",         "resize",     "pop_back",
      "pop_front", "push",         "pop",           "assign",     "append",
      "reserve",
  };
  return m;
}

/// The determinism rule's ban lists (rule_determinism keeps its copies in
/// rules.cpp's anonymous namespace); here they taint assigned values rather
/// than flagging the call site itself.
const std::set<std::string>& banned_calls() {
  static const std::set<std::string> c = {
      "time",         "clock", "gettimeofday", "clock_gettime",
      "timespec_get", "rand",  "srand",        "rand_r",
      "drand48",      "getenv", "secure_getenv",
  };
  return c;
}
const std::set<std::string>& banned_types() {
  static const std::set<std::string> t = {
      "random_device", "system_clock", "steady_clock", "high_resolution_clock",
  };
  return t;
}

/// One function definition bound to the file that holds its tokens.
struct MethodDef {
  const FunctionDef* fn = nullptr;
  const FileInfo* file = nullptr;
  bool valid() const { return fn != nullptr; }
};

/// An ordered serializing touch: member name + the line of its first touch.
struct Touch {
  std::string member;
  int line = 0;
};

struct StateClass {
  const ClassInfo* cls = nullptr;
  const FileInfo* decl_file = nullptr;
  std::set<std::string> members;
  std::map<std::string, int> member_line;
  /// Every definition attributed to this class (out-of-line by class_name,
  /// inline by innermost body nesting), keyed by name for helper following.
  std::map<std::string, MethodDef> methods;
  MethodDef save, load;
  std::vector<Touch> save_seq, load_seq;
  std::set<std::string> save_mentions, load_mentions;
};

/// Reason a member is waived (inline directive in the declaring or codec
/// files, or a layers.conf volatile-member line), or empty.
std::string waiver_reason(const StateClass& sc, const Config& config,
                          const std::string& member) {
  std::vector<const FileInfo*> sources = {sc.decl_file, sc.save.file,
                                          sc.load.file};
  for (const FileInfo* f : sources) {
    if (f == nullptr) continue;
    for (const MemberWaiver& w : f->volatile_waivers) {
      if (w.member == member) return w.reason;
    }
  }
  for (const VolatileMember& v : config.volatile_members) {
    if (v.spec == member || v.spec == sc.cls->name + "::" + member) {
      return "[layers.conf volatile-member] " + v.reason;
    }
  }
  return {};
}

/// Parameter names of a definition: identifiers in the parameter list that
/// are immediately followed by ',' / ')' / '=' — i.e. declarator tails.
std::set<std::string> param_names(const FunctionDef& fn,
                                  const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (std::size_t i = fn.params_begin + 1;
       i < fn.params_end && i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    const Token& next = toks[i + 1];
    if (next.kind == TokenKind::kPunct &&
        (next.text == "," || next.text == ")" || next.text == "=")) {
      names.insert(toks[i].text);
    }
  }
  return names;
}

/// True when the statement containing token `i` (bounded by ';' '{' '}')
/// names any identifier in `names`. Used to separate byte-carrying codec
/// statements (w.u64(tick_); tick_ = r.u64();) from derived-state rebuilds
/// (clear(); index_.insert(...);) that touch members without moving bytes.
bool stmt_has_any(const std::vector<Token>& toks, std::size_t i,
                  std::size_t lo, std::size_t hi,
                  const std::set<std::string>& names) {
  if (names.empty()) return false;
  std::size_t b = i;
  while (b > lo) {
    const Token& t = toks[b - 1];
    if (t.kind == TokenKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      break;
    }
    --b;
  }
  std::size_t e = i;
  while (e < hi) {
    const Token& t = toks[e];
    if (t.kind == TokenKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      break;
    }
    ++e;
  }
  for (std::size_t k = b; k < e; ++k) {
    if (toks[k].kind == TokenKind::kIdentifier &&
        names.count(toks[k].text) != 0) {
      return true;
    }
  }
  return false;
}

/// Innermost class in `f` whose body token range contains `pos`, or null.
const ClassInfo* innermost_class(const FileInfo& f, std::size_t pos) {
  const ClassInfo* best = nullptr;
  for (const ClassInfo& cls : f.classes) {
    if (cls.body_begin == 0 && cls.body_end == 0) continue;
    if (cls.body_begin < pos && pos < cls.body_end) {
      if (best == nullptr ||
          cls.body_end - cls.body_begin < best->body_end - best->body_begin) {
        best = &cls;
      }
    }
  }
  return best;
}

/// True when the identifier at `i` is a call site on the class itself:
/// unqualified `helper(` or explicitly qualified `Cls::helper(`.
bool own_call(const std::vector<Token>& toks, std::size_t i,
              const std::string& cls_name) {
  if (member_prefix(toks, i)) return false;
  if (i >= 2 && is_punct(toks[i - 1], ":") && is_punct(toks[i - 2], ":")) {
    return i >= 3 && is_ident(toks[i - 3], cls_name.c_str());
  }
  return true;
}

/// Walks one codec body (save_state or load_state), recording mentions and
/// ordered serializing touches of the class's members, following same-class
/// helper calls to `depth` levels.
///
/// `codec` holds the identifiers that carry bytes in this body (the codec
/// method's own parameter names — the Writer/Reader and any payload
/// functors). A touch joins the ordered sequence only when its statement
/// names one of them: `w.u64(tick_)` and `tick_ = r.u64()` are layout,
/// `clear()` and `index_.insert(...)` are derived-state rebuilds and
/// register as mentions only. A helper call forwards its byte stream — and
/// so contributes to the sequence — only when its call statement passes a
/// codec identifier along; it is always followed for mentions.
void scan_touches(const StateClass& sc, const MethodDef& def,
                  const std::set<std::string>& codec,
                  std::vector<Touch>& seq, std::set<std::string>& mentions,
                  std::set<const FunctionDef*>& visited, int depth) {
  if (!def.valid() || !visited.insert(def.fn).second) return;
  const auto& toks = def.file->src.tokens;
  const std::size_t begin = def.fn->body_begin;
  const std::size_t end = std::min(def.fn->body_end, toks.size() - 1);
  for (std::size_t i = begin + 1; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (sc.members.count(t.text) != 0 && !member_prefix(toks, i)) {
      mentions.insert(t.text);
      // Serializing touch: whole-value use, or a member call. A bare field
      // access (counters_.reads) is a mention only.
      bool strict = true;
      if (i + 1 < end && is_punct(toks[i + 1], ".")) {
        strict = i + 3 < end && toks[i + 2].kind == TokenKind::kIdentifier &&
                 is_punct(toks[i + 3], "(");
      } else if (i + 2 < end && is_punct(toks[i + 1], "-") &&
                 is_punct(toks[i + 2], ">")) {
        strict = i + 4 < end && toks[i + 3].kind == TokenKind::kIdentifier &&
                 is_punct(toks[i + 4], "(");
      }
      if (strict && stmt_has_any(toks, i, begin, end, codec)) {
        const bool seen = std::any_of(
            seq.begin(), seq.end(),
            [&](const Touch& s) { return s.member == t.text; });
        if (!seen) seq.push_back({t.text, t.line});
      }
      continue;
    }
    // Same-class helper call: recurse so `save_state` -> `encode_tables(w)`
    // keeps the member stream visible (depth-bounded, §17).
    if (depth > 0 && i + 1 < end && is_punct(toks[i + 1], "(") &&
        own_call(toks, i, sc.cls->name)) {
      const auto helper = sc.methods.find(t.text);
      if (helper != sc.methods.end() && helper->second.fn != def.fn) {
        const bool carries = stmt_has_any(toks, i, begin, end, codec);
        scan_touches(sc, helper->second,
                     carries ? param_names(*helper->second.fn,
                                           helper->second.file->src.tokens)
                             : std::set<std::string>{},
                     seq, mentions, visited, depth - 1);
      }
    }
  }
}

/// Mutation of the member whose identifier sits at `i`: walks the postfix
/// chain (subscripts, field accesses) and checks for an assignment operator,
/// compound assignment, ++/--, or a mutating container call. Returns the
/// line of the mutation, or 0.
int mutation_at(const std::vector<Token>& toks, std::size_t i,
                std::size_t end) {
  // Prefix ++/--.
  if (i >= 2 &&
      ((is_punct(toks[i - 1], "+") && is_punct(toks[i - 2], "+")) ||
       (is_punct(toks[i - 1], "-") && is_punct(toks[i - 2], "-")))) {
    return toks[i].line;
  }
  std::size_t j = i + 1;
  while (j < end) {
    if (is_punct(toks[j], "[")) {
      const std::size_t close = match_forward(toks, j, "[", "]");
      if (close == std::string::npos || close >= end) return 0;
      j = close + 1;
      continue;
    }
    if (is_punct(toks[j], ".") && j + 1 < end &&
        toks[j + 1].kind == TokenKind::kIdentifier) {
      if (j + 2 < end && is_punct(toks[j + 2], "(")) {
        return container_mutators().count(toks[j + 1].text) != 0
                   ? toks[j + 1].line
                   : 0;
      }
      j += 2;
      continue;
    }
    if (is_punct(toks[j], "-") && j + 2 < end && is_punct(toks[j + 1], ">") &&
        toks[j + 2].kind == TokenKind::kIdentifier) {
      if (j + 3 < end && is_punct(toks[j + 3], "(")) {
        return container_mutators().count(toks[j + 2].text) != 0
                   ? toks[j + 2].line
                   : 0;
      }
      j += 3;
      continue;
    }
    break;
  }
  if (j >= end) return 0;
  const Token& op = toks[j];
  if (op.kind != TokenKind::kPunct) return 0;
  const bool eq_next = j + 1 < end && is_punct(toks[j + 1], "=");
  if (op.text == "=" && !eq_next) return op.line;  // = but not ==
  if (eq_next && (op.text == "+" || op.text == "-" || op.text == "*" ||
                  op.text == "/" || op.text == "%" || op.text == "&" ||
                  op.text == "|" || op.text == "^")) {
    return op.line;  // compound assignment (tokenizer splits +=)
  }
  if ((op.text == "<" || op.text == ">") && j + 2 < end &&
      is_punct(toks[j + 1], op.text.c_str()) && is_punct(toks[j + 2], "=")) {
    return op.line;  // <<= / >>=
  }
  if ((op.text == "+" && j + 1 < end && is_punct(toks[j + 1], "+")) ||
      (op.text == "-" && j + 1 < end && is_punct(toks[j + 1], "-"))) {
    return op.line;  // postfix ++/--
  }
  return 0;
}

/// Token intervals of statements executed under iteration over an unordered
/// container (range-for whose range names one) — assignment order inside is
/// hash-order-dependent.
std::vector<std::pair<std::size_t, std::size_t>> unordered_loop_bodies(
    const FileInfo& f, const FunctionDef& fn) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const auto& toks = f.src.tokens;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (!is_ident(toks[i], "for") || i + 1 >= fn.body_end ||
        !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == std::string::npos || close >= fn.body_end) continue;
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      else if (is_punct(toks[j], ")")) --depth;
      else if (depth == 1 && colon == 0 && is_punct(toks[j], ":") &&
               !is_punct(toks[j + 1], ":") && !is_punct(toks[j - 1], ":")) {
        colon = j;
      }
    }
    if (colon == 0) continue;
    bool unordered = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokenKind::kIdentifier &&
          f.unordered_names.count(toks[j].text) != 0) {
        unordered = true;
        break;
      }
    }
    if (!unordered) continue;
    if (close + 1 < fn.body_end && is_punct(toks[close + 1], "{")) {
      const std::size_t body = match_forward(toks, close + 1, "{", "}");
      if (body != std::string::npos) out.emplace_back(close + 1, body);
    } else {
      std::size_t semi = close + 1;
      while (semi < fn.body_end && !is_punct(toks[semi], ";")) ++semi;
      out.emplace_back(close + 1, semi);
    }
  }
  return out;
}

std::string join_members(const std::vector<Touch>& seq,
                         const std::set<std::string>& keep) {
  std::ostringstream out;
  std::size_t n = 0;
  for (const Touch& t : seq) {
    if (keep.count(t.member) == 0) continue;
    if (n++ != 0) out << ", ";
    if (n > 6) {
      out << "...";
      break;
    }
    out << t.member;
  }
  return out.str();
}

void emit(std::vector<Finding>& out, const StateClass& sc,
          const Config& config, const std::string& rule,
          const std::string& member, const std::string& file, int line,
          const std::string& message) {
  Finding f{rule, file, line, message, ""};
  f.suppress_reason = waiver_reason(sc, config, member);
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// The per-class checks

void check_pair_symmetry(const StateClass& sc, const Config& config,
                         std::vector<Finding>& out) {
  // state-unloaded-member: a serializing touch on one side with no mention
  // at all on the other. Mentions soften the check so field-granular codecs
  // (w.u64(counters_.reads) / counters_.reads = r.u64()) stay symmetric at
  // member granularity.
  for (const Touch& t : sc.save_seq) {
    if (sc.load_mentions.count(t.member) != 0) continue;
    emit(out, sc, config, "state-unloaded-member", t.member,
         sc.save.file->path, t.line,
         "member '" + sc.cls->name + "::" + t.member +
             "' is serialized by save_state but never restored by "
             "load_state — a resumed run keeps the constructor default while "
             "the snapshot carries the live value; decode it, or waive with "
             "// lint: volatile(" + t.member + "): <reason> if it is derived "
             "state");
  }
  for (const Touch& t : sc.load_seq) {
    if (sc.save_mentions.count(t.member) != 0) continue;
    emit(out, sc, config, "state-unloaded-member", t.member,
         sc.load.file->path, t.line,
         "member '" + sc.cls->name + "::" + t.member +
             "' is touched by load_state but never written by save_state — "
             "either the decode consumes bytes the encode never produced, or "
             "this is derived state being rebuilt and wants // lint: "
             "volatile(" + t.member + "): <reason>");
  }

  // state-order-mismatch over the members both sides serialize (waived
  // members excluded: their rebuild position is not part of the layout).
  std::set<std::string> common;
  for (const Touch& t : sc.save_seq) {
    if (waiver_reason(sc, config, t.member).empty()) common.insert(t.member);
  }
  std::set<std::string> in_load;
  for (const Touch& t : sc.load_seq) in_load.insert(t.member);
  for (auto it = common.begin(); it != common.end();) {
    it = in_load.count(*it) == 0 ? common.erase(it) : std::next(it);
  }
  std::vector<std::string> save_order, load_order;
  for (const Touch& t : sc.save_seq) {
    if (common.count(t.member) != 0) save_order.push_back(t.member);
  }
  for (const Touch& t : sc.load_seq) {
    if (common.count(t.member) != 0) load_order.push_back(t.member);
  }
  if (save_order != load_order) {
    std::string diverge;
    for (std::size_t i = 0; i < save_order.size(); ++i) {
      if (i >= load_order.size() || save_order[i] != load_order[i]) {
        diverge = save_order[i];
        break;
      }
    }
    emit(out, sc, config, "state-order-mismatch", diverge,
         sc.load.file->path, sc.load.fn->line,
         "'" + sc.cls->name + "' save_state touches members in order [" +
             join_members(sc.save_seq, common) + "] but load_state in [" +
             join_members(sc.load_seq, common) + "] (first divergence at '" +
             diverge + "') — PLNSNAP1 has no field tags, so the touch order "
             "IS the byte layout; one side is decoding another's bytes");
  }
}

void check_det_taint(const StateClass& sc, const Config& config,
                     const CallGraph& graph,
                     std::map<std::string, std::string>& taint_cache,
                     std::vector<Finding>& out) {
  std::set<std::string> serialized = sc.save_mentions;
  serialized.insert(sc.load_mentions.begin(), sc.load_mentions.end());
  if (serialized.empty()) return;

  // Does any definition reachable from `spec` (depth-bounded BFS) directly
  // contain a banned nondeterminism source? Memoized: "" = clean.
  const auto taints_via = [&](const std::string& spec) -> std::string {
    const auto hit = taint_cache.find(spec);
    if (hit != taint_cache.end()) return hit->second;
    std::string verdict;
    std::set<std::size_t> visited;
    std::deque<std::pair<std::size_t, int>> queue;
    const auto& index =
        spec.find("::") != std::string::npos ? graph.by_qualified
                                             : graph.by_bare;
    const auto it = index.find(spec);
    if (it != index.end()) {
      for (const std::size_t id : it->second) {
        if (visited.insert(id).second) queue.emplace_back(id, 0);
      }
    }
    while (!queue.empty() && verdict.empty()) {
      const auto [id, depth] = queue.front();
      queue.pop_front();
      const CallGraphNode& node = graph.nodes[id];
      const auto& toks = node.file->src.tokens;
      for (std::size_t i = node.fn->body_begin;
           i <= node.fn->body_end && i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::kIdentifier) continue;
        if (banned_types().count(toks[i].text) != 0 ||
            (banned_calls().count(toks[i].text) != 0 && i + 1 < toks.size() &&
             is_punct(toks[i + 1], "(") && !member_prefix(toks, i))) {
          verdict = "'" + toks[i].text + "' in '" + node.qualified + "'";
          break;
        }
      }
      if (depth >= 3 || !verdict.empty()) continue;
      for (const std::string& callee : node.callees) {
        const auto& cindex = callee.find("::") != std::string::npos
                                 ? graph.by_qualified
                                 : graph.by_bare;
        const auto cit = cindex.find(callee);
        if (cit == cindex.end()) continue;
        for (const std::size_t cid : cit->second) {
          if (visited.insert(cid).second) queue.emplace_back(cid, depth + 1);
        }
      }
    }
    taint_cache[spec] = verdict;
    return verdict;
  };

  std::set<std::string> reported;  // file:line:member
  for (const auto& [name, def] : sc.methods) {
    (void)name;
    const auto& toks = def.file->src.tokens;
    const std::size_t end = std::min(def.fn->body_end, toks.size() - 1);
    const auto unordered_bodies = unordered_loop_bodies(*def.file, *def.fn);
    for (std::size_t i = def.fn->body_begin + 1; i < end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier ||
          serialized.count(t.text) == 0 || member_prefix(toks, i)) {
        continue;
      }
      // Assignment (simple or compound) to the serialized member?
      std::size_t op = i + 1;
      if (op >= end || toks[op].kind != TokenKind::kPunct) continue;
      if (is_punct(toks[op], "=") && op + 1 < end &&
          is_punct(toks[op + 1], "=")) {
        continue;  // comparison
      }
      bool assign = is_punct(toks[op], "=");
      if (!assign && op + 1 < end && is_punct(toks[op + 1], "=") &&
          (toks[op].text == "+" || toks[op].text == "-" ||
           toks[op].text == "*" || toks[op].text == "/" ||
           toks[op].text == "%" || toks[op].text == "&" ||
           toks[op].text == "|" || toks[op].text == "^")) {
        assign = true;
        ++op;
      }
      if (!assign) continue;

      // RHS extent: to the statement's `;` at nesting depth 0.
      std::size_t stop = op + 1;
      int depth = 0;
      while (stop < end) {
        if (is_punct(toks[stop], "(") || is_punct(toks[stop], "[") ||
            is_punct(toks[stop], "{")) {
          ++depth;
        } else if (is_punct(toks[stop], ")") || is_punct(toks[stop], "]") ||
                   is_punct(toks[stop], "}")) {
          if (--depth < 0) break;
        } else if (depth == 0 && is_punct(toks[stop], ";")) {
          break;
        }
        ++stop;
      }

      std::string what;
      for (std::size_t j = op + 1; j < stop && what.empty(); ++j) {
        const Token& r = toks[j];
        if (r.kind == TokenKind::kIdentifier) {
          if (banned_types().count(r.text) != 0) {
            what = "nondeterminism type '" + r.text + "'";
          } else if (r.text == "reinterpret_cast" || r.text == "uintptr_t" ||
                     r.text == "intptr_t") {
            what = "pointer-as-integer ('" + r.text + "')";
          } else if (r.text == "this" &&
                     !(j + 1 < stop && is_punct(toks[j + 1], "-")) &&
                     !(j > 0 && is_punct(toks[j - 1], "*"))) {
            what = "'this' used as a value";
          } else if (banned_calls().count(r.text) != 0 && j + 1 < stop &&
                     is_punct(toks[j + 1], "(") && !member_prefix(toks, j)) {
            what = "call to '" + r.text + "()'";
          } else if (j + 1 < stop && is_punct(toks[j + 1], "(") &&
                     !member_prefix(toks, j)) {
            // Interprocedural: does the called helper reach a banned source?
            std::string spec = r.text;
            if (j >= 2 && is_punct(toks[j - 1], ":") &&
                is_punct(toks[j - 2], ":")) {
              if (j >= 3 && toks[j - 3].kind == TokenKind::kIdentifier) {
                if (toks[j - 3].text == "std") continue;
                spec = toks[j - 3].text + "::" + r.text;
                if (graph.by_qualified.count(spec) == 0) spec = r.text;
              }
            } else if (sc.methods.count(r.text) != 0) {
              spec = sc.cls->name + "::" + r.text;
              if (graph.by_qualified.count(spec) == 0) spec = r.text;
            }
            const std::string via = taints_via(spec);
            if (!via.empty()) {
              what = "call to '" + r.text + "()', which reaches " + via;
            }
          }
        } else if (is_punct(r, "&") && j + 1 < stop &&
                   toks[j + 1].kind == TokenKind::kIdentifier &&
                   !(j > 0 && is_punct(toks[j - 1], "&")) &&
                   j > 0 && toks[j - 1].kind == TokenKind::kPunct &&
                   (toks[j - 1].text == "=" || toks[j - 1].text == "(" ||
                    toks[j - 1].text == "," || toks[j - 1].text == "<")) {
          what = "address-of used as a value";
        }
      }
      // Hash-order taint: the assignment executes under iteration over an
      // unordered container, so its final value is insertion-history-
      // dependent in a way no seed controls.
      if (what.empty()) {
        for (const auto& [lo, hi] : unordered_bodies) {
          if (i > lo && i < hi) {
            what = "assignment under unordered-container iteration order";
            break;
          }
        }
      }
      if (what.empty()) continue;
      const std::string key = def.file->path + ":" +
                              std::to_string(t.line) + ":" + t.text;
      if (!reported.insert(key).second) continue;
      emit(out, sc, config, "state-det-taint", t.text, def.file->path, t.line,
           "serialized member '" + sc.cls->name + "::" + t.text +
               "' is assigned from a nondeterminism source (" + what +
               ") — the snapshot would encode a value no replay can "
               "reproduce; derive it from the trace and the seed "
               "(planaria::Rng) instead");
    }
  }
}

void check_unsaved(const std::vector<StateClass>& classes,
                   const std::map<const FunctionDef*, std::size_t>& owner,
                   const Config& config, const CallGraph& graph,
                   std::vector<Finding>& out) {
  std::vector<std::string> roots = config.hot_roots;
  roots.insert(roots.end(), config.state_roots.begin(),
               config.state_roots.end());
  if (roots.empty()) return;

  std::map<std::size_t, std::string> prov;
  std::set<std::string> reported;  // class::member
  for (const std::size_t id : graph.reachable(roots, {}, &prov)) {
    const CallGraphNode& node = graph.nodes[id];
    const auto own = owner.find(node.fn);
    if (own == owner.end()) continue;
    const StateClass& sc = classes[own->second];
    if (node.fn == sc.save.fn || node.fn == sc.load.fn) continue;
    if (node.fn->name == sc.cls->name) continue;  // constructors initialize
    std::set<std::string> serialized = sc.save_mentions;
    serialized.insert(sc.load_mentions.begin(), sc.load_mentions.end());

    const auto& toks = node.file->src.tokens;
    const std::size_t end = std::min(node.fn->body_end, toks.size() - 1);
    for (std::size_t i = node.fn->body_begin + 1; i < end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier ||
          sc.members.count(t.text) == 0 || member_prefix(toks, i)) {
        continue;
      }
      if (serialized.count(t.text) != 0) continue;
      const int line = mutation_at(toks, i, end);
      if (line == 0) continue;
      const std::string key = sc.cls->name + "::" + t.text;
      if (!reported.insert(key).second) continue;
      emit(out, sc, config, "state-unsaved-member", t.text,
           sc.decl_file->path, sc.member_line.at(t.text),
           "member '" + key + "' is mutated in '" + node.qualified + "' (" +
               node.file->path + ":" + std::to_string(line) +
               ", reachable from state root '" + prov[id] +
               "') but never serialized by " + sc.cls->name +
               "::save_state — a checkpoint/resume silently resets it; "
               "serialize it, or carry // lint: volatile(" + t.text +
               "): <reason> if a restore can rebuild it");
    }
  }
}

}  // namespace

void rule_state(const std::vector<FileInfo>& files, const Config& config,
                const CallGraph& graph, std::vector<Finding>& out) {
  // Pass 1: every class with a save/load pair and at least one recognized
  // member becomes a StateClass; classes whose codec definitions cannot be
  // located (template specializations in other TUs, macro-generated bodies)
  // are skipped — the documented blind spots of §17.
  std::vector<StateClass> classes;
  for (const FileInfo& f : files) {
    for (const ClassInfo& cls : f.classes) {
      if (!cls.has_save() || !cls.has_load() || cls.members.empty()) continue;
      StateClass sc;
      sc.cls = &cls;
      sc.decl_file = &f;
      for (const DataMember& m : cls.members) {
        sc.members.insert(m.name);
        sc.member_line.emplace(m.name, m.line);
      }
      classes.push_back(std::move(sc));
    }
  }

  std::map<const FunctionDef*, std::size_t> owner;
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    StateClass& sc = classes[ci];
    for (const FileInfo& f : files) {
      for (const FunctionDef& fn : f.functions) {
        bool ours = false;
        if (!fn.class_name.empty()) {
          ours = fn.class_name == sc.cls->name;
        } else if (&f == sc.decl_file) {
          ours = innermost_class(f, fn.body_begin) == sc.cls;
        }
        if (!ours) continue;
        owner.emplace(&fn, ci);
        sc.methods.emplace(fn.name, MethodDef{&fn, &f});
        if (fn.name == "save_state" && !sc.save.valid()) sc.save = {&fn, &f};
        if (fn.name == "load_state" && !sc.load.valid()) sc.load = {&fn, &f};
      }
    }
  }

  for (StateClass& sc : classes) {
    if (!sc.save.valid() || !sc.load.valid()) continue;
    std::set<const FunctionDef*> visited;
    scan_touches(sc, sc.save,
                 param_names(*sc.save.fn, sc.save.file->src.tokens),
                 sc.save_seq, sc.save_mentions, visited, 3);
    visited.clear();
    scan_touches(sc, sc.load,
                 param_names(*sc.load.fn, sc.load.file->src.tokens),
                 sc.load_seq, sc.load_mentions, visited, 3);
  }

  std::map<std::string, std::string> taint_cache;
  for (const StateClass& sc : classes) {
    if (!sc.save.valid() || !sc.load.valid()) continue;
    check_pair_symmetry(sc, config, out);
    check_det_taint(sc, config, graph, taint_cache, out);
  }
  check_unsaved(classes, owner, config, graph, out);
}

}  // namespace planaria::lint
