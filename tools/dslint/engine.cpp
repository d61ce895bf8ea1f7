#include "engine.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>

namespace dslint {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer. C++-shaped, not a full lexer: identifiers, numbers,
// strings, and punctuation, with comments captured per line for NOLINT
// processing and preprocessor lines skipped entirely.
// ---------------------------------------------------------------------------

enum class Tok { kIdent, kNum, kStr, kPunct };

struct Token {
  Tok kind;
  std::string text;
  int line;
  int col;
};

struct Suppression {
  std::set<std::string> checks;  // empty + all -> every check
  bool all = false;
  bool justified = false;
};

struct Lexed {
  std::vector<Token> tokens;
  std::map<int, Suppression> suppressions;  // by line
};

bool IdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IdentChar(char c) { return IdentStart(c) || (c >= '0' && c <= '9'); }

// Parses a NOLINT / NOLINTNEXTLINE marker out of one comment and files
// it under the right line. Justification = any non-space text after
// the check list (conventionally ": why").
void RecordNolint(const std::string& comment, int line,
                  std::map<int, Suppression>* out) {
  std::size_t pos = comment.find("NOLINT");
  if (pos == std::string::npos) return;
  std::size_t after = pos + 6;  // past "NOLINT"
  int target = line;
  if (comment.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
    after = pos + 14;
    target = line + 1;
  }
  Suppression s;
  if (after < comment.size() && comment[after] == '(') {
    std::size_t close = comment.find(')', after);
    if (close == std::string::npos) return;  // malformed; ignore
    std::string list = comment.substr(after + 1, close - after - 1);
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      item.erase(0, item.find_first_not_of(" \t"));
      item.erase(item.find_last_not_of(" \t") + 1);
      if (item == "*")
        s.all = true;
      else if (!item.empty())
        s.checks.insert(item);
    }
    after = close + 1;
  } else {
    s.all = true;  // bare NOLINT suppresses everything
  }
  s.justified =
      comment.find_first_not_of(" \t:-—", after) != std::string::npos;
  Suppression& slot = (*out)[target];
  slot.all |= s.all;
  slot.checks.insert(s.checks.begin(), s.checks.end());
  // One justified marker justifies the line; separate unjustified
  // markers on the same line stay callable-out individually only in
  // spirit — line granularity is enough here.
  slot.justified |= s.justified;
}

Lexed Lex(const std::string& src) {
  Lexed out;
  int line = 1, col = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto advance = [&](char c) {
    if (c == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  };
  bool at_line_start = true;
  while (i < n) {
    char c = src[i];
    // Preprocessor directive: swallow the logical line (with \-splices).
    if (at_line_start && c == '#') {
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          advance(src[i]);
          ++i;
          advance(src[i]);
          ++i;
          continue;
        }
        if (src[i] == '\n') break;
        advance(src[i]);
        ++i;
      }
      continue;
    }
    if (c == '\n') {
      advance(c);
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      advance(c);
      ++i;
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      int cline = line;
      std::string text;
      while (i < n && src[i] != '\n') {
        text.push_back(src[i]);
        advance(src[i]);
        ++i;
      }
      RecordNolint(text, cline, &out.suppressions);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      int cline = line;
      std::string text;
      advance(src[i]);
      ++i;
      advance(src[i]);
      ++i;
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        text.push_back(src[i]);
        advance(src[i]);
        ++i;
      }
      if (i < n) {
        advance(src[i]);
        ++i;
        advance(src[i]);
        ++i;
      }
      RecordNolint(text, cline, &out.suppressions);
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t paren = src.find('(', i + 2);
      if (paren != std::string::npos) {
        std::string delim = src.substr(i + 2, paren - (i + 2));
        std::string closer = ")" + delim + "\"";
        std::size_t end = src.find(closer, paren + 1);
        if (end == std::string::npos) end = n;
        int sline = line, scol = col;
        std::string body = src.substr(paren + 1, end - paren - 1);
        while (i < n && i < end + closer.size()) {
          advance(src[i]);
          ++i;
        }
        out.tokens.push_back({Tok::kStr, body, sline, scol});
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      int sline = line, scol = col;
      std::string body;
      advance(src[i]);
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          // Consume the escape and the escaped character as content,
          // so \" does not terminate the literal.
          body.push_back(src[i]);
          advance(src[i]);
          ++i;
        }
        body.push_back(src[i]);
        advance(src[i]);
        ++i;
      }
      if (i < n) {
        advance(src[i]);
        ++i;
      }
      out.tokens.push_back({Tok::kStr, body, sline, scol});
      continue;
    }
    if (IdentStart(c)) {
      int sline = line, scol = col;
      std::string text;
      while (i < n && IdentChar(src[i])) {
        text.push_back(src[i]);
        advance(src[i]);
        ++i;
      }
      out.tokens.push_back({Tok::kIdent, text, sline, scol});
      continue;
    }
    if (c >= '0' && c <= '9') {
      int sline = line, scol = col;
      std::string text;
      while (i < n && (IdentChar(src[i]) || src[i] == '.' || src[i] == '\'')) {
        text.push_back(src[i]);
        advance(src[i]);
        ++i;
      }
      out.tokens.push_back({Tok::kNum, text, sline, scol});
      continue;
    }
    // Punctuation; fuse the two-char tokens the checks care about.
    int sline = line, scol = col;
    std::string text(1, c);
    if (i + 1 < n) {
      char d = src[i + 1];
      if ((c == ':' && d == ':') || (c == '-' && d == '>') ||
          (c == '&' && d == '&') || (c == '|' && d == '|')) {
        text.push_back(d);
      }
    }
    for (char t : text) {
      (void)t;
      advance(src[i]);
      ++i;
    }
    out.tokens.push_back({Tok::kPunct, text, sline, scol});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small helpers over the token stream.
// ---------------------------------------------------------------------------

bool Is(const std::vector<Token>& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}
bool IsIdent(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Tok::kIdent;
}

// Index of the matching ')' for the '(' at `open` (returns t.size() on
// imbalance).
std::size_t MatchParen(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return t.size();
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

const char* kRawClock = "dstampede-raw-clock";
const char* kBlocking = "dstampede-blocking-under-lock";
const char* kCallback = "dstampede-callback-under-lock";
const char* kRawSync = "dstampede-raw-sync-primitive";
const char* kLockOrder = "dstampede-lock-order";
const char* kNolintJustify = "dstampede-nolint-justification";

const std::set<std::string> kBlockingMembers = {
    "Call", "Send", "Recv", "AwaitUntil", "TakeResult", "Get", "Put"};
const std::set<std::string> kCallbackMembers = {"Finish", "Complete"};
const std::set<std::string> kRawSyncTypes = {
    "mutex",          "timed_mutex",
    "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex",   "shared_timed_mutex",
    "condition_variable", "condition_variable_any",
    "thread",         "jthread",
    "lock_guard",     "unique_lock",
    "scoped_lock",    "shared_lock"};
const std::set<std::string> kRawClockClasses = {
    "steady_clock", "system_clock", "high_resolution_clock"};

// Tokens that can directly precede a bare (unqualified, receiver-less)
// call expression, as opposed to a declaration or definition.
const std::set<std::string> kStmtStarters = {";", "{",  "}", "(",  ",",
                                             "=", "&&", "||", "!", "return"};

}  // namespace

std::string Finding::Render() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ":%d:%d: ", line, col);
  return path + buf + "warning: " + message + " [" + check + "]";
}

// ---------------------------------------------------------------------------
// Hierarchy.
// ---------------------------------------------------------------------------

bool Hierarchy::HasPath(const std::string& from, const std::string& to) const {
  std::set<std::string> seen{from};
  std::deque<std::string> queue{from};
  while (!queue.empty()) {
    std::string cur = queue.front();
    queue.pop_front();
    auto it = adj_.find(cur);
    if (it == adj_.end()) continue;
    for (const std::string& next : it->second) {
      if (next == to) return true;
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

bool Hierarchy::LoadFromMarkdown(const std::string& path, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    if (error) *error = "cannot read " + path;
    return false;
  }
  const std::string begin = "<!-- lock-hierarchy:begin -->";
  const std::string end = "<!-- lock-hierarchy:end -->";
  std::size_t b = text.find(begin);
  std::size_t e = text.find(end);
  if (b == std::string::npos || e == std::string::npos || e < b) {
    if (error) *error = path + ": lock-hierarchy markers not found";
    return false;
  }
  std::stringstream ss(text.substr(b + begin.size(), e - b - begin.size()));
  std::string line;
  while (std::getline(ss, line)) {
    line.erase(0, line.find_first_not_of(" \t"));
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (line.empty() || line[0] != '|') continue;
    // Split "| a | b |" into cells.
    std::vector<std::string> cells;
    std::size_t pos = 1;
    while (pos < line.size()) {
      std::size_t bar = line.find('|', pos);
      if (bar == std::string::npos) break;
      std::string cell = line.substr(pos, bar - pos);
      cell.erase(0, cell.find_first_not_of(" \t"));
      cell.erase(cell.find_last_not_of(" \t") + 1);
      cells.push_back(cell);
      pos = bar + 1;
    }
    if (cells.size() < 2) continue;
    // Skip the header and the |---|---| separator row.
    if (cells[0].empty() || cells[0].find_first_not_of("-: ") ==
        std::string::npos)
      continue;
    if (cells[0] == "held" || cells[0] == "holder") continue;
    adj_[cells[0]].insert(cells[1]);
  }
  loaded_ = true;
  return true;
}

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string Engine::RelPath(const std::string& path) const {
  if (!options_.as_path.empty()) return options_.as_path;
  const std::string& root = options_.root;
  if (!root.empty() && StartsWith(path, root.c_str())) {
    std::size_t skip = root.size();
    while (skip < path.size() && path[skip] == '/') ++skip;
    return path.substr(skip);
  }
  return path;
}

void Engine::ScanDeclarations(const std::string& path) {
  if (!scanned_files_.insert(path).second) return;
  std::string src;
  if (!ReadFile(path, &src)) return;
  Lexed lexed = Lex(src);
  const std::vector<Token>& t = lexed.tokens;
  auto& file_map = file_mutexes_[path];
  auto record = [&](const std::string& var, MutexInfo info) {
    file_map[var] = info;
    global_mutexes_[var].push_back(std::move(info));
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Pattern A: [ds::]Mutex var{"name"[, ... kBlockingAllowed ...]}
    if (t[i].text == "Mutex" && IsIdent(t, i + 1) && Is(t, i + 2, "{")) {
      // Guard against `class Mutex {` / `} Mutex;` style matches: the
      // brace must open an initializer that starts with a string.
      if (i + 3 < t.size() && t[i + 3].kind == Tok::kStr) {
        MutexInfo info;
        info.doctrine_name = t[i + 3].text;
        for (std::size_t j = i + 4; j < t.size() && t[j].text != "}"; ++j) {
          if (t[j].text == "kBlockingAllowed" || t[j].text == "true")
            info.blocking_allowed = true;
        }
        record(t[i + 1].text, std::move(info));
      }
      continue;
    }
    // Pattern B: var = std::make_shared<[ds::]Mutex>("name"[, ...]).
    if (t[i].text == "make_shared" && Is(t, i + 1, "<")) {
      std::size_t j = i + 2;
      if (Is(t, j, "ds") && Is(t, j + 1, "::")) j += 2;
      if (!Is(t, j, "Mutex") || !Is(t, j + 1, ">") || !Is(t, j + 2, "("))
        continue;
      if (j + 3 >= t.size() || t[j + 3].kind != Tok::kStr) continue;
      // Find the assigned variable: the identifier before the '='.
      std::size_t eq = i;
      while (eq > 0 && t[eq].text != "=" && t[eq].text != ";") --eq;
      if (eq == 0 || t[eq].text != "=" || eq < 1 ||
          t[eq - 1].kind != Tok::kIdent)
        continue;
      MutexInfo info;
      info.doctrine_name = t[j + 3].text;
      std::size_t close = MatchParen(t, j + 2);
      for (std::size_t k = j + 4; k < close; ++k) {
        if (t[k].text == "kBlockingAllowed" || t[k].text == "true")
          info.blocking_allowed = true;
      }
      record(t[eq - 1].text, std::move(info));
    }
  }
}

const Engine::MutexInfo* Engine::Resolve(const std::string& file,
                                         const std::string& var,
                                         MutexInfo* storage) const {
  // 1. This file's own declarations.
  auto fit = file_mutexes_.find(file);
  if (fit != file_mutexes_.end()) {
    auto mit = fit->second.find(var);
    if (mit != fit->second.end()) {
      *storage = mit->second;
      return storage;
    }
  }
  // 2. The same-stem sibling (foo.cpp <-> foo.hpp / foo.h).
  std::size_t dot = file.find_last_of('.');
  if (dot != std::string::npos) {
    std::string stem = file.substr(0, dot);
    for (const char* ext : {".hpp", ".h", ".cpp"}) {
      auto sit = file_mutexes_.find(stem + ext);
      if (sit == file_mutexes_.end()) continue;
      auto mit = sit->second.find(var);
      if (mit != sit->second.end()) {
        *storage = mit->second;
        return storage;
      }
    }
  }
  // 3. A globally unambiguous declaration.
  auto git = global_mutexes_.find(var);
  if (git != global_mutexes_.end() && !git->second.empty()) {
    const MutexInfo& first = git->second.front();
    bool unanimous = std::all_of(
        git->second.begin(), git->second.end(), [&](const MutexInfo& m) {
          return m.doctrine_name == first.doctrine_name &&
                 m.blocking_allowed == first.blocking_allowed;
        });
    if (unanimous) {
      *storage = first;
      return storage;
    }
  }
  return nullptr;
}

void Engine::Analyze(const std::string& path, std::vector<Finding>* findings) {
  ScanDeclarations(path);
  std::string src;
  if (!ReadFile(path, &src)) return;
  const std::string rel = RelPath(path);
  Lexed lexed = Lex(src);
  const std::vector<Token>& t = lexed.tokens;

  const bool in_clock_or_sync =
      StartsWith(rel, "src/dstampede/common/clock") ||
      StartsWith(rel, "src/dstampede/common/sync");
  const bool in_common = StartsWith(rel, "src/dstampede/common/");

  auto enabled = [&](const char* check) {
    return options_.enabled_checks.empty() ||
           options_.enabled_checks.count(check) != 0;
  };
  auto emit = [&](int line, int col, const char* check, std::string message) {
    if (!enabled(check)) return;
    auto sit = lexed.suppressions.find(line);
    if (sit != lexed.suppressions.end() &&
        (sit->second.all || sit->second.checks.count(check))) {
      if (!sit->second.justified) {
        findings->push_back(
            {rel, line, col, kNolintJustify,
             std::string("NOLINT(") + check +
                 ") needs a justification comment, e.g. \"// NOLINT(" +
                 check + "): why this is safe\""});
      }
      return;
    }
    findings->push_back({rel, line, col, check, std::move(message)});
  };

  // --- scope tracking state ----------------------------------------------
  struct LockScope {
    std::string var;        // MutexLock variable
    std::string mutex_var;  // the ds::Mutex it locks
    int depth;              // brace depth at declaration
    int line;
    bool resolved;
    MutexInfo info;
    bool active = true;  // false after var.Unlock()
  };
  struct LambdaFrame {
    int depth;  // brace depth at the lambda's '{'
    std::vector<LockScope> saved;
  };
  std::vector<LockScope> locks;
  std::vector<LambdaFrame> lambdas;
  int depth = 0;
  bool pending_lambda = false;

  auto active_locks = [&]() {
    std::vector<const LockScope*> out;
    for (const LockScope& l : locks)
      if (l.active) out.push_back(&l);
    return out;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];

    // ---- brace / lambda scope bookkeeping -------------------------------
    if (tok.text == "{") {
      ++depth;
      if (pending_lambda) {
        lambdas.push_back({depth, std::move(locks)});
        locks.clear();
        pending_lambda = false;
      }
      continue;
    }
    if (tok.text == "}") {
      if (!lambdas.empty() && lambdas.back().depth == depth) {
        locks = std::move(lambdas.back().saved);
        lambdas.pop_back();
      }
      --depth;
      while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
      continue;
    }
    if (tok.text == "[") {
      // Lambda introducer vs subscript/attribute: a lambda follows a
      // statement-starter (or begins the file); subscripts follow a
      // value; [[attributes]] start with a second '['.
      bool attr = Is(t, i + 1, "[");
      bool lambda_like =
          i == 0 || kStmtStarters.count(t[i - 1].text) != 0 ||
          t[i - 1].text == "<" || t[i - 1].text == ">" ||
          t[i - 1].text == ":" || t[i - 1].text == "?";
      if (attr) {
        // Skip to the matching "]]".
        int bd = 0;
        for (; i < t.size(); ++i) {
          if (t[i].text == "[") ++bd;
          if (t[i].text == "]" && --bd == 0) break;
        }
        continue;
      }
      if (lambda_like) {
        int bd = 0;
        for (; i < t.size(); ++i) {
          if (t[i].text == "[") ++bd;
          if (t[i].text == "]" && --bd == 0) break;
        }
        pending_lambda = true;
      }
      continue;
    }

    // ---- check 1: raw clock / sleep / timed wait ------------------------
    if (!in_clock_or_sync && tok.kind == Tok::kIdent) {
      if (kRawClockClasses.count(tok.text) && Is(t, i + 1, "::") &&
          Is(t, i + 2, "now")) {
        emit(tok.line, tok.col, kRawClock,
             "std::chrono::" + tok.text +
                 "::now() bypasses the clock seam; use dstampede::Now() "
                 "(common/clock.hpp) so simulated runs stay deterministic");
      }
      if (tok.text == "this_thread" && Is(t, i + 1, "::") &&
          (Is(t, i + 2, "sleep_for") || Is(t, i + 2, "sleep_until"))) {
        emit(tok.line, tok.col, kRawClock,
             "std::this_thread::" + t[i + 2].text +
                 " bypasses the clock seam; use dstampede::SleepFor()/"
                 "SleepUntil() so a VirtualClock can drive the wait");
      }
      if ((tok.text == "wait_for" || tok.text == "wait_until") && i > 0 &&
          (t[i - 1].text == "." || t[i - 1].text == "->") &&
          Is(t, i + 1, "(")) {
        emit(tok.line, tok.col, kRawClock,
             "raw timed condition wait (" + tok.text +
                 ") bypasses the clock seam; use ds::CondVar::WaitUntil "
                 "with a Deadline");
      }
    }

    // ---- check 4: raw sync primitive outside common/ --------------------
    if (!in_common && tok.text == "std" && Is(t, i + 1, "::") &&
        IsIdent(t, i + 2) && kRawSyncTypes.count(t[i + 2].text)) {
      emit(t[i + 2].line, t[i + 2].col, kRawSync,
           "std::" + t[i + 2].text +
               " outside common/ dodges the thread-safety annotations and "
               "the deadlock detector; use ds::Mutex/ds::MutexLock/"
               "ds::CondVar (common/sync.hpp) or Thread (common/thread.hpp)");
    }

    // ---- MutexLock acquisition ------------------------------------------
    if (tok.text == "MutexLock" && IsIdent(t, i + 1) && Is(t, i + 2, "(")) {
      std::size_t close = MatchParen(t, i + 2);
      std::string mutex_var;
      for (std::size_t j = i + 3; j < close; ++j) {
        if (t[j].kind == Tok::kIdent) mutex_var = t[j].text;
      }
      LockScope scope;
      scope.var = t[i + 1].text;
      scope.mutex_var = mutex_var;
      scope.depth = depth;
      scope.line = tok.line;
      scope.resolved =
          !mutex_var.empty() && Resolve(path, mutex_var, &scope.info) &&
          !scope.info.doctrine_name.empty();

      // ---- check 5: lock-order edge vs documented hierarchy -------------
      if (scope.resolved) {
        for (const LockScope* held : active_locks()) {
          if (!held->resolved) continue;
          const std::string& a = held->info.doctrine_name;
          const std::string& b = scope.info.doctrine_name;
          if (a == b) {
            emit(tok.line, tok.col, kLockOrder,
                 "nested acquisition of lock class \"" + a +
                     "\" (outer taken at line " + std::to_string(held->line) +
                     "); same-named mutexes must never be held together "
                     "(docs/CONCURRENCY.md)");
            continue;
          }
          observed_edges_.insert({a, b});
          if (options_.hierarchy.loaded() && !options_.hierarchy.HasPath(a, b)) {
            if (options_.hierarchy.HasPath(b, a)) {
              emit(tok.line, tok.col, kLockOrder,
                   "acquiring \"" + b + "\" while holding \"" + a +
                       "\" inverts the documented lock order (the "
                       "docs/CONCURRENCY.md lock table has a path " + b +
                       " -> " + a + ")");
            } else {
              emit(tok.line, tok.col, kLockOrder,
                   "undocumented lock-order edge \"" + a + " -> " + b +
                       "\"; add it to the docs/CONCURRENCY.md lock table, "
                       "or restructure to avoid the nesting");
            }
          }
        }
      }
      locks.push_back(std::move(scope));
      i = close;  // skip the initializer
      continue;
    }

    // ---- early release: var.Unlock() ------------------------------------
    if (tok.text == "Unlock" && i >= 2 && t[i - 1].text == "." &&
        t[i - 2].kind == Tok::kIdent && Is(t, i + 1, "(")) {
      for (LockScope& l : locks) {
        if (l.active && l.var == t[i - 2].text) l.active = false;
      }
      continue;
    }

    // ---- checks 2 & 3: blocking / callback under a live lock ------------
    if (tok.kind == Tok::kIdent && Is(t, i + 1, "(") && i > 0) {
      const bool member_call = t[i - 1].text == "." || t[i - 1].text == "->";
      const bool bare_call = kStmtStarters.count(t[i - 1].text) != 0;
      const bool blocking = member_call && kBlockingMembers.count(tok.text);
      const bool callback =
          (member_call || bare_call) && kCallbackMembers.count(tok.text);
      if (blocking || callback) {
        for (const LockScope* held : active_locks()) {
          if (blocking && held->resolved && held->info.blocking_allowed)
            continue;  // the documented kBlockingAllowed exemption
          std::string lock_desc =
              held->resolved
                  ? "\"" + held->info.doctrine_name + "\""
                  : "ds::MutexLock '" + held->var + "'";
          if (blocking) {
            emit(tok.line, tok.col, kBlocking,
                 "blocking call " + tok.text + "() while holding " +
                     lock_desc + " (locked at line " +
                     std::to_string(held->line) +
                     "); release the lock first, or construct the mutex "
                     "with ds::Mutex::kBlockingAllowed if holding it across "
                     "I/O is the design (docs/CONCURRENCY.md)");
          } else {
            emit(tok.line, tok.col, kCallback,
                 tok.text + "() runs waiter continuations / completions and "
                 "must not be invoked while holding " + lock_desc +
                     " (locked at line " + std::to_string(held->line) +
                     "); collect work under the lock, run it after release "
                     "(docs/CONCURRENCY.md callback rules)");
          }
          break;  // one finding per call site is enough
        }
      }
    }
  }
}

}  // namespace dslint
