// rp-lint phase 1: the per-file token rules R1–R6 and R8. Each rule
// pattern-matches the comment- and string-aware token stream of a single
// file; rationale for every rule lives in DESIGN.md §7.

#include "analyzer.hpp"

#include <algorithm>

namespace rplint {

namespace {

class TokenRules {
 public:
  TokenRules(const FileModel& fm, bool force_all, std::vector<Finding>* out)
      : fm_(fm), force_all_(force_all), out_(out) {}

  void run() {
    rule_r1();
    rule_r2();
    rule_r3();
    rule_r4();
    rule_r5();
    rule_r6();
    rule_r8();
  }

 private:
  const std::vector<Token>& toks() const { return fm_.tokens; }

  void add(int line, const char* rule, std::string msg) {
    out_->push_back({fm_.path, line, rule, std::move(msg), false});
  }

  bool scoped_out(std::initializer_list<const char*> allow_files) const {
    return !force_all_ && is_any(fm_.path, allow_files);
  }

  bool in_dirs(std::initializer_list<const char*> dirs) const {
    if (force_all_) return true;
    for (const char* d : dirs) {
      if (under(fm_.path, d)) return true;
    }
    return false;
  }

  /// R1: nondeterminism sources. All randomness flows through rp::Rng
  /// (src/tensor/rng.*) so every experiment replays bit-exactly from a seed.
  void rule_r1() {
    if (scoped_out({"src/tensor/rng.cpp", "src/tensor/rng.hpp"})) return;
    const auto& t = toks();
    static const std::set<std::string> kEngines = {
        "random_device", "mt19937",  "mt19937_64", "minstd_rand", "minstd_rand0",
        "ranlux24",      "ranlux48", "knuth_b",    "default_random_engine"};
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::Ident) continue;
      const std::string& s = t[i].text;
      if (kEngines.count(s)) {
        add(t[i].line, "R1",
            "std::" + s + " is banned; use rp::Rng (src/tensor/rng.*) so results replay from a seed");
        continue;
      }
      const bool call_next = i + 1 < t.size() && t[i + 1].text == "(";
      if ((s == "rand" || s == "srand" || s == "drand48") && call_next) {
        // Skip qualified calls (Tensor::rand, rng.rand) and declarations
        // (`static Tensor rand(...)` -- preceded by a type name).
        if (i > 0 && (t[i - 1].text == "::" || t[i - 1].text == "." || t[i - 1].text == "->")) {
          continue;
        }
        if (i > 0 && t[i - 1].kind == Tok::Ident && !is_keyword(t[i - 1].text)) continue;
        add(t[i].line, "R1", s + "() is banned; draw from rp::Rng instead");
      }
      if (s == "time" && i + 2 < t.size() && t[i + 1].text == "(" &&
          (t[i + 2].text == "nullptr" || t[i + 2].text == "0" || t[i + 2].text == "NULL")) {
        add(t[i].line, "R1", "time(nullptr) seeding is banned; seeds come from seed_from_string()");
      }
      if (s.size() > 6 && s.rfind("_clock") == s.size() - 6 && i + 2 < t.size() &&
          t[i + 1].text == "::" && t[i + 2].text == "now") {
        add(t[i].line, "R1",
            s + "::now() is banned in checked code; wall-clock values must never feed results");
      }
    }
  }

  /// R2: raw parallelism primitives. All parallel execution goes through the
  /// pool in src/tensor/parallel.* so determinism guarantees hold.
  void rule_r2() {
    if (scoped_out({"src/tensor/parallel.cpp", "src/tensor/parallel.hpp"})) return;
    const auto& t = toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::Ident) continue;
      const std::string& s = t[i].text;
      const bool std_qualified = i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
      if ((s == "thread" || s == "jthread" || s == "async") && std_qualified) {
        add(t[i].line, "R2",
            "std::" + s + " is banned; use rp::parallel::parallel_for / run_shards");
      }
      if (s.rfind("omp_", 0) == 0) {
        add(t[i].line, "R2", "OpenMP is banned; use rp::parallel");
      }
      if (s == "pragma" && i >= 1 && t[i - 1].text == "#" && i + 1 < t.size() &&
          t[i + 1].text == "omp") {
        add(t[i].line, "R2", "#pragma omp is banned; use rp::parallel");
      }
      if (s == "include" && i >= 1 && t[i - 1].text == "#" && i + 2 < t.size() &&
          t[i + 1].text == "<" &&
          (t[i + 2].text == "thread" || t[i + 2].text == "future" || t[i + 2].text == "omp")) {
        add(t[i].line, "R2",
            "#include <" + t[i + 2].text + "> is banned outside the pool implementation");
      }
    }
  }

  /// R3: mutable static / global state — the data races TSan only catches
  /// when scheduling cooperates, and hidden cross-run coupling otherwise.
  void rule_r3() {
    const auto& t = toks();
    enum class Scope { Namespace, Class, Block };
    std::vector<Scope> stack;
    auto at_namespace_scope = [&] {
      for (Scope s : stack) {
        if (s != Scope::Namespace) return false;
      }
      return true;
    };

    // Examines the declaration starting at token `i` (its specifier). Returns
    // the kind of terminator hit: '(' (function-ish), ';'/'='/'{' otherwise,
    // and whether a constness keyword appeared before it.
    auto scan_decl = [&](std::size_t i, bool* has_const, bool* has_skip_kw) -> char {
      *has_const = false;
      *has_skip_kw = false;
      int angle = 0;
      for (std::size_t j = i; j < t.size() && j < i + 64; ++j) {
        const std::string& s = t[j].text;
        if (s == "<") ++angle;
        if (s == ">") angle = std::max(0, angle - 1);
        if (t[j].kind == Tok::Ident) {
          if (s == "const" || s == "constexpr" || s == "constinit" || s == "consteval") {
            *has_const = true;
          }
          if (s == "using" || s == "typedef" || s == "class" || s == "struct" || s == "union" ||
              s == "enum" || s == "template" || s == "friend" || s == "extern" ||
              s == "namespace" || s == "static_assert" || s == "operator") {
            *has_skip_kw = true;
          }
        }
        if (angle == 0 && (s == ";" || s == "=" || s == "{" || s == "(")) return s[0];
      }
      return ';';
    };

    std::size_t stmt_start = 0;  // index of the first token of the current statement
    for (std::size_t i = 0; i < t.size(); ++i) {
      const std::string& s = t[i].text;
      if (s == "#") {
        // Preprocessor directive: consume to end of physical line.
        const int dir_line = t[i].line;
        while (i + 1 < t.size() && t[i + 1].line == dir_line) ++i;
        stmt_start = i + 1;
        continue;
      }
      if (s == "{") {
        // Classify the scope this brace opens by looking at the statement head.
        Scope kind = Scope::Block;
        for (std::size_t j = stmt_start; j < i; ++j) {
          const std::string& h = t[j].text;
          if (h == "namespace") kind = Scope::Namespace;
          if (h == "class" || h == "struct" || h == "union" || h == "enum") kind = Scope::Class;
          if (h == "(" || h == "=") break;  // function params / initializer: plain block
        }
        stack.push_back(kind);
        stmt_start = i + 1;
        continue;
      }
      if (s == "}") {
        if (!stack.empty()) stack.pop_back();
        stmt_start = i + 1;
        continue;
      }
      if (s == ";") {
        stmt_start = i + 1;
        continue;
      }

      if (i != stmt_start) continue;

      bool has_const = false, has_skip = false;
      if (s == "static" || s == "thread_local") {
        const char term = scan_decl(i, &has_const, &has_skip);
        if (term != '(' && !has_const && !has_skip) {
          add(t[i].line, "R3",
              std::string(s == "static" ? "mutable static" : "thread_local") +
                  " state is banned; pass state explicitly or add an allow() with rationale");
        }
        continue;
      }
      // Non-static namespace-scope variable definition.
      if (at_namespace_scope() && t[i].kind == Tok::Ident && !is_keyword(s) && s != "inline" &&
          s != "virtual" && s != "explicit") {
        const char term = scan_decl(i, &has_const, &has_skip);
        if ((term == ';' || term == '=') && !has_const && !has_skip) {
          add(t[i].line, "R3",
              "non-const namespace-scope variable is banned; ordering/data-race hazard");
        }
      }
    }
  }

  /// R4: unordered containers in result-producing code. Their iteration
  /// order is implementation-defined and leaks straight into printed tables.
  void rule_r4() {
    if (!in_dirs({"src/core/", "src/exp/"})) return;
    for (const Token& tk : toks()) {
      if (tk.kind != Tok::Ident) continue;
      if (tk.text == "unordered_map" || tk.text == "unordered_set" ||
          tk.text == "unordered_multimap" || tk.text == "unordered_multiset") {
        add(tk.line, "R4",
            "std::" + tk.text +
                " is banned in result-producing code; iteration order leaks into tables — use std::map or a sorted vector");
      }
    }
  }

  /// R5: reinterpret_cast is confined to the two byte-level I/O layers.
  void rule_r5() {
    if (scoped_out({"src/tensor/serialize.cpp", "src/data/image_io.cpp"})) return;
    for (const Token& tk : toks()) {
      if (tk.kind == Tok::Ident && tk.text == "reinterpret_cast") {
        add(tk.line, "R5",
            "reinterpret_cast outside serialize.cpp / image_io.cpp; keep byte punning in the I/O layer");
      }
    }
  }

  /// R6: C-style casts to integer types in stats code hide float->int
  /// truncation; require static_cast / lround so narrowing is explicit.
  void rule_r6() {
    if (!in_dirs({"src/core/", "src/exp/"})) return;
    const auto& t = toks();
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].text != "(") continue;
      // Collect a parenthesized run of pure type tokens: (int), (unsigned long)...
      std::size_t j = i + 1;
      bool all_types = false;
      while (j < t.size() && t[j].kind == Tok::Ident && is_int_type_token(t[j].text)) {
        all_types = true;
        ++j;
      }
      if (!all_types || j >= t.size() || t[j].text != ")") continue;
      // Call/declaration context `foo(int)` or sizeof(int): skip.
      if (i > 0 && t[i - 1].kind == Tok::Ident && !is_keyword(t[i - 1].text)) continue;
      if (i > 0 && (t[i - 1].text == ")" || t[i - 1].text == "]")) continue;
      // Must be applied to an expression, not `(int);` in a declaration.
      if (j + 1 >= t.size()) continue;
      const Token& next = t[j + 1];
      const bool expr_next = next.kind == Tok::Ident || next.kind == Tok::Number ||
                             next.text == "(" || next.text == "-" || next.text == "*" ||
                             next.text == "&";
      if (!expr_next || (next.kind == Tok::Ident && next.text == "const")) continue;
      add(t[i].line, "R6",
          "C-style cast to integer type in stats code; use static_cast (or std::lround) so float->int narrowing is explicit");
    }
  }

  /// R8: artifact durability. A raw std::ofstream write or a raw
  /// filesystem::rename in src/ bypasses fault::durable_write's publish
  /// protocol (pid-unique tmp, fsync, atomic rename, checked footer) — a
  /// crash mid-write tears the file and a concurrent writer clobbers it.
  /// Non-artifact outputs (trace files, PPM dumps, quarantine moves) carry
  /// an allow(R8) stating why durability does not apply.
  void rule_r8() {
    if (!in_dirs({"src/"})) return;
    if (scoped_out({"src/fault/durable.cpp"})) return;
    const auto& t = toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::Ident) continue;
      const std::string& s = t[i].text;
      if (s == "ofstream") {
        add(t[i].line, "R8",
            "raw std::ofstream write in src/ bypasses the durable publish protocol; use "
            "fault::durable_write (tensor/serialize.hpp file savers) or allow(R8) a "
            "non-artifact output");
      } else if (s == "rename" && i >= 2 && t[i - 1].text == "::" &&
                 (t[i - 2].text == "filesystem" || t[i - 2].text == "fs")) {
        add(t[i].line, "R8",
            "raw filesystem::rename in src/ bypasses the durable publish protocol "
            "(fsync-before-rename); use fault::durable_write or allow(R8) a non-artifact "
            "move");
      }
    }
  }

  const FileModel& fm_;
  bool force_all_;
  std::vector<Finding>* out_;
};

}  // namespace

void run_token_rules(const FileModel& fm, bool force_all, std::vector<Finding>* out) {
  TokenRules(fm, force_all, out).run();
}

}  // namespace rplint
