// rp-lint analyzer — the shared model both rule phases run on.
//
// Phase 1 (rules_token.cpp, R1–R8) pattern-matches the token stream of one
// file at a time. Phase 2 (rules_semantic.cpp, R10–R12) runs on a whole-tree
// model built here: the `#include` graph over src/, a scope/capture parse of
// every lambda handed to parallel_for/run_shards, and a name-merged call
// graph seeded from `// rp-lint: hot` entry-point markers. Everything stays
// libclang-free: the model is grown from the same comment- and string-aware
// tokenizer the token rules always used.
//
// Suppression model: `// rp-lint: allow(Rn) reason` on a code line covers
// that line; on its own line it covers the *entire following statement*
// (multi-line call chains, broken lambda headers), whose extent is computed
// from the token stream (Suppression::end_line).

#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rplint {

// ---------------------------------------------------------------------------
// Tokens

enum class Tok { Ident, Number, Punct };

struct Token {
  Tok kind;
  std::string text;
  int line;
};

struct Suppression {
  int line;       // line the comment starts on
  bool own_line;  // comment is the only thing on its line
  int end_line;   // own-line: last line of the following statement; else == line
  std::set<std::string> rules;
};

/// A `// rp-lint: hot` marker naming a hot entry point for R12. Inline on a
/// function header it marks that function; on its own line it marks the
/// function whose header starts on the next line.
struct HotMark {
  int line;
  bool own_line;
};

struct IncludeEdge {
  std::string target;  // verbatim payload of a #include "..." directive
  int line;
};

/// One function definition (namespace- or class-scope body), found by the
/// statement-head scan: name, header/body position, body token range, the
/// set of callee names appearing in the body, and whether a HotMark tags it.
struct FunctionInfo {
  std::string name;
  int head_line = 0;            // line of the first header token
  int body_line = 0;            // line of the opening '{'
  std::size_t body_begin = 0;   // token index just past '{'
  std::size_t body_end = 0;     // token index of the matching '}'
  bool hot = false;
  std::set<std::string> callees;
};

/// Per-file model: tokens plus everything phase 2 needs from this file.
struct FileModel {
  std::string path;  // repo-relative, forward slashes
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<HotMark> hot_marks;
  std::vector<IncludeEdge> includes;
  std::vector<FunctionInfo> functions;
};

struct Finding {
  std::string path;
  int line;
  std::string rule;
  std::string message;
  bool suppressed = false;  // kept (and tagged) only under --show-suppressed
};

/// Whole-tree links: which function names the hot entry points reach
/// (name-merged call graph — an over-approximation that errs toward
/// flagging), and the src-relative path -> file index map for R11.
struct TreeModel {
  std::map<std::string, std::string> hot_reach;  // function name -> hot root name
  std::map<std::string, std::size_t> path_index;
};

// ---------------------------------------------------------------------------
// Model construction (analyzer.cpp)

FileModel build_file_model(std::string rel_path, const std::string& src);
TreeModel link_tree(const std::vector<FileModel>& files);

/// Token index of the bracket matching the opener at `open` ('(', '[', '{'),
/// or t.size() when unterminated. All three bracket kinds nest together.
std::size_t match_bracket(const std::vector<Token>& t, std::size_t open);

/// Splits a call's top-level arguments. `name_idx` points at the callee
/// identifier, `name_idx + 1` must be '('. Returns [first, last] token index
/// pairs per argument (empty when unterminated).
std::vector<std::pair<std::size_t, std::size_t>> split_call_args(const std::vector<Token>& t,
                                                                 std::size_t name_idx);

// ---------------------------------------------------------------------------
// Rule phases

/// Phase 1: per-file token rules R1–R8 (rules_token.cpp).
void run_token_rules(const FileModel& fm, bool force_all, std::vector<Finding>* out);

/// Phase 2, per-file part: R10 (capture race) and R12 (hot-path allocation,
/// needs the tree's hot_reach) (rules_semantic.cpp).
void run_file_semantic_rules(const FileModel& fm, const TreeModel& tm, bool force_all,
                             std::vector<Finding>* out);

/// Phase 2, tree part: R11 layering + include-cycle check over src/ files.
/// Findings are appended to (*per_file)[i] for the file they belong to, so
/// per-file suppressions still apply.
void run_layering_rule(const std::vector<FileModel>& files, const TreeModel& tm,
                       std::vector<std::vector<Finding>>* per_file);

/// The committed layer order and allowed downward edges R11 enforces.
/// DESIGN.md §7's layer table must match this list exactly (asserted by the
/// fixture self-test in spirit: the table below is the single source).
const std::map<std::string, std::set<std::string>>& layer_allowed_edges();

/// Drops (or, with keep_suppressed, tags) findings covered by an allow().
/// When `matched` is non-null it is resized to fm.suppressions.size() and
/// matched[i] is set per rule the i-th suppression actually absorbed — the
/// input for the --r12-burndown stale-allow check.
void apply_suppressions(const FileModel& fm, bool keep_suppressed, std::vector<Finding>* findings,
                        std::vector<std::set<std::string>>* matched = nullptr);

// ---------------------------------------------------------------------------
// Shared helpers

bool is_keyword(const std::string& s);
bool is_int_type_token(const std::string& s);

/// True when `path` (relative, forward slashes) starts with `prefix`.
bool under(const std::string& path, const std::string& prefix);
bool is_any(const std::string& path, std::initializer_list<const char*> names);

}  // namespace rplint
