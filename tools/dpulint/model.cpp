// Heuristic C++ structure model for dpulint: function definitions (with
// their DPURPC_HOT_PATH markers), call sites inside bodies, enums, and
// lockdep::Mutex lock-class registrations. A scanner, not a compiler —
// see dpulint.hpp for the conservatism rules that make that acceptable.
#include "dpulint.hpp"

#include <algorithm>
#include <filesystem>

namespace dpulint {

namespace {

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",        "while",    "switch",   "catch",
      "return",   "sizeof",     "alignof",  "alignas",  "decltype",
      "offsetof", "static_assert", "static_cast", "const_cast",
      "dynamic_cast", "reinterpret_cast", "throw", "noexcept",
      "new",      "delete",     "co_await", "co_return", "co_yield",
      "typeid",   "defined",    "assert",
  };
  return kw;
}

bool is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}
bool ident(const Token& t) { return t.kind == Token::Kind::kIdent; }

class Parser {
 public:
  Parser(const SourceFile& f, int file_index, Model* model,
         const std::string& hot_marker)
      : f_(f), toks_(f.toks), fi_(file_index), model_(model),
        hot_marker_(hot_marker) {}

  void run() { parse_region(0, toks_.size(), ""); extract_mutexes(); }

 private:
  const SourceFile& f_;
  const std::vector<Token>& toks_;
  int fi_;
  Model* model_;
  std::string hot_marker_;

  /// Index one past the matching closer for the opener at `i`.
  size_t skip_balanced(size_t i, const char* open, const char* close,
                       size_t end) const {
    int depth = 0;
    for (; i < end; ++i) {
      if (is(toks_[i], open)) ++depth;
      else if (is(toks_[i], close) && --depth == 0) return i + 1;
    }
    return end;
  }

  /// Skip a template argument list starting at '<'. Heuristic: balanced
  /// '<'/'>', bailing at ';' or '{' (comparison operators never span
  /// those in the positions we call this from).
  size_t skip_angles(size_t i, size_t end) const {
    int depth = 0;
    for (; i < end; ++i) {
      if (is(toks_[i], "<")) ++depth;
      else if (is(toks_[i], ">") && --depth == 0) return i + 1;
      else if (is(toks_[i], ";") || is(toks_[i], "{")) return i;
    }
    return end;
  }

  bool hot_marked(size_t decl_start, size_t name_tok) const {
    for (size_t k = decl_start; k < name_tok && k < toks_.size(); ++k) {
      if (ident(toks_[k]) && toks_[k].text == hot_marker_) return true;
    }
    return false;
  }

  /// Parse one namespace/class/global-level region [begin, end).
  void parse_region(size_t begin, size_t end, const std::string& scope) {
    size_t i = begin;
    size_t decl_start = begin;
    while (i < end) {
      const Token& t = toks_[i];

      if (ident(t) && t.text == "namespace") {
        size_t j = i + 1;
        std::string name;
        while (j < end && (ident(toks_[j]) || is(toks_[j], "::"))) {
          if (ident(toks_[j])) name += (name.empty() ? "" : "::") + toks_[j].text;
          ++j;
        }
        if (j < end && is(toks_[j], "{")) {
          size_t close = skip_balanced(j, "{", "}", end);
          std::string inner = scope;
          if (!name.empty()) inner += (inner.empty() ? "" : "::") + name;
          parse_region(j + 1, close - 1, inner);
          i = close;
        } else {
          while (j < end && !is(toks_[j], ";")) ++j;
          i = j + 1;
        }
        decl_start = i;
        continue;
      }

      if (ident(t) && (t.text == "class" || t.text == "struct" ||
                       t.text == "union")) {
        // Find the tag name (skip attributes / alignas).
        size_t j = i + 1;
        std::string name;
        while (j < end) {
          if (ident(toks_[j]) && toks_[j].text == "alignas") {
            j = skip_balanced(j + 1, "(", ")", end);
            continue;
          }
          if (is(toks_[j], "[")) { j = skip_balanced(j, "[", "]", end); continue; }
          if (ident(toks_[j])) { name = toks_[j].text; ++j; break; }
          break;
        }
        if (j < end && is(toks_[j], "<")) j = skip_angles(j, end);  // specialization
        // Scan to '{' (definition), ';' (declaration) or '=' (alias-ish).
        size_t k = j;
        while (k < end && !is(toks_[k], "{") && !is(toks_[k], ";") &&
               !is(toks_[k], "=") && !is(toks_[k], "(")) {
          if (is(toks_[k], "<")) { k = skip_angles(k, end); continue; }
          ++k;
        }
        if (k < end && is(toks_[k], "{")) {
          size_t close = skip_balanced(k, "{", "}", end);
          std::string inner = scope;
          if (!name.empty()) inner += (inner.empty() ? "" : "::") + name;
          parse_region(k + 1, close - 1, inner);
          i = close;
          // Trailing "} name;" instance declarations: skip to ';'.
          while (i < end && !is(toks_[i], ";") && !is(toks_[i], "{")) ++i;
          if (i < end && is(toks_[i], ";")) ++i;
        } else if (k < end && is(toks_[k], "(")) {
          // "struct Foo f(...);" — variable; fall through from '('.
          i = k;
          decl_start = i;
          continue;
        } else {
          i = (k < end) ? k + 1 : end;
        }
        decl_start = i;
        continue;
      }

      if (ident(t) && t.text == "enum") {
        size_t j = i + 1;
        if (j < end && ident(toks_[j]) &&
            (toks_[j].text == "class" || toks_[j].text == "struct")) ++j;
        std::string name;
        if (j < end && ident(toks_[j])) { name = toks_[j].text; ++j; }
        while (j < end && !is(toks_[j], "{") && !is(toks_[j], ";")) ++j;
        if (j < end && is(toks_[j], "{")) {
          EnumDef e;
          e.name = name;
          e.file_index = fi_;
          e.line = t.line;
          size_t close = skip_balanced(j, "{", "}", end);
          // Enumerators: ident at depth 0 right after '{' or ','.
          bool expect = true;
          for (size_t k = j + 1; k + 1 < close; ++k) {
            if (expect && ident(toks_[k])) {
              e.enumerators.push_back({toks_[k].text, toks_[k].line});
              expect = false;
            } else if (is(toks_[k], ",")) {
              expect = true;
            } else if (is(toks_[k], "(")) {
              k = skip_balanced(k, "(", ")", close) - 1;
            } else if (is(toks_[k], "{")) {
              k = skip_balanced(k, "{", "}", close) - 1;
            }
          }
          model_->enums.push_back(std::move(e));
          i = close;
          while (i < end && !is(toks_[i], ";")) ++i;
          if (i < end) ++i;
        } else {
          i = (j < end) ? j + 1 : end;
        }
        decl_start = i;
        continue;
      }

      if (ident(t) && t.text == "template") {
        size_t j = i + 1;
        if (j < end && is(toks_[j], "<")) j = skip_angles(j, end);
        i = j;
        continue;  // decl_start unchanged: template is part of the decl
      }

      if (ident(t) && (t.text == "using" || t.text == "typedef" ||
                       t.text == "friend")) {
        while (i < end && !is(toks_[i], ";")) {
          if (is(toks_[i], "{")) { i = skip_balanced(i, "{", "}", end); continue; }
          ++i;
        }
        if (i < end) ++i;
        decl_start = i;
        continue;
      }

      // extern "C" { ... } — parse inside at the same scope.
      if (ident(t) && t.text == "extern" && i + 1 < end &&
          toks_[i + 1].kind == Token::Kind::kString && i + 2 < end &&
          is(toks_[i + 2], "{")) {
        size_t close = skip_balanced(i + 2, "{", "}", end);
        parse_region(i + 3, close - 1, scope);
        i = close;
        decl_start = i;
        continue;
      }

      // Access labels reset the declaration window.
      if (ident(t) && (t.text == "public" || t.text == "private" ||
                       t.text == "protected") &&
          i + 1 < end && is(toks_[i + 1], ":")) {
        i += 2;
        decl_start = i;
        continue;
      }

      // Candidate function: '(' preceded by an identifier that is not a
      // keyword. Walk back the qualified-name chain, then decide between
      // definition / declaration / variable.
      if (is(t, "(") && i > begin && ident(toks_[i - 1]) &&
          !keywords().count(toks_[i - 1].text)) {
        size_t name_tok = i - 1;
        std::string qual_chain = toks_[name_tok].text;
        size_t back = name_tok;
        while (back >= 2 && is(toks_[back - 1], "::") && ident(toks_[back - 2])) {
          qual_chain = toks_[back - 2].text + "::" + qual_chain;
          back -= 2;
        }
        if (back >= 1 && is(toks_[back - 1], "~")) qual_chain = "~" + qual_chain;

        size_t after_params = skip_balanced(i, "(", ")", end);
        size_t body = find_body(after_params, end);
        if (body != 0) {
          size_t close = skip_balanced(body, "{", "}", end);
          FuncDef fd;
          fd.qual_name = scope.empty() ? qual_chain : scope + "::" + qual_chain;
          fd.base_name = toks_[name_tok].text;
          fd.file_index = fi_;
          fd.line = toks_[name_tok].line;
          fd.body_begin = body;
          fd.body_end = close;
          fd.hot = hot_marked(decl_start, back);
          collect_calls(&fd);
          model_->funcs.push_back(std::move(fd));
          i = close;
          decl_start = i;
          continue;
        }
        // Not a definition: resume after the parameter list.
        i = after_params;
        continue;
      }

      if (is(t, "{")) {  // opaque initializer / unknown construct
        i = skip_balanced(i, "{", "}", end);
        decl_start = i;
        continue;
      }
      if (is(t, ";") || is(t, "}")) {
        ++i;
        decl_start = i;
        continue;
      }
      ++i;
    }
  }

  /// After a parameter list: find the body '{' of a function definition,
  /// or return 0 if this is a declaration/variable/etc. Handles const,
  /// noexcept(...), trailing return types, = default/delete, ctor-init
  /// lists (including brace initializers), and function-try blocks.
  size_t find_body(size_t i, size_t end) const {
    bool in_init_list = false;
    const Token* prev = nullptr;
    while (i < end) {
      const Token& t = toks_[i];
      if (is(t, ";")) return 0;
      if (is(t, "=")) return 0;  // = default / = delete / = 0 / variable init
      if (is(t, "(")) { prev = &toks_[i]; i = skip_balanced(i, "(", ")", end); prev = &toks_[i - 1]; continue; }
      if (is(t, "<")) { i = skip_angles(i, end); prev = (i > 0) ? &toks_[i - 1] : nullptr; continue; }
      if (is(t, ":") ) { in_init_list = true; prev = &t; ++i; continue; }
      if (is(t, "{")) {
        if (in_init_list && prev != nullptr && ident(*prev)) {
          // brace initializer "member{...}" inside the init list
          i = skip_balanced(i, "{", "}", end);
          prev = &toks_[i - 1];
          continue;
        }
        return i;
      }
      prev = &t;
      ++i;
    }
    return 0;
  }

  void collect_calls(FuncDef* fd) const {
    for (size_t i = fd->body_begin; i < fd->body_end; ++i) {
      const Token& t = toks_[i];
      if (!ident(t)) continue;
      if (i + 1 >= fd->body_end || !is(toks_[i + 1], "(")) continue;
      if (keywords().count(t.text)) continue;
      CallSite cs;
      cs.name = t.text;
      cs.line = t.line;
      cs.tok = i;
      size_t back = i;
      while (back >= fd->body_begin + 2 && is(toks_[back - 1], "::") &&
             ident(toks_[back - 2])) {
        cs.qual = toks_[back - 2].text + (cs.qual.empty() ? "" : "::" + cs.qual);
        back -= 2;
      }
      if (back > fd->body_begin &&
          (is(toks_[back - 1], ".") || is(toks_[back - 1], "->"))) {
        cs.member = true;
      }
      fd->calls.push_back(std::move(cs));
    }
  }

  /// lockdep::Mutex registrations: the class-name string within the next
  /// few tokens of a `lockdep :: Mutex` sequence.
  void extract_mutexes() {
    for (size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (!(ident(toks_[i]) && toks_[i].text == "lockdep")) continue;
      if (!is(toks_[i + 1], "::")) continue;
      if (!(ident(toks_[i + 2]) && toks_[i + 2].text == "Mutex")) continue;
      for (size_t k = i + 3; k < toks_.size() && k < i + 9; ++k) {
        if (is(toks_[k], ";") || is(toks_[k], ")")) break;
        if (toks_[k].kind == Token::Kind::kString) {
          model_->mutexes.push_back({toks_[k].text, fi_, toks_[k].line});
          break;
        }
      }
    }
  }
};

}  // namespace

Model build_model(std::vector<SourceFile> files) {
  Model m;
  m.files = std::move(files);
  for (size_t fi = 0; fi < m.files.size(); ++fi) {
    Parser p(m.files[fi], static_cast<int>(fi), &m, "DPURPC_HOT_PATH");
    p.run();
  }
  for (size_t i = 0; i < m.funcs.size(); ++i) {
    m.by_base[m.funcs[i].base_name].push_back(i);
  }
  return m;
}

namespace fs = std::filesystem;

std::vector<SourceFile> load_tree(const std::string& base,
                                  const std::vector<std::string>& roots,
                                  std::string* error) {
  std::vector<SourceFile> out;
  std::vector<std::string> paths;
  for (const auto& root : roots) {
    fs::path r = fs::path(base) / root;
    std::error_code ec;
    if (!fs::exists(r, ec)) {
      if (error) *error = "source root not found: " + r.string();
      return out;
    }
    for (fs::recursive_directory_iterator it(r, ec), done; it != done;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      fs::path p = it->path();
      std::string name = p.filename().string();
      std::string ext = p.extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".cc" && ext != ".h") continue;
      // Machine-written sources are out of scope (and cannot carry
      // annotations): adtc output and anything under a gen/ directory.
      if (name.size() > 6 && name.compare(name.size() - 6, 6, ".pb.cc") == 0) continue;
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".pb.h") == 0) continue;
      bool generated = false;
      // Relative to the walk root, so a fixture tree can itself live under
      // a testdata/ directory and still be loadable as a root.
      fs::path rel_to_root = p.lexically_relative(r);
      for (const auto& part : rel_to_root) {
        if (part == "gen" || part == "testdata") { generated = true; break; }
      }
      if (generated) continue;
      paths.push_back(p.string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    std::string text;
    if (!read_file(p, &text)) continue;
    std::string rel = p;
    std::string prefix = (fs::path(base) / "").string();
    if (rel.rfind(prefix, 0) == 0) rel = rel.substr(prefix.size());
    out.push_back(lex_file(rel, text));
  }
  return out;
}

std::string tu_under_roots(const std::string& tu, const std::string& root_abs,
                           const std::vector<std::string>& roots) {
  std::string rel = tu;
  if (!tu.empty() && tu[0] == '/') {
    // The build may have been configured through a symlink to the root:
    // compare resolved paths, as `root_abs` is.
    std::error_code ec;
    std::string resolved = std::filesystem::weakly_canonical(tu, ec).string();
    if (ec) resolved = tu;
    const std::string prefix = root_abs + "/";
    if (resolved.rfind(prefix, 0) != 0) return {};
    rel = resolved.substr(prefix.size());
  }
  for (const auto& r : roots) {
    if (rel.rfind(r + "/", 0) == 0) return rel;
  }
  return {};
}

std::vector<std::string> compile_commands_files(const std::string& text) {
  std::vector<std::string> out;
  size_t i = 0;
  const std::string key = "\"file\"";
  while ((i = text.find(key, i)) != std::string::npos) {
    i += key.size();
    while (i < text.size() && (text[i] == ' ' || text[i] == ':')) ++i;
    if (i < text.size() && text[i] == '"') {
      size_t e = text.find('"', i + 1);
      if (e == std::string::npos) break;
      out.push_back(text.substr(i + 1, e - i - 1));
      i = e + 1;
    }
  }
  return out;
}

}  // namespace dpulint
