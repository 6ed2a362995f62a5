// dpulint CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   dpulint --root . --design DESIGN.md
//           --compile-commands build/compile_commands.json
//
// The tree walk under --sources discovers headers and sources; when a
// compile_commands.json is given, any first-party TU it lists that the
// walk missed is loaded too, so the checked set can never drift below
// what the build actually compiles.
#include "dpulint.hpp"

#include <cstring>
#include <filesystem>
#include <iostream>

namespace {

void usage(std::ostream& os) {
  os << "usage: dpulint [options]\n"
        "  --root DIR               repo root (default .)\n"
        "  --sources A,B,...        roots to walk, relative to --root "
        "(default src)\n"
        "  --design FILE            DESIGN.md holding the ```lock-order "
        "block\n"
        "                           (default <root>/DESIGN.md; 'none' "
        "disables)\n"
        "  --compile-commands FILE  cross-check TU coverage against the "
        "build\n"
        "  --relaxed-whitelist A,B  override approved relaxed-atomic files\n"
        "  --stage-file SUFFIX      override trace Stage enum location\n"
        "  --responder-file A,B     override record-before-respond files\n"
        "  --no-lock-order          skip the lock-order rule\n"
        "  --no-trace               skip the trace rules\n"
        "  --list-hot               print DPURPC_HOT_PATH functions and "
        "exit\n"
        "  --quiet                  findings only, no summary line\n";
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i <= s.size()) {
    size_t c = s.find(',', i);
    if (c == std::string::npos) c = s.size();
    if (c > i) out.push_back(s.substr(i, c - i));
    i = c + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string design;
  std::string compile_commands;
  std::vector<std::string> sources = {"src"};
  dpulint::Policy policy;
  bool list_hot = false;
  bool quiet = false;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "dpulint: " << argv[i] << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--root") == 0) {
      root = need_value(i);
    } else if (std::strcmp(a, "--design") == 0) {
      design = need_value(i);
    } else if (std::strcmp(a, "--sources") == 0) {
      sources = split_commas(need_value(i));
    } else if (std::strcmp(a, "--compile-commands") == 0) {
      compile_commands = need_value(i);
    } else if (std::strcmp(a, "--relaxed-whitelist") == 0) {
      policy.relaxed_whitelist = split_commas(need_value(i));
    } else if (std::strcmp(a, "--stage-file") == 0) {
      policy.stage_enum_file_suffix = need_value(i);
    } else if (std::strcmp(a, "--responder-file") == 0) {
      policy.responder_files = split_commas(need_value(i));
    } else if (std::strcmp(a, "--no-lock-order") == 0) {
      policy.check_lock_order = false;
    } else if (std::strcmp(a, "--no-trace") == 0) {
      policy.check_trace = false;
    } else if (std::strcmp(a, "--list-hot") == 0) {
      list_hot = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "dpulint: unknown option '" << a << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  std::string error;
  std::vector<dpulint::SourceFile> files =
      dpulint::load_tree(root, sources, &error);
  if (!error.empty()) {
    std::cerr << "dpulint: " << error << "\n";
    return 2;
  }
  if (files.empty()) {
    std::cerr << "dpulint: no sources found under ";
    for (const auto& s : sources) std::cerr << root << "/" << s << " ";
    std::cerr << "\n";
    return 2;
  }

  // Coverage cross-check: every first-party TU the build compiles must be
  // in the walked set (a TU the walk can't see is a TU the rules can't
  // gate). Generated sources are exempt by the same rule as the walk.
  if (!compile_commands.empty()) {
    std::string cc_text;
    if (!dpulint::read_file(compile_commands, &cc_text)) {
      std::cerr << "dpulint: cannot read " << compile_commands << "\n";
      return 2;
    }
    std::set<std::string> walked;
    for (const auto& f : files) walked.insert(f.path);
    std::error_code ec;
    const std::string root_abs = std::filesystem::canonical(root, ec).string();
    if (ec) {
      std::cerr << "dpulint: cannot resolve --root " << root << "\n";
      return 2;
    }
    size_t mapped = 0;
    for (const std::string& tu : dpulint::compile_commands_files(cc_text)) {
      if (tu.size() > 6 && tu.compare(tu.size() - 6, 6, ".pb.cc") == 0)
        continue;
      std::string rel = dpulint::tu_under_roots(tu, root_abs, sources);
      if (rel.empty()) continue;
      ++mapped;
      if (walked.count(rel)) continue;
      if (rel.find("/gen/") != std::string::npos) continue;
      std::string text;
      if (dpulint::read_file(root + "/" + rel, &text) ||
          dpulint::read_file(tu, &text)) {
        files.push_back(dpulint::lex_file(rel, text));
      } else {
        std::cerr << "dpulint: warning: compiled TU not found on disk: "
                  << tu << "\n";
      }
    }
    if (mapped == 0) {
      // Nothing to cross-check means the check proved nothing: most
      // likely compile_commands.json belongs to another tree.
      std::cerr << "dpulint: " << compile_commands
                << " has no TU under the source roots of " << root_abs << "\n";
      return 2;
    }
  }

  dpulint::Model model = dpulint::build_model(std::move(files));

  if (list_hot) {
    for (const auto& name : dpulint::hot_functions(model)) {
      std::cout << name << "\n";
    }
    return 0;
  }

  if (policy.check_lock_order) {
    if (design.empty()) design = root + "/DESIGN.md";
    if (design == "none") {
      policy.check_lock_order = false;
    } else {
      if (!dpulint::read_file(design, &policy.design_text)) {
        std::cerr << "dpulint: cannot read " << design << "\n";
        return 2;
      }
      // Report the doc by its basename-ish relative path in findings.
      policy.design_path =
          design.rfind(root + "/", 0) == 0 ? design.substr(root.size() + 1)
                                           : design;
    }
  }

  std::vector<dpulint::Finding> findings = dpulint::run_checks(model, policy);
  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!quiet) {
    std::cerr << "dpulint: " << model.files.size() << " files, "
              << model.funcs.size() << " functions, "
              << dpulint::hot_functions(model).size() << " hot, "
              << findings.size() << " finding(s)\n";
  }
  return findings.empty() ? 0 : 1;
}
