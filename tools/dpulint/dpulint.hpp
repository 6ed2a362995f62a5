// dpulint: the project-specific static checker for the datapath invariants
// the fast path depends on (DESIGN.md §3.17).
//
// The offload wins in this repo exist only while the hot path stays
// allocation-free, lock-free and correctly ordered. lockdep and TSan catch
// the orders and races a test happens to exercise; clang-tidy knows generic
// C++ misuse. Neither knows *our* invariants. dpulint does, and fails CI
// when a future change erodes one:
//
//   [hot-path]        functions marked DPURPC_HOT_PATH (common/hot_path.hpp)
//                     must not transitively reach `new`, malloc-family
//                     calls, allocation-prone container growth, lockdep
//                     mutex acquisition, condvar waits or blocking
//                     syscalls. Documented cold spills are waived per site.
//   [lock-order]      every lockdep::Mutex class name registered in code
//                     must appear in DESIGN.md §3.12's fenced `lock-order`
//                     block, and vice versa — the doc cannot silently drift.
//   [relaxed-atomic]  raw std::memory_order_relaxed is legal only inside
//                     the approved monitor/stats wrappers
//                     (common/relaxed.hpp, src/metrics/) — PR 4's libstdc++
//                     _Sp_atomic incident is exactly this bug class. An
//                     algorithmic use elsewhere needs a per-site waiver
//                     explaining the protocol it belongs to.
//   [trace-stage]     every trace::Stage enumerator has at least one
//                     record() site, and the record-before-respond pairing
//                     (§3.15) is structurally present in the responder.
//
// Waiver syntax (same line, or a full-line comment covering the next line):
//
//   // dpulint: allow(hot-path): one-line reason for the documented spill
//   // dpulint: allow(relaxed-atomic,hot-path): reasons may cover two rules
//
// A waiver without a reason is itself a finding ([waiver-syntax]).
//
// Implementation posture: a tokenizer + a heuristic function/call model,
// NOT a compiler. No clang-dev dependency, so the checker runs in the
// GCC-only container and anywhere else the tree builds. The model is
// deliberately conservative where it matters (unknown callees are ignored
// unless their *name* is forbidden; ambiguous names fan out to every
// first-party definition) and the fixture tests in tools/dpulint/testdata
// pin its behavior rule by rule.
#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dpulint {

// ---------------------------------------------------------------- tokens

struct Token {
  enum class Kind { kIdent, kPunct, kNumber, kString, kCharLit };
  Kind kind;
  std::string text;
  int line;
};

/// One `dpulint: allow(...)` comment, as lexed.
struct Waiver {
  std::vector<std::string> rules;
  std::string reason;
  int comment_line = 0;    ///< line the comment starts on
  int effective_line = 0;  ///< line of code it covers (same or next)
  bool malformed = false;  ///< allow() unparsable or reason empty
};

struct SourceFile {
  std::string path;  ///< as given (repo-relative in normal runs)
  std::vector<Token> toks;
  std::vector<Waiver> waivers;
  /// effective_line -> waivers covering that line.
  std::map<int, std::vector<const Waiver*>> waivers_by_line;

  bool line_waived(int line, const std::string& rule) const;
};

/// Tokenize one C++ source. Strips comments (capturing dpulint waivers),
/// preprocessor lines (with continuations) and string/char bodies.
SourceFile lex_file(const std::string& path, const std::string& text);

// ----------------------------------------------------------------- model

struct CallSite {
  std::string name;         ///< base identifier, e.g. "try_push"
  std::string qual;         ///< "::"-joined qualifier, e.g. "std::this_thread"
  bool member = false;      ///< preceded by `.` or `->`
  int line = 0;
  size_t tok = 0;           ///< index of the name token
};

struct FuncDef {
  std::string qual_name;    ///< e.g. "dpurpc::dpu::CodecPool::worker_loop"
  std::string base_name;    ///< "worker_loop"
  int file_index = -1;
  int line = 0;
  size_t body_begin = 0;    ///< token index of '{'
  size_t body_end = 0;      ///< token index one past matching '}'
  bool hot = false;         ///< carried a DPURPC_HOT_PATH marker
  std::vector<CallSite> calls;
};

struct EnumDef {
  std::string name;
  int file_index = -1;
  int line = 0;
  std::vector<std::pair<std::string, int>> enumerators;  ///< (name, line)
};

struct MutexReg {
  std::string lock_class;  ///< e.g. "dpu.CodecPool.wake"
  int file_index = -1;
  int line = 0;
};

/// The whole-tree model the checks run against.
struct Model {
  std::vector<SourceFile> files;
  std::vector<FuncDef> funcs;
  std::vector<EnumDef> enums;
  std::vector<MutexReg> mutexes;
  /// base name -> indices into funcs.
  std::map<std::string, std::vector<size_t>> by_base;
};

/// Parse every file's functions/enums/mutex registrations into one model.
Model build_model(std::vector<SourceFile> files);

// ---------------------------------------------------------------- policy

struct Policy {
  /// Marker identifying hot entry points.
  std::string hot_marker = "DPURPC_HOT_PATH";

  /// Identifiers that mean "this body allocates" when seen in a hot body.
  std::set<std::string> forbidden_alloc = {
      "malloc",       "calloc",        "realloc",     "aligned_alloc",
      "posix_memalign", "strdup",      "make_unique", "make_shared",
      "to_string",    "push_back",     "emplace_back", "resize",
      "reserve",      "insert",        "append",      "assign",
  };
  /// Identifiers that mean lock acquisition.
  std::set<std::string> forbidden_lock = {
      "lock",       "try_lock",   "ScopedLock", "UniqueLock",
      "lock_guard", "unique_lock", "scoped_lock", "Mutex", "mutex",
  };
  /// Identifiers that mean a blocking wait / syscall.
  std::set<std::string> forbidden_wait = {
      "wait",      "wait_for",   "wait_until", "sleep_for", "sleep_until",
      "usleep",    "nanosleep",  "sleep",      "poll",      "select",
      "epoll_wait", "accept",    "connect",    "recv",
  };
  /// Ultra-common member/accessor names: resolved to first-party
  /// definitions only within the same file (cross-file fan-out on these
  /// drowns the call graph in false edges). try_push/try_pop are here for
  /// a sharper reason: HandoffRing, SpanRing and BoundedQueue all define
  /// them, the member-call syntax cannot name which, and the ring variants
  /// are hot roots of their own — so the cross-file edge adds nothing but
  /// the false BoundedQueue (blocking, mutexed) path.
  std::set<std::string> common_names = {
      "size",  "data",  "empty", "begin", "end",   "clear", "get",
      "reset", "value", "count", "capacity", "name", "index", "ok",
      "is_ok", "status", "code", "active", "enabled", "now",  "set",
      "front", "back",  "swap",  "min",   "max",   "try_push", "try_pop",
  };

  /// Files (suffix match) where raw memory_order_relaxed is approved.
  std::vector<std::string> relaxed_whitelist = {
      "src/common/relaxed.hpp",
      "src/metrics/metrics.hpp",
      "src/metrics/metrics.cpp",
  };

  /// Trace-stage rule: the enum, where it lives, which files don't count
  /// as record sites (the trace library itself names every stage), which
  /// enumerators are exempt, and which enumerator record_root() records.
  std::string stage_enum = "Stage";
  std::string stage_enum_file_suffix = "src/trace/trace.hpp";
  std::vector<std::string> stage_site_exclude = {
      "src/trace/trace.hpp",
      "src/trace/trace.cpp",
      "src/trace/collector.hpp",
      "src/trace/collector.cpp",
  };
  std::set<std::string> stage_exempt = {"kStageCount"};
  std::string root_stage = "kRequest";  ///< recorded via record_root()
  std::set<std::string> record_calls = {"record", "record_global"};
  std::string record_root_call = "record_root";

  /// Record-before-respond pairing: in these files, any function invoking
  /// the responder must mention the completion stage first (or waive).
  std::vector<std::string> responder_files = {
      "src/grpccompat/dpu_proxy.cpp",
  };
  std::string respond_name = "respond";
  std::string complete_stage = "kComplete";

  /// DESIGN.md text holding the fenced ```lock-order block (empty string
  /// disables the lock-order rule — fixtures pass their own).
  std::string design_text;
  std::string design_path = "DESIGN.md";  ///< for messages only

  /// Skip the lock-order / trace rules entirely (fixture trees that only
  /// exercise one rule).
  bool check_lock_order = true;
  bool check_trace = true;
};

// --------------------------------------------------------------- results

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     ///< hot-path | lock-order | relaxed-atomic |
                        ///< trace-stage | trace-pairing | waiver-syntax
  std::string message;
};

/// Run every rule. Findings come back sorted by (file, line).
std::vector<Finding> run_checks(const Model& model, const Policy& policy);

/// The DPURPC_HOT_PATH-annotated functions the model found (sorted
/// qualified names) — `dpulint --list-hot` prints these so tests can pin
/// that the real annotations are visible to the checker.
std::vector<std::string> hot_functions(const Model& model);

// ------------------------------------------------------------ tree loading

/// Recursively collect *.hpp/*.cpp/*.cc (excluding *.pb.cc / *.pb.h and
/// anything under a gen/ directory) beneath each root, lex them, and
/// return the files with paths relative to `base` when they fall under it.
std::vector<SourceFile> load_tree(const std::string& base,
                                  const std::vector<std::string>& roots,
                                  std::string* error);

/// Extract the "file" entries of a compile_commands.json (minimal string
/// scan, no JSON dependency). Used to cross-check the walked tree.
std::vector<std::string> compile_commands_files(const std::string& text);

/// Path of compiled TU `tu` relative to `root_abs` (an absolute repo
/// root, symlinks resolved) when it lies under one of `roots`, else empty.
/// An absolute `tu` is resolved first, so a build configured through a
/// symlinked path still maps; a relative `tu` is taken as already
/// root-relative. Only the path below the root counts, so
/// a directory elsewhere that merely shares a root's name (bench code
/// under perfbench/src) is not mistaken for that root.
std::string tu_under_roots(const std::string& tu, const std::string& root_abs,
                           const std::vector<std::string>& roots);

/// Read a whole file; empty optional-style: returns false on failure.
bool read_file(const std::string& path, std::string* out);

}  // namespace dpulint
