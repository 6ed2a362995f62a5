// dpulint's behavior is pinned two ways: fixture trees under
// tools/dpulint/testdata (one deliberate violation per rule, plus a
// clean tree that exercises every rule and passes), and the real tree
// itself, which must stay at zero findings with the four required hot
// roots visible to the checker. DPULINT_TESTDATA / DPULINT_REPO_ROOT
// arrive as compile definitions from tests/CMakeLists.txt.
#include "dpulint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using dpulint::Finding;
using dpulint::Model;
using dpulint::Policy;

std::string testdata() { return DPULINT_TESTDATA; }
std::string repo_root() { return DPULINT_REPO_ROOT; }

Model load_fixture(const std::string& subtree) {
  std::string error;
  auto files = dpulint::load_tree(testdata(), {subtree}, &error);
  EXPECT_EQ(error, "");
  EXPECT_FALSE(files.empty()) << "fixture tree empty: " << subtree;
  return dpulint::build_model(std::move(files));
}

std::string read_or_die(const std::string& path) {
  std::string text;
  EXPECT_TRUE(dpulint::read_file(path, &text)) << path;
  return text;
}

std::vector<Finding> of_rule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

std::string dump(const std::vector<Finding>& findings) {
  std::string s;
  for (const auto& f : findings) {
    s += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message + "\n";
  }
  return s;
}

// ------------------------------------------------------------- clean tree

TEST(DpulintFixtures, CleanTreePassesEveryRule) {
  Model m = load_fixture("clean");
  Policy p;
  p.design_text = read_or_die(testdata() + "/clean/design.md");
  p.design_path = "clean/design.md";
  auto findings = dpulint::run_checks(m, p);
  EXPECT_TRUE(findings.empty()) << dump(findings);

  // The fixture's hot roots (and only those) are visible to the checker.
  auto hot = dpulint::hot_functions(m);
  EXPECT_EQ(hot.size(), 2u);
  ASSERT_EQ(std::count(hot.begin(), hot.end(), "fix::fast_sum"), 1);
  ASSERT_EQ(std::count(hot.begin(), hot.end(), "fix::fast_note"), 1);
}

// ------------------------------------------------- one violation per rule

TEST(DpulintFixtures, HotPathAllocationFlagged) {
  Model m = load_fixture("violations/hot_alloc");
  auto findings = dpulint::run_checks(m, Policy{});
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "hot-path");
  EXPECT_EQ(findings[0].file, "violations/hot_alloc/fast.cpp");
  // The finding lands on the allocation itself and names the call chain
  // from the hot root, so the report is actionable without a debugger.
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
  EXPECT_NE(findings[0].message.find("fast -> helper"), std::string::npos);
}

TEST(DpulintFixtures, LockOrderDriftFlaggedBothDirections) {
  Model m = load_fixture("violations/lock_order");
  Policy p;
  p.design_text = read_or_die(testdata() + "/violations/lock_order/design.md");
  p.design_path = "violations/lock_order/design.md";
  auto findings = dpulint::run_checks(m, p);
  auto drift = of_rule(findings, "lock-order");
  ASSERT_EQ(drift.size(), 2u) << dump(findings);
  // code -> doc: the registered class missing from the block, reported at
  // the registration site.
  EXPECT_EQ(drift[0].file, "violations/lock_order/design.md");
  EXPECT_NE(drift[0].message.find("fix.Other.mu"), std::string::npos);
  EXPECT_EQ(drift[1].file, "violations/lock_order/widget.cpp");
  EXPECT_NE(drift[1].message.find("fix.Widget.mu"), std::string::npos);
}

TEST(DpulintFixtures, MissingLockOrderBlockIsAFinding) {
  Model m = load_fixture("violations/lock_order");
  Policy p;
  p.design_text = "a design doc with no fenced block at all";
  auto findings = of_rule(dpulint::run_checks(m, p), "lock-order");
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_NE(findings[0].message.find("no fenced"), std::string::npos);
}

TEST(DpulintFixtures, RelaxedOutsideWhitelistFlagged) {
  Model m = load_fixture("violations/relaxed");
  auto findings = dpulint::run_checks(m, Policy{});
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "relaxed-atomic");
  EXPECT_EQ(findings[0].file, "violations/relaxed/stats.cpp");
}

TEST(DpulintFixtures, TraceStageWithoutRecordSiteFlagged) {
  Model m = load_fixture("violations/trace_stage");
  auto findings = dpulint::run_checks(m, Policy{});
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "trace-stage");
  EXPECT_EQ(findings[0].file, "violations/trace_stage/src/trace/trace.hpp");
  EXPECT_NE(findings[0].message.find("kDecode"), std::string::npos);
}

TEST(DpulintFixtures, RespondWithoutCompleteFlagged) {
  Model m = load_fixture("violations/trace_pairing");
  auto findings = dpulint::run_checks(m, Policy{});
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "trace-pairing");
  EXPECT_EQ(findings[0].file,
            "violations/trace_pairing/src/grpccompat/dpu_proxy.cpp");
  EXPECT_NE(findings[0].message.find("reject"), std::string::npos);
}

TEST(DpulintFixtures, MalformedWaiverFlagged) {
  Model m = load_fixture("violations/waiver");
  auto findings = dpulint::run_checks(m, Policy{});
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "waiver-syntax");
  EXPECT_EQ(findings[0].file, "violations/waiver/bad.cpp");
}

// --------------------------------------------------------- the real tree

TEST(DpulintRealTree, ZeroFindings) {
  std::string error;
  auto files = dpulint::load_tree(repo_root(), {"src"}, &error);
  ASSERT_EQ(error, "");
  ASSERT_GT(files.size(), 50u) << "suspiciously small tree — wrong root?";
  Model m = dpulint::build_model(std::move(files));
  Policy p;
  p.design_text = read_or_die(repo_root() + "/DESIGN.md");
  auto findings = dpulint::run_checks(m, p);
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(DpulintRealTree, RequiredHotRootsAnnotated) {
  std::string error;
  auto files = dpulint::load_tree(repo_root(), {"src"}, &error);
  ASSERT_EQ(error, "");
  Model m = dpulint::build_model(std::move(files));
  auto hot = dpulint::hot_functions(m);
  // The acceptance set: the fast-path entry points the offload win
  // depends on must carry DPURPC_HOT_PATH and be visible to the checker.
  for (const char* required : {
           "dpurpc::dpu::CodecPool::worker_loop",
           "dpurpc::dpu::CodecPool::submit",
           "dpurpc::HandoffRing::try_push",
           "dpurpc::HandoffRing::try_pop",
           "dpurpc::trace::SpanRing::try_push",
           "dpurpc::trace::Tracer::record",
           "dpurpc::adt::Adt::plans",
           "dpurpc::rdmarpc::BlockWriter::finalize",
           // Streaming additions: fragment reassembly pop on the server
           // and the chunk-cut/submit loop on the proxy's lane thread.
           "dpurpc::rdmarpc::RpcServer::accept_fragment",
           "dpurpc::grpccompat::DpuProxy::scan_and_submit",
           // Tail forensics: the per-tree trigger check on the collector
           // thread and the sampler's per-period read pass.
           "dpurpc::trace::FlightRecorder::should_capture",
           "dpurpc::trace::ResourceSampler::sample_once",
       }) {
    EXPECT_EQ(std::count(hot.begin(), hot.end(), std::string(required)), 1)
        << "missing hot annotation: " << required;
  }
}

}  // namespace
