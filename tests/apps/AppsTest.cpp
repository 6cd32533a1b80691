//===- tests/apps/AppsTest.cpp ------------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The headline reproduction check: every application model regenerates
// its Table 1 row exactly -- same event volume, same race counts per
// category, same false positives per type, nothing unexpected, nothing
// missed.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"

#include "cafa/Cafa.h"
#include "hb/HbIndex.h"
#include "trace/Validate.h"

#include <gtest/gtest.h>

using namespace cafa;
using namespace cafa::apps;

namespace {

class AppTable1Test : public testing::TestWithParam<std::string> {};

TEST_P(AppTable1Test, ReproducesPaperRowExactly) {
  AppModel Model = buildApp(GetParam());
  RuntimeStats Stats;
  Trace T = runScenario(Model.S, RuntimeOptions(), &Stats);

  // The simulated execution itself is clean.
  EXPECT_EQ(Stats.NullPointerExceptions, 0u);
  EXPECT_EQ(Stats.BlockedAtQuiescence, 0u);
  Status V = validateTrace(T);
  ASSERT_TRUE(V.ok()) << V.message();

  // The Events column is matched exactly, not approximately.
  EXPECT_EQ(T.numEvents(), Model.PaperRow.Events);

  AnalysisResult R = analyzeTrace(T, DetectorOptions());
  Table1Row Row = evaluateReport(R.Report, Model.Truth, T, GetParam());

  EXPECT_EQ(Row.Reported, Model.PaperRow.Reported)
      << renderRaceReport(R.Report, T);
  EXPECT_EQ(Row.TrueA, Model.PaperRow.TrueA);
  EXPECT_EQ(Row.TrueB, Model.PaperRow.TrueB);
  EXPECT_EQ(Row.TrueC, Model.PaperRow.TrueC);
  EXPECT_EQ(Row.FpI, Model.PaperRow.FpI);
  EXPECT_EQ(Row.FpII, Model.PaperRow.FpII);
  EXPECT_EQ(Row.FpIII, Model.PaperRow.FpIII);
  EXPECT_EQ(Row.Unexpected, 0u) << renderRaceReport(R.Report, T);
  EXPECT_EQ(Row.Missed, 0u);
}

TEST_P(AppTable1Test, DeterministicAcrossRuns) {
  AppModel Model = buildApp(GetParam());
  Trace T1 = runScenario(Model.S, RuntimeOptions());
  Trace T2 = runScenario(Model.S, RuntimeOptions());
  ASSERT_EQ(T1.numRecords(), T2.numRecords());
  for (uint32_t I = 0; I != T1.numRecords(); ++I) {
    const TraceRecord &A = T1.record(I);
    const TraceRecord &B = T2.record(I);
    ASSERT_TRUE(A.Task == B.Task && A.Kind == B.Kind &&
                A.Arg0 == B.Arg0 && A.Time == B.Time)
        << "record " << I << " differs between runs";
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppTable1Test,
                         testing::ValuesIn(appNames()),
                         [](const testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

/// The happens-before fixpoint's derivation on every app model, pinned:
/// per-rule edge counts, rounds, and a digest of the derived edges in
/// insertion order.  The premise scans may change how fast they run,
/// never what they derive.
struct PinnedDerivation {
  const char *App;
  uint64_t Atomicity, Q1, Q2, Q3, Q4;
  uint32_t Rounds;
  size_t Derived;
  uint64_t Digest; ///< FNV-1a over (From, To) of every derived edge
};

void PrintTo(const PinnedDerivation &P, std::ostream *OS) { *OS << P.App; }

class AppDerivationTest : public testing::TestWithParam<PinnedDerivation> {};

TEST_P(AppDerivationTest, RuleCountsRoundsAndEdgesArePinned) {
  const PinnedDerivation &P = GetParam();
  AppModel Model = buildApp(P.App);
  Trace T = runScenario(Model.S, RuntimeOptions());
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  const HbRuleStats &S = Hb.ruleStats();
  EXPECT_EQ(S.AtomicityEdges, P.Atomicity);
  EXPECT_EQ(S.QueueRule1Edges, P.Q1);
  EXPECT_EQ(S.QueueRule2Edges, P.Q2);
  EXPECT_EQ(S.QueueRule3Edges, P.Q3);
  EXPECT_EQ(S.QueueRule4Edges, P.Q4);
  EXPECT_EQ(S.FixpointRounds, P.Rounds);
  const std::vector<HbEdge> &Edges = Hb.exportFrontier().DerivedEdges;
  EXPECT_EQ(Edges.size(), P.Derived);
  uint64_t Digest = 1469598103934665603ull;
  for (const HbEdge &E : Edges) {
    Digest = (Digest ^ E.From.value()) * 1099511628211ull;
    Digest = (Digest ^ E.To.value()) * 1099511628211ull;
  }
  EXPECT_EQ(Digest, P.Digest);
}

const PinnedDerivation Pinned[] = {
    {"connectbot", 0, 2131, 0, 0, 0, 3, 2131, 0x88bf7490419c2ab0ull},
    {"mytracks", 2, 4624, 0, 0, 0, 3, 4626, 0xe8db58658f32bb75ull},
    {"zxing", 0, 3176, 0, 0, 0, 3, 3176, 0x328e709f1e6ffd88ull},
    {"todolist", 1, 4976, 0, 0, 0, 3, 4977, 0xf7c67c0cd76ce624ull},
    {"browser", 1, 2739, 0, 0, 0, 3, 2740, 0xf6c10a85966d38cfull},
    {"firefox", 1, 3794, 0, 0, 0, 3, 3795, 0x90a90c237f38b062ull},
    {"vlc", 0, 1954, 0, 0, 0, 2, 1954, 0x2b6965500c83b049ull},
    {"fbreader", 1, 2454, 0, 0, 0, 3, 2455, 0x260920f179d51e82ull},
    {"camera", 1, 5089, 0, 0, 0, 3, 5090, 0xb2068c0bc4e73d6bull},
    {"music", 0, 4671, 0, 0, 0, 3, 4671, 0x4fce95f7553f19bfull},
};

INSTANTIATE_TEST_SUITE_P(AllApps, AppDerivationTest, testing::ValuesIn(Pinned),
                         [](const testing::TestParamInfo<PinnedDerivation> &I) {
                           return std::string(I.param.App);
                         });

TEST(AppsTest, OverallNumbersMatchPaperHeadline) {
  // Section 6.3: 115 reports, 69 harmful (60%), 13/25/31 by category,
  // 9/32/5 false positives by type.
  Table1Row Total;
  for (const std::string &Name : appNames()) {
    AppModel Model = buildApp(Name);
    Table1Row Row;
    analyzeScenario(Model.S, RuntimeOptions(), DetectorOptions(),
                    &Model.Truth, &Row);
    Total.Reported += Row.Reported;
    Total.TrueA += Row.TrueA;
    Total.TrueB += Row.TrueB;
    Total.TrueC += Row.TrueC;
    Total.FpI += Row.FpI;
    Total.FpII += Row.FpII;
    Total.FpIII += Row.FpIII;
  }
  EXPECT_EQ(Total.Reported, 115u);
  EXPECT_EQ(Total.TrueA, 13u);
  EXPECT_EQ(Total.TrueB, 25u);
  EXPECT_EQ(Total.TrueC, 31u);
  EXPECT_EQ(Total.FpI, 9u);
  EXPECT_EQ(Total.FpII, 32u);
  EXPECT_EQ(Total.FpIII, 5u);
  EXPECT_EQ(Total.trueTotal(), 69u);
}

TEST(AppsTest, RegistryKnowsAllTenApps) {
  EXPECT_EQ(appNames().size(), 10u);
  EXPECT_EQ(buildAllApps().size(), 10u);
  for (const std::string &Name : appNames())
    EXPECT_EQ(buildApp(Name).S.AppName, Name);
}

} // namespace
