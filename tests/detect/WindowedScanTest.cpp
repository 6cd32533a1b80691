//===- tests/detect/WindowedScanTest.cpp --------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The streaming detector scan's contract is byte-identity: at every
// window size it must render exactly the batch reference scan's report
// -- the window is only the retirement sweep cadence, never a result
// knob.  These tests pin that at the detect-function level, plus the
// scan frontier's cut/resume behaviour (the deadline ladder, shed
// state carried across a cut, and stale frontiers degrading to a clean
// rescan).  Pipeline-level coverage lives in
// tests/integration/WindowedAnalysisTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "cafa/ReportJson.h"
#include "detect/Accesses.h"
#include "detect/RaceReport.h"
#include "detect/UseFreeDetector.h"
#include "hb/HbIndex.h"
#include "hb/Reachability.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

// Two unordered threads with 70 uses x 70 frees of one cell: 4900
// candidate pairs, past the scan's 4096-pair clock poll, so a tiny
// detect deadline cuts mid-scan after a forced checkpoint save.
Trace buildWideScanTrace() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 256);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 70; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 70; ++I)
    TB.ptrWrite(B, 5, 0, M, 100 + I);
  TB.end(B);
  return TB.take();
}

// A small trace exercising every filter the scan replays: ordered and
// unordered pairs, lock-guarded pairs, an if-guarded use, and multiple
// cells so retention buckets retire at different horizons.
Trace buildFilterMixTrace() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("mix", 4096);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t V = 0; V != 3; ++V) {
    TB.lockAcquire(A, 7);
    TB.ptrRead(A, V, 9 + V, M, 10 * V);
    TB.deref(A, 9 + V, DerefKind::Invoke, M, 10 * V);
    TB.lockRelease(A, 7);
    TB.ptrRead(A, V, 9 + V, M, 10 * V + 1);
    TB.deref(A, 9 + V, DerefKind::FieldAccess, M, 10 * V + 1);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t V = 0; V != 3; ++V) {
    TB.lockAcquire(B, 7);
    TB.ptrWrite(B, V, 0, M, 100 + V);
    TB.lockRelease(B, 7);
  }
  TB.end(B);
  return TB.take();
}

// Ordered and unordered pairs on one cell: the parent's uses happen
// before the forked child's free (fork edge), while a sibling thread's
// free races them -- so the oracle's answer decides pairs both ways.
Trace buildForkOrderedTrace() {
  TraceBuilder TB;
  MethodId M = TB.addMethod("fork", 256);
  TaskId Parent = TB.addThread("parent");
  TaskId Child = TB.addThread("child");
  TaskId Sibling = TB.addThread("sibling");
  TB.begin(Parent);
  TB.begin(Sibling);
  for (uint32_t I = 0; I != 4; ++I) {
    TB.ptrRead(Parent, 5, 9, M, I);
    TB.deref(Parent, 9, DerefKind::Invoke, M, I);
  }
  TB.fork(Parent, Child);
  TB.begin(Child);
  TB.ptrWrite(Child, 5, 0, M, 100);
  TB.end(Child);
  TB.ptrWrite(Sibling, 5, 0, M, 200);
  TB.end(Sibling);
  TB.end(Parent);
  return TB.take();
}

TEST(WindowedScanTest, EveryWindowSizeRendersTheBatchReport) {
  // The scan asks the HB index that ran the fixpoint, so it meets every
  // state that index can end in.  The oracle axis covers each: committed
  // chain clocks (the default), a chain oracle held in its search phase
  // by a budget that admits its linear structures but neither the
  // bootstrap rows nor the clock matrix, and the BFS floor.  The
  // degradation record is asserted per case so the axis cannot silently
  // collapse onto one state.
  struct OracleCase {
    const char *Name;
    ReachMode Reach;
    bool SearchPhaseBudget;
    ReachMode Used;
    bool Committed;
  };
  const OracleCase Cases[] = {
      {"chain clocks", ReachMode::Chain, false, ReachMode::Chain, true},
      {"chain search phase", ReachMode::Chain, true, ReachMode::Chain,
       false},
      {"bfs", ReachMode::Bfs, false, ReachMode::Bfs, false},
  };
  uint64_t OrderedPairs = 0;
  for (Trace T : {buildWideScanTrace(), buildFilterMixTrace(),
                  buildForkOrderedTrace()}) {
    TaskIndex Index(T);
    DetectorOptions Opt;
    HbIndex RefHb(T, Index, Opt.Hb);
    AccessDb Db = extractAccesses(T, Index);
    RaceReport Batch = detectUseFreeRaces(T, Index, Db, RefHb, Opt);
    std::string BatchText = renderRaceReport(Batch, T);
    std::string BatchJson = renderRaceReportJson(Batch, T);
    ASSERT_GT(Batch.Races.size(), 0u);
    OrderedPairs += Batch.Filters.OrderedByHb;

    for (const OracleCase &C : Cases) {
      HbOptions HbOpt = Opt.Hb;
      HbOpt.Reach = C.Reach;
      if (C.SearchPhaseBudget)
        HbOpt.MemLimitBytes =
            ChainReachability::rowBytes(RefHb.graph().numNodes()) - 1;
      HbIndex Hb(T, Index, HbOpt);
      ASSERT_EQ(Hb.degradation().UsedReach, C.Used) << C.Name;
      ASSERT_EQ(Hb.degradation().ClocksCommitted, C.Committed) << C.Name;
      ASSERT_FALSE(Hb.degradation().DowngradedForMemory) << C.Name;

      for (uint64_t W : {uint64_t(1), uint64_t(64), uint64_t(4096),
                         uint64_t(1) << 20, DetectorOptions::WindowOff}) {
        WindowedDetectStats Stats;
        RaceReport Win =
            detectUseFreeRacesWindowed(T, Index, Hb, Opt, W, nullptr, &Stats);
        EXPECT_EQ(renderRaceReport(Win, T), BatchText)
            << C.Name << ", window " << W;
        EXPECT_EQ(renderRaceReportJson(Win, T), BatchJson)
            << C.Name << ", window " << W;
        EXPECT_EQ(Stats.WindowEvents, W);
        EXPECT_EQ(Stats.NumUses, Db.Uses.size());
        EXPECT_EQ(Stats.NumFrees, Db.Frees.size());
        EXPECT_GT(Stats.RetainedHighWaterBytes, 0u);
      }
    }
  }
  EXPECT_GT(OrderedPairs, 0u) << "no pair is decided by the oracle";
}

TEST(WindowedScanTest, CutThenResumeIsBitIdentical) {
  Trace T = buildWideScanTrace();
  TaskIndex Index(T);
  DetectorOptions Opt;
  // Disable the sheddable filters so the deadline ladder's first rung
  // has nothing to shed and the first expiry cuts the scan outright.
  Opt.Classify = false;
  Opt.LocksetFilter = false;
  Opt.IfGuardFilter = false;
  HbIndex Hb(T, Index, Opt.Hb);
  RaceReport Clean = detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16);
  ASSERT_FALSE(Clean.Partial);
  ASSERT_EQ(Clean.Filters.CandidatePairs, 4900u);

  // Cut the scan at its first clock poll; the deadline forces a save.
  ScanFrontier Saved;
  bool Wrote = false;
  ScanCheckpointing CutCk;
  CutCk.Save = [&](const ScanFrontier &F) {
    Saved = F;
    Wrote = true;
  };
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  RaceReport Cut =
      detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 16, nullptr, nullptr,
                                 &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_LT(Saved.Filters.CandidatePairs, 4900u);

  // Resume from the saved frontier: the remaining pairs are scanned,
  // straggler survivor bodies are re-captured, and the rendered report
  // matches the uninterrupted one byte for byte.
  ScanCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  RaceReport Resumed =
      detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16, nullptr, nullptr,
                                 &ResumeCk);
  EXPECT_TRUE(ResumeCk.ResumeAccepted);
  EXPECT_FALSE(Resumed.Partial);
  EXPECT_EQ(Resumed.Filters.CandidatePairs, 4900u);
  EXPECT_EQ(renderRaceReportJson(Resumed, T), renderRaceReportJson(Clean, T));
  EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Clean, T));
}

TEST(WindowedScanTest, ShedStateSurvivesResume) {
  // 104x104 = 10816 pairs: the ladder sheds the filters at the first
  // poll and cuts at the second; the frontier must carry the shed flag
  // so the resumed report cannot depend on where the cut landed.
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 4096);
  TaskId A = TB.addThread("user");
  TaskId B = TB.addThread("freer");
  TB.begin(A);
  for (uint32_t I = 0; I != 104; ++I) {
    TB.ptrRead(A, 5, 9, M, I);
    TB.deref(A, 9, DerefKind::Invoke, M, I);
  }
  TB.end(A);
  TB.begin(B);
  for (uint32_t I = 0; I != 104; ++I)
    TB.ptrWrite(B, 5, 0, M, 2000 + I);
  TB.end(B);
  Trace T = TB.take();
  TaskIndex Index(T);
  DetectorOptions Tiny;
  Tiny.Classify = false;
  Tiny.DeadlineMillis = 1e-6;
  HbIndex Hb(T, Index, Tiny.Hb);

  ScanFrontier Saved;
  bool Wrote = false;
  ScanCheckpointing CutCk;
  CutCk.Save = [&](const ScanFrontier &F) {
    Saved = F;
    Wrote = true;
  };
  RaceReport Cut =
      detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 32, nullptr, nullptr,
                                 &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_TRUE(Saved.FiltersShed);

  ScanCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  DetectorOptions NoLimit;
  NoLimit.Classify = false;
  RaceReport Resumed =
      detectUseFreeRacesWindowed(T, Index, Hb, NoLimit, 32, nullptr, nullptr,
                                 &ResumeCk);
  EXPECT_TRUE(ResumeCk.ResumeAccepted);
  ASSERT_TRUE(Resumed.Partial);
  EXPECT_EQ(Resumed.PartialCause, "filters-shed");
  EXPECT_EQ(Resumed.Filters.CandidatePairs, 10816u);

  // Nothing found before the cut is lost on resume.
  for (const UseFreeRace &Race : Cut.Races) {
    bool Found = false;
    for (const UseFreeRace &R : Resumed.Races)
      Found |= R.Use.Method == Race.Use.Method && R.Use.Pc == Race.Use.Pc &&
               R.Free.Method == Race.Free.Method && R.Free.Pc == Race.Free.Pc;
    EXPECT_TRUE(Found);
  }
}

TEST(WindowedScanTest, StaleFrontierDegradesToACleanRescan) {
  Trace T = buildWideScanTrace();
  TaskIndex Index(T);
  DetectorOptions Opt;
  Opt.Classify = false;
  Opt.LocksetFilter = false;
  Opt.IfGuardFilter = false;
  HbIndex Hb(T, Index, Opt.Hb);
  RaceReport Clean = detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16);

  ScanFrontier Saved;
  ScanCheckpointing CutCk;
  CutCk.Save = [&](const ScanFrontier &F) { Saved = F; };
  DetectorOptions Tiny = Opt;
  Tiny.DeadlineMillis = 1e-6;
  (void)detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 16, nullptr, nullptr,
                                   &CutCk);
  ASSERT_FALSE(Saved.Survivors.empty());

  // A survivor whose recorded use position no longer matches the trace
  // (as after analyzing a different input) must be rejected wholesale;
  // the scan silently restarts and still produces the clean report.
  Saved.Survivors[0].UseRecord += 1;
  ScanCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  RaceReport Resumed =
      detectUseFreeRacesWindowed(T, Index, Hb, Opt, 16, nullptr, nullptr,
                                 &ResumeCk);
  EXPECT_FALSE(ResumeCk.ResumeAccepted);
  EXPECT_FALSE(Resumed.Partial);
  EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Clean, T));
}

} // namespace
