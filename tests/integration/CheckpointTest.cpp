//===- tests/integration/CheckpointTest.cpp -----------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Crash-safe checkpoint/resume at the library level: a deadline-cut
// analysis leaves a snapshot behind, a resumed run restores the frontier
// mid-flight and produces a report bit-identical to an uninterrupted
// run, and every corrupt or mismatched snapshot degrades to a clean
// restart -- never a wrong answer.  The process-level (SIGKILL) side of
// the same guarantee lives in CrashRecoveryTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "trace/TraceBuilder.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>

using namespace cafa;

namespace {

AnalysisOptions withCheckpoint(const DetectorOptions &Det,
                               const CheckpointOptions &Ckpt) {
  AnalysisOptions O(Det);
  O.Checkpoint = Ckpt;
  return O;
}

Trace buildAppTrace() {
  apps::AppBuilder App("ckpt");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(300);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  return runScenario(Model.S, RuntimeOptions());
}

// Two unordered threads with 70 uses x 70 frees of one cell: 4900
// candidate pairs, past the scan's 4096-pair clock poll, so a tiny
// detect deadline cuts the scan after a forced checkpoint save.
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

/// A fresh checkpoint directory with no stale snapshot in it.
std::string freshCheckpointDir(const char *Name) {
  std::string Dir = testScratchDir() + "/cafa_ckpt_" + Name;
  ::mkdir(Dir.c_str(), 0755);
  std::remove(checkpointPath(Dir).c_str());
  return Dir;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

TEST(CheckpointTest, HbDeadlineCutThenResumeIsBitIdentical) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("hb_cut");

  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());
  ASSERT_FALSE(Clean.Report.Partial);
  ASSERT_GT(Clean.Report.Races.size(), 0u);

  // Cut the fixpoint before its first round; the cut must leave a
  // resumable snapshot behind even with no cadence configured.
  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(Cut.Report.Partial);
  EXPECT_EQ(Cut.Report.PartialCause, "hb-deadline");
  EXPECT_TRUE(fileExists(checkpointPath(Dir)));

  // Resume without a deadline: the run completes, and both renderings
  // match the uninterrupted run byte for byte.
  Ckpt.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_TRUE(Resumed.Resume.Attempted);
  EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  EXPECT_FALSE(Resumed.Report.Partial);
  EXPECT_EQ(renderRaceReport(Resumed.Report, T),
            renderRaceReport(Clean.Report, T));
  EXPECT_EQ(renderRaceReportJson(Resumed.Report, T),
            renderRaceReportJson(Clean.Report, T));

  // A finished analysis retires its snapshot.
  EXPECT_FALSE(fileExists(checkpointPath(Dir)));
}

TEST(CheckpointTest, ResumeDiffsProvisionalRacesAgainstFinalReport) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("diff");

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(Cut.Report.Partial);

  // The partial report's races are provisional: the relation was cut,
  // so some may disappear once the fixpoint saturates.  Both renderers
  // must say so.
  EXPECT_TRUE(Cut.Report.racesProvisional());
  if (!Cut.Report.Races.empty()) {
    EXPECT_NE(renderRaceReport(Cut.Report, T).find("(provisional)"),
              std::string::npos);
    EXPECT_NE(
        renderRaceReportJson(Cut.Report, T).find("\"provisional\": true"),
        std::string::npos);
  }
  EXPECT_FALSE(Cut.Report.PartialDetail.empty());

  Ckpt.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  ASSERT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  ASSERT_TRUE(Resumed.Resume.HasBaseline);
  EXPECT_EQ(Resumed.Resume.ConfirmedRaces +
                Resumed.Resume.RetractedRaces.size(),
            Cut.Report.Races.size());
  EXPECT_EQ(Resumed.Resume.ConfirmedRaces + Resumed.Resume.NewRaces,
            Resumed.Report.Races.size());

  // A complete report never carries provisional markers -- that is what
  // keeps resumed output identical to an uninterrupted run's.
  EXPECT_FALSE(Resumed.Report.racesProvisional());
  EXPECT_EQ(renderRaceReport(Resumed.Report, T).find("(provisional)"),
            std::string::npos);
}

TEST(CheckpointTest, DetectScanCutThenResumeIsBitIdentical) {
  // The scan frontier is cadence-independent: a scan cut while sweeping
  // only at the end of the trace resumes under per-record sweeps and
  // under the default cadence to the reference report.
  Trace T = buildWideScanTrace();
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());
  AccessDb Db = extractAccesses(T, Index);

  // Disable the sheddable filters so the deadline ladder's first rung
  // has nothing to shed and the first expiry cuts the scan outright
  // (the shed rung itself is covered by DegradationTest).
  DetectorOptions Opt;
  Opt.Classify = false;
  Opt.LocksetFilter = false;
  Opt.IfGuardFilter = false;
  RaceReport Ref = detectUseFreeRaces(T, Index, Db, Hb, Opt);
  ASSERT_EQ(Ref.Filters.CandidatePairs, 4900u);

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
      detectUseFreeRacesWindowed(T, Index, Hb, Tiny, DetectorOptions::WindowOff,
                                 nullptr, nullptr, &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_LT(Cut.Filters.CandidatePairs, 4900u);

  // Resume from the saved frontier: the remaining pairs are scanned and
  // the rendered report matches the reference byte for byte.
  for (uint64_t W : {uint64_t(1), DetectorOptions::DefaultWindowEvents}) {
    SCOPED_TRACE("resume window " + std::to_string(W));
    ScanCheckpointing ResumeCk;
    ResumeCk.Resume = &Saved;
    RaceReport Resumed = detectUseFreeRacesWindowed(T, Index, Hb, Opt, W,
                                                    nullptr, nullptr,
                                                    &ResumeCk);
    EXPECT_TRUE(ResumeCk.ResumeAccepted);
    EXPECT_FALSE(Resumed.Partial);
    EXPECT_EQ(Resumed.Filters.CandidatePairs, 4900u);
    EXPECT_EQ(renderRaceReportJson(Resumed, T), renderRaceReportJson(Ref, T));
    EXPECT_EQ(renderRaceReport(Resumed, T), renderRaceReport(Ref, T));
  }
}

TEST(CheckpointTest, ShedStateSurvivesDetectCheckpointResume) {
  // 104x104 = 10816 pairs: the deadline ladder sheds the filters at the
  // first poll and cuts at the second.  The frontier must carry the
  // shed flag so a resume keeps scanning with filters shed -- silently
  // re-enabling them would make the report depend on where the cut
  // happened to land.  Cut under per-record sweeps, resumed under one
  // sweep at the end: the cadence is not part of the frontier.
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
  HbIndex Hb(T, Index, HbOptions());

  ScanFrontier Saved;
  bool Wrote = false;
  ScanCheckpointing CutCk;
  CutCk.Save = [&](const ScanFrontier &F) {
    Saved = F;
    Wrote = true;
  };
  DetectorOptions Tiny;
  Tiny.Classify = false;
  Tiny.DeadlineMillis = 1e-6;
  RaceReport Cut = detectUseFreeRacesWindowed(T, Index, Hb, Tiny, 1, nullptr,
                                              nullptr, &CutCk);
  ASSERT_TRUE(Cut.Partial);
  EXPECT_EQ(Cut.PartialCause, "detect-deadline");
  ASSERT_TRUE(Wrote);
  EXPECT_TRUE(Saved.FiltersShed);

  // Resume without a deadline: the scan finishes, and the report stays
  // flagged as a filters-shed run covering every pair.
  ScanCheckpointing ResumeCk;
  ResumeCk.Resume = &Saved;
  DetectorOptions NoLimit;
  NoLimit.Classify = false;
  RaceReport Resumed = detectUseFreeRacesWindowed(
      T, Index, Hb, NoLimit, DetectorOptions::WindowOff, nullptr, nullptr,
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

TEST(CheckpointTest, MidFlightHbFrontierResumesToSameRelation) {
  Trace T = buildAppTrace();
  TaskIndex Index(T);

  HbIndex Clean(T, Index, HbOptions());
  ASSERT_TRUE(Clean.saturated());

  // Freeze the fixpoint after one round, well short of saturation.
  HbOptions OneRound;
  OneRound.MaxFixpointRounds = 1;
  HbIndex Stopped(T, Index, OneRound);
  HbFrontier F = Stopped.exportFrontier();
  EXPECT_EQ(F.RoundsDone, 1u);
  ASSERT_FALSE(F.Saturated);
  EXPECT_FALSE(F.DerivedEdges.empty());

  // Resume: the replayed frontier continues to the same fixpoint, and
  // the resumed round counter keeps counting from where it stopped.
  HbCheckpointing Ck;
  Ck.Resume = &F;
  HbIndex Resumed(T, Index, HbOptions(), &Ck);
  EXPECT_TRUE(Resumed.saturated());
  EXPECT_GT(Resumed.ruleStats().FixpointRounds, 1u);

  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions Opt;
  RaceReport A = detectUseFreeRaces(T, Index, Db, Clean, Opt);
  RaceReport B = detectUseFreeRaces(T, Index, Db, Resumed, Opt);
  EXPECT_EQ(renderRaceReportJson(A, T), renderRaceReportJson(B, T));
}

TEST(CheckpointTest, HbDeadlineCutUnderChainResumesBitIdentical) {
  // Same cut/resume contract as the default-oracle test above, with
  // the chain oracle pinned end to end -- and the resumed chain report
  // must also match a default-oracle clean run, because no oracle choice
  // is allowed to change a report.
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("hb_cut_chain");

  DetectorOptions ChainDet;
  ChainDet.Hb.Reach = ReachMode::Chain;
  AnalysisResult Clean = analyzeTrace(T, ChainDet);
  ASSERT_FALSE(Clean.Report.Partial);
  EXPECT_EQ(Clean.Degradation.UsedReach, ReachMode::Chain);

  AnalysisResult Default = analyzeTrace(T, DetectorOptions());
  EXPECT_EQ(renderRaceReportJson(Clean.Report, T),
            renderRaceReportJson(Default.Report, T));

  DetectorOptions Tiny = ChainDet;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(Cut.Report.Partial);
  EXPECT_TRUE(fileExists(checkpointPath(Dir)));

  Ckpt.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, withCheckpoint(ChainDet, Ckpt));
  EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  EXPECT_FALSE(Resumed.Report.Partial);
  EXPECT_EQ(renderRaceReport(Resumed.Report, T),
            renderRaceReport(Clean.Report, T));
  EXPECT_EQ(renderRaceReportJson(Resumed.Report, T),
            renderRaceReportJson(Clean.Report, T));
  EXPECT_FALSE(fileExists(checkpointPath(Dir)));
}

/// Frontier equality on every derivation field; UsedReach is
/// provenance and deliberately left out.
void expectSameDerivation(const HbFrontier &A, const HbFrontier &B,
                          const char *What) {
  EXPECT_EQ(A.RoundsDone, B.RoundsDone) << What;
  EXPECT_EQ(A.Saturated, B.Saturated) << What;
  EXPECT_EQ(A.Stats.AtomicityEdges, B.Stats.AtomicityEdges) << What;
  EXPECT_EQ(A.Stats.QueueRule1Edges, B.Stats.QueueRule1Edges) << What;
  ASSERT_EQ(A.DerivedEdges.size(), B.DerivedEdges.size()) << What;
  for (size_t I = 0; I != A.DerivedEdges.size(); ++I) {
    EXPECT_EQ(A.DerivedEdges[I].From, B.DerivedEdges[I].From) << What;
    EXPECT_EQ(A.DerivedEdges[I].To, B.DerivedEdges[I].To) << What;
  }
  auto SameCursors = [](const std::vector<HbScanCursor> &X,
                        const std::vector<HbScanCursor> &Y) {
    if (X.size() != Y.size())
      return false;
    for (size_t I = 0; I != X.size(); ++I)
      if (X[I].Gap != Y[I].Gap || X[I].I != Y[I].I)
        return false;
    return true;
  };
  EXPECT_TRUE(SameCursors(A.AtomCursors, B.AtomCursors)) << What;
  EXPECT_TRUE(SameCursors(A.SendCursors, B.SendCursors)) << What;
  EXPECT_EQ(A.UnsaturatedRules, B.UnsaturatedRules) << What;
}

TEST(CheckpointTest, ChainResumeRebuildsClocksToTheSameChainCount) {
  // A frontier carries the derivation, never the clock matrix: a chain
  // resume rebuilds its clocks from the replayed edges and lands on the
  // same decomposition width and the same report as an uninterrupted
  // chain run -- from a mid-fixpoint cut and from a saturated frontier.
  Trace T = buildAppTrace();
  TaskIndex Index(T);
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  HbIndex Clean(T, Index, ChainOpt);
  ASSERT_TRUE(Clean.saturated());
  ASSERT_GT(Clean.degradation().ChainCount, 0u);
  ASSERT_LE(Clean.degradation().ChainCount,
            size_t(ChainReachability::MaxChainsForClocks));

  HbOptions OneRound = ChainOpt;
  OneRound.MaxFixpointRounds = 1;
  HbIndex Stopped(T, Index, OneRound);
  ASSERT_FALSE(Stopped.exportFrontier().Saturated);

  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions Opt;
  RaceReport Ref = detectUseFreeRaces(T, Index, Db, Clean, Opt);
  for (const HbIndex *Cut : {&Stopped, &Clean}) {
    HbFrontier F = Cut->exportFrontier();
    HbCheckpointing Ck;
    Ck.Resume = &F;
    HbIndex Resumed(T, Index, ChainOpt, &Ck);
    EXPECT_TRUE(Resumed.saturated());
    EXPECT_EQ(Resumed.degradation().UsedReach, ReachMode::Chain);
    EXPECT_EQ(Resumed.degradation().ChainCount,
              Clean.degradation().ChainCount);
    expectSameDerivation(Resumed.exportFrontier(), Clean.exportFrontier(),
                         "resumed vs clean");
    RaceReport B = detectUseFreeRaces(T, Index, Db, Resumed, Opt);
    EXPECT_EQ(renderRaceReport(B, T), renderRaceReport(Ref, T));
    EXPECT_EQ(renderRaceReportJson(B, T), renderRaceReportJson(Ref, T));
  }
}

TEST(CheckpointTest, CrossModeResumeRecomputesCleanly) {
  // Every resume rebuilds its oracle from base + derived edges, so the
  // oracle a frontier was cut under never matters: frontiers cut under
  // each mode hold the same derivation (nothing oracle-shaped to
  // differ), and resuming any of them under any mode yields the
  // uninterrupted run's report byte for byte (docs/robustness.md,
  // "Every resume rebuilds the oracle").
  Trace T = buildAppTrace();
  TaskIndex Index(T);
  const ReachMode Modes[] = {ReachMode::Closure, ReachMode::Chain,
                             ReachMode::Bfs};

  AccessDb Db = extractAccesses(T, Index);
  DetectorOptions Opt;
  HbOptions Free;
  Free.Reach = ReachMode::Closure;
  HbIndex CleanIdx(T, Index, Free);
  RaceReport Clean = detectUseFreeRaces(T, Index, Db, CleanIdx, Opt);
  ASSERT_GT(Clean.Races.size(), 0u); // the comparisons are not vacuous
  const std::string RefText = renderRaceReport(Clean, T);
  const std::string RefJson = renderRaceReportJson(Clean, T);
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  size_t CleanChains = HbIndex(T, Index, ChainOpt).degradation().ChainCount;

  std::vector<HbFrontier> Cuts;
  for (ReachMode CutMode : Modes) {
    HbOptions CutOpt;
    CutOpt.Reach = CutMode;
    CutOpt.MaxFixpointRounds = 1;
    HbIndex Stopped(T, Index, CutOpt);
    Cuts.push_back(Stopped.exportFrontier());
    ASSERT_FALSE(Cuts.back().Saturated);
    EXPECT_EQ(Cuts.back().UsedReach, CutMode);
    expectSameDerivation(Cuts.back(), Cuts.front(), reachModeName(CutMode));
  }

  for (size_t C = 0; C != Cuts.size(); ++C) {
    for (ReachMode ResumeMode : Modes) {
      std::string What = std::string(reachModeName(Modes[C])) + " cut, " +
                         reachModeName(ResumeMode) + " resume";
      HbCheckpointing Ck;
      Ck.Resume = &Cuts[C];
      HbOptions ResumeOpt;
      ResumeOpt.Reach = ResumeMode;
      HbIndex Resumed(T, Index, ResumeOpt, &Ck);
      EXPECT_TRUE(Resumed.saturated()) << What;
      EXPECT_EQ(Resumed.degradation().UsedReach, ResumeMode) << What;
      if (ResumeMode == ReachMode::Chain) {
        EXPECT_EQ(Resumed.degradation().ChainCount, CleanChains) << What;
      }
      RaceReport R = detectUseFreeRaces(T, Index, Db, Resumed, Opt);
      EXPECT_EQ(renderRaceReport(R, T), RefText) << What;
      EXPECT_EQ(renderRaceReportJson(R, T), RefJson) << What;
    }
  }
}

TEST(CheckpointTest, CadenceSnapshotsStaySmallOnMyTracks) {
  // Size pin: a frontier is edges and cursors, so even saving at every
  // round boundary the mytracks snapshot stays far below the
  // 17,920^2-bit closure matrix (40 MB) an oracle-carrying frontier
  // used to hold.  The cadence is far below any round's wall time, so
  // every round that derives edges saves, however fast the build runs.
  Trace T = runScenario(apps::buildMyTracks().S, RuntimeOptions());
  TaskIndex Index(T);
  std::string Path = checkpointPath(freshCheckpointDir("mytracks_size"));
  size_t Saves = 0, Largest = 0;
  HbCheckpointing Ck;
  Ck.EveryMillis = 1e-9;
  Ck.Save = [&](const HbFrontier &F) {
    AnalysisSnapshot Snap;
    Snap.NumRecords = T.numRecords();
    Snap.Hb = F;
    ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());
    Largest = std::max(Largest, readFile(Path).size());
    ++Saves;
  };
  HbIndex Hb(T, Index, HbOptions(), &Ck);
  EXPECT_TRUE(Hb.saturated());
  // Every round but the last (which derives nothing) saved.
  EXPECT_EQ(Saves, Hb.ruleStats().FixpointRounds - 1);
  EXPECT_LT(Largest, size_t(1) << 20);
}

TEST(CheckpointTest, V4SnapshotIsRejectedToACleanRestart) {
  // v4 frontiers carried oracle payloads and v5 files a batch pair-scan
  // payload; the v6 reader must refuse both through the version check
  // and restart cleanly, never resuming a wrong report.
  Trace T = buildAppTrace();
  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());
  for (char Version : {4, 5}) {
    SCOPED_TRACE("version " + std::to_string(Version));
    std::string Dir = freshCheckpointDir("old_version");
    std::string Path = checkpointPath(Dir);

    DetectorOptions Tiny;
    Tiny.DeadlineMillis = 1e-6;
    CheckpointOptions Ckpt;
    Ckpt.Directory = Dir;
    analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
    std::string Bytes = readFile(Path);
    ASSERT_GT(Bytes.size(), 12u);
    Bytes[8] = Version; // the little-endian u32 version after the magic
    writeFile(Path, Bytes);

    Ckpt.Resume = true;
    AnalysisResult R =
        analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
    EXPECT_TRUE(R.Resume.Attempted);
    EXPECT_FALSE(R.Resume.Resumed);
    EXPECT_NE(R.Resume.RejectReason.find("unsupported snapshot version " +
                                         std::to_string(Version)),
              std::string::npos)
        << R.Resume.RejectReason;
    EXPECT_EQ(renderRaceReport(R.Report, T),
              renderRaceReport(Clean.Report, T));
    EXPECT_EQ(renderRaceReportJson(R.Report, T),
              renderRaceReportJson(Clean.Report, T));
  }
}

TEST(CheckpointTest, SnapshotRecordingTheRetiredIncrementalModeResumes) {
  // Snapshots written before the closure oracles merged record the
  // reserved Incremental as the oracle they ran under.  The field is
  // informational: such a v6 snapshot must still be accepted, and the
  // resume rebuilds the closure reference and ends byte-identical.
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("incremental");
  std::string Path = checkpointPath(Dir);
  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());
  ASSERT_GT(Clean.Report.Races.size(), 0u);

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  ASSERT_TRUE(analyzeTrace(T, withCheckpoint(Tiny, Ckpt)).Report.Partial);
  AnalysisSnapshot Snap;
  ASSERT_TRUE(loadAnalysisSnapshot(Snap, Path).ok());
  Snap.Hb.UsedReach = ReachMode::Incremental;
  ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());

  DetectorOptions Closure;
  Closure.Hb.Reach = ReachMode::Closure; // pinned: CI reach legs
  Ckpt.Resume = true;
  AnalysisResult R = analyzeTrace(T, withCheckpoint(Closure, Ckpt));
  EXPECT_TRUE(R.Resume.Resumed) << R.Resume.RejectReason;
  EXPECT_FALSE(R.Report.Partial);
  EXPECT_EQ(R.Degradation.UsedReach, ReachMode::Closure);
  EXPECT_EQ(renderRaceReport(R.Report, T), renderRaceReport(Clean.Report, T));
  EXPECT_EQ(renderRaceReportJson(R.Report, T),
            renderRaceReportJson(Clean.Report, T));
}

TEST(CheckpointTest, SnapshotSurvivesAnEncodeDecodeRoundTrip) {
  AnalysisSnapshot Snap;
  Snap.TraceFingerprint = 0x1122334455667788ull;
  Snap.NumRecords = 42;
  Snap.OptionsDigest = 0x99aabbccddeeff00ull;
  Snap.Phase = SnapshotPhase::Detect;
  Snap.Hb.UsedReach = ReachMode::Closure;
  Snap.Hb.RoundsDone = 7;
  Snap.Hb.Saturated = true;
  Snap.Hb.Stats.FixpointRounds = 7;
  Snap.Hb.Stats.AtomicityEdges = 13;
  Snap.Hb.DerivedEdges = {{NodeId(3), NodeId(4)}, {NodeId(9), NodeId(1)}};
  Snap.Hb.AtomCursors = {{4, 2}, {2, 0}};
  Snap.Hb.SendCursors = {{8, 5}};
  Snap.Hb.UnsaturatedRules = {"atomicity"};
  Snap.HasScan = true;
  Snap.Scan.CursorRecord = 11;
  Snap.Scan.PairsDoneAtCursor = 3;
  Snap.Scan.Filters.CandidatePairs = 4096;
  Snap.Scan.Survivors = {{5, 6, 50, 60, 1, 2, 3, 4, 1}};
  Snap.HasPartialRaces = true;
  Snap.PartialRaces = {{1, 2, 3, 4, "label one"}, {5, 6, 7, 8, "two"}};

  std::string Dir = freshCheckpointDir("roundtrip");
  std::string Path = checkpointPath(Dir);
  ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());

  AnalysisSnapshot Back;
  ASSERT_TRUE(loadAnalysisSnapshot(Back, Path).ok());
  EXPECT_EQ(Back.TraceFingerprint, Snap.TraceFingerprint);
  EXPECT_EQ(Back.NumRecords, Snap.NumRecords);
  EXPECT_EQ(Back.OptionsDigest, Snap.OptionsDigest);
  EXPECT_EQ(Back.Phase, Snap.Phase);
  EXPECT_EQ(Back.Hb.UsedReach, Snap.Hb.UsedReach);
  EXPECT_EQ(Back.Hb.RoundsDone, Snap.Hb.RoundsDone);
  EXPECT_EQ(Back.Hb.Saturated, Snap.Hb.Saturated);
  EXPECT_EQ(Back.Hb.Stats.AtomicityEdges, Snap.Hb.Stats.AtomicityEdges);
  ASSERT_EQ(Back.Hb.DerivedEdges.size(), 2u);
  EXPECT_EQ(Back.Hb.DerivedEdges[1].From.value(), 9u);
  ASSERT_EQ(Back.Hb.AtomCursors.size(), 2u);
  EXPECT_EQ(Back.Hb.AtomCursors[0].Gap, 4u);
  EXPECT_EQ(Back.Hb.AtomCursors[0].I, 2u);
  ASSERT_EQ(Back.Hb.UnsaturatedRules.size(), 1u);
  EXPECT_EQ(Back.Hb.UnsaturatedRules[0], "atomicity");
  ASSERT_TRUE(Back.HasScan);
  EXPECT_EQ(Back.Scan.CursorRecord, 11u);
  EXPECT_EQ(Back.Scan.PairsDoneAtCursor, 3u);
  EXPECT_EQ(Back.Scan.Filters.CandidatePairs, 4096u);
  ASSERT_EQ(Back.Scan.Survivors.size(), 1u);
  EXPECT_EQ(Back.Scan.Survivors[0].FreeRecord, 60u);
  EXPECT_EQ(Back.Scan.Survivors[0].SameLooper, 1u);
  ASSERT_TRUE(Back.HasPartialRaces);
  ASSERT_EQ(Back.PartialRaces.size(), 2u);
  EXPECT_EQ(Back.PartialRaces[0].Label, "label one");
  EXPECT_EQ(Back.PartialRaces[1].FreePc, 8u);
}

TEST(CheckpointTest, CorruptSnapshotsAreRejectedWithACleanRestart) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("corrupt");
  std::string Path = checkpointPath(Dir);

  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(fileExists(Path));
  std::string Good = readFile(Path);
  ASSERT_GT(Good.size(), 40u);

  Ckpt.Resume = true;
  struct Mutation {
    const char *Name;
    std::string Bytes;
  };
  std::string Flipped = Good;
  Flipped[Good.size() / 2] =
      static_cast<char>(Flipped[Good.size() / 2] ^ 0x40);
  std::string BadMagic = Good;
  BadMagic[0] = 'X';
  const Mutation Mutations[] = {
      {"bit flip in the payload", Flipped},
      {"truncated file", Good.substr(0, Good.size() / 2)},
      {"bad magic", BadMagic},
      {"empty file", std::string()},
  };
  for (const Mutation &M : Mutations) {
    writeFile(Path, M.Bytes);
    AnalysisResult R = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
    EXPECT_TRUE(R.Resume.Attempted) << M.Name;
    EXPECT_FALSE(R.Resume.Resumed) << M.Name;
    EXPECT_FALSE(R.Resume.RejectReason.empty()) << M.Name;
    // The rejected snapshot degrades to a clean full analysis -- the
    // report matches an uninterrupted run exactly.
    EXPECT_EQ(renderRaceReportJson(R.Report, T),
              renderRaceReportJson(Clean.Report, T))
        << M.Name;
  }

  // Missing snapshot: also a clean start, but flagged differently.
  std::remove(Path.c_str());
  AnalysisResult R = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_TRUE(R.Resume.Attempted);
  EXPECT_TRUE(R.Resume.NoSnapshot);
  EXPECT_FALSE(R.Resume.Resumed);
  EXPECT_TRUE(R.Resume.RejectReason.empty());
}

TEST(CheckpointTest, MismatchedTraceOrOptionsAreRejected) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("mismatch");

  DetectorOptions Tiny;
  Tiny.DeadlineMillis = 1e-6;
  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  analyzeTrace(T, withCheckpoint(Tiny, Ckpt));
  ASSERT_TRUE(fileExists(checkpointPath(Dir)));

  // A different trace must not adopt this trace's fixpoint.
  apps::AppBuilder App("other");
  App.seedInterThreadRace("gamma");
  App.fillVolumeTo(120);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  Trace Other = runScenario(Model.S, RuntimeOptions());

  Ckpt.Resume = true;
  AnalysisResult R = analyzeTrace(Other, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_FALSE(R.Resume.Resumed);
  EXPECT_NE(R.Resume.RejectReason.find("does not match this trace"),
            std::string::npos)
      << R.Resume.RejectReason;

  // Same trace, different semantic options: also rejected.
  DetectorOptions Conv;
  Conv.Hb.Model = OrderingModel::Conventional;
  AnalysisResult R2 = analyzeTrace(T, withCheckpoint(Conv, Ckpt));
  EXPECT_FALSE(R2.Resume.Resumed);
  EXPECT_NE(R2.Resume.RejectReason.find("different analysis options"),
            std::string::npos)
      << R2.Resume.RejectReason;

  // Pure budget knobs are *not* semantic: a snapshot taken under one
  // deadline/oracle budget resumes under another.
  DetectorOptions OtherBudget;
  OtherBudget.Hb.Reach = ReachMode::Bfs;
  OtherBudget.Hb.MemLimitBytes = 1 << 20;
  AnalysisResult R3 = analyzeTrace(T, withCheckpoint(OtherBudget, Ckpt));
  EXPECT_TRUE(R3.Resume.Resumed) << R3.Resume.RejectReason;
}

TEST(CheckpointTest, CadenceSavesDuringACleanRunLeaveNoSnapshotBehind) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("cadence");

  CheckpointOptions Ckpt;
  Ckpt.Directory = Dir;
  Ckpt.EveryMillis = 1e-7; // save at every opportunity
  AnalysisResult R = analyzeTrace(T, withCheckpoint(DetectorOptions(), Ckpt));
  EXPECT_FALSE(R.Report.Partial);
  EXPECT_TRUE(R.Resume.SaveError.empty()) << R.Resume.SaveError;

  // Intermediate snapshots were written, but a clean completion retires
  // the file so a stale snapshot can't shadow a finished analysis.
  EXPECT_FALSE(fileExists(checkpointPath(Dir)));

  AnalysisResult Clean = analyzeTrace(T, DetectorOptions());
  EXPECT_EQ(renderRaceReportJson(R.Report, T),
            renderRaceReportJson(Clean.Report, T));
}

TEST(CheckpointTest, FingerprintAndDigestSeparateInputsAndSemantics) {
  Trace T = buildAppTrace();
  Trace T2 = buildAppTrace(); // deterministic runtime: same content
  EXPECT_EQ(traceFingerprint(T), traceFingerprint(T2));

  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 16);
  TaskId A = TB.addThread("t");
  TB.begin(A);
  TB.ptrWrite(A, 1, 2, M, 0);
  TB.end(A);
  Trace Small = TB.take();
  EXPECT_NE(traceFingerprint(T), traceFingerprint(Small));

  DetectorOptions Base;
  EXPECT_EQ(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(DetectorOptions(), false));
  EXPECT_NE(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(Base, true));
  DetectorOptions NoAtom;
  NoAtom.Hb.EnableAtomicityRule = false;
  EXPECT_NE(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(NoAtom, false));
  // Budget knobs don't change the digest.
  DetectorOptions Budget;
  Budget.Hb.Reach = ReachMode::Bfs;
  Budget.Hb.MemLimitBytes = 123;
  Budget.DeadlineMillis = 5;
  EXPECT_EQ(detectorOptionsDigest(Base, false),
            detectorOptionsDigest(Budget, false));
}

} // namespace
