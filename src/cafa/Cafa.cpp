//===- cafa/Cafa.cpp - Public facade of the CAFA library ---------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cafa/Cafa.h"

#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>

using namespace cafa;

AnalysisResult cafa::analyzeTrace(const Trace &T,
                                  const AnalysisOptions &Analysis) {
  const DetectorOptions &Options = Analysis.Detector;
  const CheckpointOptions &CkptOpt = Analysis.Checkpoint;
  const DerefResolver *Resolver = Analysis.Resolver;
  AnalysisResult Result;
  Result.TraceStatistics = computeTraceStats(T);

  // DeadlineMillis bounds the whole pipeline here: each phase gets what
  // the previous phases left over (floored at a hair above zero so a
  // blown budget still means "stop at the first checkpoint", not "run
  // unbounded").
  Timer Total;
  DetectorOptions Opt = Options;
  auto Remaining = [&] {
    return std::max(Options.DeadlineMillis - Total.elapsedWallMillis(),
                    0.001);
  };

  // Checkpoint identity: every snapshot carries the trace fingerprint
  // and the semantic-options digest, and resume refuses anything that
  // does not match -- continuing another trace's fixpoint would produce
  // confidently wrong reports, the one unacceptable failure mode.
  ResumeOutcome &RO = Result.Resume;
  bool CkptOn = CkptOpt.enabled();
  std::string Path;
  uint64_t Fp = 0, Digest = 0;
  if (CkptOn) {
    Path = checkpointPath(CkptOpt.Directory);
    Fp = traceFingerprint(T);
    Digest = detectorOptionsDigest(Options, Resolver != nullptr);
  }
  bool WroteSnapshot = false;
  auto Save = [&](const AnalysisSnapshot &Out) {
    Timer SaveTimer;
    uint64_t Bytes = 0;
    Status S = saveAnalysisSnapshot(Out, Path, &Bytes);
    Result.CheckpointMillis += SaveTimer.elapsedWallMillis();
    if (S.ok()) {
      WroteSnapshot = true;
      ++Result.CheckpointSaves;
      Result.CheckpointBytes += Bytes;
    } else if (RO.SaveError.empty()) {
      RO.SaveError = S.message();
    }
  };
  auto StampIdentity = [&](AnalysisSnapshot &Out) {
    Out.TraceFingerprint = Fp;
    Out.NumRecords = T.numRecords();
    Out.OptionsDigest = Digest;
  };

  AnalysisSnapshot Snap;
  bool HaveSnap = false;
  if (CkptOn && CkptOpt.Resume) {
    RO.Attempted = true;
    if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
      std::fclose(F);
      Status S = loadAnalysisSnapshot(Snap, Path);
      if (!S.ok())
        RO.RejectReason = S.message();
      else if (Snap.NumRecords != T.numRecords() ||
               Snap.TraceFingerprint != Fp)
        RO.RejectReason = "snapshot does not match this trace";
      else if (Snap.OptionsDigest != Digest)
        RO.RejectReason =
            "snapshot was taken under different analysis options";
      else
        HaveSnap = true;
    } else {
      RO.NoSnapshot = true;
    }
  }

  Timer Phase;
  TaskIndex Index(T);

  HbCheckpointing HbCk;
  if (CkptOn) {
    HbCk.EveryMillis = CkptOpt.EveryMillis;
    HbCk.Save = [&](const HbFrontier &F) {
      AnalysisSnapshot Out;
      StampIdentity(Out);
      Out.Phase = SnapshotPhase::HbFixpoint;
      Out.Hb = F;
      Save(Out);
    };
  }
  if (HaveSnap) {
    HbCk.Resume = &Snap.Hb;
    RO.Resumed = true;
    RO.Phase =
        Snap.Phase == SnapshotPhase::Detect ? "detect" : "hb-fixpoint";
    RO.HbRoundsDone = Snap.Hb.RoundsDone;
  }

  if (Opt.DeadlineMillis > 0)
    Opt.Hb.DeadlineMillis = Remaining();
  Phase.restart();
  HbIndex Hb(T, Index, Opt.Hb, CkptOn ? &HbCk : nullptr);
  Result.HbBuildMillis = Phase.elapsedWallMillis();
  Result.HbStats = Hb.ruleStats();
  Result.HbTiming = Hb.timings();
  Result.HbMemoryBytes = Hb.memoryBytes();
  Result.Degradation = Hb.degradation();

  // Detector-phase checkpointing only makes sense over a saturated
  // relation: a frontier scanned against a cut relation would bake its
  // too-weak "unordered" verdicts into the resumed report, so such
  // state is never saved and never reused.
  bool DetectCkptOn = CkptOn && !Hb.degradation().DeadlineExceeded;
  ScanCheckpointing ScanCk;
  ScanFrontier LastScan;
  bool HaveLastScan = false;
  HbFrontier HbFinal;
  auto ScanSnapshot = [&](const ScanFrontier &F) {
    AnalysisSnapshot Out;
    StampIdentity(Out);
    Out.Phase = SnapshotPhase::Detect;
    Out.Hb = HbFinal;
    Out.HasScan = true;
    Out.Scan = F;
    return Out;
  };
  if (DetectCkptOn) {
    HbFinal = Hb.exportFrontier();
    ScanCk.EveryMillis = CkptOpt.EveryMillis;
    ScanCk.Save = [&](const ScanFrontier &F) {
      LastScan = F;
      HaveLastScan = true;
      Save(ScanSnapshot(F));
    };
    if (HaveSnap && Snap.Phase == SnapshotPhase::Detect && Snap.HasScan &&
        Snap.Hb.Saturated)
      ScanCk.Resume = &Snap.Scan;
  }

  // The streaming scan (docs/windowed-analysis.md) orders pairs through
  // the oracle that ran the fixpoint.  Its counting pre-pass is the
  // extraction phase.
  if (Opt.DeadlineMillis > 0)
    Opt.DeadlineMillis = Remaining();
  Result.WindowEventsUsed = scanWindowEvents(Options.WindowEvents);
  Phase.restart();
  Result.Report = detectUseFreeRacesWindowed(
      T, Index, Hb, Opt, Result.WindowEventsUsed, Resolver,
      &Result.WindowedDetect, DetectCkptOn ? &ScanCk : nullptr);
  Result.ExtractMillis = Result.WindowedDetect.PrePassMillis;
  Result.DetectMillis = Phase.elapsedWallMillis() - Result.ExtractMillis;

  if (!CkptOn)
    return Result;

  auto raceKey = [](uint32_t UseMethod, uint32_t UsePc, uint32_t FreeMethod,
                    uint32_t FreePc) {
    return std::make_tuple(UseMethod, UsePc, FreeMethod, FreePc);
  };
  if (Result.Report.Partial) {
    // Final partial rewrite: keep the frontier resumable and attach the
    // partial report's races, so the run that finishes the job can diff
    // its complete report against this provisional one.
    AnalysisSnapshot Out;
    if (HaveLastScan) {
      Out = ScanSnapshot(LastScan);
    } else {
      StampIdentity(Out);
      Out.Phase = SnapshotPhase::HbFixpoint;
      Out.Hb = Hb.exportFrontier();
    }
    Out.HasPartialRaces = true;
    Out.PartialRaces.reserve(Result.Report.Races.size());
    for (const UseFreeRace &Race : Result.Report.Races)
      Out.PartialRaces.push_back({Race.Use.Method.value(), Race.Use.Pc,
                                  Race.Free.Method.value(), Race.Free.Pc,
                                  renderRaceLine(Race, T)});
    Save(Out);
  } else {
    // Complete run: diff against the partial baseline (if the snapshot
    // carried one), then retire the snapshot -- a stale file must not
    // shadow a finished analysis.
    if (HaveSnap && Snap.HasPartialRaces) {
      RO.HasBaseline = true;
      std::set<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>> Final;
      for (const UseFreeRace &Race : Result.Report.Races)
        Final.insert(raceKey(Race.Use.Method.value(), Race.Use.Pc,
                             Race.Free.Method.value(), Race.Free.Pc));
      for (const PartialRaceKey &K : Snap.PartialRaces) {
        if (Final.count(raceKey(K.UseMethod, K.UsePc, K.FreeMethod,
                                K.FreePc)))
          ++RO.ConfirmedRaces;
        else
          RO.RetractedRaces.push_back(K.Label);
      }
      RO.NewRaces =
          static_cast<uint32_t>(Result.Report.Races.size()) -
          RO.ConfirmedRaces;
    }
    // Never delete a snapshot we rejected and did not overwrite: it
    // belongs to a different trace/options run (or is evidence of
    // corruption worth inspecting), not to this analysis.
    if (RO.RejectReason.empty() || WroteSnapshot)
      std::remove(Path.c_str());
  }
  return Result;
}

AnalysisResult cafa::analyzeScenario(const Scenario &S,
                                     const RuntimeOptions &RtOptions,
                                     const DetectorOptions &DetOptions,
                                     const GroundTruth *Truth,
                                     Table1Row *RowOut) {
  RuntimeOptions Rt = RtOptions;
  Rt.Tracing = true; // analysis needs a trace regardless of caller intent
  Trace T = runScenario(S, Rt);
  AnalysisResult Result = analyzeTrace(T, DetOptions);
  if (Truth && RowOut)
    *RowOut = evaluateReport(Result.Report, *Truth, T, S.AppName);
  return Result;
}
