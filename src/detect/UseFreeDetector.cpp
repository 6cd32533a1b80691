//===- detect/UseFreeDetector.cpp - The CAFA race detector -------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/UseFreeDetector.h"

#include "detect/DetectShared.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

using namespace cafa;
// The per-pair predicates (sameLooperEvents, locksetsIntersect,
// branchGuardsUse, StaticKey, ...) are shared with the windowed scan.
using namespace cafa::detail;

namespace {

/// Indexes built once per detection run.
struct DetectIndexes {
  /// var id -> indices into Db.Frees.
  std::vector<std::vector<uint32_t>> FreesByVar;
  /// (task, var) -> sorted alloc record indices.
  std::unordered_map<uint64_t, std::vector<uint32_t>> AllocsByTaskVar;
  /// (task, frame, var) -> indices into Db.Branches.
  std::unordered_map<uint64_t, std::vector<uint32_t>> BranchesByFrameVar;
  /// Memoized if-guard verdicts per use (-1 unknown, 0 no, 1 yes).
  std::vector<int8_t> GuardedMemo;

  static uint64_t taskVarKey(TaskId Task, VarId Var) {
    return (static_cast<uint64_t>(Task.value()) << 32) | Var.value();
  }
  static uint64_t frameVarKey(uint64_t Frame, VarId Var) {
    // Frame ids are globally unique, so (frame, var) needs no task.
    return (Frame << 20) ^ Var.value();
  }

  DetectIndexes(const AccessDb &Db) {
    uint32_t MaxVar = 0;
    for (const PtrAccess &A : Db.Frees)
      MaxVar = std::max(MaxVar, A.Var.value() + 1);
    for (const PtrAccess &A : Db.Uses)
      MaxVar = std::max(MaxVar, A.Var.value() + 1);
    FreesByVar.resize(MaxVar);
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Frees.size()); I != E;
         ++I)
      FreesByVar[Db.Frees[I].Var.index()].push_back(I);
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Allocs.size());
         I != E; ++I) {
      const PtrAccess &A = Db.Allocs[I];
      AllocsByTaskVar[taskVarKey(A.Task, A.Var)].push_back(A.Record);
    }
    for (auto &[K, V] : AllocsByTaskVar)
      std::sort(V.begin(), V.end());
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Branches.size());
         I != E; ++I) {
      const GuardBranch &Br = Db.Branches[I];
      if (Br.Var.isValid())
        BranchesByFrameVar[frameVarKey(Br.Frame, Br.Var)].push_back(I);
    }
    GuardedMemo.assign(Db.Uses.size(), -1);
  }

  bool allocInTaskAfter(TaskId Task, VarId Var, uint32_t Record) const {
    auto It = AllocsByTaskVar.find(taskVarKey(Task, Var));
    if (It == AllocsByTaskVar.end())
      return false;
    return std::upper_bound(It->second.begin(), It->second.end(), Record) !=
           It->second.end();
  }
  bool allocInTaskBefore(TaskId Task, VarId Var, uint32_t Record) const {
    auto It = AllocsByTaskVar.find(taskVarKey(Task, Var));
    if (It == AllocsByTaskVar.end())
      return false;
    return !It->second.empty() && It->second.front() < Record;
  }
};

} // namespace

bool cafa::isUseIfGuarded(const Trace &T, const AccessDb &Db,
                          const PtrAccess &Use) {
  for (const GuardBranch &Br : Db.Branches)
    if (branchGuardsUse(T, Br, Use))
      return true;
  return false;
}

RaceReport cafa::detectUseFreeRaces(const Trace &T, const TaskIndex &Index,
                                    const AccessDb &Db, const HbIndex &Hb,
                                    const DetectorOptions &Options,
                                    DetectCheckpointing *Ckpt) {
  RaceReport Report;
  if (Hb.degradation().DeadlineExceeded) {
    // The happens-before fixpoint was cut short: the relation
    // under-approximates, so extra candidates may survive the ordering
    // filter.  Everything reported is still a genuine candidate.
    Report.Partial = true;
    Report.PartialCause = "hb-deadline";
    const std::vector<std::string> &Rules =
        Hb.degradation().UnsaturatedRules;
    if (!Rules.empty()) {
      Report.PartialDetail = "unsaturated rules:";
      for (size_t I = 0; I != Rules.size(); ++I)
        Report.PartialDetail += (I ? ", " : " ") + Rules[I];
    }
  }
  DetectIndexes Ix(Db);

  // The conventional model for (b)/(c) classification, built on the
  // first inter-thread race.  Skipped once the pipeline is already past
  // a deadline: a second happens-before construction would dig the
  // hole deeper, and the (b)/(c) split is a refinement, not a soundness
  // requirement.
  std::optional<ConventionalOrder> Conv;
  if (Options.Classify && !Report.Partial)
    Conv.emplace(T, Index, Options.Hb);

  auto isGuarded = [&](uint32_t UseIdx) {
    int8_t &Memo = Ix.GuardedMemo[UseIdx];
    if (Memo >= 0)
      return Memo != 0;
    const PtrAccess &Use = Db.Uses[UseIdx];
    bool Guarded = false;
    auto It = Ix.BranchesByFrameVar.find(
        DetectIndexes::frameVarKey(Use.Frame, Use.Var));
    if (It != Ix.BranchesByFrameVar.end()) {
      for (uint32_t BrIdx : It->second) {
        if (branchGuardsUse(T, Db.Branches[BrIdx], Use)) {
          Guarded = true;
          break;
        }
      }
    }
    Memo = Guarded ? 1 : 0;
    return Guarded;
  };

  std::map<StaticKey, size_t> Dedup;

  // Deadline ladder state (see DetectorOptions::DeadlineMillis): rung 1
  // sheds the lockset and if-guard filters and doubles the budget; rung
  // 2 cuts the scan.  Shedding only ever un-suppresses pairs, so a shed
  // report's race set is a superset of the complete run's.
  bool FiltersShed = false;
  double DeadlineLimit = Options.DeadlineMillis;
  const bool CanShed = Options.LocksetFilter || Options.IfGuardFilter;
  auto MarkShed = [&] {
    FiltersShed = true;
    DeadlineLimit = Options.DeadlineMillis * 2;
    Report.Partial = true;
    if (Report.PartialCause.empty())
      Report.PartialCause = "filters-shed";
    if (Report.PartialDetail.empty())
      Report.PartialDetail =
          "lockset and if-guard filters shed mid-scan; extra races "
          "possible, none missing from the scanned region";
  };

  // Resume path: restore the races, counters, and cursor of a frozen
  // scan.  Records are validated against the freshly extracted accesses
  // -- any mismatch means the frontier belongs to a different trace or
  // extractor and the scan silently restarts from scratch, which is
  // always correct, just slower.
  uint32_t StartUse = 0, StartFree = 0;
  if (Ckpt && Ckpt->Resume) {
    const DetectFrontier &R = *Ckpt->Resume;
    std::unordered_map<uint32_t, uint32_t> UseByRecord, FreeByRecord;
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Uses.size()); I != E;
         ++I)
      UseByRecord.emplace(Db.Uses[I].Record, I);
    for (uint32_t I = 0, E = static_cast<uint32_t>(Db.Frees.size()); I != E;
         ++I)
      FreeByRecord.emplace(Db.Frees[I].Record, I);
    bool Ok = R.UseIdx <= Db.Uses.size();
    if (Ok && R.UseIdx < Db.Uses.size()) {
      const PtrAccess &U = Db.Uses[R.UseIdx];
      Ok = U.Var.index() < Ix.FreesByVar.size()
               ? R.FreePos <= Ix.FreesByVar[U.Var.index()].size()
               : R.FreePos == 0;
    }
    std::vector<UseFreeRace> Restored;
    for (const DetectFrontier::RaceEntry &E : R.Races) {
      auto UIt = UseByRecord.find(E.UseRecord);
      auto FIt = FreeByRecord.find(E.FreeRecord);
      if (UIt == UseByRecord.end() || FIt == FreeByRecord.end() ||
          E.Category > static_cast<uint8_t>(RaceCategory::Conventional)) {
        Ok = false;
        break;
      }
      UseFreeRace Race;
      Race.Use = Db.Uses[UIt->second];
      Race.Free = Db.Frees[FIt->second];
      Race.Category = static_cast<RaceCategory>(E.Category);
      Race.DynamicCount = E.DynamicCount;
      Restored.push_back(std::move(Race));
    }
    if (Ok) {
      StartUse = R.UseIdx;
      StartFree = R.FreePos;
      if (R.FiltersShed)
        MarkShed();
      Report.Filters = R.Filters;
      Report.Races = std::move(Restored);
      for (size_t I = 0; I != Report.Races.size(); ++I) {
        const UseFreeRace &Race = Report.Races[I];
        Dedup.emplace(StaticKey{Race.Use.Method.value(), Race.Use.Pc,
                                Race.Free.Method.value(), Race.Free.Pc},
                      I);
      }
      Ckpt->ResumeAccepted = true;
    }
  }

  // Snapshots the scan at the next unprocessed pair (\p UseIdx, \p J).
  auto freezeScan = [&](uint32_t UseIdx, uint32_t J) {
    DetectFrontier F;
    F.UseIdx = UseIdx;
    F.FreePos = J;
    F.FiltersShed = FiltersShed;
    F.Filters = Report.Filters;
    F.Races.reserve(Report.Races.size());
    for (const UseFreeRace &Race : Report.Races)
      F.Races.push_back({Race.Use.Record, Race.Free.Record,
                         static_cast<uint8_t>(Race.Category),
                         Race.DynamicCount});
    return F;
  };

  // Deadline bookkeeping: a Timer query per pair would dominate the
  // scan, so the clock is only consulted every ~4k pairs.  Checkpoint
  // cadence rides the same poll.
  Timer DetectTimer;
  bool WantClock = Options.DeadlineMillis > 0 ||
                   (Ckpt && Ckpt->Save && Ckpt->EveryMillis > 0);
  uint64_t PairsSinceCheck = 0;
  double LastSaveMs = 0;
  bool OutOfTime = false;

  // Polls the deadline ladder and the checkpoint cadence with the next
  // unprocessed pair at (\p UseIdx, \p J).
  auto pollClock = [&](uint32_t UseIdx, uint32_t J) {
    double Elapsed = DetectTimer.elapsedWallMillis();
    if (Options.DeadlineMillis > 0 && Elapsed > DeadlineLimit) {
      if (!FiltersShed && CanShed) {
        // Rung 1: trade precision for completion -- drop the two
        // suppression-only filters and keep scanning on a doubled
        // budget.
        MarkShed();
        return;
      }
      // Rung 2: out of road.  Pair (UseIdx, J) is not yet processed:
      // it is exactly where a resumed scan picks up.
      if (Ckpt && Ckpt->Save)
        Ckpt->Save(freezeScan(UseIdx, J));
      OutOfTime = true;
      return;
    }
    if (Ckpt && Ckpt->Save && Ckpt->EveryMillis > 0 &&
        Elapsed - LastSaveMs >= Ckpt->EveryMillis) {
      LastSaveMs = Elapsed;
      Ckpt->Save(freezeScan(UseIdx, J));
    }
  };

  // The per-pair filter pipeline: everything whose verdict depends only
  // on the pair itself (and the shed state).  Dedup, dynamic-instance
  // counting, and classification follow in commitPair.
  auto evalPair = [&](uint32_t UseIdx, uint32_t FreeIdx, bool &SameLooper) {
    FilterCounters &C = Report.Filters;
    const PtrAccess &Use = Db.Uses[UseIdx];
    const PtrAccess &Free = Db.Frees[FreeIdx];
    ++C.CandidatePairs;
    if (Use.Task == Free.Task) {
      ++C.SameTask;
      return false;
    }
    if (Hb.ordered(Use.Record, Free.Record)) {
      ++C.OrderedByHb;
      return false;
    }
    if (Options.LocksetFilter && !FiltersShed &&
        locksetsIntersect(Use.Lockset, Free.Lockset)) {
      ++C.LocksetProtected;
      return false;
    }
    SameLooper = sameLooperEvents(T, Use.Task, Free.Task);
    if (SameLooper) {
      if (Options.IfGuardFilter && !FiltersShed && isGuarded(UseIdx)) {
        ++C.IfGuardFiltered;
        return false;
      }
      if (Options.IntraEventAllocFilter &&
          (Ix.allocInTaskAfter(Free.Task, Free.Var, Free.Record) ||
           Ix.allocInTaskBefore(Use.Task, Use.Var, Use.Record))) {
        ++C.IntraEventAlloc;
        return false;
      }
    }
    return true;
  };

  // Commit of one surviving pair, in scan order: static-site dedup,
  // dynamic-instance counting, Table 1 classification.
  auto commitPair = [&](uint32_t UseIdx, uint32_t FreeIdx,
                        bool SameLooper) {
    const PtrAccess &Use = Db.Uses[UseIdx];
    const PtrAccess &Free = Db.Frees[FreeIdx];
    StaticKey Key{Use.Method.value(), Use.Pc, Free.Method.value(),
                  Free.Pc};
    auto It = Dedup.find(Key);
    if (It != Dedup.end()) {
      ++Report.Races[It->second].DynamicCount;
      return;
    }
    UseFreeRace Race;
    Race.Use = Use;
    Race.Free = Free;
    if (SameLooper) {
      Race.Category = RaceCategory::IntraThread;
    } else if (Conv && !Conv->ordered(Use.Record, Free.Record)) {
      Race.Category = RaceCategory::Conventional;
    } else {
      Race.Category = RaceCategory::InterThread;
    }
    Dedup.emplace(Key, Report.Races.size());
    Report.Races.push_back(std::move(Race));
  };

  const uint32_t UE = static_cast<uint32_t>(Db.Uses.size());

  for (uint32_t UseIdx = StartUse; UseIdx != UE && !OutOfTime; ++UseIdx) {
    const PtrAccess &Use = Db.Uses[UseIdx];
    if (Use.Var.index() >= Ix.FreesByVar.size())
      continue;
    const std::vector<uint32_t> &FreeList = Ix.FreesByVar[Use.Var.index()];
    for (uint32_t J = UseIdx == StartUse ? StartFree : 0,
                  JE = static_cast<uint32_t>(FreeList.size());
         J != JE; ++J) {
      if (WantClock && ++PairsSinceCheck >= 4096) {
        PairsSinceCheck = 0;
        pollClock(UseIdx, J);
        if (OutOfTime)
          break;
      }
      bool SameLooper = false;
      if (evalPair(UseIdx, FreeList[J], SameLooper))
        commitPair(UseIdx, FreeList[J], SameLooper);
    }
  }
  if (OutOfTime) {
    Report.Partial = true;
    // "filters-shed" promotes to the harder cut; an earlier
    // "hb-deadline" keeps priority (first deadline hit wins).
    if (Report.PartialCause.empty() ||
        Report.PartialCause == "filters-shed")
      Report.PartialCause = "detect-deadline";
    if (FiltersShed && Report.PartialCause == "detect-deadline")
      Report.PartialDetail =
          "filters shed, then the extended budget expired; scan cut";
  }
  return Report;
}

RaceReport cafa::detectUseFreeRaces(const Trace &T,
                                    const DetectorOptions &Options) {
  TaskIndex Index(T);
  AccessDb Db = extractAccesses(T, Index);
  HbIndex Hb(T, Index, Options.Hb);
  return detectUseFreeRaces(T, Index, Db, Hb, Options);
}
