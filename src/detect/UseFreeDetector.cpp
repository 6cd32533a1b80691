//===- detect/UseFreeDetector.cpp - Batch reference pair scan ----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "detect/UseFreeDetector.h"

#include "detect/DetectShared.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

using namespace cafa;
// The per-pair predicates (sameLooperEvents, locksetsIntersect,
// branchGuardsUse, StaticKey, ...) are shared with the streaming scan.
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
                                    const DetectorOptions &Options) {
  RaceReport Report;
  flagHbDeadline(Report, Hb.degradation());
  DetectIndexes Ix(Db);

  // The conventional model for (b)/(c) classification, built on the
  // first inter-thread race; skipped past a happens-before deadline,
  // exactly as the streaming scan does.
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

  // The per-pair filter pipeline: everything whose verdict depends only
  // on the pair itself.  Dedup, dynamic-instance counting, and
  // classification follow in commitPair.
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
    if (Options.LocksetFilter &&
        locksetsIntersect(Use.Lockset, Free.Lockset)) {
      ++C.LocksetProtected;
      return false;
    }
    SameLooper = sameLooperEvents(T, Use.Task, Free.Task);
    if (SameLooper) {
      if (Options.IfGuardFilter && isGuarded(UseIdx)) {
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
  std::map<StaticKey, size_t> Dedup;
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

  for (uint32_t UseIdx = 0, UE = static_cast<uint32_t>(Db.Uses.size());
       UseIdx != UE; ++UseIdx) {
    const PtrAccess &Use = Db.Uses[UseIdx];
    if (Use.Var.index() >= Ix.FreesByVar.size())
      continue;
    for (uint32_t FreeIdx : Ix.FreesByVar[Use.Var.index()]) {
      bool SameLooper = false;
      if (evalPair(UseIdx, FreeIdx, SameLooper))
        commitPair(UseIdx, FreeIdx, SameLooper);
    }
  }
  return Report;
}

RaceReport cafa::detectUseFreeRaces(const Trace &T,
                                    const DetectorOptions &Options) {
  TaskIndex Index(T);
  HbIndex Hb(T, Index, Options.Hb);
  return detectUseFreeRacesWindowed(T, Index, Hb, Options,
                                    scanWindowEvents(Options.WindowEvents));
}
