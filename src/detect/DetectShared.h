//===- detect/DetectShared.h - Shared detector predicates ------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure per-pair predicates shared by the streaming scan
/// (WindowedScan.cpp, the detector) and the batch reference scan
/// (UseFreeDetector.cpp), and the conventional model both classify with.
/// Both scans must apply byte-identical filter logic -- the
/// differential suite pins their reports against each other -- so the
/// predicates live here exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_DETECT_DETECTSHARED_H
#define CAFA_DETECT_DETECTSHARED_H

#include "detect/Accesses.h"
#include "detect/RaceReport.h"
#include "hb/HbIndex.h"

#include <memory>
#include <tuple>
#include <vector>

namespace cafa {
namespace detail {

/// Returns true if both tasks are events processed by the same looper
/// (the scope in which the commutativity heuristics apply).
inline bool sameLooperEvents(const Trace &T, TaskId A, TaskId B) {
  const TaskInfo &IA = T.taskInfo(A);
  const TaskInfo &IB = T.taskInfo(B);
  return IA.Kind == TaskKind::Event && IB.Kind == TaskKind::Event &&
         IA.Queue.isValid() && IA.Queue == IB.Queue;
}

/// Returns true if two sorted locksets share an element.
inline bool locksetsIntersect(const std::vector<uint32_t> &A,
                              const std::vector<uint32_t> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] == B[J])
      return true;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return false;
}

/// Figure 6: returns true if a use at \p UsePc is inside the region the
/// branch proves non-null.
inline bool pcInGuardRegion(const Trace &T, const GuardBranch &Br,
                            uint32_t UsePc) {
  uint32_t CodeSize = T.methodInfo(Br.Method).CodeSize;
  if (Br.Kind == BranchKind::IfEqz) {
    // Logged when NOT taken; the fall-through path is non-null.
    if (Br.TargetPc > Br.Pc)
      return UsePc > Br.Pc && UsePc < Br.TargetPc; // forward: until target
    return UsePc > Br.Pc && UsePc < CodeSize;      // backward: to func end
  }
  // IfNez / IfEq: logged when taken; the target path is non-null.
  if (Br.TargetPc > Br.Pc)
    return UsePc >= Br.TargetPc && UsePc < CodeSize; // forward jump
  return UsePc >= Br.TargetPc && UsePc < Br.Pc;      // backward jump
}

/// Returns true if \p Br guards \p Use: same task, same frame instance,
/// same matched pointer, branch executed before the use, use pc inside
/// the non-null region.
inline bool branchGuardsUse(const Trace &T, const GuardBranch &Br,
                            const PtrAccess &Use) {
  if (Br.Task != Use.Task || Br.Frame != Use.Frame ||
      !Br.Var.isValid() || Br.Var != Use.Var)
    return false;
  if (Br.Record >= Use.Record)
    return false;
  return pcInGuardRegion(T, Br, Use.Pc);
}

/// Flags \p Report partial when the happens-before fixpoint was cut
/// short: the relation under-approximates, so extra candidates may
/// survive the ordering filter.  Everything reported is still a genuine
/// candidate.
inline void flagHbDeadline(RaceReport &Report, const HbDegradation &D) {
  if (!D.DeadlineExceeded)
    return;
  Report.Partial = true;
  Report.PartialCause = "hb-deadline";
  if (!D.UnsaturatedRules.empty()) {
    Report.PartialDetail = "unsaturated rules:";
    for (size_t I = 0; I != D.UnsaturatedRules.size(); ++I)
      Report.PartialDetail += (I ? ", " : " ") + D.UnsaturatedRules[I];
  }
}

/// Deduplication key: the static (use site, free site) pair.
struct StaticKey {
  uint32_t UseMethod, UsePc, FreeMethod, FreePc;
  bool operator<(const StaticKey &O) const {
    return std::tie(UseMethod, UsePc, FreeMethod, FreePc) <
           std::tie(O.UseMethod, O.UsePc, O.FreeMethod, O.FreePc);
  }
};

/// Table 1's thread-based baseline, for splitting inter-thread races
/// into the "conventional" and "inter-thread" categories.  The model is
/// built on the first query and BFS-backed: it answers one query per
/// first-instance inter-thread race, and every oracle answers alike, so
/// an O(N^2) closure would buy nothing.  Queries must come from one
/// thread (the BFS reuses per-query scratch).
class ConventionalOrder {
public:
  ConventionalOrder(const Trace &T, const TaskIndex &Index,
                    const HbOptions &Hb)
      : T(T), Index(Index), Opts(Hb) {
    Opts.Model = OrderingModel::Conventional;
    Opts.Reach = ReachMode::Bfs;
  }

  /// Are records \p A and \p B ordered either way under the model?
  bool ordered(uint32_t A, uint32_t B) {
    if (!Hb)
      Hb = std::make_unique<HbIndex>(T, Index, Opts);
    return Hb->ordered(A, B);
  }

private:
  const Trace &T;
  const TaskIndex &Index;
  HbOptions Opts;
  std::unique_ptr<HbIndex> Hb;
};

} // namespace detail
} // namespace cafa

#endif // CAFA_DETECT_DETECTSHARED_H
