//===- detect/WindowedScan.cpp - The streaming detector scan -----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The detector of Section 4 as one forward pass with bounded memory
// (docs/windowed-analysis.md); the batch pair scan in
// UseFreeDetector.cpp survives only as its test reference.  Two
// extraction passes over the record stream:
//
//  - Pass A (PrePassSink) counts and indexes without retaining bodies:
//    use ordinals keyed by read record, per-cell last-use/last-free
//    records (the retention horizons), per-(task, cell) alloc spans
//    (all the intra-event-alloc filter ever consults).
//
//  - Pass B (WindowScanSink) streams accesses in record order.  A pair
//    (use, free) is evaluated exactly once, at the record of its later
//    element: when a free streams by it meets the retained uses of its
//    cell, and when a promoted read streams by it meets the retained
//    frees.  Retained accesses drop at their pass-A horizon -- the
//    record after which no future counterpart can pair with them --
//    swept every WindowEvents records (the window is only the sweep
//    cadence, which is why every window size emits identical reports;
//    WindowOff never sweeps before the end of the trace).
//    Happens-before queries go to the HbIndex, exactly as in the
//    reference scan's evalPair: the oracle that ran the fixpoint answers
//    them (O(1) from committed chain clocks).
//
// Surviving pairs are tiny ordinal tuples; dedup, dynamic-instance
// counting, and (b)/(c) classification run once at the end, over the
// survivors sorted into the reference scan's (use, free) order,
// committing through the same logic -- so the two scans' reports are
// byte-identical on every complete run.
//
//===----------------------------------------------------------------------===//

#include "detect/UseFreeDetector.h"

#include "detect/DetectShared.h"
#include "support/Resolve.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace cafa;
using namespace cafa::detail;

uint64_t cafa::resolveWindowEvents(uint64_t Requested) {
  return resolveRequestEnv<uint64_t>(
      Requested, 0, "CAFA_WINDOW",
      [](const char *S) -> std::optional<uint64_t> {
        char *End = nullptr;
        unsigned long long V = std::strtoull(S, &End, 10);
        if (End == S || *End != '\0' || V == 0)
          return std::nullopt;
        return static_cast<uint64_t>(V);
      },
      [] { return DetectorOptions::WindowOff; });
}

uint64_t cafa::scanWindowEvents(uint64_t Requested) {
  uint64_t Window = resolveWindowEvents(Requested);
  if (Window == DetectorOptions::WindowOff &&
      Requested != DetectorOptions::WindowOff)
    return DetectorOptions::DefaultWindowEvents;
  return Window;
}

namespace {

uint64_t taskVarKey(TaskId Task, VarId Var) {
  return (static_cast<uint64_t>(Task.value()) << 32) | Var.value();
}

/// Pass A: derives every per-cell and per-task horizon the streaming
/// scan needs, without retaining any access body.
class PrePassSink final : public AccessSink {
public:
  struct UsePromo {
    uint32_t Ordinal = 0;
    uint32_t DerefRecord = 0;
  };

  /// read record -> promotion (only promoted reads become uses).
  std::unordered_map<uint32_t, UsePromo> PromoByReadRecord;
  /// use ordinal -> read record / free ordinal -> free record (resume
  /// validation and stable identity).
  std::vector<uint32_t> UseRecordByOrd;
  std::vector<uint32_t> FreeRecordByOrd;
  /// Per cell: last promoted-read record / last free record (0 when
  /// none -- a record-0 access yields the same horizon arithmetic).
  std::vector<uint32_t> LastUseReadByVar;
  std::vector<uint32_t> LastFreeByVar;
  std::vector<uint8_t> HasUseByVar;
  std::vector<uint8_t> HasFreeByVar;
  /// (task, cell) -> [first, last] alloc record: everything
  /// allocInTaskBefore/After ever ask.
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> AllocSpans;
  uint64_t NumAllocs = 0;
  uint64_t NumBranches = 0;

  void onUse(PtrAccess Use, size_t Ordinal) override {
    assert(Ordinal == UseRecordByOrd.size() && "promotion order broken");
    PromoByReadRecord.emplace(
        Use.Record,
        UsePromo{static_cast<uint32_t>(Ordinal), Use.DerefRecord});
    UseRecordByOrd.push_back(Use.Record);
    uint32_t V = Use.Var.index();
    growVar(V);
    LastUseReadByVar[V] = std::max(LastUseReadByVar[V], Use.Record);
    HasUseByVar[V] = 1;
  }

  void onFree(PtrAccess Free) override {
    FreeRecordByOrd.push_back(Free.Record);
    uint32_t V = Free.Var.index();
    growVar(V);
    LastFreeByVar[V] = std::max(LastFreeByVar[V], Free.Record);
    HasFreeByVar[V] = 1;
  }

  void onAlloc(PtrAccess Alloc) override {
    ++NumAllocs;
    auto [It, New] = AllocSpans.try_emplace(
        taskVarKey(Alloc.Task, Alloc.Var),
        std::make_pair(Alloc.Record, Alloc.Record));
    if (!New) {
      It->second.first = std::min(It->second.first, Alloc.Record);
      It->second.second = std::max(It->second.second, Alloc.Record);
    }
  }

  void onBranch(GuardBranch Br) override {
    (void)Br;
    ++NumBranches;
  }

  bool allocInTaskAfter(TaskId Task, VarId Var, uint32_t Record) const {
    auto It = AllocSpans.find(taskVarKey(Task, Var));
    return It != AllocSpans.end() && It->second.second > Record;
  }
  bool allocInTaskBefore(TaskId Task, VarId Var, uint32_t Record) const {
    auto It = AllocSpans.find(taskVarKey(Task, Var));
    return It != AllocSpans.end() && It->second.first < Record;
  }

  bool hasUse(uint32_t V) const {
    return V < HasUseByVar.size() && HasUseByVar[V];
  }
  bool hasFree(uint32_t V) const {
    return V < HasFreeByVar.size() && HasFreeByVar[V];
  }

private:
  void growVar(uint32_t V) {
    if (V >= LastUseReadByVar.size()) {
      LastUseReadByVar.resize(V + 1, 0);
      LastFreeByVar.resize(V + 1, 0);
      HasUseByVar.resize(V + 1, 0);
      HasFreeByVar.resize(V + 1, 0);
    }
  }
};

/// One retained use: body plus ordinal plus the memoized if-guard
/// verdict (-1 unknown).
struct RetUse {
  PtrAccess A;
  uint32_t Ord = 0;
  int8_t GuardMemo = -1;
};

struct RetFree {
  PtrAccess A;
  uint32_t Ord = 0;
};

/// Everything retained for one pointer cell, dropped kind-by-kind as
/// the sweep passes each kind's horizon.
struct VarBucket {
  std::vector<RetUse> Uses;
  std::vector<RetFree> Frees;
  /// frame id -> branches of this cell in that frame (record order).
  std::unordered_map<uint64_t, std::vector<GuardBranch>> BranchesByFrame;
  size_t UseBytes = 0, FreeBytes = 0, BranchBytes = 0;

  bool empty() const {
    return Uses.empty() && Frees.empty() && BranchesByFrame.empty();
  }
};

/// First dynamic instance per static site pair, maintained online so
/// the commit phase has the access bodies without retaining one per
/// survivor.
struct MinInst {
  uint32_t UseOrd = ~0u, FreeOrd = ~0u;
  PtrAccess Use, Free;
  bool HasBodies = false;
};

/// Pass B: the streaming scan itself.
class WindowScanSink final : public AccessSink {
public:
  WindowScanSink(const Trace &T, const DetectorOptions &Options,
                 const PrePassSink &Pre, const HbIndex &Hb,
                 RaceReport &Report, uint64_t Window,
                 ScanCheckpointing *Ckpt)
      : T(T), Options(Options), Pre(Pre), Hb(Hb), Report(Report),
        Window(Window), Ckpt(Ckpt),
        CanShed(Options.LocksetFilter || Options.IfGuardFilter) {
    NextSweepRecord = static_cast<uint64_t>(Window);
    DeadlineLimit = Options.DeadlineMillis;
    buildSweepSchedule();
    WantClock = Options.DeadlineMillis > 0 ||
                (Ckpt && Ckpt->Save && Ckpt->EveryMillis > 0);
  }

  // Scan results, read by the driver after streamAccesses returns.
  std::vector<ScanFrontier::SurvivorEntry> Survivors;
  std::map<StaticKey, MinInst> MinInstances;
  bool FiltersShed = false;
  bool OutOfTime = false;
  size_t RetainedHighWaterBytes = 0;

  // Resume state, seeded by the driver before the scan.
  uint32_t ResumeCursor = 0;
  uint64_t ResumeSkip = 0;
  std::unordered_set<uint32_t> NeededUseOrds, NeededFreeOrds;
  std::unordered_map<uint32_t, PtrAccess> CapturedUses, CapturedFrees;

  void markShed() {
    FiltersShed = true;
    DeadlineLimit = Options.DeadlineMillis * 2;
    Report.Partial = true;
    if (Report.PartialCause.empty())
      Report.PartialCause = "filters-shed";
    if (Report.PartialDetail.empty())
      Report.PartialDetail =
          "lockset and if-guard filters shed mid-scan; extra races "
          "possible, none missing from the scanned region";
  }

  void onPtrRead(uint32_t Record, TaskId Task, VarId Var, MethodId Method,
                 uint32_t Pc, uint64_t Frame,
                 const std::vector<uint32_t> &SortedLockset) override {
    auto It = Pre.PromoByReadRecord.find(Record);
    if (It == Pre.PromoByReadRecord.end())
      return; // this read is never dereferenced: not a use
    const uint32_t Ord = It->second.Ordinal;
    const uint32_t V = Var.index();

    PtrAccess Use;
    Use.Record = Record;
    Use.Task = Task;
    Use.Var = Var;
    Use.Method = Method;
    Use.Pc = Pc;
    Use.Frame = Frame;
    Use.DerefRecord = It->second.DerefRecord;
    Use.Lockset = SortedLockset;

    if (!NeededUseOrds.empty() && NeededUseOrds.count(Ord))
      CapturedUses.emplace(Ord, Use);

    if (!Pre.hasFree(V))
      return; // the cell is never freed: no pairs, ever

    int8_t Memo = -1;
    auto BIt = Buckets.find(V);
    if (BIt != Buckets.end()) {
      // Pairs whose later element is this use, against every earlier
      // free of the cell (all still retained: the free sub-bucket's
      // horizon is the cell's last promoted read, i.e. >= Record).
      for (const RetFree &F : BIt->second.Frees) {
        handlePair(Use, Ord, Memo, F.A, F.Ord, Record);
        if (OutOfTime)
          return;
      }
    }
    if (Pre.LastFreeByVar[V] > Record) {
      // Future frees of this cell exist: retain the use until the last
      // of them has streamed by.
      VarBucket &B = Buckets[V];
      size_t Bytes = sizeof(RetUse) + Use.Lockset.capacity() * sizeof(uint32_t);
      B.UseBytes += Bytes;
      RetainedBytes += Bytes;
      B.Uses.push_back(RetUse{std::move(Use), Ord, Memo});
      noteRetained();
    }
  }

  void onFree(PtrAccess Free) override {
    const uint32_t Ord = NextFreeOrd++;
    const uint32_t V = Free.Var.index();
    if (!NeededFreeOrds.empty() && NeededFreeOrds.count(Ord))
      CapturedFrees.emplace(Ord, Free);
    if (!Pre.hasUse(V))
      return; // the cell is never used: no pairs, ever

    auto BIt = Buckets.find(V);
    if (BIt != Buckets.end()) {
      // Pairs whose later element is this free, against every retained
      // earlier use of the cell.
      for (RetUse &U : BIt->second.Uses) {
        handlePair(U.A, U.Ord, U.GuardMemo, Free, Ord, Free.Record);
        if (OutOfTime)
          return;
      }
    }
    if (Pre.LastUseReadByVar[V] > Free.Record) {
      VarBucket &B = Buckets[V];
      size_t Bytes =
          sizeof(RetFree) + Free.Lockset.capacity() * sizeof(uint32_t);
      B.FreeBytes += Bytes;
      RetainedBytes += Bytes;
      B.Frees.push_back(RetFree{std::move(Free), Ord});
      noteRetained();
    }
  }

  void onBranch(GuardBranch Br) override {
    if (!Br.Var.isValid())
      return; // unmatched branches never guard anything
    const uint32_t V = Br.Var.index();
    if (!Pre.hasUse(V) || !Pre.hasFree(V))
      return; // no pairs on this cell: isGuarded is never consulted
    if (Br.Record >= Pre.LastUseReadByVar[V])
      return; // guards only reads after it; none are coming
    VarBucket &B = Buckets[V];
    B.BranchBytes += sizeof(GuardBranch);
    RetainedBytes += sizeof(GuardBranch);
    B.BranchesByFrame[Br.Frame].push_back(std::move(Br));
    noteRetained();
  }

  bool onRecordDone(uint32_t Record) override {
    PairsDoneThisRecord = 0;
    if (static_cast<uint64_t>(Record) >= NextSweepRecord) {
      NextSweepRecord = static_cast<uint64_t>(Record) + Window;
      if (!OutOfTime)
        sweep(Record);
    }
    return !OutOfTime;
  }

  /// Snapshot at the next unprocessed pair of \p Record.
  ScanFrontier freeze(uint32_t Record, uint64_t Done) const {
    ScanFrontier F;
    F.CursorRecord = Record;
    F.PairsDoneAtCursor = Done;
    F.FiltersShed = FiltersShed;
    F.Filters = Report.Filters;
    F.Survivors = Survivors;
    return F;
  }

private:
  void buildSweepSchedule() {
    for (uint32_t V = 0,
                  E = static_cast<uint32_t>(Pre.LastUseReadByVar.size());
         V != E; ++V) {
      if (!Pre.HasUseByVar[V] || !Pre.HasFreeByVar[V])
        continue; // nothing of this cell is ever retained
      uint32_t LastUse = Pre.LastUseReadByVar[V];
      uint32_t LastFree = Pre.LastFreeByVar[V];
      // Frees serve use-reads up to the last one; uses serve frees up
      // to the last one; branches serve if-guard checks at any pair
      // admission, bounded by the later of the two.
      Schedule.push_back({LastUse, V, KindFrees});
      Schedule.push_back({LastFree, V, KindUses});
      Schedule.push_back({std::max(LastUse, LastFree), V, KindBranches});
    }
    std::sort(Schedule.begin(), Schedule.end(),
              [](const SweepEntry &A, const SweepEntry &B) {
                return std::tie(A.Horizon, A.Var, A.Kind) <
                       std::tie(B.Horizon, B.Var, B.Kind);
              });
  }

  void sweep(uint32_t Record) {
    while (SweepPtr < Schedule.size() &&
           Schedule[SweepPtr].Horizon <= Record) {
      const SweepEntry &E = Schedule[SweepPtr++];
      auto It = Buckets.find(E.Var);
      if (It == Buckets.end())
        continue;
      VarBucket &B = It->second;
      switch (E.Kind) {
      case KindFrees:
        RetainedBytes -= B.FreeBytes;
        B.FreeBytes = 0;
        B.Frees.clear();
        B.Frees.shrink_to_fit();
        break;
      case KindUses:
        RetainedBytes -= B.UseBytes;
        B.UseBytes = 0;
        B.Uses.clear();
        B.Uses.shrink_to_fit();
        break;
      case KindBranches:
        RetainedBytes -= B.BranchBytes;
        B.BranchBytes = 0;
        B.BranchesByFrame.clear();
        break;
      }
      if (B.empty())
        Buckets.erase(It);
    }
  }

  void noteRetained() {
    RetainedHighWaterBytes = std::max(RetainedHighWaterBytes, RetainedBytes);
  }

  bool isGuarded(const PtrAccess &Use, int8_t &Memo) {
    if (Memo >= 0)
      return Memo != 0;
    bool Guarded = false;
    auto BIt = Buckets.find(Use.Var.index());
    if (BIt != Buckets.end()) {
      auto FIt = BIt->second.BranchesByFrame.find(Use.Frame);
      if (FIt != BIt->second.BranchesByFrame.end()) {
        for (const GuardBranch &Br : FIt->second) {
          if (branchGuardsUse(T, Br, Use)) {
            Guarded = true;
            break;
          }
        }
      }
    }
    Memo = Guarded ? 1 : 0;
    return Guarded;
  }

  void pollClock(uint32_t Record, uint64_t Done) {
    double Elapsed = Clock.elapsedWallMillis();
    if (Options.DeadlineMillis > 0 && Elapsed > DeadlineLimit) {
      if (!FiltersShed && CanShed) {
        markShed();
        return;
      }
      if (Ckpt && Ckpt->Save)
        Ckpt->Save(freeze(Record, Done));
      OutOfTime = true;
      return;
    }
    if (Ckpt && Ckpt->Save && Ckpt->EveryMillis > 0 &&
        Elapsed - LastSaveMs >= Ckpt->EveryMillis) {
      LastSaveMs = Elapsed;
      Ckpt->Save(freeze(Record, Done));
    }
  }

  /// Evaluates one (use, free) pair at its admission record -- the
  /// same filter pipeline, in the same order, as the reference scan's
  /// evalPair.
  void handlePair(const PtrAccess &Use, uint32_t UseOrd, int8_t &Memo,
                  const PtrAccess &Free, uint32_t FreeOrd,
                  uint32_t AdmitRecord) {
    if (OutOfTime)
      return;
    // Resume replay: pairs admitted before the frozen cursor (and the
    // first PairsDoneAtCursor pairs at it) are already reflected in the
    // restored counters and survivors.
    if (AdmitRecord < ResumeCursor ||
        (AdmitRecord == ResumeCursor && PairsDoneThisRecord < ResumeSkip)) {
      ++PairsDoneThisRecord;
      return;
    }
    if (WantClock && ++PairsSinceCheck >= 4096) {
      PairsSinceCheck = 0;
      pollClock(AdmitRecord, PairsDoneThisRecord);
      if (OutOfTime)
        return;
    }
    ++PairsDoneThisRecord;

    FilterCounters &C = Report.Filters;
    ++C.CandidatePairs;
    if (Use.Task == Free.Task) {
      ++C.SameTask;
      return;
    }
    if (Hb.ordered(Use.Record, Free.Record)) {
      ++C.OrderedByHb;
      return;
    }
    if (Options.LocksetFilter && !FiltersShed &&
        locksetsIntersect(Use.Lockset, Free.Lockset)) {
      ++C.LocksetProtected;
      return;
    }
    bool SameLooper = sameLooperEvents(T, Use.Task, Free.Task);
    if (SameLooper) {
      if (Options.IfGuardFilter && !FiltersShed && isGuarded(Use, Memo)) {
        ++C.IfGuardFiltered;
        return;
      }
      if (Options.IntraEventAllocFilter &&
          (Pre.allocInTaskAfter(Free.Task, Free.Var, Free.Record) ||
           Pre.allocInTaskBefore(Use.Task, Use.Var, Use.Record))) {
        ++C.IntraEventAlloc;
        return;
      }
    }

    Survivors.push_back({UseOrd, FreeOrd, Use.Record, Free.Record,
                         Use.Method.value(), Use.Pc, Free.Method.value(),
                         Free.Pc, static_cast<uint8_t>(SameLooper)});
    StaticKey Key{Use.Method.value(), Use.Pc, Free.Method.value(), Free.Pc};
    MinInst &M = MinInstances[Key];
    if (std::make_pair(UseOrd, FreeOrd) < std::make_pair(M.UseOrd, M.FreeOrd)) {
      M.UseOrd = UseOrd;
      M.FreeOrd = FreeOrd;
      M.Use = Use;
      M.Free = Free;
      M.HasBodies = true;
    }
  }

  enum Kind : uint8_t { KindFrees = 0, KindUses = 1, KindBranches = 2 };
  struct SweepEntry {
    uint32_t Horizon;
    uint32_t Var;
    uint8_t Kind;
  };

  const Trace &T;
  const DetectorOptions &Options;
  const PrePassSink &Pre;
  const HbIndex &Hb;
  RaceReport &Report;
  const uint64_t Window;
  ScanCheckpointing *Ckpt;
  const bool CanShed;

  std::unordered_map<uint32_t, VarBucket> Buckets;
  std::vector<SweepEntry> Schedule;
  size_t SweepPtr = 0;
  uint64_t NextSweepRecord = 0;
  size_t RetainedBytes = 0;
  uint32_t NextFreeOrd = 0;
  uint64_t PairsDoneThisRecord = 0;

  Timer Clock;
  bool WantClock = false;
  double DeadlineLimit = 0;
  double LastSaveMs = 0;
  uint64_t PairsSinceCheck = 0;
};

/// Fallback body capture for the rare resume-then-cut-again corner: a
/// restored survivor's first instance may stream after the new cut, so
/// its body was never captured.  One targeted pass fills the gaps and
/// stops as soon as everything is in hand.
class CaptureSink final : public AccessSink {
public:
  CaptureSink(const PrePassSink &Pre,
              const std::unordered_set<uint32_t> &WantUses,
              const std::unordered_set<uint32_t> &WantFrees,
              std::unordered_map<uint32_t, PtrAccess> &Uses,
              std::unordered_map<uint32_t, PtrAccess> &Frees)
      : Pre(Pre), WantUses(WantUses), WantFrees(WantFrees), Uses(Uses),
        Frees(Frees), Remaining(WantUses.size() + WantFrees.size()) {}

  void onPtrRead(uint32_t Record, TaskId Task, VarId Var, MethodId Method,
                 uint32_t Pc, uint64_t Frame,
                 const std::vector<uint32_t> &SortedLockset) override {
    auto It = Pre.PromoByReadRecord.find(Record);
    if (It == Pre.PromoByReadRecord.end())
      return;
    uint32_t Ord = It->second.Ordinal;
    if (!WantUses.count(Ord) || Uses.count(Ord))
      return;
    PtrAccess Use;
    Use.Record = Record;
    Use.Task = Task;
    Use.Var = Var;
    Use.Method = Method;
    Use.Pc = Pc;
    Use.Frame = Frame;
    Use.DerefRecord = It->second.DerefRecord;
    Use.Lockset = SortedLockset;
    Uses.emplace(Ord, std::move(Use));
    --Remaining;
  }

  void onFree(PtrAccess Free) override {
    uint32_t Ord = NextFreeOrd++;
    if (WantFrees.count(Ord) && !Frees.count(Ord)) {
      Frees.emplace(Ord, std::move(Free));
      --Remaining;
    }
  }

  bool onRecordDone(uint32_t) override { return Remaining > 0; }

private:
  const PrePassSink &Pre;
  const std::unordered_set<uint32_t> &WantUses;
  const std::unordered_set<uint32_t> &WantFrees;
  std::unordered_map<uint32_t, PtrAccess> &Uses;
  std::unordered_map<uint32_t, PtrAccess> &Frees;
  uint32_t NextFreeOrd = 0;
  size_t Remaining = 0;
};

} // namespace

RaceReport cafa::detectUseFreeRacesWindowed(
    const Trace &T, const TaskIndex &Index, const HbIndex &Hb,
    const DetectorOptions &Options, uint64_t WindowEvents,
    const DerefResolver *Resolver, WindowedDetectStats *Stats,
    ScanCheckpointing *Ckpt) {
  assert(WindowEvents != 0 && "callers resolve the window first");
  RaceReport Report;
  // A cut fixpoint under-approximates the relation, so the report is
  // provisional.
  flagHbDeadline(Report, Hb.degradation());
  // Whether classification will run: decided at entry, before the
  // deadline ladder can touch the report; the model itself builds on
  // first inter-thread race of the commit phase, so the scan runs
  // with the retained accesses and the HB index alone resident.
  std::optional<ConventionalOrder> Conv;
  if (Options.Classify && !Report.Partial)
    Conv.emplace(T, Index, Options.Hb);

  // Pass A: horizons and ordinals, no bodies.
  Timer PrePass;
  PrePassSink Pre;
  StreamExtractCounts Counts = streamAccesses(T, Resolver, Pre);
  double PrePassMillis = PrePass.elapsedWallMillis();

  WindowScanSink Scan(T, Options, Pre, Hb, Report, WindowEvents, Ckpt);

  // Resume: validate the frontier's survivors against the pass-A
  // ordinals; any mismatch silently degrades to a full scan.
  if (Ckpt && Ckpt->Resume) {
    const ScanFrontier &R = *Ckpt->Resume;
    bool Ok = R.CursorRecord <= T.numRecords();
    for (const ScanFrontier::SurvivorEntry &S : R.Survivors) {
      if (S.UseOrd >= Pre.UseRecordByOrd.size() ||
          Pre.UseRecordByOrd[S.UseOrd] != S.UseRecord ||
          S.FreeOrd >= Pre.FreeRecordByOrd.size() ||
          Pre.FreeRecordByOrd[S.FreeOrd] != S.FreeRecord) {
        Ok = false;
        break;
      }
    }
    if (Ok) {
      Scan.ResumeCursor = R.CursorRecord;
      Scan.ResumeSkip = R.PairsDoneAtCursor;
      Scan.Survivors = R.Survivors;
      Report.Filters = R.Filters;
      if (R.FiltersShed)
        Scan.markShed();
      // Seed the per-key first instances; their bodies stream by
      // during the replay and are captured by ordinal.
      for (const ScanFrontier::SurvivorEntry &S : R.Survivors) {
        StaticKey Key{S.UseMethod, S.UsePc, S.FreeMethod, S.FreePc};
        MinInst &M = Scan.MinInstances[Key];
        if (std::make_pair(S.UseOrd, S.FreeOrd) <
            std::make_pair(M.UseOrd, M.FreeOrd)) {
          M.UseOrd = S.UseOrd;
          M.FreeOrd = S.FreeOrd;
          M.HasBodies = false;
        }
      }
      for (const auto &[Key, M] : Scan.MinInstances) {
        (void)Key;
        Scan.NeededUseOrds.insert(M.UseOrd);
        Scan.NeededFreeOrds.insert(M.FreeOrd);
      }
      Ckpt->ResumeAccepted = true;
    }
  }

  // Pass B: the scan.
  streamAccesses(T, Resolver, Scan);

  if (Scan.OutOfTime) {
    Report.Partial = true;
    if (Report.PartialCause.empty() ||
        Report.PartialCause == "filters-shed")
      Report.PartialCause = "detect-deadline";
    if (Scan.FiltersShed && Report.PartialCause == "detect-deadline")
      Report.PartialDetail =
          "filters shed, then the extended budget expired; scan cut";
  }

  // Fill any first-instance bodies the replay captured; chase the rare
  // stragglers (resumed survivors cut off again before their records)
  // with one targeted pass.
  {
    std::unordered_set<uint32_t> MissUses, MissFrees;
    for (auto &[Key, M] : Scan.MinInstances) {
      (void)Key;
      if (M.HasBodies)
        continue;
      if (!Scan.CapturedUses.count(M.UseOrd))
        MissUses.insert(M.UseOrd);
      if (!Scan.CapturedFrees.count(M.FreeOrd))
        MissFrees.insert(M.FreeOrd);
    }
    if (!MissUses.empty() || !MissFrees.empty()) {
      CaptureSink Capture(Pre, MissUses, MissFrees, Scan.CapturedUses,
                          Scan.CapturedFrees);
      streamAccesses(T, Resolver, Capture);
    }
    for (auto &[Key, M] : Scan.MinInstances) {
      (void)Key;
      if (M.HasBodies)
        continue;
      M.Use = Scan.CapturedUses.at(M.UseOrd);
      M.Free = Scan.CapturedFrees.at(M.FreeOrd);
      M.HasBodies = true;
    }
  }

  // Commit: sort the survivors into the reference scan's order (use-major
  // by promotion ordinal, frees in record order within) and replay the
  // reference commit -- dedup, dynamic counting, Table 1 classification.
  std::sort(Scan.Survivors.begin(), Scan.Survivors.end(),
            [](const ScanFrontier::SurvivorEntry &A,
               const ScanFrontier::SurvivorEntry &B) {
              return std::tie(A.UseOrd, A.FreeOrd) <
                     std::tie(B.UseOrd, B.FreeOrd);
            });
  std::map<StaticKey, size_t> Dedup;
  for (const ScanFrontier::SurvivorEntry &S : Scan.Survivors) {
    StaticKey Key{S.UseMethod, S.UsePc, S.FreeMethod, S.FreePc};
    auto It = Dedup.find(Key);
    if (It != Dedup.end()) {
      ++Report.Races[It->second].DynamicCount;
      continue;
    }
    const MinInst &M = Scan.MinInstances.at(Key);
    assert(M.UseOrd == S.UseOrd && M.FreeOrd == S.FreeOrd &&
           "sorted first survivor is the per-key minimum");
    UseFreeRace Race;
    Race.Use = M.Use;
    Race.Free = M.Free;
    if (S.SameLooper) {
      Race.Category = RaceCategory::IntraThread;
    } else {
      Race.Category = Conv && !Conv->ordered(S.UseRecord, S.FreeRecord)
                          ? RaceCategory::Conventional
                          : RaceCategory::InterThread;
    }
    Dedup.emplace(Key, Report.Races.size());
    Report.Races.push_back(std::move(Race));
  }

  if (Stats) {
    Stats->WindowEvents = WindowEvents;
    Stats->PrePassMillis = PrePassMillis;
    Stats->RetainedHighWaterBytes = Scan.RetainedHighWaterBytes;
    Stats->NumUses = Pre.UseRecordByOrd.size();
    Stats->NumFrees = Pre.FreeRecordByOrd.size();
    Stats->NumAllocs = Pre.NumAllocs;
    Stats->NumBranches = Pre.NumBranches;
    Stats->UnmatchedReads = Counts.UnmatchedReads;
    Stats->UnmatchedDerefs = Counts.UnmatchedDerefs;
  }
  return Report;
}
