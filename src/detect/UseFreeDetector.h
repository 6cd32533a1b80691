//===- detect/UseFreeDetector.h - The CAFA race detector -------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The use-free race detector of Section 4: candidate (use, free) pairs
/// on the same pointer cell that are unordered under the causality model,
/// with three suppression mechanisms -- lockset mutual exclusion (the
/// Section 3.2 stand-in for the removed unlock->lock edges), and the
/// if-guard and intra-event-allocation commutativity heuristics of
/// Section 4.3 (both applicable only between events of one looper).
/// The detector is one streaming scan (detectUseFreeRacesWindowed); the
/// batch pair scan over a materialized AccessDb is kept as its test
/// reference.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_DETECT_USEFREEDETECTOR_H
#define CAFA_DETECT_USEFREEDETECTOR_H

#include "detect/RaceReport.h"
#include "hb/HbIndex.h"

#include <functional>

namespace cafa {

/// Detector configuration (defaults reproduce the paper's tool).
struct DetectorOptions {
  /// Causality model construction.
  HbOptions Hb;
  /// Apply the if-guard commutativity heuristic.
  bool IfGuardFilter = true;
  /// Apply the intra-event-allocation commutativity heuristic.
  bool IntraEventAllocFilter = true;
  /// Suppress pairs protected by a common lock.
  bool LocksetFilter = true;
  /// Split non-(a) races into (b)/(c) by also running the conventional
  /// model (costs a second happens-before construction).
  bool Classify = true;
  /// Graceful degradation: when positive, a wall-clock budget in
  /// milliseconds for the candidate-pair scan, measured from detector
  /// entry.  The deadline is a two-rung ladder (docs/robustness.md):
  /// the first expiry sheds the lockset and if-guard filters for the
  /// rest of the scan -- cheaper per pair, strictly more races
  /// reported, never fewer -- flags the report Partial with
  /// PartialCause = "filters-shed", and extends the budget to 2x so
  /// the leaner scan can finish.  If even that expires (or no
  /// sheddable filter is enabled), the scan stops where it stands and
  /// PartialCause becomes "detect-deadline".  analyzeTrace treats
  /// DeadlineMillis as the *whole-pipeline* budget and hands the
  /// detector whatever the happens-before phase left over.  The batch
  /// reference scan ignores it.  0 = off.
  double DeadlineMillis = 0;
  /// Retirement sweep cadence of the streaming scan, in records
  /// (docs/windowed-analysis.md).  0 = auto: the CAFA_WINDOW
  /// environment variable decides, else DefaultWindowEvents.
  /// WindowOff sweeps once, at the end of the trace, regardless of the
  /// environment.  The cadence trades resident overlay memory for sweep
  /// work; it never changes a report.
  uint64_t WindowEvents = 0;
  /// Sentinel for WindowEvents: no retirement sweep before the end of
  /// the trace.
  static constexpr uint64_t WindowOff = ~0ull;
  /// The cadence an auto WindowEvents runs at: large enough that the
  /// sweep cost is noise, small enough that retained accesses turn
  /// over well before a full access table's footprint.
  static constexpr uint64_t DefaultWindowEvents = 65536;
};

/// Resolves an explicitly requested cadence with request > environment
/// (CAFA_WINDOW, a positive record count) precedence; WindowOff when
/// neither names one (including an explicit WindowOff request).
uint64_t resolveWindowEvents(uint64_t Requested);

/// The cadence the streaming scan runs at for \p Requested: the
/// resolved request, DefaultWindowEvents when none was made, and
/// WindowOff only when it was requested explicitly.
uint64_t scanWindowEvents(uint64_t Requested);

/// Frozen state of the streaming scan (WindowedScan.cpp) at a pair
/// boundary.  Races are not yet committed when the scan freezes --
/// dedup and classification run once at the end over the survivor set
/// -- so the frontier carries the surviving pairs, identified by their
/// stable use/free ordinals (positions in promotion/record order,
/// identical across processes by construction).  The retirement cadence
/// never changes which pairs are admitted at a record or their order,
/// so a frontier resumes under any cadence.
struct ScanFrontier {
  /// First record whose admitted pairs are not fully processed.
  uint32_t CursorRecord = 0;
  /// Pairs admitted at CursorRecord that were already processed (the
  /// within-record enumeration order -- retained-bucket insertion
  /// order -- is deterministic, so a count is a cursor).
  uint64_t PairsDoneAtCursor = 0;
  /// The deadline ladder's first rung had already shed the lockset and
  /// if-guard filters when this frontier was frozen; a resume continues
  /// with them shed (and the report flagged accordingly), so the
  /// resumed report equals the uninterrupted shed run's.
  bool FiltersShed = false;
  FilterCounters Filters;
  /// One surviving pair.  Records and sites ride along for validation
  /// and for rebuilding the dedup key without the access bodies.
  struct SurvivorEntry {
    uint32_t UseOrd = 0, FreeOrd = 0;
    uint32_t UseRecord = 0, FreeRecord = 0;
    uint32_t UseMethod = 0, UsePc = 0, FreeMethod = 0, FreePc = 0;
    uint8_t SameLooper = 0;
  };
  std::vector<SurvivorEntry> Survivors;
};

/// Checkpoint hooks for the streaming scan.  Save, when set, is called
/// at cadence ticks (EveryMillis of wall time since the scan started,
/// polled every ~4k pairs, like the deadline clock) and always when the
/// detect deadline cuts the scan.  Resume seeds the scan from a saved
/// frontier; the scan validates it against the trace and sets
/// ResumeAccepted, silently starting from scratch on any mismatch (a
/// stale frontier must degrade to a clean run, never a wrong report).
struct ScanCheckpointing {
  double EveryMillis = 0;
  std::function<void(const ScanFrontier &)> Save;
  const ScanFrontier *Resume = nullptr;
  bool ResumeAccepted = false;
};

/// Observability counters of one streaming scan, surfaced in the
/// analyzer's stats block and the scaling bench.
struct WindowedDetectStats {
  /// Retirement sweep cadence actually used (records).
  uint64_t WindowEvents = 0;
  /// Wall time of the counting pre-pass (pass A), in milliseconds --
  /// the scan's extraction phase.
  double PrePassMillis = 0;
  /// Peak bytes of retained (not yet retired) accesses and branches --
  /// everything the scan holds beyond the trace and the HB index,
  /// sampled at every insertion.
  size_t RetainedHighWaterBytes = 0;
  /// Extraction tallies.  The scan never materializes an AccessDb, so
  /// analyzeTrace fills its trace stats from these.
  uint64_t NumUses = 0, NumFrees = 0, NumAllocs = 0, NumBranches = 0;
  uint64_t UnmatchedReads = 0, UnmatchedDerefs = 0;
};

/// The detector: streaming detection over a *final* (post-fixpoint)
/// \p Hb.  Two extraction passes (a counting pre-pass deriving
/// retention horizons, then the scan itself), pairs evaluated as their
/// later access streams by, accesses retired once no future counterpart
/// can pair with them.  Emits a report byte-identical to the batch
/// reference detectUseFreeRaces at every cadence -- \p WindowEvents is
/// only the retirement sweep cadence (WindowOff: one sweep at the end)
/// -- while never holding the full access tables resident.  Pairs are
/// ordered by \p Hb.ordered(), the reference scan's own query, so the
/// oracle that ran the fixpoint answers them.  \p WindowEvents must be
/// a resolved cadence, not 0 (see scanWindowEvents).  \p Index is only
/// consulted for the conventional-model classification pass.
RaceReport detectUseFreeRacesWindowed(const Trace &T, const TaskIndex &Index,
                                      const HbIndex &Hb,
                                      const DetectorOptions &Options,
                                      uint64_t WindowEvents,
                                      const DerefResolver *Resolver = nullptr,
                                      WindowedDetectStats *Stats = nullptr,
                                      ScanCheckpointing *Ckpt = nullptr);

/// Runs the full CAFA pipeline on \p T: build the causality model, then
/// detect, filter and classify use-free races with the streaming scan
/// at Options.WindowEvents' cadence (deadline ladder included).
RaceReport detectUseFreeRaces(const Trace &T, const DetectorOptions &Options);

/// The batch reference scan: every (use, free) pair of a materialized
/// \p Db, use-major, against a built \p Hb.  No deadline, no
/// checkpoints -- it exists so differential tests (and the benchmark's
/// layered pipeline) can check the streaming scan against the plainest
/// rendering of Section 4.
RaceReport detectUseFreeRaces(const Trace &T, const TaskIndex &Index,
                              const AccessDb &Db, const HbIndex &Hb,
                              const DetectorOptions &Options);

/// Returns true if \p Use is proven safe by a guarded branch, per the
/// Figure 6 pc-interval rules.  Exposed for unit testing.
bool isUseIfGuarded(const Trace &T, const AccessDb &Db, const PtrAccess &Use);

} // namespace cafa

#endif // CAFA_DETECT_USEFREEDETECTOR_H
