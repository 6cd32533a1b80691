//===- hb/HbIndex.h - The CAFA causality model ------------------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the happens-before relation for a trace under either
/// the CAFA causality model (Section 3.3) or the conventional
/// thread-based model Table 1 compares against.
///
/// CAFA rules implemented:
///  - program order within each task (but *not* across events of a
///    looper thread);
///  - fork/join and notify/wait;
///  - event listener: register(t,l) before perform(e,l);
///  - send: send(t,e,d) / sendAtFront(t,e) before begin(e);
///  - external input: externally generated events are chained;
///  - Binder IPC: ipc-send(txn) before ipc-recv(txn);
///  - atomicity: same-looper events e1,e2 with begin(e1) < end(e2) are
///    fully ordered end(e1) < begin(e2);
///  - event queue rules 1-4 over ordered sends (delay comparison,
///    sendAtFront both directions).
/// The last two are applied to a fixpoint because they consume the
/// relation they extend.  Locks contribute no edges in either model (the
/// predictive relaxation of Section 3.1); locksets are checked at
/// detection time instead.
///
/// The conventional model replaces all event-aware rules with a total
/// order over each looper's events in observed execution order.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_HB_HBINDEX_H
#define CAFA_HB_HBINDEX_H

#include "hb/HbGraph.h"
#include "hb/Reachability.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cafa {

/// Which causality model to build.
enum class OrderingModel : uint8_t {
  /// The paper's event-aware model.
  Cafa,
  /// Thread-based baseline: every looper's events totally ordered, no
  /// event-queue/atomicity/listener/external rules.
  Conventional,
};

/// Build-time options (rule toggles exist for the ablation benchmarks).
/// ReachMode (the reachability oracle selection) lives in Reachability.h.
struct HbOptions {
  OrderingModel Model = OrderingModel::Cafa;
  /// Reachability oracle request.  Auto resolves through the CAFA_REACH
  /// environment variable (request > env > Chain, mirroring the thread
  /// knobs' 0 = auto convention; see resolveReachMode).  Tests that
  /// assert mode-specific ladder behavior pin an explicit mode so an
  /// env-forced run cannot skew them.
  ReachMode Reach = ReachMode::Auto;
  bool EnableAtomicityRule = true;
  bool EnableQueueRules = true;
  bool EnableListenerRule = true;
  bool EnableExternalInputRule = true;
  /// Cap on fixpoint rounds.  Rounds are edge-capped (see
  /// HbIndex.cpp::applyDerivedRules), so long send chains legitimately
  /// take several rounds; the cap guards against bugs, not inputs.
  uint32_t MaxFixpointRounds = 64;
  /// Graceful degradation, memory rung: when nonzero, the requested
  /// oracle is built under this many bytes (see makeReachability's
  /// BudgetBytes); the chain oracle then skips its bootstrap rows or
  /// its clocks as needed, and if even its linear structures overrun,
  /// the build falls to the Bfs floor.  The oracles answer queries
  /// identically, so this changes build time and memory but never the
  /// resulting reports.  0 = off.
  size_t MemLimitBytes = 0;
  /// Graceful degradation, time rung: when positive, the derived-rule
  /// fixpoint stops starting new rounds once this much wall time (ms)
  /// has elapsed since construction began.  The relation is then an
  /// under-approximation -- missing HB edges can only *add* race
  /// candidates, never hide one -- and degradation().DeadlineExceeded
  /// is set so downstream reports get flagged partial.  0 = off.
  double DeadlineMillis = 0;
};

/// What the graceful-degradation ladder actually did while building one
/// HbIndex (see HbOptions::MemLimitBytes / DeadlineMillis).
struct HbDegradation {
  /// The oracle the caller asked for.
  ReachMode RequestedReach = ReachMode::Chain;
  /// The oracle actually built (== RequestedReach unless downgraded).
  ReachMode UsedReach = ReachMode::Chain;
  /// UsedReach fell to the Bfs floor to fit MemLimitBytes.
  bool DowngradedForMemory = false;
  /// The chain oracle's clocks were live when the fixpoint ended.  A
  /// chain run that never commits answered every query from bootstrap
  /// rows or a pruned search, which explains a slow build.
  bool ClocksCommitted = false;
  /// DeadlineMillis expired before the fixpoint converged; the relation
  /// under-approximates and reports derived from it are partial.
  bool DeadlineExceeded = false;
  /// Measured footprint of the oracle actually kept, in bytes, after
  /// the fixpoint.
  size_t MeasuredReachBytes = 0;
  /// Chains in the oracle's final decomposition (0 unless UsedReach is
  /// Chain).  Informational, for the scaling benches' chain statistics.
  size_t ChainCount = 0;
  /// Rule families a blown deadline left short of their fixpoint
  /// ("atomicity", "event-queue").  Empty when the fixpoint saturated.
  /// Downstream reporting uses this to say *which* orderings may be
  /// missing, and checkpoints carry it so a resumed run can label races
  /// that only existed because of the missing edges.
  std::vector<std::string> UnsaturatedRules;

  bool degraded() const { return DowngradedForMemory || DeadlineExceeded; }
};

/// Edge counts per rule, for tests and reporting.
struct HbRuleStats {
  uint64_t ProgramOrderEdges = 0;
  uint64_t ForkJoinEdges = 0;
  uint64_t NotifyWaitEdges = 0;
  uint64_t ListenerEdges = 0;
  uint64_t SendEdges = 0;
  uint64_t ExternalChainEdges = 0;
  uint64_t IpcEdges = 0;
  uint64_t AtomicityEdges = 0;
  uint64_t QueueRule1Edges = 0;
  uint64_t QueueRule2Edges = 0;
  uint64_t QueueRule3Edges = 0;
  uint64_t QueueRule4Edges = 0;
  uint64_t ConventionalOrderEdges = 0;
  uint32_t FixpointRounds = 0;
};

/// Wall time of one derived-rule fixpoint round, by phase.
struct HbRoundTiming {
  /// Atomicity premise scans over every queue's events.
  double AtomicityMillis = 0;
  /// Event-queue rule (1-4) scans over every queue's sends.
  double QueueMillis = 0;
  /// Committing the round's edges: graph insertion and oracle update.
  double UpdateMillis = 0;
};

/// Where one HbIndex construction spent its time, beyond the total the
/// caller measures: the oracle's initial build, then every fixpoint
/// round this construction ran (a resumed build lists only its own).
struct HbTimings {
  double OracleInitMillis = 0;
  std::vector<HbRoundTiming> Rounds;
};

/// Scan-frontier position of one queue's gap-diagonal pair scan: every
/// pair lexicographically below (Gap, I) has been evaluated at least
/// once, and only pairs at or past it may be cut by the per-round edge
/// cap.  Gap >= the queue's element count means "fully scanned".
struct HbScanCursor {
  uint32_t Gap = 2;
  uint32_t I = 0;
};

/// Everything needed to freeze the derived-rule fixpoint at a round
/// boundary and restore it in another process.  Rounds are never cut
/// mid-scan (the deadline is checked before each round and the per-round
/// edge cap only moves the scan cursors), so a round boundary is always
/// a consistent frontier: the graph holds base + DerivedEdges and the
/// cursors say which pairs were already evaluated.
///
/// The frontier carries the derivation only, never oracle state: the
/// reachability oracle (closure rows or chain clocks) is a pure function
/// of the graph's edges, so resuming replays DerivedEdges onto a freshly
/// built base graph, rebuilds the oracle through the normal ladder,
/// restores the cursors, and continues the fixpoint.  The closure is the
/// unique least fixpoint of monotone rules and the scans are
/// deterministic, so the resumed run converges to the same relation --
/// and therefore the same reports -- as an uninterrupted one, under any
/// oracle.
struct HbFrontier {
  /// Oracle in use when the frontier was taken.  Informational: a resume
  /// rebuilds its own oracle from the replayed edges, under whatever
  /// mode it was asked for.  Snapshots taken before the closure modes
  /// merged may record the reserved Incremental.
  ReachMode UsedReach = ReachMode::Chain;
  /// Fixpoint rounds completed at the freeze point.
  uint32_t RoundsDone = 0;
  /// The fixpoint converged; a resume can skip rule evaluation entirely.
  bool Saturated = false;
  /// Rule-edge counters at the freeze point (base counters included).
  HbRuleStats Stats;
  /// Every derived edge inserted so far, in insertion order.
  std::vector<HbEdge> DerivedEdges;
  /// Per-queue scan frontiers for the atomicity / event-queue scans.
  std::vector<HbScanCursor> AtomCursors;
  std::vector<HbScanCursor> SendCursors;
  /// Rule families still short of their fixpoint (mirrors
  /// HbDegradation::UnsaturatedRules at the freeze point).
  std::vector<std::string> UnsaturatedRules;
};

/// Checkpoint hooks for HbIndex construction.  All fields optional:
/// Save, when set, is called with a consistent frontier at every cadence
/// tick (EveryMillis of wall time since the build started) and always
/// when the deadline rung cuts the fixpoint; Resume, when set, seeds
/// construction from a previously saved frontier instead of starting
/// the fixpoint from round zero.
struct HbCheckpointing {
  double EveryMillis = 0;
  std::function<void(const HbFrontier &)> Save;
  const HbFrontier *Resume = nullptr;
};

/// The built happens-before relation, queryable at record granularity.
class HbIndex {
public:
  HbIndex(const Trace &T, const TaskIndex &Index, const HbOptions &Options,
          const HbCheckpointing *Checkpoint = nullptr);
  ~HbIndex();

  HbIndex(const HbIndex &) = delete;
  HbIndex &operator=(const HbIndex &) = delete;
  HbIndex(HbIndex &&) = default;

  /// Returns true if record \p A happens before record \p B.
  bool happensBefore(uint32_t A, uint32_t B) const;

  /// Returns true if the records are ordered either way.
  bool ordered(uint32_t A, uint32_t B) const {
    return happensBefore(A, B) || happensBefore(B, A);
  }

  /// Event-level order: end(\p E1) happens before begin(\p E2).
  bool taskOrdered(TaskId E1, TaskId E2) const;

  const HbRuleStats &ruleStats() const { return Stats; }
  const HbGraph &graph() const { return *Graph; }

  /// What the degradation ladder did (oracle downgrade, blown deadline).
  const HbDegradation &degradation() const { return Degrade; }

  /// Oracle build and per-round phase timings of this construction.
  const HbTimings &timings() const { return Timing; }

  /// True when the derived-rule fixpoint ran to convergence (also true
  /// when no fixpoint was needed, e.g. the conventional model).  False
  /// exactly when the deadline rung cut it short.
  bool saturated() const { return Converged; }

  /// The current state as a resumable frontier (see HbFrontier): edges,
  /// cursors and counters -- a resume rebuilds the oracle from them.
  const HbFrontier &exportFrontier() const { return Kept; }

  /// Swaps the reachability oracle for the BFS floor, releasing its
  /// precomputed state (closure rows or chain clocks).  Nothing in the
  /// analysis calls it -- the detector scan orders its pairs through
  /// this index's own oracle -- it is kept, with this signature, for
  /// the benchmark's layered pipeline (perfbench/src/Workloads.cpp),
  /// which calls it before its streaming scan.  All oracles answer
  /// identically, so happensBefore() stays correct, just slower.
  /// degradation() keeps reporting the build-time provenance.
  void shedOracle();

  /// Approximate analyzer memory (graph + oracle), for scaling benches.
  size_t memoryBytes() const;

private:
  struct Builder;

  const Trace &T;
  const TaskIndex &Index;
  std::unique_ptr<HbGraph> Graph;
  std::unique_ptr<Reachability> Reach;
  HbRuleStats Stats;
  HbDegradation Degrade;
  HbTimings Timing;
  /// Live frontier: derived edges accumulate as rounds commit, cursors
  /// and counters are synced at every save point and at the end of
  /// construction.
  HbFrontier Kept;
  bool Converged = false;
};

} // namespace cafa

#endif // CAFA_HB_HBINDEX_H
