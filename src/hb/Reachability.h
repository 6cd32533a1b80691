//===- hb/Reachability.h - Reachability oracles over the HB DAG -*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three interchangeable reachability oracles over the happens-before
/// DAG (Section 4.2: "to test if two operations are ordered, we simply
/// perform a reachability test on the happens-before graph"):
///
///  - ChainReachability: greedy path cover of the DAG into chains plus
///    one min-position clock entry per (node, chain).  O(chains) rows
///    instead of O(N) bits per row -- near-linear memory on the "few
///    chains, long chains" shape event-driven traces converge to, with
///    O(1) queries once the clocks are live (docs/chain-reachability.md).
///    The production oracle.
///  - ClosureReachability: transitive closure as one bitset row per node,
///    built once and then extended by each fixpoint round's new edges
///    (addEdges).  O(1) queries, O(N^2/8) bytes.  The chain oracle's
///    search-phase bootstrap, and the differential reference.
///  - BfsReachability: per-query pruned search, no precomputation.  Slow
///    queries, O(N) memory -- the floor of the memory ladder.
///
/// See docs/hb-reachability.md for the architecture of this layer and
/// the complexity trade-offs (including the mode decision table).
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_HB_REACHABILITY_H
#define CAFA_HB_REACHABILITY_H

#include "hb/HbGraph.h"
#include "support/BitVec.h"

#include <memory>
#include <span>
#include <vector>

namespace cafa {

/// One happens-before edge, as handed to Reachability::addEdges.
struct HbEdge {
  NodeId From;
  NodeId To;
};

/// Which reachability oracle backs queries and rule evaluation.
/// Serialized into checkpoints by value -- new modes append, existing
/// values never renumber.
enum class ReachMode : uint8_t {
  /// Bitset transitive closure, extended by each fixpoint round's edges:
  /// O(1) queries, O(N^2) bits.  A library-only reference for tests and
  /// benches; no CLI flag or CAFA_REACH value selects it.
  Closure,
  /// Pruned per-query search: slow queries, linear memory.
  Bfs,
  /// Reserved: the retired incremental-closure mode.  Older snapshots
  /// record it as the oracle they ran under; resolveReachMode() and
  /// makeReachability() map it to Closure, which now does the same job.
  Incremental,
  /// Chain decomposition with per-node chain clocks: O(1) queries,
  /// O(N * chains) memory -- near-linear on event-driven traces, where
  /// looper serialization collapses the saturated DAG into few chains.
  /// The default.
  Chain,
  /// Not an oracle: "no explicit request".  resolveReachMode() turns it
  /// into a concrete mode via the CAFA_REACH environment variable
  /// (request > env > Chain, mirroring the thread knobs' 0 = auto
  /// convention).  Never reaches makeReachability() or a checkpoint.
  Auto,
};

/// Resolves \p Requested against the CAFA_REACH environment knob: an
/// explicit request wins (the reserved Incremental maps to Closure);
/// Auto consults CAFA_REACH ("chain", "bfs"); unset or unrecognized
/// falls back to Chain, the default oracle.
ReachMode resolveReachMode(ReachMode Requested);

/// A greedy path cover of the happens-before DAG into chains.  Every
/// node belongs to exactly one chain; a chain's members ascend in node
/// id, and consecutive members are connected by graph edges, so earlier
/// members reach later members (the chain-prefix property the
/// ChainReachability clocks rely on).  ChainReachability computes it
/// greedily (walk ids ascending, start a chain at every unassigned
/// node, extend along the smallest-id unassigned successor; O(N + E)),
/// so it is a pure function of the adjacency lists.  Holds the per-node
/// arrays and the chain count only.
struct ChainCover {
  /// Sentinel in ChainOf while the cover is being built; never present
  /// in a finished cover.
  static constexpr uint32_t Unassigned = 0xFFFFFFFFu;
  std::vector<uint32_t> ChainOf;     ///< node id -> chain index
  std::vector<uint32_t> PosInChain;  ///< node id -> position in its chain
  uint32_t NumChains = 0;
  uint32_t numChains() const { return NumChains; }
};

/// Read-only view of committed chain clocks (see ChainReachability):
/// Clock[u * Chains + c] is the least position in chain c that u
/// reaches by a nonempty path (ChainReachability::Unset if none).
struct ChainClocks {
  const uint32_t *Clock = nullptr;
  const uint32_t *ChainOf = nullptr;
  const uint32_t *PosInChain = nullptr;
  uint32_t Chains = 0;
  /// Bumped at every commit, so a reader caching per-cover state can
  /// tell when the cover under the clocks was re-derived.
  uint32_t Epoch = 0;

  uint32_t clock(NodeId U, uint32_t C) const {
    return Clock[U.index() * size_t(Chains) + C];
  }
  bool reaches(NodeId From, NodeId To) const {
    return clock(From, ChainOf[To.index()]) <= PosInChain[To.index()];
  }
};

/// Answers "is there a path From -> To" on the current graph edges.
class Reachability {
public:
  virtual ~Reachability() = default;

  /// Returns true if \p To is reachable from \p From by a nonempty path
  /// (a node does not reach itself).
  virtual bool reaches(NodeId From, NodeId To) const = 0;

  /// Rebuilds any precomputed state from the graph's current edges.
  virtual void refresh() = 0;

  /// Called by the rule engine after it inserts a fixpoint round's
  /// \p Edges into the graph; the graph already contains them when this
  /// runs.  Oracles with precomputed state fold the batch in; the default
  /// (live-edge search) has nothing to update.
  virtual void addEdges(std::span<const HbEdge> Edges) {}

  /// Returns the closure row array (indexed by node id) if this oracle
  /// precomputes one, else nullptr.  The rule engine answers atomicity
  /// premises a 64-bit word at a time straight from these rows and tests
  /// single facts inline instead of making a virtual reaches() call per
  /// pair.
  virtual const BitVec *rowsOrNull() const { return nullptr; }

  /// Returns the committed chain clocks, else nullptr.  The rule engine
  /// answers atomicity premises as per-chain position ranges and tests
  /// single facts inline from them; an oracle with neither rows nor
  /// clocks keeps the per-pair virtual path.
  virtual const ChainClocks *clocksOrNull() const { return nullptr; }

  /// Approximate memory footprint in bytes (for the ablation bench, and
  /// the *measured* reading the degradation ladder records after a
  /// budgeted build).
  virtual size_t memoryBytes() const = 0;

  /// True when a memory-budgeted build (see makeReachability's
  /// BudgetBytes) gave up before its precomputed state fit the budget.
  /// The oracle is then unusable and the degradation ladder falls to the
  /// BFS floor.  Budget-free oracles always return false.
  virtual bool budgetExceeded() const { return false; }

  /// Chains in the oracle's current decomposition (0 for oracles that
  /// do not decompose).  Informational: surfaces in HbDegradation for
  /// the scaling benches' chain-count statistics.
  virtual size_t chainCount() const { return 0; }
};

/// Bitset transitive closure, built once and extended per fixpoint
/// round.
///
/// refresh() rebuilds every row in one reverse-topological sweep.
/// After that, each round hands its freshly inserted edges to
/// addEdges(), which runs one descending sweep over the id prefix
/// [0, max batch source]: node n absorbs {v} union row(v) for each batch
/// edge n -> v, then re-absorbs row(s) for each successor s whose row
/// grew earlier in the same sweep ("dirty").  Edge insertion is
/// monotone, so rows only grow and never need clearing, and a node with
/// no batch edge and no dirty successor costs a flag scan of its
/// adjacency list -- not a row union.  The sweep is therefore bounded
/// above by one full rebuild and is far cheaper once the closure
/// stabilizes and rounds shrink.
///
/// Two structural facts of the HB DAG make this work:
///  - node ids ascend in trace-record order and every edge points
///    forward, so descending id is a reverse topological order and a
///    node's row holds only bits above its own id (which lets every
///    union start at the successor's word, BitVec::orWithFrom, skipping
///    the dead low half of the row on average);
///  - program order chains each task's nodes, so typical adjacency
///    lists hold one chain edge plus few cross-task edges and the
///    clean-node scan is cheap.
///
/// The closure takes no byte budget: the chain oracle only engages it as
/// a bootstrap when its rows fit (ChainReachability::rowBytes).
class ClosureReachability final : public Reachability {
public:
  explicit ClosureReachability(const HbGraph &G) : G(G) { refresh(); }

  bool reaches(NodeId From, NodeId To) const override {
    return Rows[From.index()].test(To.index());
  }
  void refresh() override;
  void addEdges(std::span<const HbEdge> Edges) override;
  size_t memoryBytes() const override;
  const BitVec *rowsOrNull() const override { return Rows.data(); }

private:
  const HbGraph &G;
  std::vector<BitVec> Rows;
  /// Edges reflected in Rows; addEdges falls back to a full refresh()
  /// if the graph drifted from what it was told about.
  size_t KnownEdges = 0;
  /// Scratch for addEdges: the batch sorted by source id descending,
  /// and a per-node "row grew during this sweep" flag.
  std::vector<HbEdge> SortedBatch;
  std::vector<uint8_t> Dirty;
};

/// On-demand search with per-task pruning: a visit to node n of task t
/// implies all later nodes of t are reachable via program order, so each
/// task is expanded at most once per query.
class BfsReachability final : public Reachability {
public:
  explicit BfsReachability(const HbGraph &G);

  bool reaches(NodeId From, NodeId To) const override;
  void refresh() override {} // reads live edges; nothing cached
  size_t memoryBytes() const override;

private:
  const HbGraph &G;
  /// Scratch (mutable per query): per-task minimal visited node position,
  /// versioned to avoid clearing between queries.  Sized by the first
  /// query, so an oracle that embeds this search as a fallback pays
  /// nothing until it is used.
  mutable std::vector<uint32_t> VisitedPos;
  mutable std::vector<uint32_t> VisitedVersion;
  mutable uint32_t Version = 0;
  mutable std::vector<NodeId> Worklist;
};

/// Chain-decomposition reachability: near-linear memory on the "few
/// chains, long chains" graphs event-driven traces saturate into.
///
/// refresh() greedily covers the DAG with vertex-disjoint *paths*
/// ("chains"): walk node ids ascending, start a chain at every
/// unassigned node, extend it along the smallest-id unassigned
/// successor.  Every chain is a path in the DAG, so reachability into a
/// chain has the prefix property: if u reaches the chain's member at
/// position p, it reaches every later member through the chain's own
/// edges.  One clock entry per (node, chain) therefore captures the
/// entire closure:
///
///   Clock[u][c] = min position in chain c of any node reachable from u
///                 by a nonempty path        (UNSET if none)
///   reaches(u, v)  <=>  Clock[u][chain(v)] <= pos(v)
///
/// (the mirror image of the backward formulation clock[v][chain(u)] >=
/// pos(u) -- forward clocks match the successor-list graph layout and
/// the descending sweep the closure oracle already uses).  addEdges()
/// runs that same dirty-row sweep over clock rows; its sorted batch and
/// dirty flags are locals of the call, so the oracle holds no fixpoint
/// scratch between rounds.
///
/// The catch: the clock matrix is N x chains, and a *base* graph is
/// wide -- pending events are mutually unordered until the queue rules
/// serialize them, so the chain count starts near the event count and
/// only collapses as the fixpoint saturates.  The oracle is therefore
/// dual-phase: while the greedy cover needs more than MaxChainsForClocks
/// chains (or the clocks overrun the byte budget), it runs a *search
/// phase*; every addEdges() re-derives the cover, and the first round
/// whose cover fits builds the clocks and switches to incremental clock
/// updates.
///
/// The search phase itself has two tiers, picked once per build:
///  - Bootstrap (speed): unless a byte budget is set and the closure
///    rows (rowBytes()) overrun it, the oracle embeds a
///    ClosureReachability and forwards queries and rows to it.  Wide
///    fixpoint rounds then run at full closure speed.  The round whose
///    cover fits frees the rows before allocating the clocks, so that
///    round peaks at max(rows, clocks), not their sum.
///  - Frugal (memory): otherwise queries go through an embedded pruned
///    search (BfsReachability) in O(N) memory.  This is the tier a
///    budgeted million-event graph lands in.
///
/// High-water memory is therefore the closure rows during a
/// bootstrapped search phase (never more than the budget, when one is
/// set) and O(N * chains-at-switch) <= N * 4 * MaxChainsForClocks bytes
/// after the clocks commit.
class ChainReachability final : public Reachability {
public:
  /// A cover wider than this keeps the oracle in its search phase: the
  /// clock matrix is only ever committed at <= 4 * MaxChainsForClocks
  /// bytes per node.  Wide enough that every saturated event-driven
  /// fixture measured lands orders of magnitude below it, small enough
  /// that the committed matrix stays near-linear.
  static constexpr uint32_t MaxChainsForClocks = 128;
  /// Clock value for "reaches nothing in this chain".
  static constexpr uint32_t Unset = 0xFFFFFFFFu;

  /// What the bootstrap closure allocates for \p NumNodes nodes: N rows
  /// of ceil(N/64) words plus the sweep's per-node dirty flags.  A
  /// nonzero budget below this keeps the search phase frugal.
  static size_t rowBytes(size_t NumNodes) {
    return NumNodes * ((NumNodes + 63) / 64) * 8 + NumNodes;
  }

  /// \p BudgetBytes, when nonzero, bounds what the build may allocate: a
  /// budget that admits the linear structures but not the clock matrix
  /// keeps the oracle usable in its search phase instead of aborting --
  /// budgetExceeded() fires only when even O(N) does not fit.
  explicit ChainReachability(const HbGraph &G, size_t BudgetBytes = 0);

  bool reaches(NodeId From, NodeId To) const override;
  void refresh() override;
  void addEdges(std::span<const HbEdge> Edges) override;
  size_t memoryBytes() const override;
  bool budgetExceeded() const override { return Exceeded; }
  /// During a bootstrapped search phase the embedded closure's rows are
  /// lent to the rule engine's inline pair scans; once the clocks commit
  /// there is no row matrix.
  const BitVec *rowsOrNull() const override {
    return Boot ? Boot->rowsOrNull() : nullptr;
  }
  /// Non-null once the clock matrix is live.  Tests assert this so a
  /// policy regression cannot silently demote the differential suites to
  /// the search phase.
  const ChainClocks *clocksOrNull() const override {
    return ClocksValid ? &View : nullptr;
  }
  size_t chainCount() const override { return Cover.numChains(); }

private:
  /// Engages (or refreshes) the bootstrap closure unless the budget
  /// rules its rows out; otherwise releases it, leaving the frugal
  /// search tier.
  void maybeBootstrap();
  /// True when the cover and budget admit the N x chains clock matrix.
  bool clocksFit() const;
  /// Releases the bootstrap and commits the clock matrix over the
  /// current cover; the caller checked clocksFit().
  void buildClocks();
  /// Footprint of the always-present linear structures.
  size_t baseBytes() const;

  const HbGraph &G;
  size_t Budget = 0;
  bool Exceeded = false;
  /// Edges reflected in the decomposition/clocks; addEdges falls back to
  /// refresh() if the graph drifted (same protocol as the closure).
  size_t KnownEdges = 0;

  /// The greedy path cover over the graph's current edges (see
  /// ChainCover).
  ChainCover Cover;

  bool ClocksValid = false;
  std::vector<uint32_t> Clocks; // row-major, N rows of one entry per chain
  ChainClocks View;             // over Clocks and Cover

  /// Search-phase query path, frugal tier (reads live edges, per-query
  /// scratch).
  BfsReachability Search;
  /// Search-phase bootstrap tier: an embedded closure that serves
  /// queries and rows while the cover is still wide.  Invariant: Boot is
  /// null whenever ClocksValid.
  std::unique_ptr<ClosureReachability> Boot;
};

/// Creates the oracle selected by \p Mode.  \p BudgetBytes, when
/// nonzero, bounds what the chain oracle may allocate (the build aborts
/// into budgetExceeded() instead of overshooting); the closure reference
/// and BFS ignore it -- BFS carries no precomputed state and is the
/// ladder's floor.
std::unique_ptr<Reachability> makeReachability(const HbGraph &G,
                                               ReachMode Mode,
                                               size_t BudgetBytes = 0);

/// Returns a stable lowercase name for \p Mode ("closure", "chain", "bfs",
/// "auto", and "incremental" for the reserved mode), for CLI flags and
/// degradation diagnostics.
const char *reachModeName(ReachMode Mode);

} // namespace cafa

#endif // CAFA_HB_REACHABILITY_H
