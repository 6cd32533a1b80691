//===- hb/Reachability.cpp - Reachability oracles over the HB DAG ----------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/Reachability.h"

#include "support/Resolve.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <optional>

using namespace cafa;

void ClosureReachability::refresh() {
  size_t N = G.numNodes();
  Dirty.assign(N, 0);
  Rows.resize(N);
  // Node ids ascend in trace-record order and every edge points forward,
  // so descending node id is a reverse topological order: successors'
  // rows are final when a node is processed.  A row holds only bits
  // above its own node, so each union can start at the successor's word.
  for (BitVec &Row : Rows) {
    Row.resize(N);
    Row.clear();
  }
  for (size_t I = N; I-- > 0;) {
    BitVec &Row = Rows[I];
    for (uint32_t S : G.successors(NodeId(static_cast<uint32_t>(I)))) {
      Row.set(S);
      Row.orWithFrom(Rows[S], S);
    }
  }
  KnownEdges = G.numEdges();
}

void ClosureReachability::addEdges(std::span<const HbEdge> Edges) {
  // The protocol: the rule engine inserts exactly one round's edges into
  // the graph, then hands that batch here.  If the graph drifted (nodes
  // appeared, or edges were added behind our back), the batch does not
  // describe the change -- rebuild.
  if (Rows.size() != G.numNodes() ||
      KnownEdges + Edges.size() != G.numEdges()) {
    refresh();
    return;
  }
  KnownEdges = G.numEdges();
  if (Edges.empty())
    return;

  // Sort the batch by source id descending so one reverse-topological
  // sweep consumes it with a moving cursor.
  SortedBatch.assign(Edges.begin(), Edges.end());
  std::sort(SortedBatch.begin(), SortedBatch.end(),
            [](const HbEdge &A, const HbEdge &B) { return B.From < A.From; });

  // Nodes above the largest batch source cannot reach any new edge (all
  // paths to it would have to run backward), so the sweep starts there.
  uint32_t MaxFrom = SortedBatch.front().From.value();
  std::fill(Dirty.begin(), Dirty.end(), 0);

  size_t Next = 0;
  for (uint32_t I = MaxFrom + 1; I-- > 0;) {
    BitVec &Row = Rows[I];
    bool Changed = false;
    // Absorb this node's batch edges: row gains {To} union row(To).
    // To > I, and the sweep already finalized every node above I, so
    // row(To) is final for this batch.
    for (; Next != SortedBatch.size() && SortedBatch[Next].From.value() == I;
         ++Next) {
      uint32_t To = SortedBatch[Next].To.value();
      assert(To > I && "HB edges must point forward in trace order");
      if (!Row.test(To)) {
        Row.set(To);
        Changed = true;
      }
      Changed |= Row.orWithFrom(Rows[To], To);
    }
    // Re-absorb every successor whose row grew earlier in this sweep;
    // clean successors are already contained by the closure invariant.
    for (uint32_t S : G.successors(NodeId(I)))
      if (Dirty[S])
        Changed |= Row.orWithFrom(Rows[S], S);
    Dirty[I] = Changed;
  }
}

size_t ClosureReachability::memoryBytes() const {
  size_t Total = Dirty.capacity() + SortedBatch.capacity() * sizeof(HbEdge);
  for (const BitVec &Row : Rows)
    Total += Row.memoryBytes();
  return Total;
}

BfsReachability::BfsReachability(const HbGraph &G) : G(G) {}

bool BfsReachability::reaches(NodeId From, NodeId To) const {
  if (From == To)
    return false;
  if (VisitedPos.empty()) {
    VisitedPos.assign(G.trace().numTasks(), 0);
    VisitedVersion.assign(G.trace().numTasks(), 0);
  }
  ++Version;

  TaskId ToTask = G.taskOfNode(To);
  uint32_t ToPos = G.posOfNode(To);
  bool Found = false;

  // Range worklist: (task, lo, hi) = nodes of `task` at positions
  // [lo, hi) whose successors still need expanding.  A task is expanded
  // at most once per position thanks to the VisitedPos high-water mark.
  struct Range {
    TaskId Task;
    uint32_t Lo, Hi;
  };
  std::vector<Range> Ranges;

  auto pushFrom = [&](NodeId Node) {
    TaskId Task = G.taskOfNode(Node);
    uint32_t Lo = G.posOfNode(Node);
    uint32_t Hi;
    if (VisitedVersion[Task.index()] == Version) {
      Hi = VisitedPos[Task.index()];
      if (Lo >= Hi)
        return; // already covered
    } else {
      Hi = static_cast<uint32_t>(G.taskNodes(Task).size());
      VisitedVersion[Task.index()] = Version;
    }
    VisitedPos[Task.index()] = Lo;
    if (Task == ToTask && ToPos >= Lo && ToPos < Hi)
      Found = true;
    Ranges.push_back({Task, Lo, Hi});
  };

  // Seed with the direct successors of From (program order within From's
  // task is one of them: the edge to the next node).
  for (uint32_t S : G.successors(From)) {
    pushFrom(NodeId(S));
    if (Found)
      return true;
  }

  while (!Ranges.empty()) {
    Range R = Ranges.back();
    Ranges.pop_back();
    const std::vector<NodeId> &Nodes = G.taskNodes(R.Task);
    for (uint32_t P = R.Lo; P != R.Hi; ++P) {
      for (uint32_t S : G.successors(Nodes[P])) {
        NodeId Succ(S);
        // Skip the intra-task program-order edge: it stays inside the
        // range we are already scanning.
        if (G.taskOfNode(Succ) == R.Task)
          continue;
        pushFrom(Succ);
        if (Found)
          return true;
      }
    }
  }
  return false;
}

size_t BfsReachability::memoryBytes() const {
  return VisitedPos.capacity() * 4 + VisitedVersion.capacity() * 4;
}

//===----------------------------------------------------------------------===//
// Chain cover
//===----------------------------------------------------------------------===//

/// Computes the canonical greedy path cover of \p G into \p Out.
static void greedyChainCover(const HbGraph &G, ChainCover &Out) {
  size_t N = G.numNodes();
  Out.ChainOf.assign(N, ChainCover::Unassigned);
  Out.PosInChain.assign(N, 0);
  Out.NumChains = 0;
  // Greedy path cover: walk ids ascending, start a chain at every
  // unassigned node, extend along the smallest-id unassigned successor.
  // Edges point forward in id order, so every chain's members ascend --
  // which makes a chain's position order its id order, and makes the
  // walk O(N + E) total.
  for (uint32_t I = 0, E = static_cast<uint32_t>(N); I != E; ++I) {
    if (Out.ChainOf[I] != ChainCover::Unassigned)
      continue;
    uint32_t C = Out.NumChains++;
    uint32_t U = I;
    for (uint32_t Pos = 0;; ++Pos) {
      Out.ChainOf[U] = C;
      Out.PosInChain[U] = Pos;
      uint32_t NextU = ChainCover::Unassigned;
      for (uint32_t S : G.successors(NodeId(U)))
        if (Out.ChainOf[S] == ChainCover::Unassigned && S < NextU)
          NextU = S;
      if (NextU == ChainCover::Unassigned)
        break;
      U = NextU;
    }
  }
}

//===----------------------------------------------------------------------===//
// ChainReachability
//===----------------------------------------------------------------------===//

ChainReachability::ChainReachability(const HbGraph &G, size_t BudgetBytes)
    : G(G), Budget(BudgetBytes), Search(G) {
  refresh();
}

void ChainReachability::maybeBootstrap() {
  // The bootstrap is a speed device, never a memory commitment the
  // caller did not sign off on: under a byte budget it is engaged only
  // when the embedded closure's rows fit it.
  if (Budget && rowBytes(G.numNodes()) > Budget) {
    Boot.reset();
    return;
  }
  if (!Boot)
    Boot = std::make_unique<ClosureReachability>(G);
  else
    Boot->refresh();
}

size_t ChainReachability::baseBytes() const {
  return Cover.ChainOf.capacity() * 4 + Cover.PosInChain.capacity() * 4 +
         Search.memoryBytes();
}

bool ChainReachability::clocksFit() const {
  // Two gates keep the matrix near-linear: the structural cap (a wide
  // cover means the fixpoint has not yet serialized the queues -- clocks
  // now would be quadratic-shaped), and the byte budget.  Failing
  // either is not an error: the search phase answers every query
  // correctly, and a later round re-tries.
  return Cover.numChains() <= MaxChainsForClocks &&
         (!Budget ||
          baseBytes() + G.numNodes() * size_t(Cover.numChains()) * 4 <=
              Budget);
}

void ChainReachability::buildClocks() {
  // Clocks beat rows: O(1) queries at linear memory.  Free the rows
  // first so this round peaks at max(rows, clocks).
  Boot.reset();
  size_t N = G.numNodes();
  size_t C = Cover.numChains();
  const std::vector<uint32_t> &ChainOf = Cover.ChainOf;
  const std::vector<uint32_t> &PosInChain = Cover.PosInChain;
  Clocks.assign(N * C, Unset);
  // Same reverse-topological sweep as the closure rebuild, over clock
  // rows instead of bitset rows: node I absorbs, per chain, the minimum
  // of {S's own position} and S's clock row, for each successor S.
  for (size_t I = N; I-- > 0;) {
    uint32_t *Row = Clocks.data() + I * C;
    for (uint32_t S : G.successors(NodeId(static_cast<uint32_t>(I)))) {
      uint32_t P = PosInChain[S];
      if (P < Row[ChainOf[S]])
        Row[ChainOf[S]] = P;
      const uint32_t *SRow = Clocks.data() + size_t(S) * C;
      for (size_t K = 0; K != C; ++K)
        if (SRow[K] < Row[K])
          Row[K] = SRow[K];
    }
  }
  ClocksValid = true;
  View = {Clocks.data(), ChainOf.data(), PosInChain.data(),
          static_cast<uint32_t>(C), View.Epoch + 1};
}

void ChainReachability::refresh() {
  if (Exceeded)
    return; // the ladder discards this oracle
  ClocksValid = false;
  Clocks.clear();
  Clocks.shrink_to_fit();
  greedyChainCover(G, Cover);
  if (Budget && baseBytes() > Budget) {
    // Not even the linear structures fit: unusable, fall to the floor.
    // Release everything so the failed build leaves no high-water mark.
    Exceeded = true;
    Cover = ChainCover();
    Boot.reset();
    return;
  }
  KnownEdges = G.numEdges();
  if (clocksFit())
    buildClocks();
  else
    maybeBootstrap();
}

bool ChainReachability::reaches(NodeId From, NodeId To) const {
  if (!ClocksValid)
    return Boot ? Boot->reaches(From, To) : Search.reaches(From, To);
  // Prefix property: From reaches chain c's member at position p iff its
  // frontier clock for c is <= p.  A node never reaches itself: every
  // reachable node has a larger id, and chain members ascend in id, so
  // Row[chain(From)] > pos(From) always.
  return View.reaches(From, To);
}

void ChainReachability::addEdges(std::span<const HbEdge> Edges) {
  // Same drift protocol as the closure: the graph must hold exactly the
  // edges we know about plus this batch, else rebuild.
  if (Cover.ChainOf.size() != G.numNodes() ||
      KnownEdges + Edges.size() != G.numEdges()) {
    refresh();
    return;
  }
  KnownEdges = G.numEdges();
  if (Edges.empty())
    return;

  if (!ClocksValid) {
    // Search phase.  This round's real work is re-deriving the cover and
    // checking whether it collapsed enough to commit the clocks.  If it
    // did, the bootstrap rows are freed unread, so the batch is not
    // folded into them; otherwise the embedded closure absorbs it
    // (bootstrap tier) or queries keep reading live edges (frugal tier).
    greedyChainCover(G, Cover);
    if (clocksFit())
      buildClocks();
    else if (Boot)
      Boot->addEdges(Edges);
    return;
  }

  // Incremental clock update: the same descending dirty-row sweep as
  // ClosureReachability::addEdges, with "row grew" now meaning "some
  // chain clock decreased" (a clock entry decreasing is exactly new
  // nodes becoming reachable).  Nodes above the largest batch source
  // cannot reach a new edge, so the dirty flags span the sweep's prefix.
  std::vector<HbEdge> SortedBatch(Edges.begin(), Edges.end());
  std::sort(SortedBatch.begin(), SortedBatch.end(),
            [](const HbEdge &A, const HbEdge &B) { return B.From < A.From; });
  uint32_t MaxFrom = SortedBatch.front().From.value();
  std::vector<uint8_t> Dirty(size_t(MaxFrom) + 1, 0);
  size_t C = Cover.numChains();
  const std::vector<uint32_t> &ChainOf = Cover.ChainOf;
  const std::vector<uint32_t> &PosInChain = Cover.PosInChain;

  // Row[K] = min(Row[K], Src[K]) over every chain; true if any decreased.
  auto absorb = [C](uint32_t *Row, const uint32_t *Src) {
    bool Changed = false;
    for (size_t K = 0; K != C; ++K)
      if (Src[K] < Row[K]) {
        Row[K] = Src[K];
        Changed = true;
      }
    return Changed;
  };

  size_t Next = 0;
  for (uint32_t I = MaxFrom + 1; I-- > 0;) {
    uint32_t *Row = Clocks.data() + size_t(I) * C;
    bool Changed = false;
    // Absorb this node's batch edges: the row gains {To} (To's own
    // position in its chain) union To's clock row, both final -- the
    // sweep already finalized every node above I.
    for (; Next != SortedBatch.size() && SortedBatch[Next].From.value() == I;
         ++Next) {
      uint32_t To = SortedBatch[Next].To.value();
      assert(To > I && "HB edges must point forward in trace order");
      uint32_t P = PosInChain[To];
      if (P < Row[ChainOf[To]]) {
        Row[ChainOf[To]] = P;
        Changed = true;
      }
      Changed |= absorb(Row, Clocks.data() + size_t(To) * C);
    }
    // Re-absorb every successor whose row grew earlier in this sweep;
    // clean successors are already contained by the clock invariant.
    for (uint32_t S : G.successors(NodeId(I)))
      if (S <= MaxFrom && Dirty[S])
        Changed |= absorb(Row, Clocks.data() + size_t(S) * C);
    Dirty[I] = Changed;
  }
}

size_t ChainReachability::memoryBytes() const {
  return baseBytes() + Clocks.capacity() * 4 +
         (Boot ? Boot->memoryBytes() : 0);
}

ReachMode cafa::resolveReachMode(ReachMode Requested) {
  // The reserved incremental mode is the closure under its old name.
  if (Requested == ReachMode::Incremental)
    return ReachMode::Closure;
  // Request > environment > default via the shared precedence template
  // (0 = auto for the thread knobs, Auto here).
  return resolveRequestEnv<ReachMode>(
      Requested, ReachMode::Auto, "CAFA_REACH",
      [](const char *Env) -> std::optional<ReachMode> {
        if (std::strcmp(Env, "chain") == 0)
          return ReachMode::Chain;
        if (std::strcmp(Env, "bfs") == 0)
          return ReachMode::Bfs;
        return std::nullopt;
      },
      [] { return ReachMode::Chain; });
}

std::unique_ptr<Reachability> cafa::makeReachability(const HbGraph &G,
                                                     ReachMode Mode,
                                                     size_t BudgetBytes) {
  switch (resolveReachMode(Mode)) {
  case ReachMode::Bfs:
    // No precomputed state: nothing to budget, nothing to sweep.
    return std::make_unique<BfsReachability>(G);
  case ReachMode::Closure:
    return std::make_unique<ClosureReachability>(G);
  default: // Chain; resolveReachMode never returns Incremental or Auto
    break;
  }
  return std::make_unique<ChainReachability>(G, BudgetBytes);
}

const char *cafa::reachModeName(ReachMode Mode) {
  switch (Mode) {
  case ReachMode::Closure:
    return "closure";
  case ReachMode::Bfs:
    return "bfs";
  case ReachMode::Incremental:
    return "incremental";
  case ReachMode::Chain:
    return "chain";
  case ReachMode::Auto:
    return "auto";
  }
  return "unknown";
}
