//===- hb/HbIndex.cpp - The CAFA causality model ----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "hb/HbIndex.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>

using namespace cafa;

namespace {

/// One send/sendAtFront operation targeting a queue.
struct SendOp {
  NodeId Node;
  TaskId Event;
  uint64_t DelayMs;
  bool AtFront;
};

} // namespace

/// Performs the rule evaluation for one HbIndex.
struct HbIndex::Builder {
  const Trace &T;
  HbGraph &G;
  const HbOptions &Opt;
  HbRuleStats &Stats;

  /// Events per queue in observed execution (begin-record) order.
  std::vector<std::vector<TaskId>> QueueEvents;
  /// Send operations per queue in record order.
  std::vector<std::vector<SendOp>> QueueSends;
  /// Positions of the front-enqueued sends in QueueSends[Q], ascending.
  std::vector<std::vector<uint32_t>> QueueFronts;

  Builder(const Trace &T, HbGraph &G, const HbOptions &Opt,
          HbRuleStats &Stats)
      : T(T), G(G), Opt(Opt), Stats(Stats),
        QueueEvents(T.numQueues()), QueueSends(T.numQueues()),
        QueueFronts(T.numQueues()) {}

  void collect() {
    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
         ++I) {
      const TraceRecord &Rec = T.record(I);
      if (Rec.Kind == OpKind::TaskBegin) {
        const TaskInfo &Info = T.taskInfo(Rec.Task);
        if (Info.Kind == TaskKind::Event && Info.Queue.isValid())
          QueueEvents[Info.Queue.index()].push_back(Rec.Task);
        continue;
      }
      if (Rec.Kind == OpKind::Send || Rec.Kind == OpKind::SendAtFront) {
        SendOp Op;
        Op.Node = G.nodeForRecord(I);
        Op.Event = Rec.targetTask();
        Op.DelayMs = Rec.delayMs();
        Op.AtFront = Rec.Kind == OpKind::SendAtFront;
        std::vector<SendOp> &Sends = QueueSends[Rec.queue().index()];
        if (Op.AtFront)
          QueueFronts[Rec.queue().index()].push_back(
              static_cast<uint32_t>(Sends.size()));
        Sends.push_back(Op);
      }
    }
  }

  /// Adds the edges that need no derived information.
  void addBaseEdges() {
    Stats.ProgramOrderEdges = G.numEdges();

    // Maps for pairing rules.
    std::vector<std::vector<NodeId>> MonitorNotifies;
    std::vector<std::vector<NodeId>> ListenerRegisters;
    std::unordered_map<uint64_t, NodeId> IpcSends;
    std::vector<NodeId> ExternalBegins; // begin nodes, in begin order

    auto growTo = [](std::vector<std::vector<NodeId>> &V, size_t Index) {
      if (V.size() <= Index)
        V.resize(Index + 1);
    };

    for (uint32_t I = 0, E = static_cast<uint32_t>(T.numRecords()); I != E;
         ++I) {
      const TraceRecord &Rec = T.record(I);
      NodeId Node = G.nodeForRecord(I);
      switch (Rec.Kind) {
      case OpKind::TaskBegin: {
        const TaskInfo &Info = T.taskInfo(Rec.Task);
        if (Opt.Model == OrderingModel::Cafa &&
            Opt.EnableExternalInputRule && Info.External)
          ExternalBegins.push_back(Node);
        break;
      }
      case OpKind::Fork: {
        NodeId ChildBegin = G.beginNode(Rec.targetTask());
        if (ChildBegin.isValid()) {
          G.addEdge(Node, ChildBegin);
          ++Stats.ForkJoinEdges;
        }
        break;
      }
      case OpKind::Join: {
        NodeId ChildEnd = G.endNode(Rec.targetTask());
        if (ChildEnd.isValid()) {
          G.addEdge(ChildEnd, Node);
          ++Stats.ForkJoinEdges;
        }
        break;
      }
      case OpKind::Notify: {
        growTo(MonitorNotifies, Rec.monitor().index());
        MonitorNotifies[Rec.monitor().index()].push_back(Node);
        break;
      }
      case OpKind::Wait: {
        // Signal-and-wait rule: every earlier notify on this monitor
        // happens before this wait.
        if (Rec.monitor().index() < MonitorNotifies.size()) {
          for (NodeId Notify : MonitorNotifies[Rec.monitor().index()]) {
            if (G.taskOfNode(Notify) == Rec.Task)
              continue; // program order already covers it
            G.addEdge(Notify, Node);
            ++Stats.NotifyWaitEdges;
          }
        }
        break;
      }
      case OpKind::RegisterListener: {
        if (Opt.Model == OrderingModel::Cafa && Opt.EnableListenerRule) {
          growTo(ListenerRegisters, Rec.listener().index());
          ListenerRegisters[Rec.listener().index()].push_back(Node);
        }
        break;
      }
      case OpKind::PerformListener: {
        if (Opt.Model == OrderingModel::Cafa && Opt.EnableListenerRule &&
            Rec.listener().index() < ListenerRegisters.size()) {
          for (NodeId Reg : ListenerRegisters[Rec.listener().index()]) {
            G.addEdge(Reg, Node);
            ++Stats.ListenerEdges;
          }
        }
        break;
      }
      case OpKind::Send:
      case OpKind::SendAtFront: {
        NodeId TargetBegin = G.beginNode(Rec.targetTask());
        if (TargetBegin.isValid()) {
          G.addEdge(Node, TargetBegin);
          ++Stats.SendEdges;
        }
        break;
      }
      case OpKind::IpcSend:
        IpcSends[Rec.Arg0] = Node;
        break;
      case OpKind::IpcRecv: {
        auto It = IpcSends.find(Rec.Arg0);
        if (It != IpcSends.end()) {
          G.addEdge(It->second, Node);
          ++Stats.IpcEdges;
        }
        break;
      }
      default:
        break;
      }
    }

    // External input rule: chain externally generated events in the
    // order they began (conservative; Section 3.3).
    for (size_t I = 0; I + 1 < ExternalBegins.size(); ++I) {
      NodeId End = G.endNode(G.taskOfNode(ExternalBegins[I]));
      if (End.isValid()) {
        G.addEdge(End, ExternalBegins[I + 1]);
        ++Stats.ExternalChainEdges;
      }
    }

    // Conventional model: a looper thread's events are totally ordered,
    // as a thread-based detector would assume.
    if (Opt.Model == OrderingModel::Conventional) {
      for (const std::vector<TaskId> &Events : QueueEvents) {
        for (size_t I = 0; I + 1 < Events.size(); ++I) {
          NodeId End = G.endNode(Events[I]);
          NodeId Begin = G.beginNode(Events[I + 1]);
          if (End.isValid() && Begin.isValid()) {
            G.addEdge(End, Begin);
            ++Stats.ConventionalOrderEdges;
          }
        }
      }
    }
  }

  /// Per-round frozen context: the oracle and its inline row array or
  /// clock view (at most one is set).
  const Reachability *RoundOracle = nullptr;
  const BitVec *RoundRows = nullptr;
  const ChainClocks *RoundClocks = nullptr;

  /// Proposals and per-rule counters of a scan.  The round accumulates
  /// into one; a queue's uncapped row-major scan writes into a second
  /// so it can be dropped whole (see scanAtomQueue).
  struct ScanOut {
    std::vector<std::pair<NodeId, NodeId>> Edges;
    uint64_t Atomicity = 0, Q1 = 0, Q2 = 0, Q3 = 0, Q4 = 0;

    void clear() {
      Edges.clear();
      Atomicity = Q1 = Q2 = Q3 = Q4 = 0;
    }
    void append(const ScanOut &Src) {
      Edges.insert(Edges.end(), Src.Edges.begin(), Src.Edges.end());
      Atomicity += Src.Atomicity;
      Q1 += Src.Q1;
      Q2 += Src.Q2;
      Q3 += Src.Q3;
      Q4 += Src.Q4;
    }
  };
  ScanOut Side;

  /// The current queue's gap-1 result.  Covered[i] marks an adjacent
  /// conclusion end(i) -> begin(i+1) that holds in the oracle or in this
  /// round's proposals; Run[i] counts consecutive covered links starting
  /// at i.
  std::vector<uint8_t> Covered;
  std::vector<uint32_t> Run;

  /// Scan frontier, one per queue and rule family.  Pairs are scanned
  /// in gap-diagonal order; everything lexicographically below (Gap, I)
  /// has been evaluated at least once ("seen") in an earlier round.
  /// Every round re-evaluates the seen region in full; unseen pairs are
  /// the only place the per-round edge cap may cut the scan, so the cap
  /// can never starve a pair that was already reached.  The cursor type
  /// lives in HbIndex.h (HbScanCursor) because checkpoints persist these
  /// frontiers.
  std::vector<HbScanCursor> AtomCursor, SendCursor;

  /// Atomicity premise inputs.  SingleEntryEnds holds the end nodes of
  /// events that no cross-task edge enters except at their begin node.
  /// An event is entered mid-body by a cross-task edge into any node but
  /// its begin: join, wait, listener-perform and IPC-receive nodes.
  /// Every derived edge targets a begin node, so once base edges (and a
  /// resume's replayed edges) are in, the single-entry set never
  /// changes; it is built the first round either premise path needs it.
  BitVec SingleEntryEnds;
  bool HaveSingleEntry = false;

  void buildSingleEntryEnds() {
    size_t N = G.numNodes();
    std::vector<uint8_t> MidEntry(T.numTasks(), 0);
    for (uint32_t U = 0; U != N; ++U) {
      TaskId From = G.taskOfNode(NodeId(U));
      for (uint32_t V : G.successors(NodeId(U))) {
        TaskId To = G.taskOfNode(NodeId(V));
        if (To != From && NodeId(V) != G.beginNode(To))
          MidEntry[To.index()] = 1;
      }
    }
    SingleEntryEnds.resize(N);
    for (const std::vector<TaskId> &Events : QueueEvents)
      for (TaskId Event : Events)
        if (G.endNode(Event).isValid() && !MidEntry[Event.index()])
          SingleEntryEnds.set(G.endNode(Event).index());
    HaveSingleEntry = true;
  }

  /// Word-parallel premises over closure rows, built the first round
  /// whose oracle exposes them (Q*N/8 bytes, never more than the N^2/8
  /// rows they filter).  EndMask[Q] holds the end nodes of queue Q's
  /// events, for queues with at least two events; EndPos maps an end
  /// node in EndMask to its event's position in QueueEvents.
  std::vector<BitVec> EndMask;
  std::vector<uint32_t> EndPos;
  bool HaveMasks = false;

  void buildPremiseMasks() {
    size_t N = G.numNodes();
    EndMask.assign(QueueEvents.size(), BitVec());
    EndPos.assign(N, 0);
    for (size_t Q = 0; Q != QueueEvents.size(); ++Q) {
      if (QueueEvents[Q].size() < 2)
        continue;
      EndMask[Q].resize(N);
      for (size_t Pos = 0; Pos != QueueEvents[Q].size(); ++Pos) {
        NodeId End = G.endNode(QueueEvents[Q][Pos]);
        if (!End.isValid())
          continue;
        EndMask[Q].set(End.index());
        EndPos[End.index()] = static_cast<uint32_t>(Pos);
      }
    }
    HaveMasks = true;
  }

  /// The atomicity candidates of source event eI in word \p W of a
  /// closure row: end nodes of eI's queue that begin(eI) reaches (the
  /// premise begin(eI) < end(eJ)), minus those whose conclusion
  /// end(eI) < begin(eJ) is already implied because eJ is single-entry
  /// and end(eI) reaches end(eJ) -- a path into a single-entry event
  /// passes its begin node, so propose() would drop the pair anyway.
  uint64_t atomCandidates(uint32_t Q, NodeId BeginI, NodeId EndI,
                          size_t W) const {
    return RoundRows[BeginI.index()].word(W) & EndMask[Q].word(W) &
           ~(RoundRows[EndI.index()].word(W) & SingleEntryEnds.word(W));
  }

  /// Premises over chain clocks: ChainEndsOf[Q][c] holds queue Q's end
  /// nodes on chain c, all and mid-entry only, as (position in the
  /// chain, position in the queue) sorted by chain position.  By the
  /// prefix property u reaches chain c's ends from Clock[u][c] on, so a
  /// row's candidates are two range walks per chain (see atomRows).
  /// Rebuilt whenever the clocks commit over a new cover.
  struct ChainEnd {
    uint32_t Pos, J;
    bool operator<(const ChainEnd &O) const { return Pos < O.Pos; }
  };
  struct ChainEnds {
    std::vector<ChainEnd> All, MidEntry;
  };
  std::vector<std::vector<ChainEnds>> ChainEndsOf;
  uint32_t ChainEndsEpoch = 0;

  void buildChainEnds() {
    const ChainClocks &C = *RoundClocks;
    ChainEndsOf.assign(QueueEvents.size(), {});
    for (size_t Q = 0; Q != QueueEvents.size(); ++Q) {
      if (QueueEvents[Q].size() < 2)
        continue;
      ChainEndsOf[Q].resize(C.Chains);
      for (uint32_t J = 0; J != QueueEvents[Q].size(); ++J)
        if (NodeId End = G.endNode(QueueEvents[Q][J]); End.isValid()) {
          ChainEnds &On = ChainEndsOf[Q][C.ChainOf[End.index()]];
          On.All.push_back({C.PosInChain[End.index()], J});
          if (!SingleEntryEnds.test(End.index()))
            On.MidEntry.push_back(On.All.back());
        }
      for (ChainEnds &On : ChainEndsOf[Q]) {
        std::sort(On.All.begin(), On.All.end());
        std::sort(On.MidEntry.begin(), On.MidEntry.end());
      }
    }
    ChainEndsEpoch = C.Epoch;
  }

  bool reaches(NodeId From, NodeId To) const {
    // Pair scans issue millions of queries per round; oracles expose
    // their rows or clocks so the hot path is an inline test.
    if (RoundRows)
      return RoundRows[From.index()].test(To.index());
    return RoundClocks ? RoundClocks->reaches(From, To)
                       : RoundOracle->reaches(From, To);
  }

  void propose(ScanOut &Out, NodeId From, NodeId To,
               uint64_t &Counter) const {
    if (!From.isValid() || !To.isValid())
      return;
    if (reaches(From, To))
      return; // already implied
    Out.Edges.emplace_back(From, To);
    ++Counter;
  }

  // Run[i] = number of consecutive covered links starting at link i;
  // a window of Gap covered links implies the wide conclusion
  // end(i) -> begin(i+Gap) by chaining through program order.
  void computeRuns(size_t K) {
    Run.assign(K - 1, 0);
    for (size_t I = K - 1; I-- > 0;)
      Run[I] = Covered[I] ? (I + 1 < K - 1 ? Run[I + 1] : 0) + 1 : 0;
  }

  /// Evaluates one ordered send pair against queue rules 1-4; the
  /// returned Link tells whether the forward conclusion
  /// end(e1) -> begin(e2) is covered afterwards.  Only adjacent pairs
  /// need it (WantLink), so other callers skip its query.
  bool evalSendPair(ScanOut &Out, const SendOp &S1, const SendOp &S2,
                    bool WantLink) const {
    NodeId Begin1 = G.beginNode(S1.Event);
    NodeId Begin2 = G.beginNode(S2.Event);
    NodeId End1 = G.endNode(S1.Event);
    NodeId End2 = G.endNode(S2.Event);
    bool Link = WantLink && End1.isValid() && Begin2.isValid() &&
                reaches(End1, Begin2);
    // All rules require the sends to be ordered; sends appear in
    // record order so only s1 < s2 (by position) can satisfy it.
    if (!reaches(S1.Node, S2.Node))
      return Link;
    if (!S1.AtFront && !S2.AtFront) {
      // Rule 1: FIFO among ordered sends when delay1 <= delay2.
      if (S1.DelayMs <= S2.DelayMs) {
        propose(Out, End1, Begin2, Out.Q1);
        Link |= End1.isValid() && Begin2.isValid();
      }
    } else if (!S1.AtFront && S2.AtFront) {
      // Rule 2: the front-enqueued event jumps ahead when it is
      // enqueued before e1 can begin.
      if (Begin1.isValid() && reaches(S2.Node, Begin1))
        propose(Out, End2, Begin1, Out.Q2);
    } else if (S1.AtFront && !S2.AtFront) {
      // Rule 3: an already-front event precedes later sends.
      propose(Out, End1, Begin2, Out.Q3);
      Link |= End1.isValid() && Begin2.isValid();
    } else {
      // Rule 4: later front-send jumps ahead of an earlier
      // front-send it provably precedes.
      if (Begin1.isValid() && reaches(S2.Node, Begin1))
        propose(Out, End2, Begin1, Out.Q4);
    }
    return Link;
  }

  // -- Queue scans --------------------------------------------------------
  //
  // Each queue's scan has three parts.  Gap 1 evaluates adjacent pairs
  // capped against the round and records the covered links; it runs in
  // full every round (linear, and Covered must be fresh), and a cap cut
  // there leaves the tail uncovered, which is safe.  The wider pairs are
  // then tried row-major and uncapped into Side.  Its output is kept
  // when the round stays under the cap: the capped gap-diagonal walk
  // could then never have cut, and it would have proposed the same
  // pairs in another order -- which the sorted, deduplicated batch
  // cannot tell apart.  Otherwise Side is dropped and the capped walk
  // runs, so the derived edges, counters and cursors never depend on
  // which path ran.  Young fixpoints hit the cap (rounds stay small, so
  // the oracle learns a chain's adjacent edges before the wide pairs are
  // asked); steady-state rounds take the row-major path.

  /// Scans one atomicity queue for this round into \p Main.  \returns
  /// true when the scan completed (the caller marks the queue fully
  /// seen); a cap cut stores the cursor itself.
  bool scanAtomQueue(size_t Qi, ScanOut &Main, size_t Cap) {
    const std::vector<TaskId> &Events = QueueEvents[Qi];
    const size_t K = Events.size();
    Covered.assign(K - 1, 0);
    for (size_t I = 0; I + 1 < K && Main.Edges.size() < Cap; ++I) {
      NodeId BeginI = G.beginNode(Events[I]);
      NodeId EndI = G.endNode(Events[I]);
      NodeId EndJ = G.endNode(Events[I + 1]);
      NodeId BeginJ = G.beginNode(Events[I + 1]);
      bool Link =
          EndI.isValid() && BeginJ.isValid() && reaches(EndI, BeginJ);
      if (BeginI.isValid() && EndJ.isValid() && BeginJ.isValid() &&
          reaches(BeginI, EndJ)) {
        // Atomicity: begin(eI) < end(eJ)  =>  end(eI) < begin(eJ).
        propose(Main, EndI, BeginJ, Main.Atomicity);
        Link |= EndI.isValid(); // implied before, or in the batch now
      }
      Covered[I] = Link;
    }
    computeRuns(K);
    if (Run[0] == K - 1)
      // Every wider conclusion is implied by the covered chain, now
      // and forever (edges are never removed) -- the whole queue
      // counts as seen.
      return true;
    if (Main.Edges.size() < Cap) {
      Side.clear();
      if (atomRows(Qi, Side, Cap - Main.Edges.size())) {
        Main.append(Side);
        return true;
      }
    }
    return atomGapDiagonal(Qi, Main, Cap);
  }

  /// Row-major, uncapped scan of one atomicity queue's pairs at gap >= 2
  /// into \p Out.  Gives up (false) once \p Out holds \p Limit
  /// proposals.  With closure rows, row I's premises are answered a
  /// word at a time (atomCandidates); with chain clocks, as position
  /// ranges per chain.  Either way the candidate set is the same and
  /// only it reaches the per-pair filters; an oracle with neither walks
  /// the pairs.
  bool atomRows(size_t Qi, ScanOut &Out, size_t Limit) {
    const std::vector<TaskId> &Events = QueueEvents[Qi];
    const size_t K = Events.size();
    for (size_t I = 0; I + 2 < K; ++I) {
      NodeId BeginI = G.beginNode(Events[I]);
      NodeId EndI = G.endNode(Events[I]);
      if (!BeginI.isValid() || !EndI.isValid())
        continue; // no premise, or nothing to order
      // Pairs within the covered run are implied.
      size_t First = std::max<size_t>(2, size_t(Run[I]) + 1);
      if (I + First >= K)
        continue;
      if (RoundRows) {
        for (size_t W = BeginI.index() >> 6,
                    WE = RoundRows[BeginI.index()].numWords();
             W != WE; ++W)
          for (uint64_t Bits = atomCandidates(static_cast<uint32_t>(Qi),
                                              BeginI, EndI, W);
               Bits; Bits &= Bits - 1) {
            uint32_t J = EndPos[W * 64 + __builtin_ctzll(Bits)];
            if (J >= I + First)
              propose(Out, EndI, G.beginNode(Events[J]), Out.Atomicity);
          }
      } else if (RoundClocks) {
        auto Consider = [&](const ChainEnd &E) {
          if (E.J >= I + First)
            propose(Out, EndI, G.beginNode(Events[E.J]), Out.Atomicity);
        };
        const std::vector<ChainEnds> &ByChain = ChainEndsOf[Qi];
        for (uint32_t C = 0; C != ByChain.size(); ++C) {
          // begin(eI) reaches chain C's ends from Lo on, end(eI) from Hi
          // on.  Ends in [Lo, Hi) are candidates; at or past Hi the
          // conclusion is implied for single-entry ends, so only
          // mid-entry ends remain -- the closure filter, range by range.
          const ChainEnds &On = ByChain[C];
          if (On.All.empty())
            continue;
          uint32_t Lo = RoundClocks->clock(BeginI, C);
          uint32_t Hi = std::max(Lo, RoundClocks->clock(EndI, C));
          for (auto It = std::lower_bound(On.All.begin(), On.All.end(),
                                          ChainEnd{Lo, 0});
               It != On.All.end() && It->Pos < Hi; ++It)
            Consider(*It);
          for (auto It = std::lower_bound(On.MidEntry.begin(),
                                          On.MidEntry.end(), ChainEnd{Hi, 0});
               It != On.MidEntry.end(); ++It)
            Consider(*It);
        }
      } else {
        for (size_t J = I + First; J < K; ++J) {
          NodeId EndJ = G.endNode(Events[J]);
          NodeId BeginJ = G.beginNode(Events[J]);
          if (EndJ.isValid() && BeginJ.isValid() && reaches(BeginI, EndJ))
            propose(Out, EndI, BeginJ, Out.Atomicity);
        }
      }
      if (Out.Edges.size() >= Limit)
        return false;
    }
    return Out.Edges.size() < Limit;
  }

  /// The capped gap-diagonal walk over one atomicity queue's pairs at
  /// gap >= 2, after its gap-1 pass.
  bool atomGapDiagonal(size_t Qi, ScanOut &Out, size_t Cap) {
    const std::vector<TaskId> &Events = QueueEvents[Qi];
    const size_t K = Events.size();
    const size_t CGap = AtomCursor[Qi].Gap, CI = AtomCursor[Qi].I;
    for (size_t Gap = 2; Gap < K; ++Gap) {
      for (size_t I = 0; I + Gap < K; ++I) {
        if (Run[I] >= Gap)
          continue; // conclusion implied by chained covered links
        bool Seen = Gap < CGap || (Gap == CGap && I < CI);
        if (!Seen && Out.Edges.size() >= Cap) {
          // Everything past the cursor stays unseen.
          AtomCursor[Qi] = {static_cast<uint32_t>(Gap),
                            static_cast<uint32_t>(I)};
          return false;
        }
        size_t J = I + Gap;
        NodeId BeginI = G.beginNode(Events[I]);
        NodeId EndI = G.endNode(Events[I]);
        NodeId EndJ = G.endNode(Events[J]);
        NodeId BeginJ = G.beginNode(Events[J]);
        if (!BeginI.isValid() || !EndJ.isValid() || !BeginJ.isValid())
          continue;
        // Atomicity: begin(eI) < end(eJ)  =>  end(eI) < begin(eJ).
        if (reaches(BeginI, EndJ))
          propose(Out, EndI, BeginJ, Out.Atomicity);
      }
    }
    return true;
  }

  /// Scans one send queue for this round into \p Main; same contract
  /// as scanAtomQueue.
  bool scanSendQueue(size_t Qi, ScanOut &Main, size_t Cap) {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    const size_t K = Sends.size();
    Covered.assign(K - 1, 0);
    for (size_t A = 0; A + 1 < K && Main.Edges.size() < Cap; ++A)
      Covered[A] =
          evalSendPair(Main, Sends[A], Sends[A + 1], /*WantLink=*/true);
    computeRuns(K);
    if (Run[0] == K - 1 && QueueFronts[Qi].empty())
      // Every wider rule-1/3 conclusion is implied by the covered
      // chain, and the reverse-direction rules 2/4 need a
      // front-enqueued s2.  A queue with no front sends is therefore
      // fully implied, now and forever (edges are never removed, and
      // AtFront is a static property of the send).
      return true;
    if (Main.Edges.size() < Cap) {
      Side.clear();
      if (sendRows(Qi, Side, Cap - Main.Edges.size())) {
        Main.append(Side);
        return true;
      }
    }
    return sendGapDiagonal(Qi, Main, Cap);
  }

  /// Row-major, uncapped scan of one send queue's pairs at gap >= 2;
  /// same contract as atomRows.  A covered window implies the forward
  /// conclusion of rules 1 and 3, so inside it only front-enqueued s2
  /// (rules 2 and 4, reverse conclusion) are visited.
  bool sendRows(size_t Qi, ScanOut &Out, size_t Limit) {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    const std::vector<uint32_t> &Fronts = QueueFronts[Qi];
    const size_t K = Sends.size();
    for (size_t A = 0; A + 2 < K; ++A) {
      const SendOp &S1 = Sends[A];
      size_t Past = std::max<size_t>(2, size_t(Run[A]) + 1);
      for (auto It = std::lower_bound(Fronts.begin(), Fronts.end(), A + 2);
           It != Fronts.end() && *It < A + Past; ++It)
        evalSendPair(Out, S1, Sends[*It], /*WantLink=*/false);
      for (size_t Gap = Past; A + Gap < K; ++Gap)
        evalSendPair(Out, S1, Sends[A + Gap], /*WantLink=*/false);
      if (Out.Edges.size() >= Limit)
        return false;
    }
    return Out.Edges.size() < Limit;
  }

  /// The capped gap-diagonal walk over one send queue's pairs at
  /// gap >= 2, after its gap-1 pass.
  bool sendGapDiagonal(size_t Qi, ScanOut &Out, size_t Cap) {
    const std::vector<SendOp> &Sends = QueueSends[Qi];
    const size_t K = Sends.size();
    const size_t CGap = SendCursor[Qi].Gap, CI = SendCursor[Qi].I;
    for (size_t Gap = 2; Gap < K; ++Gap) {
      for (size_t A = 0; A + Gap < K; ++A) {
        const SendOp &S1 = Sends[A];
        const SendOp &S2 = Sends[A + Gap];
        // A covered window implies the forward conclusion of rules
        // 1 and 3; only a front-enqueued s2 (rules 2 and 4, reverse
        // conclusion) still needs evaluating.
        if (Run[A] >= Gap && !S2.AtFront)
          continue;
        bool Seen = Gap < CGap || (Gap == CGap && A < CI);
        if (!Seen && Out.Edges.size() >= Cap) {
          // Everything past the cursor stays unseen.
          SendCursor[Qi] = {static_cast<uint32_t>(Gap),
                            static_cast<uint32_t>(A)};
          return false;
        }
        evalSendPair(Out, S1, S2, /*WantLink=*/false);
      }
    }
    return true;
  }

  /// One fixpoint round of the atomicity and event-queue rules.
  ///
  /// Pairs are scanned in gap-diagonal order (all adjacent pairs first,
  /// then distance 2, ...) and each round caps the number of edges it
  /// collects.  Both choices fight the same degenerate case: a chain of
  /// k same-delay sends satisfies rule 1 for all k^2/2 pairs, but only
  /// the k-1 adjacent edges carry information -- every wider pair is
  /// implied by chaining them through program order.  (A round that
  /// stays under the cap may visit the wider pairs in any order; see
  /// the queue scans above.)
  ///
  /// The chain structure is also what lets the scan prune: gap 1
  /// records which adjacent conclusions are *covered* (already implied,
  /// or proposed into this round's batch), and a wider pair whose whole
  /// window is covered is skipped without a query -- its conclusion is
  /// implied by the covered links, so proposing it would either be
  /// rejected or insert a redundant edge.
  ///
  /// Every round rescans every queue in full.  With closure rows or
  /// chain clocks the atomicity premises are answered a 64-bit word or
  /// a chain range at a time (atomRows), so a full rescan costs about
  /// what tracking which facts changed since the last round would.  The
  /// only skips are of pairs that provably propose nothing new, so the
  /// fixpoint -- and therefore every report -- is identical across
  /// oracles; only time and memory differ.  \p Time receives the round's scan timings and the
  /// graph-insertion share of its update.
  ///
  /// \returns the edges added this round (already inserted into the
  /// graph), for the oracle's addEdges().
  std::vector<HbEdge> applyDerivedRules(const Reachability &Oracle,
                                        HbRoundTiming &Time) {
    // Keep rounds small: the oracle's round-boundary update is cheap,
    // and the sooner it reflects a chain's adjacent edges, the more
    // wide-gap pairs the next scan skips as implied -- tighter rounds
    // insert strictly fewer redundant edges.
    const size_t ChunkCap = G.numNodes() / 8 + 1024;

    RoundOracle = &Oracle;
    RoundRows = Oracle.rowsOrNull();
    RoundClocks = RoundRows ? nullptr : Oracle.clocksOrNull();
    if (Opt.EnableAtomicityRule && (RoundRows || RoundClocks)) {
      if (!HaveSingleEntry)
        buildSingleEntryEnds();
      if (RoundRows && !HaveMasks)
        buildPremiseMasks();
      if (RoundClocks && ChainEndsEpoch != RoundClocks->Epoch)
        buildChainEnds();
    }
    if (Opt.EnableAtomicityRule && AtomCursor.size() != QueueEvents.size())
      AtomCursor.assign(QueueEvents.size(), {});
    if (Opt.EnableQueueRules && SendCursor.size() != QueueSends.size())
      SendCursor.assign(QueueSends.size(), {});

    auto Lap = [Start = std::chrono::steady_clock::now()]() mutable {
      auto Now = std::chrono::steady_clock::now();
      double Ms = std::chrono::duration<double, std::milli>(Now - Start)
                      .count();
      Start = Now;
      return Ms;
    };

    // The round accumulates in canonical order: atomicity queues
    // ascending, then send queues ascending.
    ScanOut Main;
    if (Opt.EnableAtomicityRule)
      for (size_t Qi = 0; Qi != QueueEvents.size(); ++Qi) {
        size_t K = QueueEvents[Qi].size();
        if (K >= 2 && scanAtomQueue(Qi, Main, ChunkCap))
          AtomCursor[Qi] = {static_cast<uint32_t>(K), 0};
      }
    Time.AtomicityMillis = Lap();
    if (Opt.EnableQueueRules)
      for (size_t Qi = 0; Qi != QueueSends.size(); ++Qi) {
        size_t K = QueueSends[Qi].size();
        if (K >= 2 && scanSendQueue(Qi, Main, ChunkCap))
          SendCursor[Qi] = {static_cast<uint32_t>(K), 0};
      }
    Time.QueueMillis = Lap();

    // Apply the batch (dedup first: atomicity and queue rules can derive
    // the same event-level edge).
    std::vector<std::pair<NodeId, NodeId>> &NewEdges = Main.Edges;
    std::sort(NewEdges.begin(), NewEdges.end(),
              [](const std::pair<NodeId, NodeId> &X,
                 const std::pair<NodeId, NodeId> &Y) {
                if (X.first != Y.first)
                  return X.first < Y.first;
                return X.second < Y.second;
              });
    NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                   NewEdges.end());
    std::vector<HbEdge> Batch;
    Batch.reserve(NewEdges.size());
    // Only edges the graph actually accepted may reach the oracle and
    // the checkpoint frontier: a rejected contradiction (corrupted
    // trace) must neither teach the oracle a fact the graph does not
    // hold nor stall convergence by re-entering the batch every round.
    for (auto [From, To] : NewEdges)
      if (G.addEdge(From, To))
        Batch.push_back({From, To});

    Stats.AtomicityEdges += Main.Atomicity;
    Stats.QueueRule1Edges += Main.Q1;
    Stats.QueueRule2Edges += Main.Q2;
    Stats.QueueRule3Edges += Main.Q3;
    Stats.QueueRule4Edges += Main.Q4;
    Time.UpdateMillis = Lap();
    return Batch;
  }
};

HbIndex::HbIndex(const Trace &T, const TaskIndex &Index,
                 const HbOptions &Options, const HbCheckpointing *Checkpoint)
    : T(T), Index(Index),
      Graph(std::make_unique<HbGraph>(T, Index)) {
  auto Now = [] { return std::chrono::steady_clock::now(); };
  auto Ms = [](auto A, auto B) {
    return std::chrono::duration<double, std::milli>(B - A).count();
  };

  auto TGraph = Now();
  Builder B(T, *Graph, Options, Stats);
  B.collect();
  B.addBaseEdges();

  // Resume path: replay the checkpointed derived edges onto the fresh
  // base graph.  Base construction is deterministic, so after the replay
  // the graph matches the checkpointed run's graph edge for edge; the
  // counters are then restored wholesale (their base components are
  // identical by the same argument).
  const HbFrontier *R = Checkpoint ? Checkpoint->Resume : nullptr;
  if (R) {
    for (const HbEdge &E : R->DerivedEdges)
      Graph->addEdge(E.From, E.To);
    Stats = R->Stats;
    Kept.DerivedEdges = R->DerivedEdges;
  }
  auto TBase = Now();

  // Memory rung of the degradation ladder: build the requested oracle
  // under a byte budget that counts real allocations; if even that
  // overruns MemLimitBytes, fall to BFS, which keeps no precomputed
  // state and is the always-accepted floor.  All oracles answer
  // reachability queries identically, so a downgrade changes build time
  // and memory but keeps every downstream report bit-identical.  A
  // resume builds its oracle the same way, over the replayed graph.
  Degrade.RequestedReach = resolveReachMode(Options.Reach);
  Degrade.UsedReach = Degrade.RequestedReach;
  Reach = makeReachability(*Graph, Degrade.UsedReach, Options.MemLimitBytes);
  if (Reach->budgetExceeded()) {
    Reach = makeReachability(*Graph, ReachMode::Bfs);
    Degrade.UsedReach = ReachMode::Bfs;
    Degrade.DowngradedForMemory = true;
  }
  Timing.OracleInitMillis = Ms(TBase, Now());

  // Syncs everything but the edges (which accumulate live) into Kept so
  // exportFrontier() can freeze a consistent snapshot at any boundary.
  auto SyncKept = [&] {
    Kept.UsedReach = Degrade.UsedReach;
    Kept.RoundsDone = Stats.FixpointRounds;
    Kept.Saturated = Converged;
    Kept.Stats = Stats;
    Kept.AtomCursors = B.AtomCursor;
    Kept.SendCursors = B.SendCursor;
    Kept.UnsaturatedRules = Degrade.UnsaturatedRules;
  };

  if (R) {
    // Restore the scan frontiers, so the per-round edge cap cuts the
    // resumed rounds exactly where it would have cut the uninterrupted
    // run (re-evaluating a seen pair is always sound; it just proposes
    // nothing new).
    if (R->AtomCursors.size() == B.QueueEvents.size())
      B.AtomCursor = R->AtomCursors;
    if (R->SendCursors.size() == B.QueueSends.size())
      B.SendCursor = R->SendCursors;
  }

  Converged = true;
  if (Options.Model == OrderingModel::Cafa &&
      (Options.EnableAtomicityRule || Options.EnableQueueRules) &&
      !(R && R->Saturated)) {
    Converged = false;
    double LastSaveMs = 0;
    uint32_t StartRound = Stats.FixpointRounds;
    for (uint32_t Round = StartRound; Round != Options.MaxFixpointRounds;
         ++Round) {
      // Time rung of the degradation ladder: stop starting rounds past
      // the deadline.  Edges already derived stay -- the relation only
      // ever under-approximates, which can add race candidates
      // downstream but never hides one.
      if (Options.DeadlineMillis > 0 &&
          Ms(TGraph, Now()) > Options.DeadlineMillis) {
        Degrade.DeadlineExceeded = true;
        break;
      }
      ++Stats.FixpointRounds;
      HbRoundTiming &Time = Timing.Rounds.emplace_back();
      std::vector<HbEdge> Added = B.applyDerivedRules(*Reach, Time);
      if (Added.empty()) {
        Converged = true;
        break;
      }
      // The graph already holds this round's edges; the oracle folds
      // them in.
      auto TUpdate = Now();
      Reach->addEdges(Added);
      Time.UpdateMillis += Ms(TUpdate, Now());
      Kept.DerivedEdges.insert(Kept.DerivedEdges.end(), Added.begin(),
                               Added.end());
      // Cadence checkpoint: a round boundary is a consistent freeze
      // point, and the frontier is edges and cursors only -- cheap to
      // copy at any cadence.
      if (Checkpoint && Checkpoint->Save && Checkpoint->EveryMillis > 0 &&
          Ms(TGraph, Now()) - LastSaveMs >= Checkpoint->EveryMillis) {
        LastSaveMs = Ms(TGraph, Now());
        SyncKept();
        Checkpoint->Save(exportFrontier());
      }
    }
    if (!Converged) {
      // The cut relation is missing edges from exactly the rule families
      // the fixpoint was still deriving.
      if (Options.EnableAtomicityRule)
        Degrade.UnsaturatedRules.push_back("atomicity");
      if (Options.EnableQueueRules)
        Degrade.UnsaturatedRules.push_back("event-queue");
      // Deadline cut: always leave a frontier behind so the interrupted
      // work is resumable regardless of cadence.
      if (Checkpoint && Checkpoint->Save) {
        SyncKept();
        Checkpoint->Save(exportFrontier());
      }
    }
  }
  // The chain oracle's footprint and cover evolve across the fixpoint
  // (clocks commit the first round the cover collapses under the cap),
  // so re-measure: degradation() reports the kept oracle's final shape.
  Degrade.MeasuredReachBytes = Reach->memoryBytes();
  Degrade.ChainCount = Reach->chainCount();
  Degrade.ClocksCommitted = Reach->clocksOrNull() != nullptr;
  SyncKept();
}

HbIndex::~HbIndex() = default;

bool HbIndex::happensBefore(uint32_t A, uint32_t B) const {
  if (A == B)
    return false;
  const TraceRecord &RecA = T.record(A);
  const TraceRecord &RecB = T.record(B);
  if (RecA.Task == RecB.Task)
    return Index.localIndexOf(A) < Index.localIndexOf(B);
  NodeId P = Graph->firstNodeAtOrAfter(A);
  NodeId Q = Graph->lastNodeAtOrBefore(B);
  if (!P.isValid() || !Q.isValid())
    return false;
  return Reach->reaches(P, Q);
}

bool HbIndex::taskOrdered(TaskId E1, TaskId E2) const {
  if (E1 == E2)
    return false;
  NodeId End1 = Graph->endNode(E1);
  NodeId Begin2 = Graph->beginNode(E2);
  if (!End1.isValid() || !Begin2.isValid())
    return false;
  return Reach->reaches(End1, Begin2);
}

void HbIndex::shedOracle() {
  Reach = makeReachability(*Graph, ReachMode::Bfs);
}

size_t HbIndex::memoryBytes() const {
  size_t Adj = 0;
  for (uint32_t I = 0, E = static_cast<uint32_t>(Graph->numNodes()); I != E;
       ++I)
    Adj += Graph->successors(NodeId(I)).capacity() * 4;
  return Adj + Reach->memoryBytes();
}
