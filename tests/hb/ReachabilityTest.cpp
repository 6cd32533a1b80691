//===- tests/hb/ReachabilityTest.cpp ------------------------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Property tests: the three reachability oracles must agree on every
// query over randomly generated (but structurally valid) traces -- both
// through the full HbIndex fixpoint and under raw random DAGs grown by
// edge batches -- and the happens-before relation must be a strict
// partial order.
//
//===----------------------------------------------------------------------===//

#include "hb/HbIndex.h"

#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "trace/Validate.h"

#include <gtest/gtest.h>

using namespace cafa;

namespace {

/// Generates a random structurally valid trace: several queues and
/// threads, events sent with random delays / at-front flags, random
/// fork/join, notify/wait, listener and IPC traffic, and memory accesses
/// sprinkled throughout.
Trace randomTrace(uint64_t Seed, size_t Steps) {
  Rng R(Seed);
  TraceBuilder TB;

  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I)
    Queues.push_back(TB.addQueue("q" + std::to_string(I)));
  std::vector<ListenerId> Listeners;
  for (int I = 0; I != 2; ++I)
    Listeners.push_back(TB.addListener("l" + std::to_string(I)));

  struct LiveTask {
    TaskId Id;
    bool IsEvent;
    QueueId Queue;
  };
  std::vector<LiveTask> Running;   // begun, not ended
  std::vector<LiveTask> Pending;   // events sent, not begun
  std::vector<TaskId> EndedThreads;
  std::vector<TaskId> ActivePerQueue(Queues.size(), TaskId::invalid());
  std::vector<bool> Registered(Listeners.size(), false);
  uint32_t NextTxn = 1;
  std::vector<uint32_t> SentTxns;

  // Root threads.
  for (int I = 0, E = 2 + static_cast<int>(R.below(3)); I != E; ++I) {
    TaskId T = TB.addThread("thread" + std::to_string(I));
    TB.begin(T);
    Running.push_back({T, false, QueueId()});
  }

  size_t EventCounter = 0;
  for (size_t Step = 0; Step != Steps; ++Step) {
    // Pick a running task to perform the next operation.
    LiveTask &Actor = Running[R.below(Running.size())];
    switch (R.below(12)) {
    case 0: { // send a new event
      QueueId Q = Queues[R.below(Queues.size())];
      bool AtFront = R.chance(1, 5);
      uint64_t Delay = AtFront ? 0 : R.below(4);
      TaskId E = TB.addEvent("event" + std::to_string(EventCounter++), Q,
                             Delay, AtFront, false);
      if (AtFront)
        TB.sendAtFront(Actor.Id, E);
      else
        TB.send(Actor.Id, E, Delay);
      Pending.push_back({E, true, Q});
      break;
    }
    case 1: { // begin a pending event whose queue is idle
      for (size_t I = 0; I != Pending.size(); ++I) {
        LiveTask &P = Pending[I];
        if (ActivePerQueue[P.Queue.index()].isValid())
          continue;
        TB.begin(P.Id);
        if (R.chance(1, 4) && Registered[0])
          TB.performListener(P.Id, Listeners[0]);
        ActivePerQueue[P.Queue.index()] = P.Id;
        Running.push_back(P);
        Pending.erase(Pending.begin() + static_cast<long>(I));
        break;
      }
      break;
    }
    case 2: { // end an event (frees its queue)
      if (Actor.IsEvent) {
        ActivePerQueue[Actor.Queue.index()] = TaskId::invalid();
        TB.end(Actor.Id);
        Running.erase(Running.begin() + (&Actor - Running.data()));
      }
      break;
    }
    case 3: { // fork a thread
      TaskId T = TB.addThread("forked" + std::to_string(Step));
      TB.fork(Actor.Id, T);
      TB.begin(T);
      Running.push_back({T, false, QueueId()});
      break;
    }
    case 4: { // end + join an old thread
      if (!Actor.IsEvent && Running.size() > 2 && R.chance(1, 2)) {
        // End the actor so someone can join it later.
        TB.end(Actor.Id);
        EndedThreads.push_back(Actor.Id);
        Running.erase(Running.begin() + (&Actor - Running.data()));
      } else if (!EndedThreads.empty()) {
        TB.join(Actor.Id, EndedThreads[R.below(EndedThreads.size())]);
      }
      break;
    }
    case 5:
      TB.notify(Actor.Id, static_cast<uint32_t>(R.below(2)));
      break;
    case 6:
      TB.wait(Actor.Id, static_cast<uint32_t>(R.below(2)));
      break;
    case 7: {
      size_t L = R.below(Listeners.size());
      TB.registerListener(Actor.Id, Listeners[L]);
      Registered[L] = true;
      break;
    }
    case 8: { // ipc send / recv pairing
      if (R.chance(1, 2) || SentTxns.empty()) {
        TB.ipcSend(Actor.Id, NextTxn);
        SentTxns.push_back(NextTxn++);
      } else {
        TB.ipcRecv(Actor.Id, SentTxns.back());
        SentTxns.pop_back();
      }
      break;
    }
    default:
      if (R.chance(1, 2))
        TB.read(Actor.Id, static_cast<uint32_t>(R.below(8)));
      else
        TB.write(Actor.Id, static_cast<uint32_t>(R.below(8)));
      break;
    }
    if (Running.empty())
      break;
  }
  // Close everything still running.
  for (const LiveTask &L : Running)
    TB.end(L.Id);
  return TB.take();
}

class ReachabilityPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReachabilityPropertyTest, AllOraclesAgreeOnRandomTraces) {
  Trace T = randomTrace(GetParam(), 400);
  ASSERT_TRUE(validateTrace(T).ok()) << validateTrace(T).message();
  TaskIndex Index(T);

  HbOptions ClosureOpt;
  ClosureOpt.Reach = ReachMode::Closure;
  HbIndex HbClosure(T, Index, ClosureOpt);
  HbOptions BfsOpt;
  BfsOpt.Reach = ReachMode::Bfs;
  HbIndex HbBfs(T, Index, BfsOpt);
  HbOptions ChainOpt;
  ChainOpt.Reach = ReachMode::Chain;
  HbIndex HbChain(T, Index, ChainOpt);

  Rng R(GetParam() ^ 0xABCDEF);
  uint32_t N = static_cast<uint32_t>(T.numRecords());
  ASSERT_GT(N, 0u);
  for (int I = 0; I != 3000; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    bool Expected = HbClosure.happensBefore(A, B);
    EXPECT_EQ(Expected, HbBfs.happensBefore(A, B))
        << "records " << A << " -> " << B;
    EXPECT_EQ(Expected, HbChain.happensBefore(A, B))
        << "records " << A << " -> " << B;
  }
}

TEST_P(ReachabilityPropertyTest, HappensBeforeIsStrictPartialOrder) {
  Trace T = randomTrace(GetParam() + 77, 300);
  ASSERT_TRUE(validateTrace(T).ok());
  TaskIndex Index(T);
  HbIndex Hb(T, Index, HbOptions());

  Rng R(GetParam());
  uint32_t N = static_cast<uint32_t>(T.numRecords());
  for (int I = 0; I != 500; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    uint32_t C = static_cast<uint32_t>(R.below(N));
    // Irreflexivity.
    EXPECT_FALSE(Hb.happensBefore(A, A));
    // Antisymmetry.
    if (Hb.happensBefore(A, B)) {
      EXPECT_FALSE(Hb.happensBefore(B, A));
    }
    // Transitivity.
    if (Hb.happensBefore(A, B) && Hb.happensBefore(B, C)) {
      EXPECT_TRUE(Hb.happensBefore(A, C));
    }
    // Consistency with trace order: HB never points backward.
    if (Hb.happensBefore(A, B)) {
      EXPECT_LT(T.record(A).Time, T.record(B).Time + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                         89));

/// Differential test of the oracle layer itself: random DAGs (the
/// program-order skeleton of a random trace) grown by random batches of
/// forward edges, with the closure and chain oracles exercising an
/// arbitrary interleaving of their addEdges sweep and full refresh()
/// rebuilds.  After every batch both must agree on reaches(u, v) with a
/// closure freshly built over the grown graph -- exhaustively on small
/// graphs -- and the BFS on a sample.  Over the same trace, the rule
/// engine's three premise paths -- closure-row words (Closure), chain
/// clock ranges (Chain) and per-pair queries (Bfs) -- must derive the
/// same edges in the same order, with the same counters and scan
/// cursors.
class IncrementalDifferentialTest : public testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalDifferentialTest, OraclesAgreeUnderIncrementalBatches) {
  uint64_t Seed = GetParam();
  Trace T = randomTrace(Seed * 7919 + 17, 150);
  ASSERT_TRUE(validateTrace(T).ok());
  TaskIndex Index(T);
  {
    HbOptions WordOpt, ClockOpt, PairOpt;
    WordOpt.Reach = ReachMode::Closure;
    ClockOpt.Reach = ReachMode::Chain;
    PairOpt.Reach = ReachMode::Bfs;
    HbIndex Word(T, Index, WordOpt);
    HbIndex Clock(T, Index, ClockOpt);
    HbIndex Pair(T, Index, PairOpt);
    // Small random traces saturate into a narrow cover, so the chain
    // run must end on committed clocks: the clock premise path cannot
    // silently fall back to rows or per-pair queries.
    ASSERT_TRUE(Clock.degradation().ClocksCommitted) << "seed " << Seed;
    const HbFrontier &P = Pair.exportFrontier();
    for (const HbIndex *Other : {&Word, &Clock}) {
      const HbFrontier &W = Other->exportFrontier();
      ASSERT_EQ(W.DerivedEdges.size(), P.DerivedEdges.size())
          << "seed " << Seed;
      for (size_t I = 0; I != W.DerivedEdges.size(); ++I) {
        ASSERT_EQ(W.DerivedEdges[I].From, P.DerivedEdges[I].From)
            << "seed " << Seed << " edge " << I;
        ASSERT_EQ(W.DerivedEdges[I].To, P.DerivedEdges[I].To)
            << "seed " << Seed << " edge " << I;
      }
      const HbRuleStats &SW = Other->ruleStats(), &SP = Pair.ruleStats();
      EXPECT_EQ(SW.AtomicityEdges, SP.AtomicityEdges) << "seed " << Seed;
      EXPECT_EQ(SW.QueueRule1Edges, SP.QueueRule1Edges) << "seed " << Seed;
      EXPECT_EQ(SW.QueueRule2Edges, SP.QueueRule2Edges) << "seed " << Seed;
      EXPECT_EQ(SW.QueueRule3Edges, SP.QueueRule3Edges) << "seed " << Seed;
      EXPECT_EQ(SW.QueueRule4Edges, SP.QueueRule4Edges) << "seed " << Seed;
      EXPECT_EQ(SW.FixpointRounds, SP.FixpointRounds) << "seed " << Seed;
      auto SameCursors = [&](const std::vector<HbScanCursor> &A,
                             const std::vector<HbScanCursor> &B) {
        ASSERT_EQ(A.size(), B.size()) << "seed " << Seed;
        for (size_t I = 0; I != A.size(); ++I) {
          EXPECT_EQ(A[I].Gap, B[I].Gap) << "seed " << Seed << " queue " << I;
          EXPECT_EQ(A[I].I, B[I].I) << "seed " << Seed << " queue " << I;
        }
      };
      SameCursors(W.AtomCursors, P.AtomCursors);
      SameCursors(W.SendCursors, P.SendCursors);
    }
  }
  HbGraph G(T, Index); // program-order chains only

  ClosureReachability Closure(G);
  BfsReachability Bfs(G);
  ChainReachability Chain(G);
  // The program-order skeleton is a disjoint union of task chains, so
  // the greedy cover is narrow and the clock matrix must be live; the
  // assertion keeps a policy regression from silently demoting every
  // query to the search phase (which would still pass the agreement
  // checks but leave the clock sweep untested).
  ASSERT_TRUE(Chain.clocksOrNull()) << "seed " << Seed;

  Rng R(Seed ^ 0x5EED5EEDull);
  uint32_t N = static_cast<uint32_t>(G.numNodes());
  ASSERT_GT(N, 1u);

  for (int Batch = 0; Batch != 4; ++Batch) {
    // Grow the DAG by a random batch of forward edges (node ids ascend
    // in record order, so A < B keeps every edge forward / acyclic).
    std::vector<HbEdge> Edges;
    for (size_t I = 0, E = 1 + R.below(8); I != E; ++I) {
      uint32_t A = static_cast<uint32_t>(R.below(N));
      uint32_t B = static_cast<uint32_t>(R.below(N));
      if (A == B)
        continue;
      if (A > B)
        std::swap(A, B);
      G.addEdge(NodeId(A), NodeId(B));
      Edges.push_back({NodeId(A), NodeId(B)});
    }

    if (!R.chance(1, 3)) {
      Closure.addEdges(Edges);
      Chain.addEdges(Edges);
    } else {
      Closure.refresh(); // interleave full rebuilds with batch sweeps
      Chain.refresh();
    }
    ASSERT_TRUE(Chain.clocksOrNull())
        << "seed " << Seed << " batch " << Batch;
    const ClosureReachability Fresh(G);

    auto Agree = [&](uint32_t U, uint32_t V) {
      bool Expected = Fresh.reaches(NodeId(U), NodeId(V));
      ASSERT_EQ(Expected, Closure.reaches(NodeId(U), NodeId(V)))
          << "seed " << Seed << " batch " << Batch << " closure " << U
          << "->" << V;
      ASSERT_EQ(Expected, Chain.reaches(NodeId(U), NodeId(V)))
          << "seed " << Seed << " batch " << Batch << " chain " << U
          << "->" << V;
    };
    // The maintained closure and the chain clocks must agree bit for bit
    // with the fresh closure.
    if (N <= 160) {
      for (uint32_t U = 0; U != N; ++U)
        for (uint32_t V = 0; V != N; ++V)
          ASSERT_NO_FATAL_FAILURE(Agree(U, V));
    } else {
      for (int Q = 0; Q != 4000; ++Q)
        ASSERT_NO_FATAL_FAILURE(Agree(static_cast<uint32_t>(R.below(N)),
                                      static_cast<uint32_t>(R.below(N))));
    }
    // The search oracle agrees on a sample (per-query cost is higher).
    for (int Q = 0; Q != 250; ++Q) {
      uint32_t U = static_cast<uint32_t>(R.below(N));
      uint32_t V = static_cast<uint32_t>(R.below(N));
      ASSERT_EQ(Fresh.reaches(NodeId(U), NodeId(V)),
                Bfs.reaches(NodeId(U), NodeId(V)))
          << "seed " << Seed << " batch " << Batch << " " << U << "->" << V;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds100, IncrementalDifferentialTest,
                         testing::Range<uint64_t>(0, 100));

/// Cross-chain edge storm: many parallel task chains with interleaved
/// node ids, then dense batches of cross-chain edges.  Every batch
/// forces the chain oracle to widen clock rows across most chains at
/// once (the worst case for the incremental min-merge sweep), and the
/// clocks must still agree with the closure's rows pair for pair.
TEST(ChainEdgeStormTest, CrossChainBatchesWidenClocksConsistently) {
  constexpr uint32_t NumThreads = 12, ReadsPerThread = 40;
  TraceBuilder TB;
  std::vector<TaskId> Threads;
  for (uint32_t I = 0; I != NumThreads; ++I)
    Threads.push_back(TB.addThread("lane" + std::to_string(I)));
  for (TaskId T : Threads)
    TB.begin(T);
  // Round-robin so consecutive node ids belong to different chains.
  for (uint32_t P = 0; P != ReadsPerThread; ++P)
    for (TaskId T : Threads)
      TB.read(T, P % 8);
  for (TaskId T : Threads)
    TB.end(T);
  Trace T = TB.take();
  ASSERT_TRUE(validateTrace(T).ok());
  TaskIndex Index(T);
  HbGraph G(T, Index);

  ClosureReachability Closure(G);
  ChainReachability Chain(G);
  ASSERT_TRUE(Chain.clocksOrNull());
  ASSERT_GE(Chain.chainCount(), size_t(NumThreads));

  uint32_t N = static_cast<uint32_t>(G.numNodes());
  Rng R(0xC4A1Full);
  for (int Batch = 0; Batch != 8; ++Batch) {
    std::vector<HbEdge> Edges;
    for (int I = 0; I != 64; ++I) {
      // Bias sources early and targets late so a single edge often
      // improves an entire row of chain clocks at once.
      uint32_t A = static_cast<uint32_t>(R.below(N / 2));
      uint32_t B = A + 1 +
                   static_cast<uint32_t>(R.below(N - A - 1));
      G.addEdge(NodeId(A), NodeId(B));
      Edges.push_back({NodeId(A), NodeId(B)});
    }
    Closure.addEdges(Edges);
    Chain.addEdges(Edges);
    ASSERT_TRUE(Chain.clocksOrNull()) << "batch " << Batch;

    for (uint32_t U = 0; U != N; ++U)
      for (uint32_t V = 0; V != N; ++V)
        ASSERT_EQ(Closure.reaches(NodeId(U), NodeId(V)),
                  Chain.reaches(NodeId(U), NodeId(V)))
            << "batch " << Batch << " " << U << "->" << V;
  }
  // The swept rows end where a from-scratch build lands.
  const ClosureReachability Fresh(G);
  for (uint32_t U = 0; U != N; ++U)
    for (uint32_t V = 0; V != N; ++V)
      ASSERT_EQ(Fresh.reaches(NodeId(U), NodeId(V)),
                Closure.reaches(NodeId(U), NodeId(V)))
          << U << "->" << V;
}

} // namespace

namespace {

/// Bootstrap handoff: a base graph wider than MaxChainsForClocks starts
/// the chain oracle on bootstrap closure rows; the batch that collapses
/// the cover commits the clocks and frees the rows without folding the
/// batch into them, and the clocks must still match a fresh closure.
TEST(ChainBootstrapTest, CollapsingBatchHandsRowsOffToClocks) {
  const uint32_t NumThreads = ChainReachability::MaxChainsForClocks + 40;
  TraceBuilder TB;
  std::vector<TaskId> Threads;
  for (uint32_t I = 0; I != NumThreads; ++I) {
    Threads.push_back(TB.addThread("t" + std::to_string(I)));
    TB.begin(Threads.back());
    TB.read(Threads.back(), I % 8);
    TB.end(Threads.back());
  }
  Trace T = TB.take();
  ASSERT_TRUE(validateTrace(T).ok());
  TaskIndex Index(T);
  HbGraph G(T, Index);

  ChainReachability Chain(G);
  ASSERT_EQ(Chain.clocksOrNull(), nullptr);
  ASSERT_NE(Chain.rowsOrNull(), nullptr);
  size_t RowBytes = Chain.memoryBytes();

  // Serialize the threads: one chain covers the whole graph.
  std::vector<HbEdge> Edges;
  for (uint32_t I = 0; I + 1 != NumThreads; ++I) {
    HbEdge E{G.endNode(Threads[I]), G.beginNode(Threads[I + 1])};
    ASSERT_TRUE(G.addEdge(E.From, E.To));
    Edges.push_back(E);
  }
  Chain.addEdges(Edges);
  ASSERT_NE(Chain.clocksOrNull(), nullptr);
  EXPECT_EQ(Chain.rowsOrNull(), nullptr);
  EXPECT_EQ(Chain.chainCount(), 1u);
  EXPECT_LT(Chain.memoryBytes(), RowBytes);

  const ClosureReachability Fresh(G);
  uint32_t N = static_cast<uint32_t>(G.numNodes());
  for (uint32_t U = 0; U != N; ++U)
    for (uint32_t V = 0; V != N; ++V)
      ASSERT_EQ(Fresh.reaches(NodeId(U), NodeId(V)),
                Chain.reaches(NodeId(U), NodeId(V)))
          << U << "->" << V;
}

} // namespace
