//===- perfbench/src/Workloads.cpp - Timed and traced passes ------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Measuring half of the benchmark.  An untraced run drives each input
// through the public one-call path (ingestTraceFile -> analyzeTrace ->
// render, plus confirmRaces on triage) or through a FleetEngine batch,
// and reports end-to-end metrics.  A traced run additionally drives each
// input through the layers one public call at a time, with a span around
// every call, and reports per-layer metrics; its reports must be
// byte-identical to the one-call path's.  Every output is checked against
// a reference that does not come from the analysis; a failed check is
// counted, never fatal.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "cafa/RaceStore.h"
#include "cafa/ReportJson.h"
#include "confirm/Confirm.h"
#include "fleet/Fleet.h"
#include "support/Format.h"
#include "support/Timer.h"
#include "trace/IngestSession.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <optional>
#include <set>
#include <sys/resource.h>
#include <unistd.h>

using namespace cafa;

namespace bench {
namespace {

/// The memory budget a user must give bigtrace: without one the default
/// oracle does not fit in memory at this size.
constexpr size_t BigTraceMemLimit = 1000000000;
/// Window analyzeTrace's memory ladder engages when it sheds to the
/// windowed scan (Cafa.cpp, DefaultPressureWindow); the layered path
/// repeats that decision so its reports match analyzeTrace's.
constexpr uint64_t PressureWindow = 65536;
/// Fleet batch width: one worker slot per core of the reference box.
constexpr unsigned FleetWorkers = 4;

double msSince(uint64_t StartNs) {
  return static_cast<double>(wallTimeNanos() - StartNs) / 1e6;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Resets the process's peak-RSS mark so each timed pass is measured
/// alone.  Setup runs in another process; this drops the reference models
/// the checkers build and the passes before.
void resetPeakRss() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double kibToMb(double KiB) { return KiB * 1024.0 / 1e6; }

double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return kibToMb(std::stod(Line.substr(6)));
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return kibToMb(static_cast<double>(U.ru_maxrss));
}

//===-- Spans ------------------------------------------------------------===//

struct Span {
  std::string Name;
  uint64_t Start = 0, End = 0;
  int Parent = -1;
  uint32_t Input = 0;
  double ms() const { return static_cast<double>(End - Start) / 1e6; }
};

/// In-memory span log, written out when the run ends.
struct Tracer {
  std::vector<Span> Spans;
  int open(const std::string &Name, uint32_t Input, int Parent) {
    Spans.push_back({Name, wallTimeNanos(), 0, Parent, Input});
    return static_cast<int>(Spans.size() - 1);
  }
  void close(int I) { Spans[I].End = wallTimeNanos(); }
  /// Adds an already-measured interval.
  int add(const std::string &Name, uint64_t Start, uint64_t End,
          uint32_t Input, int Parent) {
    Spans.push_back({Name, Start, End, Parent, Input});
    return static_cast<int>(Spans.size() - 1);
  }
};

class Scope {
public:
  Scope(Tracer &T, const char *Name, uint32_t Input, int Parent)
      : T(T), I(T.open(Name, Input, Parent)) {}
  ~Scope() { T.close(I); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int I;
};

//===-- References ---------------------------------------------------------===//

/// Everything the checkers compare against, built from the app models and
/// the manifest, never from an analysis.
struct Reference {
  std::map<std::string, apps::AppModel> Models;
  /// App -> ground-truth race keys by method name, with their labels.
  std::map<std::string, std::map<RaceKey, RaceLabel>> Labels;
  std::set<RaceKey> Planted;
};

Reference buildReference(const RunOptions &O, const Manifest &M) {
  Reference R;
  for (const InputFile &In : M.Inputs) {
    if (In.App == "bigtrace" || R.Models.count(In.App))
      continue;
    apps::AppModel Model = apps::buildApp(In.App);
    if (O.WrongReference) {
      // apps, fleet: one labelled race goes missing from the reference.
      // triage: keys intact, but no race is labelled harmful any more.
      if (O.W == Workload::Triage) {
        for (GroundTruthEntry &E : Model.Truth.Entries)
          if (E.Label == RaceLabel::Harmful)
            E.Label = RaceLabel::FalseTypeI;
      } else if (!Model.Truth.Entries.empty()) {
        Model.Truth.Entries.erase(Model.Truth.Entries.begin());
      }
    }
    auto &L = R.Labels[In.App];
    const Module &Mod = Model.S.module();
    for (const GroundTruthEntry &E : Model.Truth.Entries)
      L[RaceKey(Mod.methodName(E.UseMethod), E.UsePc,
                Mod.methodName(E.FreeMethod), E.FreePc)] = E.Label;
    R.Models.emplace(In.App, std::move(Model));
  }
  for (const RaceKey &K : M.Planted)
    R.Planted.insert(K);
  if (O.WrongReference && !R.Planted.empty())
    R.Planted.erase(R.Planted.begin());
  return R;
}

RaceKey keyOf(const RaceRecord &Race) {
  return RaceKey(Race.UseMethod, Race.UsePc, Race.FreeMethod, Race.FreePc);
}

//===-- One verdict ----------------------------------------------------------===//

struct Pipeline {
  IngestOptions Ingest;
  AnalysisOptions Analysis;
  bool Confirm = false;
};

Pipeline pipelineFor(Workload W) {
  Pipeline P;
  if (W == Workload::BigTrace) {
    // offline_analyzer --mem-limit=<bytes> sets both.
    P.Analysis.Detector.Hb.MemLimitBytes = BigTraceMemLimit;
    P.Ingest.MaxInputBytes = BigTraceMemLimit;
  }
  P.Confirm = W == Workload::Triage;
  return P;
}

struct Verdict {
  bool IngestOk = false;
  Trace T;
  RaceReport Report;
  RaceDocument Doc;
  ConfirmSummary Confirm;
  std::string Json, Text;
};

/// Counters a traced verdict collects at the layer boundaries.
struct LayerCounts {
  double Records = 0, Incidents = 0;
  /// Derived-rule edges and rounds, summed; base edges (program order,
  /// fork/join, notify/wait, listener, send, external, IPC) apart.
  HbRuleStats Hb;
  double BaseEdges = 0;
  double HbMemoryBytes = 0, Downgrades = 0;
  FilterCounters Filters;
  double Races = 0, ReportBytes = 0;
  double Replays = 0, Confirmed = 0;
};

int ladderRung(ReachMode M) {
  switch (M) {
  case ReachMode::Incremental:
    return 0;
  case ReachMode::Closure:
    return 1;
  case ReachMode::Chain:
    return 2;
  default:
    return 3;
  }
}

/// The one-call path a user runs: trace file to rendered report.
void verdictUntraced(const Pipeline &P, const std::string &Path,
                     const Scenario *S, Verdict &V) {
  IngestReport Ingested;
  V.IngestOk = ingestTraceFile(Path, V.T, Ingested, P.Ingest).ok();
  if (!V.IngestOk)
    return;
  AnalysisResult R = analyzeTrace(V.T, P.Analysis);
  V.Report = std::move(R.Report);
  V.Doc = buildRaceDocument(V.Report, V.T);
  if (P.Confirm) {
    V.Confirm = confirmRaces(*S, V.T, V.Report);
    applyConfirmVerdicts(V.Confirm, V.Doc);
  }
  V.Json = renderRaceReportJson(V.Doc);
  V.Text = renderRaceReportText(V.Doc);
}

/// The same verdict one layer call at a time, each inside a span under
/// \p Root.  Mirrors analyzeTrace's sequence for the options the
/// benchmark uses (no checkpoint, no resolver, no deadline).
void verdictTraced(const Pipeline &P, const std::string &Path,
                   const Scenario *S, Verdict &V, Tracer &Tr,
                   uint32_t Input, int Root, LayerCounts &C) {
  IngestReport Ingested;
  {
    Scope Sp(Tr, "trace.ingest", Input, Root);
    V.IngestOk = ingestTraceFile(Path, V.T, Ingested, P.Ingest).ok();
  }
  if (!V.IngestOk)
    return;
  C.Records += static_cast<double>(V.T.numRecords());
  C.Incidents += static_cast<double>(Ingested.IncidentsTotal);

  const DetectorOptions &Opt = P.Analysis.Detector;
  std::optional<TaskIndex> Index;
  std::optional<HbIndex> Hb;
  {
    Scope Sp(Tr, "hb.index", Input, Root);
    Index.emplace(V.T);
  }
  {
    Scope Sp(Tr, "hb.build", Input, Root);
    Hb.emplace(V.T, *Index, Opt.Hb);
  }
  const HbRuleStats &St = Hb->ruleStats();
  C.BaseEdges += static_cast<double>(
      St.ProgramOrderEdges + St.ForkJoinEdges + St.NotifyWaitEdges +
      St.ListenerEdges + St.SendEdges + St.ExternalChainEdges + St.IpcEdges);
  C.Hb.AtomicityEdges += St.AtomicityEdges;
  C.Hb.QueueRule1Edges += St.QueueRule1Edges;
  C.Hb.QueueRule2Edges += St.QueueRule2Edges;
  C.Hb.QueueRule3Edges += St.QueueRule3Edges;
  C.Hb.QueueRule4Edges += St.QueueRule4Edges;
  C.Hb.FixpointRounds += St.FixpointRounds;
  C.HbMemoryBytes += static_cast<double>(Hb->memoryBytes());
  const HbDegradation &D = Hb->degradation();
  if (D.DowngradedForMemory)
    C.Downgrades += ladderRung(D.UsedReach) - ladderRung(D.RequestedReach);

  uint64_t Window = resolveWindowEvents(Opt.WindowEvents);
  bool Windowed = Window != DetectorOptions::WindowOff;
  if (!Windowed && Opt.WindowEvents == 0 && D.DowngradedForMemory) {
    Window = PressureWindow;
    Windowed = true;
  }
  std::optional<AccessDb> Db;
  if (!Windowed) {
    Scope Sp(Tr, "detect.extract", Input, Root);
    Db.emplace(extractAccesses(V.T, *Index));
  }
  {
    Scope Sp(Tr, "detect.scan", Input, Root);
    if (Windowed) {
      Hb->shedOracle();
      V.Report =
          detectUseFreeRacesWindowed(V.T, *Index, *Hb, Opt, Window);
    } else {
      V.Report = detectUseFreeRaces(V.T, *Index, *Db, *Hb, Opt);
    }
  }
  {
    Scope Sp(Tr, "detect.release", Input, Root);
    Db.reset();
  }
  {
    Scope Sp(Tr, "hb.release", Input, Root);
    Hb.reset();
    Index.reset();
  }
  C.Filters.CandidatePairs += V.Report.Filters.CandidatePairs;
  C.Filters.OrderedByHb += V.Report.Filters.OrderedByHb;
  C.Filters.LocksetProtected += V.Report.Filters.LocksetProtected;
  C.Filters.IfGuardFiltered += V.Report.Filters.IfGuardFiltered;
  C.Filters.IntraEventAlloc += V.Report.Filters.IntraEventAlloc;
  C.Races += static_cast<double>(V.Report.Races.size());

  if (P.Confirm) {
    Scope Sp(Tr, "confirm.replay", Input, Root);
    V.Confirm = confirmRaces(*S, V.T, V.Report);
  }
  C.Replays += static_cast<double>(V.Confirm.SchedulesRun);
  C.Confirmed += V.Confirm.Confirmed;
  {
    Scope Sp(Tr, "cafa.render", Input, Root);
    V.Doc = buildRaceDocument(V.Report, V.T);
    if (P.Confirm)
      applyConfirmVerdicts(V.Confirm, V.Doc);
    V.Json = renderRaceReportJson(V.Doc);
    V.Text = renderRaceReportText(V.Doc);
  }
  C.ReportBytes += static_cast<double>(V.Json.size() + V.Text.size());
}

//===-- Checks ---------------------------------------------------------------===//

bool checkVerdict(Workload W, const InputFile &In, const Verdict &V,
                  const Reference &Ref) {
  if (!V.IngestOk)
    return false;
  std::multiset<RaceKey> Got;
  for (const RaceRecord &Race : V.Doc.Races)
    Got.insert(keyOf(Race));
  if (W == Workload::BigTrace)
    return Got == std::multiset<RaceKey>(Ref.Planted.begin(),
                                         Ref.Planted.end());

  const apps::AppModel &Model = Ref.Models.at(In.App);
  Table1Row Row = evaluateReport(V.Report, Model.Truth, V.T, In.App);
  if (Row.Unexpected != 0 || Row.Missed != 0)
    return false;
  if (W != Workload::Triage)
    return true;
  // Every race carries a verdict, and a confirmed one a harmful label.
  const auto &Labels = Ref.Labels.at(In.App);
  for (const RaceRecord &Race : V.Doc.Races) {
    if (Race.Verdict == ConfirmVerdict::None)
      return false;
    if (Race.Verdict != ConfirmVerdict::Confirmed)
      continue;
    auto It = Labels.find(keyOf(Race));
    if (It == Labels.end() || It->second != RaceLabel::Harmful)
      return false;
  }
  return true;
}

//===-- In-process workloads (apps, bigtrace, triage) ------------------------===//

/// Samples of the timed passes.  The host's speed varies in bursts, so
/// both end-to-end timings are built from medians across passes:
///  - verdict_ms.p50 is the median over inputs (fleet: over job slots of
///    the batch) of each one's median verdict time;
///  - throughput divides one pass's work by the sum of its units' median
///    times, a unit being one input (in process) or one whole batch
///    (fleet), whose work is the same on every pass.
struct Totals {
  struct Unit {
    double Events = 0, Races = 0;
    std::vector<double> Ms;
  };
  std::vector<double> VerdictMs; ///< every sample, for the p90 note
  std::map<size_t, std::vector<double>> InputMs;
  std::map<size_t, Unit> Units;
  void verdict(size_t Input, double Ms) {
    VerdictMs.push_back(Ms);
    InputMs[Input].push_back(Ms);
  }
  void unit(size_t Key, double Events, double Races, double Ms) {
    Unit &U = Units[Key];
    U.Events = Events;
    U.Races = Races;
    U.Ms.push_back(Ms);
  }
};

void addMetricsUntraced(const Totals &T, double PeakMb, RunResult &Out) {
  double Events = 0, Races = 0, Secs = 0;
  for (const auto &[Key, U] : T.Units) {
    Events += U.Events;
    Races += U.Races;
    Secs += quantile(U.Ms, 0.5) / 1e3;
  }
  std::vector<double> InputMedians;
  for (const auto &[Key, Ms] : T.InputMs)
    InputMedians.push_back(quantile(Ms, 0.5));
  Out.M.add("verdict_ms.p50", quantile(InputMedians, 0.5), "ms");
  Out.M.add("events_per_s", Secs > 0 ? Events / Secs : 0, "1/s");
  Out.M.add("races_per_s", Secs > 0 ? Races / Secs : 0, "1/s");
  Out.M.add("peak_rss_mb", PeakMb, "MB");
  char Buf[256];
  std::snprintf(Buf, sizeof Buf, "verdict samples: %zu", T.VerdictMs.size());
  Out.Notes.push_back(Buf);
  if (T.VerdictMs.size() >= 100) {
    std::snprintf(Buf, sizeof Buf, "verdict_ms.p90: %.3f ms",
                  quantile(T.VerdictMs, 0.9));
    Out.Notes.push_back(Buf);
  } else {
    Out.Notes.push_back("verdict_ms.p90: not reported (fewer than 100 "
                        "samples)");
  }
}

/// Per-layer figures gathered over one traced run.
struct TracedTotals {
  LayerCounts C;
  double Inputs = 0;
  double UntracedMs = 0, TracedMs = 0;
  double CheckpointDeltaMs = 0, CheckpointInputs = 0;
  std::vector<double> QueueWaitMs, RunMs, AppendMs;
  double ReplayMs = 0, Batches = 0, Attempts = 0, Jobs = 0;
  double BusyMs = 0, SlotMs = 0;
};

double spanMsPerInput(const Tracer &Tr, const std::string &Name,
                      double Inputs) {
  double Sum = 0;
  for (const Span &S : Tr.Spans)
    if (S.Name == Name)
      Sum += S.ms();
  return Inputs > 0 ? Sum / Inputs : 0;
}

/// Runs one in-process pass over \p M's inputs.  Untraced: the timed
/// one-call path.  Traced: for each input the one-call path and then the
/// layered path, whose report must match byte for byte.
void inProcessPass(const RunOptions &O, const Pipeline &P,
                   const Manifest &M, const Reference &Ref, Totals &T,
                   Tracer *Tr, TracedTotals *TT, RunResult &Out) {
  for (size_t I = 0; I < M.Inputs.size(); ++I) {
    const InputFile &In = M.Inputs[I];
    std::string Path = O.Dir + "/" + In.Path;
    const Scenario *S =
        P.Confirm ? &Ref.Models.at(In.App).S : nullptr;
    // Hand freed heap back first, so the peak reflects this verdict and
    // not the allocator's history of earlier inputs in the seeded order.
    ::malloc_trim(0);
    uint64_t Start = wallTimeNanos();
    auto V = std::make_unique<Verdict>();
    verdictUntraced(P, Path, S, *V);
    double Ms = msSince(Start);
    T.verdict(I, Ms);
    T.unit(I, static_cast<double>(In.Events),
           static_cast<double>(V->Doc.Races.size()), Ms);
    bool Ok = checkVerdict(O.W, In, *V, Ref);

    if (Tr) {
      uint32_t Input = static_cast<uint32_t>(TT->Inputs);
      std::string Untraced = std::move(V->Json);
      V.reset();
      auto TV = std::make_unique<Verdict>();
      int Root = Tr->open("verdict", Input, -1);
      verdictTraced(P, Path, S, *TV, *Tr, Input, Root, TT->C);
      Tr->close(Root);
      TT->Inputs += 1;
      TT->UntracedMs += Ms;
      TT->TracedMs += Tr->Spans[Root].ms();
      Ok = Ok && TV->Json == Untraced && checkVerdict(O.W, In, *TV, Ref);
    }
    Out.Attempted += 1;
    Out.Failed += Ok ? 0 : 1;
  }
}

//===-- Fleet --------------------------------------------------------------===//

/// One FleetEngine batch over the manifest's job order number \p Batch
/// (modulo the number of orders), every terminal
/// job appended to a RaceStore journal as the daemon does.  Samples are
/// submission -> terminal per job.
void fleetBatch(const RunOptions &O, const Manifest &M, const Reference &Ref,
                unsigned Batch, Totals &T, Tracer *Tr, TracedTotals *TT,
                RunResult &Out) {
  namespace fs = std::filesystem;
  std::string BatchDir = O.Dir + "/batch" + std::to_string(Batch);
  fs::remove_all(BatchDir);
  fs::create_directories(BatchDir);
  FleetOptions FO;
  FO.AnalyzerPath = O.Analyzer;
  FO.CheckpointRoot = BatchDir + "/ckpt";
  FO.Workers = FleetWorkers;
  FleetEngine Engine(FO);
  RaceStore Store;
  std::string Journal = BatchDir + "/races.journal";
  const std::vector<size_t> &Order =
      M.FleetOrders[Batch % M.FleetOrders.size()];
  size_t N = Order.size();
  bool SetupOk = Engine.setup().ok() && Store.open(Journal).ok();

  std::vector<uint64_t> Started(N, 0), Ended(N, 0);
  std::vector<bool> JobOk(N, false);
  uint64_t Submit = wallTimeNanos();
  for (size_t I = 0; SetupOk && I < N; ++I) {
    FleetJob Job;
    const InputFile &In = M.Inputs[Order[I]];
    Job.Id = formatString("j%zu-%s", I, In.App.c_str());
    Job.TracePath = O.Dir + "/" + In.Path;
    SetupOk = Engine.addJob(Job).ok();
  }
  size_t Left = SetupOk ? N : 0;
  double Events = 0, Races = 0;
  while (Left > 0) {
    Engine.step();
    uint64_t Now = wallTimeNanos();
    for (size_t I = 0; I < N; ++I) {
      if (Ended[I])
        continue;
      std::string_view Phase = Engine.phase(I);
      if (Phase == "running" && !Started[I])
        Started[I] = Now;
      if (Phase != "terminal")
        continue;
      Ended[I] = Now;
      if (!Started[I])
        Started[I] = Now;
      --Left;
      const FleetJobResult &R = Engine.result(I);
      FleetJobStatus Row;
      Row.Id = R.Id;
      Row.TracePath = R.TracePath;
      Row.State = R.State;
      Row.Attempts = R.Attempts;
      Row.ExitCode = R.FinalExitCode;
      Row.Resumed = R.Resumed;
      Row.Partial = R.Partial;
      uint64_t A0 = wallTimeNanos();
      bool Appended =
          Store.appendJob(Row, R.ParseOk ? &R.Parsed : nullptr).ok();
      uint64_t A1 = wallTimeNanos();
      JobOk[I] = Appended && R.State == "done" && R.ParseOk;
      const InputFile &In = M.Inputs[Order[I]];
      T.verdict(I, static_cast<double>(Ended[I] - Submit) / 1e6);
      Events += static_cast<double>(In.Events);
      Races += static_cast<double>(R.Parsed.Races.size());
      if (Tr) {
        uint32_t Input = static_cast<uint32_t>(Batch * N + I);
        int Root = Tr->add("verdict", Submit, Ended[I], Input, -1);
        Tr->add("fleet.queue_wait", Submit, Started[I], Input, Root);
        Tr->add("fleet.run", Started[I], Ended[I], Input, Root);
        Tr->add("cafa.store_append", A0, A1, Input, -1);
        TT->QueueWaitMs.push_back(
            static_cast<double>(Started[I] - Submit) / 1e6);
        TT->RunMs.push_back(static_cast<double>(Ended[I] - Started[I]) /
                            1e6);
        TT->AppendMs.push_back(static_cast<double>(A1 - A0) / 1e6);
        TT->Attempts += R.Attempts;
        TT->Jobs += 1;
        TT->BusyMs += static_cast<double>(Ended[I] - Started[I]) / 1e6;
      }
    }
    if (Left > 0)
      ::usleep(500);
  }
  double WallMs = msSince(Submit);
  T.unit(0, Events, Races, WallMs);

  // The journal must replay to every job, and the replayed aggregate
  // must hold each app's ground-truth races once per copy of the app.
  RaceStore Replayed;
  uint64_t R0 = wallTimeNanos();
  bool ReplayOk = SetupOk && Replayed.open(Journal).ok();
  uint64_t R1 = wallTimeNanos();
  ReplayOk = ReplayOk && Replayed.numJobs() == N;
  std::map<RaceKey, unsigned> Seen, Expected;
  if (ReplayOk)
    for (const StoredJob &J : Replayed.jobs())
      for (const RaceRecord &Race : J.Report.Races)
        ++Seen[keyOf(Race)];
  std::map<std::string, unsigned> Copies;
  for (size_t I : Order)
    ++Copies[M.Inputs[I].App];
  for (const auto &[App, Count] : Copies)
    for (const auto &[Key, Label] : Ref.Labels.at(App))
      Expected[Key] += O.WrongReference ? Count - 1 : Count;
  std::erase_if(Expected, [](const auto &KV) { return KV.second == 0; });
  bool AggregateOk = ReplayOk && Seen == Expected;
  for (size_t I = 0; I < N; ++I) {
    Out.Attempted += 1;
    Out.Failed += JobOk[I] && AggregateOk ? 0 : 1;
  }
  if (Tr) {
    Tr->add("cafa.store_replay", R0, R1, 0, -1);
    TT->ReplayMs += static_cast<double>(R1 - R0) / 1e6;
    TT->Batches += 1;
    TT->SlotMs += WallMs * FleetWorkers;
  }
  fs::remove_all(BatchDir);
}

/// cafa.checkpoint_ms: what the fleet's default checkpoint cadence adds
/// to one analyzeTrace call, per trace, measured in process.
void checkpointProbe(const RunOptions &O, const Manifest &M,
                     TracedTotals &TT) {
  namespace fs = std::filesystem;
  Pipeline P = pipelineFor(O.W);
  FleetOptions Defaults;
  for (const InputFile &In : M.Inputs) {
    Trace T;
    IngestReport Ingested;
    if (!ingestTraceFile(O.Dir + "/" + In.Path, T, Ingested, P.Ingest).ok())
      continue;
    std::string Dir = O.Dir + "/ckpt-probe";
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    AnalysisOptions With = P.Analysis;
    With.Checkpoint.Directory = Dir;
    With.Checkpoint.EveryMillis = Defaults.CheckpointEveryMillis;
    With.Checkpoint.Resume = true;
    uint64_t S0 = wallTimeNanos();
    analyzeTrace(T, P.Analysis);
    uint64_t S1 = wallTimeNanos();
    analyzeTrace(T, With);
    uint64_t S2 = wallTimeNanos();
    TT.CheckpointDeltaMs += static_cast<double>((S2 - S1)) / 1e6 -
                            static_cast<double>((S1 - S0)) / 1e6;
    TT.CheckpointInputs += 1;
    fs::remove_all(Dir);
  }
}

//===-- Per-layer report -----------------------------------------------------===//

void addMetricsTraced(const Manifest &M, const Tracer &Tr,
                      const TracedTotals &TT, RunResult &Out) {
  const LayerCounts &C = TT.C;
  double N = TT.Inputs;
  auto PerInput = [&](double V) { return N > 0 ? V / N : 0; };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
  double IngestMs = spanMsPerInput(Tr, "trace.ingest", N);
  // Every traced pass ingests each input file once.
  double IngestBytes = 0;
  for (const InputFile &In : M.Inputs)
    IngestBytes += static_cast<double>(In.Bytes);
  IngestBytes /= static_cast<double>(M.Inputs.size());
  Out.M.add("trace.ingest_ms", IngestMs, "ms");
  Out.M.add("trace.ingest_mb_per_s",
            Ratio(IngestBytes / 1e6, IngestMs / 1e3), "MB/s");
  Out.M.add("trace.records", PerInput(C.Records), "count");
  Out.M.add("trace.incidents", PerInput(C.Incidents), "count");
  Out.M.add("hb.index_ms", spanMsPerInput(Tr, "hb.index", N), "ms");
  Out.M.add("hb.build_ms", spanMsPerInput(Tr, "hb.build", N), "ms");
  Out.M.add("hb.rounds", PerInput(C.Hb.FixpointRounds), "count");
  Out.M.add("hb.edges.base", PerInput(C.BaseEdges), "count");
  Out.M.add("hb.edges.atomicity", PerInput(C.Hb.AtomicityEdges), "count");
  Out.M.add("hb.edges.queue1", PerInput(C.Hb.QueueRule1Edges), "count");
  Out.M.add("hb.edges.queue2", PerInput(C.Hb.QueueRule2Edges), "count");
  Out.M.add("hb.edges.queue3", PerInput(C.Hb.QueueRule3Edges), "count");
  Out.M.add("hb.edges.queue4", PerInput(C.Hb.QueueRule4Edges), "count");
  Out.M.add("hb.memory_mb", PerInput(C.HbMemoryBytes) / 1e6, "MB");
  Out.M.add("hb.downgrades", PerInput(C.Downgrades), "count");
  Out.M.add("detect.extract_ms", spanMsPerInput(Tr, "detect.extract", N),
            "ms");
  Out.M.add("detect.scan_ms", spanMsPerInput(Tr, "detect.scan", N), "ms");
  double Cand = static_cast<double>(C.Filters.CandidatePairs);
  Out.M.add("detect.candidates", PerInput(Cand), "count");
  Out.M.add("detect.races", PerInput(C.Races), "count");
  Out.M.add("detect.yield", Ratio(C.Races, Cand), "ratio");
  Out.M.add("detect.drop.hb",
            PerInput(static_cast<double>(C.Filters.OrderedByHb)), "count");
  Out.M.add("detect.drop.lockset",
            PerInput(static_cast<double>(C.Filters.LocksetProtected)),
            "count");
  Out.M.add("detect.drop.ifguard",
            PerInput(static_cast<double>(C.Filters.IfGuardFiltered)),
            "count");
  Out.M.add("detect.drop.intra_alloc",
            PerInput(static_cast<double>(C.Filters.IntraEventAlloc)),
            "count");
  Out.M.add("cafa.render_ms", spanMsPerInput(Tr, "cafa.render", N), "ms");
  Out.M.add("cafa.report_kb", PerInput(C.ReportBytes) / 1e3, "KB");
  Out.M.add("cafa.checkpoint_ms",
            Ratio(TT.CheckpointDeltaMs, TT.CheckpointInputs), "ms");
  Out.M.add("cafa.store_append_ms.p50", quantile(TT.AppendMs, 0.5), "ms");
  Out.M.add("cafa.store_replay_ms", Ratio(TT.ReplayMs, TT.Batches), "ms");
  double ConfirmMs = spanMsPerInput(Tr, "confirm.replay", N);
  Out.M.add("confirm.ms", ConfirmMs, "ms");
  Out.M.add("confirm.replays", PerInput(C.Replays), "count");
  Out.M.add("confirm.confirmed", PerInput(C.Confirmed), "count");
  Out.M.add("confirm.yield", Ratio(C.Confirmed, C.Replays), "ratio");
  Out.M.add("confirm.ms_per_replay", Ratio(ConfirmMs * N, C.Replays), "ms");
  Out.M.add("fleet.queue_wait_ms.p50", quantile(TT.QueueWaitMs, 0.5), "ms");
  Out.M.add("fleet.run_ms.p50", quantile(TT.RunMs, 0.5), "ms");
  Out.M.add("fleet.run_ms.p90", quantile(TT.RunMs, 0.9), "ms");
  Out.M.add("fleet.attempts", Ratio(TT.Attempts, TT.Jobs), "count");
  Out.M.add("fleet.busy_frac", Ratio(TT.BusyMs, TT.SlotMs), "ratio");

  // Self time: a span's duration minus what its direct children cover.
  // The root "verdict" span's self time is what no layer accounts for.
  std::vector<double> ChildMs(Tr.Spans.size(), 0);
  for (const Span &S : Tr.Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += S.ms();
  std::map<std::string, double> SelfMs;
  double RootMs = 0, RootSelfMs = 0;
  for (size_t I = 0; I < Tr.Spans.size(); ++I) {
    const Span &S = Tr.Spans[I];
    double Self = S.ms() - ChildMs[I];
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    SelfMs[Layer] += Self;
    if (S.Name == "verdict") {
      RootMs += S.ms();
      RootSelfMs += Self;
    }
  }
  Out.M.add("unattributed_frac", Ratio(RootSelfMs, RootMs), "ratio");
  Out.M.add("tracing_overhead_frac",
            Ratio(TT.TracedMs - TT.UntracedMs, TT.UntracedMs), "ratio");
  std::string Line = "self time per layer (ms, whole run):";
  for (const auto &[Layer, Ms] : SelfMs) {
    char Buf[96];
    std::snprintf(Buf, sizeof Buf, " %s=%.1f",
                  Layer == "verdict" ? "unattributed" : Layer.c_str(), Ms);
    Line += Buf;
  }
  Out.Notes.push_back(Line);
}

void writeSpans(const Tracer &Tr, const std::string &Path) {
  if (Path.empty())
    return;
  std::ofstream OS(Path);
  for (const Span &S : Tr.Spans)
    OS << "{\"name\":\"" << S.Name << "\",\"start_ns\":" << S.Start
       << ",\"end_ns\":" << S.End << ",\"parent\":" << S.Parent
       << ",\"input\":" << S.Input << "}\n";
}

} // namespace

bool runWorkload(const RunOptions &O, RunResult &Out) {
  Manifest M;
  if (!readManifest(O.Dir, M) ||
      (O.W == Workload::Fleet && M.FleetOrders.empty())) {
    std::fprintf(stderr, "cafabench: no usable manifest in %s\n",
                 O.Dir.c_str());
    return false;
  }
  Reference Ref = buildReference(O, M);
  Pipeline P = pipelineFor(O.W);
  Tracer Tr;
  TracedTotals TT;
  Tracer *TrP = O.Traced ? &Tr : nullptr;
  TracedTotals *TTP = O.Traced ? &TT : nullptr;
  Totals T;

  // In process, the peak is taken pass by pass and the median reported:
  // the maximum over a whole run would grow with the number of passes.
  std::vector<double> PassPeakMb;
  uint64_t Deadline =
      wallTimeNanos() + static_cast<uint64_t>(O.Seconds * 1e9);
  unsigned Pass = 0;
  do {
    resetPeakRss();
    if (O.W == Workload::Fleet)
      fleetBatch(O, M, Ref, Pass, T, TrP, TTP, Out);
    else
      inProcessPass(O, P, M, Ref, T, TrP, TTP, Out);
    PassPeakMb.push_back(peakRssMb());
    ++Pass;
  } while (wallTimeNanos() < Deadline);

  double PeakMb = quantile(PassPeakMb, 0.5);
  if (O.W == Workload::Fleet) {
    // Workers are the analyzing processes: the largest one's peak.
    struct rusage U;
    ::getrusage(RUSAGE_CHILDREN, &U);
    PeakMb = kibToMb(static_cast<double>(U.ru_maxrss));
  }

  if (O.Traced) {
    if (O.W == Workload::Fleet) {
      // The workers' layers run in other processes; one in-process pass
      // over the distinct traces gives the fleet's per-layer breakdown.
      Totals Unused;
      inProcessPass(O, P, M, Ref, Unused, &Tr, &TT, Out);
      checkpointProbe(O, M, TT);
    }
    addMetricsTraced(M, Tr, TT, Out);
    writeSpans(Tr, O.SpansPath);
  } else {
    addMetricsUntraced(T, PeakMb, Out);
  }
  char Buf[128];
  std::snprintf(Buf, sizeof Buf, "passes: %u, error_rate: %.4f", Pass,
                Out.Attempted ? static_cast<double>(Out.Failed) /
                                    static_cast<double>(Out.Attempted)
                              : 0.0);
  Out.Notes.push_back(Buf);
  return true;
}

} // namespace bench
