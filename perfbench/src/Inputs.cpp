//===- perfbench/src/Inputs.cpp - Seeded workload inputs ----------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Setup half of the benchmark: records the app models through rt, or
// builds the chainable bigtrace, writes the trace files and a manifest.
// The seed decides the analysis order (apps, triage), the fleet job order
// and, for bigtrace, the per-looper lengths and where the use/free pairs
// go.  The measuring process sees only what lands in the run directory.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Apps.h"
#include "rt/Runtime.h"
#include "support/Timer.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <sys/stat.h>

using namespace cafa;

namespace bench {

bool parseWorkload(const std::string &Name, Workload &Out) {
  static const std::map<std::string, Workload> Names = {
      {"apps", Workload::Apps},
      {"bigtrace", Workload::BigTrace},
      {"triage", Workload::Triage},
      {"fleet", Workload::Fleet}};
  auto It = Names.find(Name);
  if (It == Names.end())
    return false;
  Out = It->second;
  return true;
}

std::vector<std::string> Scale::apps() const {
  if (Small)
    return {"vlc", "connectbot", "browser"};
  return apps::appNames();
}

namespace {

/// Fisher-Yates over mt19937_64, so an order depends on the seed alone
/// and not on the standard library's shuffle.
template <typename T> void seededShuffle(std::vector<T> &V, std::mt19937_64 &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R() % I]);
}

uint64_t fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

bool setupApps(uint64_t Seed, const Scale &Sc, const std::string &Dir,
               Manifest &M, SetupStats &Stats) {
  for (const std::string &Name : Sc.apps()) {
    apps::AppModel Model = apps::buildApp(Name);
    Timer Rec;
    Trace T = runScenario(Model.S, RuntimeOptions());
    Stats.RecordMillis += Rec.elapsedWallMillis();
    InputFile In;
    In.App = Name;
    In.Path = Name + ".trace";
    In.Events = T.numEvents();
    if (Status S = writeTraceFile(T, Dir + "/" + In.Path); !S.ok()) {
      std::fprintf(stderr, "cafabench: %s\n", S.message().c_str());
      return false;
    }
    In.Bytes = fileBytes(Dir + "/" + In.Path);
    Stats.TraceMb += static_cast<double>(In.Bytes) / 1e6;
    M.Inputs.push_back(In);
  }
  std::mt19937_64 R(Seed);
  seededShuffle(M.Inputs, R);
  std::vector<size_t> Jobs;
  for (unsigned Copy = 0; Copy < Sc.fleetCopies(); ++Copy)
    for (size_t I = 0; I < M.Inputs.size(); ++I)
      Jobs.push_back(I);
  for (unsigned K = 0; K < Sc.fleetOrders(); ++K) {
    seededShuffle(Jobs, R);
    M.FleetOrders.push_back(Jobs);
  }
  return true;
}

/// Four loopers whose handlers each post their own successor, seeded by
/// one main-thread send apiece: the happens-before relation is four long
/// chains joined only at main, so the fixpoint rules derive almost
/// nothing and every cross-looper pair is unordered.  Each planted pair
/// is a pointer read + dereference on one looper and a null store to the
/// same cell on another, in methods of its own, so the detector must
/// report exactly these pairs.
bool setupBigTrace(uint64_t Seed, const Scale &Sc, const std::string &Dir,
                   Manifest &M) {
  const uint32_t NumQueues = 4;
  const uint32_t NumPlanted = 3;
  const uint64_t Total = Sc.bigTraceEvents();
  std::mt19937_64 R(Seed);

  // Per-looper lengths within +-10% of an even split, summing to Total.
  std::vector<uint64_t> Len(NumQueues);
  uint64_t Sum = 0;
  for (uint32_t Q = 0; Q + 1 < NumQueues; ++Q) {
    uint64_t Base = Total / NumQueues;
    Len[Q] = Base - Base / 10 + R() % (Base / 5 + 1);
    Sum += Len[Q];
  }
  Len[NumQueues - 1] = Total - Sum;

  struct Plant {
    uint32_t UseQ, FreeQ;
    uint64_t UseAt, FreeAt;
    MethodId UseM, FreeM;
  };
  TraceBuilder TB;
  std::vector<Plant> Plants;
  for (uint32_t K = 0; K < NumPlanted; ++K) {
    Plant P;
    P.UseQ = static_cast<uint32_t>(R() % NumQueues);
    P.FreeQ = (P.UseQ + 1 + static_cast<uint32_t>(R() % (NumQueues - 1))) %
              NumQueues;
    P.UseAt = R() % Len[P.UseQ];
    P.FreeAt = R() % Len[P.FreeQ];
    std::string UseName = "use" + std::to_string(K);
    std::string FreeName = "free" + std::to_string(K);
    P.UseM = TB.addMethod(UseName, 16);
    P.FreeM = TB.addMethod(FreeName, 16);
    Plants.push_back(P);
    M.Planted.emplace_back(UseName, 1u, FreeName, 3u);
  }

  TaskId Main = TB.addThread("main");
  std::vector<std::vector<TaskId>> Evs(NumQueues);
  for (uint32_t Q = 0; Q < NumQueues; ++Q) {
    QueueId Qu = TB.addQueue("looper" + std::to_string(Q));
    Evs[Q].reserve(Len[Q]);
    for (uint64_t I = 0; I < Len[Q]; ++I)
      Evs[Q].push_back(TB.addEvent("e", Qu));
  }
  TB.begin(Main);
  for (uint32_t Q = 0; Q < NumQueues; ++Q)
    TB.send(Main, Evs[Q][0]);
  TB.end(Main);
  for (uint32_t Q = 0; Q < NumQueues; ++Q) {
    for (uint64_t I = 0; I < Len[Q]; ++I) {
      TaskId E = Evs[Q][I];
      TB.begin(E);
      for (uint32_t K = 0; K < NumPlanted; ++K) {
        const Plant &P = Plants[K];
        if (P.UseQ == Q && P.UseAt == I) {
          TB.ptrRead(E, /*Var=*/100 + K, /*Object=*/1000 + K, P.UseM, 1);
          TB.deref(E, /*Object=*/1000 + K, DerefKind::Invoke, P.UseM, 2);
        }
        if (P.FreeQ == Q && P.FreeAt == I)
          TB.ptrWrite(E, /*Var=*/100 + K, /*Object=*/0, P.FreeM, 3);
      }
      if (I + 1 < Len[Q])
        TB.send(E, Evs[Q][I + 1]);
      TB.end(E);
    }
  }
  Trace T = TB.take();
  InputFile In;
  In.App = "bigtrace";
  In.Path = "bigtrace.trace";
  In.Events = T.numEvents();
  if (Status S = writeTraceFile(T, Dir + "/" + In.Path); !S.ok()) {
    std::fprintf(stderr, "cafabench: %s\n", S.message().c_str());
    return false;
  }
  In.Bytes = fileBytes(Dir + "/" + In.Path);
  M.Inputs.push_back(In);
  return true;
}

} // namespace

bool runSetup(Workload W, uint64_t Seed, const Scale &Sc,
              const std::string &Dir, SetupStats &Out) {
  Timer Total;
  Manifest M;
  bool Ok = W == Workload::BigTrace ? setupBigTrace(Seed, Sc, Dir, M)
                                    : setupApps(Seed, Sc, Dir, M, Out);
  Ok = Ok && writeManifest(M, Dir);
  Out.SetupSeconds = Total.elapsedWallMillis() / 1e3;
  return Ok;
}

// Manifest format, one item per line, fields separated by spaces (names
// and paths are generated without spaces):
//   input <app> <events> <bytes> <path>
//   job <order> <input index>
//   planted <use method> <use pc> <free method> <free pc>
bool writeManifest(const Manifest &M, const std::string &Dir) {
  std::ofstream OS(Dir + "/manifest.txt");
  for (const InputFile &In : M.Inputs)
    OS << "input " << In.App << ' ' << In.Events << ' ' << In.Bytes << ' '
       << In.Path << '\n';
  for (size_t K = 0; K < M.FleetOrders.size(); ++K)
    for (size_t I : M.FleetOrders[K])
      OS << "job " << K << ' ' << I << '\n';
  for (const RaceKey &K : M.Planted)
    OS << "planted " << std::get<0>(K) << ' ' << std::get<1>(K) << ' '
       << std::get<2>(K) << ' ' << std::get<3>(K) << '\n';
  return static_cast<bool>(OS.flush());
}

bool readManifest(const std::string &Dir, Manifest &Out) {
  std::ifstream IS(Dir + "/manifest.txt");
  if (!IS)
    return false;
  std::string Line;
  while (std::getline(IS, Line)) {
    std::istringstream LS(Line);
    std::string Kind;
    LS >> Kind;
    if (Kind == "input") {
      InputFile In;
      LS >> In.App >> In.Events >> In.Bytes >> In.Path;
      Out.Inputs.push_back(In);
    } else if (Kind == "job") {
      size_t K = 0, I = 0;
      LS >> K >> I;
      if (K > Out.FleetOrders.size())
        return false;
      if (K == Out.FleetOrders.size())
        Out.FleetOrders.emplace_back();
      Out.FleetOrders[K].push_back(I);
    } else if (Kind == "planted") {
      RaceKey K;
      LS >> std::get<0>(K) >> std::get<1>(K) >> std::get<2>(K) >>
          std::get<3>(K);
      Out.Planted.push_back(K);
    }
    if (LS.fail())
      return false;
  }
  for (const std::vector<size_t> &Order : Out.FleetOrders)
    for (size_t I : Order)
      if (I >= Out.Inputs.size())
        return false;
  return !Out.Inputs.empty();
}

} // namespace bench
