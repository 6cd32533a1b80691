//===- tests/integration/WindowedAnalysisTest.cpp -----------------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pipeline-level contract of the streaming detector scan
// (docs/windowed-analysis.md): at every sweep cadence the analyzer
// renders the batch reference scan's report byte for byte, the memory
// ladder downgrades only the oracle, a run cut under one cadence
// resumes under another (WindowEvents is excluded from the options
// digest), SIGKILL mid-run resumes byte-identical at the process
// level, and an input too big for --mem-limit fails with a clean usage
// error unless an explicit cadence streams it.
//
// References call the batch scan directly (referenceReport), so the
// windowed CI leg's suite-wide CAFA_WINDOW cannot reach them; streamed
// runs pin their cadence explicitly.
//
//===----------------------------------------------------------------------===//

#include "apps/AppKit.h"
#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "rt/Runtime.h"
#include "support/Rng.h"
#include "trace/IngestSession.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include "TestScratch.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace cafa;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> fixtureFiles() {
  std::vector<std::string> Files;
  if (DIR *D = ::opendir(CAFA_TRACE_FIXTURE_DIR)) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 6 && Name.rfind(".trace") == Name.size() - 6)
        Files.push_back(std::string(CAFA_TRACE_FIXTURE_DIR) + "/" + Name);
    }
    ::closedir(D);
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Both renderings of \p R.
std::pair<std::string, std::string> render(const RaceReport &R,
                                           const Trace &T) {
  return {renderRaceReport(R, T), renderRaceReportJson(R, T)};
}

/// The batch reference scan over a materialized AccessDb.
RaceReport referenceReport(const Trace &T,
                           const DetectorOptions &Opt = DetectorOptions()) {
  TaskIndex Index(T);
  HbIndex Hb(T, Index, Opt.Hb);
  AccessDb Db = extractAccesses(T, Index);
  return detectUseFreeRaces(T, Index, Db, Hb, Opt);
}

/// Both renderings of an analysis at sweep cadence \p Window.
std::pair<std::string, std::string> renderWith(const Trace &T,
                                               uint64_t Window) {
  DetectorOptions Opt;
  Opt.WindowEvents = Window;
  AnalysisResult R = analyzeTrace(T, Opt);
  EXPECT_EQ(R.WindowEventsUsed, Window);
  return render(R.Report, T);
}

TEST(WindowedAnalysisTest, FixturesByteIdenticalAcrossWindowSizes) {
  std::vector<std::string> Files = fixtureFiles();
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    SCOPED_TRACE(Path);
    Trace T;
    IngestReport Ingest;
    Status S = ingestTrace(readFile(Path), T, Ingest);
    if (!S.ok())
      continue; // rejected fixtures are ingest-layer tests, not ours
    auto [RefText, RefJson] = render(referenceReport(T), T);
    for (uint64_t Window :
         {uint64_t(64), uint64_t(4096), DetectorOptions::WindowOff}) {
      auto [Text, Json] = renderWith(T, Window);
      EXPECT_EQ(Text, RefText) << "window " << Window;
      EXPECT_EQ(Json, RefJson) << "window " << Window;
    }
  }
}

TEST(WindowedAnalysisTest, AppModelsMatchTheReferenceAtEveryCadence) {
  // The ten Table 1 apps through the production path at the default
  // cadence and at per-record sweeps, against the batch reference.
  for (const std::string &Name : apps::appNames()) {
    SCOPED_TRACE(Name);
    Trace T = runScenario(apps::buildApp(Name).S, RuntimeOptions());
    DetectorOptions Opt;
    TaskIndex Index(T);
    HbIndex Hb(T, Index, Opt.Hb);
    AccessDb Db = extractAccesses(T, Index);
    auto [RefText, RefJson] =
        render(detectUseFreeRaces(T, Index, Db, Hb, Opt), T);
    for (uint64_t Window : {DetectorOptions::DefaultWindowEvents,
                            uint64_t(1)}) {
      auto [Text, Json] = render(
          detectUseFreeRacesWindowed(T, Index, Hb, Opt, Window), T);
      EXPECT_EQ(Text, RefText) << "window " << Window;
      EXPECT_EQ(Json, RefJson) << "window " << Window;
    }
  }
}

/// Random structurally valid trace with enough queue traffic to exercise
/// the rule-engine scans and enough pointer traffic to give the detector
/// real pairs.
Trace randomPtrTrace(uint64_t Seed, size_t Steps) {
  Rng R(Seed);
  TraceBuilder TB;
  MethodId M = TB.addMethod("m", 65536);

  std::vector<QueueId> Queues;
  for (int I = 0, E = 1 + static_cast<int>(R.below(3)); I != E; ++I)
    Queues.push_back(TB.addQueue("q" + std::to_string(I)));

  struct LiveTask {
    TaskId Id;
    bool IsEvent;
    QueueId Queue;
  };
  std::vector<LiveTask> Running, Pending;
  std::vector<TaskId> ActivePerQueue(Queues.size(), TaskId::invalid());
  for (int I = 0, E = 2 + static_cast<int>(R.below(2)); I != E; ++I) {
    TaskId T = TB.addThread("thread" + std::to_string(I));
    TB.begin(T);
    Running.push_back({T, false, QueueId()});
  }

  size_t EventCounter = 0;
  uint32_t Pc = 0;
  for (size_t Step = 0; Step != Steps && !Running.empty(); ++Step) {
    LiveTask &Actor = Running[R.below(Running.size())];
    switch (R.below(10)) {
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
    case 1: { // begin a pending event on an idle queue
      for (size_t I = 0; I != Pending.size(); ++I) {
        LiveTask &P = Pending[I];
        if (ActivePerQueue[P.Queue.index()].isValid())
          continue;
        TB.begin(P.Id);
        ActivePerQueue[P.Queue.index()] = P.Id;
        Running.push_back(P);
        Pending.erase(Pending.begin() + static_cast<long>(I));
        break;
      }
      break;
    }
    case 2: { // end an event
      if (Actor.IsEvent && Running.size() > 1) {
        ActivePerQueue[Actor.Queue.index()] = TaskId::invalid();
        TB.end(Actor.Id);
        Running.erase(Running.begin() + (&Actor - Running.data()));
      }
      break;
    }
    case 3: { // lock-guarded access pair
      uint32_t Var = static_cast<uint32_t>(R.below(4));
      uint32_t Lock = static_cast<uint32_t>(R.below(2));
      TB.lockAcquire(Actor.Id, Lock);
      TB.ptrRead(Actor.Id, Var, 9 + Var, M, ++Pc);
      TB.deref(Actor.Id, 9 + Var, DerefKind::Invoke, M, ++Pc);
      TB.lockRelease(Actor.Id, Lock);
      break;
    }
    case 4: // free a cell
      TB.ptrWrite(Actor.Id, static_cast<uint32_t>(R.below(4)), 0, M, ++Pc);
      break;
    default: { // use a cell
      uint32_t Var = static_cast<uint32_t>(R.below(4));
      TB.ptrRead(Actor.Id, Var, 9 + Var, M, ++Pc);
      TB.deref(Actor.Id, 9 + Var, DerefKind::Invoke, M, ++Pc);
      break;
    }
    }
  }
  for (const LiveTask &L : Running)
    TB.end(L.Id);
  return TB.take();
}

class RandomWindowParityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomWindowParityTest, ReportsByteIdenticalAcrossWindowSizes) {
  Trace T = randomPtrTrace(GetParam() * 0x9E3779B97F4A7C15ull + 3, 250);
  ASSERT_TRUE(validateTrace(T).ok()) << validateTrace(T).message();
  auto [RefText, RefJson] = render(referenceReport(T), T);
  // Window 64 is deliberately pathological: most traces span a few
  // thousand records, so the scan sweeps dozens of times per run.
  for (uint64_t Window :
       {uint64_t(64), uint64_t(1024), DetectorOptions::WindowOff}) {
    auto [Text, Json] = renderWith(T, Window);
    ASSERT_EQ(Text, RefText)
        << "seed " << GetParam() << " window " << Window;
    ASSERT_EQ(Json, RefJson)
        << "seed " << GetParam() << " window " << Window;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds100, RandomWindowParityTest,
                         testing::Range<uint64_t>(0, 100));

Trace buildAppTrace() {
  apps::AppBuilder App("windowed");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(300);
  Table1Row Dummy;
  apps::AppModel Model = App.finish(Dummy);
  return runScenario(Model.S, RuntimeOptions());
}

std::string freshCheckpointDir(const char *Name) {
  std::string Dir = testScratchDir() + "/cafa_windowed_" + Name;
  ::mkdir(Dir.c_str(), 0755);
  std::remove(checkpointPath(Dir).c_str());
  return Dir;
}

TEST(WindowedAnalysisTest, DeadlineCutResumesWindowedByteIdentical) {
  Trace T = buildAppTrace();
  std::string Dir = freshCheckpointDir("cut");

  DetectorOptions Win;
  Win.WindowEvents = 64;
  AnalysisResult Clean = analyzeTrace(T, Win);
  ASSERT_FALSE(Clean.Report.Partial);

  DetectorOptions Tiny = Win;
  Tiny.DeadlineMillis = 1e-6;
  AnalysisOptions CutOpt(Tiny);
  CutOpt.Checkpoint.Directory = Dir;
  AnalysisResult Cut = analyzeTrace(T, CutOpt);
  ASSERT_TRUE(Cut.Report.Partial);

  AnalysisOptions ResumeOpt(Win);
  ResumeOpt.Checkpoint.Directory = Dir;
  ResumeOpt.Checkpoint.Resume = true;
  AnalysisResult Resumed = analyzeTrace(T, ResumeOpt);
  ASSERT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
  EXPECT_FALSE(Resumed.Report.Partial);
  EXPECT_EQ(renderRaceReportJson(Resumed.Report, T),
            renderRaceReportJson(Clean.Report, T));
  EXPECT_EQ(renderRaceReport(Resumed.Report, T),
            renderRaceReport(Clean.Report, T));
  std::remove(checkpointPath(Dir).c_str());
}

TEST(WindowedAnalysisTest, CrossCadenceResumeNeverRejects) {
  // WindowEvents is excluded from the options digest on purpose: the
  // cadence is a memory knob, so a snapshot cut under one cadence must
  // resume under another and end on the reference report.
  Trace T = buildAppTrace();
  DetectorOptions Off;
  Off.WindowEvents = DetectorOptions::WindowOff;
  DetectorOptions Win;
  Win.WindowEvents = 64;
  std::string RefJson = renderRaceReportJson(referenceReport(T), T);

  struct Direction {
    const char *Name;
    DetectorOptions CutAs, ResumeAs;
  };
  const Direction Directions[] = {{"off-to-64", Off, Win},
                                  {"64-to-off", Win, Off}};
  for (const Direction &D : Directions) {
    SCOPED_TRACE(D.Name);
    std::string Dir = freshCheckpointDir(D.Name);
    DetectorOptions Tiny = D.CutAs;
    Tiny.DeadlineMillis = 1e-6;
    AnalysisOptions CutOpt(Tiny);
    CutOpt.Checkpoint.Directory = Dir;
    AnalysisResult Cut = analyzeTrace(T, CutOpt);
    ASSERT_TRUE(Cut.Report.Partial);

    AnalysisOptions ResumeOpt(D.ResumeAs);
    ResumeOpt.Checkpoint.Directory = Dir;
    ResumeOpt.Checkpoint.Resume = true;
    AnalysisResult Resumed = analyzeTrace(T, ResumeOpt);
    EXPECT_TRUE(Resumed.Resume.Resumed) << Resumed.Resume.RejectReason;
    EXPECT_FALSE(Resumed.Report.Partial);
    EXPECT_EQ(renderRaceReportJson(Resumed.Report, T), RefJson);
    std::remove(checkpointPath(Dir).c_str());
  }
}

TEST(WindowedAnalysisTest, MemoryPressureDowngradesOnlyTheOracle) {
  // The memory ladder is oracle-only: a squeezed run downgrades the
  // reachability oracle and still streams at the requested (or
  // default) cadence -- no detector switch, not a byte of difference.
  // Pin the environment for the duration (the windowed CI leg exports
  // CAFA_WINDOW for the whole suite).
  char *SavedEnv = std::getenv("CAFA_WINDOW");
  std::string SavedVal = SavedEnv ? SavedEnv : "";
  ::unsetenv("CAFA_WINDOW");

  Trace T = buildAppTrace();
  std::string RefJson = renderRaceReportJson(referenceReport(T), T);

  DetectorOptions Squeezed;
  Squeezed.Hb.MemLimitBytes = 1;
  AnalysisResult R = analyzeTrace(T, Squeezed);
  EXPECT_TRUE(R.Degradation.DowngradedForMemory);
  EXPECT_EQ(R.WindowEventsUsed, DetectorOptions::DefaultWindowEvents);
  EXPECT_GT(R.WindowedDetect.RetainedHighWaterBytes, 0u);
  EXPECT_EQ(renderRaceReportJson(R.Report, T), RefJson);

  // An explicit cadence is kept under pressure as well.
  DetectorOptions Pinned = Squeezed;
  Pinned.WindowEvents = DetectorOptions::WindowOff;
  AnalysisResult P = analyzeTrace(T, Pinned);
  EXPECT_TRUE(P.Degradation.DowngradedForMemory);
  EXPECT_EQ(P.WindowEventsUsed, DetectorOptions::WindowOff);
  EXPECT_EQ(renderRaceReportJson(P.Report, T), RefJson);

  if (SavedEnv)
    ::setenv("CAFA_WINDOW", SavedVal.c_str(), 1);
}

TEST(WindowedAnalysisTest, WindowedFrontierSurvivesSnapshotRoundTrip) {
  AnalysisSnapshot Snap;
  Snap.TraceFingerprint = 0x1122334455667788ull;
  Snap.NumRecords = 42;
  Snap.OptionsDigest = 0x99aabbccddeeff00ull;
  Snap.Phase = SnapshotPhase::Detect;
  Snap.Hb.UsedReach = ReachMode::Chain;
  Snap.Hb.Saturated = true;
  Snap.HasScan = true;
  Snap.Scan.CursorRecord = 37;
  Snap.Scan.PairsDoneAtCursor = 12;
  Snap.Scan.FiltersShed = true;
  Snap.Scan.Filters.CandidatePairs = 4242;
  Snap.Scan.Filters.SameTask = 7;
  Snap.Scan.Survivors = {{1, 2, 10, 20, 5, 6, 7, 8, 1},
                                   {3, 4, 30, 40, 9, 10, 11, 12, 0}};

  std::string Dir = freshCheckpointDir("roundtrip");
  std::string Path = checkpointPath(Dir);
  ASSERT_TRUE(saveAnalysisSnapshot(Snap, Path).ok());

  AnalysisSnapshot Back;
  ASSERT_TRUE(loadAnalysisSnapshot(Back, Path).ok());
  ASSERT_TRUE(Back.HasScan);
  EXPECT_EQ(Back.Scan.CursorRecord, 37u);
  EXPECT_EQ(Back.Scan.PairsDoneAtCursor, 12u);
  EXPECT_TRUE(Back.Scan.FiltersShed);
  EXPECT_EQ(Back.Scan.Filters.CandidatePairs, 4242u);
  EXPECT_EQ(Back.Scan.Filters.SameTask, 7u);
  ASSERT_EQ(Back.Scan.Survivors.size(), 2u);
  EXPECT_EQ(Back.Scan.Survivors[0].FreeRecord, 20u);
  EXPECT_EQ(Back.Scan.Survivors[0].SameLooper, 1u);
  EXPECT_EQ(Back.Scan.Survivors[1].FreePc, 12u);
  std::remove(Path.c_str());
}

/// fork/exec the analyzer capturing stdout+stderr; SIGKILL after
/// \p KillAfterMillis unless it exits first.  CAFA_WINDOW is scrubbed
/// from the child environment: these tests pass the window (or its
/// absence) explicitly and must mean it even under the windowed CI leg.
struct RunResult {
  int ExitCode = -1;
  bool Killed = false;
  std::string Out, Err;
};

RunResult runAnalyzer(const std::vector<std::string> &Args,
                      const std::string &ScratchDir,
                      int KillAfterMillis = -1) {
  RunResult R;
  std::string OutPath = ScratchDir + "/stdout";
  std::string ErrPath = ScratchDir + "/stderr";
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::unsetenv("CAFA_WINDOW");
    std::freopen(OutPath.c_str(), "wb", stdout);
    std::freopen(ErrPath.c_str(), "wb", stderr);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(OFFLINE_ANALYZER_PATH));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(OFFLINE_ANALYZER_PATH, Argv.data());
    _exit(127);
  }
  if (Pid < 0) {
    ADD_FAILURE() << "fork failed";
    return R;
  }
  int Status = 0;
  if (KillAfterMillis >= 0) {
    int Waited = 0;
    for (;;) {
      pid_t Done = ::waitpid(Pid, &Status, WNOHANG);
      if (Done == Pid)
        break;
      if (Waited >= KillAfterMillis) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      ::usleep(1000);
      ++Waited;
    }
  } else {
    ::waitpid(Pid, &Status, 0);
  }
  R.Killed = WIFSIGNALED(Status);
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  R.Out = readFile(OutPath);
  R.Err = readFile(ErrPath);
  return R;
}

TEST(WindowedAnalysisTest, SigkillMidWindowedRunResumesByteIdentical) {
  std::string Scratch = testScratchDir() + "/cafa_windowed_kill";
  ::mkdir(Scratch.c_str(), 0755);
  std::string TracePath = Scratch + "/app.trace";

  apps::AppBuilder App("winkill");
  App.seedIntraThreadRace("alpha");
  App.seedInterThreadRace("beta");
  App.addGuardedCommutativePair("delta");
  App.fillVolumeTo(600);
  Table1Row Dummy;
  Trace T = runScenario(App.finish(Dummy).S, RuntimeOptions());
  ASSERT_TRUE(writeTraceFile(T, TracePath).ok());

  RunResult Ref =
      runAnalyzer({"analyze", TracePath, "--json", "--window=64"}, Scratch);
  ASSERT_FALSE(Ref.Killed);
  ASSERT_TRUE(Ref.ExitCode == 0 || Ref.ExitCode == 1);
  // The cadence never changes the report.
  RunResult Default = runAnalyzer({"analyze", TracePath, "--json"}, Scratch);
  EXPECT_EQ(Ref.Out, Default.Out);
  EXPECT_EQ(Ref.ExitCode, Default.ExitCode);

  for (int Delay : {2, 8, 25}) {
    SCOPED_TRACE("kill after " + std::to_string(Delay) + "ms");
    std::string Dir = Scratch + "/kill_" + std::to_string(Delay);
    ::mkdir(Dir.c_str(), 0755);
    std::remove(checkpointPath(Dir).c_str());
    RunResult First =
        runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                     "--checkpoint-dir=" + Dir, "--checkpoint-every=1"},
                    Dir, Delay);
    if (!First.Killed) {
      EXPECT_EQ(First.Out, Ref.Out);
      continue;
    }
    RunResult Resumed =
        runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                     "--checkpoint-dir=" + Dir, "--checkpoint-every=1",
                     "--resume"},
                    Dir);
    ASSERT_FALSE(Resumed.Killed);
    EXPECT_TRUE(Resumed.ExitCode == 4 || Resumed.ExitCode == Ref.ExitCode);
    EXPECT_EQ(Resumed.Out, Ref.Out);
  }

  // Deterministic variant: the chaos hook kills the worker right after
  // its first snapshot save, wherever that save lands.
  std::string Dir = Scratch + "/chaos";
  ::mkdir(Dir.c_str(), 0755);
  std::remove(checkpointPath(Dir).c_str());
  RunResult Chaos =
      runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                   "--checkpoint-dir=" + Dir, "--checkpoint-every=1",
                   "--chaos-kill-after-save"},
                  Dir, 10000);
  ASSERT_NE(Chaos.ExitCode, 127);
  RunResult Recovered =
      runAnalyzer({"analyze", TracePath, "--json", "--window=64",
                   "--checkpoint-dir=" + Dir, "--checkpoint-every=1",
                   "--resume"},
                  Dir);
  ASSERT_FALSE(Recovered.Killed);
  EXPECT_TRUE(Recovered.ExitCode == 4 || Recovered.ExitCode == Ref.ExitCode);
  EXPECT_EQ(Recovered.Out, Ref.Out);
}

TEST(WindowedAnalysisTest, OversizedInputNeedsAWindowToStream) {
  std::string Scratch = testScratchDir() + "/cafa_windowed_oversize";
  ::mkdir(Scratch.c_str(), 0755);
  std::string TracePath = Scratch + "/app.trace";
  Trace T = buildAppTrace();
  ASSERT_TRUE(writeTraceFile(T, TracePath).ok());
  struct stat St;
  ASSERT_EQ(::stat(TracePath.c_str(), &St), 0);
  ASSERT_GT(St.st_size, 2048);

  // Without a window the whole input must fit the budget: the analyzer
  // fails up front with a usage error instead of OOMing mid-ingest.
  RunResult Refused = runAnalyzer(
      {"analyze", TracePath, "--json", "--mem-limit=2048"}, Scratch);
  EXPECT_EQ(Refused.ExitCode, 2);
  EXPECT_NE(Refused.Err.find("memory budget"), std::string::npos)
      << Refused.Err;

  // The same budget with a window streams the input and completes.
  RunResult Streamed = runAnalyzer(
      {"analyze", TracePath, "--json", "--mem-limit=2048", "--window=64"},
      Scratch);
  EXPECT_TRUE(Streamed.ExitCode == 0 || Streamed.ExitCode == 1)
      << Streamed.ExitCode << "\n"
      << Streamed.Err;
  RunResult Plain = runAnalyzer({"analyze", TracePath, "--json"}, Scratch);
  EXPECT_EQ(Streamed.Out, Plain.Out);
}

} // namespace
