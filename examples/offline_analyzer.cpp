//===- examples/offline_analyzer.cpp - Trace files like the real tool ---------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's deployment splits collection from analysis: the ROM writes
// the logger device, the analyzer (often on a server) reads the dump.
// This example does the same with trace files:
//
//   $ ./offline_analyzer record zxing /tmp/zxing.trace   # collect
//   $ ./offline_analyzer analyze /tmp/zxing.trace        # analyze later
//   $ ./offline_analyzer analyze /tmp/zxing.trace --json # CI-friendly
//   $ ./offline_analyzer analyze /tmp/big.trace --mem-limit=1000000000
//   $ ./offline_analyzer analyze /tmp/big.trace --window=65536
//   $ ./offline_analyzer dot /tmp/zxing.trace            # Graphviz digest
//
// --reach selects the happens-before reachability oracle: chain (the
// default) or bfs, the O(N)-memory floor (docs/hb-reachability.md).
// Unset, the choice also honors the CAFA_REACH environment variable.
// The detector is one streaming scan (docs/windowed-analysis.md) that
// retires accesses behind a sweep every --window=<records> records
// (default 65536; CAFA_WINDOW when unset; --window=off sweeps once, at
// the end of the trace).  The cadence only trades resident retained
// accesses for sweep work: every value renders the same report.  The
// stats block (stderr; one JSON line under --json, same fields) prints
// once the report is rendered, ahead of it: stage timings (ingest; the
// scan's counting pre-pass as "extract"; the happens-before build down
// to its oracle build and each fixpoint round's scans and update;
// detect; render; confirm under --confirm), the oracle that ran, whether
// its chain clocks committed and its chain count, checkpoint saves, the
// process peak RSS and the scan's retained-access high-water mark.
// Damaged dumps are salvaged by default (--strict insists on a pristine
// file); --mem-limit=<bytes> and --deadline=<ms> engage the graceful-
// degradation ladder (docs/robustness.md).
//
// Ingestion is sharded across --ingest-threads=<n> worker threads
// (default: hardware concurrency; the CAFA_INGEST_THREADS environment
// variable overrides the default).  The salvaged trace and its report
// are bit-identical at every thread count, so the flag is purely a
// wall-clock knob (docs/trace-format.md, "Sharded ingestion").
//
// Crash-safe checkpointing (docs/robustness.md): --checkpoint-dir=<dir>
// snapshots analysis progress there (atomically, at --checkpoint-every=
// <ms> cadence and always when a deadline cuts a phase); --resume picks
// an interrupted analysis back up from the snapshot and continues to a
// report bit-identical to an uninterrupted run.  A corrupt or mismatched
// snapshot is rejected with a diagnostic and the analysis restarts
// cleanly.  The same directory also holds the *ingest* checkpoint: a
// crash mid-ingest resumes from the last merged shard instead of
// re-reading the whole dump.
//
// Scripted callers triage on the exit code -- the report goes to stdout,
// every diagnostic to stderr:
//   0  clean analysis, no races
//   1  clean analysis, races reported
//   2  unreadable input (parse/ingest failure) or usage error
//   3  analysis completed degraded: the input needed salvage repairs, or
//      a deadline cut the analysis short (report flagged partial)
//   4  clean analysis resumed from a checkpoint and completed (races
//      or not -- the report says; distinguishes "finished the
//      interrupted job" for orchestrating scripts)
// The full contract is pinned by tests/integration/ExitCodesTest and
// documented in docs/robustness.md §6; the fleet supervisor's retry
// policy (docs/fleet.md) keys off exactly these codes.
//
// The --chaos-* flags are fault-injection hooks for the fleet chaos
// suite (worker hang / crash-after-checkpoint / OOM); they exist so
// supervisor tests can script worker failures deterministically and
// have no effect on analysis results.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "cafa/Cafa.h"
#include "cafa/ReportJson.h"
#include "confirm/Confirm.h"
#include "hb/DotExport.h"
#include "support/Format.h"
#include "support/Timer.h"
#include "trace/IngestSession.h"
#include "trace/TraceIO.h"
#include "trace/Validate.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cafa;
using namespace cafa::apps;

/// The happens-before build's oracle, oracle init and per-round phase
/// timings, as the text stats line ("happens-before rounds: ...") or as
/// the JSON stats line's fields -- one schema, two renderings.
static std::string renderHbTimings(const AnalysisResult &R, bool Json) {
  const HbTimings &Hb = R.HbTiming;
  const char *Oracle = reachModeName(R.Degradation.UsedReach);
  const char *Committed = R.Degradation.ClocksCommitted ? "true" : "false";
  std::string Out =
      Json ? formatString("\"hb_oracle\":\"%s\",\"hb_clocks_committed\":%s,"
                          "\"hb_oracle_init_ms\":%.1f,\"hb_round_ms\":[",
                          Oracle, Committed, Hb.OracleInitMillis)
           : formatString("happens-before rounds: oracle init %.1f ms "
                          "(%s, clocks committed %s)",
                          Hb.OracleInitMillis, Oracle, Committed);
  for (size_t I = 0; I != Hb.Rounds.size(); ++I) {
    const HbRoundTiming &Round = Hb.Rounds[I];
    Out += Json ? formatString("%s{\"atomicity\":%.1f,\"queue\":%.1f,"
                               "\"update\":%.1f}",
                               I ? "," : "", Round.AtomicityMillis,
                               Round.QueueMillis, Round.UpdateMillis)
                : formatString("; round %zu atomicity %.1f, queue %.1f, "
                               "update %.1f ms",
                               I + 1, Round.AtomicityMillis,
                               Round.QueueMillis, Round.UpdateMillis);
  }
  return Out + (Json ? "]" : "\n");
}

static int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s record <app> <trace-file>      collect a trace\n"
               "  %s analyze <trace-file> [--json] [--strict|--salvage]\n"
               "     [--ingest-threads=<n>] [--analysis-threads=<n>]\n"
               "     [--reach=chain|bfs]\n"
               "     [--window=<records>|--window=off]  detector sweep\n"
               "                                         cadence (65536)\n"
               "     [--mem-limit=<bytes>] [--deadline=<ms>]\n"
               "     [--checkpoint-dir=<dir>] [--checkpoint-every=<ms>]\n"
               "     [--resume]                     analyze\n"
               "     [--confirm[=<n>] --app=<name>] replay-confirm races\n"
               "     [--chaos-hang-ms=<n> | --chaos-kill-after-save |\n"
               "      --chaos-alloc-mb=<n>]  fault hooks for the fleet\n"
               "                             chaos suite (docs/fleet.md)\n"
               "  %s dot <trace-file>               task-order Graphviz\n"
               "exit codes: 0 no races, 1 races, 2 unreadable input,\n"
               "            3 degraded/partial analysis,\n"
               "            4 resumed from checkpoint and completed\n"
               "apps:",
               Prog, Prog, Prog);
  for (const std::string &Name : appNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int main(int argc, char **argv) {
  if (argc >= 4 && std::strcmp(argv[1], "record") == 0) {
    AppModel Model = buildApp(argv[2]);
    RuntimeStats Stats;
    Trace T = runScenario(Model.S, RuntimeOptions(), &Stats);
    if (Status S = writeTraceFile(T, argv[3]); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 1;
    }
    std::printf("recorded %zu records (%llu events) to %s\n",
                T.numRecords(),
                static_cast<unsigned long long>(Stats.EventsProcessed),
                argv[3]);
    return 0;
  }

  if (argc >= 3 && std::strcmp(argv[1], "analyze") == 0) {
    bool Json = false;
    DetectorOptions Options;
    IngestOptions Ingest;
    CheckpointOptions Ckpt;
    unsigned long ChaosHangMillis = 0;
    bool ChaosKillAfterSave = false;
    unsigned long ChaosAllocMb = 0;
    bool Confirm = false;
    unsigned ConfirmBound = 0; // 0 = auto (CAFA_CONFIRM, else 4)
    unsigned ConfirmThreads = 0; // 0 = auto (CAFA_ANALYSIS_THREADS)
    std::string AppName;
    for (int I = 3; I != argc; ++I) {
      if (std::strcmp(argv[I], "--json") == 0) {
        Json = true;
      } else if (std::strcmp(argv[I], "--strict") == 0) {
        Ingest.Salvage.Strict = true;
      } else if (std::strcmp(argv[I], "--salvage") == 0) {
        Ingest.Salvage.Strict = false; // the default; kept for scripts
      } else if (std::strncmp(argv[I], "--ingest-threads=", 17) == 0) {
        char *End = nullptr;
        unsigned long N = std::strtoul(argv[I] + 17, &End, 10);
        if (End == argv[I] + 17 || *End != '\0' || N == 0)
          return usage(argv[0]);
        Ingest.Threads = static_cast<unsigned>(N);
      } else if (std::strncmp(argv[I], "--analysis-threads=", 19) == 0) {
        char *End = nullptr;
        unsigned long N = std::strtoul(argv[I] + 19, &End, 10);
        if (End == argv[I] + 19 || *End != '\0' || N == 0)
          return usage(argv[0]);
        ConfirmThreads = static_cast<unsigned>(N);
      } else if (std::strcmp(argv[I], "--reach=chain") == 0) {
        Options.Hb.Reach = ReachMode::Chain;
      } else if (std::strcmp(argv[I], "--reach=bfs") == 0) {
        Options.Hb.Reach = ReachMode::Bfs;
      } else if (std::strcmp(argv[I], "--window=off") == 0) {
        Options.WindowEvents = DetectorOptions::WindowOff;
      } else if (std::strncmp(argv[I], "--window=", 9) == 0) {
        char *End = nullptr;
        unsigned long long N = std::strtoull(argv[I] + 9, &End, 10);
        if (End == argv[I] + 9 || *End != '\0' || N == 0)
          return usage(argv[0]);
        Options.WindowEvents = N;
      } else if (std::strncmp(argv[I], "--mem-limit=", 12) == 0) {
        Options.Hb.MemLimitBytes =
            std::strtoull(argv[I] + 12, nullptr, 10);
      } else if (std::strncmp(argv[I], "--deadline=", 11) == 0) {
        Options.DeadlineMillis = std::strtod(argv[I] + 11, nullptr);
      } else if (std::strncmp(argv[I], "--checkpoint-dir=", 17) == 0) {
        Ckpt.Directory = argv[I] + 17;
      } else if (std::strncmp(argv[I], "--checkpoint-every=", 19) == 0) {
        Ckpt.EveryMillis = std::strtod(argv[I] + 19, nullptr);
      } else if (std::strcmp(argv[I], "--resume") == 0) {
        Ckpt.Resume = true;
      } else if (std::strcmp(argv[I], "--confirm") == 0) {
        Confirm = true;
      } else if (std::strncmp(argv[I], "--confirm=", 10) == 0) {
        char *End = nullptr;
        unsigned long N = std::strtoul(argv[I] + 10, &End, 10);
        if (End == argv[I] + 10 || *End != '\0' || N == 0)
          return usage(argv[0]);
        Confirm = true;
        ConfirmBound = static_cast<unsigned>(N);
      } else if (std::strncmp(argv[I], "--app=", 6) == 0) {
        AppName = argv[I] + 6;
      } else if (std::strncmp(argv[I], "--chaos-hang-ms=", 16) == 0) {
        ChaosHangMillis = std::strtoul(argv[I] + 16, nullptr, 10);
      } else if (std::strcmp(argv[I], "--chaos-kill-after-save") == 0) {
        ChaosKillAfterSave = true;
      } else if (std::strncmp(argv[I], "--chaos-alloc-mb=", 17) == 0) {
        ChaosAllocMb = std::strtoul(argv[I] + 17, nullptr, 10);
      } else {
        return usage(argv[0]);
      }
    }
    if (ChaosKillAfterSave && !Ckpt.enabled()) {
      std::fprintf(stderr, "error: --chaos-kill-after-save needs "
                           "--checkpoint-dir=<dir>\n");
      return 2;
    }
    if ((Ckpt.Resume || Ckpt.EveryMillis > 0) && !Ckpt.enabled()) {
      std::fprintf(stderr, "error: --resume/--checkpoint-every need "
                           "--checkpoint-dir=<dir>\n");
      return 2;
    }
    if (Confirm) {
      // Confirmation replays the scenario; traces do not carry their
      // app model, so the caller must say which one produced the trace.
      if (AppName.empty()) {
        std::fprintf(stderr, "error: --confirm needs --app=<name> (the "
                             "trace does not name its scenario)\n");
        return 2;
      }
      bool Known = false;
      for (const std::string &Name : appNames())
        Known = Known || Name == AppName;
      if (!Known) {
        std::fprintf(stderr, "error: unknown app '%s'\n", AppName.c_str());
        return usage(argv[0]);
      }
    }

    // The ingest checkpoint shares the analysis checkpoint directory:
    // one --checkpoint-dir covers the whole pipeline.
    Ingest.CheckpointDirectory = Ckpt.Directory;
    Ingest.Resume = Ckpt.Resume;

    // Pre-check the input size against --mem-limit so an oversized dump
    // fails with a usage error up front instead of OOMing mid-ingest --
    // unless a cadence was requested explicitly (--window=<n> or
    // CAFA_WINDOW), which declares a streamed run whose budget applies
    // to the scan overlay instead.
    if (Options.Hb.MemLimitBytes > 0 &&
        resolveWindowEvents(Options.WindowEvents) ==
            DetectorOptions::WindowOff)
      Ingest.MaxInputBytes = Options.Hb.MemLimitBytes;

    Timer IngestClock;
    Trace T;
    IngestReport Ingested;
    IngestSession Session(Ingest);
    Status FeedStatus = Session.feedFile(argv[2]);
    Status IngestStatus =
        FeedStatus.ok() ? Session.finish(T, Ingested) : FeedStatus;
    const IngestResumeOutcome &IRes = Session.resumeOutcome();
    if (IRes.Attempted) {
      if (IRes.Resumed)
        std::fprintf(stderr,
                     "note: ingest resumed from checkpoint (%llu bytes / "
                     "%llu shards already merged)\n",
                     static_cast<unsigned long long>(IRes.BytesSkipped),
                     static_cast<unsigned long long>(IRes.ShardsSkipped));
      else if (!IRes.NoSnapshot)
        std::fprintf(stderr,
                     "warning: ingest checkpoint rejected (%s), "
                     "re-ingesting from the start\n",
                     IRes.RejectReason.c_str());
    }
    if (!IngestStatus.ok()) {
      std::fprintf(stderr, "error: %s\n%s", IngestStatus.message().c_str(),
                   Ingested.summary().c_str());
      return 2;
    }
    if (!Ingested.clean())
      std::fprintf(stderr, "%s", Ingested.summary().c_str());
    ValidateOptions VOpt;
    VOpt.AllowUnsentEvents = true;
    if (Status S = validateTrace(T, VOpt); !S.ok()) {
      std::fprintf(stderr, "invalid trace: %s\n", S.message().c_str());
      return 2;
    }
    double IngestMillis = IngestClock.elapsedWallMillis();

    // Chaos hooks (fleet chaos suite; see the file header).  The hang
    // and allocation land *before* analyzeTrace so --deadline cannot
    // mask them: a hung worker looks hung, an OOM-jailed worker dies on
    // the allocation.
    std::vector<char> ChaosBallast;
    if (ChaosAllocMb > 0) {
      ChaosBallast.resize(static_cast<size_t>(ChaosAllocMb) << 20);
      // Touch every page so the jail sees committed memory, not just a
      // reservation.
      for (size_t I = 0; I < ChaosBallast.size(); I += 4096)
        ChaosBallast[I] = 0x5A;
    }
    if (ChaosHangMillis > 0)
      ::usleep(ChaosHangMillis * 1000);
    if (ChaosKillAfterSave) {
      // Die the way a real worker crash does: SIGKILL mid-analysis, but
      // only once a snapshot exists on disk -- the scenario where
      // "retry is resume" must hold.  The watcher polls for the
      // atomically-renamed snapshot file.
      std::thread([Path = checkpointPath(Ckpt.Directory)] {
        struct stat St;
        while (::stat(Path.c_str(), &St) != 0)
          ::usleep(1000);
        ::kill(::getpid(), SIGKILL);
      }).detach();
    }

    AnalysisOptions AOpt(Options);
    AOpt.Checkpoint = Ckpt;
    AnalysisResult R = analyzeTrace(T, AOpt);
    if (ChaosKillAfterSave) {
      // The watcher lost the race: the analysis saved and retired its
      // snapshot between two polls, or finished before the cadence's
      // first save.  Keep the hook's contract regardless -- leave a
      // snapshot behind with a deadline-cut rerun, then die.
      AnalysisOptions CutOpt = AOpt;
      CutOpt.Detector.DeadlineMillis = 1e-6;
      analyzeTrace(T, CutOpt);
      ::kill(::getpid(), SIGKILL);
    }
    const ResumeOutcome &Res = R.Resume;
    if (Res.Attempted) {
      if (Res.Resumed)
        std::fprintf(stderr,
                     "note: resumed from checkpoint (phase %s, %u fixpoint "
                     "rounds done)\n",
                     Res.Phase.c_str(), Res.HbRoundsDone);
      else if (Res.NoSnapshot)
        std::fprintf(stderr,
                     "note: no checkpoint found, starting fresh\n");
      else
        std::fprintf(stderr,
                     "warning: checkpoint rejected (%s), restarting "
                     "analysis cleanly\n",
                     Res.RejectReason.c_str());
    }
    if (!Res.SaveError.empty())
      std::fprintf(stderr,
                   "warning: checkpoint save failed (%s); analysis "
                   "continues but is not resumable\n",
                   Res.SaveError.c_str());
    if (Res.HasBaseline) {
      std::fprintf(stderr,
                   "note: vs interrupted run: %u race(s) confirmed, %u "
                   "new, %zu retracted\n",
                   Res.ConfirmedRaces, Res.NewRaces,
                   Res.RetractedRaces.size());
      for (const std::string &Label : Res.RetractedRaces)
        std::fprintf(stderr, "note: retracted (provisional race "
                             "disappeared): %s\n",
                     Label.c_str());
    }
    if (R.Degradation.DowngradedForMemory)
      std::fprintf(stderr,
                   "note: reachability oracle downgraded %s -> %s to fit "
                   "--mem-limit (results unaffected)\n",
                   reachModeName(R.Degradation.RequestedReach),
                   reachModeName(R.Degradation.UsedReach));
    if (R.Report.Partial)
      std::fprintf(stderr, "warning: partial analysis (%s)\n",
                   R.Report.PartialCause.c_str());
    // Every stage runs before the stats block, so it can time them all:
    // ingest, analysis, confirm replays and the report's rendering.
    // Rendering is the document build plus its text or JSON rendering.
    Timer RenderClock;
    RaceDocument Doc = buildRaceDocument(R.Report, T);
    double RenderMillis = RenderClock.elapsedWallMillis();
    double ConfirmMillis = 0;
    if (Confirm) {
      Timer ConfirmClock;
      AppModel Model = buildApp(AppName);
      ConfirmOptions COpt;
      COpt.MaxSchedules = ConfirmBound;
      COpt.Threads = ConfirmThreads;
      ConfirmSummary CSum = confirmRaces(Model.S, T, R.Report, COpt);
      applyConfirmVerdicts(CSum, Doc);
      ConfirmMillis = ConfirmClock.elapsedWallMillis();
      std::fprintf(stderr,
                   "confirm: %u confirmed, %u infeasible, %u unconfirmed "
                   "(%llu replay(s))\n",
                   CSum.Confirmed, CSum.Infeasible, CSum.Unconfirmed,
                   static_cast<unsigned long long>(CSum.SchedulesRun));
      for (size_t I = 0; I < CSum.PerRace.size(); ++I)
        std::fprintf(stderr, "confirm #%zu: %s\n", I + 1,
                     CSum.PerRace[I].Detail.c_str());
    }
    RenderClock.restart();
    std::string Rendered =
        Json ? renderRaceReportJson(Doc) : renderRaceReportText(Doc);
    RenderMillis += RenderClock.elapsedWallMillis();

    // Peak RSS covers the whole process (trace included); the retained
    // high-water is the detector scan's own parked accesses.
    struct rusage Usage;
    ::getrusage(RUSAGE_SELF, &Usage);
    unsigned long long PeakRssBytes =
        static_cast<unsigned long long>(Usage.ru_maxrss) * 1024ull;
    if (!Json) {
      std::fprintf(stderr, "%s",
                   renderTraceStats(R.TraceStatistics).c_str());
      std::fprintf(stderr,
                   "analysis: ingest %.1f ms, extract %.1f ms, "
                   "happens-before %.1f ms (%u fixpoint rounds), detect "
                   "%.1f ms, render %.1f ms",
                   IngestMillis, R.ExtractMillis, R.HbBuildMillis,
                   R.HbStats.FixpointRounds, R.DetectMillis, RenderMillis);
      if (Confirm)
        std::fprintf(stderr, ", confirm %.1f ms", ConfirmMillis);
      std::fprintf(stderr, "\n%s", renderHbTimings(R, false).c_str());
      std::fprintf(stderr,
                   "checkpoints: %u saved, %llu bytes, %.1f ms\n",
                   R.CheckpointSaves,
                   static_cast<unsigned long long>(R.CheckpointBytes),
                   R.CheckpointMillis);
      std::fprintf(stderr,
                   "memory: peak rss %llu bytes, happens-before %zu bytes "
                   "(%zu chains), retained accesses high-water %zu "
                   "bytes\n\n",
                   PeakRssBytes, R.HbMemoryBytes, R.Degradation.ChainCount,
                   R.WindowedDetect.RetainedHighWaterBytes);
    } else {
      // One machine-readable stats line on stderr; stdout stays the
      // report alone so byte-compare harnesses are unaffected.  Same
      // fields as the text block; "window_events" is 0 for --window=off.
      uint64_t WindowEvents =
          R.WindowEventsUsed == DetectorOptions::WindowOff
              ? 0
              : R.WindowEventsUsed;
      std::string ConfirmField =
          Confirm ? formatString("\"confirm_ms\":%.1f,", ConfirmMillis) : "";
      std::fprintf(stderr,
                   "{\"stats\":{\"ingest_ms\":%.1f,\"extract_ms\":%.1f,"
                   "\"hb_ms\":%.1f,\"detect_ms\":%.1f,\"render_ms\":%.1f,"
                   "%s\"rounds\":%u,%s,"
                   "\"checkpoint_saves\":%u,\"checkpoint_bytes\":%llu,"
                   "\"checkpoint_ms\":%.1f,\"peak_rss_bytes\":%llu,"
                   "\"hb_bytes\":%zu,\"window_events\":%llu,"
                   "\"chains\":%zu,\"retained_high_water_bytes\":%zu}}\n",
                   IngestMillis, R.ExtractMillis, R.HbBuildMillis,
                   R.DetectMillis, RenderMillis, ConfirmField.c_str(),
                   R.HbStats.FixpointRounds,
                   renderHbTimings(R, true).c_str(),
                   R.CheckpointSaves,
                   static_cast<unsigned long long>(R.CheckpointBytes),
                   R.CheckpointMillis, PeakRssBytes, R.HbMemoryBytes,
                   static_cast<unsigned long long>(WindowEvents),
                   R.Degradation.ChainCount,
                   R.WindowedDetect.RetainedHighWaterBytes);
    }
    std::printf("%s", Rendered.c_str());
    if (R.Report.Partial || !Ingested.clean())
      return 3;
    if (Res.Resumed)
      return 4;
    return R.Report.Races.empty() ? 0 : 1;
  }

  if (argc >= 3 && std::strcmp(argv[1], "dot") == 0) {
    Trace T;
    if (Status S = readTraceFile(argv[2], T); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 2;
    }
    TaskIndex Index(T);
    HbIndex Hb(T, Index, HbOptions());
    std::printf("%s", exportTaskOrderDot(Hb, T).c_str());
    return 0;
  }

  return usage(argv[0]);
}
