//===- examples/cafa_fleet.cpp - Supervised batch analysis driver -------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Thin driver over the fleet supervisor (src/fleet/): takes a manifest
// of trace files, runs each analysis as an isolated offline_analyzer
// child process, and emits one aggregate cross-trace report.
//
//   $ ./cafa_fleet run nightly.manifest --workers=4 --json
//
// Faults are contained per job: a worker that crashes or OOMs is
// retried with capped jittered backoff and *resumes from its own
// checkpoint sub-directory*; a hung worker is killed by the watchdog; a
// job that keeps failing lands in a terminal failed:<cause> state while
// the rest of the batch completes.  See docs/fleet.md.
//
// SIGTERM/SIGINT drain the batch instead of killing it mid-write:
// running workers are checkpoint-killed, unfinished jobs land in the
// "interrupted" state, and the aggregate for whatever *did* complete is
// still emitted (flagged with the interrupted count).  Re-running the
// same manifest against the same checkpoint root resumes the
// interrupted jobs.
//
// Exit codes (triage-friendly, one step up from offline_analyzer's):
//   0  every job done, no races anywhere
//   1  every job done, races reported
//   2  usage / manifest / setup error (no batch ran)
//   3  batch completed but some jobs degraded (partial reports)
//   5  batch completed but some jobs failed terminally
//   6  batch interrupted by a signal (unfinished jobs are resumable)
//
//===----------------------------------------------------------------------===//

#include "fleet/Fleet.h"
#include "support/DurableFile.h"
#include "trace/Manifest.h"

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace cafa;

static int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s run <manifest> [options]\n"
      "manifest: one job per line, '<trace-path>' or '<id> <trace-path>'\n"
      "          ('#' comments; relative paths resolve against the\n"
      "          manifest's directory)\n"
      "options:\n"
      "  --analyzer=<path>        offline_analyzer binary (default: next\n"
      "                           to this binary; CAFA_ANALYZER overrides)\n"
      "  --checkpoint-root=<dir>  per-job state root (default:\n"
      "                           <manifest>.fleet)\n"
      "  --workers=<n>            concurrent worker processes (default 1)\n"
      "  --max-attempts=<n>       attempts per job (default 3)\n"
      "  --watchdog=<ms>          kill a worker running longer (default off)\n"
      "  --rlimit-as=<bytes>      RLIMIT_AS jail per worker (default off)\n"
      "  --mem-limit=<bytes>      soft worker mem limit, attempt 1\n"
      "  --deadline=<ms>          soft worker deadline, attempt 1\n"
      "  --checkpoint-every=<ms>  worker snapshot cadence (default 10)\n"
      "  --backoff-initial=<ms>   first retry delay (default 100)\n"
      "  --backoff-max=<ms>       retry delay cap (default 30000)\n"
      "  --seed=<n>               backoff jitter seed (default 0x5EEDCAFA)\n"
      "  --ingest-threads=<n>     forwarded\n"
      "  --strict                 forwarded (salvage incidents fail jobs)\n"
      "  --worker-arg=<arg>       extra analyzer argument, passed to every\n"
      "                           worker (repeatable)\n"
      "  --output=<path>          also write the aggregate there, durably\n"
      "                           (atomic tmp+fsync+rename; JSON with\n"
      "                           --json, text otherwise)\n"
      "  --json                   aggregate report as JSON on stdout\n"
      "exit codes: 0 all done no races, 1 all done races, 2 usage error,\n"
      "            3 some jobs partial, 5 some jobs failed,\n"
      "            6 interrupted by signal (unfinished jobs resumable)\n",
      Prog);
  return 2;
}

// SIGTERM/SIGINT request a drain; the supervisor polls the flag between
// ticks (FleetOptions::StopFlag), so the handler only sets it.
static volatile std::sig_atomic_t StopRequested = 0;
static void onStopSignal(int) { StopRequested = 1; }

/// offline_analyzer next to this binary, via /proc/self/exe.
static std::string defaultAnalyzerPath() {
  char Buf[PATH_MAX];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  std::string Self(Buf);
  size_t Slash = Self.find_last_of('/');
  if (Slash == std::string::npos)
    return "";
  return Self.substr(0, Slash) + "/offline_analyzer";
}

int main(int argc, char **argv) {
  if (argc < 3 || std::strcmp(argv[1], "run") != 0)
    return usage(argv[0]);
  const std::string ManifestPath = argv[2];

  FleetOptions Options;
  bool Json = false;
  std::string OutputPath;
  std::vector<std::string> WorkerArgs;
  if (const char *Env = std::getenv("CAFA_ANALYZER"))
    Options.AnalyzerPath = Env;

  auto numArg = [](const char *Arg, const char *Prefix,
                   unsigned long long &Out) {
    size_t Len = std::strlen(Prefix);
    if (std::strncmp(Arg, Prefix, Len) != 0)
      return false;
    char *End = nullptr;
    Out = std::strtoull(Arg + Len, &End, 0);
    return End != Arg + Len && *End == '\0';
  };
  auto doubleArg = [](const char *Arg, const char *Prefix, double &Out) {
    size_t Len = std::strlen(Prefix);
    if (std::strncmp(Arg, Prefix, Len) != 0)
      return false;
    char *End = nullptr;
    Out = std::strtod(Arg + Len, &End);
    return End != Arg + Len && *End == '\0';
  };

  for (int I = 3; I != argc; ++I) {
    const char *Arg = argv[I];
    unsigned long long N = 0;
    double D = 0;
    if (std::strcmp(Arg, "--json") == 0)
      Json = true;
    else if (std::strcmp(Arg, "--strict") == 0)
      Options.Strict = true;
    else if (std::strncmp(Arg, "--analyzer=", 11) == 0)
      Options.AnalyzerPath = Arg + 11;
    else if (std::strncmp(Arg, "--checkpoint-root=", 18) == 0)
      Options.CheckpointRoot = Arg + 18;
    else if (numArg(Arg, "--workers=", N) && N > 0)
      Options.Workers = static_cast<unsigned>(N);
    else if (numArg(Arg, "--max-attempts=", N) && N > 0)
      Options.MaxAttempts = static_cast<unsigned>(N);
    else if (doubleArg(Arg, "--watchdog=", D))
      Options.WatchdogMillis = D;
    else if (numArg(Arg, "--rlimit-as=", N))
      Options.RlimitBytes = static_cast<size_t>(N);
    else if (numArg(Arg, "--mem-limit=", N))
      Options.MemLimitBytes = static_cast<size_t>(N);
    else if (doubleArg(Arg, "--deadline=", D))
      Options.DeadlineMillis = D;
    else if (doubleArg(Arg, "--checkpoint-every=", D))
      Options.CheckpointEveryMillis = D;
    else if (doubleArg(Arg, "--backoff-initial=", D))
      Options.Backoff.InitialMillis = D;
    else if (doubleArg(Arg, "--backoff-max=", D))
      Options.Backoff.MaxMillis = D;
    else if (numArg(Arg, "--seed=", N))
      Options.Backoff.Seed = N;
    else if (numArg(Arg, "--ingest-threads=", N) && N > 0)
      Options.IngestThreads = static_cast<unsigned>(N);
    else if (std::strncmp(Arg, "--worker-arg=", 13) == 0)
      WorkerArgs.push_back(Arg + 13);
    else if (std::strncmp(Arg, "--output=", 9) == 0)
      OutputPath = Arg + 9;
    else
      return usage(argv[0]);
  }

  if (Options.AnalyzerPath.empty())
    Options.AnalyzerPath = defaultAnalyzerPath();
  if (Options.CheckpointRoot.empty())
    Options.CheckpointRoot = ManifestPath + ".fleet";

  std::vector<ManifestEntry> Entries;
  if (Status S = readManifestFile(ManifestPath, Entries); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 2;
  }
  if (Entries.empty()) {
    std::fprintf(stderr, "error: manifest %s names no jobs\n",
                 ManifestPath.c_str());
    return 2;
  }
  std::vector<FleetJob> Jobs;
  Jobs.reserve(Entries.size());
  for (const ManifestEntry &Entry : Entries) {
    FleetJob Job;
    Job.Id = Entry.Id;
    Job.TracePath = Entry.TracePath;
    Job.ExtraArgs = WorkerArgs;
    Jobs.push_back(std::move(Job));
  }

  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);
  Options.StopFlag = &StopRequested;

  std::fprintf(stderr, "fleet: %zu job(s), %u worker(s), analyzer %s\n",
               Jobs.size(), Options.Workers,
               Options.AnalyzerPath.c_str());
  FleetResult Result;
  if (Status S = runFleet(Jobs, Options, Result); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 2;
  }

  // Aggregate to stdout; the per-job narrative to stderr.  An
  // interrupted batch still reports everything that completed.
  std::fprintf(stderr, "%s", Result.AggregateText.c_str());
  std::fprintf(stderr, "fleet wall time: %.1f ms\n", Result.WallMillis);
  if (Result.WasInterrupted)
    std::fprintf(stderr,
                 "fleet: interrupted by signal; %u job(s) unfinished "
                 "(resumable via the same checkpoint root)\n",
                 Result.Interrupted);
  if (Json)
    std::printf("%s", Result.AggregateJson.c_str());
  else
    std::printf("%s", Result.AggregateText.c_str());
  if (!OutputPath.empty()) {
    // Durable: a crash right here must leave the previous aggregate (or
    // none), never a torn file a dashboard would half-parse.
    const std::string &Body =
        Json ? Result.AggregateJson : Result.AggregateText;
    if (Status S = durableWrite(OutputPath, Body); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 2;
    }
  }

  if (Result.WasInterrupted)
    return 6;
  if (Result.Failed > 0)
    return 5;
  if (Result.Partial > 0)
    return 3;
  return Result.DistinctRaces > 0 ? 1 : 0;
}
