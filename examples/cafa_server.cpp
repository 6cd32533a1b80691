//===- examples/cafa_server.cpp - Analysis daemon driver ----------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Analysis-as-a-service driver over src/server/: a long-running daemon
// accepting trace submissions on a Unix socket, running each as an
// isolated checkpoint-resuming offline_analyzer worker, and folding
// every terminal outcome into a persistent cross-trace race store that
// accumulates across restarts.
//
//   $ ./cafa_server serve --socket=/tmp/cafa.sock --store=races.journal
//         --checkpoint-root=state/ --workers=4 &
//   $ ./cafa_server ctl /tmp/cafa.sock submit user1 traces/user1.trace
//   $ ./cafa_server ctl /tmp/cafa.sock report
//   $ ./cafa_server ctl /tmp/cafa.sock drain
//
// serve exit codes: 0 drained clean, 2 usage/setup error, 6 drained but
// jobs were cut short by a signal (resumable: restart and resubmit).
// ctl exit codes: 0 the daemon answered "ok"/with data, 1 the daemon
// answered "err ...", 2 usage or connection failure.
// See docs/server.md for the protocol and lifecycle.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

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
      "  %s serve --socket=<path> --store=<path> [options]\n"
      "  %s ctl <socket> <command> [args...]\n"
      "serve options:\n"
      "  --socket=<path>          Unix socket for the control plane\n"
      "  --store=<path>           race-store journal (created if absent)\n"
      "  --checkpoint-root=<dir>  per-job state root (default:\n"
      "                           <store>.jobs)\n"
      "  --analyzer=<path>        offline_analyzer binary (default: next\n"
      "                           to this binary; CAFA_ANALYZER overrides)\n"
      "  --workers=<n>            concurrent worker processes (default 1)\n"
      "  --max-attempts=<n>       attempts per job (default 3)\n"
      "  --max-queue=<n>          admission bound: refuse submissions\n"
      "                           past this many queued+running (default 64)\n"
      "  --drain-grace=<ms>       SIGTERM: let running workers finish for\n"
      "                           this long before checkpoint-kill (default 5000)\n"
      "  --watchdog=<ms>          kill a worker running longer (default off)\n"
      "  --rlimit-as=<bytes>      RLIMIT_AS jail per worker (default off)\n"
      "  --mem-limit=<bytes>      soft worker mem limit, attempt 1\n"
      "  --deadline=<ms>          soft worker deadline, attempt 1\n"
      "  --checkpoint-every=<ms>  worker snapshot cadence (default 10)\n"
      "  --backoff-initial=<ms> / --backoff-max=<ms> / --seed=<n>\n"
      "  --ingest-threads=<n>     forwarded\n"
      "  --strict                 forwarded (salvage incidents fail jobs)\n"
      "ctl commands:\n"
      "  submit <id> <trace> [worker-args...]   queue one analysis\n"
      "  status                                 queue + store JSON\n"
      "  report                                 cross-trace aggregate JSON\n"
      "  compact                                rewrite the store journal\n"
      "  drain                                  finish queued work and exit\n"
      "  ping                                   liveness probe\n"
      "serve exit codes: 0 drained clean, 2 usage/setup error,\n"
      "                  6 drained with jobs cut short (resumable)\n",
      Prog, Prog);
  return 2;
}

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

static volatile std::sig_atomic_t StopRequested = 0;
static void onStopSignal(int) { StopRequested = 1; }

static int runServe(int argc, char **argv) {
  ServerOptions Options;
  if (const char *Env = std::getenv("CAFA_ANALYZER"))
    Options.Fleet.AnalyzerPath = Env;

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

  for (int I = 2; I != argc; ++I) {
    const char *Arg = argv[I];
    unsigned long long N = 0;
    double D = 0;
    if (std::strncmp(Arg, "--socket=", 9) == 0)
      Options.SocketPath = Arg + 9;
    else if (std::strncmp(Arg, "--store=", 8) == 0)
      Options.StorePath = Arg + 8;
    else if (std::strncmp(Arg, "--checkpoint-root=", 18) == 0)
      Options.Fleet.CheckpointRoot = Arg + 18;
    else if (std::strncmp(Arg, "--analyzer=", 11) == 0)
      Options.Fleet.AnalyzerPath = Arg + 11;
    else if (std::strcmp(Arg, "--strict") == 0)
      Options.Fleet.Strict = true;
    else if (numArg(Arg, "--workers=", N) && N > 0)
      Options.Fleet.Workers = static_cast<unsigned>(N);
    else if (numArg(Arg, "--max-attempts=", N) && N > 0)
      Options.Fleet.MaxAttempts = static_cast<unsigned>(N);
    else if (numArg(Arg, "--max-queue=", N) && N > 0)
      Options.MaxQueue = static_cast<size_t>(N);
    else if (doubleArg(Arg, "--drain-grace=", D))
      Options.DrainGraceMillis = D;
    else if (doubleArg(Arg, "--watchdog=", D))
      Options.Fleet.WatchdogMillis = D;
    else if (numArg(Arg, "--rlimit-as=", N))
      Options.Fleet.RlimitBytes = static_cast<size_t>(N);
    else if (numArg(Arg, "--mem-limit=", N))
      Options.Fleet.MemLimitBytes = static_cast<size_t>(N);
    else if (doubleArg(Arg, "--deadline=", D))
      Options.Fleet.DeadlineMillis = D;
    else if (doubleArg(Arg, "--checkpoint-every=", D))
      Options.Fleet.CheckpointEveryMillis = D;
    else if (doubleArg(Arg, "--backoff-initial=", D))
      Options.Fleet.Backoff.InitialMillis = D;
    else if (doubleArg(Arg, "--backoff-max=", D))
      Options.Fleet.Backoff.MaxMillis = D;
    else if (numArg(Arg, "--seed=", N))
      Options.Fleet.Backoff.Seed = N;
    else if (numArg(Arg, "--ingest-threads=", N) && N > 0)
      Options.Fleet.IngestThreads = static_cast<unsigned>(N);
    else
      return usage(argv[0]);
  }

  if (Options.SocketPath.empty() || Options.StorePath.empty())
    return usage(argv[0]);
  if (Options.Fleet.AnalyzerPath.empty())
    Options.Fleet.AnalyzerPath = defaultAnalyzerPath();
  if (Options.Fleet.CheckpointRoot.empty())
    Options.Fleet.CheckpointRoot = Options.StorePath + ".jobs";

  // SIGTERM/SIGINT start the fast drain; SIGPIPE would otherwise kill
  // the daemon when a ctl client hangs up mid-reply.
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGPIPE, SIG_IGN);

  Server Daemon(Options);
  if (Status S = Daemon.setup(); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return ServerExitUsage;
  }
  std::fprintf(stderr,
               "cafa_server: listening on %s, store %s, %u worker(s)\n",
               Options.SocketPath.c_str(), Options.StorePath.c_str(),
               Options.Fleet.Workers);
  int Code = Daemon.run(&StopRequested);
  std::fprintf(stderr, "cafa_server: drained, exit %d\n", Code);
  return Code;
}

static int runCtl(int argc, char **argv) {
  if (argc < 4)
    return usage(argv[0]);
  const std::string SocketPath = argv[2];
  std::string Command;
  for (int I = 3; I != argc; ++I) {
    if (I > 3)
      Command += " ";
    Command += argv[I];
  }
  std::string Response;
  if (Status S = serverRequest(SocketPath, Command, Response); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 2;
  }
  std::printf("%s", Response.c_str());
  // Single-line protocol errors are the daemon refusing the command.
  return Response.rfind("err ", 0) == 0 ? 1 : 0;
}

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);
  if (std::strcmp(argv[1], "serve") == 0)
    return runServe(argc, argv);
  if (std::strcmp(argv[1], "ctl") == 0)
    return runCtl(argc, argv);
  return usage(argv[0]);
}
