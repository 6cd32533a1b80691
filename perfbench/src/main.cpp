//===- perfbench/src/main.cpp - cafabench command line ------------------===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Two subcommands, run as separate processes so that generating the
// inputs never shows in the measuring process's time or peak RSS:
//
//   cafabench setup <workload> --seed=<n> --dir=<d> [--small]
//   cafabench run <workload> --dir=<d> --seconds=<s> --trace=<0|1>
//             --analyzer=<offline_analyzer> [--spans=<file>]
//             [--wrong-reference]
//
// Each prints human-readable notes and, as its last line, one JSON
// object (setup: its timings; run: attempted/failed and the metrics).
// perfbench/run.py drives both.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace bench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cafabench setup <workload> --seed=<n> --dir=<d> "
               "[--small]\n"
               "       cafabench run <workload> --dir=<d> --seconds=<s> "
               "--trace=<0|1> --analyzer=<path> [--spans=<file>] "
               "[--wrong-reference]\n"
               "workloads: apps bigtrace triage fleet\n");
  return 2;
}

bool flag(const char *Arg, const char *Name, std::string &Out) {
  size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  Out = Arg + N + 1;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3)
    return usage();
  std::string Cmd = argv[1];
  Workload W;
  if (!parseWorkload(argv[2], W))
    return usage();
  std::string Seed = "0", Dir, Seconds = "1", Trace = "0", Analyzer, Spans;
  Scale Sc;
  bool Wrong = false;
  for (int I = 3; I < argc; ++I) {
    if (flag(argv[I], "--seed", Seed) || flag(argv[I], "--dir", Dir) ||
        flag(argv[I], "--seconds", Seconds) ||
        flag(argv[I], "--trace", Trace) ||
        flag(argv[I], "--analyzer", Analyzer) ||
        flag(argv[I], "--spans", Spans))
      continue;
    if (std::strcmp(argv[I], "--small") == 0)
      Sc.Small = true;
    else if (std::strcmp(argv[I], "--wrong-reference") == 0)
      Wrong = true;
    else
      return usage();
  }
  if (Dir.empty())
    return usage();

  if (Cmd == "setup") {
    SetupStats Stats;
    if (!runSetup(W, std::strtoull(Seed.c_str(), nullptr, 10), Sc, Dir,
                  Stats))
      return 1;
    std::printf("{\"setup_s\": %.9g, \"rt.record_ms\": %.9g, "
                "\"rt.trace_mb\": %.9g}\n",
                Stats.SetupSeconds, Stats.RecordMillis, Stats.TraceMb);
    return 0;
  }
  if (Cmd != "run" || (Trace != "0" && Trace != "1"))
    return usage();
  RunOptions O;
  O.W = W;
  O.Dir = Dir;
  O.Analyzer = Analyzer;
  O.SpansPath = Spans;
  O.Seconds = std::strtod(Seconds.c_str(), nullptr);
  O.Traced = Trace == "1";
  O.WrongReference = Wrong;
  if (W == Workload::Fleet && Analyzer.empty())
    return usage();
  RunResult R;
  if (!runWorkload(O, R))
    return 1;
  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.M.Rows.size(); ++I) {
    const auto &[Name, Value, Unit] = R.M.Rows[I];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Name.c_str(), Value, Unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
