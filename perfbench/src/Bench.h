//===- perfbench/src/Bench.h - Pipeline benchmark driver ---------*- C++ -*-===//
//
// Part of the CAFA reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the cafabench driver: workload names, the input
/// manifest a setup run writes and a measuring run reads back, the
/// correctness references, and the two entry points.
///
//===----------------------------------------------------------------------===//

#ifndef CAFA_PERFBENCH_BENCH_H
#define CAFA_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace bench {

enum class Workload { Apps, BigTrace, Triage, Fleet };

bool parseWorkload(const std::string &Name, Workload &Out);

/// Static identity of a race: use method, use pc, free method, free pc.
using RaceKey = std::tuple<std::string, uint32_t, std::string, uint32_t>;

/// One generated trace file.
struct InputFile {
  std::string App;  ///< app model name, or "bigtrace"
  std::string Path; ///< trace file, relative to the run directory
  uint64_t Events = 0;
  uint64_t Bytes = 0;
};

/// What setup generated: the trace files in the seeded analysis order,
/// seeded fleet job orders (indices into Inputs; batch b of a run uses
/// order b modulo their count, so a run's median batch does not hinge on
/// one lucky or unlucky order), and for bigtrace the use/free pairs the
/// generator planted.
struct Manifest {
  std::vector<InputFile> Inputs;
  std::vector<std::vector<size_t>> FleetOrders;
  std::vector<RaceKey> Planted;
};

/// Sizes that differ between the full benchmark and the reduced one the
/// benchmark's own tests run.
struct Scale {
  bool Small = false;
  uint64_t bigTraceEvents() const { return Small ? 20000 : 500000; }
  /// App models the apps/triage/fleet workloads analyze.
  std::vector<std::string> apps() const;
  unsigned fleetCopies() const { return 3; }
  unsigned fleetOrders() const { return 4; }
};

struct SetupStats {
  double SetupSeconds = 0; ///< generate + write, the setup_s sample
  double RecordMillis = 0; ///< time spent in rt recording
  double TraceMb = 0;      ///< bytes the recordings wrote
};

/// Generates \p W's inputs for \p Seed into \p Dir (manifest included).
bool runSetup(Workload W, uint64_t Seed, const Scale &Sc,
              const std::string &Dir, SetupStats &Out);

bool writeManifest(const Manifest &M, const std::string &Dir);
bool readManifest(const std::string &Dir, Manifest &Out);

struct RunOptions {
  Workload W = Workload::Apps;
  std::string Dir;
  std::string Analyzer; ///< offline_analyzer binary the fleet spawns
  std::string SpansPath; ///< where a traced run writes its spans
  double Seconds = 1;
  bool Traced = false;
  /// Hand every checker a deliberately wrong reference (the benchmark's
  /// own tests use this to show each check can fail).
  bool WrongReference = false;
};

/// Metric name -> (value, unit), in print order.
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> Rows;
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Rows.emplace_back(Name, Value, Unit);
  }
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  Metrics M;
  /// Human-readable lines printed before the result (sample counts,
  /// p90 where there are enough samples, per-layer self times).
  std::vector<std::string> Notes;
};

/// Runs the timed (or traced) passes over the inputs in RunOptions::Dir.
bool runWorkload(const RunOptions &Options, RunResult &Out);

} // namespace bench

#endif // CAFA_PERFBENCH_BENCH_H
