#ifndef CCSIM_BENCH_BENCH_COMMON_H_
#define CCSIM_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/experiments/cache.h"
#include "ccsim/experiments/experiments.h"
#include "ccsim/experiments/report.h"
#include "ccsim/experiments/runner.h"
#include "ccsim/experiments/sweep.h"

namespace ccsim::bench {

using experiments::At;
using experiments::Point;
using experiments::ResultCache;

/// Figure registration. Every figure defines its body with
/// CCSIM_BENCH_FIGURE(name); bench_main.cc provides main(), which runs the
/// figures named on the command line (or `all`, in name order) over one
/// shared result cache.
using FigureFn = int (*)();
bool RegisterFigure(const char* name, FigureFn fn);

/// True when environment switch `name` is set to anything but empty or "0"
/// (CCSIM_QUICK and the per-figure CCSIM_*_SMOKE switches).
inline bool EnvSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Directory the figures write their CSVs to: $CCSIM_CSV_DIR, default
/// ./bench_results.
inline std::string CsvDir() {
  const char* env = std::getenv("CCSIM_CSV_DIR");
  return env != nullptr && env[0] != '\0' ? env : "bench_results";
}

inline const std::vector<config::CcAlgorithm>& Algorithms() {
  static const std::vector<config::CcAlgorithm> algs(
      std::begin(config::kAllAlgorithms), std::end(config::kAllAlgorithms));
  return algs;
}

inline const std::vector<config::CcAlgorithm>& RealAlgorithms() {
  static const std::vector<config::CcAlgorithm> algs{
      config::CcAlgorithm::kTwoPhaseLocking, config::CcAlgorithm::kBasicTimestamp,
      config::CcAlgorithm::kWoundWait, config::CcAlgorithm::kOptimistic};
  return algs;
}

/// Experiment 1 sweep (Sec 4.2): think-time grid at one machine size.
inline std::vector<Point> Exp1Sweep(const ResultCache& cache, int nodes) {
  return experiments::RunGrid(
      cache, Algorithms(), experiments::PaperThinkTimes(),
      [nodes](config::CcAlgorithm alg, double think) {
        return experiments::Exp1Config(nodes, alg, think);
      });
}

/// Experiment 2 sweep (Sec 4.3): think-time grid at one partitioning degree
/// and database size.
inline std::vector<Point> Exp2Sweep(const ResultCache& cache, int degree,
                                    int pages_per_file) {
  return experiments::RunGrid(
      cache, Algorithms(), experiments::PaperThinkTimes(),
      [degree, pages_per_file](config::CcAlgorithm alg, double think) {
        return experiments::Exp2Config(degree, pages_per_file, alg, think);
      });
}

/// Experiment 3 sweep (Sec 4.4): partitioning-degree grid at one overhead
/// setting and think time.
inline std::vector<Point> Exp3Sweep(const ResultCache& cache,
                                    double inst_per_startup,
                                    double inst_per_msg, double think) {
  return experiments::RunGrid(
      cache, Algorithms(), {1, 2, 4, 8},
      [=](config::CcAlgorithm alg, double degree) {
        return experiments::Exp3Config(static_cast<int>(degree),
                                       inst_per_startup, inst_per_msg, alg,
                                       think);
      });
}

inline void PrintRunScaleNote() {
  std::cout << "Run windows: set CCSIM_QUICK=1 for smoke runs, CCSIM_FULL=1 "
               "for long runs.\nResults are cached in "
            << ResultCache().directory()
            << " (delete to recompute; shared across figures).\n\n";
}

/// Prints one series as an ASCII table AND writes it as CSV under
/// $CCSIM_CSV_DIR (default ./bench_results) for plotting.
inline void ReportSeries(const std::string& slug, const std::string& title,
                         const std::string& x_label,
                         const std::vector<double>& xs,
                         const std::vector<config::CcAlgorithm>& algorithms,
                         const experiments::CellFn& cell, int precision = 3) {
  experiments::PrintTable(std::cout, title, x_label, xs, algorithms, cell,
                          precision);
  std::string path = CsvDir() + "/" + slug + ".csv";
  if (experiments::WriteCsvFile(path, x_label, xs, algorithms, cell)) {
    std::cout << "[csv] " << path << "\n";
  }
}

}  // namespace ccsim::bench

/// Defines the body of one figure and registers it under `name`, the
/// argument that runs it: `ccsim_bench name`.
#define CCSIM_BENCH_FIGURE(name)                                     \
  static int name##_figure_body();                                   \
  [[maybe_unused]] static const bool name##_registered =             \
      ccsim::bench::RegisterFigure(#name, &name##_figure_body);      \
  static int name##_figure_body()

#endif  // CCSIM_BENCH_BENCH_COMMON_H_
