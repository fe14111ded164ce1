// main() of ccsim_bench: the figure registry, flag parsing and the
// dispatcher. Every CCSIM_BENCH_FIGURE translation unit registers its body
// here; the command line names the figures to run, or `all`.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace ccsim::bench {

namespace {

using Figure = std::pair<std::string, FigureFn>;

std::vector<Figure>& Registry() {
  static std::vector<Figure> figures;
  return figures;
}

[[noreturn]] void Usage(const char* argv0, int rc) {
  std::FILE* out = rc == 0 ? stdout : stderr;
  std::fprintf(
      out,
      "usage: %s [--jobs N] <figure>...|all\n"
      "  all        run every figure below, in name order\n"
      "  --jobs N   simulation worker threads (default: $CCSIM_JOBS, else\n"
      "             hardware concurrency). Parallelism only changes wall\n"
      "             time: results are bit-identical to --jobs 1.\n"
      "figures:\n",
      argv0);
  for (const auto& [name, fn] : Registry()) {
    std::fprintf(out, "  %s\n", name.c_str());
  }
  std::exit(rc);
}

int Dispatch(int argc, char** argv) {
  auto& figures = Registry();
  // Static-initialization order across translation units is unspecified;
  // name order makes `all` and the usage listing deterministic.
  std::sort(figures.begin(), figures.end());

  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage(argv[0], 0);
    } else if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 >= argc) Usage(argv[0], 2);
      value = argv[++i];
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      value = arg + 7;
    } else if (std::strcmp(arg, "all") == 0) {
      for (const Figure& figure : figures) selected.push_back(&figure);
    } else {
      auto it = std::find_if(figures.begin(), figures.end(),
                             [arg](const Figure& f) { return f.first == arg; });
      if (it == figures.end()) {
        std::fprintf(stderr, "%s: unknown figure '%s'\n", argv[0], arg);
        Usage(argv[0], 2);
      }
      selected.push_back(&*it);
    }
    if (value != nullptr) {
      char* end = nullptr;
      long jobs = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || jobs < 1) {
        std::fprintf(stderr, "%s: --jobs needs a positive integer, got '%s'\n",
                     argv[0], value);
        std::exit(2);
      }
      experiments::SetDefaultJobs(static_cast<int>(jobs));
    }
  }
  if (selected.empty()) Usage(argv[0], 2);

  int rc = 0;
  for (const Figure* figure : selected) {
    if (selected.size() > 1) {
      std::printf("==================== %s ====================\n",
                  figure->first.c_str());
    }
    int figure_rc = figure->second();
    if (rc == 0 && figure_rc != 0) rc = figure_rc;
  }
  return rc;
}

}  // namespace

bool RegisterFigure(const char* name, FigureFn fn) {
  Registry().emplace_back(name, fn);
  return true;
}

}  // namespace ccsim::bench

int main(int argc, char** argv) { return ccsim::bench::Dispatch(argc, argv); }
