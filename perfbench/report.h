// Collects a run's metrics, failures and notes, and prints them: one line
// per metric for people, then the one-line JSON result the benchmark
// contract asks for as the last line of stdout.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Points run (each batch point, each audited point).
  std::size_t attempted = 0;

  /// Counts `points` failed points, with the reason.
  void Fail(std::size_t points, const std::string& why) {
    failed_ += points;
    problems_.push_back(why);
  }

  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void Note(std::string line) { notes_.push_back(std::move(line)); }

  void Print() const {
    for (const auto& p : problems_) {
      std::printf("%s FAIL %s\n", workload_.c_str(), p.c_str());
    }
    for (const auto& n : notes_) {
      std::printf("%s %s\n", workload_.c_str(), n.c_str());
    }
    for (const auto& m : metrics_) {
      std::printf("%s %-32s %.6g %s\n", workload_.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    const double fail_ratio =
        attempted > 0 ? static_cast<double>(failed_) /
                            static_cast<double>(attempted)
                      : 1.0;
    std::printf("%s %-32s %.6g failed/attempted (%zu/%zu)\n",
                workload_.c_str(), "fail_ratio", fail_ratio, failed_,
                attempted);

    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
  std::vector<std::string> notes_;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
