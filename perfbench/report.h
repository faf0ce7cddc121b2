// The benchmark's result line: one JSON object on the last line of stdout,
// with the outcome of every check written to stderr before it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Check> checks;

  void Add(std::string name, double value, std::string unit);
  /// Prints the checks and the JSON line; returns the process exit code
  /// (0 — a failed check shows as "correct": false, not as a crash).
  int Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
