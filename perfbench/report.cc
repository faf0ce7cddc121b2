#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

int Report::Print() const {
  bool correct = true;
  for (const Check& c : checks) {
    std::fprintf(stderr, "check %-14s %s  %s\n", c.name.c_str(),
                 c.ok ? "ok  " : "FAIL", c.detail.c_str());
    correct = correct && c.ok;
  }
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "check metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
