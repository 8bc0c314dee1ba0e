#ifndef TIGERVECTOR_TESTS_PLAN_TEXT_H_
#define TIGERVECTOR_TESTS_PLAN_TEXT_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace tigervector {

// Reads one row of EXPLAIN ANALYZE / PROFILE text: the first number after
// `key` on the first line that starts with it (leading spaces ignored), e.g.
// "* hnsw_distance_evals:" for a plan actual, "query.parse" for a stage row
// (its total_ms) or "cache.topk_bypass" for a counter row. Returns -1 when
// no line carries the key.
inline double PlanTextValue(const std::string& text, const std::string& key) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos || line.compare(start, key.size(), key) != 0) {
      continue;
    }
    const size_t end = start + key.size();
    if (end < line.size() && line[end] != ' ') continue;  // a longer name
    return std::strtod(line.c_str() + end, nullptr);
  }
  return -1;
}

}  // namespace tigervector

#endif  // TIGERVECTOR_TESTS_PLAN_TEXT_H_
