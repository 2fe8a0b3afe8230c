#include "core/jsm.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace difftrace::core {
namespace {

/// Cells above the diagonal actually computed for an n-object matrix.
void charge_jsm_cells(std::size_t n) {
  static auto& cells = obs::counter("jsm.cells");
  if (n > 1) cells.add(n * (n - 1) / 2);
}

}  // namespace
}  // namespace difftrace::core

namespace difftrace::core {

double jaccard(const std::set<std::string>& a, const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t intersection = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++intersection;
      ++ia;
      ++ib;
    }
  }
  const std::size_t uni = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

util::Matrix jsm_from_attributes(const std::vector<std::set<std::string>>& attrs) {
  const std::size_t n = attrs.size();
  charge_jsm_cells(n);
  util::Matrix m = util::Matrix::square(n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double s = jaccard(attrs[i], attrs[j]);
      m(i, j) = s;
      m(j, i) = s;
    }
  }
  return m;
}

util::Matrix jsm_from_lattice(const Lattice& lattice, std::size_t object_count) {
  charge_jsm_cells(object_count);
  util::Matrix m = util::Matrix::square(object_count);
  std::vector<util::DynamicBitset> intents;
  intents.reserve(object_count);
  for (std::size_t g = 0; g < object_count; ++g)
    intents.push_back(lattice.concepts[lattice.object_concept(g)].intent);
  for (std::size_t i = 0; i < object_count; ++i) {
    m(i, i) = 1.0;
    for (std::size_t j = i + 1; j < object_count; ++j) {
      const auto inter = (intents[i] & intents[j]).count();
      const auto uni = (intents[i] | intents[j]).count();
      const double s = uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
      m(i, j) = s;
      m(j, i) = s;
    }
  }
  return m;
}

util::Matrix jsm_diff(const util::Matrix& normal, const util::Matrix& faulty) {
  return abs_diff(faulty, normal);
}

std::vector<double> suspicion_scores(const util::Matrix& jsm_d) {
  std::vector<double> scores(jsm_d.rows());
  for (std::size_t i = 0; i < jsm_d.rows(); ++i) scores[i] = jsm_d.row_sum(i);
  return scores;
}

}  // namespace difftrace::core
