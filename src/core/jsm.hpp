// Jaccard Similarity Matrices (§II-E, §II-F).
//
// JSM[i][j] = |attrs(i) ∩ attrs(j)| / |attrs(i) ∪ attrs(j)| over the mined
// attribute sets of each trace. JSM_D = |JSM_faulty − JSM_normal| is the
// paper's "diff of the diffs" ("sky subtraction"): a base level of
// dissimilarity exists even between healthy traces (master vs worker roles),
// so what matters is how the similarity *relation changes* when the fault
// is introduced. The per-trace suspicion score is the row sum of JSM_D —
// "row 5 changed the most after the bug was introduced" (§II-G).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/fca.hpp"
#include "util/matrix.hpp"

namespace difftrace::core {

/// Jaccard similarity of two string sets. Both empty => 1 (identical).
[[nodiscard]] double jaccard(const std::set<std::string>& a, const std::set<std::string>& b);

/// Pairwise JSM over per-object attribute sets.
[[nodiscard]] util::Matrix jsm_from_attributes(const std::vector<std::set<std::string>>& attrs);

/// Same matrix computed through the concept lattice: each object's attribute
/// set is recovered as the intent of its object concept. Exists to
/// demonstrate (and test) that the lattice carries the full information.
[[nodiscard]] util::Matrix jsm_from_lattice(const Lattice& lattice, std::size_t object_count);

/// JSM_D = |faulty − normal| (element-wise).
[[nodiscard]] util::Matrix jsm_diff(const util::Matrix& normal, const util::Matrix& faulty);

/// Row sums of JSM_D: suspicion score per trace, descending order of
/// "affected the most".
[[nodiscard]] std::vector<double> suspicion_scores(const util::Matrix& jsm_d);

}  // namespace difftrace::core
