// Agglomerative hierarchical clustering (§III-C).
//
// A from-scratch replacement for the SciPy `linkage` the paper uses:
// Lance–Williams updates over a pairwise distance matrix, with the same
// seven methods SciPy exposes (single, complete, average, weighted, ward,
// centroid, median) and SciPy's formulas (ward/centroid/median operate on
// Euclidean-style distances; DiffTrace feeds 1 − JSM, as the paper does).
// The output mirrors SciPy's Z matrix: merge i joins clusters a and b
// (original observations are 0..n-1, merge i creates cluster n+i) at the
// given height.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/matrix.hpp"

namespace difftrace::core {

enum class Linkage : std::uint8_t { Single, Complete, Average, Weighted, Ward, Centroid, Median };

[[nodiscard]] std::string_view linkage_name(Linkage l) noexcept;
[[nodiscard]] std::vector<Linkage> all_linkages();

struct Merge {
  std::size_t a = 0;  // cluster ids (observation < n, else n + merge index)
  std::size_t b = 0;
  double height = 0.0;
  std::size_t size = 0;  // observations in the merged cluster
};

using Dendrogram = std::vector<Merge>;  // n-1 merges

/// `dist` must be a symmetric square matrix with zero diagonal.
[[nodiscard]] Dendrogram linkage(const util::Matrix& dist, Linkage method);

/// Cuts a dendrogram into exactly k flat clusters (1 <= k <= n); returns a
/// label in [0, k) per observation, labelled in first-appearance order.
[[nodiscard]] std::vector<int> cut_to_k(const Dendrogram& dendrogram, std::size_t n, std::size_t k);

/// Distance matrix helper: 1 - similarity, forced symmetric, zero diagonal.
[[nodiscard]] util::Matrix similarity_to_distance(const util::Matrix& similarity);

/// ASCII dendrogram, merges bottom-up with heights and member labels:
///   [5.0 7.0] + [3.0]  @ 0.241
/// `labels` must have n entries (defaults to indices when empty).
[[nodiscard]] std::string render_dendrogram(const Dendrogram& dendrogram, std::size_t n,
                                            const std::vector<std::string>& labels = {});

}  // namespace difftrace::core
