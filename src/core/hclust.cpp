#include "core/hclust.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace difftrace::core {

std::string_view linkage_name(Linkage l) noexcept {
  switch (l) {
    case Linkage::Single: return "single";
    case Linkage::Complete: return "complete";
    case Linkage::Average: return "average";
    case Linkage::Weighted: return "weighted";
    case Linkage::Ward: return "ward";
    case Linkage::Centroid: return "centroid";
    case Linkage::Median: return "median";
  }
  return "unknown";
}

std::vector<Linkage> all_linkages() {
  return {Linkage::Single, Linkage::Complete, Linkage::Average, Linkage::Weighted,
          Linkage::Ward,   Linkage::Centroid, Linkage::Median};
}

namespace {

double lance_williams(Linkage method, double d_ik, double d_jk, double d_ij, double ni, double nj,
                      double nk) {
  switch (method) {
    case Linkage::Single:
      return std::min(d_ik, d_jk);
    case Linkage::Complete:
      return std::max(d_ik, d_jk);
    case Linkage::Average:
      return (ni * d_ik + nj * d_jk) / (ni + nj);
    case Linkage::Weighted:
      return 0.5 * (d_ik + d_jk);
    case Linkage::Ward: {
      const double t = ni + nj + nk;
      const double v = ((ni + nk) * d_ik * d_ik + (nj + nk) * d_jk * d_jk - nk * d_ij * d_ij) / t;
      return std::sqrt(std::max(0.0, v));
    }
    case Linkage::Centroid: {
      const double s = ni + nj;
      const double v = (ni * d_ik * d_ik + nj * d_jk * d_jk) / s - ni * nj * d_ij * d_ij / (s * s);
      return std::sqrt(std::max(0.0, v));
    }
    case Linkage::Median: {
      const double v = 0.5 * d_ik * d_ik + 0.5 * d_jk * d_jk - 0.25 * d_ij * d_ij;
      return std::sqrt(std::max(0.0, v));
    }
  }
  return 0.0;
}

}  // namespace

Dendrogram linkage(const util::Matrix& dist, Linkage method) {
  const std::size_t n = dist.rows();
  if (dist.cols() != n) throw std::invalid_argument("linkage: distance matrix must be square");
  if (n == 0) return {};

  // Working copy indexed by cluster slot; slot i holds cluster id ids[i].
  util::Matrix d = dist;
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  std::vector<double> sizes(n, 1.0);
  std::vector<bool> active(n, true);

  Dendrogram out;
  out.reserve(n - 1);
  for (std::size_t merge_index = 0; merge_index + 1 < n; ++merge_index) {
    // Find the closest active pair.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0;
    std::size_t bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (d(i, j) < best) {
          best = d(i, j);
          bi = i;
          bj = j;
        }
      }
    }

    const double ni = sizes[bi];
    const double nj = sizes[bj];
    out.push_back(Merge{ids[bi], ids[bj], best, static_cast<std::size_t>(ni + nj)});

    // Merged cluster lives in slot bi; slot bj retires.
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi || k == bj) continue;
      const double updated = lance_williams(method, d(bi, k), d(bj, k), best, ni, nj, sizes[k]);
      d(bi, k) = updated;
      d(k, bi) = updated;
    }
    sizes[bi] = ni + nj;
    ids[bi] = n + merge_index;
    active[bj] = false;
  }
  return out;
}

std::vector<int> cut_to_k(const Dendrogram& dendrogram, std::size_t n, std::size_t k) {
  if (k == 0 || k > n) throw std::invalid_argument("cut_to_k: k must be in [1, n]");
  if (dendrogram.size() != n - 1 && n > 0)
    throw std::invalid_argument("cut_to_k: dendrogram size does not match n");

  // Union-find over observations; apply the first n - k merges.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // Cluster id -> a representative observation.
  std::vector<std::size_t> representative(n + dendrogram.size());
  for (std::size_t i = 0; i < n; ++i) representative[i] = i;
  for (std::size_t m = 0; m + k < n; ++m) {
    const auto& merge = dendrogram[m];
    const auto ra = find(representative[merge.a]);
    const auto rb = find(representative[merge.b]);
    parent[rb] = ra;
    representative[n + m] = ra;
  }

  std::vector<int> labels(n, -1);
  int next = 0;
  std::vector<int> root_label(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto root = find(i);
    if (root_label[root] < 0) root_label[root] = next++;
    labels[i] = root_label[root];
  }
  return labels;
}

std::string render_dendrogram(const Dendrogram& dendrogram, std::size_t n,
                              const std::vector<std::string>& labels) {
  if (!labels.empty() && labels.size() != n)
    throw std::invalid_argument("render_dendrogram: need one label per observation");
  const auto label_of = [&](std::size_t i) {
    return labels.empty() ? std::to_string(i) : labels[i];
  };
  std::vector<std::string> cluster_text(n + dendrogram.size());
  for (std::size_t i = 0; i < n; ++i) cluster_text[i] = label_of(i);

  std::string out;
  for (std::size_t m = 0; m < dendrogram.size(); ++m) {
    const auto& merge = dendrogram[m];
    const std::string& a = cluster_text[merge.a];
    const std::string& b = cluster_text[merge.b];
    out += "[" + a + "] + [" + b + "]  @ ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", merge.height);
    out += buf;
    out += '\n';
    cluster_text[n + m] = a + " " + b;
  }
  return out;
}

util::Matrix similarity_to_distance(const util::Matrix& similarity) {
  const std::size_t n = similarity.rows();
  util::Matrix d = util::Matrix::square(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double s = 0.5 * (similarity(i, j) + similarity(j, i));
      d(i, j) = std::max(0.0, 1.0 - s);
    }
  return d;
}

}  // namespace difftrace::core
