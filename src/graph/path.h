// Paths in a graph database (Section 2 of the paper).
//
// A path ρ = v0 a0 v1 a1 ... a(m-1) vm with every (vi, ai, vi+1) an edge.
// The label λ(ρ) is the word a0...a(m-1); the empty path (v, ε, v) has label
// ε. Paths are the objects bound to path variables and may appear in query
// outputs.

#ifndef ECRPQ_GRAPH_PATH_H_
#define ECRPQ_GRAPH_PATH_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/index.h"
#include "util/status.h"

namespace ecrpq {

/// A concrete path in a GraphDb.
class Path {
 public:
  /// The empty path at `start`.
  explicit Path(NodeId start) : start_(start) {}

  /// A path from `start` through the given (label, node) steps.
  Path(NodeId start, std::vector<std::pair<Symbol, NodeId>> steps)
      : start_(start), steps_(std::move(steps)) {}

  NodeId start() const { return start_; }
  NodeId end() const { return steps_.empty() ? start_ : steps_.back().second; }

  /// Number of edges (the paper's path length).
  int length() const { return static_cast<int>(steps_.size()); }

  const std::vector<std::pair<Symbol, NodeId>>& steps() const {
    return steps_;
  }

  /// Appends one edge step.
  void Append(Symbol label, NodeId to) { steps_.emplace_back(label, to); }

  /// λ(ρ): the word of edge labels.
  Word Label() const;

  /// The i-th node on the path, i in [0, length()].
  NodeId NodeAt(int i) const;

  /// Checks that every step is an edge of `graph`.
  bool IsValidIn(const GraphDb& graph) const;

  /// Rendering "v0 -a-> v1 -b-> v2" using graph names.
  std::string ToString(const GraphDb& graph) const;

  bool operator==(const Path& other) const = default;

 private:
  NodeId start_;
  std::vector<std::pair<Symbol, NodeId>> steps_;
};

/// All paths of the graph `index` snapshots, starting anywhere, with
/// length <= max_len, in BFS order (each node's edges in (label, target)
/// order). Intended for brute-force reference evaluation on small graphs.
std::vector<Path> EnumerateAllPaths(const GraphIndex& index, int max_len);

/// All paths from `start` with length <= max_len.
std::vector<Path> EnumeratePathsFrom(const GraphIndex& index, NodeId start,
                                     int max_len);

}  // namespace ecrpq

#endif  // ECRPQ_GRAPH_PATH_H_
