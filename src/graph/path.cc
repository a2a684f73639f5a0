#include "graph/path.h"

namespace ecrpq {

Word Path::Label() const {
  Word word;
  word.reserve(steps_.size());
  for (const auto& [label, to] : steps_) word.push_back(label);
  return word;
}

NodeId Path::NodeAt(int i) const {
  ECRPQ_DCHECK(i >= 0 && i <= length());
  if (i == 0) return start_;
  return steps_[i - 1].second;
}

bool Path::IsValidIn(const GraphDb& graph) const {
  if (start_ < 0 || start_ >= graph.num_nodes()) return false;
  NodeId at = start_;
  for (const auto& [label, to] : steps_) {
    if (!graph.HasEdge(at, label, to)) return false;
    at = to;
  }
  return true;
}

std::string Path::ToString(const GraphDb& graph) const {
  std::string out = graph.NodeName(start_);
  NodeId at = start_;
  (void)at;
  for (const auto& [label, to] : steps_) {
    out += " -" + graph.alphabet().Label(label) + "-> ";
    out += graph.NodeName(to);
    at = to;
  }
  return out;
}

std::vector<Path> EnumeratePathsFrom(const GraphIndex& index, NodeId start,
                                     int max_len) {
  std::vector<Path> out;
  std::vector<Path> frontier = {Path(start)};
  out.push_back(frontier[0]);
  for (int depth = 0; depth < max_len; ++depth) {
    std::vector<Path> next;
    for (const Path& p : frontier) {
      const std::span<const Symbol> labels = index.OutLabels(p.end());
      const std::span<const NodeId> targets = index.OutTargets(p.end());
      for (size_t i = 0; i < labels.size(); ++i) {
        Path extended = p;
        extended.Append(labels[i], targets[i]);
        out.push_back(extended);
        next.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return out;
}

std::vector<Path> EnumerateAllPaths(const GraphIndex& index, int max_len) {
  std::vector<Path> out;
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    std::vector<Path> from = EnumeratePathsFrom(index, v, max_len);
    out.insert(out.end(), from.begin(), from.end());
  }
  return out;
}

}  // namespace ecrpq
