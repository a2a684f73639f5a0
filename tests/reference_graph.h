// The graph builder's storage as it was before GraphDb's flat arenas: one
// heap out-list per node, one std::string per name and a std::map from
// name to id. graph_arena_test.cc runs random operation sequences on both
// and asserts that they agree after every step.
//
// It also keeps the checkpoint image encoded in one pass, for either graph
// type: the byte-for-byte oracle of the streaming encoder.

#ifndef ECRPQ_TESTS_REFERENCE_GRAPH_H_
#define ECRPQ_TESTS_REFERENCE_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/crc32c.h"

namespace ecrpq {

class ReferenceGraph {
 public:
  explicit ReferenceGraph(AlphabetPtr alphabet)
      : alphabet_(std::move(alphabet)) {}

  NodeId AddNode(std::string_view name = {}) {
    if (!name.empty()) {
      auto it = by_name_.find(name);
      if (it != by_name_.end()) return it->second;
    }
    ++version_;
    const NodeId id = num_nodes();
    out_.emplace_back();
    names_.emplace_back(name);
    if (!name.empty()) by_name_.emplace(std::string(name), id);
    return id;
  }

  NodeId AddNodes(int count) {
    ++version_;
    const NodeId first = num_nodes();
    out_.resize(out_.size() + count);
    names_.resize(names_.size() + count);
    return first;
  }

  void AddEdge(NodeId from, Symbol label, NodeId to) {
    out_[from].emplace_back(label, to);
    ++num_edges_;
    ++version_;
  }

  void AddEdges(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) out_[e.from].emplace_back(e.label, e.to);
    num_edges_ += static_cast<int>(edges.size());
    ++version_;
  }

  bool RemoveEdge(NodeId from, Symbol label, NodeId to) {
    auto& out = out_[from];
    auto it = std::find(out.begin(), out.end(), GraphDb::Arc(label, to));
    if (it == out.end()) return false;
    out.erase(it);
    --num_edges_;
    ++version_;
    return true;
  }

  std::optional<NodeId> FindNode(std::string_view name) const {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) return std::nullopt;
    return it->second;
  }
  const std::string& StoredName(NodeId v) const { return names_[v]; }
  std::string NodeName(NodeId v) const {
    if (!names_[v].empty()) return names_[v];
    std::string anonymous = "n";
    return anonymous += std::to_string(v);
  }
  const std::vector<GraphDb::Arc>& Out(NodeId v) const { return out_[v]; }

  int num_nodes() const { return static_cast<int>(out_.size()); }
  int num_edges() const { return num_edges_; }
  uint64_t version() const { return version_; }
  const Alphabet& alphabet() const { return *alphabet_; }

 private:
  AlphabetPtr alphabet_;
  std::vector<std::vector<GraphDb::Arc>> out_;
  std::vector<std::string> names_;  // empty string = anonymous
  std::map<std::string, NodeId, std::less<>> by_name_;
  int num_edges_ = 0;
  uint64_t version_ = 0;
};

// The checkpoint layout documented in wal_format.h, encoded in one pass
// into one string from a GraphDb or a ReferenceGraph. With sorted rows it
// is the byte-for-byte oracle for the streaming encoder, which writes the
// snapshot's (label, target)-sorted rows; with insertion-ordered rows it
// is the image encoders wrote from GraphDb out-lists before the snapshot
// was the only adjacency.
template <typename Graph>
std::string ReferenceCheckpoint(const Graph& g, bool sorted_rows) {
  std::string out = "ECRPQCKP";
  auto u32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  };
  auto str = [&](std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    out += s;
  };
  uint32_t named = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) named += !g.StoredName(v).empty();
  u32(2);
  u32(static_cast<uint32_t>(g.num_nodes()));
  u32(static_cast<uint32_t>(g.num_edges()));
  u32(static_cast<uint32_t>(g.alphabet().size()));
  u32(named);
  for (Symbol s = 0; s < g.alphabet().size(); ++s) str(g.alphabet().Label(s));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.StoredName(v).empty()) continue;
    u32(static_cast<uint32_t>(v));
    str(g.StoredName(v));
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    u32(static_cast<uint32_t>(g.Out(v).size()));
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<GraphDb::Arc> row(g.Out(v).begin(), g.Out(v).end());
    if (sorted_rows) std::sort(row.begin(), row.end());
    for (const auto& [label, to] : row) {
      u32(static_cast<uint32_t>(label));
      u32(static_cast<uint32_t>(to));
    }
  }
  u32(crc32c::Mask(crc32c::Value(out.data(), out.size())));
  return out;
}

}  // namespace ecrpq

#endif  // ECRPQ_TESTS_REFERENCE_GRAPH_H_
