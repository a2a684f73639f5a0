#include "graph/graph.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>

namespace ecrpq {

GraphDb::GraphDb(AlphabetPtr alphabet) : alphabet_(std::move(alphabet)) {
  ECRPQ_DCHECK(alphabet_ != nullptr);
}

GraphDb::GraphDb() : alphabet_(std::make_shared<Alphabet>()) {}

void GraphDb::AbortNoAdjacency() {
  std::cerr << "GraphDb: edges read or written through a catalog without "
               "out-lists (a Database's edges are in its graph_index())"
            << std::endl;
  std::abort();
}

NodeId GraphDb::AddNode() {
  ++version_;
  if (has_adjacency_) out_.emplace_back();
  names_.emplace_back();
  return static_cast<NodeId>(names_.size() - 1);
}

NodeId GraphDb::AddNodes(int count) {
  ECRPQ_DCHECK(count >= 0);
  ++version_;
  const NodeId first = static_cast<NodeId>(names_.size());
  if (has_adjacency_) out_.resize(out_.size() + count);
  names_.resize(names_.size() + count);
  return first;
}

uint32_t GraphDb::NameHash(std::string_view name) {
  const uint64_t h = std::hash<std::string_view>{}(name);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t GraphDb::FindSlot(std::string_view name, uint32_t hash) const {
  const size_t mask = name_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = name_slots_[i];
    if (slot == 0 || (static_cast<uint32_t>(slot >> 32) == hash &&
                      names_[static_cast<uint32_t>(slot) - 1] == name)) {
      return i;
    }
  }
}

void GraphDb::GrowNameTable() {
  std::vector<uint64_t> old = std::move(name_slots_);
  name_slots_.assign(std::max<size_t>(16, 2 * old.size()), 0);
  const size_t mask = name_slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = (slot >> 32) & mask;
    while (name_slots_[i] != 0) i = (i + 1) & mask;
    name_slots_[i] = slot;
  }
}

NodeId GraphDb::AddNode(std::string_view name) {
  // An empty name is not a name: fall through to an anonymous node
  // instead of interning "" (which would collapse every such node into
  // one and break text-format round-trips).
  if (name.empty()) return AddNode();
  if (num_named_ >= name_slots_.size() / 2) GrowNameTable();
  // One hash and one probe: a hit returns the existing id, a miss ends on
  // the empty slot the new node claims.
  const uint32_t hash = NameHash(name);
  const size_t i = FindSlot(name, hash);
  if (name_slots_[i] != 0) {
    return static_cast<NodeId>(static_cast<uint32_t>(name_slots_[i]) - 1);
  }
  const NodeId id = AddNode();
  names_[id] = name;
  name_slots_[i] = uint64_t{hash} << 32 | static_cast<uint32_t>(id + 1);
  ++num_named_;
  return id;
}

std::optional<NodeId> GraphDb::FindNode(std::string_view name) const {
  if (name_slots_.empty()) return std::nullopt;
  const uint64_t slot = name_slots_[FindSlot(name, NameHash(name))];
  if (slot == 0) return std::nullopt;
  return static_cast<NodeId>(static_cast<uint32_t>(slot) - 1);
}

std::string GraphDb::NodeName(NodeId node) const {
  ECRPQ_DCHECK(node >= 0 && node < num_nodes());
  if (!names_[node].empty()) return names_[node];
  return "n" + std::to_string(node);
}

void GraphDb::AddEdge(NodeId from, Symbol label, NodeId to) {
  CheckAdjacency();
  ECRPQ_DCHECK(from >= 0 && from < num_nodes());
  ECRPQ_DCHECK(to >= 0 && to < num_nodes());
  ECRPQ_DCHECK(label >= 0 && label < alphabet_->size());
  out_[from].emplace_back(label, to);
  ++num_edges_;
  ++version_;
}

bool GraphDb::RemoveEdge(NodeId from, Symbol label, NodeId to) {
  CheckAdjacency();
  ECRPQ_DCHECK(from >= 0 && from < num_nodes());
  ECRPQ_DCHECK(to >= 0 && to < num_nodes());
  auto& out = out_[from];
  auto out_it = std::find(out.begin(), out.end(), std::pair(label, to));
  if (out_it == out.end()) return false;
  out.erase(out_it);
  --num_edges_;
  ++version_;
  return true;
}

void GraphDb::AddEdge(NodeId from, std::string_view label, NodeId to) {
  AddEdge(from, alphabet_->Intern(label), to);
}

void GraphDb::AddEdges(const std::vector<Edge>& edges) {
  CheckAdjacency();
  const int n = num_nodes();
  std::vector<int32_t> out_deg(n, 0);
  for (const Edge& e : edges) {
    ECRPQ_DCHECK(e.from >= 0 && e.from < n);
    ECRPQ_DCHECK(e.to >= 0 && e.to < n);
    ECRPQ_DCHECK(e.label >= 0 && e.label < alphabet_->size());
    ++out_deg[e.from];
  }
  for (NodeId v = 0; v < n; ++v) {
    if (out_deg[v] > 0) out_[v].reserve(out_[v].size() + out_deg[v]);
  }
  for (const Edge& e : edges) out_[e.from].emplace_back(e.label, e.to);
  num_edges_ += static_cast<int>(edges.size());
  ++version_;
}

GraphDb GraphDb::FromEdges(AlphabetPtr alphabet, int num_nodes,
                           const std::vector<Edge>& edges) {
  GraphDb g(std::move(alphabet));
  g.AddNodes(num_nodes);
  g.AddEdges(edges);
  return g;
}

bool GraphDb::HasEdge(NodeId from, Symbol label, NodeId to) const {
  CheckAdjacency();
  for (const auto& [l, t] : out_[from]) {
    if (l == label && t == to) return true;
  }
  return false;
}

Nfa GraphDb::ToNfa(const std::vector<NodeId>& initial,
                   const std::vector<NodeId>& accepting) const {
  CheckAdjacency();
  Nfa nfa(alphabet_->size());
  nfa.AddStates(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (const auto& [label, to] : out_[v]) {
      nfa.AddTransition(v, label, to);
    }
  }
  for (NodeId v : initial) nfa.SetInitial(v);
  for (NodeId v : accepting) nfa.SetAccepting(v);
  return nfa;
}

Nfa GraphDb::ToNfaAllStates() const {
  std::vector<NodeId> all(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) all[v] = v;
  return ToNfa(all, all);
}

}  // namespace ecrpq
