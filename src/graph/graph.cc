#include "graph/graph.h"

#include <algorithm>

namespace ecrpq {

GraphDb::GraphDb(AlphabetPtr alphabet) : alphabet_(std::move(alphabet)) {
  ECRPQ_DCHECK(alphabet_ != nullptr);
}

GraphDb::GraphDb() : alphabet_(std::make_shared<Alphabet>()) {}

NodeId GraphDb::AddNode() {
  ++version_;
  out_.emplace_back();
  in_.emplace_back();
  names_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

NodeId GraphDb::AddNodes(int count) {
  ECRPQ_DCHECK(count >= 0);
  ++version_;
  const NodeId first = static_cast<NodeId>(out_.size());
  out_.resize(out_.size() + count);
  in_.resize(in_.size() + count);
  names_.resize(names_.size() + count);
  return first;
}

NodeId GraphDb::AddNode(std::string_view name) {
  // An empty name is not a name: fall through to an anonymous node
  // instead of interning "" (which would collapse every such node into
  // one and break text-format round-trips).
  if (name.empty()) return AddNode();
  // One hash and one probe: the slot is claimed with the id the node
  // will get, and only a fresh slot creates the node.
  auto [it, inserted] =
      name_index_.try_emplace(std::string(name), num_nodes());
  if (!inserted) return it->second;
  NodeId id = AddNode();
  names_[id] = it->first;
  return id;
}

std::optional<NodeId> GraphDb::FindNode(std::string_view name) const {
  auto it = name_index_.find(std::string(name));
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

std::string GraphDb::NodeName(NodeId node) const {
  ECRPQ_DCHECK(node >= 0 && node < num_nodes());
  if (!names_[node].empty()) return names_[node];
  return "n" + std::to_string(node);
}

void GraphDb::AddEdge(NodeId from, Symbol label, NodeId to) {
  ECRPQ_DCHECK(from >= 0 && from < num_nodes());
  ECRPQ_DCHECK(to >= 0 && to < num_nodes());
  ECRPQ_DCHECK(label >= 0 && label < alphabet_->size());
  out_[from].emplace_back(label, to);
  in_[to].emplace_back(label, from);
  ++num_edges_;
  ++version_;
}

bool GraphDb::RemoveEdge(NodeId from, Symbol label, NodeId to) {
  ECRPQ_DCHECK(from >= 0 && from < num_nodes());
  ECRPQ_DCHECK(to >= 0 && to < num_nodes());
  auto& out = out_[from];
  auto out_it = std::find(out.begin(), out.end(), std::pair(label, to));
  if (out_it == out.end()) return false;
  auto& in = in_[to];
  auto in_it = std::find(in.begin(), in.end(), std::pair(label, from));
  ECRPQ_DCHECK(in_it != in.end());
  out.erase(out_it);
  in.erase(in_it);
  --num_edges_;
  ++version_;
  return true;
}

void GraphDb::AddEdge(NodeId from, std::string_view label, NodeId to) {
  AddEdge(from, alphabet_->Intern(label), to);
}

void GraphDb::AddEdges(const std::vector<Edge>& edges) {
  const int n = num_nodes();
  std::vector<int32_t> out_deg(n, 0), in_deg(n, 0);
  for (const Edge& e : edges) {
    ECRPQ_DCHECK(e.from >= 0 && e.from < n);
    ECRPQ_DCHECK(e.to >= 0 && e.to < n);
    ECRPQ_DCHECK(e.label >= 0 && e.label < alphabet_->size());
    ++out_deg[e.from];
    ++in_deg[e.to];
  }
  for (NodeId v = 0; v < n; ++v) {
    if (out_deg[v] > 0) out_[v].reserve(out_[v].size() + out_deg[v]);
    if (in_deg[v] > 0) in_[v].reserve(in_[v].size() + in_deg[v]);
  }
  for (const Edge& e : edges) {
    out_[e.from].emplace_back(e.label, e.to);
    in_[e.to].emplace_back(e.label, e.from);
  }
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
  for (const auto& [l, t] : out_[from]) {
    if (l == label && t == to) return true;
  }
  return false;
}

Nfa GraphDb::ToNfa(const std::vector<NodeId>& initial,
                   const std::vector<NodeId>& accepting) const {
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
