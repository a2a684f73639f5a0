#include "graph/graph.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>

namespace ecrpq {

namespace {

// Arena offsets are 32-bit: the arc and name arenas address at most this
// many elements.
constexpr size_t kMaxArena = std::numeric_limits<uint32_t>::max();

}  // namespace

GraphDb::GraphDb(AlphabetPtr alphabet) : alphabet_(std::move(alphabet)) {
  ECRPQ_DCHECK(alphabet_ != nullptr);
}

GraphDb::GraphDb() : alphabet_(std::make_shared<Alphabet>()) {}

GraphDb::GraphDb(const GraphDb& other)
    : alphabet_(other.alphabet_),
      has_adjacency_(other.has_adjacency_),
      name_chars_(other.name_chars_),
      name_ends_(other.name_ends_),
      name_slots_(other.name_slots_),
      num_named_(other.num_named_),
      num_edges_(other.num_edges_),
      version_(other.version_) {
  if (!has_adjacency_) return;
  rows_.resize(other.rows_.size());
  arcs_.reserve(num_edges_);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const std::span<const Arc> out = other.Out(v);
    const uint32_t len = static_cast<uint32_t>(out.size());
    rows_[v] = {static_cast<uint32_t>(arcs_.size()), len, len};
    arcs_.insert(arcs_.end(), out.begin(), out.end());
  }
}

GraphDb& GraphDb::operator=(const GraphDb& other) {
  if (this != &other) *this = GraphDb(other);
  return *this;
}

void GraphDb::Abort(const char* what) {
  std::cerr << "GraphDb: " << what << std::endl;
  std::abort();
}

NodeId GraphDb::AppendNode(std::string_view name) {
  if (name_chars_.size() + name.size() > kMaxArena) {
    Abort("node names exceed the name arena");
  }
  ++version_;
  if (has_adjacency_) rows_.emplace_back();
  name_chars_.insert(name_chars_.end(), name.begin(), name.end());
  name_ends_.push_back(static_cast<uint32_t>(name_chars_.size()));
  return static_cast<NodeId>(name_ends_.size() - 1);
}

NodeId GraphDb::AddNode() { return AppendNode({}); }

NodeId GraphDb::AddNodes(int count) {
  ECRPQ_DCHECK(count >= 0);
  ++version_;
  const NodeId first = num_nodes();
  if (has_adjacency_) rows_.resize(rows_.size() + count);
  name_ends_.resize(name_ends_.size() + count,
                    static_cast<uint32_t>(name_chars_.size()));
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
    if (slot == 0 ||
        (static_cast<uint32_t>(slot >> 32) == hash &&
         StoredName(static_cast<NodeId>(static_cast<uint32_t>(slot) - 1)) ==
             name)) {
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
  const NodeId id = AppendNode(name);
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
  const std::string_view name = StoredName(node);
  if (!name.empty()) return std::string(name);
  std::string anonymous = "n";
  anonymous += std::to_string(node);
  return anonymous;
}

size_t GraphDb::GrowthFor(const Row& row, uint32_t extra) const {
  if (row.cap - row.len >= extra) return 0;
  // A row ending the arena grows in place by exactly what it lacks (the
  // arena's own capacity doubles); any other row moves to the end with
  // twice its room, or exactly what it needs if that is more.
  if (row.begin + size_t{row.cap} == arcs_.size()) {
    return row.len + extra - row.cap;
  }
  return std::max<size_t>(size_t{row.len} + extra, 2 * size_t{row.cap});
}

void GraphDb::MakeRoom(NodeId v, uint32_t extra) {
  Row& row = rows_[v];
  const size_t growth = GrowthFor(row, extra);
  if (growth == 0) return;
  const size_t end = arcs_.size();
  if (end + growth > kMaxArena) Abort("edges exceed the arc arena");
  arcs_.resize(end + growth);
  if (row.begin + size_t{row.cap} == end) {
    row.cap += static_cast<uint32_t>(growth);
    return;
  }
  std::copy_n(arcs_.begin() + row.begin, row.len, arcs_.begin() + end);
  row.begin = static_cast<uint32_t>(end);
  row.cap = static_cast<uint32_t>(growth);
}

void GraphDb::AddEdge(NodeId from, Symbol label, NodeId to) {
  CheckAdjacency();
  ECRPQ_DCHECK(from >= 0 && from < num_nodes());
  ECRPQ_DCHECK(to >= 0 && to < num_nodes());
  ECRPQ_DCHECK(label >= 0 && label < alphabet_->size());
  MakeRoom(from, 1);
  Row& row = rows_[from];
  arcs_[row.begin + row.len++] = {label, to};
  ++num_edges_;
  ++version_;
}

bool GraphDb::RemoveEdge(NodeId from, Symbol label, NodeId to) {
  CheckAdjacency();
  ECRPQ_DCHECK(from >= 0 && from < num_nodes());
  ECRPQ_DCHECK(to >= 0 && to < num_nodes());
  Row& row = rows_[from];
  const auto begin = arcs_.begin() + row.begin;
  const auto end = begin + row.len;
  const auto it = std::find(begin, end, Arc(label, to));
  if (it == end) return false;
  std::copy(it + 1, end, it);
  --row.len;
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
  std::vector<uint32_t> out_deg(n, 0);
  for (const Edge& e : edges) {
    ECRPQ_DCHECK(e.from >= 0 && e.from < n);
    ECRPQ_DCHECK(e.to >= 0 && e.to < n);
    ECRPQ_DCHECK(e.label >= 0 && e.label < alphabet_->size());
    ++out_deg[e.from];
  }
  // Rows are grown in node order, so the rows of an edgeless graph land
  // back to back with exactly their degree as room.
  size_t growth = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (out_deg[v] > 0) growth += GrowthFor(rows_[v], out_deg[v]);
  }
  arcs_.reserve(arcs_.size() + growth);
  for (NodeId v = 0; v < n; ++v) {
    if (out_deg[v] > 0) MakeRoom(v, out_deg[v]);
  }
  for (const Edge& e : edges) {
    Row& row = rows_[e.from];
    arcs_[row.begin + row.len++] = {e.label, e.to};
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
  const std::span<const Arc> out = Out(from);
  return std::find(out.begin(), out.end(), Arc(label, to)) != out.end();
}

Nfa GraphDb::ToNfa(const std::vector<NodeId>& initial,
                   const std::vector<NodeId>& accepting) const {
  CheckAdjacency();
  Nfa nfa(alphabet_->size());
  nfa.AddStates(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (const auto& [label, to] : Out(v)) {
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
