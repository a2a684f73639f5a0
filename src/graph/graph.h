// Σ-labeled graph databases (Section 2 of the paper).
//
// A graph database G = (V, E) with E ⊆ V × Σ × V. Nodes carry optional
// user-facing names; edges are labeled with alphabet symbols. A graph can be
// viewed as an NFA over Σ without initial/final states (the paper uses this
// equivalence throughout); `ToNfa` realizes that view with a chosen set of
// initial/final nodes.
// Each edge is stored once, as a (label, target) arc in its source's row
// (GraphIndex derives the in-side), and each node name once. Both live in
// flat arenas, with no heap object per node: every row is a {begin, len,
// cap} slice of one page-mapped arc arena, and every name a slice of one
// char arena, ending at the node's offset. A row that runs out of room
// moves to the arena's end with twice the room (or grows in place when it
// already ends the arena); bulk construction and copies lay rows out
// exactly. Out() and StoredName() are views into the arenas: a view is
// valid until the next mutation of the graph.
//
// A GraphDb is the builder of a graph: generators, loaders and seeds fill
// one, and GraphIndex::Build turns it into the CSR snapshot the engines
// read. A Database keeps no out-lists at all: the snapshot is its graph,
// and TakeAdjacency() leaves the GraphDb as the catalog beside it, holding
// names, labels, node and edge counts and version() only; reading edges
// through a catalog aborts in every build type.

#ifndef ECRPQ_GRAPH_GRAPH_H_
#define ECRPQ_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/nfa.h"
#include "util/page_alloc.h"
#include "util/status.h"

namespace ecrpq {

/// Dense node id within a GraphDb.
using NodeId = int32_t;

/// A directed labeled edge (from, label, to).
struct Edge {
  NodeId from;
  Symbol label;
  NodeId to;

  bool operator==(const Edge& other) const = default;
};

/// One edge of a GraphMutation, endpoints and label by name. Unknown
/// node names are created; an unknown label is interned on add (but
/// never on remove — removing a never-seen label is a no-op skip).
struct EdgeSpec {
  std::string from;
  std::string label;
  std::string to;
};

/// A batched write: nodes to create plus edges to add/remove, applied
/// atomically under the writer lock by Database::ApplyDelta. Lives at
/// the graph layer (not api/) so the write-ahead log (src/wal/) can
/// serialize and replay batches without depending on the session
/// facade. Name-level resolution is deterministic — replaying the same
/// mutation sequence against the same starting graph assigns identical
/// node ids and symbols — which is what makes a logical WAL sound.
struct GraphMutation {
  /// Node names to create up front (empty string = anonymous node).
  /// Names that already exist are left as-is.
  std::vector<std::string> add_nodes;
  std::vector<EdgeSpec> add_edges;
  /// Each spec removes ONE instance of a matching edge (multiset
  /// semantics); specs matching nothing are counted, not errors.
  std::vector<EdgeSpec> remove_edges;
};

/// A finite Σ-labeled directed graph database.
class GraphDb {
 public:
  /// One outgoing edge of a node: (label, target).
  using Arc = std::pair<Symbol, NodeId>;

  /// Creates an empty graph over `alphabet` (shared; may be grown by
  /// AddEdge with unseen labels).
  explicit GraphDb(AlphabetPtr alphabet);

  /// Creates an empty graph with a fresh alphabet.
  GraphDb();

  /// A copy lays its rows out exactly (no room left over, no dead arcs).
  GraphDb(const GraphDb& other);
  GraphDb& operator=(const GraphDb& other);
  GraphDb(GraphDb&&) = default;
  GraphDb& operator=(GraphDb&&) = default;

  /// Adds an anonymous node.
  NodeId AddNode();

  /// Adds a named node (names must be unique; returns existing id if the
  /// name is already present). An empty name adds an anonymous node.
  NodeId AddNode(std::string_view name);

  /// Appends `count` anonymous nodes in one shot; returns the first new
  /// id. Bulk-construction companion of AddEdges.
  NodeId AddNodes(int count);

  /// Looks up a node by name (no allocation).
  std::optional<NodeId> FindNode(std::string_view name) const;

  /// Node name, or "n<id>" for anonymous nodes.
  std::string NodeName(NodeId node) const;

  /// The name `node` was created with; empty for anonymous nodes (so,
  /// unlike NodeName, a name that merely looks like "n<id>" is never
  /// synthesized). A view into the name arena, valid until the next node
  /// is added.
  std::string_view StoredName(NodeId node) const {
    const uint32_t begin = node == 0 ? 0 : name_ends_[node - 1];
    return {name_chars_.data() + begin, name_ends_[node] - begin};
  }

  /// Adds an edge with an already-interned label symbol.
  void AddEdge(NodeId from, Symbol label, NodeId to);

  /// Adds an edge, interning `label` into the alphabet if needed.
  void AddEdge(NodeId from, std::string_view label, NodeId to);

  /// Removes ONE instance of the edge (from, label, to) — edges form a
  /// multiset, so a duplicate edge survives a single removal. Returns
  /// false (and changes nothing) when no such edge exists. Per-node
  /// adjacency order of the remaining edges is preserved.
  bool RemoveEdge(NodeId from, Symbol label, NodeId to);

  /// Bulk-adds `edges` (already-interned labels, existing node ids) with
  /// size-then-fill construction: one degree-counting pass, one arena
  /// growth that gives each touched row the room it lacks, one fill pass.
  /// Equivalent to calling AddEdge per element in order (per-node
  /// adjacency order is identical), but O(V + E); on a graph without
  /// edges the rows come out exactly laid out, in node order.
  void AddEdges(const std::vector<Edge>& edges);

  /// Frees the arc arena and keeps names, labels, num_edges() and
  /// version(): what is left is the catalog of a graph whose edges live
  /// elsewhere (a Database's GraphIndex snapshot). A catalog still adds
  /// nodes; its edge changes are recorded with CountEdges. Out, HasEdge,
  /// AddEdge, AddEdges, RemoveEdge and ToNfa need the out-lists and abort
  /// on a catalog. The arena is page-mapped once it reaches a MiB, so
  /// freeing it returns its memory to the system at once.
  void TakeAdjacency() {
    has_adjacency_ = false;
    // Assigning {} would only clear them (vector's initializer_list
    // assignment keeps the capacity).
    arcs_ = PageVector<Arc>();
    rows_ = PageVector<Row>();
  }
  bool has_adjacency() const { return has_adjacency_; }

  /// Records on a catalog that `added` edges were added and `removed`
  /// removed (the caller keeps the edges and checked that the removed ones
  /// existed): num_edges() and version() move as AddEdge and RemoveEdge
  /// would move them, one version step per edge.
  void CountEdges(int added, int removed) {
    ECRPQ_DCHECK(!has_adjacency_);
    num_edges_ += added - removed;
    version_ += static_cast<uint64_t>(added) + removed;
  }

  /// Gives a catalog its out-lists back from a caller's own encoding:
  /// every node v, in id order, gets degree(v) edges, each the (label,
  /// target) pair the next next_arc() call returns. The degrees must sum
  /// to num_edges(), which sizes the arena up front; the rows are laid out
  /// exactly. The graph is the same, so version() does not move.
  template <typename DegreeFn, typename ArcFn>
  void RestoreAdjacency(DegreeFn degree, ArcFn next_arc) {
    ECRPQ_DCHECK(!has_adjacency_);
    rows_.resize(name_ends_.size());
    arcs_.reserve(num_edges_);
    for (NodeId v = 0; v < num_nodes(); ++v) {
      const uint32_t d = static_cast<uint32_t>(degree(v));
      rows_[v] = {static_cast<uint32_t>(arcs_.size()), d, d};
      for (uint32_t k = 0; k < d; ++k) arcs_.push_back(next_arc());
    }
    ECRPQ_DCHECK(arcs_.size() == static_cast<size_t>(num_edges_));
    has_adjacency_ = true;
  }

  /// One-shot bulk construction: `num_nodes` anonymous nodes plus
  /// `edges`, built through the size-then-fill path. The workhorse of the
  /// large-graph generators and the edge-list loader (graph/io.h).
  static GraphDb FromEdges(AlphabetPtr alphabet, int num_nodes,
                           const std::vector<Edge>& edges);

  int num_nodes() const { return static_cast<int>(name_ends_.size()); }
  int num_edges() const { return num_edges_; }

  /// Arcs the arc arena holds, live or dead: num_edges() plus the room of
  /// rows that grew incrementally and the places rows moved away from.
  size_t arena_arcs() const { return arcs_.size(); }

  /// Monotone mutation counter: bumped by every node/edge addition and
  /// every removal. Snapshots (GraphIndex) record the version they were
  /// built at, which makes staleness checks sound even for mutation
  /// sequences that leave the node/edge counts unchanged (e.g. one add
  /// plus one remove).
  uint64_t version() const { return version_; }

  const Alphabet& alphabet() const { return *alphabet_; }
  const AlphabetPtr& alphabet_ptr() const { return alphabet_; }

  /// Outgoing (label, target) arcs of `node`, in insertion order: a view
  /// into the arc arena, valid until the next mutation of the graph.
  std::span<const Arc> Out(NodeId node) const {
    CheckAdjacency();
    const Row& row = rows_[node];
    return {arcs_.data() + row.begin, row.len};
  }

  /// True if the edge (from, label, to) exists.
  bool HasEdge(NodeId from, Symbol label, NodeId to) const;

  /// The graph as an NFA over its alphabet with the given initial and
  /// accepting node sets (paper: "a graph database can be naturally viewed
  /// as an NFA"). States coincide with node ids.
  Nfa ToNfa(const std::vector<NodeId>& initial,
            const std::vector<NodeId>& accepting) const;

  /// NFA view where every node is both initial and accepting.
  Nfa ToNfaAllStates() const;

 private:
  /// A node's arcs are arcs_[begin, begin + len), with room up to cap.
  struct Row {
    uint32_t begin = 0;
    uint32_t len = 0;
    uint32_t cap = 0;
  };

  /// Aborts, in every build type, when the out-lists were given up: a
  /// catalog answering Out or HasEdge with empty rows would read as a
  /// graph without edges.
  void CheckAdjacency() const {
    if (!has_adjacency_) [[unlikely]] {
      Abort("edges read or written through a catalog without out-lists (a "
            "Database's edges are in its graph_index())");
    }
  }
  [[noreturn]] static void Abort(const char* what);
  /// Arcs the arena grows by so that `row` has room for `extra` more.
  size_t GrowthFor(const Row& row, uint32_t extra) const;
  /// Gives node v's row room for `extra` more arcs (see the header
  /// comment); the arena must already have GrowthFor(...) capacity to
  /// spare when the caller wants no reallocation.
  void MakeRoom(NodeId v, uint32_t extra);
  NodeId AppendNode(std::string_view name);
  static uint32_t NameHash(std::string_view name);
  /// The slot holding `name`, or the empty slot where it would go.
  size_t FindSlot(std::string_view name, uint32_t hash) const;
  void GrowNameTable();

  AlphabetPtr alphabet_;
  PageVector<Arc> arcs_;
  PageVector<Row> rows_;       // one per node while has_adjacency_
  bool has_adjacency_ = true;  // false once TakeAdjacency ran
  // Node v's name is name_chars_[name_ends_[v - 1], name_ends_[v]) (from 0
  // for v = 0); an empty slice is an anonymous node.
  PageVector<char> name_chars_;
  PageVector<uint32_t> name_ends_;
  // Open-addressing name table over the names: each slot holds
  // hash32 << 32 | (id + 1), 0 = empty. Power-of-two size, at most half
  // full; growth rehashes the stored hashes, never the names.
  std::vector<uint64_t> name_slots_;
  size_t num_named_ = 0;
  int num_edges_ = 0;
  uint64_t version_ = 0;
};

}  // namespace ecrpq

#endif  // ECRPQ_GRAPH_GRAPH_H_
