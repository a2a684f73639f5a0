#include "core/ops.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/eval_crpq.h"
#include "core/parallel.h"

namespace ecrpq {

namespace {

// FNV-1a over a row.
struct RowHash {
  size_t operator()(const std::vector<NodeId>& row) const {
    uint64_t h = 1469598103934665603ULL;
    for (NodeId v : row) {
      h ^= static_cast<uint32_t>(v);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

// Appends distinct rows to a row list, keeping first occurrences in
// order: Add() appends the candidate row and takes it back when an equal
// row is already there. The set holds row ids, so each row is stored
// once.
class DistinctRows {
 public:
  explicit DistinctRows(std::vector<std::vector<NodeId>>* rows)
      : rows_(rows), seen_(0, Hash{rows}, Equal{rows}) {}

  // The cleared candidate row to fill before Add().
  std::vector<NodeId>* candidate() {
    candidate_.clear();
    return &candidate_;
  }

  void Add() {
    rows_->push_back(std::move(candidate_));
    if (seen_.insert(static_cast<uint32_t>(rows_->size() - 1)).second) {
      candidate_ = {};
    } else {
      candidate_ = std::move(rows_->back());
      rows_->pop_back();
    }
  }

 private:
  struct Hash {
    const std::vector<std::vector<NodeId>>* rows;
    size_t operator()(uint32_t i) const { return RowHash()((*rows)[i]); }
  };
  struct Equal {
    const std::vector<std::vector<NodeId>>* rows;
    bool operator()(uint32_t a, uint32_t b) const {
      return (*rows)[a] == (*rows)[b];
    }
  };

  std::vector<std::vector<NodeId>>* rows_;
  std::unordered_set<uint32_t, Hash, Equal> seen_;
  std::vector<NodeId> candidate_;
};

}  // namespace

BindingTable ProjectDistinct(const BindingTable& table,
                             const std::vector<int>& vars) {
  BindingTable out;
  out.vars = vars;
  std::vector<int> cols;
  for (int v : vars) {
    int c = table.ColumnOf(v);
    ECRPQ_DCHECK(c >= 0);
    cols.push_back(c);
  }
  DistinctRows distinct(&out.rows);
  for (const std::vector<NodeId>& row : table.rows) {
    std::vector<NodeId>* projected = distinct.candidate();
    for (int c : cols) projected->push_back(row[c]);
    distinct.Add();
  }
  return out;
}

ComponentSpec BuildComponentSpec(const ResolvedQuery& rq,
                                 const std::vector<int>& atom_indices) {
  ComponentSpec comp;
  comp.atom_indices = atom_indices;
  comp.track_of_path.assign(rq.query->path_variables().size(), -1);
  auto add_var = [&](const ResolvedTerm& term, bool is_start) {
    if (term.is_const) return;
    if (std::find(comp.vars.begin(), comp.vars.end(), term.var) ==
        comp.vars.end()) {
      comp.vars.push_back(term.var);
    }
    std::vector<int>& side = is_start ? comp.start_vars : comp.end_vars;
    if (std::find(side.begin(), side.end(), term.var) == side.end()) {
      side.push_back(term.var);
    }
  };
  for (int idx : atom_indices) {
    const ResolvedAtom& atom = rq.atoms[idx];
    if (comp.track_of_path[atom.path] < 0) {
      comp.track_of_path[atom.path] = static_cast<int>(comp.tracks.size());
      comp.tracks.push_back(atom.path);
    }
    add_var(atom.from, /*is_start=*/true);
    add_var(atom.to, /*is_start=*/false);
  }
  for (size_t r = 0; r < rq.relations().size(); ++r) {
    // A relation belongs to the component holding its first path's track
    // (components contain either all or none of a relation's paths).
    if (comp.track_of_path[rq.relations()[r].paths[0]] >= 0) {
      comp.relation_indices.push_back(static_cast<int>(r));
    }
  }
  return comp;
}

bool IsReachabilityScanComponent(const ResolvedQuery& rq,
                                 const ComponentSpec& comp) {
  if (comp.atom_indices.size() != 1 || comp.tracks.size() != 1) return false;
  for (int r : comp.relation_indices) {
    if (rq.relations()[r].relation->arity() != 1) return false;
  }
  return true;
}

namespace {

constexpr const char* kCancelledMessage = "query execution cancelled";

// Interns relation state subsets (serial searches; one pool per search).
// The shared-frontier parallel search uses SharedSubsetPool
// (core/parallel.h) instead.
class SubsetPool {
 public:
  int Intern(std::vector<StateId> subset) {
    auto [it, inserted] = ids_.emplace(std::move(subset), 0);
    if (inserted) {
      it->second = static_cast<int>(store_.size());
      store_.push_back(it->first);
    }
    return it->second;
  }
  const std::vector<StateId>& Get(int id) const { return store_[id]; }

 private:
  std::map<std::vector<StateId>, int> ids_;
  std::vector<std::vector<StateId>> store_;
};

// Open-addressing visited/intern table over product configurations
// (serial searches; the parallel search shards this structure — see
// ShardedVisitedTable in core/parallel.h).
//
// When padmask + per-track node ids + per-relation subset ids fit one
// word (ConfigCodec), configurations are keyed by a packed uint64 code
// and probes compare single words — no per-configuration allocation, no
// vector hashing. Subset-interning ids are assigned dynamically, so a
// search whose subset count outgrows its bit field migrates once to the
// generic path (structural hash, equality against the discovery array)
// and keeps going; searches whose shape never fits start there.
class VisitedTable {
 public:
  VisitedTable(int tracks, int relations, int num_nodes)
      : codec_(tracks, relations, num_nodes), packed_(codec_.packable) {
    Rehash(1024);
  }

  // Returns (config id, inserted). A new config is appended to `order`.
  std::pair<int, bool> FindOrInsert(ProductConfig&& c,
                                    std::vector<ProductConfig>& order) {
    if (packed_) {
      uint64_t code;
      if (!codec_.TryPack(c, &code)) {
        MigrateToGeneric(order);
      } else {
        if ((size_ + 1) * 10 >= slots_.size() * 7) RehashPacked(order);
        size_t i = MixHash64(code) & (slots_.size() - 1);
        while (slots_[i] >= 0) {
          if (keys_[i] == code) return {slots_[i], false};
          i = (i + 1) & (slots_.size() - 1);
        }
        int id = static_cast<int>(order.size());
        order.push_back(std::move(c));
        slots_[i] = id;
        keys_[i] = code;
        ++size_;
        return {id, true};
      }
    }
    if ((size_ + 1) * 10 >= slots_.size() * 7) RehashGeneric(order);
    size_t i = HashProductConfig(c) & (slots_.size() - 1);
    while (slots_[i] >= 0) {
      if (order[slots_[i]] == c) return {slots_[i], false};
      i = (i + 1) & (slots_.size() - 1);
    }
    int id = static_cast<int>(order.size());
    order.push_back(std::move(c));
    slots_[i] = id;
    ++size_;
    return {id, true};
  }

 private:
  void Rehash(size_t capacity) {
    slots_.assign(capacity, -1);
    if (packed_) keys_.assign(capacity, 0);
  }

  void RehashPacked(const std::vector<ProductConfig>& order) {
    (void)order;  // packed slots carry their own keys
    std::vector<int32_t> old_slots = std::move(slots_);
    std::vector<uint64_t> old_keys = std::move(keys_);
    Rehash(old_slots.size() * 2);
    for (size_t j = 0; j < old_slots.size(); ++j) {
      if (old_slots[j] < 0) continue;
      size_t i = MixHash64(old_keys[j]) & (slots_.size() - 1);
      while (slots_[i] >= 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = old_slots[j];
      keys_[i] = old_keys[j];
    }
  }

  // Clears the table to `capacity` slots and re-inserts every config of
  // `order` by structural hash (generic mode's rebuild).
  void RebuildGeneric(size_t capacity,
                      const std::vector<ProductConfig>& order) {
    slots_.assign(capacity, -1);
    for (size_t id = 0; id < order.size(); ++id) {
      size_t i = HashProductConfig(order[id]) & (capacity - 1);
      while (slots_[i] >= 0) i = (i + 1) & (capacity - 1);
      slots_[i] = static_cast<int32_t>(id);
    }
  }

  void RehashGeneric(const std::vector<ProductConfig>& order) {
    RebuildGeneric(slots_.size() * 2, order);
  }

  void MigrateToGeneric(const std::vector<ProductConfig>& order) {
    packed_ = false;
    keys_.clear();
    keys_.shrink_to_fit();
    RebuildGeneric(slots_.size(), order);
  }

  ConfigCodec codec_;
  bool packed_ = false;
  size_t size_ = 0;
  std::vector<int32_t> slots_;  // config id or -1
  std::vector<uint64_t> keys_;  // packed code per occupied slot
};

// Product search over one component. Templated on the state-subset pool:
// SubsetPool for serial searches (one pool per search, lock-free) and
// SharedSubsetPool for shared-frontier parallel searches (one pool shared
// by every lane; each lane owns a ComponentSearchT as its expansion
// context — the per-subset mask caches stay lane-private).
//
// A context is built for one direction. Forward contexts run the classic
// search: configurations advance on out-edges, state-subsets advance on
// the forward transition maps, acceptance needs an accepting state per
// relation, and the padmask marks tracks whose word has ENDED (pads are a
// monotone suffix: a padded track may only keep padding). Backward
// contexts run the exact mirror over the compiled reversed tape
// (ResolvedRelation::rev_*): configurations advance on in-edges gated by
// InLabelMask, subsets advance on rev_transitions (so a backward subset
// holds the forward states from which an accepting state is reachable via
// the consumed suffix), acceptance needs a forward-INITIAL state per
// relation, and the padmask marks tracks that have STARTED consuming (a
// track may pad only while still inside its trailing-pad region — the
// mirror monotonicity, keeping pads a suffix of every track word). Both
// searches intern subsets in the same pool over the same state id space,
// which is what lets a bidirectional meet test S_fwd ∩ S_bwd per
// relation directly.
template <typename Pool>
class ComponentSearchT {
 public:
  ComponentSearchT(const ResolvedQuery& rq, const ComponentSpec& comp,
                   const EvalOptions& options, Pool* pool,
                   bool backward = false)
      : rq_(rq),
        comp_(comp),
        options_(options),
        pool_(pool),
        index_(rq.index.get()),
        use_masks_(rq.graph->alphabet().size() <= 64),
        backward_(backward) {
    // Per-relation tuple alphabets, local track lists, and the
    // direction's view of the compiled automaton (forward or reversed
    // tape — same state ids either way).
    for (int r : comp_.relation_indices) {
      const ResolvedRelation& rel = rq_.relations()[r];
      std::vector<int> local;
      for (int p : rel.paths) local.push_back(comp_.track_of_path[p]);
      rel_local_tracks_.push_back(std::move(local));
      rel_alphabets_.emplace_back(rel.relation->tuple_alphabet());
      RelView view;
      view.transitions = backward_ ? &rel.rev_transitions : &rel.transitions;
      view.initial = backward_ ? &rel.rev_initial : &rel.initial;
      view.accepting = backward_ ? &rel.rev_accepting : &rel.accepting;
      view.tape_masks = backward_ ? &rel.rev_tape_masks : &rel.tape_masks;
      views_.push_back(view);
    }
    subset_masks_.resize(comp_.relation_indices.size());
  }

  bool backward() const { return backward_; }

  // Builds the initial configuration for one anchor assignment (start
  // nodes forward, end nodes backward); false when some relation has no
  // initial state in this direction (unsatisfiable — no search runs).
  bool MakeInitialConfig(const std::vector<NodeId>& anchor_nodes,
                         ProductConfig* out) {
    out->padmask = 0;
    out->nodes = anchor_nodes;
    out->subset_ids.clear();
    for (size_t i = 0; i < comp_.relation_indices.size(); ++i) {
      std::vector<StateId> subset = *views_[i].initial;
      std::sort(subset.begin(), subset.end());
      if (subset.empty()) return false;  // relation unsatisfiable
      out->subset_ids.push_back(pool_->Intern(std::move(subset)));
    }
    return true;
  }

  // One configuration step: acceptance (+ endpoint-consistency filtering
  // into `results`) and successor expansion. `anchor_nodes` holds the
  // per-track anchors of this search — start nodes forward, end nodes
  // backward. `emit(ProductConfig&&, letters)` receives every generated
  // successor; the caller owns dedup/queueing. The serial BFS (Run), the
  // shared-frontier lanes, and the bidirectional half-searches all drive
  // this.
  template <typename Emit>
  void ProcessConfig(const ProductConfig& current,
                     const std::vector<NodeId>& anchor_nodes,
                     const std::vector<NodeId>& fixed,
                     std::set<std::vector<NodeId>>* results, bool* accepted,
                     Emit&& emit) {
    *accepted = false;
    if (Accepting(current)) {
      std::vector<NodeId> assignment;
      const std::vector<NodeId>& starts =
          backward_ ? current.nodes : anchor_nodes;
      const std::vector<NodeId>& ends =
          backward_ ? anchor_nodes : current.nodes;
      if (ConsistentAssignment(starts, ends, fixed, &assignment)) {
        if (results != nullptr) results->insert(std::move(assignment));
        *accepted = true;
      }
    }
    const int T = static_cast<int>(comp_.tracks.size());
    ComputeLiveMasks(current);
    scratch_cands_.resize(T);
    for (int t = 0; t < T; ++t) GatherCandidates(t, current);
    scratch_letter_.assign(T, kPad);
    scratch_next_nodes_.assign(T, -1);
    auto counted = [&](ProductConfig next,
                       const std::vector<Symbol>& letters) {
      ++arcs_explored_;
      ++frontier_expansions_;
      emit(std::move(next), letters);
    };
    ExpandRec(0, T, current, &scratch_letter_, &scratch_next_nodes_,
              *rq_.graph, counted);
  }

  // Serial BFS from one anchor-node-per-track assignment (start nodes
  // forward, end nodes backward); reports satisfying component
  // assignments into `results` and records the product graph into `sink`
  // when non-null (forward contexts only — callers pin graph recording to
  // the forward direction). `configs_budget` is the execution-wide
  // popped-configuration counter checked against max_configs; `cancel`
  // (optional) stops the search cooperatively.
  Status Run(const std::vector<NodeId>& anchor_nodes,
             const std::vector<NodeId>& fixed,
             std::set<std::vector<NodeId>>* results, ProductGraphSink* sink,
             std::atomic<uint64_t>* configs_budget,
             CancellationToken* cancel) {
    const GraphDb& graph = *rq_.graph;
    ProductConfig init;
    if (!MakeInitialConfig(anchor_nodes, &init)) return Status::OK();

    // The sink may already hold configs from previous start assignments;
    // all sink indices are offset by its current size.
    const int sink_base =
        (sink != nullptr) ? static_cast<int>(sink->configs.size()) : 0;
    VisitedTable visited(static_cast<int>(comp_.tracks.size()),
                         static_cast<int>(comp_.relation_indices.size()),
                         graph.num_nodes());
    std::vector<ProductConfig> order;
    std::queue<int> work;
    auto intern_config = [&](ProductConfig c) -> std::pair<int, bool> {
      auto [id, inserted] = visited.FindOrInsert(std::move(c), order);
      if (inserted) {
        work.push(id);
        ++visited_configs_;
        if (sink != nullptr) {
          sink->configs.push_back(order.back());
          sink->arcs.emplace_back();
          sink->initial.push_back(false);
          sink->accepting.push_back(false);
        }
      }
      return {id, inserted};
    };

    auto [init_id, fresh] = intern_config(std::move(init));
    (void)fresh;
    if (sink != nullptr) sink->initial[sink_base + init_id] = true;

    while (!work.empty()) {
      int config_id = work.front();
      work.pop();
      if (cancel != nullptr && cancel->cancelled()) {
        return Status::Cancelled(kCancelledMessage);
      }
      if (configs_budget->fetch_add(1, std::memory_order_relaxed) + 1 >
          options_.max_configs) {
        return Status::ResourceExhausted(
            "product search exceeded max_configs=" +
            std::to_string(options_.max_configs));
      }
      ProductConfig current = order[config_id];  // copy: order grows below
      bool accepted = false;
      ProcessConfig(current, anchor_nodes, fixed, results, &accepted,
                    [&](ProductConfig next,
                        const std::vector<Symbol>& letters) {
                      auto [next_id, unused] =
                          intern_config(std::move(next));
                      (void)unused;
                      if (sink != nullptr) {
                        sink->arcs[sink_base + config_id].push_back(
                            {letters, sink_base + next_id});
                      }
                    });
      if (accepted && sink != nullptr) {
        sink->accepting[sink_base + config_id] = true;
      }
    }
    return Status::OK();
  }

  const ComponentSpec& component() const { return comp_; }
  uint64_t visited_configs() const { return visited_configs_; }
  uint64_t frontier_expansions() const { return frontier_expansions_; }
  uint64_t arcs_explored() const { return arcs_explored_; }

  // Checks per-atom endpoint constraints of one full (start, end) node
  // assignment per track; produces the component assignment (parallel to
  // comp_.vars) on success. Shared by all directions: forward passes
  // (anchors, config nodes), backward (config nodes, anchors), and the
  // bidirectional driver (start anchors, end anchors).
  bool ConsistentAssignment(const std::vector<NodeId>& start_nodes,
                            const std::vector<NodeId>& end_nodes,
                            const std::vector<NodeId>& fixed,
                            std::vector<NodeId>* assignment) const {
    std::vector<NodeId> binding(rq_.query->node_variables().size(), -1);
    // Seed with fixed bindings and anchor assignments.
    for (size_t v = 0; v < fixed.size(); ++v) binding[v] = fixed[v];
    for (int idx : comp_.atom_indices) {
      const ResolvedAtom& atom = rq_.atoms[idx];
      int track = comp_.track_of_path[atom.path];
      NodeId start = start_nodes[track];
      NodeId end = end_nodes[track];
      if (atom.from.is_const) {
        if (atom.from.node != start) return false;
      } else {
        if (binding[atom.from.var] >= 0 && binding[atom.from.var] != start) {
          return false;
        }
        binding[atom.from.var] = start;
      }
      if (atom.to.is_const) {
        if (atom.to.node != end) return false;
      } else {
        if (binding[atom.to.var] >= 0 && binding[atom.to.var] != end) {
          return false;
        }
        binding[atom.to.var] = end;
      }
    }
    assignment->clear();
    for (int v : comp_.vars) assignment->push_back(binding[v]);
    return true;
  }

 private:
  // The direction's view of one compiled relation: forward or reversed
  // transition maps, endpoint sets, and tape masks (state ids coincide).
  struct RelView {
    const std::vector<std::unordered_map<Symbol, std::vector<StateId>>>*
        transitions = nullptr;
    const std::vector<StateId>* initial = nullptr;
    const std::vector<bool>* accepting = nullptr;
    const std::vector<std::vector<uint64_t>>* tape_masks = nullptr;
  };

  bool Accepting(const ProductConfig& c) const {
    for (size_t i = 0; i < comp_.relation_indices.size(); ++i) {
      const std::vector<bool>& accepting = *views_[i].accepting;
      bool ok = false;
      auto&& subset = pool_->Get(c.subset_ids[i]);
      for (StateId s : subset) {
        if (accepting[s]) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    return true;
  }

  // Per-tape letter masks of one relation's current subset, OR of the
  // direction's compiled per-state tape masks (out-letters forward,
  // in-letters backward); cached per interned subset id. The cache is
  // lane-private even when the pool is shared (ids are global, mask
  // values are a pure function of the id and direction, so same-direction
  // lanes agree; forward and backward contexts are distinct objects, so
  // the caches never mix directions).
  const std::vector<uint64_t>& SubsetMasks(size_t i, int subset_id) {
    auto& cache = subset_masks_[i];
    if (subset_id >= static_cast<int>(cache.size())) {
      cache.resize(subset_id + 1);
    }
    std::vector<uint64_t>& entry = cache[subset_id];
    if (entry.empty()) {
      const std::vector<std::vector<uint64_t>>& tape_masks =
          *views_[i].tape_masks;
      entry.assign(rel_local_tracks_[i].size(), 0);
      auto&& subset = pool_->Get(subset_id);
      for (StateId s : subset) {
        for (size_t tape = 0; tape < entry.size(); ++tape) {
          entry[tape] |= tape_masks[s][tape];
        }
      }
    }
    return entry;
  }

  // live_[t]: base letters track t may read without killing a relation —
  // the intersection, over relations reading t, of the letters their
  // current state-sets accept on that tape (Thm 6.1's restriction).
  void ComputeLiveMasks(const ProductConfig& current) {
    live_.assign(comp_.tracks.size(), ~0ULL);
    if (!use_masks_) return;
    for (size_t i = 0; i < comp_.relation_indices.size(); ++i) {
      const std::vector<uint64_t>& masks =
          SubsetMasks(i, current.subset_ids[i]);
      const std::vector<int>& local = rel_local_tracks_[i];
      for (size_t tape = 0; tape < local.size(); ++tape) {
        live_[local[tape]] &= masks[tape];
      }
    }
  }

  template <typename Callback>
  void ExpandRec(int t, int total, const ProductConfig& current,
                 std::vector<Symbol>* letter, std::vector<NodeId>* next_nodes,
                 const GraphDb& graph, const Callback& emit) {
    if (t == total) {
      // Successor padmask. Forward, a bit marks a track that PADDED this
      // step (its word ended; only pads may follow). Backward, a bit
      // marks a track that has STARTED consuming (a real letter was read
      // at or after this position; only real letters may precede) — the
      // per-track options below enforce the matching monotonicity, so in
      // both directions the bit is a pure function of this step's letter.
      uint32_t new_padmask = 0;
      bool all_pad = true;
      for (int i = 0; i < total; ++i) {
        const bool padded = (*letter)[i] == kPad;
        if (padded != backward_) new_padmask |= (1u << i);
        if (!padded) all_pad = false;
      }
      if (all_pad) return;
      // Advance relations on their projected letters.
      ProductConfig next;
      next.padmask = new_padmask;
      next.nodes = *next_nodes;
      next.subset_ids.resize(comp_.relation_indices.size());
      for (size_t i = 0; i < comp_.relation_indices.size(); ++i) {
        const auto& transitions = *views_[i].transitions;
        const std::vector<int>& local = rel_local_tracks_[i];
        TupleLetter proj(local.size());
        bool rel_all_pad = true;
        for (size_t tape = 0; tape < local.size(); ++tape) {
          proj[tape] = (*letter)[local[tape]];
          if (proj[tape] != kPad) rel_all_pad = false;
        }
        if (rel_all_pad) {
          // The relation's word does not cover this position (it has
          // ended forward / not yet begun backward); subset frozen.
          next.subset_ids[i] = current.subset_ids[i];
          continue;
        }
        Symbol id = rel_alphabets_[i].Encode(proj);
        std::vector<StateId> advanced;
        {
          auto&& subset = pool_->Get(current.subset_ids[i]);
          for (StateId s : subset) {
            auto it = transitions[s].find(id);
            if (it != transitions[s].end()) {
              advanced.insert(advanced.end(), it->second.begin(),
                              it->second.end());
            }
          }
        }
        if (advanced.empty()) return;  // prune
        std::sort(advanced.begin(), advanced.end());
        advanced.erase(std::unique(advanced.begin(), advanced.end()),
                       advanced.end());
        next.subset_ids[i] = pool_->Intern(std::move(advanced));
      }
      emit(std::move(next), *letter);
      return;
    }
    // Option 1: pad. Forward: always allowed (a track may end anywhere,
    // and must keep padding once padded). Backward: allowed only while
    // the track is still inside its trailing-pad region (bit unset) —
    // once it has consumed a real letter, pads may no longer precede.
    if (!backward_ || !(current.padmask & (1u << t))) {
      (*letter)[t] = kPad;
      (*next_nodes)[t] = current.nodes[t];
      ExpandRec(t + 1, total, current, letter, next_nodes, graph, emit);
    }
    // Option 2: follow an edge — the track's gathered candidates (empty
    // when the configuration forbids edges on this track; the direction
    // rules live in GatherCandidates). A dense flat loop: the inner
    // tracks of the cross-product iterate contiguous pairs instead of
    // re-filtering CSR slices once per outer combination.
    for (const auto& [label, to] : scratch_cands_[t]) {
      (*letter)[t] = label;
      (*next_nodes)[t] = to;
      ExpandRec(t + 1, total, current, letter, next_nodes, graph, emit);
    }
  }

  // Gathers track t's edge options for `current` into scratch_cands_[t],
  // once per configuration: live_[t] and the padmask depend only on the
  // configuration — never on the partial letter assignment — so the
  // (label, target) candidates of every track can be materialized before
  // the cross-track recursion. Edges are allowed forward only while the
  // track has not padded (bit unset); backward always (a started track
  // must keep reading; an unstarted one may start here). Gathering
  // follows the exact iteration order of the former in-place paths, so
  // the emission sequence — and with it sink recording and every
  // counter — is byte-identical:
  //   * masked small rows (degree <= 16): linear filter of the CSR row,
  //     ascending (label, target) — a binary search per label costs more
  //     than reading a handful of edges;
  //   * masked large rows: live letters in ascending label order via
  //     countr_zero, each label's slice ascending by target;
  //   * unmasked rows: the full CSR row.
  void GatherCandidates(int t, const ProductConfig& current) {
    std::vector<std::pair<Symbol, NodeId>>& cands = scratch_cands_[t];
    cands.clear();
    if (!backward_ && (current.padmask & (1u << t)) != 0) return;
    const NodeId v = current.nodes[t];
    if (use_masks_) {
      const uint64_t node_mask =
          backward_ ? index_->InLabelMask(v) : index_->OutLabelMask(v);
      const uint64_t mask = live_[t] & node_mask;
      const int degree =
          backward_ ? index_->in_degree(v) : index_->out_degree(v);
      if (mask == 0) {
        // No live letter at this node: the track can only pad.
      } else if (degree <= 16) {
        std::span<const Symbol> labels =
            backward_ ? index_->InLabels(v) : index_->OutLabels(v);
        std::span<const NodeId> targets =
            backward_ ? index_->InSources(v) : index_->OutTargets(v);
        for (size_t i = 0; i < labels.size(); ++i) {
          if (((mask >> std::min<Symbol>(labels[i], 63)) & 1) == 0) {
            continue;
          }
          cands.emplace_back(labels[i], targets[i]);
        }
      } else {
        uint64_t bits = mask;
        while (bits != 0) {
          Symbol label = static_cast<Symbol>(std::countr_zero(bits));
          bits &= bits - 1;
          std::span<const NodeId> slice =
              backward_ ? index_->In(v, label) : index_->Out(v, label);
          for (NodeId to : slice) cands.emplace_back(label, to);
        }
      }
    } else {
      std::span<const Symbol> labels =
          backward_ ? index_->InLabels(v) : index_->OutLabels(v);
      std::span<const NodeId> targets =
          backward_ ? index_->InSources(v) : index_->OutTargets(v);
      for (size_t i = 0; i < labels.size(); ++i) {
        cands.emplace_back(labels[i], targets[i]);
      }
    }
  }

  const ResolvedQuery& rq_;
  const ComponentSpec& comp_;
  const EvalOptions& options_;
  Pool* pool_;
  const GraphIndex* index_;  // the snapshot every expansion reads
  bool use_masks_;           // base alphabet fits the 64-bit letter masks
  bool backward_;            // this context runs the reversed-tape mirror
  std::vector<std::vector<int>> rel_local_tracks_;
  std::vector<TupleAlphabet> rel_alphabets_;
  std::vector<RelView> views_;  // per component relation, per direction_
  // Per component relation: per-tape letter masks keyed by subset id.
  std::vector<std::vector<std::vector<uint64_t>>> subset_masks_;
  std::vector<uint64_t> live_;  // per-track live letters, per expansion
  // Per-expansion scratch (hoisted out of the per-config hot loop).
  std::vector<Symbol> scratch_letter_;
  std::vector<NodeId> scratch_next_nodes_;
  // Per-track edge candidates of the configuration being expanded.
  std::vector<std::vector<std::pair<Symbol, NodeId>>> scratch_cands_;
  uint64_t visited_configs_ = 0;
  uint64_t frontier_expansions_ = 0;
  uint64_t arcs_explored_ = 0;
};

using ComponentSearch = ComponentSearchT<SubsetPool>;

// Derives one anchor node per track from `binding` — the from-terms when
// `from_side`, the to-terms otherwise; false when repeated tracks have
// disagreeing terms on that side (no search needed).
bool DeriveAnchorNodes(const ResolvedQuery& rq, const ComponentSpec& comp,
                       const std::vector<NodeId>& binding, bool from_side,
                       std::vector<NodeId>* anchor_nodes) {
  anchor_nodes->assign(comp.tracks.size(), -1);
  for (int idx : comp.atom_indices) {
    const ResolvedAtom& atom = rq.atoms[idx];
    const ResolvedTerm& term = from_side ? atom.from : atom.to;
    int track = comp.track_of_path[atom.path];
    NodeId v = term.is_const ? term.node : binding[term.var];
    if ((*anchor_nodes)[track] < 0) {
      (*anchor_nodes)[track] = v;
    } else if ((*anchor_nodes)[track] != v) {
      return false;  // inconsistent repetition anchor
    }
  }
  return true;
}

bool DeriveStartNodes(const ResolvedQuery& rq, const ComponentSpec& comp,
                      const std::vector<NodeId>& binding,
                      std::vector<NodeId>* start_nodes) {
  return DeriveAnchorNodes(rq, comp, binding, /*from_side=*/true,
                           start_nodes);
}

bool DeriveEndNodes(const ResolvedQuery& rq, const ComponentSpec& comp,
                    const std::vector<NodeId>& binding,
                    std::vector<NodeId>* end_nodes) {
  return DeriveAnchorNodes(rq, comp, binding, /*from_side=*/false,
                           end_nodes);
}

// Enumerates anchor assignments (start vars for forward contexts, end
// vars for backward ones; respecting the bound vars of `fixed`) and runs
// one serial product BFS per assignment — the ProductExpand body for one
// overlay of fixed bindings. `start_assignments` counts enumerated
// assignments (merged into EvalStats at the operator barrier).
Status EnumerateAndRun(const ResolvedQuery& rq, ComponentSearch& search,
                       const std::vector<NodeId>& fixed,
                       uint64_t* start_assignments,
                       std::set<std::vector<NodeId>>* results,
                       ProductGraphSink* sink,
                       std::atomic<uint64_t>* configs_budget,
                       CancellationToken* cancel) {
  const ComponentSpec& comp = search.component();
  const bool backward = search.backward();

  std::vector<NodeId> binding(rq.query->node_variables().size(), -1);
  for (size_t v = 0; v < fixed.size(); ++v) binding[v] = fixed[v];

  const std::vector<int>& anchor_vars =
      backward ? comp.end_vars : comp.start_vars;

  std::function<Status(size_t)> enumerate = [&](size_t i) -> Status {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled(kCancelledMessage);
    }
    if (i == anchor_vars.size()) {
      std::vector<NodeId> anchor_nodes;
      if (!DeriveAnchorNodes(rq, comp, binding, /*from_side=*/!backward,
                             &anchor_nodes)) {
        return Status::OK();
      }
      ++*start_assignments;
      return search.Run(anchor_nodes, binding, results, sink, configs_budget,
                        cancel);
    }
    int var = anchor_vars[i];
    if (binding[var] >= 0) return enumerate(i + 1);
    // Seed from high-degree nodes first (GraphIndex permutation; the
    // in-degree-descending one for backward searches): under early
    // termination the densest frontiers reach answers soonest. The
    // answer set is order-independent (results is a set).
    const std::vector<NodeId>& order = backward
                                           ? rq.index->NodesByInDegree()
                                           : rq.index->NodesByDegree();
    for (NodeId v : order) {
      binding[var] = v;
      Status st = enumerate(i + 1);
      if (!st.ok()) return st;
    }
    binding[var] = -1;
    return Status::OK();
  };
  return enumerate(0);
}

// Prefers hard errors over the Cancelled echoes other lanes report after
// one of them tripped the shared token.
Status CombineLaneStatuses(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok() && s.code() != StatusCode::kCancelled) return s;
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// Per-lane state of the morsel-driven ProductExpand drivers.
struct ExpandLane {
  std::unique_ptr<SubsetPool> pool;
  std::unique_ptr<ComponentSearch> search;
  std::set<std::vector<NodeId>> results;
  uint64_t start_assignments = 0;
  uint64_t meet_checks = 0;  // bidirectional rows only
  uint64_t visited_configs = 0;
  uint64_t frontier_expansions = 0;
  uint64_t arcs_explored = 0;
  Status status;

  ComponentSearch& Search(const ResolvedQuery& rq, const ComponentSpec& comp,
                          const EvalOptions& options, bool backward) {
    if (search == nullptr) {
      pool = std::make_unique<SubsetPool>();
      search = std::make_unique<ComponentSearch>(rq, comp, options,
                                                 pool.get(), backward);
    }
    return *search;
  }
};

// Barrier-point merge of the morsel drivers: lane results fold into the
// global set in canonical lane order, counters sum into the operator
// entry, and the first hard lane error (or a Cancelled echo) wins. Lanes
// that merely OBSERVED the tripped token exit without recording a
// status, so an externally killed run whose lanes all bailed that way
// still reports Cancelled instead of an empty success.
Status MergeExpandLanes(std::vector<ExpandLane>& lanes,
                        const CancellationToken* cancel, EvalStats& stats,
                        OperatorStats& op,
                        std::set<std::vector<NodeId>>* results) {
  std::vector<Status> statuses;
  for (ExpandLane& lane : lanes) {
    statuses.push_back(lane.status);
    stats.start_assignments += lane.start_assignments;
    op.meet_checks += lane.meet_checks;
    op.visited_configs += lane.visited_configs;
    op.frontier_expansions += lane.frontier_expansions;
    stats.arcs_explored += lane.arcs_explored;
    if (lane.search != nullptr) {
      op.visited_configs += lane.search->visited_configs();
      op.frontier_expansions += lane.search->frontier_expansions();
      stats.arcs_explored += lane.search->arcs_explored();
    }
    if (results != nullptr) {
      results->insert(lane.results.begin(), lane.results.end());
    }
  }
  Status combined = CombineLaneStatuses(statuses);
  if (combined.ok() && cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(kCancelledMessage);
  }
  return combined;
}

// Applies one seed row on top of `fixed`; false when they disagree.
bool OverlaySeedRow(const BindingTable& seeds, size_t row,
                    std::vector<NodeId>* overlay) {
  for (size_t i = 0; i < seeds.vars.size(); ++i) {
    int var = seeds.vars[i];
    NodeId v = seeds.rows[row][i];
    if ((*overlay)[var] >= 0 && (*overlay)[var] != v) return false;
    (*overlay)[var] = v;
  }
  return true;
}

// Counters one bidirectional search reports back to its caller (merged
// into the operator entry at the barrier).
struct BidirCounters {
  uint64_t visited_configs = 0;
  uint64_t frontier_expansions = 0;
  uint64_t arcs_explored = 0;
  uint64_t meet_checks = 0;
};

// Meet-in-the-middle search of ONE fully anchored component: a forward
// half-search from the start anchors and a backward half-search from the
// end anchors run level-synchronously, each step expanding whichever
// side currently has the smaller frontier (frontier-size alternation).
// Every newly discovered configuration probes the opposite side's meet
// table — configurations keyed by their packed node tuple — and a meet
// is a forward/backward pair on the same nodes whose padmasks are
// compatible (no track both ended forward and started backward) and
// whose state-subsets intersect for every relation: the forward prefix
// reaches a state from which the backward suffix accepts. Since the
// component is fully anchored its satisfying assignment is unique, so
// the search stops at the first meet (after finishing the level, keeping
// every counter thread-count-independent); either side exhausting
// without a meet proves the assignment unsatisfiable, because an
// accepting word of length m meets at every split 0..m — including the
// opposite side's initial configuration.
//
// Lanes expand the chosen level's frontier morsel-wise against the
// side's sharded visited table; the opposite side's meet table is frozen
// during the step, so probes are lock-free reads. Both directions intern
// subsets in one shared pool over the same state id space, which is what
// makes the per-relation intersection test meaningful.
Status BidirectionalProductSearch(const ResolvedQuery& rq,
                                  const ComponentSpec& comp,
                                  const EvalOptions& options, int num_lanes,
                                  const std::vector<NodeId>& start_nodes,
                                  const std::vector<NodeId>& end_nodes,
                                  const std::vector<NodeId>& fixed,
                                  std::atomic<uint64_t>* configs_budget,
                                  CancellationToken* cancel,
                                  BidirCounters* counters,
                                  std::set<std::vector<NodeId>>* results) {
  const int lanes = std::max(num_lanes, 1);
  SharedSubsetPool pool;
  using Ctx = ComponentSearchT<SharedSubsetPool>;
  std::vector<std::unique_ptr<Ctx>> fwd_ctxs, bwd_ctxs;
  for (int l = 0; l < lanes; ++l) {
    fwd_ctxs.push_back(
        std::make_unique<Ctx>(rq, comp, options, &pool, /*backward=*/false));
    bwd_ctxs.push_back(
        std::make_unique<Ctx>(rq, comp, options, &pool, /*backward=*/true));
  }

  // The anchored component has exactly one candidate assignment; an
  // inconsistent anchor pair can never bind, so no search runs.
  std::vector<NodeId> assignment;
  if (!fwd_ctxs[0]->ConsistentAssignment(start_nodes, end_nodes, fixed,
                                         &assignment)) {
    return Status::OK();
  }

  ProductConfig fwd_init, bwd_init;
  if (!fwd_ctxs[0]->MakeInitialConfig(start_nodes, &fwd_init) ||
      !bwd_ctxs[0]->MakeInitialConfig(end_nodes, &bwd_init)) {
    return Status::OK();
  }

  ConfigCodec codec(static_cast<int>(comp.tracks.size()),
                    static_cast<int>(comp.relation_indices.size()),
                    rq.graph->num_nodes());
  struct Side {
    HybridVisitedTable visited;
    // Meet table: packed node-tuple hash -> configs discovered here.
    std::unordered_map<uint64_t, std::vector<ProductConfig>> by_nodes;
    std::vector<ProductConfig> frontier;
    Side(const ConfigCodec& codec, int lanes) : visited(codec, lanes) {}
  };
  Side fwd(codec, lanes), bwd(codec, lanes);

  auto node_key = [](const ProductConfig& c) {
    uint64_t h = 1469598103934665603ULL;
    for (NodeId v : c.nodes) {
      h ^= static_cast<uint32_t>(v);
      h *= 1099511628211ULL;
    }
    return h;
  };

  // Forward config `f` and backward config `b` meet iff they sit on the
  // same nodes, no track has both ended (forward pad bit) and started
  // consuming backward (backward bit), and every relation's subsets
  // intersect (sorted two-pointer test over the shared pool's vectors).
  auto meets = [&](const ProductConfig& f, const ProductConfig& b) {
    if (f.nodes != b.nodes) return false;
    if ((f.padmask & b.padmask) != 0) return false;
    for (size_t i = 0; i < f.subset_ids.size(); ++i) {
      auto&& s_fwd = pool.Get(f.subset_ids[i]);
      auto&& s_bwd = pool.Get(b.subset_ids[i]);
      size_t a = 0, b2 = 0;
      bool hit = false;
      while (a < s_fwd.size() && b2 < s_bwd.size()) {
        if (s_fwd[a] < s_bwd[b2]) {
          ++a;
        } else if (s_fwd[a] > s_bwd[b2]) {
          ++b2;
        } else {
          hit = true;
          break;
        }
      }
      if (!hit) return false;
    }
    return true;
  };

  std::atomic<bool> found{false};
  std::atomic<uint64_t> meet_checks{0};

  // Probes one newly discovered config against the OPPOSITE side's meet
  // table (frozen while this side expands). The whole bucket is scanned —
  // no early break — so meet_checks depends only on the level's config
  // set, never on lane scheduling.
  auto probe = [&](const ProductConfig& c, bool c_is_fwd, const Side& other) {
    auto it = other.by_nodes.find(node_key(c));
    if (it == other.by_nodes.end()) return;
    for (const ProductConfig& o : it->second) {
      meet_checks.fetch_add(1, std::memory_order_relaxed);
      const ProductConfig& f = c_is_fwd ? c : o;
      const ProductConfig& b = c_is_fwd ? o : c;
      if (meets(f, b)) found.store(true, std::memory_order_relaxed);
    }
  };

  auto register_config = [&](Side& side, ProductConfig&& c) {
    side.by_nodes[node_key(c)].push_back(c);
    side.frontier.push_back(std::move(c));
  };

  // Seed both sides; the forward init probing the backward init covers
  // the split-at-0 case (all-ε words: start == end anchors and every
  // relation accepting an initial state).
  fwd.visited.Insert(fwd_init);
  bwd.visited.Insert(bwd_init);
  register_config(bwd, std::move(bwd_init));
  probe(fwd_init, /*c_is_fwd=*/true, bwd);
  register_config(fwd, std::move(fwd_init));

  Status status = Status::OK();
  while (!found.load(std::memory_order_relaxed) && !fwd.frontier.empty() &&
         !bwd.frontier.empty()) {
    const bool step_fwd = fwd.frontier.size() <= bwd.frontier.size();
    Side& side = step_fwd ? fwd : bwd;
    Side& other = step_fwd ? bwd : fwd;
    auto& ctxs = step_fwd ? fwd_ctxs : bwd_ctxs;
    const std::vector<NodeId>& anchors = step_fwd ? start_nodes : end_nodes;

    const size_t n = side.frontier.size();
    const size_t grain = AdaptiveGrain(n, lanes);
    std::vector<std::vector<ProductConfig>> slots((n + grain - 1) / grain);
    // Configs the visited table bounced at its occupancy gate; retried in
    // the serial phase after the barrier grows the table.
    std::vector<std::vector<ProductConfig>> deferred(lanes);
    std::atomic<bool> failed{false};
    std::vector<Status> lane_statuses(lanes);
    ParallelMorsels(
        lanes, n, grain, [&](size_t begin, size_t end, int lane_id) {
          Ctx& ctx = *ctxs[lane_id];
          std::vector<ProductConfig>& slot = slots[begin / grain];
          for (size_t i = begin; i < end; ++i) {
            if (failed.load(std::memory_order_relaxed)) return;
            if (cancel != nullptr && cancel->cancelled()) {
              lane_statuses[lane_id] = Status::Cancelled(kCancelledMessage);
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            if (configs_budget->fetch_add(1, std::memory_order_relaxed) + 1 >
                options.max_configs) {
              lane_statuses[lane_id] = Status::ResourceExhausted(
                  "product search exceeded max_configs=" +
                  std::to_string(options.max_configs));
              failed.store(true, std::memory_order_relaxed);
              if (cancel != nullptr) cancel->Cancel();
              return;
            }
            bool accepted = false;
            ctx.ProcessConfig(
                side.frontier[i], anchors, fixed, /*results=*/nullptr,
                &accepted,
                [&](ProductConfig next, const std::vector<Symbol>& letters) {
                  (void)letters;
                  switch (side.visited.Insert(next)) {
                    case VisitedInsert::kNew:
                      probe(next, step_fwd, other);
                      slot.push_back(std::move(next));
                      break;
                    case VisitedInsert::kDeferred:
                      deferred[lane_id].push_back(std::move(next));
                      break;
                    case VisitedInsert::kPresent:
                      break;
                  }
                });
            (void)accepted;
          }
        });
    status = CombineLaneStatuses(lane_statuses);
    if (!status.ok()) break;
    // Serial phase: register the level's discoveries (meet table + next
    // frontier) in slot order, then grow the visited table and retry the
    // deferred configs — a deferral never inserted, so the retry either
    // claims the config (probed and registered exactly like a direct
    // claim; the opposite meet table is still frozen) or finds another
    // lane already claimed it. Exactly-once processing holds either way.
    side.frontier.clear();
    for (std::vector<ProductConfig>& slot : slots) {
      for (ProductConfig& c : slot) register_config(side, std::move(c));
    }
    uint64_t num_deferred = 0;
    for (const auto& d : deferred) num_deferred += d.size();
    side.visited.MaintainAtBarrier(num_deferred);
    for (auto& d : deferred) {
      for (ProductConfig& c : d) {
        if (side.visited.Insert(c) == VisitedInsert::kNew) {
          probe(c, step_fwd, other);
          register_config(side, std::move(c));
        }
      }
    }
  }

  for (int l = 0; l < lanes; ++l) {
    counters->frontier_expansions += fwd_ctxs[l]->frontier_expansions() +
                                     bwd_ctxs[l]->frontier_expansions();
    counters->arcs_explored +=
        fwd_ctxs[l]->arcs_explored() + bwd_ctxs[l]->arcs_explored();
  }
  counters->visited_configs += fwd.visited.size() + bwd.visited.size();
  counters->meet_checks += meet_checks.load(std::memory_order_relaxed);
  if (!status.ok()) return status;
  if (found.load(std::memory_order_relaxed) && results != nullptr) {
    results->insert(assignment);
  }
  return Status::OK();
}

// Morsel-parallel ProductExpand over seed rows: lanes claim row morsels
// and run one serial seeded search per row (each lane reuses one search —
// warm subset pools and mask caches across its rows).
Status MorselSeedRowsExpand(const ResolvedQuery& rq,
                            const ComponentSpec& comp,
                            const EvalOptions& options,
                            SearchDirection direction, int num_lanes,
                            const std::vector<NodeId>& fixed,
                            const BindingTable& seeds,
                            std::atomic<uint64_t>* configs_budget,
                            CancellationToken* cancel, EvalStats& stats,
                            OperatorStats& op,
                            std::set<std::vector<NodeId>>* results) {
  std::vector<ExpandLane> lanes(num_lanes);
  std::atomic<bool> failed{false};
  const size_t grain =
      std::max<size_t>(1, seeds.rows.size() / (num_lanes * 8));
  ParallelMorsels(
      num_lanes, seeds.rows.size(), grain,
      [&](size_t begin, size_t end, int lane_id) {
        ExpandLane& lane = lanes[lane_id];
        std::vector<NodeId> overlay;
        for (size_t r = begin; r < end; ++r) {
          if (failed.load(std::memory_order_relaxed) ||
              cancel->cancelled()) {
            return;
          }
          overlay = fixed;
          if (!OverlaySeedRow(seeds, r, &overlay)) continue;
          Status st;
          if (direction == SearchDirection::kBidirectional) {
            // Every endpoint is bound per row: one serial
            // meet-in-the-middle search per seed row.
            std::vector<NodeId> starts, ends;
            if (!DeriveStartNodes(rq, comp, overlay, &starts) ||
                !DeriveEndNodes(rq, comp, overlay, &ends)) {
              continue;
            }
            ++lane.start_assignments;
            BidirCounters counters;
            st = BidirectionalProductSearch(rq, comp, options,
                                            /*num_lanes=*/1, starts, ends,
                                            overlay, configs_budget, cancel,
                                            &counters, &lane.results);
            lane.visited_configs += counters.visited_configs;
            lane.frontier_expansions += counters.frontier_expansions;
            lane.arcs_explored += counters.arcs_explored;
            lane.meet_checks += counters.meet_checks;
          } else {
            ComponentSearch& search = lane.Search(
                rq, comp, options,
                direction == SearchDirection::kBackward);
            st = EnumerateAndRun(rq, search, overlay,
                                 &lane.start_assignments, &lane.results,
                                 nullptr, configs_budget, cancel);
          }
          if (!st.ok()) {
            lane.status = st;
            failed.store(true, std::memory_order_relaxed);
            cancel->Cancel();
            return;
          }
        }
      });
  return MergeExpandLanes(lanes, cancel, stats, op, results);
}

// Morsel-parallel ProductExpand over the first unbound anchor variable
// (start vars forward, end vars backward): the degree-ordered node list
// (in-degree-descending for backward) is split into morsels, and each
// lane pins the variable to its claimed nodes, serially enumerating any
// remaining anchor variables per pin.
Status MorselStartNodesExpand(const ResolvedQuery& rq,
                              const ComponentSpec& comp,
                              const EvalOptions& options,
                              SearchDirection direction, int num_lanes,
                              const std::vector<NodeId>& overlay, int var,
                              std::atomic<uint64_t>* configs_budget,
                              CancellationToken* cancel, EvalStats& stats,
                              OperatorStats& op,
                              std::set<std::vector<NodeId>>* results) {
  const bool backward = direction == SearchDirection::kBackward;
  const std::vector<NodeId>& order = backward ? rq.index->NodesByInDegree()
                                             : rq.index->NodesByDegree();
  std::vector<ExpandLane> lanes(num_lanes);
  std::atomic<bool> failed{false};
  const size_t grain = std::max<size_t>(1, order.size() / (num_lanes * 8));
  ParallelMorsels(num_lanes, order.size(), grain,
                  [&](size_t begin, size_t end, int lane_id) {
                    ExpandLane& lane = lanes[lane_id];
                    ComponentSearch& search =
                        lane.Search(rq, comp, options, backward);
                    std::vector<NodeId> pinned;
                    for (size_t i = begin; i < end; ++i) {
                      if (failed.load(std::memory_order_relaxed) ||
                          cancel->cancelled()) {
                        return;
                      }
                      pinned = overlay;
                      pinned[var] = order[i];
                      Status st = EnumerateAndRun(
                          rq, search, pinned, &lane.start_assignments,
                          &lane.results, nullptr, configs_budget, cancel);
                      if (!st.ok()) {
                        lane.status = st;
                        failed.store(true, std::memory_order_relaxed);
                        cancel->Cancel();
                        return;
                      }
                    }
                  });
  return MergeExpandLanes(lanes, cancel, stats, op, results);
}

// Level-synchronous shared-frontier expansion of ONE anchored product
// search (anchored on its direction's side: start nodes forward, end
// nodes backward). Each BFS level's frontier is a flat array — packed
// 8-byte config codes when the shape fits one word (the common case:
// cache-friendly, unpacked into a reusable per-lane scratch config),
// whole configurations otherwise — split into contiguous morsels
// (AdaptiveGrain: tiny levels run inline on the caller, large ones give
// each lane a few cache-local ranges). Lanes dedup successors through
// the lock-free HybridVisitedTable — one relaxed CAS per novel config,
// no locks on the hot path — into per-lane outboxes concatenated at the
// level barrier; configs the table bounced at its occupancy gate are
// parked per lane and retried after the barrier grows the table (a
// deferral never inserts, so the retry preserves exactly-once claiming).
//
// Only the claiming lane forwards a config, so every configuration in
// the closure is processed exactly once — which is all the determinism
// contract needs: results fold into std::sets and every reported counter
// (configs, arcs, frontier expansions, visited size) is a sum over the
// closure, so answer tuples and EvalStats are identical at any lane
// count regardless of morsel scheduling.
Status SharedFrontierExpand(const ResolvedQuery& rq,
                            const ComponentSpec& comp,
                            const EvalOptions& options,
                            SearchDirection direction, int num_lanes,
                            const std::vector<NodeId>& anchor_nodes,
                            const std::vector<NodeId>& fixed,
                            std::atomic<uint64_t>* configs_budget,
                            CancellationToken* cancel, EvalStats& stats,
                            OperatorStats& op,
                            std::set<std::vector<NodeId>>* results) {
  const bool backward = direction == SearchDirection::kBackward;
  const int lanes = std::max(num_lanes, 1);
  SharedSubsetPool pool;
  using Ctx = ComponentSearchT<SharedSubsetPool>;
  std::vector<std::unique_ptr<Ctx>> ctxs;
  ctxs.reserve(lanes);
  for (int l = 0; l < lanes; ++l) {
    ctxs.push_back(std::make_unique<Ctx>(rq, comp, options, &pool, backward));
  }
  ProductConfig init;
  if (!ctxs[0]->MakeInitialConfig(anchor_nodes, &init)) return Status::OK();
  ++stats.start_assignments;

  ConfigCodec codec(static_cast<int>(comp.tracks.size()),
                    static_cast<int>(comp.relation_indices.size()),
                    rq.graph->num_nodes());
  HybridVisitedTable visited(codec, lanes);

  // Current level. Subset ids are interned once per distinct state set,
  // so within one run a config is deterministically packable or not —
  // the two arrays partition the frontier consistently across levels.
  std::vector<uint64_t> frontier_packed;
  std::vector<ProductConfig> frontier_generic;
  {
    uint64_t code;
    if (codec.packable && codec.TryPack(init, &code)) {
      visited.InsertPacked(code);
      frontier_packed.push_back(code);
    } else {
      visited.Insert(init);
      frontier_generic.push_back(std::move(init));
    }
  }

  struct FrontierLane {
    std::vector<uint64_t> out_packed;
    std::vector<ProductConfig> out_generic;
    std::vector<uint64_t> deferred;
    ProductConfig scratch;  // unpack target, reused across morsels
    std::set<std::vector<NodeId>> results;
    Status status;
  };
  std::vector<FrontierLane> lane_state(lanes);

  while (!frontier_packed.empty() || !frontier_generic.empty()) {
    const size_t n_packed = frontier_packed.size();
    const size_t total = n_packed + frontier_generic.size();
    std::atomic<bool> failed{false};
    ParallelMorsels(
        lanes, total, AdaptiveGrain(total, lanes),
        [&](size_t begin, size_t end, int lane_id) {
          FrontierLane& lane = lane_state[lane_id];
          Ctx& ctx = *ctxs[lane_id];
          auto emit = [&](ProductConfig next,
                          const std::vector<Symbol>& letters) {
            (void)letters;
            uint64_t code;
            if (codec.packable && codec.TryPack(next, &code)) {
              switch (visited.InsertPacked(code)) {
                case VisitedInsert::kNew:
                  lane.out_packed.push_back(code);
                  break;
                case VisitedInsert::kDeferred:
                  lane.deferred.push_back(code);
                  break;
                case VisitedInsert::kPresent:
                  break;
              }
            } else if (visited.Insert(next) == VisitedInsert::kNew) {
              lane.out_generic.push_back(std::move(next));
            }
          };
          for (size_t i = begin; i < end; ++i) {
            if (failed.load(std::memory_order_relaxed)) return;
            if (cancel->cancelled()) {
              lane.status = Status::Cancelled(kCancelledMessage);
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            if (configs_budget->fetch_add(1, std::memory_order_relaxed) +
                    1 >
                options.max_configs) {
              lane.status = Status::ResourceExhausted(
                  "product search exceeded max_configs=" +
                  std::to_string(options.max_configs));
              cancel->Cancel();
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            const ProductConfig* current;
            if (i < n_packed) {
              codec.Unpack(frontier_packed[i], &lane.scratch);
              current = &lane.scratch;
            } else {
              current = &frontier_generic[i - n_packed];
            }
            bool accepted = false;
            ctx.ProcessConfig(*current, anchor_nodes, fixed, &lane.results,
                              &accepted, emit);
            (void)accepted;
          }
        });
    if (failed.load(std::memory_order_relaxed)) break;

    // Level barrier (single-threaded): grow the visited table past its
    // load target, retry the deferred codes — guaranteed to not defer
    // again — and concatenate the lane outboxes into the next frontier.
    uint64_t num_deferred = 0;
    for (const FrontierLane& lane : lane_state) {
      num_deferred += lane.deferred.size();
    }
    visited.MaintainAtBarrier(num_deferred);
    frontier_packed.clear();
    frontier_generic.clear();
    for (FrontierLane& lane : lane_state) {
      for (uint64_t code : lane.deferred) {
        if (visited.InsertPacked(code) == VisitedInsert::kNew) {
          lane.out_packed.push_back(code);
        }
      }
      lane.deferred.clear();
      frontier_packed.insert(frontier_packed.end(), lane.out_packed.begin(),
                             lane.out_packed.end());
      lane.out_packed.clear();
      for (ProductConfig& c : lane.out_generic) {
        frontier_generic.push_back(std::move(c));
      }
      lane.out_generic.clear();
    }
  }

  std::vector<Status> statuses;
  for (FrontierLane& lane : lane_state) {
    statuses.push_back(lane.status);
    if (results != nullptr) {
      results->insert(lane.results.begin(), lane.results.end());
    }
  }
  for (int l = 0; l < lanes; ++l) {
    op.frontier_expansions += ctxs[l]->frontier_expansions();
    stats.arcs_explored += ctxs[l]->arcs_explored();
  }
  op.visited_configs += visited.size();
  Status combined = CombineLaneStatuses(statuses);
  if (combined.ok() && cancel->cancelled()) {
    return Status::Cancelled(kCancelledMessage);
  }
  return combined;
}

// ReachabilityScan leaf: single path atom, all-unary languages. One
// intersected-NFA BFS per anchor (restricted to seeded sources/targets
// when available) instead of the subset-tracking product search; the
// per-anchor BFSes run morsel-parallel on `num_threads` lanes. The
// direction decides which side anchors the BFSes: forward scans from
// sources, backward scans from targets through the reversed NFA over
// in-edges, and bidirectional runs one meet-in-the-middle reachability
// probe per (source, target) pair. The scan is polynomial (Thm 6.5), so
// it is not charged to EvalOptions::max_configs, which bounds the
// exponential product search; its visited (state, node) pairs are
// reported as the operator's visited_configs.
Status ScanComponentOp(const ResolvedQuery& rq, const ComponentSpec& comp,
                       const std::vector<NodeId>& fixed,
                       const BindingTable* seeds, SearchDirection direction,
                       int num_threads, CancellationToken* cancel,
                       EvalStats& stats, OperatorStats& op,
                       std::set<std::vector<NodeId>>* results) {
  const ResolvedAtom& atom = rq.atoms[comp.atom_indices[0]];
  std::vector<const RegularRelation*> languages;
  for (int r : comp.relation_indices) {
    languages.push_back(rq.relations()[r].relation);
  }

  // Endpoint restrictions: constant > fixed > seeded column > all nodes.
  auto bound_of = [&](const ResolvedTerm& term) -> NodeId {
    if (term.is_const) return term.node;
    return fixed[term.var];
  };
  auto collect = [&](const ResolvedTerm& term, std::vector<NodeId>* out) {
    NodeId bound = bound_of(term);
    if (bound >= 0) {
      out->push_back(bound);
      return true;
    }
    int seed_col = (seeds != nullptr && !term.is_const)
                       ? seeds->ColumnOf(term.var)
                       : -1;
    if (seed_col < 0) return false;
    std::set<NodeId> distinct;
    for (const std::vector<NodeId>& row : seeds->rows) {
      distinct.insert(row[seed_col]);
    }
    out->assign(distinct.begin(), distinct.end());
    return true;
  };
  // Only the sides the direction anchors are materialized (a forward
  // scan never reads the target set; distilling it from a large seed
  // table would be pure overhead). A bidirectional request collects
  // both — it may degrade to either side below.
  std::vector<NodeId> sources, targets;
  const std::vector<NodeId>* source_ptr = nullptr;
  const std::vector<NodeId>* target_ptr = nullptr;
  if (direction != SearchDirection::kBackward) {
    source_ptr = collect(atom.from, &sources) ? &sources : nullptr;
  }
  if (direction != SearchDirection::kForward) {
    target_ptr = collect(atom.to, &targets) ? &targets : nullptr;
  }

  // Degrade infeasible or unprofitable requests: bidirectional needs
  // both endpoint sets, and a pairwise meet probe pays a per-pair
  // (state × node) bitmap reset, so it only beats a one-sided sweep
  // when the anchor product is tiny (the constant-anchored case the
  // planner targets). Larger seeded sets run the sweep anchored on the
  // smaller side instead; a backward scan is always feasible (all nodes
  // anchor when no target restriction exists).
  if (direction == SearchDirection::kBidirectional) {
    if (source_ptr == nullptr || target_ptr == nullptr) {
      direction = target_ptr != nullptr ? SearchDirection::kBackward
                                        : SearchDirection::kForward;
    } else if (sources.size() * targets.size() > 4) {
      direction = targets.size() < sources.size()
                      ? SearchDirection::kBackward
                      : SearchDirection::kForward;
    }
  }
  op.direction = SearchDirectionName(direction);

  ReachabilityScanStats scan_stats;
  uint64_t meet_checks = 0;
  std::vector<std::pair<NodeId, NodeId>> pairs = ReachabilityPairsDirected(
      *rq.graph, languages, *rq.index, source_ptr, target_ptr,
      direction, &scan_stats, &meet_checks, num_threads, cancel);
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(kCancelledMessage);
  }
  op.frontier_expansions += scan_stats.frontier_expansions;
  op.visited_configs += scan_stats.visited_states;
  op.meet_checks += meet_checks;
  stats.arcs_explored += scan_stats.frontier_expansions;
  switch (direction) {
    case SearchDirection::kBidirectional:
      stats.start_assignments += sources.size() * targets.size();
      break;
    case SearchDirection::kBackward:
      stats.start_assignments +=
          target_ptr != nullptr ? targets.size() : rq.graph->num_nodes();
      break;
    default:
      stats.start_assignments +=
          source_ptr != nullptr ? sources.size() : rq.graph->num_nodes();
      break;
  }
  // Seed-row compatibility set (projection of seed rows onto comp.vars).
  std::unordered_set<std::vector<NodeId>, RowHash> seed_set;
  std::vector<int> seed_cols;
  if (seeds != nullptr) {
    for (int v : seeds->vars) seed_cols.push_back(v);
    for (const std::vector<NodeId>& row : seeds->rows) seed_set.insert(row);
  }

  std::vector<NodeId> binding, key;
  for (const auto& [u, v] : pairs) {
    if (atom.from.is_const && u != atom.from.node) continue;
    if (atom.to.is_const && v != atom.to.node) continue;
    binding = fixed;
    bool ok = true;
    if (!atom.from.is_const) {
      if (binding[atom.from.var] >= 0 && binding[atom.from.var] != u) {
        ok = false;
      }
      binding[atom.from.var] = u;
    }
    if (ok && !atom.to.is_const) {
      if (binding[atom.to.var] >= 0 && binding[atom.to.var] != v) ok = false;
      if (ok) binding[atom.to.var] = v;
    }
    if (!ok) continue;
    if (seeds != nullptr) {
      key.clear();
      for (int var : seed_cols) key.push_back(binding[var]);
      if (seed_set.find(key) == seed_set.end()) continue;
    }
    std::vector<NodeId> assignment;
    assignment.reserve(comp.vars.size());
    for (int var : comp.vars) assignment.push_back(binding[var]);
    results->insert(std::move(assignment));
  }
  return Status::OK();
}

std::string ComponentDetail(const ComponentSpec& comp) {
  std::string detail = "atoms";
  for (int idx : comp.atom_indices) detail += " " + std::to_string(idx);
  return detail;
}

// True when every variable of `vars` is pinned by the overlay sources a
// leaf execution will see: the fixed bindings, or a seed column.
bool VarsBound(const std::vector<int>& vars, const std::vector<NodeId>& fixed,
               const BindingTable* seeds) {
  for (int v : vars) {
    if (fixed[v] >= 0) continue;
    if (seeds != nullptr && seeds->ColumnOf(v) >= 0) continue;
    return false;
  }
  return true;
}

// Resolves the direction a ProductExpand leaf actually runs: the
// EvalOptions override beats the planner's per-leaf choice, graph
// recording pins forward (the sink's discovery array is a forward
// product automaton), and an infeasible bidirectional request (some
// endpoint unbound) degrades to backward when the end side is bound,
// else forward.
SearchDirection ResolveLeafDirection(SearchDirection planned,
                                     const EvalOptions& options,
                                     const ComponentSpec& comp,
                                     const std::vector<NodeId>& fixed,
                                     const BindingTable* seeds,
                                     bool graph_sink_present) {
  if (graph_sink_present) return SearchDirection::kForward;
  SearchDirection dir = options.direction != SearchDirection::kAuto
                            ? options.direction
                            : planned;
  if (dir == SearchDirection::kAuto) dir = SearchDirection::kForward;
  if (dir == SearchDirection::kBidirectional &&
      !(VarsBound(comp.start_vars, fixed, seeds) &&
        VarsBound(comp.end_vars, fixed, seeds))) {
    dir = VarsBound(comp.end_vars, fixed, seeds)
              ? SearchDirection::kBackward
              : SearchDirection::kForward;
  }
  // A bidirectional run pays per-search setup (shared subset pool, two
  // sharded visited tables, meet tables), and the seeded form replays
  // one run PER ROW; with a large seed table those constants dominate
  // the tiny per-row searches, so degrade to the warm per-lane forward
  // machinery (the ProductExpand mirror of ScanComponentOp's
  // anchor-product degrade).
  if (dir == SearchDirection::kBidirectional && seeds != nullptr &&
      seeds->rows.size() > 128) {
    dir = SearchDirection::kForward;
  }
  return dir;
}

}  // namespace

Status ExecuteComponentOp(const ResolvedQuery& rq, const ComponentSpec& comp,
                          const EvalOptions& options,
                          const std::vector<NodeId>& fixed,
                          const BindingTable* seeds, double est_rows,
                          SearchDirection direction, int num_threads,
                          EvalStats& stats,
                          std::set<std::vector<NodeId>>* results,
                          ProductGraphSink* graph_sink) {
  OperatorStats op;
  op.detail = ComponentDetail(comp);
  op.est_rows = est_rows;
  op.rows_in = (seeds != nullptr) ? seeds->rows.size() : 0;
  const size_t before = (results != nullptr) ? results->size() : 0;

  // Graph recording is single-consumer (the sink indexes a global
  // discovery array), so it pins the serial path.
  int lanes = std::max(num_threads, 1);
  if (graph_sink != nullptr) lanes = 1;

  const SearchDirection dir = ResolveLeafDirection(
      direction, options, comp, fixed, seeds, graph_sink != nullptr);

  // One cancellation token per operator run: the caller's (so external
  // kills and sink early-termination fan out to every lane), or a local
  // one so lane errors still cancel their siblings.
  CancellationToken local_cancel;
  CancellationToken* cancel = options.cancellation.get();
  if (cancel == nullptr && lanes > 1) cancel = &local_cancel;

  // The execution-wide popped-configuration budget: seeded from the
  // stats accumulated so far (scans charge it too), written back after.
  std::atomic<uint64_t> configs_budget{stats.configs_explored};

  Status status;
  if (results != nullptr && graph_sink == nullptr &&
      IsReachabilityScanComponent(rq, comp)) {
    op.op = "ReachabilityScan";
    op.threads = lanes;
    status = ScanComponentOp(rq, comp, fixed, seeds, dir, lanes,
                             cancel, stats, op, results);
  } else {
    op.op = "ProductExpand";
    op.direction = SearchDirectionName(dir);
    const bool seeded = seeds != nullptr && !seeds->vars.empty();
    const bool backward = dir == SearchDirection::kBackward;
    if (dir == SearchDirection::kBidirectional && lanes <= 1) {
      // Serial meet-in-the-middle: one anchored bidirectional search per
      // overlay (every endpoint is bound, so each overlay has a unique
      // candidate assignment).
      op.threads = 1;
      uint64_t start_assignments = 0;
      BidirCounters counters;
      auto run_bidir = [&](const std::vector<NodeId>& overlay) -> Status {
        std::vector<NodeId> starts, ends;
        if (!DeriveStartNodes(rq, comp, overlay, &starts) ||
            !DeriveEndNodes(rq, comp, overlay, &ends)) {
          return Status::OK();
        }
        ++start_assignments;
        return BidirectionalProductSearch(rq, comp, options, /*num_lanes=*/1,
                                          starts, ends, overlay,
                                          &configs_budget, cancel, &counters,
                                          results);
      };
      if (seeded) {
        std::vector<NodeId> overlay;
        for (size_t r = 0; r < seeds->rows.size(); ++r) {
          overlay = fixed;
          if (!OverlaySeedRow(*seeds, r, &overlay)) continue;
          status = run_bidir(overlay);
          if (!status.ok()) break;
        }
      } else {
        status = run_bidir(fixed);
      }
      stats.start_assignments += start_assignments;
      stats.arcs_explored += counters.arcs_explored;
      op.visited_configs = counters.visited_configs;
      op.frontier_expansions = counters.frontier_expansions;
      op.meet_checks = counters.meet_checks;
    } else if (lanes <= 1) {
      // Exact legacy single-threaded path (forward), or its backward
      // mirror over the reversed tape.
      op.threads = 1;
      SubsetPool pool;
      ComponentSearch search(rq, comp, options, &pool, backward);
      uint64_t start_assignments = 0;
      if (seeded) {
        // Sideways information passing: one seeded expansion per row.
        std::vector<NodeId> overlay;
        for (size_t r = 0; r < seeds->rows.size(); ++r) {
          overlay = fixed;
          if (!OverlaySeedRow(*seeds, r, &overlay)) continue;
          status = EnumerateAndRun(rq, search, overlay, &start_assignments,
                                   results, graph_sink, &configs_budget,
                                   cancel);
          if (!status.ok()) break;
        }
      } else {
        status = EnumerateAndRun(rq, search, fixed, &start_assignments,
                                 results, graph_sink, &configs_budget,
                                 cancel);
      }
      stats.start_assignments += start_assignments;
      stats.arcs_explored += search.arcs_explored();
      op.visited_configs = search.visited_configs();
      op.frontier_expansions = search.frontier_expansions();
    } else if (seeded && seeds->rows.size() >= 2) {
      // Batched sideways seeding. With fewer seed rows than lanes, the
      // per-row morsel partition leaves most lanes idle while each
      // claimed row's (possibly huge) search runs serially on one lane.
      // When every anchor variable of the direction is bound per row
      // (fixed vars plus seed columns), run the rows sequentially
      // instead and expand each row's single anchored search
      // cooperatively on ALL lanes through the shared frontier — the
      // per-row twin of the single-overlay cooperative path below. Each
      // row's results and counters are identical between the two
      // routings, so the lane-count-dependent choice cannot change what
      // the operator reports.
      const std::vector<int>& anchor_vars =
          backward ? comp.end_vars : comp.start_vars;
      if (dir != SearchDirection::kBidirectional &&
          seeds->rows.size() < static_cast<size_t>(lanes) &&
          VarsBound(anchor_vars, fixed, seeds)) {
        op.threads = lanes;
        std::vector<NodeId> overlay;
        for (size_t r = 0; r < seeds->rows.size() && status.ok(); ++r) {
          overlay = fixed;
          if (!OverlaySeedRow(*seeds, r, &overlay)) continue;
          std::vector<NodeId> anchor_nodes;
          const bool derived =
              backward ? DeriveEndNodes(rq, comp, overlay, &anchor_nodes)
                       : DeriveStartNodes(rq, comp, overlay, &anchor_nodes);
          if (!derived) continue;
          status = SharedFrontierExpand(rq, comp, options, dir, lanes,
                                        anchor_nodes, overlay,
                                        &configs_budget, cancel, stats, op,
                                        results);
        }
      } else {
        op.threads = lanes;
        status = MorselSeedRowsExpand(rq, comp, options, dir, lanes, fixed,
                                      *seeds, &configs_budget, cancel,
                                      stats, op, results);
      }
    } else {
      // Single overlay: `fixed`, or `fixed` plus the lone seed row.
      std::vector<NodeId> overlay = fixed;
      bool feasible = true;
      if (seeded) {
        feasible = !seeds->rows.empty() &&
                   OverlaySeedRow(*seeds, 0, &overlay);
      }
      if (feasible && dir == SearchDirection::kBidirectional) {
        // Fully anchored: both half-searches expand morsel-parallel.
        std::vector<NodeId> starts, ends;
        if (DeriveStartNodes(rq, comp, overlay, &starts) &&
            DeriveEndNodes(rq, comp, overlay, &ends)) {
          op.threads = lanes;
          ++stats.start_assignments;
          BidirCounters counters;
          status = BidirectionalProductSearch(rq, comp, options, lanes,
                                              starts, ends, overlay,
                                              &configs_budget, cancel,
                                              &counters, results);
          stats.arcs_explored += counters.arcs_explored;
          op.visited_configs = counters.visited_configs;
          op.frontier_expansions = counters.frontier_expansions;
          op.meet_checks = counters.meet_checks;
        }
      } else if (feasible) {
        const std::vector<int>& anchor_vars =
            backward ? comp.end_vars : comp.start_vars;
        int first_unbound = -1;
        for (int v : anchor_vars) {
          if (overlay[v] < 0) {
            first_unbound = v;
            break;
          }
        }
        if (first_unbound >= 0) {
          op.threads = lanes;
          status = MorselStartNodesExpand(rq, comp, options, dir, lanes,
                                          overlay, first_unbound,
                                          &configs_budget, cancel, stats,
                                          op, results);
        } else {
          // Every anchor variable of this direction bound: ONE product
          // search, expanded cooperatively against the sharded visited
          // table.
          std::vector<NodeId> anchor_nodes;
          const bool derived =
              backward ? DeriveEndNodes(rq, comp, overlay, &anchor_nodes)
                       : DeriveStartNodes(rq, comp, overlay, &anchor_nodes);
          if (derived) {
            op.threads = lanes;
            status = SharedFrontierExpand(rq, comp, options, dir, lanes,
                                          anchor_nodes, overlay,
                                          &configs_budget, cancel, stats,
                                          op, results);
          }
        }
      }
    }
    if (status.ok() && cancel != nullptr && cancel->cancelled()) {
      status = Status::Cancelled(kCancelledMessage);
    }
  }

  stats.configs_explored =
      std::max(stats.configs_explored,
               configs_budget.load(std::memory_order_relaxed));
  op.rows_out = (results != nullptr) ? results->size() - before : 0;
  if (graph_sink != nullptr) op.rows_out = graph_sink->configs.size();
  stats.operators.push_back(std::move(op));
  return status;
}

namespace {

// FNV-1a over selected columns of a row (partitioned joins) — the
// parallel paths hash keys in place instead of materializing a key vector
// per row.
uint64_t HashRowKey(const std::vector<NodeId>& row,
                    const std::vector<int>& cols) {
  uint64_t h = 1469598103934665603ULL;
  for (int c : cols) {
    h ^= static_cast<uint32_t>(row[c]);
    h *= 1099511628211ULL;
  }
  return h;
}

bool KeysEqual(const std::vector<NodeId>& a, const std::vector<int>& a_cols,
               const std::vector<NodeId>& b,
               const std::vector<int>& b_cols) {
  for (size_t k = 0; k < a_cols.size(); ++k) {
    if (a[a_cols[k]] != b[b_cols[k]]) return false;
  }
  return true;
}

// Rows below this skip the parallel join paths (partitioning overhead
// would dominate).
constexpr size_t kParallelJoinRows = 4096;

// Morsel sizes of the radix passes. Fixed constants — never derived from
// the lane count — because morsel boundaries define the canonical
// concatenation order of per-morsel results, which must be identical at
// any thread count.
constexpr size_t kJoinBuildGrain = 2048;
constexpr size_t kJoinProbeGrain = 1024;

// Radix partition count for a build side of `n` rows: one table below
// the parallel threshold, else enough partitions to keep per-partition
// tables cache-resident and every lane busy — a pure function of the
// input size so partition boundaries (and with them the build layout)
// are thread-count independent.
size_t JoinPartitionCount(size_t n) {
  if (n < kParallelJoinRows) return 1;
  return std::bit_ceil(
      std::clamp<size_t>(n / kJoinBuildGrain, size_t{16}, size_t{256}));
}

// A radix-partitioned build side: per-morsel partition counters size one
// exact reservation, lanes scatter row ids into per-partition slices
// (morsel order within a partition, row order within a morsel — so ids
// ascend within every partition), and each partition's hash table is
// built independently. Buckets map the mixed key hash to the build row
// ids carrying it, ascending — the same per-key probe order as the
// serial ordered-map build.
struct PartitionedBuild {
  size_t P = 0;
  std::vector<uint64_t> row_hash;    // mixed key hash per build row
  std::vector<uint32_t> part_begin;  // P + 1 partition bounds
  std::vector<uint32_t> part_rows;   // row ids, partition-major
  std::vector<std::unordered_map<uint64_t, std::vector<uint32_t>>> tables;

  // Build row ids whose mixed key hash is `h`, or nullptr.
  const std::vector<uint32_t>* Find(uint64_t h) const {
    const auto& table = tables[h & (P - 1)];
    auto it = table.find(h);
    return it == table.end() ? nullptr : &it->second;
  }
};

PartitionedBuild BuildPartitioned(
    const std::vector<std::vector<NodeId>>& rows,
    const std::vector<int>& key_cols, int lanes,
    std::vector<uint64_t>* lane_rows) {
  PartitionedBuild b;
  const size_t n = rows.size();
  const size_t P = b.P = JoinPartitionCount(n);
  const size_t grain = kJoinBuildGrain;
  const size_t n_morsels = (n + grain - 1) / grain;
  b.row_hash.resize(n);
  std::vector<uint32_t> counts(n_morsels * P, 0);
  ParallelMorsels(lanes, n, grain,
                  [&](size_t begin, size_t end, int lane_id) {
                    uint32_t* c = counts.data() + (begin / grain) * P;
                    for (size_t r = begin; r < end; ++r) {
                      const uint64_t h =
                          MixHash64(HashRowKey(rows[r], key_cols));
                      b.row_hash[r] = h;
                      ++c[h & (P - 1)];
                    }
                    (*lane_rows)[lane_id] += end - begin;
                  });
  // Exclusive scans: partition base offsets, then per-(morsel, partition)
  // write cursors.
  b.part_begin.assign(P + 1, 0);
  for (size_t m = 0; m < n_morsels; ++m) {
    for (size_t p = 0; p < P; ++p) b.part_begin[p + 1] += counts[m * P + p];
  }
  for (size_t p = 0; p < P; ++p) b.part_begin[p + 1] += b.part_begin[p];
  std::vector<uint32_t> offsets(n_morsels * P);
  for (size_t p = 0; p < P; ++p) {
    uint32_t cur = b.part_begin[p];
    for (size_t m = 0; m < n_morsels; ++m) {
      offsets[m * P + p] = cur;
      cur += counts[m * P + p];
    }
  }
  b.part_rows.resize(n);
  ParallelMorsels(lanes, n, grain,
                  [&](size_t begin, size_t end, int lane_id) {
                    (void)lane_id;
                    // Each morsel's cursor cells are touched by exactly
                    // one lane, so the in-place bump is race-free.
                    uint32_t* off = offsets.data() + (begin / grain) * P;
                    for (size_t r = begin; r < end; ++r) {
                      b.part_rows[off[b.row_hash[r] & (P - 1)]++] =
                          static_cast<uint32_t>(r);
                    }
                  });
  b.tables.resize(P);
  ParallelMorsels(lanes, P, 1, [&](size_t begin, size_t end, int lane_id) {
    (void)lane_id;
    for (size_t p = begin; p < end; ++p) {
      auto& table = b.tables[p];
      table.reserve(b.part_begin[p + 1] - b.part_begin[p]);
      for (uint32_t i = b.part_begin[p]; i < b.part_begin[p + 1]; ++i) {
        const uint32_t r = b.part_rows[i];
        table[b.row_hash[r]].push_back(r);
      }
    }
  });
  return b;
}

}  // namespace

BindingTable HashJoinOp(const BindingTable& left, const BindingTable& right,
                        EvalStats& stats, int num_threads,
                        const std::vector<int>* project) {
  OperatorStats op;
  op.op = "HashJoin";
  op.rows_in = left.rows.size() + right.rows.size();

  // Shared variables and output layout: left columns, then right's
  // non-shared columns.
  std::vector<std::pair<int, int>> shared;  // (left col, right col)
  std::vector<int> right_extra;             // right cols not shared
  for (size_t rc = 0; rc < right.vars.size(); ++rc) {
    int lc = left.ColumnOf(right.vars[rc]);
    if (lc >= 0) {
      shared.emplace_back(lc, static_cast<int>(rc));
    } else {
      right_extra.push_back(static_cast<int>(rc));
    }
  }
  for (const auto& [lc, rc] : shared) {
    op.detail += (op.detail.empty() ? "on" : ",");
    (void)lc;
    op.detail += " v" + std::to_string(right.vars[rc]);
  }
  if (shared.empty()) op.detail = "cross";

  BindingTable out;
  out.vars = left.vars;
  for (int rc : right_extra) out.vars.push_back(right.vars[rc]);

  // Radix-partitioned build of the right side (count -> exact
  // reservation -> scatter -> per-partition tables), on `lanes` lanes
  // when the input is large enough to amortize them, else inline.
  const int lanes =
      num_threads > 1 && left.rows.size() + right.rows.size() >=
                             kParallelJoinRows
          ? num_threads
          : 1;
  op.threads = lanes;
  std::vector<int> left_cols, right_cols;  // key columns per side
  for (const auto& [lc, rc] : shared) {
    left_cols.push_back(lc);
    right_cols.push_back(rc);
  }
  std::vector<uint64_t> lane_build(lanes, 0), lane_probe(lanes, 0);
  PartitionedBuild build =
      BuildPartitioned(right.rows, right_cols, lanes, &lane_build);

  // Two-pass morsel probe. Pass 1 records the matching (probe row, build
  // row) id pairs per morsel — hash collisions across distinct keys are
  // resolved by re-checking the key columns. Pass 2 sizes the output with
  // ONE exact reservation and materializes each morsel's matches into its
  // disjoint slice, concatenating in morsel order — left-row order, with
  // each row's matches by ascending right row id, at any thread count.
  // Output rows are distinct: both inputs hold distinct rows, and an
  // output is its left row plus the right row's non-key columns.
  const size_t grain = kJoinProbeGrain;
  const size_t num_morsels = (left.rows.size() + grain - 1) / grain;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> matches(
      num_morsels);
  ParallelMorsels(
      lanes, left.rows.size(), grain,
      [&](size_t begin, size_t end, int lane_id) {
        std::vector<std::pair<uint32_t, uint32_t>>& found =
            matches[begin / grain];
        for (size_t i = begin; i < end; ++i) {
          const std::vector<NodeId>& lrow = left.rows[i];
          const uint64_t h = MixHash64(HashRowKey(lrow, left_cols));
          const std::vector<uint32_t>* ids = build.Find(h);
          if (ids == nullptr) continue;
          for (uint32_t r : *ids) {
            if (!KeysEqual(lrow, left_cols, right.rows[r], right_cols)) {
              continue;
            }
            found.emplace_back(static_cast<uint32_t>(i), r);
          }
        }
        lane_probe[lane_id] += end - begin;
      });
  std::vector<size_t> out_off(num_morsels + 1, 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    out_off[m + 1] = out_off[m] + matches[m].size();
  }
  stats.join_tuples += out_off[num_morsels];
  if (project != nullptr) {
    // Early projection: the distinct projected rows in match order,
    // without materializing the joined rows.
    std::vector<std::pair<const BindingTable*, int>> sources;
    op.detail += ", project onto";
    for (int v : *project) {
      const int lc = left.ColumnOf(v);
      sources.emplace_back(lc >= 0 ? &left : &right,
                           lc >= 0 ? lc : right.ColumnOf(v));
      op.detail += " v" + std::to_string(v);
    }
    out.vars = *project;
    DistinctRows distinct(&out.rows);
    for (const auto& morsel : matches) {
      for (const auto& [i, r] : morsel) {
        std::vector<NodeId>* row = distinct.candidate();
        for (const auto& [table, col] : sources) {
          row->push_back(table->rows[table == &left ? i : r][col]);
        }
        distinct.Add();
      }
    }
  } else {
    out.AppendRowSlots(out_off[num_morsels]);
    ParallelMorsels(
        lanes, num_morsels, 1, [&](size_t begin, size_t end, int lane_id) {
          (void)lane_id;
          for (size_t m = begin; m < end; ++m) {
            size_t o = out_off[m];
            for (const auto& [i, r] : matches[m]) {
              std::vector<NodeId>& row = out.rows[o++];
              row.reserve(left.vars.size() + right_extra.size());
              row.assign(left.rows[i].begin(), left.rows[i].end());
              for (int rc : right_extra) row.push_back(right.rows[r][rc]);
            }
          }
        });
  }
  for (int l = 0; l < lanes; ++l) {
    op.build_rows += lane_build[l];
    op.probe_rows += lane_probe[l];
  }

  op.rows_out = out.rows.size();
  stats.operators.push_back(std::move(op));
  return out;
}

bool SemiJoinFilterOp(BindingTable* target, const BindingTable& filter,
                      EvalStats& stats, int num_threads) {
  std::vector<std::pair<int, int>> shared;  // (target col, filter col)
  for (size_t fc = 0; fc < filter.vars.size(); ++fc) {
    int tc = target->ColumnOf(filter.vars[fc]);
    if (tc >= 0) shared.emplace_back(tc, static_cast<int>(fc));
  }
  if (shared.empty()) return false;

  OperatorStats op;
  op.op = "SemiJoinFilter";
  op.rows_in = target->rows.size();
  for (const auto& [tc, fc] : shared) {
    (void)fc;
    op.detail += (op.detail.empty() ? "on v" : ",v") +
                 std::to_string(target->vars[tc]);
  }

  // Radix-partitioned build of the filter keys, then a two-pass morsel
  // probe: pass 1 flags the surviving target rows and counts them per
  // morsel, pass 2 moves survivors into ONE exactly-reserved output in
  // morsel order — the kept rows keep their original relative order at
  // any thread count. Lanes as in HashJoinOp.
  const int lanes =
      num_threads > 1 && target->rows.size() + filter.rows.size() >=
                             kParallelJoinRows
          ? num_threads
          : 1;
  op.threads = lanes;
  std::vector<int> target_cols, filter_cols;
  for (const auto& [tc, fc] : shared) {
    target_cols.push_back(tc);
    filter_cols.push_back(fc);
  }
  std::vector<uint64_t> lane_build(lanes, 0), lane_probe(lanes, 0);
  PartitionedBuild build =
      BuildPartitioned(filter.rows, filter_cols, lanes, &lane_build);
  const size_t grain = kJoinProbeGrain;
  const size_t n = target->rows.size();
  const size_t num_morsels = (n + grain - 1) / grain;
  std::vector<uint8_t> keep(n, 0);
  std::vector<size_t> kept_counts(num_morsels, 0);
  ParallelMorsels(
      lanes, n, grain, [&](size_t begin, size_t end, int lane_id) {
        // A serial run gets one call spanning every morsel.
        for (size_t i = begin; i < end; ++i) {
          const std::vector<NodeId>& trow = target->rows[i];
          const uint64_t h = MixHash64(HashRowKey(trow, target_cols));
          const std::vector<uint32_t>* ids = build.Find(h);
          bool hit = false;
          if (ids != nullptr) {
            for (uint32_t r : *ids) {
              if (KeysEqual(trow, target_cols, filter.rows[r],
                            filter_cols)) {
                hit = true;
                break;
              }
            }
          }
          keep[i] = hit;
          kept_counts[i / grain] += hit;
        }
        lane_probe[lane_id] += end - begin;
      });
  std::vector<size_t> out_off(num_morsels + 1, 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    out_off[m + 1] = out_off[m] + kept_counts[m];
  }
  std::vector<std::vector<NodeId>> kept(out_off[num_morsels]);
  ParallelMorsels(
      lanes, num_morsels, 1, [&](size_t begin, size_t end, int lane_id) {
        (void)lane_id;
        for (size_t m = begin; m < end; ++m) {
          size_t o = out_off[m];
          const size_t lo = m * grain;
          const size_t hi = std::min(lo + grain, n);
          for (size_t i = lo; i < hi; ++i) {
            if (keep[i]) kept[o++] = std::move(target->rows[i]);
          }
        }
      });
  for (int l = 0; l < lanes; ++l) {
    op.build_rows += lane_build[l];
    op.probe_rows += lane_probe[l];
  }
  bool shrank = kept.size() < target->rows.size();
  target->rows = std::move(kept);

  // Only filtering passes are profiled — the fixpoint driver calls this
  // repeatedly, and no-op passes would drown the operator profile.
  if (shrank) {
    op.rows_out = target->rows.size();
    stats.operators.push_back(std::move(op));
  }
  return shrank;
}

}  // namespace ecrpq
