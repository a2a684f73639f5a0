#include "core/ops.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "core/parallel.h"
#include "core/reachability.h"
#include "core/row_set.h"

namespace ecrpq {

BindingTable ProjectDistinct(const BindingTable& table,
                             const std::vector<int>& vars) {
  std::vector<int> cols;
  for (int v : vars) {
    int c = table.ColumnOf(v);
    ECRPQ_DCHECK(c >= 0);
    cols.push_back(c);
  }
  BindingTable out(vars);
  // Rows sorted on a column prefix (a leaf's, say) bring equal
  // projections onto that prefix together: keep each first one.
  bool prefix = true;
  for (size_t k = 0; k < cols.size(); ++k) {
    prefix = prefix && cols[k] == static_cast<int>(k);
  }
  if (prefix && table.rows.Ascending(/*strict=*/false)) {
    for (std::span<const NodeId> row : table.rows) {
      std::span<const NodeId> key = row.first(cols.size());
      if (out.rows.empty() ||
          !std::equal(key.begin(), key.end(),
                      out.rows[out.rows.size() - 1].begin())) {
        out.rows.push_back(key);
      }
    }
    return out;
  }
  PackedRowSet distinct(cols.size());
  std::vector<NodeId> projected(cols.size());
  for (std::span<const NodeId> row : table.rows) {
    for (size_t k = 0; k < cols.size(); ++k) projected[k] = row[cols[k]];
    distinct.Insert(projected);
  }
  out.rows = std::move(distinct).TakeRows();
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
  return comp.atom_indices.size() == 1 &&
         rq.compiled->scan_languages[rq.atoms[comp.atom_indices[0]].path]
             .has_value();
}

namespace {

constexpr const char* kCancelledMessage = "query execution cancelled";

// Interns relation state subsets (one pool per search).
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

// splitmix64 finalizer, used to spread packed config codes over slots.
uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Structural FNV-1a hash of a product configuration (padmask, per-track
// nodes, per-relation interned subset ids).
uint64_t HashProductConfig(const ProductConfig& c) {
  uint64_t h = 1469598103934665603ULL;
  auto feed = [&h](uint32_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  feed(c.padmask);
  for (NodeId v : c.nodes) feed(static_cast<uint32_t>(v));
  for (int s : c.subset_ids) feed(static_cast<uint32_t>(s));
  return h;
}

// Word-packing of product configurations: padmask + per-track node ids +
// per-relation subset ids in one uint64 when the shape fits. Subset ids
// are assigned dynamically, so TryPack can fail mid-search once an id
// outgrows its bit field.
struct ConfigCodec {
  int tracks = 0;
  int relations = 0;
  int node_bits = 0;
  int subset_bits = 0;
  bool packable = false;  // the shape fits 64 bits at all

  ConfigCodec(int tracks, int relations, int num_nodes)
      : tracks(tracks), relations(relations) {
    node_bits = std::bit_width(static_cast<uint32_t>(
        std::max(num_nodes - 1, 1)));
    const int used = tracks + tracks * node_bits;
    if (used <= 64 && relations > 0) {
      subset_bits = std::min<int>(31, (64 - used) / relations);
    }
    packable = (used + relations * subset_bits <= 64) &&
               (relations == 0 || subset_bits >= 1);
  }

  bool TryPack(const ProductConfig& c, uint64_t* out) const {
    uint64_t code = c.padmask;
    int shift = tracks;
    for (NodeId v : c.nodes) {
      code |= static_cast<uint64_t>(static_cast<uint32_t>(v)) << shift;
      shift += node_bits;
    }
    for (int s : c.subset_ids) {
      if (static_cast<int64_t>(s) >= (int64_t{1} << subset_bits)) {
        return false;
      }
      code |= static_cast<uint64_t>(s) << shift;
      shift += subset_bits;
    }
    *out = code;
    return true;
  }

  // Exact inverse of TryPack. Resizes `out`'s vectors, so a reused
  // scratch config never reallocates.
  void Unpack(uint64_t code, ProductConfig* out) const {
    out->padmask =
        static_cast<uint32_t>(code & ((uint64_t{1} << tracks) - 1));
    out->nodes.resize(tracks);
    const uint64_t node_mask = (uint64_t{1} << node_bits) - 1;
    int shift = tracks;
    for (int t = 0; t < tracks; ++t) {
      out->nodes[t] = static_cast<NodeId>((code >> shift) & node_mask);
      shift += node_bits;
    }
    out->subset_ids.resize(relations);
    const uint64_t subset_mask = (uint64_t{1} << subset_bits) - 1;
    for (int r = 0; r < relations; ++r) {
      out->subset_ids[r] = static_cast<int>((code >> shift) & subset_mask);
      shift += subset_bits;
    }
  }
};

// The visited table of one product search: an open-addressing set of
// configurations that hands out dense ids in discovery order, so a BFS
// can walk ids 0, 1, 2, ... as its queue.
//
// While padmask + per-track node ids + per-relation subset ids fit one
// word (ConfigCodec), the table stores each configuration as its packed
// 8-byte code (`codes_[id]`) and probes compare single words — no
// per-configuration allocation, no vector hashing. Subset-interning ids
// are assigned dynamically, so a search whose subset count outgrows its
// bit field switches once to stored configurations (`configs_[id]`,
// structural hash, vector equality) and keeps going; searches whose
// shape never fits start there.
class VisitedTable {
 public:
  VisitedTable(int tracks, int relations, int num_nodes)
      : codec_(tracks, relations, num_nodes), packed_(codec_.packable) {
    slots_.assign(1024, -1);
  }

  size_t size() const { return packed_ ? codes_.size() : configs_.size(); }

  // Returns (config id, inserted).
  std::pair<int, bool> FindOrInsert(const ProductConfig& c) {
    if ((size() + 1) * 10 >= slots_.size() * 7) Rebuild(slots_.size() * 2);
    uint64_t code = 0;
    if (packed_ && !codec_.TryPack(c, &code)) SwitchToConfigs();
    const size_t mask = slots_.size() - 1;
    if (packed_) {
      size_t i = MixHash64(code) & mask;
      for (; slots_[i] >= 0; i = (i + 1) & mask) {
        if (codes_[slots_[i]] == code) return {slots_[i], false};
      }
      slots_[i] = static_cast<int32_t>(codes_.size());
      codes_.push_back(code);
      return {slots_[i], true};
    }
    size_t i = HashProductConfig(c) & mask;
    for (; slots_[i] >= 0; i = (i + 1) & mask) {
      if (configs_[slots_[i]] == c) return {slots_[i], false};
    }
    slots_[i] = static_cast<int32_t>(configs_.size());
    configs_.push_back(c);
    return {slots_[i], true};
  }

  // Copies configuration `id` into `*out` (reusing its capacity).
  void Get(size_t id, ProductConfig* out) const {
    if (packed_) {
      codec_.Unpack(codes_[id], out);
    } else {
      *out = configs_[id];
    }
  }

 private:
  uint64_t SlotHash(size_t id) const {
    return packed_ ? MixHash64(codes_[id]) : HashProductConfig(configs_[id]);
  }

  // Clears the table to `capacity` slots and re-inserts every id.
  void Rebuild(size_t capacity) {
    slots_.assign(capacity, -1);
    for (size_t id = 0; id < size(); ++id) {
      size_t i = SlotHash(id) & (capacity - 1);
      while (slots_[i] >= 0) i = (i + 1) & (capacity - 1);
      slots_[i] = static_cast<int32_t>(id);
    }
  }

  // A subset id outgrew its bit field: unpack every stored code into a
  // configuration and re-key the slots by structural hash.
  void SwitchToConfigs() {
    configs_.resize(codes_.size());
    for (size_t id = 0; id < codes_.size(); ++id) {
      codec_.Unpack(codes_[id], &configs_[id]);
    }
    codes_.clear();
    codes_.shrink_to_fit();
    packed_ = false;
    Rebuild(slots_.size());
  }

  ConfigCodec codec_;
  bool packed_;
  std::vector<int32_t> slots_;          // config id or -1
  std::vector<uint64_t> codes_;         // per id, while packed_
  std::vector<ProductConfig> configs_;  // per id, once switched
};

// Polls `cancel` and charges one popped configuration to the
// execution-wide max_configs budget.
Status ChargeConfig(const EvalOptions& options,
                    std::atomic<uint64_t>* configs_budget,
                    CancellationToken* cancel) {
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(kCancelledMessage);
  }
  if (configs_budget->fetch_add(1, std::memory_order_relaxed) + 1 >
      options.max_configs) {
    return Status::ResourceExhausted("product search exceeded max_configs=" +
                                     std::to_string(options.max_configs));
  }
  return Status::OK();
}

// Product search over one component. Every search runs on one lane; the
// morsel drivers give each lane its own search and subset pool.
//
// A context is built for one direction. Forward contexts run the classic
// search: configurations advance on out-edges, state-subsets advance on
// the forward arc table, acceptance needs an accepting state per
// relation, and the padmask marks tracks whose word has ENDED (pads are a
// monotone suffix: a padded track may only keep padding). Backward
// contexts run the exact mirror over the compiled reversed tape
// (ResolvedRelation::rev_*): configurations advance on in-edges gated by
// InLabelMask, subsets advance on rev_arcs (so a backward subset
// holds the forward states from which an accepting state is reachable via
// the consumed suffix), acceptance needs a forward-INITIAL state per
// relation, and the padmask marks tracks that have STARTED consuming (a
// track may pad only while still inside its trailing-pad region — the
// mirror monotonicity, keeping pads a suffix of every track word). Both
// searches intern subsets in the same pool over the same state id space,
// which is what lets a bidirectional meet test S_fwd ∩ S_bwd per
// relation directly.
class ComponentSearch {
 public:
  ComponentSearch(const ResolvedQuery& rq, const ComponentSpec& comp,
                  const EvalOptions& options, SubsetPool* pool,
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
      view.arcs = backward_ ? &rel.rev_arcs : &rel.arcs;
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
  // backward. `emit(const ProductConfig&, letters)` receives every
  // generated successor (a scratch reused by the next one); the caller
  // owns dedup/queueing. The BFS (Run) and the bidirectional
  // half-searches both drive this.
  template <typename Emit>
  void ProcessConfig(const ProductConfig& current,
                     const std::vector<NodeId>& anchor_nodes,
                     const std::vector<NodeId>& fixed, PackedRowSet* results,
                     bool* accepted, Emit&& emit) {
    *accepted = false;
    if (Accepting(current)) {
      const std::vector<NodeId>& starts =
          backward_ ? current.nodes : anchor_nodes;
      const std::vector<NodeId>& ends =
          backward_ ? anchor_nodes : current.nodes;
      if (ConsistentAssignment(starts, ends, fixed, &scratch_assignment_)) {
        if (results != nullptr) results->Insert(scratch_assignment_);
        *accepted = true;
      }
    }
    const int T = static_cast<int>(comp_.tracks.size());
    ComputeLiveMasks(current);
    scratch_cands_.resize(T);
    for (int t = 0; t < T; ++t) GatherCandidates(t, current);
    scratch_letter_.assign(T, kPad);
    scratch_next_nodes_.assign(T, -1);
    auto counted = [&](const ProductConfig& next,
                       const std::vector<Symbol>& letters) {
      ++arcs_explored_;
      ++frontier_expansions_;
      emit(next, letters);
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
             const std::vector<NodeId>& fixed, PackedRowSet* results,
             ProductGraphSink* sink, std::atomic<uint64_t>* configs_budget,
             CancellationToken* cancel) {
    ProductConfig init;
    if (!MakeInitialConfig(anchor_nodes, &init)) return Status::OK();

    // The sink may already hold configs from previous start assignments;
    // all sink indices are offset by its current size.
    const int sink_base =
        (sink != nullptr) ? static_cast<int>(sink->configs.size()) : 0;
    VisitedTable visited(static_cast<int>(comp_.tracks.size()),
                         static_cast<int>(comp_.relation_indices.size()),
                         rq_.graph->num_nodes());
    auto intern_config = [&](const ProductConfig& c) -> int {
      auto [id, inserted] = visited.FindOrInsert(c);
      if (inserted) {
        ++visited_configs_;
        if (sink != nullptr) {
          sink->configs.push_back(c);
          sink->arcs.emplace_back();
          sink->initial.push_back(false);
          sink->accepting.push_back(false);
        }
      }
      return id;
    };

    const int init_id = intern_config(init);
    if (sink != nullptr) sink->initial[sink_base + init_id] = true;

    // Ids are handed out in discovery order, so walking them is the BFS
    // queue.
    ProductConfig current;
    for (size_t config_id = 0; config_id < visited.size(); ++config_id) {
      Status charged = ChargeConfig(options_, configs_budget, cancel);
      if (!charged.ok()) return charged;
      visited.Get(config_id, &current);
      bool accepted = false;
      ProcessConfig(current, anchor_nodes, fixed, results, &accepted,
                    [&](const ProductConfig& next,
                        const std::vector<Symbol>& letters) {
                      const int next_id = intern_config(next);
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
  // arc tables, endpoint sets, and tape masks (state ids coincide).
  struct RelView {
    const ArcsBySymbol* arcs = nullptr;
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
  // in-letters backward); cached per interned subset id. Forward and
  // backward contexts sharing one pool are distinct objects, so the
  // caches never mix directions.
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
      // Advance relations on their projected letters, into the reused
      // successor scratch (emit receives it by reference).
      ProductConfig& next = scratch_next_;
      next.padmask = new_padmask;
      next.nodes = *next_nodes;
      next.subset_ids.resize(comp_.relation_indices.size());
      for (size_t i = 0; i < comp_.relation_indices.size(); ++i) {
        const ArcsBySymbol& arcs = *views_[i].arcs;
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
            for (const Nfa::Arc& arc : arcs.On(s, id)) {
              advanced.push_back(arc.second);
            }
          }
        }
        if (advanced.empty()) return;  // prune
        std::sort(advanced.begin(), advanced.end());
        advanced.erase(std::unique(advanced.begin(), advanced.end()),
                       advanced.end());
        next.subset_ids[i] = pool_->Intern(std::move(advanced));
      }
      emit(next, *letter);
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
  // must keep reading; an unstarted one may start here). Candidates come
  // in ascending (label, target) order either way:
  //   * small rows (degree <= 16), and every row when the alphabet is
  //     too large for letter masks: a linear filter of the CSR row — a
  //     binary search per label costs more than reading a few edges;
  //   * large rows: live letters in ascending order via countr_zero,
  //     each label's slice ascending by target.
  void GatherCandidates(int t, const ProductConfig& current) {
    std::vector<std::pair<Symbol, NodeId>>& cands = scratch_cands_[t];
    cands.clear();
    if (!backward_ && (current.padmask & (1u << t)) != 0) return;
    const NodeId v = current.nodes[t];
    const uint64_t mask =
        use_masks_ ? live_[t] & (backward_ ? index_->InLabelMask(v)
                                           : index_->OutLabelMask(v))
                   : ~0ULL;
    if (mask == 0) return;  // no live letter here: the track can only pad
    const int degree =
        backward_ ? index_->in_degree(v) : index_->out_degree(v);
    if (!use_masks_ || degree <= 16) {
      std::span<const Symbol> labels =
          backward_ ? index_->InLabels(v) : index_->OutLabels(v);
      std::span<const NodeId> targets =
          backward_ ? index_->InSources(v) : index_->OutTargets(v);
      for (size_t i = 0; i < labels.size(); ++i) {
        if (((mask >> std::min<Symbol>(labels[i], 63)) & 1) != 0) {
          cands.emplace_back(labels[i], targets[i]);
        }
      }
      return;
    }
    for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      const Symbol label = static_cast<Symbol>(std::countr_zero(bits));
      std::span<const NodeId> slice =
          backward_ ? index_->In(v, label) : index_->Out(v, label);
      for (NodeId to : slice) cands.emplace_back(label, to);
    }
  }

  const ResolvedQuery& rq_;
  const ComponentSpec& comp_;
  const EvalOptions& options_;
  SubsetPool* pool_;
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
  ProductConfig scratch_next_;  // the successor handed to emit
  std::vector<NodeId> scratch_assignment_;  // an accepted assignment
  uint64_t visited_configs_ = 0;
  uint64_t frontier_expansions_ = 0;
  uint64_t arcs_explored_ = 0;
};

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

// Enumerates anchor assignments (start vars for forward contexts, end
// vars for backward ones; respecting the bound vars of `fixed`) and runs
// one serial product BFS per assignment — the ProductExpand body for one
// overlay of fixed bindings. `start_assignments` counts enumerated
// assignments (merged into EvalStats at the operator barrier).
Status EnumerateAndRun(const ResolvedQuery& rq, ComponentSearch& search,
                       const std::vector<NodeId>& fixed,
                       uint64_t* start_assignments, PackedRowSet* results,
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
    // answer set is order-independent (the leaf sorts its rows).
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

// Counters of bidirectional searches (merged into the operator entry at
// the barrier).
struct BidirCounters {
  uint64_t visited_configs = 0;
  uint64_t frontier_expansions = 0;
  uint64_t arcs_explored = 0;
  uint64_t meet_checks = 0;
};

// Per-lane state of the ProductExpand drivers (the serial path is one
// lane).
struct ExpandLane {
  ExpandLane(size_t arity, bool keep) : results(arity), keep_rows(keep) {}

  std::unique_ptr<SubsetPool> pool;
  std::unique_ptr<ComponentSearch> search;
  PackedRowSet results;  // distinct accepted assignments
  bool keep_rows;  // false in a graph-recording run (no result buffer)
  uint64_t start_assignments = 0;
  BidirCounters bidir;  // bidirectional overlays only
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
  PackedRowSet* rows() { return keep_rows ? &results : nullptr; }
};

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

// Meet-in-the-middle search of ONE fully anchored component: a forward
// half-search from the start anchors and a backward half-search from the
// end anchors run level-synchronously, each step expanding whichever
// side currently has the smaller frontier (frontier-size alternation).
// Every newly discovered configuration probes the opposite side's meet
// table — config ids keyed by their node tuple — and a meet is a
// forward/backward pair on the same nodes whose padmasks are compatible
// (no track both ended forward and started backward) and whose
// state-subsets intersect for every relation: the forward prefix reaches
// a state from which the backward suffix accepts. Since the component is
// fully anchored its satisfying assignment is unique, so the search stops
// at the first meet (after finishing the level, so every counter is a
// function of whole levels); either side exhausting without a meet
// proves the assignment unsatisfiable, because an accepting word of
// length m meets at every split 0..m — including the opposite side's
// initial configuration.
//
// Each side keeps its configurations in a VisitedTable; a level is the
// id range discovered by the previous step. Both directions intern
// subsets in one pool over the same state id space, which is what makes
// the per-relation intersection test meaningful.
Status BidirectionalProductSearch(const ResolvedQuery& rq,
                                  const ComponentSpec& comp,
                                  const EvalOptions& options,
                                  const std::vector<NodeId>& start_nodes,
                                  const std::vector<NodeId>& end_nodes,
                                  const std::vector<NodeId>& fixed,
                                  std::atomic<uint64_t>* configs_budget,
                                  CancellationToken* cancel,
                                  BidirCounters* counters,
                                  PackedRowSet* results) {
  SubsetPool pool;
  ComponentSearch fwd_search(rq, comp, options, &pool, /*backward=*/false);
  ComponentSearch bwd_search(rq, comp, options, &pool, /*backward=*/true);

  // The anchored component has exactly one candidate assignment; an
  // inconsistent anchor pair can never bind, so no search runs.
  std::vector<NodeId> assignment;
  if (!fwd_search.ConsistentAssignment(start_nodes, end_nodes, fixed,
                                       &assignment)) {
    return Status::OK();
  }

  ProductConfig fwd_init, bwd_init;
  if (!fwd_search.MakeInitialConfig(start_nodes, &fwd_init) ||
      !bwd_search.MakeInitialConfig(end_nodes, &bwd_init)) {
    return Status::OK();
  }

  struct Side {
    Side(int tracks, int relations, int num_nodes)
        : visited(tracks, relations, num_nodes) {}
    VisitedTable visited;
    // Meet table: node-tuple hash -> ids of configs discovered here.
    std::unordered_map<uint64_t, std::vector<int>> by_nodes;
    size_t level_begin = 0;  // ids [level_begin, size) are the frontier
    size_t frontier() const { return visited.size() - level_begin; }
  };
  const int tracks = static_cast<int>(comp.tracks.size());
  const int relations = static_cast<int>(comp.relation_indices.size());
  Side fwd(tracks, relations, rq.graph->num_nodes());
  Side bwd(tracks, relations, rq.graph->num_nodes());

  // Forward config `f` and backward config `b` meet iff they sit on the
  // same nodes, no track has both ended (forward pad bit) and started
  // consuming backward (backward bit), and every relation's subsets
  // intersect (sorted two-pointer test over the shared pool's vectors).
  auto meets = [&](const ProductConfig& f, const ProductConfig& b) {
    if (f.nodes != b.nodes) return false;
    if ((f.padmask & b.padmask) != 0) return false;
    for (size_t i = 0; i < f.subset_ids.size(); ++i) {
      const std::vector<StateId>& s_fwd = pool.Get(f.subset_ids[i]);
      const std::vector<StateId>& s_bwd = pool.Get(b.subset_ids[i]);
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

  bool found = false;
  uint64_t meet_checks = 0;
  ProductConfig other_config;  // unpack target for meet-table entries

  // Registers a config not yet seen on `side` (meet table, next frontier)
  // and probes it against the OPPOSITE side's meet table, which is frozen
  // while this side expands. The whole bucket is scanned — no early
  // break — so meet_checks depends only on the level's config set.
  auto discover = [&](Side& side, const ProductConfig& c, bool c_is_fwd,
                      const Side& other) {
    auto [id, inserted] = side.visited.FindOrInsert(c);
    if (!inserted) return;
    const uint64_t key = RowHash()(c.nodes);
    side.by_nodes[key].push_back(id);
    auto it = other.by_nodes.find(key);
    if (it == other.by_nodes.end()) return;
    for (int o : it->second) {
      ++meet_checks;
      other.visited.Get(o, &other_config);
      const ProductConfig& f = c_is_fwd ? c : other_config;
      const ProductConfig& b = c_is_fwd ? other_config : c;
      if (meets(f, b)) found = true;
    }
  };

  // Seed both sides; the forward init probing the backward init covers
  // the split-at-0 case (all-ε words: start == end anchors and every
  // relation accepting an initial state).
  discover(bwd, bwd_init, /*c_is_fwd=*/false, fwd);
  discover(fwd, fwd_init, /*c_is_fwd=*/true, bwd);

  Status status = Status::OK();
  ProductConfig current;
  while (status.ok() && !found && fwd.frontier() > 0 && bwd.frontier() > 0) {
    const bool step_fwd = fwd.frontier() <= bwd.frontier();
    Side& side = step_fwd ? fwd : bwd;
    const Side& other = step_fwd ? bwd : fwd;
    ComponentSearch& search = step_fwd ? fwd_search : bwd_search;
    const std::vector<NodeId>& anchors = step_fwd ? start_nodes : end_nodes;
    const size_t level_end = side.visited.size();
    for (size_t id = side.level_begin; id < level_end; ++id) {
      status = ChargeConfig(options, configs_budget, cancel);
      if (!status.ok()) break;
      side.visited.Get(id, &current);
      bool accepted = false;
      search.ProcessConfig(
          current, anchors, fixed, /*results=*/nullptr, &accepted,
          [&](const ProductConfig& next, const std::vector<Symbol>&) {
            discover(side, next, step_fwd, other);
          });
    }
    side.level_begin = level_end;
  }

  counters->frontier_expansions +=
      fwd_search.frontier_expansions() + bwd_search.frontier_expansions();
  counters->arcs_explored +=
      fwd_search.arcs_explored() + bwd_search.arcs_explored();
  counters->visited_configs += fwd.visited.size() + bwd.visited.size();
  counters->meet_checks += meet_checks;
  if (!status.ok()) return status;
  if (found && results != nullptr) results->Insert(assignment);
  return Status::OK();
}

// Runs the product searches of one overlay of bindings (`fixed`, or
// `fixed` plus one seed row) on `lane`, into the lane's rows: one
// meet-in-the-middle search when bidirectional (every endpoint is bound,
// so the overlay has a unique candidate assignment), else one search per
// anchor assignment.
Status ExpandOverlay(const ResolvedQuery& rq, const ComponentSpec& comp,
                     const EvalOptions& options, SearchDirection direction,
                     const std::vector<NodeId>& overlay, ExpandLane& lane,
                     ProductGraphSink* sink,
                     std::atomic<uint64_t>* configs_budget,
                     CancellationToken* cancel) {
  if (direction == SearchDirection::kBidirectional) {
    std::vector<NodeId> starts, ends;
    if (!DeriveAnchorNodes(rq, comp, overlay, /*from_side=*/true, &starts) ||
        !DeriveAnchorNodes(rq, comp, overlay, /*from_side=*/false, &ends)) {
      return Status::OK();
    }
    ++lane.start_assignments;
    return BidirectionalProductSearch(rq, comp, options, starts, ends,
                                      overlay, configs_budget, cancel,
                                      &lane.bidir, lane.rows());
  }
  ComponentSearch& search = lane.Search(
      rq, comp, options, direction == SearchDirection::kBackward);
  return EnumerateAndRun(rq, search, overlay, &lane.start_assignments,
                         lane.rows(), sink, configs_budget, cancel);
}

// Runs the ProductExpand searches of `items` independent overlays on
// `num_lanes` lanes: lanes claim morsels of items, and `run(i, lane)`
// runs item i's searches into the lane's rows (a lane reuses one search
// — warm subset pools and mask caches — across its items). The first
// failing item cancels the rest; one lane runs the items in order on the
// calling thread. At the barrier, lane rows append to `results` in lane
// order, counters sum into the operator entry, and the first hard lane
// error wins over the Cancelled echoes of the other lanes. Lanes that
// merely observed a tripped token record no status, so an externally
// killed run still reports Cancelled instead of an empty success.
Status MorselExpand(int num_lanes, size_t items, size_t arity,
                    CancellationToken* cancel, EvalStats& stats,
                    OperatorStats& op, RowBuffer* results,
                    const std::function<Status(size_t, ExpandLane&)>& run) {
  std::vector<ExpandLane> lanes;
  for (int i = 0; i < num_lanes; ++i) {
    lanes.emplace_back(arity, /*keep_rows=*/results != nullptr);
  }
  std::atomic<bool> failed{false};
  const size_t grain = std::max<size_t>(1, items / (num_lanes * 8));
  ParallelMorsels(
      num_lanes, items, grain, [&](size_t begin, size_t end, int lane_id) {
        ExpandLane& lane = lanes[lane_id];
        for (size_t i = begin; i < end; ++i) {
          if (failed.load(std::memory_order_relaxed) ||
              (cancel != nullptr && cancel->cancelled())) {
            return;
          }
          Status st = run(i, lane);
          if (!st.ok()) {
            lane.status = st;
            failed.store(true, std::memory_order_relaxed);
            if (cancel != nullptr) cancel->Cancel();
            return;
          }
        }
      });
  Status combined = Status::OK();
  for (ExpandLane& lane : lanes) {
    if (!lane.status.ok() &&
        (combined.ok() || (combined.code() == StatusCode::kCancelled &&
                           lane.status.code() != StatusCode::kCancelled))) {
      combined = lane.status;
    }
    stats.start_assignments += lane.start_assignments;
    op.meet_checks += lane.bidir.meet_checks;
    op.visited_configs += lane.bidir.visited_configs;
    op.frontier_expansions += lane.bidir.frontier_expansions;
    stats.arcs_explored += lane.bidir.arcs_explored;
    if (lane.search != nullptr) {
      op.visited_configs += lane.search->visited_configs();
      op.frontier_expansions += lane.search->frontier_expansions();
      stats.arcs_explored += lane.search->arcs_explored();
    }
    if (results != nullptr) results->Append(std::move(lane.results).TakeRows());
  }
  if (combined.ok() && cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(kCancelledMessage);
  }
  return combined;
}

// ReachabilityScan leaf: single path atom, all-unary languages. One
// BFS per anchor over the compiled query's scan language for the atom's
// path (restricted to seeded sources/targets when available) instead of
// the subset-tracking product search; the
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
                       RowBuffer* results) {
  const ResolvedAtom& atom = rq.atoms[comp.atom_indices[0]];
  const std::optional<ScanLanguage>& language =
      rq.compiled->scan_languages[atom.path];
  ECRPQ_DCHECK(language.has_value());

  // Endpoint restrictions: constant > fixed > seeded column > all nodes.
  auto collect = [&](const ResolvedTerm& term, std::vector<NodeId>* out) {
    const NodeId bound = term.is_const ? term.node : fixed[term.var];
    if (bound >= 0) {
      out->push_back(bound);
      return true;
    }
    int seed_col = (seeds != nullptr && !term.is_const)
                       ? seeds->ColumnOf(term.var)
                       : -1;
    if (seed_col < 0) return false;
    for (std::span<const NodeId> row : seeds->rows) {
      out->push_back(row[seed_col]);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
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
  // Lanes split the per-anchor BFSes; pairwise meet probes run serially.
  const std::vector<NodeId>* anchors =
      direction == SearchDirection::kBackward ? target_ptr : source_ptr;
  const size_t num_anchors =
      anchors != nullptr ? anchors->size() : rq.graph->num_nodes();
  op.threads = direction == SearchDirection::kBidirectional
                   ? 1
                   : static_cast<int>(std::clamp<size_t>(
                         num_anchors, 1, static_cast<size_t>(num_threads)));

  ReachabilityScanStats scan_stats;
  uint64_t meet_checks = 0;
  RowBuffer pairs = ReachabilityPairsDirected(
      *rq.graph, *language, *rq.index, source_ptr, target_ptr, direction,
      &scan_stats, &meet_checks, num_threads, cancel);
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(kCancelledMessage);
  }
  op.frontier_expansions += scan_stats.frontier_expansions;
  op.visited_configs += scan_stats.visited_states;
  op.meet_checks += meet_checks;
  stats.arcs_explored += scan_stats.frontier_expansions;
  stats.start_assignments += direction == SearchDirection::kBidirectional
                                 ? sources.size() * targets.size()
                                 : num_anchors;
  // With two free, unfixed, unseeded variables the pairs are the rows.
  if (comp.vars.size() == 2 && fixed[comp.vars[0]] < 0 &&
      fixed[comp.vars[1]] < 0 && seeds == nullptr && results->empty()) {
    *results = std::move(pairs);
    return Status::OK();
  }
  // Else each pair binds the atom's variables over `fixed`. It is kept
  // when it agrees with the constants, the fixed bindings and (seeded)
  // some seed row; its row is the binding read at comp.vars. Only the
  // atom's two variables are ever written, so `binding` is `fixed`
  // elsewhere.
  std::vector<NodeId> key(seeds != nullptr ? seeds->vars.size() : 0);
  PackedRowSet seed_set(key.size());
  if (seeds != nullptr) {
    for (std::span<const NodeId> row : seeds->rows) seed_set.Insert(row);
  }
  std::vector<NodeId> binding = fixed;
  for (std::span<const NodeId> pair : pairs) {
    const NodeId u = pair[0], v = pair[1];
    if (atom.from.is_const && u != atom.from.node) continue;
    if (atom.to.is_const && v != atom.to.node) continue;
    if (!atom.from.is_const) {
      if (fixed[atom.from.var] >= 0 && fixed[atom.from.var] != u) continue;
      binding[atom.from.var] = u;
    }
    if (!atom.to.is_const) {
      const NodeId prior =
          !atom.from.is_const && atom.to.var == atom.from.var
              ? u
              : fixed[atom.to.var];
      if (prior >= 0 && prior != v) continue;
      binding[atom.to.var] = v;
    }
    if (seeds != nullptr) {
      for (size_t k = 0; k < key.size(); ++k) {
        key[k] = binding[seeds->vars[k]];
      }
      if (!seed_set.Contains(key)) continue;
    }
    std::span<NodeId> row = results->Append();
    for (size_t k = 0; k < row.size(); ++k) row[k] = binding[comp.vars[k]];
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
  // A bidirectional run pays per-search setup (two searches, two visited
  // tables, meet tables), and the seeded form replays one run PER ROW;
  // with a large seed table those constants dominate the tiny per-row
  // searches, so degrade to the warm per-lane forward machinery (the ProductExpand mirror of ScanComponentOp's
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
                          EvalStats& stats, RowBuffer* results,
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
  const bool scan = results != nullptr && graph_sink == nullptr &&
                    IsReachabilityScanComponent(rq, comp);

  // Lanes split independent product searches: seed rows, or the node
  // list of the first anchor variable no overlay binds. One overlay
  // whose anchors are all bound (or a bidirectional one, which is fully
  // anchored) is a single search and runs on one lane.
  const bool seeded = seeds != nullptr && !seeds->vars.empty();
  const bool seed_rows_split = seeded && seeds->rows.size() >= 2;
  std::vector<NodeId> overlay = fixed;
  int first_unbound = -1;
  if (!scan && lanes > 1 && !seed_rows_split) {
    const bool feasible = !seeded || (!seeds->rows.empty() &&
                                      OverlaySeedRow(*seeds, 0, &overlay));
    if (feasible && dir != SearchDirection::kBidirectional) {
      const std::vector<int>& anchor_vars =
          dir == SearchDirection::kBackward ? comp.end_vars : comp.start_vars;
      for (int v : anchor_vars) {
        if (overlay[v] < 0) {
          first_unbound = v;
          break;
        }
      }
    }
    if (first_unbound < 0) lanes = 1;
  }

  // One cancellation token per operator run: the caller's (so external
  // kills and sink early-termination fan out to every lane), or a local
  // one so lane errors still cancel their siblings.
  CancellationToken local_cancel;
  CancellationToken* cancel = options.cancellation.get();
  if (cancel == nullptr && lanes > 1) cancel = &local_cancel;

  // The execution-wide popped-configuration budget: seeded from the
  // product configurations counted so far, written back after.
  std::atomic<uint64_t> configs_budget{stats.configs_explored};

  Status status;
  if (scan) {
    op.op = "ReachabilityScan";
    status = ScanComponentOp(rq, comp, fixed, seeds, dir, lanes, cancel,
                             stats, op, results);
  } else {
    op.op = "ProductExpand";
    op.direction = SearchDirectionName(dir);
    if (first_unbound >= 0) {
      // Lanes pin the first unbound anchor variable (start vars forward,
      // end vars backward) to morsels of the degree-ordered node list
      // (in-degree-descending backward), each enumerating any remaining
      // anchor variables per pin.
      const bool backward = dir == SearchDirection::kBackward;
      const std::vector<NodeId>& order = backward
                                             ? rq.index->NodesByInDegree()
                                             : rq.index->NodesByDegree();
      op.threads = std::min(lanes, rq.graph->num_nodes());
      status = MorselExpand(
          lanes, order.size(), comp.vars.size(), cancel, stats, op, results,
          [&](size_t i, ExpandLane& lane) {
            std::vector<NodeId> pinned = overlay;
            pinned[first_unbound] = order[i];
            return EnumerateAndRun(
                rq, lane.Search(rq, comp, options, backward), pinned,
                &lane.start_assignments, lane.rows(), /*sink=*/nullptr,
                &configs_budget, cancel);
          });
    } else {
      // One overlay per seed row (lanes split the rows), or `fixed`
      // alone.
      const size_t items = seeded ? seeds->rows.size() : 1;
      op.threads = static_cast<int>(
          std::max<size_t>(1, std::min<size_t>(lanes, items)));
      status = MorselExpand(
          lanes, items, comp.vars.size(), cancel, stats, op, results,
          [&](size_t r, ExpandLane& lane) {
            std::vector<NodeId> row_overlay = fixed;
            if (seeded && !OverlaySeedRow(*seeds, r, &row_overlay)) {
              return Status::OK();
            }
            return ExpandOverlay(rq, comp, options, dir, row_overlay, lane,
                                 graph_sink, &configs_budget, cancel);
          });
    }
  }

  stats.configs_explored =
      std::max(stats.configs_explored,
               configs_budget.load(std::memory_order_relaxed));
  if (results != nullptr) {
    results->SortUnique();
    op.rows_out = results->size() - before;
  }
  if (graph_sink != nullptr) op.rows_out = graph_sink->configs.size();
  stats.operators.push_back(std::move(op));
  return status;
}

namespace {

// FNV-1a over selected columns of a row, mixed so that its low bits pick
// the bucket. Hashes the key in place instead of materializing a key
// vector per row.
uint64_t KeyHash(std::span<const NodeId> row, const std::vector<int>& cols) {
  uint64_t h = 1469598103934665603ULL;
  for (int c : cols) {
    h ^= static_cast<uint32_t>(row[c]);
    h *= 1099511628211ULL;
  }
  return MixHash64(h);
}

bool KeysEqual(std::span<const NodeId> a, const std::vector<int>& a_cols,
               std::span<const NodeId> b, const std::vector<int>& b_cols) {
  for (size_t k = 0; k < a_cols.size(); ++k) {
    if (a[a_cols[k]] != b[b_cols[k]]) return false;
  }
  return true;
}

// The hash index every join builds over its build side: a power-of-two
// `head_` array of at least 2 buckets per row, a `next_` link per row
// and each row's key hash. Rows are linked from last to first, so every
// bucket lists its row ids in ascending order, and a probe yields the
// matching rows in build-row order.
class JoinIndex {
 public:
  JoinIndex(const RowBuffer& rows, const std::vector<int>& key_cols)
      : rows_(&rows),
        key_cols_(key_cols),
        head_(std::bit_ceil(std::max<size_t>(2 * rows.size(), 2)), kNone),
        next_(rows.size()),
        hash_(rows.size()) {
    const size_t mask = head_.size() - 1;
    for (size_t r = rows.size(); r-- > 0;) {
      hash_[r] = KeyHash(rows[r], key_cols_);
      uint32_t& head = head_[hash_[r] & mask];
      next_[r] = head;
      head = static_cast<uint32_t>(r);
    }
  }

  // Calls `fn(row id)` for every indexed row whose key equals the
  // `probe_cols` of `probe`, in ascending row order, until `fn` returns
  // false. Returns false when `fn` stopped the walk.
  template <typename Fn>
  bool ForEachMatch(std::span<const NodeId> probe,
                    const std::vector<int>& probe_cols, Fn&& fn) const {
    const uint64_t h = KeyHash(probe, probe_cols);
    for (uint32_t r = head_[h & (head_.size() - 1)]; r != kNone;
         r = next_[r]) {
      if (hash_[r] != h ||
          !KeysEqual(probe, probe_cols, (*rows_)[r], key_cols_)) {
        continue;
      }
      if (!fn(r)) return false;
    }
    return true;
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  const RowBuffer* rows_;
  std::vector<int> key_cols_;
  std::vector<uint32_t> head_;  // first row id per bucket, or kNone
  std::vector<uint32_t> next_;  // next row id in the same bucket
  std::vector<uint64_t> hash_;  // key hash per row
};

}  // namespace

BindingTable HashJoinOp(const BindingTable& left, const BindingTable& right,
                        const std::vector<int>& project, EvalStats& stats) {
  OperatorStats op;
  op.op = "HashJoin";
  op.rows_in = left.rows.size() + right.rows.size();

  // Key columns: the variables both sides bind.
  std::vector<int> left_cols, right_cols;
  for (size_t rc = 0; rc < right.vars.size(); ++rc) {
    const int lc = left.ColumnOf(right.vars[rc]);
    if (lc < 0) continue;
    left_cols.push_back(lc);
    right_cols.push_back(static_cast<int>(rc));
    op.detail += (op.detail.empty() ? "on" : ",");
    op.detail += " v" + std::to_string(right.vars[rc]);
  }
  if (left_cols.empty()) op.detail = "cross";

  // Each output column reads the left row when the left side binds it,
  // else the matched right row.
  std::vector<std::pair<bool, int>> sources;  // (from left, column)
  op.detail += ", project onto";
  for (int v : project) {
    const int lc = left.ColumnOf(v);
    sources.emplace_back(lc >= 0, lc >= 0 ? lc : right.ColumnOf(v));
    op.detail += " v" + std::to_string(v);
  }

  // Probe in left-row order, each row's matches by ascending right row
  // id, and keep the distinct projected rows in that order without
  // materializing the joined rows.
  const JoinIndex index(right.rows, right_cols);
  op.build_rows = right.rows.size();
  op.probe_rows = left.rows.size();
  PackedRowSet distinct(sources.size());
  std::vector<NodeId> candidate(sources.size());
  for (std::span<const NodeId> lrow : left.rows) {
    index.ForEachMatch(lrow, left_cols, [&](uint32_t r) {
      ++stats.join_tuples;
      std::span<const NodeId> rrow = right.rows[r];
      for (size_t k = 0; k < sources.size(); ++k) {
        const auto& [from_left, col] = sources[k];
        candidate[k] = from_left ? lrow[col] : rrow[col];
      }
      distinct.Insert(candidate);
      return true;
    });
  }
  BindingTable out(project);
  out.rows = std::move(distinct).TakeRows();

  op.rows_out = out.rows.size();
  stats.operators.push_back(std::move(op));
  return out;
}

void StreamJoinOp(const std::vector<BindingTable>& tables, size_t num_vars,
                  EvalStats& stats, const CancellationToken* cancel,
                  const std::function<bool(const std::vector<NodeId>&)>& emit) {
  OperatorStats op;
  op.op = "HashJoin";
  op.detail = "streamed over " + std::to_string(tables.size()) + " tables";

  // Per table: the variables bound by earlier tables (its probe key, read
  // from the binding) with their columns here, and the columns it binds.
  const size_t n = tables.size();
  std::vector<std::vector<int>> key_vars(n), key_cols(n), bind_cols(n);
  std::vector<bool> bound(num_vars, false);
  for (size_t k = 0; k < n; ++k) {
    const BindingTable& t = tables[k];
    op.rows_in += t.rows.size();
    for (size_t c = 0; c < t.vars.size(); ++c) {
      if (bound[t.vars[c]]) {
        key_vars[k].push_back(t.vars[c]);
        key_cols[k].push_back(static_cast<int>(c));
      } else {
        bind_cols[k].push_back(static_cast<int>(c));
      }
    }
    for (int v : t.vars) bound[v] = true;
  }
  std::vector<JoinIndex> indexes;
  indexes.reserve(n);
  for (size_t k = 1; k < n; ++k) {
    indexes.emplace_back(tables[k].rows, key_cols[k]);
    op.build_rows += tables[k].rows.size();
  }

  // Depth-first probe. A level overwrites the variables it binds for
  // every row it tries, so nothing needs unbinding on the way back.
  std::vector<NodeId> binding(num_vars, -1);
  auto extend = [&](auto& self, size_t k) -> bool {  // false: stop
    if (cancel != nullptr && cancel->cancelled()) return false;
    if (k == n) {
      ++stats.join_tuples;
      ++op.rows_out;
      return emit(binding);
    }
    const BindingTable& t = tables[k];
    auto descend = [&](uint32_t r) {
      std::span<const NodeId> row = t.rows[r];
      for (int c : bind_cols[k]) binding[t.vars[c]] = row[c];
      return self(self, k + 1);
    };
    if (k == 0) {
      for (size_t r = 0; r < t.rows.size(); ++r) {
        if (!descend(static_cast<uint32_t>(r))) return false;
      }
      return true;
    }
    ++op.probe_rows;
    return indexes[k - 1].ForEachMatch(binding, key_vars[k], descend);
  };
  extend(extend, 0);
  stats.operators.push_back(std::move(op));
}

bool SemiJoinFilterOp(BindingTable* target, const BindingTable& filter,
                      EvalStats& stats) {
  std::vector<int> target_cols, filter_cols;
  for (size_t fc = 0; fc < filter.vars.size(); ++fc) {
    const int tc = target->ColumnOf(filter.vars[fc]);
    if (tc < 0) continue;
    target_cols.push_back(tc);
    filter_cols.push_back(static_cast<int>(fc));
  }
  if (target_cols.empty()) return false;

  OperatorStats op;
  op.op = "SemiJoinFilter";
  op.rows_in = target->rows.size();
  for (int tc : target_cols) {
    op.detail += (op.detail.empty() ? "on v" : ",v") +
                 std::to_string(target->vars[tc]);
  }

  // Keep the matched rows, in order. Stopping at the first match makes
  // ForEachMatch return false.
  const JoinIndex index(filter.rows, filter_cols);
  op.build_rows = filter.rows.size();
  op.probe_rows = target->rows.size();
  RowBuffer kept(target->rows.arity());
  for (std::span<const NodeId> row : target->rows) {
    if (!index.ForEachMatch(row, target_cols, [](uint32_t) { return false; })) {
      kept.push_back(row);
    }
  }
  const bool shrank = kept.size() < target->rows.size();
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
