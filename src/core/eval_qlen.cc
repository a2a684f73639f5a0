#include "core/eval_qlen.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "automata/operations.h"
#include "automata/unary.h"
#include "core/eval_product.h"
#include "query/builder.h"
#include "relations/builtin.h"

namespace ecrpq {

namespace {

// Distinct successors of `v` with labels ignored (ascending): the unary
// abstraction of a node's out-neighbourhood, shared by the product
// fallback's graph construction and the arithmetic path's skeleton NFA.
void DistinctSuccessors(const GraphIndex& index, NodeId v,
                        std::vector<NodeId>* targets) {
  const std::span<const NodeId> out = index.OutTargets(v);
  targets->assign(out.begin(), out.end());
  std::sort(targets->begin(), targets->end());
  targets->erase(std::unique(targets->begin(), targets->end()),
                 targets->end());
}

// Relabels a length-abstracted relation onto a one-letter base alphabet:
// every non-pad component becomes letter 0. Used by the product-based
// fallback for non-equal-length length relations.
RegularRelation RelabelToUnary(const RegularRelation& rel) {
  const TupleAlphabet& src_ta = rel.tuple_alphabet();
  TupleAlphabet dst_ta(1, rel.arity());
  const Nfa& src = rel.nfa();
  Nfa out(dst_ta.num_symbols());
  out.AddStates(src.num_states());
  for (StateId s = 0; s < src.num_states(); ++s) {
    if (src.IsInitial(s)) out.SetInitial(s);
    if (src.IsAccepting(s)) out.SetAccepting(s);
    std::vector<std::pair<Symbol, StateId>> seen;
    for (const Nfa::Arc& arc : src.ArcsFrom(s)) {
      if (arc.first == kEpsilon) {
        out.AddTransition(s, kEpsilon, arc.second);
        continue;
      }
      TupleLetter letter = src_ta.Decode(arc.first);
      for (Symbol& c : letter) {
        if (c != kPad) c = 0;
      }
      Symbol id = dst_ta.Encode(letter);
      std::pair<Symbol, StateId> key{id, arc.second};
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      out.AddTransition(s, id, arc.second);
    }
  }
  return RegularRelation(1, rel.arity(), std::move(out),
                         /*trusted_valid=*/true);
}

// True iff the relation's length abstraction is exactly "all components
// have equal length" (the el-like class the arithmetic fast path handles).
bool IsEqualLengthLike(const RegularRelation& rel) {
  constexpr int kCutoffStates = 128;
  if (rel.nfa().num_states() > kCutoffStates) return false;
  RegularRelation abstracted = rel.LengthAbstraction();
  RegularRelation el = AllEqualLengthRelation(rel.base_size(), rel.arity());
  return IsSubsetOf(abstracted.nfa(), el.nfa()) &&
         IsSubsetOf(el.nfa(), abstracted.nfa());
}

// Product-based fallback (general length relations): erase edge labels and
// replace every relation by its unary-relabeled length abstraction, then
// run the product engine.
Status EvaluateQlenProduct(const GraphDb& graph, const GraphIndex& index,
                           const Query& query, const EvalOptions& options,
                           ResultSink& sink, EvalStats& stats) {
  auto unary_alphabet = Alphabet::FromLabels({"."});
  GraphDb named_unary(unary_alphabet);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    named_unary.AddNode(graph.NodeName(v));
  }
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    DistinctSuccessors(index, v, &targets);
    for (NodeId to : targets) named_unary.AddEdge(v, Symbol{0}, to);
  }

  QueryBuilder builder;
  for (const PathAtom& atom : query.path_atoms()) {
    builder.Atom(atom.from, atom.path, atom.to);
  }
  for (const RelationAtom& atom : query.relation_atoms()) {
    auto abstracted = std::make_shared<RegularRelation>(
        RelabelToUnary(atom.relation->LengthAbstraction()));
    builder.Relation(std::move(abstracted), atom.paths, atom.name + "_len");
  }
  std::vector<std::string> head_nodes;
  for (const NodeTerm& term : query.head_nodes()) {
    head_nodes.push_back(term.name);
  }
  builder.Head(std::move(head_nodes), {});
  auto qlen_query = builder.Build();
  if (!qlen_query.ok()) return qlen_query.status();

  Status st =
      EvaluateProduct(named_unary, qlen_query.value(), options, sink, stats);
  stats.engine = "qlen-product";
  if (options.cancellation != nullptr &&
      options.cancellation->cancelled()) {
    return Status::Cancelled("query execution cancelled");
  }

  return st;
}

// Reusable unary length skeleton of a graph: states are the graph nodes,
// one unlabeled arc per distinct (source, target) successor pair, built
// once. The pinned-assignment loop of the arithmetic fast path previously
// rebuilt the full labeled graph NFA (O(V + E)) for every atom of every
// assignment only to erase its labels again; this view swaps the endpoint
// flags in O(|starts| + |ends|) and shares the transition structure.
class UnaryGraphView {
 public:
  explicit UnaryGraphView(const GraphIndex& index) : nfa_(1) {
    nfa_.AddStates(index.num_nodes());
    std::vector<NodeId> targets;
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      DistinctSuccessors(index, v, &targets);
      for (NodeId to : targets) nfa_.AddTransition(v, 0, to);
    }
  }

  /// The skeleton with exactly `starts` initial and `ends` accepting.
  const Nfa& WithEndpoints(const std::vector<NodeId>& starts,
                           const std::vector<NodeId>& ends) {
    for (NodeId v : flagged_initial_) nfa_.SetInitial(v, false);
    for (NodeId v : flagged_accepting_) nfa_.SetAccepting(v, false);
    flagged_initial_ = starts;
    flagged_accepting_ = ends;
    for (NodeId v : starts) nfa_.SetInitial(v);
    for (NodeId v : ends) nfa_.SetAccepting(v);
    return nfa_;
  }

 private:
  Nfa nfa_;
  std::vector<NodeId> flagged_initial_, flagged_accepting_;
};

// Union-find over track (path-variable) indices.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Merge(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

Status EvaluateQlen(const GraphDb& graph, const Query& query,
                    const EvalOptions& options, ResultSink& sink,
                    EvalStats& stats, CompiledQueryPtr compiled,
                    GraphIndexPtr index) {
  if (!query.head_paths().empty()) {
    return Status::Unimplemented(
        "Q_len abstracts paths to lengths; path outputs are undefined "
        "under the abstraction");
  }
  if (!query.linear_atoms().empty()) {
    return Status::FailedPrecondition(
        "linear atoms belong to the counting engine, not Q_len");
  }

  auto resolved_or = ResolveQuery(graph, query, std::move(compiled));
  if (!resolved_or.ok()) return resolved_or.status();
  ResolvedQuery& rq = resolved_or.value();
  if (index == nullptr) index = GraphIndex::Build(graph);

  // Arithmetic fast path (the progression machinery of Claim 6.7.1/2):
  // applicable when every >=2-ary relation abstracts to equal-length.
  for (const ResolvedRelation& rel : rq.relations()) {
    if (rel.relation->arity() >= 2 && !IsEqualLengthLike(*rel.relation)) {
      return EvaluateQlenProduct(graph, *index, query, options, sink, stats);
    }
  }

  stats.engine = "qlen";
  if (options.cancellation != nullptr &&
      options.cancellation->cancelled()) {
    return Status::Cancelled("query execution cancelled");
  }

  UnaryGraphView length_view(*index);

  const int num_tracks = static_cast<int>(query.path_variables().size());
  const int num_vars = static_cast<int>(query.node_variables().size());

  // Length-equality classes over tracks.
  UnionFind classes(num_tracks);
  for (const ResolvedRelation& rel : rq.relations()) {
    if (rel.relation->arity() < 2) continue;
    for (size_t i = 1; i < rel.paths.size(); ++i) {
      classes.Merge(rel.paths[0], rel.paths[i]);
    }
  }

  // Per-track unary language length automata (lengths of words in L).
  std::vector<std::vector<Nfa>> track_length_langs(num_tracks);
  for (const ResolvedRelation& rel : rq.relations()) {
    if (rel.relation->arity() != 1) continue;
    auto lang = rel.relation->ToLanguageNfa();
    if (!lang.ok()) return lang.status();
    track_length_langs[rel.paths[0]].push_back(
        LengthAutomaton(lang.value()));
  }

  // Pinned variables: head vars plus vars with >= 2 endpoint occurrences.
  std::vector<int> occurrences(num_vars, 0);
  for (const ResolvedAtom& atom : rq.atoms) {
    if (!atom.from.is_const) ++occurrences[atom.from.var];
    if (!atom.to.is_const) ++occurrences[atom.to.var];
  }
  std::vector<bool> pinned(num_vars, false);
  for (const NodeTerm& term : query.head_nodes()) {
    pinned[query.NodeVarIndex(term.name)] = true;
  }
  for (int v = 0; v < num_vars; ++v) {
    if (occurrences[v] >= 2) pinned[v] = true;
  }
  // Repeated path variables bind one path to several endpoint pairs; the
  // per-atom intersection below is only exact when those endpoints are
  // concrete, so pin all of them.
  for (const auto& atoms : query.atoms_of_path()) {
    if (atoms.size() < 2) continue;
    for (int idx : atoms) {
      if (!rq.atoms[idx].from.is_const) pinned[rq.atoms[idx].from.var] = true;
      if (!rq.atoms[idx].to.is_const) pinned[rq.atoms[idx].to.var] = true;
    }
  }
  std::vector<int> pinned_vars;
  for (int v = 0; v < num_vars; ++v) {
    if (pinned[v]) pinned_vars.push_back(v);
  }

  // Evaluate one pinned assignment: per class, intersect member tracks'
  // length sets; unpinned endpoints union over all nodes (sound because
  // they occur nowhere else).
  HeadTupleEmitter emitter(rq, options, sink);
  std::vector<NodeId> binding(num_vars, -1);

  auto endpoint_states = [&](const ResolvedTerm& term,
                             std::vector<NodeId>* out) {
    if (term.is_const) {
      out->push_back(term.node);
    } else if (binding[term.var] >= 0) {
      out->push_back(binding[term.var]);
    } else {
      for (NodeId v = 0; v < graph.num_nodes(); ++v) out->push_back(v);
    }
  };

  auto check_assignment = [&]() -> bool {
    // Group tracks by class representative.
    std::map<int, std::vector<int>> members;
    for (int t = 0; t < num_tracks; ++t) {
      members[classes.Find(t)].push_back(t);
    }
    for (const auto& [rep, tracks] : members) {
      (void)rep;
      std::optional<SemilinearSet1D> class_set;
      for (int t : tracks) {
        // Track automaton: graph as a unary NFA between the track's
        // endpoint candidates; repeated path variables intersect by
        // running each atom's endpoints as separate automata.
        std::optional<SemilinearSet1D> track_set;
        for (size_t a = 0; a < rq.atoms.size(); ++a) {
          if (rq.atoms[a].path != t) continue;
          std::vector<NodeId> starts, ends;
          endpoint_states(rq.atoms[a].from, &starts);
          endpoint_states(rq.atoms[a].to, &ends);
          // Shared unary skeleton; only the endpoint flags change per
          // assignment (lengths ignore labels, so nothing else does).
          const Nfa& base = length_view.WithEndpoints(starts, ends);
          SemilinearSet1D lengths;
          if (track_length_langs[t].empty()) {
            lengths = AcceptedLengths(base);
          } else {
            Nfa nfa = IntersectNfa(base, track_length_langs[t][0]);
            for (size_t li = 1; li < track_length_langs[t].size(); ++li) {
              nfa = IntersectNfa(nfa, track_length_langs[t][li]);
            }
            lengths = AcceptedLengths(nfa);
          }
          track_set = track_set.has_value()
                          ? IntersectSemilinear(*track_set, lengths)
                          : lengths;
        }
        if (!track_set.has_value()) continue;  // unused track: impossible
        class_set = class_set.has_value()
                        ? IntersectSemilinear(*class_set, *track_set)
                        : *track_set;
        if (class_set->IsEmpty()) return false;
      }
      if (class_set.has_value() && class_set->IsEmpty()) return false;
    }
    return true;
  };

  // The plan's LinearConstraintCheck operator in its length-abstraction
  // form: one arithmetic-progression feasibility check per assignment.
  OperatorStats check_op;
  check_op.op = "LinearConstraintCheck";
  check_op.detail = "length abstraction";

  bool stop = false;
  std::function<void(size_t)> enumerate = [&](size_t i) {
    if (stop) return;
    if (i == pinned_vars.size()) {
      ++stats.start_assignments;
      ++check_op.rows_in;
      if (check_assignment()) {
        ++check_op.rows_out;
        std::vector<NodeId> head;
        for (const NodeTerm& term : query.head_nodes()) {
          head.push_back(binding[query.NodeVarIndex(term.name)]);
        }
        if (!emitter.Emit(head)) stop = true;
      }
      return;
    }
    int var = pinned_vars[i];
    for (NodeId v = 0; v < graph.num_nodes() && !stop; ++v) {
      binding[var] = v;
      enumerate(i + 1);
    }
    binding[var] = -1;
  };
  enumerate(0);
  stats.operators.push_back(std::move(check_op));
  return emitter.status();
}

Result<QueryResult> EvaluateQlen(const GraphDb& graph, const Query& query,
                                 const EvalOptions& options) {
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return EvaluateQlen(graph, query, options, sink, stats);
  });
}

SemilinearSet1D PathLengthSet(const GraphDb& graph, NodeId from, NodeId to,
                              const RegularRelation* language) {
  Nfa nfa = graph.ToNfa({from}, {to});
  if (language != nullptr) {
    ECRPQ_DCHECK(language->arity() == 1);
    auto lang_nfa = language->ToLanguageNfa();
    ECRPQ_DCHECK(lang_nfa.ok());
    nfa = IntersectNfa(nfa, lang_nfa.value());
  }
  return AcceptedLengths(nfa);
}

namespace {
// (a + bN) ∩ (c + dN) as a progression, or nullopt.
std::optional<Progression> IntersectProgressions(const Progression& p,
                                                 const Progression& q) {
  if (p.period == 0 && q.period == 0) {
    if (p.base == q.base) return p;
    return std::nullopt;
  }
  if (p.period == 0) {
    if (q.Contains(p.base)) return p;
    return std::nullopt;
  }
  if (q.period == 0) {
    if (p.Contains(q.base)) return q;
    return std::nullopt;
  }
  // Solve p.base + p.period*i == q.base + q.period*j, i,j >= 0.
  int64_t g = std::gcd(p.period, q.period);
  if ((q.base - p.base) % g != 0) return std::nullopt;
  int64_t lcm = p.period / g * q.period;
  // Find the smallest common value >= max(p.base, q.base) by stepping the
  // larger-based progression (bounded by lcm / step count).
  int64_t start = std::max(p.base, q.base);
  // Align start to p's progression.
  int64_t v = p.base + ((start - p.base + p.period - 1) / p.period) * p.period;
  for (int64_t step = 0; step <= lcm / p.period + 1; ++step) {
    if (q.Contains(v) && p.Contains(v)) return Progression{v, lcm};
    v += p.period;
  }
  return std::nullopt;
}
}  // namespace

SemilinearSet1D IntersectSemilinear(const SemilinearSet1D& a,
                                    const SemilinearSet1D& b) {
  SemilinearSet1D out;
  for (const Progression& p : a.progressions()) {
    for (const Progression& q : b.progressions()) {
      auto r = IntersectProgressions(p, q);
      if (r.has_value()) out.Add(*r);
    }
  }
  out.Normalize();
  return out;
}

}  // namespace ecrpq
