#include "core/eval_negation.h"

#include <algorithm>
#include <functional>
#include <set>

#include "automata/operations.h"

namespace ecrpq {

// ---------------------------------------------------------------------------
// Formula construction
// ---------------------------------------------------------------------------

namespace {
FormulaPtr Make(Formula&& f) {
  return std::make_shared<const Formula>(std::move(f));
}
}  // namespace

FormulaPtr Formula::PathAtom(std::string x, std::string pi, std::string y) {
  Formula f;
  f.kind_ = Kind::kPathAtom;
  f.name1_ = std::move(x);
  f.name2_ = std::move(pi);
  f.name3_ = std::move(y);
  return Make(std::move(f));
}
FormulaPtr Formula::NodeEq(std::string x, std::string y) {
  Formula f;
  f.kind_ = Kind::kNodeEq;
  f.name1_ = std::move(x);
  f.name2_ = std::move(y);
  return Make(std::move(f));
}
FormulaPtr Formula::PathEq(std::string pi1, std::string pi2) {
  Formula f;
  f.kind_ = Kind::kPathEq;
  f.name1_ = std::move(pi1);
  f.name2_ = std::move(pi2);
  return Make(std::move(f));
}
FormulaPtr Formula::Relation(std::shared_ptr<const RegularRelation> rel,
                             std::vector<std::string> paths) {
  Formula f;
  f.kind_ = Kind::kRelation;
  f.relation_ = std::move(rel);
  f.paths_ = std::move(paths);
  return Make(std::move(f));
}
FormulaPtr Formula::Not(FormulaPtr sub) {
  Formula f;
  f.kind_ = Kind::kNot;
  f.left_ = std::move(sub);
  return Make(std::move(f));
}
FormulaPtr Formula::And(FormulaPtr a, FormulaPtr b) {
  Formula f;
  f.kind_ = Kind::kAnd;
  f.left_ = std::move(a);
  f.right_ = std::move(b);
  return Make(std::move(f));
}
FormulaPtr Formula::Or(FormulaPtr a, FormulaPtr b) {
  Formula f;
  f.kind_ = Kind::kOr;
  f.left_ = std::move(a);
  f.right_ = std::move(b);
  return Make(std::move(f));
}
FormulaPtr Formula::ExistsNode(std::string x, FormulaPtr sub) {
  Formula f;
  f.kind_ = Kind::kExistsNode;
  f.name1_ = std::move(x);
  f.left_ = std::move(sub);
  return Make(std::move(f));
}
FormulaPtr Formula::ExistsPath(std::string pi, FormulaPtr sub) {
  Formula f;
  f.kind_ = Kind::kExistsPath;
  f.name1_ = std::move(pi);
  f.left_ = std::move(sub);
  return Make(std::move(f));
}
FormulaPtr Formula::ForallNode(std::string x, FormulaPtr f) {
  return Not(ExistsNode(std::move(x), Not(std::move(f))));
}
FormulaPtr Formula::ForallPath(std::string pi, FormulaPtr f) {
  return Not(ExistsPath(std::move(pi), Not(std::move(f))));
}

namespace {
void CollectFree(const Formula& f, std::set<std::string>* nodes,
                 std::set<std::string>* paths) {
  switch (f.kind()) {
    case Formula::Kind::kPathAtom:
      nodes->insert(f.name1());
      nodes->insert(f.name3());
      paths->insert(f.name2());
      return;
    case Formula::Kind::kNodeEq:
      nodes->insert(f.name1());
      nodes->insert(f.name2());
      return;
    case Formula::Kind::kPathEq:
      paths->insert(f.name1());
      paths->insert(f.name2());
      return;
    case Formula::Kind::kRelation:
      for (const std::string& p : f.paths()) paths->insert(p);
      return;
    case Formula::Kind::kNot:
      CollectFree(*f.left(), nodes, paths);
      return;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
      CollectFree(*f.left(), nodes, paths);
      CollectFree(*f.right(), nodes, paths);
      return;
    case Formula::Kind::kExistsNode: {
      std::set<std::string> n2, p2;
      CollectFree(*f.left(), &n2, &p2);
      n2.erase(f.name1());
      nodes->insert(n2.begin(), n2.end());
      paths->insert(p2.begin(), p2.end());
      return;
    }
    case Formula::Kind::kExistsPath: {
      std::set<std::string> n2, p2;
      CollectFree(*f.left(), &n2, &p2);
      p2.erase(f.name1());
      nodes->insert(n2.begin(), n2.end());
      paths->insert(p2.begin(), p2.end());
      return;
    }
  }
}
}  // namespace

std::vector<std::string> Formula::FreeNodeVars() const {
  std::set<std::string> nodes, paths;
  CollectFree(*this, &nodes, &paths);
  return {nodes.begin(), nodes.end()};
}
std::vector<std::string> Formula::FreePathVars() const {
  std::set<std::string> nodes, paths;
  CollectFree(*this, &nodes, &paths);
  return {paths.begin(), paths.end()};
}

std::string Formula::ToString() const {
  switch (kind_) {
    case Kind::kPathAtom:
      return "(" + name1_ + "," + name2_ + "," + name3_ + ")";
    case Kind::kNodeEq:
      return name1_ + "=" + name2_;
    case Kind::kPathEq:
      return name1_ + "=" + name2_;
    case Kind::kRelation: {
      std::string out = "R(";
      for (size_t i = 0; i < paths_.size(); ++i) {
        if (i > 0) out += ",";
        out += paths_[i];
      }
      return out + ")";
    }
    case Kind::kNot:
      return "¬(" + left_->ToString() + ")";
    case Kind::kAnd:
      return "(" + left_->ToString() + " ∧ " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " ∨ " + right_->ToString() + ")";
    case Kind::kExistsNode:
      return "∃" + name1_ + " " + left_->ToString();
    case Kind::kExistsPath:
      return "∃" + name1_ + " " + left_->ToString();
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Claim 8.1.3 evaluation
// ---------------------------------------------------------------------------

namespace {

// Representation-word symbol arithmetic for a track set of size k over a
// graph with n nodes and base alphabet Σ:
//   init symbols  [0, n^k):              node-tuple index
//   letter symbols n^k + L*n^k + N:      L in [0, (|Σ|+1)^k - 1), N in [0,n^k)
// (the all-pad letter id (|Σ|+1)^k - 1 is excluded).
class RepContext {
 public:
  RepContext(const GraphDb& graph, const GraphIndex& index, int k)
      : graph_(graph),
        index_(index),
        k_(k),
        ta_(graph.alphabet().size(), std::max(k, 1)),
        universe_(0) {
    node_pow_ = 1;
    for (int i = 0; i < k_; ++i) node_pow_ *= graph.num_nodes();
    num_letters_ = ta_.num_symbols() - 1;  // exclude all-pad
    num_symbols_ = node_pow_ * (1 + num_letters_);
    universe_ = BuildUniverse();
  }

  int num_symbols() const { return num_symbols_; }
  const Nfa& universe() const { return universe_; }
  int k() const { return k_; }

  int64_t EncodeNodes(const std::vector<NodeId>& nodes) const {
    int64_t idx = 0;
    for (int t = 0; t < k_; ++t) idx = idx * graph_.num_nodes() + nodes[t];
    return idx;
  }
  std::vector<NodeId> DecodeNodes(int64_t idx) const {
    std::vector<NodeId> nodes(k_);
    for (int t = k_ - 1; t >= 0; --t) {
      nodes[t] = static_cast<NodeId>(idx % graph_.num_nodes());
      idx /= graph_.num_nodes();
    }
    return nodes;
  }

  Symbol InitSymbol(const std::vector<NodeId>& nodes) const {
    return static_cast<Symbol>(EncodeNodes(nodes));
  }
  Symbol LetterSymbol(const TupleLetter& letter,
                      const std::vector<NodeId>& nodes) const {
    Symbol l = ta_.Encode(letter);
    ECRPQ_DCHECK(l != ta_.AllPadId());
    return static_cast<Symbol>(node_pow_ + static_cast<int64_t>(l) * node_pow_ +
                               EncodeNodes(nodes));
  }
  bool IsInit(Symbol s) const { return s < node_pow_; }
  std::vector<NodeId> NodesOf(Symbol s) const {
    return DecodeNodes(IsInit(s) ? s : (s - node_pow_) % node_pow_);
  }
  TupleLetter LetterOf(Symbol s) const {
    ECRPQ_DCHECK(!IsInit(s));
    return ta_.Decode(static_cast<Symbol>((s - node_pow_) / node_pow_));
  }

 private:
  // Universe: all valid representation words of k-tuples of paths in G.
  Nfa BuildUniverse() const {
    // States: 0 = start; then (node-tuple, padmask) -> 1 + idx*2^k + mask.
    const int masks = 1 << k_;
    Nfa nfa(num_symbols_);
    nfa.AddStates(1 + static_cast<int>(node_pow_) * masks);
    nfa.SetInitial(0);
    auto state_of = [&](int64_t nodes_idx, int mask) {
      return static_cast<StateId>(1 + nodes_idx * masks + mask);
    };
    for (int64_t idx = 0; idx < node_pow_; ++idx) {
      nfa.AddTransition(0, static_cast<Symbol>(idx), state_of(idx, 0));
      for (int mask = 0; mask < masks; ++mask) {
        nfa.SetAccepting(state_of(idx, mask));
      }
    }
    // Letter transitions.
    for (int64_t from_idx = 0; from_idx < node_pow_; ++from_idx) {
      std::vector<NodeId> from_nodes = DecodeNodes(from_idx);
      // Enumerate per-track moves: pad (stay) or an edge.
      std::vector<std::pair<Symbol, NodeId>> choices;  // flattened below
      std::vector<std::vector<std::pair<Symbol, NodeId>>> per_track(k_);
      for (int t = 0; t < k_; ++t) {
        per_track[t].push_back({kPad, from_nodes[t]});
        const std::span<const Symbol> labels = index_.OutLabels(from_nodes[t]);
        const std::span<const NodeId> targets =
            index_.OutTargets(from_nodes[t]);
        for (size_t i = 0; i < labels.size(); ++i) {
          per_track[t].push_back({labels[i], targets[i]});
        }
      }
      TupleLetter letter(k_);
      std::vector<NodeId> to_nodes(k_);
      std::function<void(int)> rec = [&](int t) {
        if (t == k_) {
          int pad_mask = 0;
          bool all_pad = true;
          for (int i = 0; i < k_; ++i) {
            if (letter[i] == kPad) {
              pad_mask |= 1 << i;
            } else {
              all_pad = false;
            }
          }
          if (all_pad) return;
          Symbol sym = LetterSymbol(letter, to_nodes);
          int64_t to_idx = EncodeNodes(to_nodes);
          for (int mask = 0; mask < masks; ++mask) {
            // Monotone pads: previously padded tracks must stay padded.
            if ((mask & pad_mask) != mask) continue;
            nfa.AddTransition(state_of(from_idx, mask), sym,
                              state_of(to_idx, pad_mask));
          }
          return;
        }
        for (const auto& [label, to] : per_track[t]) {
          letter[t] = label;
          to_nodes[t] = to;
          rec(t + 1);
        }
      };
      rec(0);
    }
    return nfa;
  }

  const GraphDb& graph_;
  const GraphIndex& index_;
  int k_;
  TupleAlphabet ta_;
  int64_t node_pow_;
  int num_letters_;
  int num_symbols_;
  Nfa universe_;
};

struct Rep {
  std::vector<std::string> tracks;  // sorted
  Nfa nfa;

  Rep() : nfa(0) {}
};

class NegationEvaluator {
 public:
  NegationEvaluator(const GraphDb& graph, NegationStats* stats)
      : graph_(graph), index_(GraphIndex::Build(graph)), stats_(stats) {}

  Result<bool> EvalBool(const Formula& f,
                        std::map<std::string, NodeId>* env) {
    switch (f.kind()) {
      case Formula::Kind::kNodeEq: {
        auto a = Lookup(f.name1(), *env);
        if (!a.ok()) return a.status();
        auto b = Lookup(f.name2(), *env);
        if (!b.ok()) return b.status();
        return a.value() == b.value();
      }
      case Formula::Kind::kNot: {
        auto sub = EvalBool(*f.left(), env);
        if (!sub.ok()) return sub;
        return !sub.value();
      }
      case Formula::Kind::kAnd: {
        auto a = EvalBool(*f.left(), env);
        if (!a.ok()) return a;
        if (!a.value()) return false;
        return EvalBool(*f.right(), env);
      }
      case Formula::Kind::kOr: {
        auto a = EvalBool(*f.left(), env);
        if (!a.ok()) return a;
        if (a.value()) return true;
        return EvalBool(*f.right(), env);
      }
      case Formula::Kind::kExistsNode: {
        for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
          (*env)[f.name1()] = v;
          auto sub = EvalBool(*f.left(), env);
          env->erase(f.name1());
          if (!sub.ok()) return sub;
          if (sub.value()) return true;
        }
        return false;
      }
      case Formula::Kind::kExistsPath: {
        if (graph_.num_nodes() == 0) return false;
        std::set<std::string> n2, p2;
        CollectFree(*f.left(), &n2, &p2);
        p2.erase("");
        if (p2.count(f.name1()) == 0) {
          // π unused; any graph with a node has the empty path.
          return EvalBool(*f.left(), env);
        }
        if (p2.size() == 1) {
          auto rep = EvalRep(*f.left(), env);
          if (!rep.ok()) return rep.status();
          return !IsEmpty(rep.value().nfa);
        }
        return Status::InvalidArgument(
            "EvalBool reached a formula with free path variables: " +
            f.ToString());
      }
      default:
        return Status::InvalidArgument(
            "sentence evaluation reached a formula with free path "
            "variables: " +
            f.ToString());
    }
  }

  Result<Rep> EvalRep(const Formula& f, std::map<std::string, NodeId>* env) {
    switch (f.kind()) {
      case Formula::Kind::kPathAtom:
        return RepPathAtom(f, *env);
      case Formula::Kind::kPathEq:
        return RepPathEq(f);
      case Formula::Kind::kRelation:
        return RepRelation(f);
      case Formula::Kind::kNot: {
        auto sub = EvalRep(*f.left(), env);
        if (!sub.ok()) return sub;
        return Complement(std::move(sub).value());
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr:
        return RepBinary(f, env);
      case Formula::Kind::kExistsNode: {
        Rep out;
        bool first = true;
        for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
          (*env)[f.name1()] = v;
          auto sub = EvalRep(*f.left(), env);
          env->erase(f.name1());
          if (!sub.ok()) return sub;
          if (first) {
            out = std::move(sub).value();
            first = false;
          } else {
            Rep rhs = std::move(sub).value();
            ECRPQ_DCHECK(rhs.tracks == out.tracks);
            out.nfa = UnionNfa(out.nfa, rhs.nfa);
          }
        }
        Note(out.nfa);
        return out;
      }
      case Formula::Kind::kExistsPath: {
        auto sub = EvalRep(*f.left(), env);
        if (!sub.ok()) return sub;
        Rep rep = std::move(sub).value();
        auto it = std::find(rep.tracks.begin(), rep.tracks.end(), f.name1());
        if (it == rep.tracks.end()) return rep;  // π unused
        return Project(std::move(rep),
                       static_cast<int>(it - rep.tracks.begin()));
      }
      case Formula::Kind::kNodeEq:
        return Status::InvalidArgument(
            "EvalRep on a formula without free path variables: " +
            f.ToString());
    }
    return Status::Internal("unreachable");
  }

  RepContext& GetContext(const std::vector<std::string>& tracks) {
    auto it = contexts_.find(tracks);
    if (it == contexts_.end()) {
      it = contexts_
               .emplace(tracks,
                        std::make_unique<RepContext>(
                            graph_, *index_, static_cast<int>(tracks.size())))
               .first;
    }
    return *it->second;
  }

  /// Representation word of a concrete path tuple (for membership tests).
  Word RepresentationWord(const RepContext& ctx, const PathTuple& paths) {
    const int k = ctx.k();
    size_t max_len = 0;
    for (const Path& p : paths) {
      max_len = std::max(max_len, static_cast<size_t>(p.length()));
    }
    Word word;
    std::vector<NodeId> nodes(k);
    for (int t = 0; t < k; ++t) nodes[t] = paths[t].start();
    word.push_back(ctx.InitSymbol(nodes));
    for (size_t i = 0; i < max_len; ++i) {
      TupleLetter letter(k);
      for (int t = 0; t < k; ++t) {
        if (i < static_cast<size_t>(paths[t].length())) {
          letter[t] = paths[t].steps()[i].first;
          nodes[t] = paths[t].steps()[i].second;
        } else {
          letter[t] = kPad;
        }
      }
      word.push_back(ctx.LetterSymbol(letter, nodes));
    }
    return word;
  }

 private:
  void Note(const Nfa& nfa) {
    if (stats_ == nullptr) return;
    ++stats_->automata_built;
    stats_->max_states =
        std::max<uint64_t>(stats_->max_states, nfa.num_states());
  }

  Result<NodeId> Lookup(const std::string& name,
                        const std::map<std::string, NodeId>& env) {
    auto it = env.find(name);
    if (it == env.end()) {
      return Status::InvalidArgument("unbound node variable '" + name + "'");
    }
    return it->second;
  }

  Result<Rep> RepPathAtom(const Formula& f,
                          const std::map<std::string, NodeId>& env) {
    auto from = Lookup(f.name1(), env);
    if (!from.ok()) return from.status();
    auto to = Lookup(f.name3(), env);
    if (!to.ok()) return to.status();
    Rep rep;
    rep.tracks = {f.name2()};
    RepContext& ctx = GetContext(rep.tracks);
    // States: 0 = start, 1 + v = "current node v".
    Nfa nfa(ctx.num_symbols());
    nfa.AddStates(1 + graph_.num_nodes());
    nfa.SetInitial(0);
    nfa.AddTransition(0, ctx.InitSymbol({from.value()}),
                      1 + from.value());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      const std::span<const Symbol> labels = index_->OutLabels(v);
      const std::span<const NodeId> targets = index_->OutTargets(v);
      for (size_t i = 0; i < labels.size(); ++i) {
        nfa.AddTransition(1 + v, ctx.LetterSymbol({labels[i]}, {targets[i]}),
                          1 + targets[i]);
      }
    }
    nfa.SetAccepting(1 + to.value());
    rep.nfa = std::move(nfa);
    Note(rep.nfa);
    return rep;
  }

  Result<Rep> RepPathEq(const Formula& f) {
    if (f.name1() == f.name2()) {
      Rep rep;
      rep.tracks = {f.name1()};
      rep.nfa = GetContext(rep.tracks).universe();
      return rep;
    }
    Rep rep;
    rep.tracks = {f.name1(), f.name2()};
    std::sort(rep.tracks.begin(), rep.tracks.end());
    RepContext& ctx = GetContext(rep.tracks);
    // Filter the universe to diagonal symbols.
    const Nfa& u = ctx.universe();
    Nfa nfa(ctx.num_symbols());
    nfa.AddStates(u.num_states());
    for (StateId s = 0; s < u.num_states(); ++s) {
      if (u.IsInitial(s)) nfa.SetInitial(s);
      if (u.IsAccepting(s)) nfa.SetAccepting(s);
      for (const Nfa::Arc& arc : u.ArcsFrom(s)) {
        std::vector<NodeId> nodes = ctx.NodesOf(arc.first);
        bool diag = (nodes[0] == nodes[1]);
        if (diag && !ctx.IsInit(arc.first)) {
          TupleLetter letter = ctx.LetterOf(arc.first);
          diag = (letter[0] == letter[1]);
        }
        if (diag) nfa.AddTransition(s, arc.first, arc.second);
      }
    }
    rep.nfa = Trim(nfa);
    Note(rep.nfa);
    return rep;
  }

  Result<Rep> RepRelation(const Formula& f) {
    const RegularRelation& rel = *f.relation();
    if (rel.base_size() != graph_.alphabet().size()) {
      return Status::InvalidArgument(
          "relation alphabet does not match the graph");
    }
    if (static_cast<int>(f.paths().size()) != rel.arity()) {
      return Status::InvalidArgument("relation arity mismatch");
    }
    Rep rep;
    std::set<std::string> distinct(f.paths().begin(), f.paths().end());
    rep.tracks = {distinct.begin(), distinct.end()};
    RepContext& ctx = GetContext(rep.tracks);
    // Tape t of the relation reads track index of f.paths()[t].
    std::vector<int> tape_track;
    for (const std::string& p : f.paths()) {
      auto it = std::find(rep.tracks.begin(), rep.tracks.end(), p);
      tape_track.push_back(static_cast<int>(it - rep.tracks.begin()));
    }
    const Nfa rel_nfa = RemoveEpsilons(rel.nfa());
    const TupleAlphabet& rel_ta = rel.tuple_alphabet();

    // Product of the universe with the relation automaton.
    const Nfa& u = ctx.universe();
    const int un = u.num_states();
    Nfa nfa(ctx.num_symbols());
    nfa.AddStates(un * rel_nfa.num_states());
    auto state_of = [&](StateId us, StateId rs) {
      return static_cast<StateId>(rs * un + us);
    };
    for (StateId us = 0; us < un; ++us) {
      for (StateId rs = 0; rs < rel_nfa.num_states(); ++rs) {
        if (u.IsInitial(us) && rel_nfa.IsInitial(rs)) {
          nfa.SetInitial(state_of(us, rs));
        }
        if (u.IsAccepting(us) && rel_nfa.IsAccepting(rs)) {
          nfa.SetAccepting(state_of(us, rs));
        }
      }
    }
    for (StateId us = 0; us < un; ++us) {
      for (const Nfa::Arc& arc : u.ArcsFrom(us)) {
        if (ctx.IsInit(arc.first)) {
          // Init symbols do not advance the relation.
          for (StateId rs = 0; rs < rel_nfa.num_states(); ++rs) {
            nfa.AddTransition(state_of(us, rs), arc.first,
                              state_of(arc.second, rs));
          }
          continue;
        }
        TupleLetter letter = ctx.LetterOf(arc.first);
        TupleLetter proj(tape_track.size());
        for (size_t tape = 0; tape < tape_track.size(); ++tape) {
          proj[tape] = letter[tape_track[tape]];
        }
        Symbol rel_letter = rel_ta.Encode(proj);
        for (StateId rs = 0; rs < rel_nfa.num_states(); ++rs) {
          for (const Nfa::Arc& rarc : rel_nfa.ArcsFrom(rs)) {
            if (rarc.first == rel_letter) {
              nfa.AddTransition(state_of(us, rs), arc.first,
                                state_of(arc.second, rarc.second));
            }
          }
        }
      }
    }
    rep.nfa = Trim(nfa);
    Note(rep.nfa);
    return rep;
  }

  Result<Rep> RepBinary(const Formula& f,
                        std::map<std::string, NodeId>* env) {
    std::set<std::string> ln, lp, rn, rp;
    CollectFree(*f.left(), &ln, &lp);
    CollectFree(*f.right(), &rn, &rp);
    const bool is_and = (f.kind() == Formula::Kind::kAnd);

    // Sides without free path variables evaluate to booleans.
    if (lp.empty() && rp.empty()) {
      return Status::InvalidArgument(
          "EvalRep on a formula without free path variables");
    }
    if (lp.empty() || rp.empty()) {
      const Formula& bool_side = lp.empty() ? *f.left() : *f.right();
      const Formula& rep_side = lp.empty() ? *f.right() : *f.left();
      auto b = EvalBool(bool_side, env);
      if (!b.ok()) return b.status();
      auto rep = EvalRep(rep_side, env);
      if (!rep.ok()) return rep;
      if (is_and) {
        if (b.value()) return rep;
        Rep empty;
        empty.tracks = rep.value().tracks;
        empty.nfa = EmptyNfa(GetContext(empty.tracks).num_symbols());
        return empty;
      }
      if (!b.value()) return rep;
      Rep all;
      all.tracks = rep.value().tracks;
      all.nfa = GetContext(all.tracks).universe();
      return all;
    }

    auto left = EvalRep(*f.left(), env);
    if (!left.ok()) return left;
    auto right = EvalRep(*f.right(), env);
    if (!right.ok()) return right;

    // Lift both to the union track set.
    std::vector<std::string> tracks;
    std::set_union(left.value().tracks.begin(), left.value().tracks.end(),
                   right.value().tracks.begin(), right.value().tracks.end(),
                   std::back_inserter(tracks));
    Rep l = Lift(std::move(left).value(), tracks);
    Rep r = Lift(std::move(right).value(), tracks);
    Rep out;
    out.tracks = tracks;
    out.nfa = is_and ? IntersectNfa(l.nfa, r.nfa) : UnionNfa(l.nfa, r.nfa);
    if (!is_and) {
      // Union may leave invalid words (none: both operands are subsets of
      // the universe) — no extra intersection needed.
    }
    Note(out.nfa);
    return out;
  }

  // Lifts a representation automaton to a superset of tracks.
  Rep Lift(Rep rep, const std::vector<std::string>& to_tracks) {
    if (rep.tracks == to_tracks) return rep;
    RepContext& src_ctx = GetContext(rep.tracks);
    RepContext& dst_ctx = GetContext(to_tracks);
    // Position of each source track within the destination tracks.
    std::vector<int> src_pos;
    for (const std::string& t : rep.tracks) {
      auto it = std::find(to_tracks.begin(), to_tracks.end(), t);
      ECRPQ_DCHECK(it != to_tracks.end());
      src_pos.push_back(static_cast<int>(it - to_tracks.begin()));
    }
    const int sk = static_cast<int>(rep.tracks.size());

    const Nfa src = RemoveEpsilons(rep.nfa);
    // States: src states + done.
    Nfa out(dst_ctx.num_symbols());
    out.AddStates(src.num_states() + 1);
    const StateId done = src.num_states();
    out.SetAccepting(done);
    for (StateId s = 0; s < src.num_states(); ++s) {
      if (src.IsInitial(s)) out.SetInitial(s);
      if (src.IsAccepting(s)) {
        out.SetAccepting(s);
        out.AddTransition(s, kEpsilon, done);
      }
    }
    // Translate arcs: every destination symbol whose source projection
    // matches. Iterate over destination symbols once.
    // Build a map from source symbol -> arcs.
    std::map<Symbol, std::vector<std::pair<StateId, StateId>>> arcs_by_symbol;
    for (StateId s = 0; s < src.num_states(); ++s) {
      for (const Nfa::Arc& arc : src.ArcsFrom(s)) {
        arcs_by_symbol[arc.first].push_back({s, arc.second});
      }
    }
    for (Symbol sym = 0; sym < dst_ctx.num_symbols(); ++sym) {
      std::vector<NodeId> nodes = dst_ctx.NodesOf(sym);
      std::vector<NodeId> src_nodes(sk);
      for (int t = 0; t < sk; ++t) src_nodes[t] = nodes[src_pos[t]];
      if (dst_ctx.IsInit(sym)) {
        Symbol src_sym = src_ctx.InitSymbol(src_nodes);
        auto it = arcs_by_symbol.find(src_sym);
        if (it != arcs_by_symbol.end()) {
          for (const auto& [from, to] : it->second) {
            out.AddTransition(from, sym, to);
          }
        }
        continue;
      }
      TupleLetter letter = dst_ctx.LetterOf(sym);
      TupleLetter src_letter(sk);
      bool src_all_pad = true;
      for (int t = 0; t < sk; ++t) {
        src_letter[t] = letter[src_pos[t]];
        if (src_letter[t] != kPad) src_all_pad = false;
      }
      if (src_all_pad) {
        // Extension beyond the source word: only from done.
        out.AddTransition(done, sym, done);
        continue;
      }
      Symbol src_sym = src_ctx.LetterSymbol(src_letter, src_nodes);
      auto it = arcs_by_symbol.find(src_sym);
      if (it != arcs_by_symbol.end()) {
        for (const auto& [from, to] : it->second) {
          out.AddTransition(from, sym, to);
        }
      }
    }
    Rep lifted;
    lifted.tracks = to_tracks;
    lifted.nfa =
        Trim(IntersectNfa(RemoveEpsilons(out), dst_ctx.universe()));
    Note(lifted.nfa);
    return lifted;
  }

  Rep Complement(Rep rep) {
    RepContext& ctx = GetContext(rep.tracks);
    if (stats_ != nullptr) ++stats_->determinizations;
    Nfa comp = ComplementNfa(rep.nfa);
    rep.nfa = Trim(IntersectNfa(comp, ctx.universe()));
    Note(rep.nfa);
    return rep;
  }

  Result<Rep> Project(Rep rep, int track) {
    RepContext& src_ctx = GetContext(rep.tracks);
    std::vector<std::string> to_tracks = rep.tracks;
    to_tracks.erase(to_tracks.begin() + track);
    if (to_tracks.empty()) {
      return Status::InvalidArgument(
          "projection would remove the last track (handle with EvalBool)");
    }
    RepContext& dst_ctx = GetContext(to_tracks);
    const int sk = static_cast<int>(rep.tracks.size());
    const Nfa src = RemoveEpsilons(rep.nfa);
    Nfa out(dst_ctx.num_symbols());
    out.AddStates(src.num_states());
    for (StateId s = 0; s < src.num_states(); ++s) {
      if (src.IsInitial(s)) out.SetInitial(s);
      if (src.IsAccepting(s)) out.SetAccepting(s);
      for (const Nfa::Arc& arc : src.ArcsFrom(s)) {
        std::vector<NodeId> nodes = src_ctx.NodesOf(arc.first);
        std::vector<NodeId> kept_nodes;
        for (int t = 0; t < sk; ++t) {
          if (t != track) kept_nodes.push_back(nodes[t]);
        }
        if (src_ctx.IsInit(arc.first)) {
          out.AddTransition(s, dst_ctx.InitSymbol(kept_nodes), arc.second);
          continue;
        }
        TupleLetter letter = src_ctx.LetterOf(arc.first);
        TupleLetter kept_letter;
        bool all_pad = true;
        for (int t = 0; t < sk; ++t) {
          if (t == track) continue;
          kept_letter.push_back(letter[t]);
          if (letter[t] != kPad) all_pad = false;
        }
        if (all_pad) {
          out.AddTransition(s, kEpsilon, arc.second);
        } else {
          out.AddTransition(s, dst_ctx.LetterSymbol(kept_letter, kept_nodes),
                            arc.second);
        }
      }
    }
    Rep projected;
    projected.tracks = to_tracks;
    projected.nfa =
        Trim(IntersectNfa(RemoveEpsilons(out), dst_ctx.universe()));
    Note(projected.nfa);
    return projected;
  }

  const GraphDb& graph_;
  // The graph's snapshot: the evaluator reads edges only through it.
  const GraphIndexPtr index_;
  NegationStats* stats_;
  std::map<std::vector<std::string>, std::unique_ptr<RepContext>> contexts_;
};

}  // namespace

Result<bool> EvaluateSentence(const GraphDb& graph, const FormulaPtr& formula,
                              NegationStats* stats) {
  if (!formula->FreeNodeVars().empty() ||
      !formula->FreePathVars().empty()) {
    return Status::InvalidArgument(
        "EvaluateSentence requires a closed formula; free variables: " +
        formula->ToString());
  }
  NegationEvaluator evaluator(graph, stats);
  std::map<std::string, NodeId> env;
  return evaluator.EvalBool(*formula, &env);
}

Result<bool> EvaluateFormula(const GraphDb& graph, const FormulaPtr& formula,
                             const std::map<std::string, NodeId>& sigma,
                             const std::map<std::string, Path>& mu,
                             NegationStats* stats) {
  // Check bindings cover the free variables.
  for (const std::string& x : formula->FreeNodeVars()) {
    if (sigma.find(x) == sigma.end()) {
      return Status::InvalidArgument("free node variable '" + x +
                                     "' unbound");
    }
  }
  std::vector<std::string> free_paths = formula->FreePathVars();
  for (const std::string& p : free_paths) {
    if (mu.find(p) == mu.end()) {
      return Status::InvalidArgument("free path variable '" + p +
                                     "' unbound");
    }
  }
  NegationEvaluator evaluator(graph, stats);
  std::map<std::string, NodeId> env = sigma;
  if (free_paths.empty()) {
    return evaluator.EvalBool(*formula, &env);
  }
  auto rep = evaluator.EvalRep(*formula, &env);
  if (!rep.ok()) return rep.status();
  // Membership of the bound path tuple (tracks are sorted free paths).
  PathTuple tuple;
  for (const std::string& p : rep.value().tracks) {
    tuple.push_back(mu.at(p));
  }
  Word word = evaluator.RepresentationWord(
      evaluator.GetContext(rep.value().tracks), tuple);
  return rep.value().nfa.Accepts(word);
}

}  // namespace ecrpq
