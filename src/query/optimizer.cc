#include "query/optimizer.h"

#include <map>

#include "automata/operations.h"
#include "query/builder.h"

namespace ecrpq {

std::string OptimizerReport::Describe() const {
  std::string out = "fused=" + std::to_string(fused_language_atoms) +
                    " dropped=" + std::to_string(dropped_universal) +
                    (proven_empty ? " EMPTY" : "");
  for (const std::string& note : notes) out += "; " + note;
  return out;
}

namespace {

// A relation is universal iff it accepts every valid convolution of its
// tuple alphabet. The inclusion check walks (pad mask, relation-subset)
// pairs and stops at the first valid word the relation rejects; for the
// constraining builtins it meets one within two letters (eq rejects (a,b),
// edit1 two substitutions). Confirming a universal relation visits every
// reachable subset, exponentially many in the worst case, so automata
// above a size cutoff are not checked and are kept as atoms.
bool IsUniversalRelation(const RegularRelation& rel) {
  constexpr int kCutoffStates = 64;
  if (rel.nfa().num_states() > kCutoffStates) return false;
  return IsSubsetOf(ValidConvolutionNfa(rel.tuple_alphabet()), rel.nfa());
}

}  // namespace

Result<OptimizedQuery> OptimizeQuery(const Query& query) {
  OptimizerReport report;

  // Group unary atoms per path variable; keep others as-is.
  std::map<std::string, std::vector<const RelationAtom*>> unary_by_path;
  std::vector<const RelationAtom*> multiary;
  for (const RelationAtom& atom : query.relation_atoms()) {
    if (atom.relation->arity() == 1) {
      unary_by_path[atom.paths[0]].push_back(&atom);
    } else {
      multiary.push_back(&atom);
    }
  }

  QueryBuilder builder;
  for (const PathAtom& atom : query.path_atoms()) {
    builder.Atom(atom.from, atom.path, atom.to);
  }

  // Fuse unary languages per path variable.
  for (const auto& [path, atoms] : unary_by_path) {
    // Drop universal unary atoms first.
    std::vector<const RelationAtom*> kept;
    for (const RelationAtom* atom : atoms) {
      if (IsUniversalRelation(*atom->relation)) {
        ++report.dropped_universal;
        report.notes.push_back("dropped universal '" + atom->name +
                                   "' on " + path);
      } else {
        kept.push_back(atom);
      }
    }
    if (kept.empty()) continue;
    if (kept.size() == 1) {
      builder.Relation(kept[0]->relation, kept[0]->paths, kept[0]->name);
      continue;
    }
    // Intersect all languages into one automaton.
    auto lang = kept[0]->relation->ToLanguageNfa();
    if (!lang.ok()) return lang.status();
    Nfa fused = std::move(lang).value();
    std::string name = kept[0]->name;
    for (size_t i = 1; i < kept.size(); ++i) {
      auto next = kept[i]->relation->ToLanguageNfa();
      if (!next.ok()) return next.status();
      fused = Trim(IntersectNfa(fused, next.value()));
      name += "&" + kept[i]->name;
      ++report.fused_language_atoms;
    }
    if (IsEmpty(fused)) {
      report.proven_empty = true;
      report.notes.push_back("language intersection on " + path +
                                 " is empty");
    }
    builder.Relation(
        std::make_shared<RegularRelation>(RegularRelation::FromLanguage(
            kept[0]->relation->base_size(), fused)),
        {path}, name);
  }

  for (const RelationAtom* atom : multiary) {
    if (IsUniversalRelation(*atom->relation)) {
      ++report.dropped_universal;
      report.notes.push_back("dropped universal '" + atom->name + "'");
      continue;
    }
    if (atom->relation->IsEmpty()) {
      report.proven_empty = true;
      report.notes.push_back("relation '" + atom->name + "' is empty");
    }
    builder.Relation(atom->relation, atom->paths, atom->name);
  }

  for (const LinearAtom& atom : query.linear_atoms()) {
    builder.Linear(atom);
  }

  std::vector<std::string> head_nodes;
  for (const NodeTerm& term : query.head_nodes()) {
    head_nodes.push_back(term.name);
  }
  builder.Head(std::move(head_nodes), query.head_paths());
  auto rebuilt = builder.Build();
  if (!rebuilt.ok()) return rebuilt.status();
  return OptimizedQuery{std::move(rebuilt).value(), std::move(report)};
}

}  // namespace ecrpq
