// Pattern matching beyond regular languages (Sections 1, 3 and 4).
//
// ECRPQs express pattern languages (and more): squared strings (XX),
// aXbX, and the non-context-free aⁿbⁿcⁿ — none definable by CRPQs
// (Proposition 3.2). Each pattern is prepared once and executed against a
// fresh word graph per input; the start/end nodes are $parameters.
//
//   $ ./pattern_matching

#include <iostream>

#include "api/api.h"
#include "core/containment.h"
#include "graph/generators.h"

using namespace ecrpq;

namespace {

Word Encode(const Alphabet& alphabet, const char* text) {
  Word w;
  for (const char* c = text; *c; ++c) {
    w.push_back(*alphabet.Find(std::string_view(c, 1)));
  }
  return w;
}

// Prints whether `text` matches; false (after printing the error) when
// the query failed to run.
bool Check(const AlphabetPtr& alphabet, const std::string& query_text,
           const char* text) {
  Word w = Encode(*alphabet, text);
  Database db(WordGraph(alphabet, w));
  auto match = db.Exists(query_text,
                         Params()
                             .Set("first", "w0")
                             .Set("last", "w" + std::to_string(w.size())));
  if (!match.ok()) {
    std::cerr << match.status().ToString() << "\n";
    return false;
  }
  std::cout << "  \"" << text << "\""
            << (match.value() ? "  MATCHES" : "  no match") << "\n";
  return true;
}

}  // namespace

int main() {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  bool ok = true;

  std::cout << "Squared strings (pattern XX):\n";
  const std::string squared =
      "Ans() <- ($first, p, z), (z, q, $last), eq(p, q)";
  for (const char* text : {"abab", "aab", "aa", "abcabc"}) {
    ok = Check(alphabet, squared, text) && ok;
  }

  std::cout << "\nPattern aXbX (via the Theorem 7.1 encoder):\n";
  auto axbx = PatternQuery("aXbX", *alphabet);
  if (!axbx.ok()) {
    std::cerr << axbx.status().ToString() << "\n";
    return 1;
  }
  for (const char* text : {"aabab", "abb", "ab"}) {
    // The encoder produces a Query over (x, y) head variables; run it
    // through the facade's engine defaults via a per-word database, whose
    // edges are in its snapshot.
    Word w = Encode(*alphabet, text);
    Database db(WordGraph(alphabet, w));
    Evaluator evaluator(&db.graph(), db.eval_options());
    evaluator.set_graph_index(db.graph_index());
    auto result = evaluator.Evaluate(axbx.value());
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    NodeId from = *db.graph().FindNode("w0");
    NodeId to = *db.graph().FindNode("w" + std::to_string(w.size()));
    bool match = false;
    for (const auto& tuple : result.value().tuples()) {
      if (tuple[0] == from && tuple[1] == to) match = true;
    }
    std::cout << "  \"" << text << "\""
              << (match ? "  MATCHES" : "  no match") << "\n";
  }

  std::cout << "\naⁿbⁿcⁿ (not context-free; Section 4's ECRPQ):\n";
  const std::string anbncn =
      "Ans() <- ($first, p1, z1), (z1, p2, z2), (z2, p3, $last), "
      "a*(p1), b*(p2), c*(p3), el(p1, p2), el(p2, p3)";
  for (const char* text : {"abc", "aabbcc", "aabbc", "aaabbbccc"}) {
    ok = Check(alphabet, anbncn, text) && ok;
  }
  return ok ? 0 : 1;
}
