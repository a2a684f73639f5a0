// Parikh images of NFAs via flow encodings (Section 8.2 of the paper).
//
// Theorem 8.5 evaluates queries with linear constraints on occurrence counts
// by translating each atom's product automaton into an existential
// Presburger formula for its Parikh image (the linear-time translation of
// Verma, Seidl & Schwentick cited by the paper) and conjoining the user's
// constraints. We realize the translation as an ILP over transition flows:
//
//   f_t >= 0                    uses per transition
//   flow conservation           out(q) - in(q) = [q = source] - [q = sink]
//   x_a = Σ_{t labeled a} f_t   letter counts
//
// Flow conservation alone admits "phantom circulation" on cycles
// disconnected from the run. Instead of the big-M spanning-tree encoding
// (whose LP relaxation branches terribly), connectivity is enforced by
// lazy cutting planes: solve, check that the support of f is weakly
// connected to the source (with conservation this is exactly the Euler-run
// condition), and when a disconnected component K carries flow, add the
// valid cut  B·|K| · Σ_{t entering K} f_t >= Σ_{t inside K} f_t  and
// re-solve. Completeness within the per-transition flow bound follows from
// ILP small-model bounds; callers stay far below the default.

#ifndef ECRPQ_SOLVER_PARIKH_H_
#define ECRPQ_SOLVER_PARIKH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "automata/nfa.h"
#include "solver/ilp.h"
#include "util/status.h"

namespace ecrpq {

struct ParikhOptions {
  /// Bound on each transition's use count (small-model bound).
  int64_t max_flow_per_transition = 100000;
  /// Cap on connectivity-cut rounds before giving up.
  int max_cut_rounds = 200;
  IlpOptions ilp;
};

/// Builder that embeds the Parikh-image constraints of one or more NFAs
/// into a shared IlpProblem, so cross-automaton linear constraints (the
/// paper's A·ℓ̄ >= b over several path variables) live in one program.
class ParikhConstraintBuilder {
 public:
  explicit ParikhConstraintBuilder(ParikhOptions options = {})
      : options_(options) {}

  /// Embeds `nfa`, using its initial and accepting states (a super-source
  /// and super-sink are added internally; ε-arcs are allowed and simply
  /// carry no letter). Returns the indices of the letter-count variables
  /// x_0..x_{k-1} (k = nfa.num_symbols()). Fails if the automaton accepts
  /// nothing.
  Result<std::vector<int>> AddAutomaton(const Nfa& nfa);

  /// Lower-level form: a flow graph whose arcs each contribute weighted
  /// amounts to caller-supplied counter variables (used for the product
  /// automata of ECRPQs with constraints, where one arc advances several
  /// path variables at once). `arcs[i]` = (from, to, contributions), with
  /// contributions = (counter variable, weight) pairs.
  Status AddCountedGraph(
      int num_states, const std::vector<int>& initial,
      const std::vector<int>& accepting,
      const std::vector<std::tuple<int, int,
                                   std::vector<std::pair<int, int64_t>>>>&
          arcs);

  /// Adds an arbitrary linear constraint over previously returned
  /// variables.
  void AddConstraint(LinearConstraint constraint);

  /// Introduces a fresh bounded helper variable.
  int AddVariable(int64_t lower, int64_t upper);

  /// Solves with lazy connectivity cuts. Each round's branch & bound polls
  /// `cancellation` (when non-null); a tripped token returns
  /// Status::Cancelled.
  Result<IlpSolution> Solve(const CancellationToken* cancellation = nullptr);

  const IlpProblem& problem() const { return problem_; }

 private:
  struct FlowGraph {
    int num_states = 0;  // includes super source/sink
    int source = 0;
    int sink = 0;
    std::vector<int> arc_from;
    std::vector<int> arc_to;
    std::vector<int> arc_flow_var;
  };

  ParikhOptions options_;
  IlpProblem problem_;
  std::vector<FlowGraph> graphs_;
};

/// Is there a word accepted by `nfa` whose letter counts satisfy all of
/// `constraints` (variables 0..num_symbols-1 are the letter counts)?
/// Returns the witness counts if so.
Result<std::optional<std::vector<int64_t>>> ExistsWordWithCounts(
    const Nfa& nfa, const std::vector<LinearConstraint>& constraints,
    const ParikhOptions& options = {});

}  // namespace ecrpq

#endif  // ECRPQ_SOLVER_PARIKH_H_
