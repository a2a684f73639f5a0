#include "relations/relation.h"

#include <algorithm>
#include <optional>

#include "automata/operations.h"

namespace ecrpq {

namespace {

// Per letter of `from`: the letter of `to` whose tape t reads tape
// `tapes[t]` of it (the all-⊥ letter of `to` when every tape read is ⊥).
// Built once per call, so relabelling an automaton decodes no arc.
std::vector<Symbol> TapeRelabelTable(const TupleAlphabet& from,
                                     const TupleAlphabet& to,
                                     const std::vector<int>& tapes) {
  std::vector<Symbol> table(from.num_symbols());
  TupleLetter dst(to.arity());
  for (Symbol id = 0; id < from.num_symbols(); ++id) {
    TupleLetter src = from.Decode(id);
    for (int t = 0; t < to.arity(); ++t) dst[t] = src[tapes[t]];
    table[id] = to.Encode(dst);
  }
  return table;
}

}  // namespace

Nfa ValidConvolutionNfa(const TupleAlphabet& ta) {
  const int arity = ta.arity();
  const uint32_t num_masks = 1u << arity;
  Nfa nfa(ta.num_symbols());
  nfa.AddStates(static_cast<int>(num_masks));
  nfa.SetInitial(0);
  for (uint32_t m = 0; m < num_masks; ++m) {
    nfa.SetAccepting(static_cast<StateId>(m));
  }
  const uint32_t all_pad = num_masks - 1;
  for (Symbol s = 0; s < ta.num_symbols(); ++s) {
    uint32_t pad = ta.PadMask(s);
    if (pad == all_pad) continue;  // the all-⊥ letter never occurs
    for (uint32_t m = 0; m < num_masks; ++m) {
      // Pads are suffix-closed per tape: once a tape pads it stays padded.
      if ((pad & m) == m) {
        nfa.AddTransition(static_cast<StateId>(m), s,
                          static_cast<StateId>(pad));
      }
    }
  }
  return nfa;
}

RegularRelation::RegularRelation(int base_size, int arity, Nfa nfa,
                                 bool trusted_valid)
    : tuple_alphabet_(base_size, arity), nfa_(Nfa(0)) {
  ECRPQ_DCHECK(nfa.num_symbols() == tuple_alphabet_.num_symbols());
  if (trusted_valid) {
    nfa_ = std::move(nfa);
  } else {
    nfa_ = Trim(IntersectNfa(nfa, ValidConvolutionNfa(tuple_alphabet_)));
  }
}

bool RegularRelation::Contains(const std::vector<Word>& strings) const {
  ECRPQ_DCHECK(static_cast<int>(strings.size()) == arity());
  return nfa_.Accepts(Convolve(tuple_alphabet_, strings));
}

bool RegularRelation::IsEmpty() const { return ecrpq::IsEmpty(nfa_); }

bool RegularRelation::IsInfinite() const { return ecrpq::IsInfinite(nfa_); }

std::optional<std::vector<Word>> RegularRelation::AnyMember() const {
  auto word = ShortestWord(nfa_);
  if (!word.has_value()) return std::nullopt;
  auto tuple = Deconvolve(tuple_alphabet_, *word);
  ECRPQ_DCHECK(tuple.ok());
  return std::move(tuple).value();
}

std::vector<std::vector<Word>> RegularRelation::EnumerateMembers(
    int max_count, int max_len) const {
  std::vector<std::vector<Word>> out;
  for (const Word& w : EnumerateWords(nfa_, max_count, max_len)) {
    auto tuple = Deconvolve(tuple_alphabet_, w);
    ECRPQ_DCHECK(tuple.ok());
    out.push_back(std::move(tuple).value());
  }
  return out;
}

Result<RegularRelation> RegularRelation::Intersect(const RegularRelation& r1,
                                                   const RegularRelation& r2) {
  if (r1.base_size() != r2.base_size() || r1.arity() != r2.arity()) {
    return Status::InvalidArgument(
        "Intersect: relations must share base alphabet and arity");
  }
  return RegularRelation(r1.base_size(), r1.arity(),
                         IntersectNfa(r1.nfa_, r2.nfa_),
                         /*trusted_valid=*/true);
}

Result<RegularRelation> RegularRelation::Union(const RegularRelation& r1,
                                               const RegularRelation& r2) {
  if (r1.base_size() != r2.base_size() || r1.arity() != r2.arity()) {
    return Status::InvalidArgument(
        "Union: relations must share base alphabet and arity");
  }
  return RegularRelation(r1.base_size(), r1.arity(),
                         UnionNfa(r1.nfa_, r2.nfa_), /*trusted_valid=*/true);
}

RegularRelation RegularRelation::Complement() const {
  // Complement over (Σ⊥)ⁿ, then restrict to valid convolutions (done by the
  // untrusted constructor).
  return RegularRelation(base_size(), arity(), ComplementNfa(nfa_),
                         /*trusted_valid=*/false);
}

Result<RegularRelation> RegularRelation::PermuteTapes(
    const std::vector<int>& tape_map) const {
  const int new_arity = static_cast<int>(tape_map.size());
  std::vector<bool> used(arity(), false);
  for (int src : tape_map) {
    if (src < 0 || src >= arity()) {
      return Status::InvalidArgument("PermuteTapes: tape index out of range");
    }
    if (used[src]) {
      return Status::InvalidArgument("PermuteTapes: duplicate tape index");
    }
    used[src] = true;
  }
  if (new_arity != arity()) {
    return Status::InvalidArgument(
        "PermuteTapes: must be a permutation (use Project to drop tapes)");
  }
  TupleAlphabet out_ta(base_size(), new_arity);
  const std::vector<Symbol> relabel =
      TapeRelabelTable(tuple_alphabet_, out_ta, tape_map);
  Nfa out(out_ta.num_symbols());
  out.AddStates(nfa_.num_states());
  for (StateId s = 0; s < nfa_.num_states(); ++s) {
    if (nfa_.IsInitial(s)) out.SetInitial(s);
    if (nfa_.IsAccepting(s)) out.SetAccepting(s);
    out.ReserveArcs(s, nfa_.ArcsFrom(s).size());
    for (const Nfa::Arc& arc : nfa_.ArcsFrom(s)) {
      out.AddTransition(
          s, arc.first == kEpsilon ? kEpsilon : relabel[arc.first],
          arc.second);
    }
  }
  return RegularRelation(base_size(), new_arity, std::move(out),
                         /*trusted_valid=*/true);
}

Result<RegularRelation> RegularRelation::Cylindrify(
    int new_arity, const std::vector<int>& positions) const {
  if (static_cast<int>(positions.size()) != arity()) {
    return Status::InvalidArgument(
        "Cylindrify: need one position per existing tape");
  }
  std::vector<bool> used(new_arity, false);
  for (int pos : positions) {
    if (pos < 0 || pos >= new_arity) {
      return Status::InvalidArgument("Cylindrify: position out of range");
    }
    if (used[pos]) {
      return Status::InvalidArgument("Cylindrify: duplicate position");
    }
    used[pos] = true;
  }

  std::optional<Nfa> storage;
  const Nfa& base = EpsilonFree(nfa_, &storage);
  TupleAlphabet out_ta(base_size(), new_arity);
  Nfa out(out_ta.num_symbols());
  // States of `base` plus one "done" state (own tapes exhausted, other
  // tapes may continue).
  out.AddStates(base.num_states() + 1);
  const StateId done = base.num_states();
  out.SetAccepting(done);
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (base.IsInitial(s)) out.SetInitial(s);
    if (base.IsAccepting(s)) {
      out.SetAccepting(s);
      // Own tapes may end while others continue: accepting states flow to
      // `done` on letters that pad every own tape.
      out.AddTransition(s, kEpsilon, done);
    }
  }

  // Base arcs grouped by own letter, in (state, arc) order, so each state's
  // arcs come out ordered by output letter and then by base arc order. The
  // output alphabet has (|Σ|+1)^new_arity letters (callers keep new_arity
  // small).
  TupleAlphabet own_ta(base_size(), arity());
  std::vector<std::vector<Nfa::Arc>> by_own(own_ta.num_symbols());
  for (StateId s = 0; s < base.num_states(); ++s) {
    for (const Nfa::Arc& arc : base.ArcsFrom(s)) {
      by_own[arc.first].emplace_back(s, arc.second);
    }
  }
  const std::vector<Symbol> own_of =
      TapeRelabelTable(out_ta, own_ta, positions);
  for (Symbol letter = 0; letter < out_ta.num_symbols(); ++letter) {
    const Symbol own = own_of[letter];
    if (own == own_ta.AllPadId()) {
      // Own tapes silent; stay in done.
      out.AddTransition(done, letter, done);
      continue;
    }
    for (const auto& [s, target] : by_own[own]) {
      out.AddTransition(s, letter, target);
    }
  }
  // Untrusted: restrict to valid convolutions of the larger arity (also
  // prunes pads-then-letters on the free tapes).
  return RegularRelation(base_size(), new_arity, std::move(out),
                         /*trusted_valid=*/false);
}

Result<RegularRelation> RegularRelation::Project(
    const std::vector<int>& tapes) const {
  if (tapes.empty()) {
    return Status::InvalidArgument("Project: need at least one tape");
  }
  std::vector<bool> used(arity(), false);
  for (int t : tapes) {
    if (t < 0 || t >= arity()) {
      return Status::InvalidArgument("Project: tape index out of range");
    }
    if (used[t]) {
      return Status::InvalidArgument("Project: duplicate tape index");
    }
    used[t] = true;
  }
  const int new_arity = static_cast<int>(tapes.size());
  TupleAlphabet out_ta(base_size(), new_arity);
  const std::vector<Symbol> relabel =
      TapeRelabelTable(tuple_alphabet_, out_ta, tapes);
  std::optional<Nfa> storage;
  const Nfa& base = EpsilonFree(nfa_, &storage);
  Nfa out(out_ta.num_symbols());
  out.AddStates(base.num_states());
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (base.IsInitial(s)) out.SetInitial(s);
    if (base.IsAccepting(s)) out.SetAccepting(s);
    out.ReserveArcs(s, base.ArcsFrom(s).size());
    for (const Nfa::Arc& arc : base.ArcsFrom(s)) {
      const Symbol letter = relabel[arc.first];
      // All kept tapes ⊥: the dropped tapes were longer, invisible on the
      // kept ones.
      out.AddTransition(s, letter == out_ta.AllPadId() ? kEpsilon : letter,
                        arc.second);
    }
  }
  return RegularRelation(base_size(), new_arity,
                         Trim(RemoveEpsilons(std::move(out))),
                         /*trusted_valid=*/true);
}

Result<RegularRelation> RegularRelation::Join(const RegularRelation& r1,
                                              int tape1,
                                              const RegularRelation& r2,
                                              int tape2) {
  if (r1.base_size() != r2.base_size()) {
    return Status::InvalidArgument("Join: base alphabets differ");
  }
  if (tape1 < 0 || tape1 >= r1.arity() || tape2 < 0 || tape2 >= r2.arity()) {
    return Status::InvalidArgument("Join: tape index out of range");
  }
  // Layout: tapes of r1 as-is, then tapes of r2 except tape2, with r2's
  // tape2 identified with r1's tape1.
  const int total = r1.arity() + r2.arity() - 1;
  std::vector<int> pos1(r1.arity());
  for (int t = 0; t < r1.arity(); ++t) pos1[t] = t;
  std::vector<int> pos2(r2.arity());
  int next = r1.arity();
  for (int t = 0; t < r2.arity(); ++t) {
    pos2[t] = (t == tape2) ? tape1 : next++;
  }
  auto c1 = r1.Cylindrify(total, pos1);
  if (!c1.ok()) return c1.status();
  auto c2 = r2.Cylindrify(total, pos2);
  if (!c2.ok()) return c2.status();
  return Intersect(c1.value(), c2.value());
}

Result<RegularRelation> RegularRelation::Compose(const RegularRelation& r1,
                                                 const RegularRelation& r2) {
  if (r1.arity() != 2 || r2.arity() != 2) {
    return Status::InvalidArgument("Compose: both relations must be binary");
  }
  auto joined = Join(r1, /*tape1=*/1, r2, /*tape2=*/0);
  if (!joined.ok()) return joined.status();
  // Joined layout: (x, y, z); project to (x, z).
  return joined.value().Project({0, 2});
}

RegularRelation RegularRelation::FromLanguage(int base_size,
                                              const Nfa& language_nfa) {
  ECRPQ_DCHECK(language_nfa.num_symbols() == base_size);
  // A unary relation's tuple alphabet has ids 0..|Σ| with |Σ| = ⊥; base ids
  // coincide, so the NFA carries over unchanged (⊥ never appears in words
  // of a unary convolution).
  TupleAlphabet ta(base_size, 1);
  Nfa out(ta.num_symbols());
  std::optional<Nfa> storage;
  const Nfa& base = EpsilonFree(language_nfa, &storage);
  out.AddStates(base.num_states());
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (base.IsInitial(s)) out.SetInitial(s);
    if (base.IsAccepting(s)) out.SetAccepting(s);
    for (const Nfa::Arc& arc : base.ArcsFrom(s)) {
      out.AddTransition(s, arc.first, arc.second);
    }
  }
  return RegularRelation(base_size, 1, std::move(out),
                         /*trusted_valid=*/true);
}

Result<Nfa> RegularRelation::ToLanguageNfa() const {
  if (arity() != 1) {
    return Status::InvalidArgument("ToLanguageNfa: relation is not unary");
  }
  Nfa out(base_size());
  out.AddStates(nfa_.num_states());
  for (StateId s = 0; s < nfa_.num_states(); ++s) {
    if (nfa_.IsInitial(s)) out.SetInitial(s);
    if (nfa_.IsAccepting(s)) out.SetAccepting(s);
    for (const Nfa::Arc& arc : nfa_.ArcsFrom(s)) {
      if (arc.first == kEpsilon) {
        out.AddTransition(s, kEpsilon, arc.second);
        continue;
      }
      Symbol c = tuple_alphabet_.Component(arc.first, 0);
      ECRPQ_DCHECK(c != kPad);  // invariant: no all-pad letters
      out.AddTransition(s, c, arc.second);
    }
  }
  return out;
}

RegularRelation RegularRelation::LengthAbstraction() const {
  // Map every non-pad component to letter 0: the accepted convolutions then
  // depend only on the pad profile, i.e. on component lengths (Lemma 6.6).
  // The result is over the same tuple alphabet; each original transition is
  // replayed with every letter sharing its pad mask.
  Nfa out(tuple_alphabet_.num_symbols());
  std::optional<Nfa> storage;
  const Nfa& base = EpsilonFree(nfa_, &storage);
  out.AddStates(base.num_states());

  // Pad mask of every letter, and the letters grouped by pad mask, once.
  std::vector<uint32_t> pad_mask(tuple_alphabet_.num_symbols());
  std::vector<std::vector<Symbol>> by_mask(1u << arity());
  for (Symbol s = 0; s < tuple_alphabet_.num_symbols(); ++s) {
    pad_mask[s] = tuple_alphabet_.PadMask(s);
    by_mask[pad_mask[s]].push_back(s);
  }
  // Transition pad masks seen per (state, target) are deduplicated to avoid
  // quadratic duplicate arcs.
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (base.IsInitial(s)) out.SetInitial(s);
    if (base.IsAccepting(s)) out.SetAccepting(s);
    std::vector<std::pair<uint32_t, StateId>> seen;
    for (const Nfa::Arc& arc : base.ArcsFrom(s)) {
      uint32_t mask = pad_mask[arc.first];
      std::pair<uint32_t, StateId> key{mask, arc.second};
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      for (Symbol letter : by_mask[mask]) {
        out.AddTransition(s, letter, arc.second);
      }
    }
  }
  return RegularRelation(base_size(), arity(), std::move(out),
                         /*trusted_valid=*/true);
}

std::string RegularRelation::Describe() const {
  return "RegularRelation(arity=" + std::to_string(arity()) +
         ", base=" + std::to_string(base_size()) +
         ", states=" + std::to_string(nfa_.num_states()) +
         ", transitions=" + std::to_string(nfa_.num_transitions()) + ")";
}

}  // namespace ecrpq
