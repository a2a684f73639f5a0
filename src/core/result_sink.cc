#include "core/result_sink.h"

#include <utility>

namespace ecrpq {

bool MaterializingSink::Emit(std::span<const NodeId> tuple,
                             PathAnswerSet* paths) {
  if (tuples.empty()) tuples = RowBuffer(tuple.size());
  tuples.push_back(tuple);
  if (paths != nullptr) path_answers.push_back(std::move(*paths));
  return limit_ == 0 || tuples.size() < limit_;
}

void MaterializingSink::SortRows() {
  if (!path_answers.empty()) {
    std::vector<PathAnswerSet> sorted_paths;
    sorted_paths.reserve(path_answers.size());
    for (uint32_t i : tuples.SortedOrder()) {
      sorted_paths.push_back(std::move(path_answers[i]));
    }
    path_answers = std::move(sorted_paths);
  }
  tuples.SortUnique();  // the tuples are distinct: a plain sort
}

}  // namespace ecrpq
