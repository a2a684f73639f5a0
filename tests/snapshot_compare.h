// Structural equality of two GraphIndex snapshots' logical views, shared
// by the delta, fold and recovery suites.

#ifndef ECRPQ_TESTS_SNAPSHOT_COMPARE_H_
#define ECRPQ_TESTS_SNAPSHOT_COMPARE_H_

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "graph/index.h"

namespace ecrpq {

template <typename T>
std::vector<T> ToVec(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

// Full structural equality of two snapshots' logical views: counts,
// version, label statistics, both degree permutations, and every node's
// rows, masks and degrees on both sides. `fresh` is a from-scratch Build
// of the graph; `snap` the snapshot under test. A recovered snapshot
// counts versions from its checkpoint, so `same_version` may be waived.
inline void CheckSameView(const GraphIndexPtr& fresh,
                          const GraphIndexPtr& snap,
                          bool same_version = true) {
  ASSERT_EQ(fresh->num_nodes(), snap->num_nodes());
  ASSERT_EQ(fresh->num_edges(), snap->num_edges());
  ASSERT_EQ(fresh->num_labels(), snap->num_labels());
  if (same_version) {
    ASSERT_EQ(fresh->version(), snap->version());
  }

  for (Symbol a = 0; a < fresh->num_labels(); ++a) {
    ASSERT_EQ(fresh->LabelCount(a), snap->LabelCount(a)) << "label " << a;
    ASSERT_EQ(fresh->LabelSourceCount(a), snap->LabelSourceCount(a))
        << "label " << a;
    ASSERT_EQ(fresh->LabelTargetCount(a), snap->LabelTargetCount(a))
        << "label " << a;
  }
  // Permutations must be IDENTICAL, not just degree-sorted: frontier
  // seeding order feeds engine counters, and those must match too.
  ASSERT_EQ(fresh->NodesByDegree(), snap->NodesByDegree());
  ASSERT_EQ(fresh->NodesByInDegree(), snap->NodesByInDegree());

  for (NodeId v = 0; v < fresh->num_nodes(); ++v) {
    ASSERT_EQ(ToVec(fresh->OutLabels(v)), ToVec(snap->OutLabels(v)))
        << "node " << v;
    ASSERT_EQ(ToVec(fresh->OutTargets(v)), ToVec(snap->OutTargets(v)))
        << "node " << v;
    ASSERT_EQ(ToVec(fresh->InLabels(v)), ToVec(snap->InLabels(v)))
        << "node " << v;
    ASSERT_EQ(ToVec(fresh->InSources(v)), ToVec(snap->InSources(v)))
        << "node " << v;
    ASSERT_EQ(fresh->OutLabelMask(v), snap->OutLabelMask(v)) << "node " << v;
    ASSERT_EQ(fresh->InLabelMask(v), snap->InLabelMask(v)) << "node " << v;
    ASSERT_EQ(fresh->out_degree(v), snap->out_degree(v)) << "node " << v;
    ASSERT_EQ(fresh->in_degree(v), snap->in_degree(v)) << "node " << v;
  }
}

}  // namespace ecrpq

#endif  // ECRPQ_TESTS_SNAPSHOT_COMPARE_H_
