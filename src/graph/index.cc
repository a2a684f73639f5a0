#include "graph/index.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "util/thread_pool.h"

namespace ecrpq {

namespace {

// Contiguous node range each fill morsel claims.
constexpr int kBuildGrain = 4096;

uint64_t PackKey(Symbol label, NodeId other) {
  return static_cast<uint64_t>(static_cast<uint32_t>(label)) << 32 |
         static_cast<uint32_t>(other);
}

// Puts every out-row of `rows` in (label, target) order and sets its
// label mask. With a `source` (Build; the offsets are already sized) each
// row is packed straight from its out-list as (label << 32 | target) keys,
// sorted in a reused scratch buffer and written to its own slice. Without
// one, a row already in order (every row a checkpoint written from a
// snapshot holds) is only read and any other is sorted the same way in
// place. The pass splits over node ranges with byte-identical output.
void SortOutRows(int num_threads, const GraphDb* source,
                 GraphIndex::OutRows* rows, PageVector<uint64_t>* masks) {
  const int n = static_cast<int>(rows->offsets.size()) - 1;
  const int e = rows->offsets[n];
  masks->assign(n, 0);
  Symbol* labels = rows->labels.data();
  NodeId* targets = rows->targets.data();

  auto sort_range = [&](NodeId vbegin, NodeId vend,
                        std::vector<uint64_t>& keys) {
    for (NodeId v = vbegin; v < vend; ++v) {
      const int32_t begin = rows->offsets[v];
      const int32_t end = rows->offsets[v + 1];
      bool sorted = source == nullptr;
      for (int32_t i = begin + 1; i < end && sorted; ++i) {
        sorted = PackKey(labels[i - 1], targets[i - 1]) <=
                 PackKey(labels[i], targets[i]);
      }
      uint64_t mask = 0;
      if (sorted) {
        for (int32_t i = begin; i < end; ++i) {
          mask |= 1ULL << std::min<Symbol>(labels[i], 63);
        }
      } else {
        keys.clear();
        if (source != nullptr) {
          for (const auto& [label, target] : source->Out(v)) {
            keys.push_back(PackKey(label, target));
          }
        } else {
          for (int32_t i = begin; i < end; ++i) {
            keys.push_back(PackKey(labels[i], targets[i]));
          }
        }
        std::sort(keys.begin(), keys.end());
        for (int32_t i = begin; i < end; ++i) {
          const Symbol label = static_cast<Symbol>(keys[i - begin] >> 32);
          labels[i] = label;
          targets[i] =
              static_cast<NodeId>(static_cast<uint32_t>(keys[i - begin]));
          mask |= 1ULL << std::min<Symbol>(label, 63);
        }
      }
      (*masks)[v] = mask;
    }
  };

  if (num_threads <= 1 || e < GraphIndex::kParallelBuildMinEdges ||
      n <= kBuildGrain) {
    std::vector<uint64_t> keys;
    sort_range(0, n, keys);
    return;
  }
  std::atomic<int> cursor{0};
  ThreadPool::Shared().RunOnWorkers(num_threads, [&](int) {
    std::vector<uint64_t> keys;
    for (;;) {
      const int begin = cursor.fetch_add(kBuildGrain,
                                         std::memory_order_relaxed);
      if (begin >= n) return;
      sort_range(begin, std::min(n, begin + kBuildGrain), keys);
    }
  });
}

// Splits the nodes [0, n) of a CSR side into `lanes` contiguous ranges
// holding about equal shares of its edges: lane l owns
// [split[l], split[l + 1]). Ranges may be empty (one hub row can hold
// several shares).
std::vector<NodeId> SplitByEdges(const PageVector<int32_t>& offsets,
                                 int lanes) {
  const int n = static_cast<int>(offsets.size()) - 1;
  const int64_t e = offsets[n];
  std::vector<NodeId> split(lanes + 1, n);
  split[0] = 0;
  for (int l = 1; l < lanes; ++l) {
    const int64_t share = e * l / lanes;
    split[l] = static_cast<NodeId>(
        std::lower_bound(offsets.begin(), offsets.begin() + n, share) -
        offsets.begin());
  }
  return split;
}

// Runs work(lane, part) once for every part in [0, parts) on `parts`
// pool lanes. The lanes claim parts from one cursor, so a lane that
// starts late, or a queued lane the caller reclaims and runs inline,
// finds the parts taken and adds no work. One part runs inline, without
// touching the pool.
template <typename Work>
void ForEachPart(int parts, const Work& work) {
  if (parts == 1) {
    work(0, 0);
    return;
  }
  std::atomic<int> cursor{0};
  ThreadPool::Shared().RunOnWorkers(parts, [&](int lane) {
    for (int part; (part = cursor.fetch_add(
                        1, std::memory_order_relaxed)) < parts;) {
      work(lane, part);
    }
  });
}

// Every node once, by descending degree(v), ties by ascending id: a stable
// counting sort in O(V + max degree), the order a std::stable_sort by
// descending degree gives.
template <typename DegreeFn>
std::vector<NodeId> OrderByDegree(int n, DegreeFn degree) {
  int max_degree = 0;
  for (NodeId v = 0; v < n; ++v) max_degree = std::max(max_degree, degree(v));
  // start[max_degree - d] = number of nodes with degree > d.
  std::vector<int32_t> start(max_degree + 2, 0);
  for (NodeId v = 0; v < n; ++v) ++start[max_degree - degree(v) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[start[max_degree - degree(v)]++] = v;
  return order;
}

}  // namespace

// The in-side CSR, dealt from the finished out-side by stable counting
// passes instead of a per-row sort. Every out edge is bucketed by
// (target range, label), each bucket in source order, so dealing a
// range's buckets label by label into its rows leaves every in-row
// (label, source)-sorted. The only edge-sized scratch is the buckets,
// 8 bytes per edge. The passes, each over `lanes` parts:
//   1. in-degrees, (source, label) runs and label counts, over source
//      parts;
//   2. with more than one target range, the label counts split by
//      target range, over source parts;
//   3. bucketing, over source parts: part p's edges of a bucket land
//      after those of the parts before p, so the bucket stays in source
//      order;
//   4. dealing, over target ranges: a range reads only its own buckets,
//      then sets its rows' masks and target counts.
// Source parts and target ranges are balanced by edge count. From
// kParallelBuildMinEdges on the parts run on pool lanes; below it, or at
// one thread, there is one part of each kind and no pool. Each part is
// done once, so the output is byte-identical at any lane count.
void GraphIndex::InvertOutSide(const Side& out, int num_threads, Side* in) {
  const int n = num_nodes_;
  const int e = out.offsets[n];
  const int num_labels = num_labels_;
  const int stats_size = std::max(num_labels, 1);
  // The partition must match the lanes RunOnWorkers really runs: it caps
  // them at the pool size plus the caller.
  const int lanes =
      num_threads <= 1 || e < kParallelBuildMinEdges
          ? 1
          : std::min(num_threads, ThreadPool::Shared().num_threads() + 1);
  const size_t cells = static_cast<size_t>(lanes) * num_labels;

  // 1. In-degrees, (source, label) runs and each part's label counts,
  //    stored as its range-0 row of `counts` (the whole answer on one
  //    lane). Lane 0 counts in-degrees straight into in->offsets
  //    (shifted by one), the other lanes into arrays of their own; each
  //    part tallies labels into vectors of its own, not into rows of the
  //    shared ones, which would share cache lines between lanes.
  //    counts[(part * lanes + range) * num_labels + label].
  const std::vector<NodeId> source_split = SplitByEdges(out.offsets, lanes);
  in->offsets.assign(n + 1, 0);
  std::vector<PageVector<int32_t>> lane_in_degrees(lanes);
  std::vector<int32_t> counts(static_cast<size_t>(lanes) * cells, 0);
  std::vector<int32_t> runs(cells, 0);
  ForEachPart(lanes, [&](int lane, int part) {
    PageVector<int32_t>& own = lane_in_degrees[lane];
    if (lane > 0 && own.empty()) own.assign(n + 1, 0);
    int32_t* in_degree = lane == 0 ? in->offsets.data() : own.data();
    std::vector<int32_t> own_counts(num_labels, 0), own_runs(num_labels, 0);
    for (NodeId v = source_split[part]; v < source_split[part + 1]; ++v) {
      Symbol prev = -1;
      for (int32_t i = out.offsets[v]; i < out.offsets[v + 1]; ++i) {
        const Symbol label = out.labels[i];
        ++own_counts[label];
        ++in_degree[out.targets[i] + 1];
        if (label != prev) ++own_runs[label];
        prev = label;
      }
    }
    std::copy(own_counts.begin(), own_counts.end(),
              counts.begin() + static_cast<size_t>(part) * cells);
    std::copy(own_runs.begin(), own_runs.end(),
              runs.begin() + static_cast<size_t>(part) * num_labels);
  });
  for (const PageVector<int32_t>& in_degree : lane_in_degrees) {
    if (in_degree.empty()) continue;
    for (NodeId v = 1; v <= n; ++v) in->offsets[v] += in_degree[v];
  }
  lane_in_degrees.clear();
  std::partial_sum(in->offsets.begin(), in->offsets.end(),
                   in->offsets.begin());

  // 2. On more lanes, split each part's label counts by target range,
  //    read from a node -> range table.
  const std::vector<NodeId> target_split = SplitByEdges(in->offsets, lanes);
  PageVector<uint16_t> range_of_node;
  if (lanes > 1) {
    range_of_node.resize(n);
    for (int range = 0; range < lanes; ++range) {
      std::fill(range_of_node.begin() + target_split[range],
                range_of_node.begin() + target_split[range + 1], range);
    }
    ForEachPart(lanes, [&](int, int part) {
      std::vector<int32_t> own_counts(cells, 0);
      for (int32_t i = out.offsets[source_split[part]];
           i < out.offsets[source_split[part + 1]]; ++i) {
        ++own_counts[static_cast<size_t>(range_of_node[out.targets[i]]) *
                         num_labels + out.labels[i]];
      }
      std::copy(own_counts.begin(), own_counts.end(),
                counts.begin() + static_cast<size_t>(part) * cells);
    });
  }
  auto range_of = [&](NodeId target) -> size_t {
    return lanes == 1 ? 0 : range_of_node[target];
  };

  // Bucket (range, label) spans bucket_start[range * num_labels + label]
  // up to the next bucket's start; `fill` is each part's first slot in it.
  label_counts_.assign(stats_size, 0);
  label_source_counts_.assign(stats_size, 0);
  std::vector<int32_t> bucket_start(cells + 1, e);
  std::vector<int32_t> fill(counts.size());
  int32_t at = 0;
  for (int range = 0; range < lanes; ++range) {
    for (Symbol label = 0; label < num_labels; ++label) {
      bucket_start[static_cast<size_t>(range) * num_labels + label] = at;
      for (int part = 0; part < lanes; ++part) {
        const size_t k = static_cast<size_t>(part) * cells +
                         static_cast<size_t>(range) * num_labels + label;
        fill[k] = at;
        at += counts[k];
        label_counts_[label] += counts[k];
      }
    }
  }
  for (size_t k = 0; k < runs.size(); ++k) {
    label_source_counts_[k % num_labels] += runs[k];
  }

  // 3.
  PageVector<std::pair<NodeId, NodeId>> buckets(e);  // (source, target)
  ForEachPart(lanes, [&](int, int part) {
    const auto row = fill.begin() + static_cast<size_t>(part) * cells;
    std::vector<int32_t> next(row, row + cells);
    for (NodeId v = source_split[part]; v < source_split[part + 1]; ++v) {
      for (int32_t i = out.offsets[v]; i < out.offsets[v + 1]; ++i) {
        const NodeId target = out.targets[i];
        buckets[next[range_of(target) * num_labels + out.labels[i]]++] = {
            v, target};
      }
    }
  });

  // 4.
  in->labels.resize(e);
  in->targets.resize(e);
  in->masks.resize(n);
  std::vector<int64_t> range_target_counts(
      static_cast<size_t>(lanes) * stats_size, 0);
  ForEachPart(lanes, [&](int, int range) {
    const NodeId lo = target_split[range];
    const NodeId hi = target_split[range + 1];
    PageVector<int32_t> cursor(in->offsets.begin() + lo,
                               in->offsets.begin() + hi);
    const size_t first = static_cast<size_t>(range) * num_labels;
    int32_t i = bucket_start[first];
    for (Symbol label = 0; label < num_labels; ++label) {
      for (; i < bucket_start[first + label + 1]; ++i) {
        const auto [source, target] = buckets[i];
        const int32_t slot = cursor[target - lo]++;
        in->labels[slot] = label;
        in->targets[slot] = source;
      }
    }
    std::vector<int64_t> target_counts(stats_size, 0);
    for (NodeId v = lo; v < hi; ++v) {
      Symbol prev = -1;
      uint64_t mask = 0;
      for (int32_t j = in->offsets[v]; j < in->offsets[v + 1]; ++j) {
        const Symbol label = in->labels[j];
        if (label != prev) ++target_counts[label];
        prev = label;
        mask |= 1ULL << std::min<Symbol>(label, 63);
      }
      in->masks[v] = mask;
    }
    std::copy(target_counts.begin(), target_counts.end(),
              range_target_counts.begin() +
                  static_cast<size_t>(range) * stats_size);
  });
  label_target_counts_.assign(stats_size, 0);
  for (size_t k = 0; k < range_target_counts.size(); ++k) {
    label_target_counts_[k % stats_size] += range_target_counts[k];
  }
}

GraphIndexPtr GraphIndex::Build(const GraphDb& graph) {
  return Build(graph, /*num_threads=*/0);
}

GraphIndexPtr GraphIndex::Build(const GraphDb& graph, int num_threads) {
  ECRPQ_DCHECK(graph.has_adjacency());
  const int n = graph.num_nodes();
  OutRows rows;
  rows.offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    rows.offsets[v + 1] =
        rows.offsets[v] + static_cast<int32_t>(graph.Out(v).size());
  }
  rows.labels.resize(graph.num_edges());
  rows.targets.resize(graph.num_edges());
  return Seal(graph, &graph, std::move(rows), num_threads);
}

GraphIndexPtr GraphIndex::FromOutRows(const GraphDb& catalog, OutRows rows,
                                      int num_threads) {
  return Seal(catalog, nullptr, std::move(rows), num_threads);
}

GraphIndexPtr GraphIndex::Seal(const GraphDb& catalog, const GraphDb* source,
                               OutRows rows, int num_threads) {
  ECRPQ_DCHECK(static_cast<int>(rows.offsets.size()) ==
               catalog.num_nodes() + 1);
  ECRPQ_DCHECK(rows.offsets.back() == catalog.num_edges());
  if (num_threads <= 0) {
    num_threads = catalog.num_edges() >= kParallelBuildMinEdges
                      ? ThreadPool::DefaultParallelism()
                      : 1;
  }
  auto index = std::shared_ptr<GraphIndex>(new GraphIndex());
  index->num_nodes_ = catalog.num_nodes();
  index->num_edges_ = catalog.num_edges();
  index->num_labels_ = catalog.alphabet().size();
  index->version_ = catalog.version();

  auto base = std::make_shared<Base>();
  base->num_nodes = catalog.num_nodes();
  SortOutRows(num_threads, source, &rows, &base->out.masks);
  base->out.offsets = std::move(rows.offsets);
  base->out.labels = std::move(rows.labels);
  base->out.targets = std::move(rows.targets);
  index->InvertOutSide(base->out, num_threads, &base->in);
  index->base_ = base;
  index->bout_ = &base->out;
  index->bin_ = &base->in;
  index->base_num_nodes_ = catalog.num_nodes();
  index->base_num_edges_ = catalog.num_edges();
  index->EnsureDegreeOrders();
  return index;
}

// One side of a fold: every row of the new base is copied from the overlay
// row that shadows it or else from the old base, with its mask. Nodes past
// the old base without an overlay row are edge-less.
void GraphIndex::FoldSide(const Overlay& overlay, const Side& old,
                          Side* side) const {
  const int n = num_nodes_;
  auto base_len = [&](NodeId v) {
    return v < base_num_nodes_ ? old.offsets[v + 1] - old.offsets[v] : 0;
  };
  side->offsets.resize(n + 1);
  side->offsets[0] = 0;
  size_t k = 0;
  for (NodeId v = 0; v < n; ++v) {
    const bool shadowed = k < overlay.nodes.size() && overlay.nodes[k] == v;
    side->offsets[v + 1] =
        side->offsets[v] + (shadowed ? overlay.rows[k++].len : base_len(v));
  }
  side->labels.resize(side->offsets[n]);
  side->targets.resize(side->offsets[n]);
  side->masks.resize(n);
  k = 0;
  for (NodeId v = 0; v < n; ++v) {
    const int32_t at = side->offsets[v];
    if (k < overlay.nodes.size() && overlay.nodes[k] == v) {
      const RowRef& row = overlay.rows[k++];
      std::copy_n(row.labels, row.len, side->labels.data() + at);
      std::copy_n(row.targets, row.len, side->targets.data() + at);
      side->masks[v] = row.mask;
    } else if (v < base_num_nodes_) {
      std::copy(old.labels.begin() + old.offsets[v],
                old.labels.begin() + old.offsets[v + 1],
                side->labels.begin() + at);
      std::copy(old.targets.begin() + old.offsets[v],
                old.targets.begin() + old.offsets[v + 1],
                side->targets.begin() + at);
      side->masks[v] = old.masks[v];
    } else {
      side->masks[v] = 0;
    }
  }
}

GraphIndexPtr GraphIndex::Fold() const {
  auto index = std::shared_ptr<GraphIndex>(new GraphIndex());
  index->num_nodes_ = num_nodes_;
  index->num_edges_ = num_edges_;
  index->num_labels_ = num_labels_;
  index->version_ = version_;
  auto base = std::make_shared<Base>();
  base->num_nodes = num_nodes_;
  FoldSide(out_overlay_, *bout_, &base->out);
  FoldSide(in_overlay_, *bin_, &base->in);
  index->base_ = base;
  index->bout_ = &base->out;
  index->bin_ = &base->in;
  index->base_num_nodes_ = num_nodes_;
  index->base_num_edges_ = num_edges_;
  index->label_counts_ = label_counts_;
  index->label_source_counts_ = label_source_counts_;
  index->label_target_counts_ = label_target_counts_;
  index->EnsureDegreeOrders();
  return index;
}

// Builds one direction of the new snapshot's segment: for every node the
// batch touches on this side, the node's full logical row is re-merged
// (previous view ⊎ adds ∖ removes, multiset semantics, (label, target)
// order) into seg_side, and the overlay directory of `next` is spliced to
// resolve those nodes into the new segment. Also maintains the side's
// distinct-endpoint label statistics on `next`.
void GraphIndex::ApplySide(const GraphIndex& prev, bool out_side,
                           const Delta& delta, GraphIndex* next,
                           SegSide* seg_side, std::vector<NodeId>* touched) {
  // (node, packed (label, other)) pairs of the batch, sorted.
  auto collect = [&](const std::vector<Edge>& edges) {
    std::vector<std::pair<NodeId, uint64_t>> items;
    items.reserve(edges.size());
    for (const Edge& e : edges) {
      items.emplace_back(out_side ? e.from : e.to,
                         PackKey(e.label, out_side ? e.to : e.from));
    }
    std::sort(items.begin(), items.end());
    return items;
  };
  const auto adds = collect(delta.added);
  const auto removes = collect(delta.removed);

  touched->clear();
  for (const auto& [node, key] : adds) touched->push_back(node);
  for (const auto& [node, key] : removes) touched->push_back(node);
  std::sort(touched->begin(), touched->end());
  touched->erase(std::unique(touched->begin(), touched->end()),
                 touched->end());
  if (touched->empty()) return;

  std::vector<uint64_t> row_masks;
  row_masks.reserve(touched->size());
  std::vector<uint64_t> merged;  // scratch: one row's packed keys
  auto add_it = adds.begin();
  auto rem_it = removes.begin();
  std::vector<int64_t>& endpoint_counts =
      out_side ? next->label_source_counts_ : next->label_target_counts_;

  for (NodeId v : *touched) {
    // Previous logical row of v, already (label, target)-sorted. Nodes
    // the batch freshly created (>= prev.num_nodes_) have no previous
    // row — and are out of range for prev's accessors.
    std::span<const Symbol> old_labels;
    std::span<const NodeId> old_targets;
    if (v < prev.num_nodes_) {
      old_labels = out_side ? prev.OutLabels(v) : prev.InLabels(v);
      old_targets = out_side ? prev.OutTargets(v) : prev.InSources(v);
    }

    merged.clear();
    // Merge old row with this node's adds (both sorted by packed key).
    size_t oi = 0;
    while (add_it != adds.end() && add_it->first == v &&
           oi < old_labels.size()) {
      const uint64_t old_key = PackKey(old_labels[oi], old_targets[oi]);
      if (old_key <= add_it->second) {
        merged.push_back(old_key);
        ++oi;
      } else {
        merged.push_back(add_it->second);
        ++add_it;
      }
    }
    for (; oi < old_labels.size(); ++oi) {
      merged.push_back(PackKey(old_labels[oi], old_targets[oi]));
    }
    for (; add_it != adds.end() && add_it->first == v; ++add_it) {
      merged.push_back(add_it->second);
    }
    // Multiset-subtract this node's removes: each remove entry deletes
    // one instance of its key (Database validated existence, so every
    // remove key is present in the merged row).
    if (rem_it != removes.end() && rem_it->first == v) {
      size_t w = 0;
      for (size_t r = 0; r < merged.size(); ++r) {
        if (rem_it != removes.end() && rem_it->first == v &&
            rem_it->second == merged[r]) {
          ++rem_it;
          continue;
        }
        merged[w++] = merged[r];
      }
      merged.resize(w);
      while (rem_it != removes.end() && rem_it->first == v) ++rem_it;
    }

    // Write the merged row into the segment and diff the distinct label
    // sets against the old row (planner endpoint statistics).
    uint64_t mask = 0;
    Symbol prev_label = -1;
    for (uint64_t key : merged) {
      const Symbol label = static_cast<Symbol>(key >> 32);
      seg_side->labels.push_back(label);
      seg_side->targets.push_back(static_cast<NodeId>(
          static_cast<uint32_t>(key)));
      mask |= 1ULL << std::min<Symbol>(label, 63);
      if (label != prev_label) {
        prev_label = label;
        ++endpoint_counts[label];
      }
    }
    prev_label = -1;
    for (Symbol label : old_labels) {
      if (label != prev_label) {
        prev_label = label;
        --endpoint_counts[label];
      }
    }
    seg_side->offsets.push_back(
        static_cast<int32_t>(seg_side->labels.size()));
    row_masks.push_back(mask);
  }

  // Splice the touched rows into the overlay directory: one merge of the
  // previous directory (superseded entries dropped) with the new rows.
  // Raw pointers into older segments stay valid — the snapshot retains
  // every segment shared_ptr.
  const Overlay& old_overlay =
      out_side ? prev.out_overlay_ : prev.in_overlay_;
  Overlay& overlay = out_side ? next->out_overlay_ : next->in_overlay_;
  overlay.nodes.reserve(old_overlay.nodes.size() + touched->size());
  overlay.rows.reserve(old_overlay.rows.size() + touched->size());
  size_t a = 0, b = 0;
  auto push_new = [&](size_t i) {
    overlay.nodes.push_back((*touched)[i]);
    overlay.rows.push_back(
        RowRef{seg_side->labels.data() + seg_side->offsets[i],
               seg_side->targets.data() + seg_side->offsets[i],
               seg_side->offsets[i + 1] - seg_side->offsets[i],
               row_masks[i]});
  };
  while (a < old_overlay.nodes.size() && b < touched->size()) {
    if (old_overlay.nodes[a] < (*touched)[b]) {
      overlay.nodes.push_back(old_overlay.nodes[a]);
      overlay.rows.push_back(old_overlay.rows[a]);
      ++a;
    } else {
      if (old_overlay.nodes[a] == (*touched)[b]) ++a;  // superseded
      push_new(b++);
    }
  }
  for (; a < old_overlay.nodes.size(); ++a) {
    overlay.nodes.push_back(old_overlay.nodes[a]);
    overlay.rows.push_back(old_overlay.rows[a]);
  }
  for (; b < touched->size(); ++b) push_new(b);
}

// Materializes the degree permutations on first use: two counting sorts
// over the snapshot's own degrees, O(V + max degree) plus one overlay
// lookup per node and side on a delta snapshot. A sealed base runs it as
// it is built; a delta snapshot defers it to its first reader, so the
// write path stays O(delta) and no snapshot refers to an older one.
// Double-checked: once materialized the accessor cost is a single
// acquire load.
void GraphIndex::EnsureDegreeOrders() const {
  if (orders_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(orders_mutex_);
  if (orders_ready_.load(std::memory_order_relaxed)) return;
  by_degree_ = OrderByDegree(num_nodes_, [&](NodeId v) {
    return out_degree(v) + in_degree(v);
  });
  by_in_degree_ =
      OrderByDegree(num_nodes_, [&](NodeId v) { return in_degree(v); });
  orders_ready_.store(true, std::memory_order_release);
}

GraphIndexPtr GraphIndex::ApplyDelta(const Delta& delta) const {
  auto next = std::shared_ptr<GraphIndex>(new GraphIndex());
  next->num_nodes_ = std::max(delta.new_num_nodes, num_nodes_);
  next->num_edges_ = num_edges_ + static_cast<int>(delta.added.size()) -
                     static_cast<int>(delta.removed.size());
  next->num_labels_ = std::max(delta.new_num_labels, num_labels_);
  next->version_ = delta.new_version;
  next->base_ = base_;
  next->bout_ = bout_;
  next->bin_ = bin_;
  next->base_num_nodes_ = base_num_nodes_;
  next->base_num_edges_ = base_num_edges_;
  next->segments_ = segments_;
  next->overlay_path_ = true;

  const int stats_size = std::max(next->num_labels_, 1);
  auto copy_resized = [&](const std::vector<int64_t>& from,
                          std::vector<int64_t>* to) {
    *to = from;
    to->resize(stats_size, 0);
  };
  copy_resized(label_counts_, &next->label_counts_);
  copy_resized(label_source_counts_, &next->label_source_counts_);
  copy_resized(label_target_counts_, &next->label_target_counts_);
  for (const Edge& e : delta.added) ++next->label_counts_[e.label];
  for (const Edge& e : delta.removed) --next->label_counts_[e.label];

  auto seg = std::make_shared<DeltaSegment>();
  std::vector<NodeId> touched_out, touched_in;
  ApplySide(*this, /*out_side=*/true, delta, next.get(), &seg->out,
            &touched_out);
  ApplySide(*this, /*out_side=*/false, delta, next.get(), &seg->in,
            &touched_in);
  if (!touched_out.empty() || !touched_in.empty()) {
    next->segments_.push_back(std::move(seg));
  } else {
    // Node-only batch: no rows changed, but the directories must still
    // resolve (they were never spliced — inherit the previous ones).
    next->out_overlay_ = out_overlay_;
    next->in_overlay_ = in_overlay_;
  }
  next->delta_edges_ = 0;
  for (const RowRef& row : next->out_overlay_.rows) {
    next->delta_edges_ += row.len;
  }
  return next;
}

}  // namespace ecrpq
