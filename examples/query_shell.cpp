// Interactive query shell: load a graph (text format of graph/io.h) and
// evaluate (E)CRPQs against it through the Database facade. Repeated
// queries hit the plan cache; results stream through a cursor.
//
//   $ ./query_shell graph.txt
//   ecrpq> Ans(x, y) <- (x, p, y), 'advisor'+(p)
//   ecrpq> Ans(p) <- ("ann", p, "leo"), .*(p)
//   ecrpq> explain Ans(x, y) <- (x, p, y), 'advisor'+(p)
//   ecrpq> threads 4     # worker lanes per query (0 = auto, 1 = serial)
//   ecrpq> :graph        # show the loaded graph
//   ecrpq> :cache        # plan-cache hit/miss counters
//   ecrpq> :quit
//
// Without an argument a small demo graph is loaded.

#include <fstream>
#include <iostream>
#include <sstream>

#include "api/api.h"
#include "graph/io.h"

using namespace ecrpq;

namespace {

GraphDb DemoGraph() {
  GraphDb g;
  NodeId ann = g.AddNode("ann");
  NodeId bob = g.AddNode("bob");
  NodeId eva = g.AddNode("eva");
  NodeId leo = g.AddNode("leo");
  g.AddEdge(ann, "advisor", eva);
  g.AddEdge(bob, "advisor", eva);
  g.AddEdge(eva, "advisor", leo);
  g.AddEdge(bob, "coauthor", ann);
  return g;
}

// Worker lanes per execution: 0 = session default (ECRPQ_THREADS env or
// hardware concurrency), 1 = the serial legacy path. Set by `threads <n>`.
int g_threads = 0;

// Print the per-operator profile after each query (toggled by `stats`):
// one line per executed operator with rows, frontier/visited counters,
// the leaf's search direction (direction=fwd|bwd|bidir) and — for
// bidirectional leaves — the meet-probe count (meet_checks=N).
bool g_stats = false;

void PrintOperatorStats(const EvalStats& stats) {
  for (const OperatorStats& op : stats.operators) {
    std::cout << "    " << op.Describe() << "\n";
  }
}

void StreamResult(const GraphDb& g, const PreparedQuery& prepared,
                  ResultCursor& cursor) {
  if (prepared.query().IsBoolean()) {
    bool satisfiable = cursor.exists();
    if (!cursor.status().ok()) {
      std::cout << "evaluation error: " << cursor.status().ToString() << "\n";
      return;
    }
    std::cout << (satisfiable ? "true" : "false");
    std::cout << "  [engine: " << cursor.stats().engine << "]\n";
    if (g_stats) PrintOperatorStats(cursor.stats());
    return;
  }
  size_t shown = 0;
  while (shown < 20 && cursor.Next()) {
    ++shown;
    const auto& tuple = cursor.tuple();
    std::cout << "  (";
    for (size_t k = 0; k < tuple.size(); ++k) {
      if (k > 0) std::cout << ", ";
      std::cout << g.NodeName(tuple[k]);
    }
    std::cout << ")";
    if (const PathAnswerSet* answers = cursor.path_answers()) {
      std::cout << (answers->IsInfinite() ? "  [∞ paths]" : "");
      auto tuples = answers->Enumerate(1, 8);
      if (!tuples.empty()) {
        for (const Path& p : tuples[0]) {
          std::cout << "\n      " << p.ToString(g);
        }
      }
    }
    std::cout << "\n";
  }
  if (!cursor.status().ok()) {
    std::cout << "evaluation error: " << cursor.status().ToString() << "\n";
    return;
  }
  size_t more = 0;
  while (cursor.Next()) ++more;  // count the tail without printing
  std::cout << shown + more << " answer(s)";
  if (more > 0) std::cout << "  (" << more << " not shown)";
  std::cout << "  [engine: " << cursor.stats().engine << "]\n";
  if (g_stats) PrintOperatorStats(cursor.stats());
}

}  // namespace

int main(int argc, char** argv) {
  GraphDb graph = DemoGraph();
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = ParseGraphText(buffer.str());
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 1;
    }
    graph = std::move(parsed).value();
  }

  DatabaseOptions options;
  options.eval.max_configs = 10000000;
  Database db(std::move(graph), options);

  std::cout << "Loaded graph: " << db.graph().num_nodes() << " nodes, "
            << db.graph().num_edges() << " edges, alphabet {";
  for (Symbol s = 0; s < db.graph().alphabet().size(); ++s) {
    std::cout << (s ? ", " : "") << db.graph().alphabet().Label(s);
  }
  std::cout << "}\nType a query (Ans(...) <- ...), :graph, :help or :quit\n";

  std::string line;
  while (std::cout << "ecrpq> " && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ":quit" || line == ":q") break;
    if (line == ":graph") {
      std::cout << GraphToText(db.graph(), *db.graph_index());
      continue;
    }
    if (line == ":cache") {
      std::cout << "  plan cache: " << db.plan_cache_size() << " plans, "
                << db.plan_cache_hits() << " hits, "
                << db.plan_cache_misses() << " misses\n";
      continue;
    }
    if (line == ":help") {
      std::cout << "  Ans(x, y) <- (x, p, y), a*(p)          CRPQ\n"
                   "  Ans() <- (x, p, z), (z, q, y), eq(p, q) ECRPQ\n"
                   "  Ans() <- (x, p, y), len(p) >= 3         counting\n"
                   "  Ans(y) <- ($s, p, y), a*(p)             $parameter\n"
                   "  explain <query>                         show the plan "
                   "(direction=fwd|bwd|bidir and\n"
                   "    parallelism=N per leaf: worker lanes — 1 = "
                   "estimated too small or one search)\n"
                   "  threads <n>                             worker lanes "
                   "(0 = auto, 1 = serial)\n"
                   "  stats                                   toggle the "
                   "per-operator profile (direction, meet_checks)\n"
                   "  built-ins: eq el prefix strict_prefix shorter\n"
                   "             shorter_eq edit1..3 hamming1..3\n"
                   "  :graph :cache :help :quit\n";
      continue;
    }
    if (line == "stats") {
      g_stats = !g_stats;
      std::cout << "  per-operator stats "
                << (g_stats ? "on (direction= and meet_checks= shown per "
                              "leaf)"
                            : "off")
                << "\n";
      continue;
    }
    if (line.rfind("threads", 0) == 0) {
      std::istringstream args(line.substr(7));
      int n = -1;
      if (args >> n && n >= 0) {
        g_threads = n;
        std::cout << "  threads = " << n
                  << (n == 0 ? " (auto)" : n == 1 ? " (serial)" : "")
                  << "\n";
      } else {
        std::cout << "  usage: threads <n>   (current: " << g_threads
                  << ", 0 = auto, 1 = serial)\n";
      }
      continue;
    }
    if (line.rfind("explain ", 0) == 0) {
      auto prepared = db.Prepare(line.substr(8));
      if (!prepared.ok()) {
        std::cout << "parse error: " << prepared.status().ToString() << "\n";
        continue;
      }
      std::cout << prepared.value().Explain().ToString();
      continue;
    }
    auto prepared = db.Prepare(line);
    if (!prepared.ok()) {
      std::cout << "parse error: " << prepared.status().ToString() << "\n";
      continue;
    }
    std::cout << "[" << prepared.value().analysis().Describe();
    const OptimizerReport& report = prepared.value().optimizer_report();
    if (report.fused_language_atoms + report.dropped_universal > 0) {
      std::cout << "; optimizer: " << report.Describe();
    }
    std::cout << "]\n";
    if (report.proven_empty) {
      std::cout << "statically empty\n";
      continue;
    }
    if (!prepared.value().parameter_names().empty()) {
      std::cout << "query has unbound parameters:";
      for (const std::string& p : prepared.value().parameter_names()) {
        std::cout << " $" << p;
      }
      std::cout << " (the shell cannot bind them; inline constants)\n";
      continue;
    }
    ExecuteOptions exec;
    if (g_threads > 0) exec.num_threads = g_threads;
    auto cursor = prepared.value().Execute({}, exec);
    if (!cursor.ok()) {
      std::cout << "evaluation error: " << cursor.status().ToString() << "\n";
      continue;
    }
    StreamResult(db.graph(), prepared.value(), cursor.value());
  }
  return 0;
}
