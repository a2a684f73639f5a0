#include "graph/io.h"

#include <charconv>
#include <span>
#include <sstream>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ecrpq {

namespace {
std::vector<std::string> SplitWhitespace(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) out.push_back(token);
  return out;
}
}  // namespace

Result<GraphDb> ParseGraphText(std::string_view text, AlphabetPtr alphabet) {
  if (alphabet == nullptr) alphabet = std::make_shared<Alphabet>();
  GraphDb graph(alphabet);
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::vector<std::string> tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "node") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected 'node <name>'");
      }
      graph.AddNode(tokens[1]);
    } else if (tokens[0] == "label") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected 'label <name>'");
      }
      alphabet->Intern(tokens[1]);
    } else if (tokens[0] == "edge") {
      if (tokens.size() != 4) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": expected 'edge <from> <label> <to>'");
      }
      NodeId from = graph.AddNode(tokens[1]);
      NodeId to = graph.AddNode(tokens[3]);
      graph.AddEdge(from, tokens[2], to);
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown directive '" + tokens[0] +
                                     "'");
    }
  }
  return graph;
}

namespace {

// GraphToText over any edge source: `for_each_out(v, emit)` calls
// emit(label, target) once per out-edge of v.
template <typename ForEachOut>
std::string GraphText(const GraphDb& graph, ForEachOut for_each_out) {
  // Anonymous nodes have no stored name; they are exported under their
  // "n<id>" display name. When a *named* node already owns that string,
  // reusing it verbatim would merge the two nodes on re-import, so the
  // synthetic name is disambiguated with trailing underscores.
  std::vector<std::string> display(graph.num_nodes());
  std::unordered_set<std::string> used;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    std::string name = graph.NodeName(v);
    if (graph.FindNode(name) == v) {  // truly named node
      display[v] = std::move(name);
      used.insert(display[v]);
    }
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (!display[v].empty()) continue;
    std::string name = graph.NodeName(v);
    while (used.count(name) > 0) name += "_";
    display[v] = std::move(name);
    used.insert(display[v]);
  }

  std::string out;
  for (Symbol a = 0; a < graph.alphabet().size(); ++a) {
    out += "label " + graph.alphabet().Label(a) + "\n";
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    out += "node " + display[v] + "\n";
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for_each_out(v, [&](Symbol label, NodeId to) {
      out += "edge " + display[v] + " " + graph.alphabet().Label(label) +
             " " + display[to] + "\n";
    });
  }
  return out;
}

}  // namespace

std::string GraphToText(const GraphDb& graph) {
  return GraphText(graph, [&](NodeId v, const auto& emit) {
    for (const auto& [label, to] : graph.Out(v)) emit(label, to);
  });
}

std::string GraphToText(const GraphDb& catalog, const GraphIndex& snapshot) {
  return GraphText(catalog, [&](NodeId v, const auto& emit) {
    const std::span<const Symbol> labels = snapshot.OutLabels(v);
    const std::span<const NodeId> targets = snapshot.OutTargets(v);
    for (size_t i = 0; i < labels.size(); ++i) emit(labels[i], targets[i]);
  });
}

Result<GraphDb> ParseEdgeListText(std::string_view text,
                                  AlphabetPtr alphabet) {
  if (alphabet == nullptr) alphabet = std::make_shared<Alphabet>();
  // Cursor-based tokenizer: newlines are whitespace (the format is
  // positional — header, labels, then 3 integers per edge), '#' comments
  // run to end of line, and integers parse in place with from_chars — no
  // per-line string allocation on the multi-million-edge path.
  const char* p = text.data();
  const char* end = p + text.size();
  int line = 1;
  auto skip = [&] {
    while (p < end) {
      if (*p == '#') {
        while (p < end && *p != '\n') ++p;
      } else if (*p == '\n') {
        ++line;
        ++p;
      } else if (*p == ' ' || *p == '\t' || *p == '\r') {
        ++p;
      } else {
        break;
      }
    }
  };
  auto error = [&](const std::string& what) {
    return Status::InvalidArgument("edge-list line " + std::to_string(line) +
                                   ": " + what);
  };
  auto word = [&](std::string_view* out) {
    skip();
    const char* b = p;
    while (p < end && *p != ' ' && *p != '\t' && *p != '\r' && *p != '\n' &&
           *p != '#') {
      ++p;
    }
    *out = std::string_view(b, p - b);
    return !out->empty();
  };
  auto integer = [&](int64_t* out) {
    skip();
    auto [ptr, ec] = std::from_chars(p, end, *out);
    if (ec != std::errc()) return false;
    p = ptr;
    return true;
  };

  std::string_view magic;
  if (!word(&magic) || magic != "ecrpq-edgelist") {
    return error("expected 'ecrpq-edgelist <nodes> <edges> <labels>' header");
  }
  int64_t num_nodes = 0, num_edges = 0, num_labels = 0;
  if (!integer(&num_nodes) || !integer(&num_edges) || !integer(&num_labels) ||
      num_nodes < 0 || num_edges < 0 || num_labels < 0 ||
      num_nodes > INT32_MAX || num_edges > INT32_MAX) {
    return error("malformed header counts");
  }
  for (int64_t l = 0; l < num_labels; ++l) {
    std::string_view name;
    if (!word(&name)) {
      return error("expected " + std::to_string(num_labels) +
                   " label names, got " + std::to_string(l));
    }
    alphabet->Intern(name);
  }
  // Each edge line holds three integers, each after a separator: at least
  // 6 bytes. Bound the declared count by what is left before reserving.
  if (num_edges > (end - p) / 6) {
    return error("header declares " + std::to_string(num_edges) +
                 " edges but only " + std::to_string(end - p) +
                 " bytes remain (an edge takes at least 6)");
  }
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (int64_t i = 0; i < num_edges; ++i) {
    int64_t from = 0, label = 0, to = 0;
    if (!integer(&from) || !integer(&label) || !integer(&to)) {
      return error("expected '<from> <label> <to>' for edge " +
                   std::to_string(i) + " of " + std::to_string(num_edges));
    }
    if (from < 0 || from >= num_nodes || to < 0 || to >= num_nodes) {
      return error("edge " + std::to_string(i) + ": node id out of range");
    }
    if (label < 0 || label >= alphabet->size()) {
      return error("edge " + std::to_string(i) + ": label id out of range");
    }
    edges.push_back({static_cast<NodeId>(from), static_cast<Symbol>(label),
                     static_cast<NodeId>(to)});
  }
  skip();
  if (p < end) return error("trailing content after declared edge count");
  return GraphDb::FromEdges(std::move(alphabet),
                            static_cast<int>(num_nodes), edges);
}

std::string GraphToEdgeListText(const GraphDb& graph) {
  std::string out = "ecrpq-edgelist " + std::to_string(graph.num_nodes()) +
                    " " + std::to_string(graph.num_edges()) + " " +
                    std::to_string(graph.alphabet().size()) + "\n";
  for (Symbol a = 0; a < graph.alphabet().size(); ++a) {
    out += graph.alphabet().Label(a);
    out += '\n';
  }
  out.reserve(out.size() + static_cast<size_t>(graph.num_edges()) * 24);
  char buf[64];
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const auto& [label, to] : graph.Out(v)) {
      const int n = std::snprintf(buf, sizeof(buf), "%d %d %d\n", v,
                                  static_cast<int>(label), to);
      out.append(buf, n);
    }
  }
  return out;
}

std::string GraphToDot(const GraphDb& graph) {
  std::string out = "digraph G {\n";
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    out += "  \"" + graph.NodeName(v) + "\";\n";
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const auto& [label, to] : graph.Out(v)) {
      out += "  \"" + graph.NodeName(v) + "\" -> \"" + graph.NodeName(to) +
             "\" [label=\"" + graph.alphabet().Label(label) + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace ecrpq
