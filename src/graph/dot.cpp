#include "src/graph/dot.h"

#include <ostream>
#include <sstream>

namespace delirium {

namespace {

const char* node_shape(NodeKind kind) {
  switch (kind) {
    case NodeKind::kConst: return "plaintext";
    case NodeKind::kParam: return "invtriangle";
    case NodeKind::kOperator: return "box";
    case NodeKind::kTupleMake:
    case NodeKind::kTupleGet: return "hexagon";
    case NodeKind::kMakeClosure: return "note";
    case NodeKind::kCall:
    case NodeKind::kCallClosure: return "doubleoctagon";
    case NodeKind::kIfDispatch: return "diamond";
    case NodeKind::kParMap: return "tripleoctagon";
    case NodeKind::kReturn: return "triangle";
    case NodeKind::kFused: return "box3d";
  }
  return "box";
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string const_label(const ConstValue& v) {
  if (std::holds_alternative<std::monostate>(v)) return "NULL";
  if (const auto* i = std::get_if<int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return std::to_string(*d);
  return "\\\"" + std::get<std::string>(v) + "\\\"";
}

std::string node_id(uint32_t tmpl, uint32_t node) {
  return std::string("t")
      .append(std::to_string(tmpl))
      .append("_n")
      .append(std::to_string(node));
}

}  // namespace

void write_template_dot(std::ostream& os, const Template& tmpl, uint32_t index) {
  os << "  subgraph cluster_" << index << " {\n";
  os << "    label=\"" << escape(tmpl.name) << (tmpl.recursive ? " (recursive)" : "")
     << "\";\n";
  os << "    style=rounded;\n";
  for (uint32_t ni = 0; ni < tmpl.nodes.size(); ++ni) {
    const Node& n = tmpl.nodes[ni];
    std::string label = n.debug_label;
    if (n.kind == NodeKind::kConst) label = const_label(n.literal);
    if (label.empty()) label.append("n").append(std::to_string(ni));
    if (n.is_tail) label += " [tail]";
    os << "    " << node_id(index, ni) << " [shape=" << node_shape(n.kind) << ",label=\""
       << escape(label) << "\"];\n";
  }
  for (uint32_t ni = 0; ni < tmpl.nodes.size(); ++ni) {
    for (const PortRef& c : tmpl.nodes[ni].consumers) {
      os << "    " << node_id(index, ni) << " -> " << node_id(index, c.node)
         << " [label=\"" << c.port << "\"];\n";
    }
  }
  os << "  }\n";
}

void write_program_dot(std::ostream& os, const CompiledProgram& program) {
  os << "digraph delirium {\n";
  os << "  rankdir=TB;\n";
  os << "  node [fontsize=10];\n";
  for (uint32_t ti = 0; ti < program.templates.size(); ++ti) {
    write_template_dot(os, *program.templates[ti], ti);
  }
  // Inter-template references: calls and closure creation.
  for (uint32_t ti = 0; ti < program.templates.size(); ++ti) {
    const Template& t = *program.templates[ti];
    for (uint32_t ni = 0; ni < t.nodes.size(); ++ni) {
      const Node& n = t.nodes[ni];
      if (n.kind == NodeKind::kCall || n.kind == NodeKind::kMakeClosure) {
        const Template& target = *program.templates[n.target_template];
        if (!target.nodes.empty()) {
          os << "  " << node_id(ti, ni) << " -> " << node_id(n.target_template, 0)
             << " [style=dashed,color=gray,lhead=cluster_" << n.target_template << "];\n";
        }
      }
    }
  }
  os << "}\n";
}

std::string program_to_dot(const CompiledProgram& program) {
  std::ostringstream os;
  write_program_dot(os, program);
  return os.str();
}

}  // namespace delirium
