// The compile ladder: compile_source's pass order replayed pass by pass
// from the benchmark, so each layer of the front end and the graph
// analyses gets its own time and count. The replay must produce the
// program compile_source produces; the analyze-JSON report of both is
// compared byte for byte.
#pragma once

#include <cstddef>
#include <string>

#include "src/core/compiler.h"

namespace delbench {

struct LadderSample {
  double lex_ms = 0, parse_ms = 0, macro_ms = 0, env_ms = 0, opt_ms = 0, build_ms = 0;
  double graph_opt_ms = 0;   // every optimize_graphs round, final facts included
  double facts_ms = 0;       // one compute_graph_facts call on the final graphs
  double sched_hints_ms = 0, sole_consumer_ms = 0;
  size_t tokens = 0, ast_nodes = 0, nodes_built = 0, graph_opt_rounds = 0, nodes_final = 0;
  size_t chains_fused = 0, consts_folded = 0;
  bool ok = false;
  /// tools::render_analysis_json of the replayed compile.
  std::string analysis_json;
};

/// Replay compile_source(name, text, operators, options) pass by pass.
/// Release-build semantics: the graph verifier runs only when
/// options.verify is set.
LadderSample replay_compile(const std::string& name, const std::string& text,
                            const delirium::OperatorTable& operators,
                            const delirium::CompileOptions& options);

/// tools::render_analysis_json of compile_source's own result.
std::string reference_analysis_json(const std::string& name, const std::string& text,
                                    const delirium::OperatorTable& operators,
                                    const delirium::CompileOptions& options);

}  // namespace delbench
