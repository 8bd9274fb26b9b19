#include "ladder.h"

#include <stdexcept>

#include "spans.h"
#include "src/graph/graph_builder.h"
#include "src/lang/lexer.h"
#include "src/lang/macro.h"
#include "src/lang/parser.h"
#include "src/support/clock.h"
#include "src/support/diagnostics.h"
#include "src/support/source.h"
#include "src/tools/analysis_json.h"

namespace delbench {

using namespace delirium;

namespace {

size_t count_program_nodes(const Program& program) {
  size_t n = 0;
  for (const FuncDecl* f : program.functions) n += subtree_weight(f->body);
  return n;
}

/// Time one pass under its span; returns milliseconds.
template <typename Fn>
double timed(const char* span, Fn&& fn) {
  Span s(span);
  Stopwatch sw;
  fn();
  return sw.elapsed_ms();
}

}  // namespace

LadderSample replay_compile(const std::string& name, const std::string& text,
                            const OperatorTable& operators, const CompileOptions& options) {
  if (options.verify) throw std::invalid_argument("replay_compile: verify is not replayed");
  LadderSample out;
  CompileResult result;
  DiagnosticEngine diags;
  AstContext ctx;
  Span whole("bench.compile_ladder");

  std::unique_ptr<SourceFile> file;
  std::vector<Token> tokens;
  out.lex_ms = timed("lang.lex", [&] {
    file = std::make_unique<SourceFile>(name, text);
    tokens = Lexer(*file, diags).lex_all();
  });
  out.tokens = tokens.size();

  Program program;
  out.parse_ms = timed("lang.parse", [&] {
    Parser parser(std::move(tokens), ctx, diags);
    program = parser.parse_program();
  });
  out.macro_ms = timed("lang.macro", [&] { expand_macros(program, ctx, diags); });
  out.env_ms = timed("sema.env", [&] {
    result.analysis = analyze_environment(program, operators, diags, options.sema);
  });
  if (diags.has_errors()) return out;

  out.opt_ms = timed("opt.ast", [&] {
    if (options.optimize) {
      result.opt_stats = optimize_program(program, ctx, operators, result.analysis, options.opt,
                                          options.sema.entry_point);
    }
  });
  result.ast_nodes = count_program_nodes(program);
  out.ast_nodes = result.ast_nodes;

  out.build_ms = timed("graph.build", [&] {
    result.program =
        build_graphs(program, result.analysis, operators, diags, options.sema.entry_point);
  });
  const bool graphs_ok = !diags.has_errors();
  out.nodes_built = result.program.total_nodes();

  const bool ran_graph_opt = options.optimize && options.graph_opt && graphs_ok;
  out.graph_opt_ms = timed("analysis.graph_opt", [&] {
    if (ran_graph_opt) {
      result.graph_opt_stats =
          optimize_graphs(result.program, operators, GraphOptOptions{}, &result.facts);
      result.has_facts = graph_facts_enabled();
    } else if (graphs_ok && graph_facts_enabled()) {
      result.facts = compute_graph_facts(result.program, operators, FactsOptions::from_env());
      result.has_facts = true;
    }
  });
  out.graph_opt_rounds = result.graph_opt_stats.rounds;
  out.nodes_final = result.program.total_nodes();
  out.chains_fused = result.graph_opt_stats.chains_fused;
  out.consts_folded = result.graph_opt_stats.consts_folded;

  // Not part of compile_source: one more facts computation on the final
  // graphs, timed alone (optimize_graphs folds its own into each round).
  out.facts_ms = timed("analysis.facts", [&] {
    if (graphs_ok) (void)compute_graph_facts(result.program, operators, FactsOptions::from_env());
  });

  if (!diags.has_errors() && graphs_ok) {
    const GraphFacts* facts = result.has_facts ? &result.facts : nullptr;
    out.sched_hints_ms = timed("analysis.sched_hints", [&] {
      if (result.has_facts) {
        result.sched_hint_nodes = apply_sched_hints(result.program, result.facts);
      }
    });
    out.sole_consumer_ms = timed("analysis.sole_consumer", [&] {
      if (options.analyze_unique && !diags.has_errors()) {
        const GraphFacts* sole_facts =
            (result.has_facts && FactsOptions::from_env().fresh_returns) ? facts : nullptr;
        result.sole_consumer =
            analyze_sole_consumers(result.program, operators, &result.lint, sole_facts);
      }
    });
  }

  result.diagnostics = diags.summary(*file);
  result.ok = !diags.has_errors();
  out.ok = result.ok;
  out.analysis_json = tools::render_analysis_json(result, *file);
  return out;
}

std::string reference_analysis_json(const std::string& name, const std::string& text,
                                    const OperatorTable& operators,
                                    const CompileOptions& options) {
  const CompileResult result = [&] {
    Span s("core.compile_source");
    return compile_source(name, text, operators, options);
  }();
  const SourceFile file(name, text);
  return tools::render_analysis_json(result, file);
}

}  // namespace delbench
