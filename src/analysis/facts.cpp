#include "src/analysis/facts.h"

#include <algorithm>
#include <utility>

#include "src/support/env.h"

namespace delirium {

namespace {

/// The uniform kill-switch convention ("<VAR>=0" / "false" / "off",
/// anything else rejected with a diagnostic naming the variable) — the
/// shared parser in src/support/env.h, same as the runtime's
/// DELIRIUM_TRACE / DELIRIUM_LOCALITY handling.
bool env_off(const char* name) { return !env_flag(name, true); }

/// Three-point lattice for constant propagation. Values only descend:
/// Top (no information yet) -> Const(v) -> Bottom (provably varying),
/// which bounds the interprocedural fixpoint.
struct ConstLattice {
  enum State : uint8_t { kTop, kConst, kBottom };
  State state = kTop;
  ConstValue value;

  static ConstLattice top() { return {}; }
  static ConstLattice bottom() { return {kBottom, {}}; }
  static ConstLattice of(ConstValue v) { return {kConst, std::move(v)}; }

  /// Lower `this` toward `other`; returns true when `this` changed.
  bool meet(const ConstLattice& other) {
    if (other.state == kTop || state == kBottom) return false;
    if (state == kTop) {
      *this = other;
      return true;
    }
    if (other.state == kBottom || !(other.value == value)) {
      *this = bottom();
      return true;
    }
    return false;
  }
};

class FactsEngine {
 public:
  FactsEngine(const CompiledProgram& program, const OperatorTable& operators,
              const FactsOptions& options)
      : program_(program), operators_(operators), options_(options) {}

  GraphFacts run() {
    build_structure();
    compute_delivery();
    compute_purity();
    compute_constants();
    compute_liveness();
    compute_heights();
    compute_fresh();
    return std::move(facts_);
  }

 private:
  uint32_t num_templates() const {
    return static_cast<uint32_t>(program_.templates.size());
  }
  const Template& tmpl(uint32_t t) const { return *program_.templates[t]; }
  uint32_t producer_of(uint32_t t, uint32_t node, uint16_t port) const {
    return facts_.producers[t][node][port];
  }

  // -- Structure ------------------------------------------------------------

  void build_structure() {
    const uint32_t nt = num_templates();
    facts_.producers.resize(nt);
    facts_.callers.resize(nt);
    facts_.closure_sites.resize(nt);
    facts_.call_only.assign(nt, 0);
    named_.assign(nt, 0);
    for (const auto& [name, index] : program_.by_name) {
      if (index < nt) named_[index] = 1;
    }
    if (program_.entry < nt) named_[program_.entry] = 1;

    for (uint32_t t = 0; t < nt; ++t) {
      const Template& tp = tmpl(t);
      const uint32_t n = static_cast<uint32_t>(tp.nodes.size());
      auto& prod = facts_.producers[t];
      prod.resize(n);
      for (uint32_t i = 0; i < n; ++i) prod[i].assign(tp.nodes[i].num_inputs, 0);
      for (uint32_t i = 0; i < n; ++i) {
        for (const PortRef& c : tp.nodes[i].consumers) {
          if (c.node < n && c.port < prod[c.node].size()) prod[c.node][c.port] = i;
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        const Node& node = tp.nodes[i];
        if (node.target_template >= nt) continue;
        if (node.kind == NodeKind::kCall) {
          facts_.callers[node.target_template].push_back(TemplateRef{t, i});
        } else if (node.kind == NodeKind::kMakeClosure) {
          facts_.closure_sites[node.target_template].push_back(TemplateRef{t, i});
        }
      }
    }
    for (uint32_t t = 0; t < nt; ++t) {
      facts_.call_only[t] = (!named_[t] && facts_.closure_sites[t].empty()) ? 1 : 0;
    }
  }

  // -- Delivery / strandedness ----------------------------------------------

  /// delivers[] is a least fixpoint: a template delivers only once every
  /// kCall in the backward slice of its return provably delivers. Every
  /// node fires exactly once per activation (§7), so a kCall cycle with
  /// no kIfDispatch in between is unconditional recursion — the result
  /// provably never arrives, with no false positives: conditional
  /// recursion always routes the back edge through a dispatch's branch
  /// closures, which the slice does not treat as calls.
  void compute_delivery() {
    const uint32_t nt = num_templates();
    facts_.delivers.assign(nt, 0);
    std::vector<std::vector<uint32_t>> slice_calls(nt);
    for (uint32_t t = 0; t < nt; ++t) {
      const Template& tp = tmpl(t);
      const uint32_t n = static_cast<uint32_t>(tp.nodes.size());
      if (tp.return_node >= n) continue;  // malformed: verifier reports it
      std::vector<uint8_t> in_slice(n, 0);
      std::vector<uint32_t> work{tp.return_node};
      in_slice[tp.return_node] = 1;
      while (!work.empty()) {
        const uint32_t i = work.back();
        work.pop_back();
        for (uint32_t q : facts_.producers[t][i]) {
          if (!in_slice[q]) {
            in_slice[q] = 1;
            work.push_back(q);
          }
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (in_slice[i] && tp.nodes[i].kind == NodeKind::kCall &&
            tp.nodes[i].target_template < nt) {
          slice_calls[t].push_back(tp.nodes[i].target_template);
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t t = 0; t < nt; ++t) {
        if (facts_.delivers[t]) continue;
        bool ok = true;
        for (uint32_t u : slice_calls[t]) ok = ok && facts_.delivers[u] != 0;
        if (ok) {
          facts_.delivers[t] = 1;
          changed = true;
        }
      }
    }

    facts_.arrives.resize(nt);
    for (uint32_t t = 0; t < nt; ++t) {
      facts_.arrives[t].assign(tmpl(t).nodes.size(), 1);
    }
    if (!options_.strandedness) {
      // Vacuous facts: no diagnostics, nothing stranded.
      facts_.delivers.assign(nt, 1);
      return;
    }
    for (uint32_t t = 0; t < nt; ++t) {
      const Template& tp = tmpl(t);
      const uint32_t n = static_cast<uint32_t>(tp.nodes.size());
      // Node ids are emitted producers-first, so ascending id order is a
      // topological order (the verifier rejects data-edge cycles).
      std::vector<uint8_t> avail(n, 1);
      for (uint32_t i = 0; i < n; ++i) {
        bool fires = true;
        for (uint32_t q : facts_.producers[t][i]) fires = fires && avail[q] != 0;
        facts_.arrives[t][i] = fires ? 1 : 0;
        const Node& node = tp.nodes[i];
        const bool produces = node.kind != NodeKind::kCall ||
                              node.target_template >= nt ||
                              facts_.delivers[node.target_template] != 0;
        avail[i] = (fires && produces) ? 1 : 0;
      }
      if (!facts_.delivers[t]) {
        facts_.stranded.push_back(StrandedFact{
            t, StrandedFact::kNoNode,
            "never delivers: every path to its result runs through an "
            "unconditional call cycle"});
      }
      for (uint32_t i = 0; i < n; ++i) {
        const Node& node = tp.nodes[i];
        if (node.kind == NodeKind::kCall && node.target_template < nt &&
            !facts_.delivers[node.target_template]) {
          facts_.stranded.push_back(StrandedFact{
              t, i,
              "calls '" + tmpl(node.target_template).name + "' (#" +
                  std::to_string(node.target_template) +
                  "), which never delivers; this call's result can never arrive"});
        }
      }
    }
  }

  // -- Purity ---------------------------------------------------------------

  /// Greatest fixpoint: a template is effect-free unless it contains an
  /// impure (or unknown) operator, dynamic dispatch, or a call to an
  /// impure template. Dynamic dispatch is conservatively impure — the
  /// callee is not statically evaluable anyway.
  void compute_purity() {
    const uint32_t nt = num_templates();
    facts_.pure_templates.assign(nt, 1);
    for (uint32_t t = 0; t < nt; ++t) {
      for (const Node& node : tmpl(t).nodes) {
        switch (node.kind) {
          case NodeKind::kOperator: {
            const OperatorInfo* info = operators_.lookup(node.op_name);
            if (info == nullptr || !info->pure) facts_.pure_templates[t] = 0;
            break;
          }
          case NodeKind::kCallClosure:
          case NodeKind::kIfDispatch:
          case NodeKind::kParMap:
            facts_.pure_templates[t] = 0;
            break;
          default:
            break;
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t t = 0; t < nt; ++t) {
        if (!facts_.pure_templates[t]) continue;
        for (const Node& node : tmpl(t).nodes) {
          if (node.kind == NodeKind::kCall && node.target_template < nt &&
              !facts_.pure_templates[node.target_template]) {
            facts_.pure_templates[t] = 0;
            changed = true;
            break;
          }
        }
      }
    }
  }

  // -- Constant propagation -------------------------------------------------

  ConstLattice node_transfer(uint32_t t, uint32_t i) {
    const Template& tp = tmpl(t);
    const Node& node = tp.nodes[i];
    switch (node.kind) {
      case NodeKind::kConst:
        return ConstLattice::of(node.literal);
      case NodeKind::kParam:
        return node.param_index < param_lat_[t].size()
                   ? param_lat_[t][node.param_index]
                   : ConstLattice::bottom();
      case NodeKind::kOperator: {
        const OperatorInfo* info = operators_.lookup(node.op_name);
        if (info == nullptr || !info->pure || !info->fold) {
          return ConstLattice::bottom();
        }
        std::vector<ConstValue> args;
        args.reserve(node.num_inputs);
        for (uint16_t p = 0; p < node.num_inputs; ++p) {
          const ConstLattice& a = node_lat_[t][producer_of(t, i, p)];
          if (a.state == ConstLattice::kBottom) return ConstLattice::bottom();
          if (a.state == ConstLattice::kTop) return ConstLattice::top();
          args.push_back(a.value);
        }
        std::optional<ConstValue> folded = info->fold(args);
        return folded ? ConstLattice::of(std::move(*folded)) : ConstLattice::bottom();
      }
      case NodeKind::kCall: {
        // The fact "this call always produces v" is only meaningful when
        // the callee actually delivers (a diverging callee never
        // produces; publishing a constant would let folding turn a hang
        // into a value).
        const uint32_t u = node.target_template;
        if (u >= num_templates() || !facts_.delivers[u]) return ConstLattice::bottom();
        const Template& callee = tmpl(u);
        if (callee.return_node >= callee.nodes.size()) return ConstLattice::bottom();
        return node_lat_[u][callee.return_node];
      }
      case NodeKind::kReturn:
        return node.num_inputs >= 1 ? node_lat_[t][producer_of(t, i, 0)]
                                    : ConstLattice::bottom();
      default:
        // Tuples, closures, and dynamic dispatch are not scalar values.
        return ConstLattice::bottom();
    }
  }

  void compute_constants() {
    const uint32_t nt = num_templates();
    facts_.constants.resize(nt);
    facts_.param_constants.resize(nt);
    for (uint32_t t = 0; t < nt; ++t) {
      facts_.constants[t].assign(tmpl(t).nodes.size(), std::nullopt);
      facts_.param_constants[t].assign(tmpl(t).num_params, std::nullopt);
    }
    if (!options_.constants) return;

    node_lat_.resize(nt);
    param_lat_.resize(nt);
    for (uint32_t t = 0; t < nt; ++t) {
      node_lat_[t].assign(tmpl(t).nodes.size(), ConstLattice::top());
      // Named templates (and the entry) are callable through
      // run_function with arbitrary arguments.
      param_lat_[t].assign(tmpl(t).num_params, named_[t] ? ConstLattice::bottom()
                                                         : ConstLattice::top());
    }

    bool changed = true;
    while (changed) {
      changed = false;
      // Parameters: meet over every reaching argument.
      for (uint32_t t = 0; t < nt; ++t) {
        if (named_[t]) continue;
        const uint32_t ep = tmpl(t).explicit_params();
        for (const TemplateRef& site : facts_.callers[t]) {
          const Node& call = tmpl(site.tmpl).nodes[site.node];
          const uint16_t ports =
              std::min<size_t>(call.num_inputs, param_lat_[t].size());
          for (uint16_t p = 0; p < ports; ++p) {
            changed |= param_lat_[t][p].meet(
                node_lat_[site.tmpl][producer_of(site.tmpl, site.node, p)]);
          }
        }
        for (const TemplateRef& site : facts_.closure_sites[t]) {
          // Explicit parameters are filled at dynamic invocation sites.
          for (uint32_t p = 0; p < ep && p < param_lat_[t].size(); ++p) {
            changed |= param_lat_[t][p].meet(ConstLattice::bottom());
          }
          const Node& clo = tmpl(site.tmpl).nodes[site.node];
          for (uint16_t j = 0; j < clo.num_inputs; ++j) {
            const uint32_t idx = ep + j;
            if (idx >= param_lat_[t].size()) break;
            changed |= param_lat_[t][idx].meet(
                node_lat_[site.tmpl][producer_of(site.tmpl, site.node, j)]);
          }
        }
      }
      // Nodes, producers-first within each template.
      for (uint32_t t = 0; t < nt; ++t) {
        const uint32_t n = static_cast<uint32_t>(tmpl(t).nodes.size());
        for (uint32_t i = 0; i < n; ++i) {
          changed |= node_lat_[t][i].meet(node_transfer(t, i));
        }
      }
    }

    for (uint32_t t = 0; t < nt; ++t) {
      for (uint32_t i = 0; i < node_lat_[t].size(); ++i) {
        if (node_lat_[t][i].state == ConstLattice::kConst) {
          facts_.constants[t][i] = node_lat_[t][i].value;
        }
      }
      for (uint32_t i = 0; i < param_lat_[t].size(); ++i) {
        if (param_lat_[t][i].state == ConstLattice::kConst) {
          facts_.param_constants[t][i] = param_lat_[t][i].value;
        }
      }
    }
  }

  // -- Liveness -------------------------------------------------------------

  /// Ascending interprocedural mark. Seeds are the nodes the optimizer
  /// can never remove (returns, calls, dispatches, impure operators) —
  /// everything the DCE's always_needed keeps except parameters, which
  /// is exactly what makes an unmarked parameter a dead parameter. The
  /// refinement over plain DCE marking: an argument edge into a kCall or
  /// a capture edge into a kMakeClosure only marks its producer when the
  /// corresponding callee parameter is itself observed, so arguments
  /// feeding dead parameters (including loop-carried ones) stay dead.
  void compute_liveness() {
    const uint32_t nt = num_templates();
    facts_.observed.resize(nt);
    facts_.param_live.resize(nt);
    if (!options_.liveness) {
      for (uint32_t t = 0; t < nt; ++t) {
        facts_.observed[t].assign(tmpl(t).nodes.size(), 1);
        facts_.param_live[t].assign(tmpl(t).num_params, 1);
      }
      return;
    }
    for (uint32_t t = 0; t < nt; ++t) {
      facts_.observed[t].assign(tmpl(t).nodes.size(), 0);
    }

    std::vector<std::pair<uint32_t, uint32_t>> work;
    auto mark = [&](uint32_t t, uint32_t i) {
      if (t < nt && i < facts_.observed[t].size() && !facts_.observed[t][i]) {
        facts_.observed[t][i] = 1;
        work.emplace_back(t, i);
      }
    };

    for (uint32_t t = 0; t < nt; ++t) {
      const Template& tp = tmpl(t);
      for (uint32_t i = 0; i < tp.nodes.size(); ++i) {
        const Node& node = tp.nodes[i];
        switch (node.kind) {
          case NodeKind::kReturn:
          case NodeKind::kCall:
          case NodeKind::kCallClosure:
          case NodeKind::kIfDispatch:
          case NodeKind::kParMap:
            mark(t, i);
            break;
          case NodeKind::kOperator: {
            const OperatorInfo* info = operators_.lookup(node.op_name);
            if (info == nullptr || !info->pure) mark(t, i);
            break;
          }
          default:
            break;
        }
      }
    }

    while (!work.empty()) {
      const auto [t, i] = work.back();
      work.pop_back();
      const Template& tp = tmpl(t);
      const Node& node = tp.nodes[i];
      if (node.kind == NodeKind::kCall && node.target_template < nt) {
        const Template& callee = tmpl(node.target_template);
        for (uint16_t p = 0; p < node.num_inputs; ++p) {
          if (p < callee.param_nodes.size()) {
            if (facts_.observed[node.target_template][callee.param_nodes[p]]) {
              mark(t, producer_of(t, i, p));
            }
          } else {
            mark(t, producer_of(t, i, p));  // arity defect: stay conservative
          }
        }
      } else if (node.kind == NodeKind::kMakeClosure && node.target_template < nt) {
        const Template& callee = tmpl(node.target_template);
        const uint32_t ep = callee.explicit_params();
        for (uint16_t j = 0; j < node.num_inputs; ++j) {
          const uint32_t idx = ep + j;
          if (idx < callee.param_nodes.size()) {
            if (facts_.observed[node.target_template][callee.param_nodes[idx]]) {
              mark(t, producer_of(t, i, j));
            }
          } else {
            mark(t, producer_of(t, i, j));
          }
        }
      } else {
        for (uint16_t p = 0; p < node.num_inputs; ++p) mark(t, producer_of(t, i, p));
      }
      if (node.kind == NodeKind::kParam) {
        // A parameter just became live: argument edges at every site that
        // was processed before this point must be re-examined.
        const uint32_t idx = node.param_index;
        for (const TemplateRef& site : facts_.callers[t]) {
          const Node& call = tmpl(site.tmpl).nodes[site.node];
          if (facts_.observed[site.tmpl][site.node] && idx < call.num_inputs) {
            mark(site.tmpl, producer_of(site.tmpl, site.node, idx));
          }
        }
        const uint32_t ep = tp.explicit_params();
        for (const TemplateRef& site : facts_.closure_sites[t]) {
          const Node& clo = tmpl(site.tmpl).nodes[site.node];
          if (facts_.observed[site.tmpl][site.node] && idx >= ep &&
              idx - ep < clo.num_inputs) {
            mark(site.tmpl, producer_of(site.tmpl, site.node, idx - ep));
          }
        }
      }
    }

    for (uint32_t t = 0; t < nt; ++t) {
      const Template& tp = tmpl(t);
      facts_.param_live[t].assign(tp.num_params, 1);
      for (uint32_t i = 0; i < tp.param_nodes.size() && i < tp.num_params; ++i) {
        const uint32_t p = tp.param_nodes[i];
        if (p < facts_.observed[t].size()) {
          facts_.param_live[t][i] = facts_.observed[t][p];
        }
      }
    }
  }

  // -- Critical-path heights ------------------------------------------------

  /// Unit-cost longest paths to delivery; a kCall is weighted by its
  /// callee's height. Templates are processed callees-first (iterative
  /// DFS post-order over the call graph); a back edge on a call cycle
  /// contributes the callee's not-yet-final height — a sound lower bound
  /// that keeps the estimate finite for recursive programs.
  void compute_heights() {
    const uint32_t nt = num_templates();
    facts_.height.resize(nt);
    facts_.on_critical_path.resize(nt);
    facts_.template_height.assign(nt, 0);
    for (uint32_t t = 0; t < nt; ++t) {
      facts_.height[t].assign(tmpl(t).nodes.size(), 0);
      facts_.on_critical_path[t].assign(tmpl(t).nodes.size(), 0);
    }
    if (!options_.heights) return;

    // Post-order over kCall edges.
    std::vector<uint32_t> postorder;
    postorder.reserve(nt);
    std::vector<uint8_t> state(nt, 0);  // 0 new, 1 open, 2 done
    for (uint32_t root = 0; root < nt; ++root) {
      if (state[root] != 0) continue;
      std::vector<std::pair<uint32_t, uint32_t>> stack{{root, 0}};
      state[root] = 1;
      while (!stack.empty()) {
        auto& [t, next] = stack.back();
        const Template& tp = tmpl(t);
        bool descended = false;
        while (next < tp.nodes.size()) {
          const Node& node = tp.nodes[next];
          ++next;
          if (node.kind == NodeKind::kCall && node.target_template < nt &&
              state[node.target_template] == 0) {
            state[node.target_template] = 1;
            stack.emplace_back(node.target_template, 0);
            descended = true;
            break;
          }
        }
        if (descended) continue;
        state[t] = 2;
        postorder.push_back(t);
        stack.pop_back();
      }
    }

    for (uint32_t t : postorder) {
      const Template& tp = tmpl(t);
      const uint32_t n = static_cast<uint32_t>(tp.nodes.size());
      auto cost = [&](uint32_t i) -> int64_t {
        const Node& node = tp.nodes[i];
        if (node.kind == NodeKind::kCall && node.target_template < nt) {
          return 1 + facts_.template_height[node.target_template];
        }
        // A fused chain fires once but runs every member.
        if (node.kind == NodeKind::kFused) {
          return static_cast<int64_t>(node.fused.size());
        }
        return 1;
      };
      auto& h = facts_.height[t];
      int64_t best = 0;
      for (uint32_t i = n; i-- > 0;) {  // consumers have larger ids
        int64_t tail = 0;
        for (const PortRef& c : tp.nodes[i].consumers) {
          if (c.node < n) tail = std::max(tail, h[c.node]);
        }
        h[i] = cost(i) + tail;
        best = std::max(best, h[i]);
      }
      facts_.template_height[t] = best;
      // d[i]: longest chain from a root down to (excluding) node i. A
      // node is critical iff some maximal chain runs through it.
      std::vector<int64_t> d(n, 0);
      for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t q : facts_.producers[t][i]) {
          d[i] = std::max(d[i], d[q] + cost(q));
        }
      }
      for (uint32_t i = 0; i < n; ++i) {
        facts_.on_critical_path[t][i] = (d[i] + h[i] == best) ? 1 : 0;
      }
    }
  }

  // -- Fresh returns --------------------------------------------------------

  /// A link of the chain building the returned value: its producer must
  /// be exclusively consumed here (one consumer edge in total) or the
  /// block could be referenced elsewhere when the caller mutates it.
  bool chain_fresh(uint32_t t, uint32_t i, const std::vector<uint8_t>& fresh) const {
    const uint32_t nt = num_templates();
    const Template& tp = tmpl(t);
    const Node& node = tp.nodes[i];
    switch (node.kind) {
      case NodeKind::kConst:
        return true;  // literals are manufactured per activation
      case NodeKind::kOperator:
      case NodeKind::kFused: {
        // An operator may pass any argument through (`ctx.take` style),
        // so every input must itself be fresh and exclusively ours. A
        // fused chain is a composition of such operators, so the same
        // rule applies to its external inputs.
        for (uint16_t p = 0; p < node.num_inputs; ++p) {
          const uint32_t q = producer_of(t, i, p);
          if (tp.nodes[q].consumers.size() != 1) return false;
          if (!chain_fresh(t, q, fresh)) return false;
        }
        return true;
      }
      case NodeKind::kCall:
        return node.target_template < nt && fresh[node.target_template] != 0;
      case NodeKind::kCallClosure: {
        if (node.num_inputs < 1) return false;
        const Node& fn = tp.nodes[producer_of(t, i, 0)];
        return fn.kind == NodeKind::kMakeClosure && fn.target_template < nt &&
               fresh[fn.target_template] != 0;
      }
      case NodeKind::kIfDispatch: {
        if (node.num_inputs < 3) return false;
        for (uint16_t p = 1; p <= 2; ++p) {
          const Node& fn = tp.nodes[producer_of(t, i, p)];
          if (fn.kind != NodeKind::kMakeClosure || fn.target_template >= nt ||
              !fresh[fn.target_template]) {
            return false;
          }
        }
        return true;
      }
      default:
        // Parameters and tuple plumbing alias caller-visible storage.
        return false;
    }
  }

  /// Greatest fixpoint (freshness of mutually tail-recursive templates
  /// depends on each other; starting true and lowering is sound — any
  /// actual alias lowers the flag on its own merits).
  void compute_fresh() {
    const uint32_t nt = num_templates();
    facts_.returns_fresh.assign(nt, 0);
    if (!options_.fresh_returns) return;
    std::vector<uint8_t> fresh(nt, 1);
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t t = 0; t < nt; ++t) {
        if (!fresh[t]) continue;
        const Template& tp = tmpl(t);
        bool ok = tp.return_node < tp.nodes.size() &&
                  tp.nodes[tp.return_node].num_inputs >= 1;
        if (ok) {
          const uint32_t r = producer_of(t, tp.return_node, 0);
          ok = tp.nodes[r].consumers.size() == 1 && chain_fresh(t, r, fresh);
        }
        if (!ok) {
          fresh[t] = 0;
          changed = true;
        }
      }
    }
    facts_.returns_fresh = std::move(fresh);
  }

  const CompiledProgram& program_;
  const OperatorTable& operators_;
  const FactsOptions& options_;
  GraphFacts facts_;
  std::vector<uint8_t> named_;
  std::vector<std::vector<ConstLattice>> node_lat_;
  std::vector<std::vector<ConstLattice>> param_lat_;
};

}  // namespace

FactsOptions FactsOptions::from_env(FactsOptions base) {
  if (env_off("DELIRIUM_FACTS_FOLD")) base.constants = false;
  if (env_off("DELIRIUM_FACTS_DEADPARAM")) base.liveness = false;
  if (env_off("DELIRIUM_FACTS_STRAND")) base.strandedness = false;
  if (env_off("DELIRIUM_SCHED_HINTS")) base.heights = false;
  if (env_off("DELIRIUM_FACTS_SOLE")) base.fresh_returns = false;
  return base;
}

bool graph_facts_enabled() { return !env_off("DELIRIUM_GRAPH_FACTS"); }

GraphFacts compute_graph_facts(const CompiledProgram& program,
                               const OperatorTable& operators,
                               const FactsOptions& options) {
  return FactsEngine(program, operators, options).run();
}

size_t apply_sched_hints(CompiledProgram& program, const GraphFacts& facts) {
  size_t marked = 0;
  for (uint32_t t = 0; t < program.templates.size() && t < facts.on_critical_path.size();
       ++t) {
    Template& tp = *program.templates[t];
    const auto& flags = facts.on_critical_path[t];
    for (uint32_t i = 0; i < tp.nodes.size(); ++i) {
      const bool critical = i < flags.size() && flags[i] != 0;
      tp.nodes[i].on_critical_path = critical;
      marked += critical ? 1 : 0;
    }
  }
  return marked;
}

size_t apply_sched_hints(CompiledProgram& program, const GraphFacts& facts,
                         const CostModel& costs) {
  const uint32_t nt = static_cast<uint32_t>(program.templates.size());
  if (facts.producers.size() < nt || facts.template_height.size() < nt) return 0;
  // The compile-side kill switch (DELIRIUM_SCHED_HINTS=0) skips the
  // heights analysis, leaving every template height at zero; honor it
  // here too so one switch disables both hint flavors.
  bool heights_ran = false;
  for (uint32_t t = 0; t < nt; ++t) heights_ran = heights_ran || facts.template_height[t] > 0;
  if (!heights_ran) return 0;

  // Callees-first postorder over kCall edges, as in the unit-height
  // analysis; a back edge on a call cycle contributes the callee's
  // not-yet-final height (sound lower bound, finite for recursion).
  std::vector<uint32_t> postorder;
  postorder.reserve(nt);
  {
    std::vector<uint8_t> state(nt, 0);  // 0 new, 1 open, 2 done
    for (uint32_t root = 0; root < nt; ++root) {
      if (state[root] != 0) continue;
      std::vector<std::pair<uint32_t, uint32_t>> stack{{root, 0}};
      state[root] = 1;
      while (!stack.empty()) {
        auto& [t, next] = stack.back();
        const Template& tp = *program.templates[t];
        bool descended = false;
        while (next < tp.nodes.size()) {
          const Node& node = tp.nodes[next];
          ++next;
          if (node.kind == NodeKind::kCall && node.target_template < nt &&
              state[node.target_template] == 0) {
            state[node.target_template] = 1;
            stack.emplace_back(node.target_template, 0);
            descended = true;
            break;
          }
        }
        if (descended) continue;
        state[t] = 2;
        postorder.push_back(t);
        stack.pop_back();
      }
    }
  }

  // Cost-weighted longest paths to delivery, per template.
  std::vector<int64_t> cost_height(nt, 0);
  std::vector<std::vector<uint8_t>> crit(nt);
  for (uint32_t t : postorder) {
    const Template& tp = *program.templates[t];
    const uint32_t n = static_cast<uint32_t>(tp.nodes.size());
    auto cost = [&](uint32_t i) -> int64_t {
      const Node& node = tp.nodes[i];
      switch (node.kind) {
        case NodeKind::kOperator:
          return std::max<int64_t>(1, costs.cost_of(node.op_name));
        case NodeKind::kFused: {
          int64_t sum = 0;
          for (const auto& m : node.fused) sum += std::max<int64_t>(1, costs.cost_of(m.op_name));
          return std::max<int64_t>(1, sum);
        }
        case NodeKind::kCall:
          if (node.target_template < nt) return 1 + cost_height[node.target_template];
          return 1;
        default:
          return 1;  // plumbing: dispatch overhead only
      }
    };
    std::vector<int64_t> h(n, 0);
    int64_t best = 0;
    for (uint32_t i = n; i-- > 0;) {  // consumers have larger ids
      int64_t tail = 0;
      for (const PortRef& c : tp.nodes[i].consumers) {
        if (c.node < n) tail = std::max(tail, h[c.node]);
      }
      h[i] = cost(i) + tail;
      best = std::max(best, h[i]);
    }
    cost_height[t] = best;
    std::vector<int64_t> d(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t q : facts.producers[t][i]) {
        d[i] = std::max(d[i], d[q] + cost(q));
      }
    }
    crit[t].assign(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
      crit[t][i] = (d[i] + h[i] == best) ? 1 : 0;
    }
  }

  // Entry-down filter: a call-only template keeps its marks only when a
  // critical call site in a critical template reaches it. Templates
  // reachable by name or through closures keep theirs unconditionally
  // (their invocation sites are not statically known).
  std::vector<uint8_t> critical_tmpl(nt, 0);
  for (uint32_t t = 0; t < nt; ++t) {
    if (t >= facts.call_only.size() || !facts.call_only[t]) critical_tmpl[t] = 1;
  }
  critical_tmpl[program.entry] = 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t t = 0; t < nt; ++t) {
      if (critical_tmpl[t] || t >= facts.callers.size()) continue;
      for (const TemplateRef& site : facts.callers[t]) {
        if (site.tmpl < nt && critical_tmpl[site.tmpl] &&
            site.node < crit[site.tmpl].size() && crit[site.tmpl][site.node]) {
          critical_tmpl[t] = 1;
          changed = true;
          break;
        }
      }
    }
  }

  size_t marked = 0;
  for (uint32_t t = 0; t < nt; ++t) {
    Template& tp = *program.templates[t];
    for (uint32_t i = 0; i < tp.nodes.size(); ++i) {
      const bool critical = critical_tmpl[t] && i < crit[t].size() && crit[t][i] != 0;
      tp.nodes[i].on_critical_path = critical;
      tp.nodes[i].cost_hinted = critical;
      marked += critical ? 1 : 0;
    }
  }
  return marked;
}

}  // namespace delirium
