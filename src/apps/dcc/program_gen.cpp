#include "src/apps/dcc/program_gen.h"

#include <sstream>
#include <vector>

namespace delirium::dcc {

namespace {

/// Emits one random integer-valued expression with a node budget.
class ExprGen {
 public:
  ExprGen(SplitMix64& rng, const GenParams& params, int self_index, std::ostringstream& os)
      : rng_(rng), params_(params), self_index_(self_index), os_(os) {}

  void emit(int budget, std::vector<std::string>& scope) {
    if (budget <= 1) {
      emit_leaf(scope);
      return;
    }
    const double roll = rng_.next_double();
    if (roll < 0.30) {
      emit_binary(budget, scope);
    } else if (roll < 0.45) {
      emit_let(budget, scope);
    } else if (roll < 0.60) {
      emit_if(budget, scope);
    } else if (roll < 0.60 + params_.call_density && self_index_ + 1 < params_.num_functions) {
      emit_call(budget, scope);
    } else if (roll < 0.92) {
      emit_binary(budget, scope);
    } else {
      emit_macro_use(budget, scope);
    }
  }

 private:
  void emit_leaf(std::vector<std::string>& scope) {
    const double roll = rng_.next_double();
    if (roll < 0.4 && !scope.empty()) {
      os_ << scope[rng_.next_below(scope.size())];
    } else if (roll < 0.7 && params_.num_macros > 0) {
      os_ << "M" << rng_.next_below(static_cast<uint64_t>(params_.num_macros));
    } else {
      os_ << rng_.next_range(-50, 50);
    }
  }

  void emit_binary(int budget, std::vector<std::string>& scope) {
    static const char* kOps[] = {"add", "sub", "min", "max"};
    os_ << kOps[rng_.next_below(4)] << "(";
    emit((budget - 1) / 2, scope);
    os_ << ", ";
    emit((budget - 1) / 2, scope);
    os_ << ")";
  }

  void emit_let(int budget, std::vector<std::string>& scope) {
    const std::string var = std::string("v").append(std::to_string(var_counter_++));
    os_ << "let " << var << " = ";
    emit((budget - 1) / 2, scope);
    os_ << " in ";
    scope.push_back(var);
    emit((budget - 1) / 2, scope);
    scope.pop_back();
  }

  void emit_if(int budget, std::vector<std::string>& scope) {
    os_ << "if is_equal(mod(abs(";
    emit(2, scope);
    os_ << "), 3), 0) then ";
    emit((budget - 4) / 2, scope);
    os_ << " else ";
    emit((budget - 4) / 2, scope);
  }

  void emit_call(int budget, std::vector<std::string>& scope) {
    // Only call later functions (acyclic call graph), and keep execution
    // cost bounded: at most two call sites per function, each targeting
    // the upper half of the remaining range, so the dynamic call tree is
    // O(num_functions) rather than exponential.
    if (calls_emitted_ >= 2) {
      emit_binary(budget, scope);
      return;
    }
    ++calls_emitted_;
    const int lo = self_index_ + 1 + (params_.num_functions - self_index_ - 1) / 2;
    const int target =
        lo + static_cast<int>(rng_.next_below(static_cast<uint64_t>(params_.num_functions - lo)));
    os_ << "f" << target << "(";
    emit((budget - 1) / 2, scope);
    os_ << ", ";
    emit((budget - 1) / 2, scope);
    os_ << ")";
  }

  void emit_macro_use(int budget, std::vector<std::string>& scope) {
    if (params_.num_macros == 0) {
      emit_binary(budget, scope);
      return;
    }
    // Function-like macros FM<k>(x) are generated alongside constants.
    os_ << "FM" << rng_.next_below(static_cast<uint64_t>(params_.num_macros)) << "(";
    emit(budget - 1, scope);
    os_ << ")";
  }

  SplitMix64& rng_;
  const GenParams& params_;
  int self_index_;
  std::ostringstream& os_;
  int var_counter_ = 0;
  int calls_emitted_ = 0;
};

}  // namespace

std::string generate_program(const GenParams& params) {
  SplitMix64 rng(params.seed);
  std::ostringstream os;

  // Symbolic constants and function-like macros.
  for (int m = 0; m < params.num_macros; ++m) {
    os << "define M" << m << " = " << rng.next_range(1, 99) << "\n";
    os << "define FM" << m << "(x) = " << (m % 2 == 0 ? "add(x, " : "sub(x, ")
       << rng.next_range(1, 9) << ")\n";
  }
  os << "\n";

  // Helper functions f0..fN-1; fi only calls fj with j > i.
  for (int i = 0; i < params.num_functions; ++i) {
    os << "f" << i << "(a, b)\n  mod(abs(";
    std::vector<std::string> scope = {"a", "b"};
    ExprGen gen(rng, params, i, os);
    gen.emit(params.body_size, scope);
    os << "), 9973)\n\n";
  }

  // Entry point: combine a handful of top-level calls.
  os << "main()\n  ";
  const int roots = std::min(params.num_functions, 6);
  for (int i = 0; i < roots - 1; ++i) os << "add(";
  for (int i = 0; i < roots; ++i) {
    if (i > 0) os << ", ";
    os << "f" << i << "(" << rng.next_range(1, 20) << ", " << rng.next_range(1, 20) << ")";
    if (i > 0) os << ")";
  }
  os << "\n";
  return os.str();
}

size_t count_lines(const std::string& source) {
  size_t lines = 1;
  for (char c : source) {
    if (c == '\n') ++lines;
  }
  return lines;
}

}  // namespace delirium::dcc
