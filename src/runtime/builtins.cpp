// Built-in convenience operators. The paper's programs call tiny helper
// operators written in C (incr, is_equal, merge, ...); this module
// provides the generic ones so coordination frameworks need no extra
// boilerplate. Application-specific operators (convol_bite, add_queen,
// ...) live with the applications.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <mutex>

#include "src/runtime/registry.h"

namespace delirium {

namespace {

bool is_int(const ConstValue& v) { return std::holds_alternative<int64_t>(v); }
bool is_num(const ConstValue& v) {
  return std::holds_alternative<int64_t>(v) || std::holds_alternative<double>(v);
}
double num(const ConstValue& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return static_cast<double>(*i);
  return std::get<double>(v);
}

/// Numeric binary operator: int×int stays int, otherwise float.
template <typename IntOp, typename FloatOp>
void add_binary_numeric(OperatorRegistry& r, const std::string& name, IntOp iop, FloatOp fop) {
  r.add(name, 2,
        [name, iop, fop](OpContext& ctx) -> Value {
          const Value& a = ctx.arg(0);
          const Value& b = ctx.arg(1);
          if (a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt) {
            return Value::of(iop(a.as_int(), b.as_int()));
          }
          return Value::of(fop(a.as_float(), b.as_float()));
        })
      .pure()
      .fold([iop, fop](std::span<const ConstValue> args) -> std::optional<ConstValue> {
        if (args.size() != 2 || !is_num(args[0]) || !is_num(args[1])) return std::nullopt;
        if (is_int(args[0]) && is_int(args[1])) {
          return ConstValue{iop(std::get<int64_t>(args[0]), std::get<int64_t>(args[1]))};
        }
        return ConstValue{fop(num(args[0]), num(args[1]))};
      });
}

/// Numeric comparison: result is the integer 0 or 1.
template <typename Cmp>
void add_compare(OperatorRegistry& r, const std::string& name, Cmp cmp) {
  r.add(name, 2,
        [cmp](OpContext& ctx) -> Value {
          return Value::of(static_cast<int64_t>(cmp(ctx.arg_float(0), ctx.arg_float(1)) ? 1 : 0));
        })
      .pure()
      .fold([cmp](std::span<const ConstValue> args) -> std::optional<ConstValue> {
        if (args.size() != 2 || !is_num(args[0]) || !is_num(args[1])) return std::nullopt;
        return ConstValue{static_cast<int64_t>(cmp(num(args[0]), num(args[1])) ? 1 : 0)};
      });
}

bool const_equal(const ConstValue& a, const ConstValue& b) {
  if (is_num(a) && is_num(b)) return num(a) == num(b);
  if (std::holds_alternative<std::monostate>(a) && std::holds_alternative<std::monostate>(b)) {
    return true;
  }
  if (std::holds_alternative<std::string>(a) && std::holds_alternative<std::string>(b)) {
    return std::get<std::string>(a) == std::get<std::string>(b);
  }
  return false;
}

bool value_equal(const Value& a, const Value& b) { return deep_equal(a, b); }

bool const_truthy_local(const ConstValue& v) {
  if (std::holds_alternative<std::monostate>(v)) return false;
  if (const auto* i = std::get_if<int64_t>(&v)) return *i != 0;
  if (const auto* d = std::get_if<double>(&v)) return *d != 0.0;
  return true;
}

std::mutex& print_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

void register_builtin_operators(OperatorRegistry& r) {
  // --- increments (the paper's loop steps use incr) --------------------
  r.add("incr", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0) + 1); })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 1 || !is_int(a[0])) return std::nullopt;
        return ConstValue{std::get<int64_t>(a[0]) + 1};
      });
  r.add("decr", 1, [](OpContext& ctx) { return Value::of(ctx.arg_int(0) - 1); })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 1 || !is_int(a[0])) return std::nullopt;
        return ConstValue{std::get<int64_t>(a[0]) - 1};
      });

  // --- arithmetic -------------------------------------------------------
  add_binary_numeric(r, "add", [](int64_t a, int64_t b) { return a + b; },
                     [](double a, double b) { return a + b; });
  add_binary_numeric(r, "sub", [](int64_t a, int64_t b) { return a - b; },
                     [](double a, double b) { return a - b; });
  add_binary_numeric(r, "mul", [](int64_t a, int64_t b) { return a * b; },
                     [](double a, double b) { return a * b; });
  add_binary_numeric(r, "min", [](int64_t a, int64_t b) { return a < b ? a : b; },
                     [](double a, double b) { return a < b ? a : b; });
  add_binary_numeric(r, "max", [](int64_t a, int64_t b) { return a > b ? a : b; },
                     [](double a, double b) { return a > b ? a : b; });
  r.add("div", 2,
        [](OpContext& ctx) -> Value {
          const Value& a = ctx.arg(0);
          const Value& b = ctx.arg(1);
          if (a.kind() == Value::Kind::kInt && b.kind() == Value::Kind::kInt) {
            if (b.as_int() == 0) throw RuntimeError("div: division by zero");
            return Value::of(a.as_int() / b.as_int());
          }
          if (b.as_float() == 0.0) throw RuntimeError("div: division by zero");
          return Value::of(a.as_float() / b.as_float());
        })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 2 || !is_num(a[0]) || !is_num(a[1])) return std::nullopt;
        if (is_int(a[0]) && is_int(a[1])) {
          const int64_t d = std::get<int64_t>(a[1]);
          if (d == 0) return std::nullopt;  // fold must not hide the error
          return ConstValue{std::get<int64_t>(a[0]) / d};
        }
        if (num(a[1]) == 0.0) return std::nullopt;
        return ConstValue{num(a[0]) / num(a[1])};
      });
  r.add("mod", 2,
        [](OpContext& ctx) -> Value {
          const int64_t b = ctx.arg_int(1);
          if (b == 0) throw RuntimeError("mod: division by zero");
          return Value::of(ctx.arg_int(0) % b);
        })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 2 || !is_int(a[0]) || !is_int(a[1])) return std::nullopt;
        const int64_t d = std::get<int64_t>(a[1]);
        if (d == 0) return std::nullopt;
        return ConstValue{std::get<int64_t>(a[0]) % d};
      });
  r.add("neg", 1,
        [](OpContext& ctx) -> Value {
          const Value& a = ctx.arg(0);
          if (a.kind() == Value::Kind::kInt) return Value::of(-a.as_int());
          return Value::of(-a.as_float());
        })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 1 || !is_num(a[0])) return std::nullopt;
        if (is_int(a[0])) return ConstValue{-std::get<int64_t>(a[0])};
        return ConstValue{-num(a[0])};
      });
  r.add("abs", 1,
        [](OpContext& ctx) -> Value {
          const Value& a = ctx.arg(0);
          if (a.kind() == Value::Kind::kInt) return Value::of(std::abs(a.as_int()));
          return Value::of(std::fabs(a.as_float()));
        })
      .pure();
  r.add("sqrt", 1, [](OpContext& ctx) { return Value::of(std::sqrt(ctx.arg_float(0))); })
      .pure();
  r.add("floor", 1,
        [](OpContext& ctx) {
          return Value::of(static_cast<int64_t>(std::floor(ctx.arg_float(0))));
        })
      .pure();
  r.add("ceil", 1,
        [](OpContext& ctx) {
          return Value::of(static_cast<int64_t>(std::ceil(ctx.arg_float(0))));
        })
      .pure();

  // --- comparison ---------------------------------------------------------
  r.add("is_equal", 2,
        [](OpContext& ctx) {
          return Value::of(static_cast<int64_t>(value_equal(ctx.arg(0), ctx.arg(1)) ? 1 : 0));
        })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 2) return std::nullopt;
        return ConstValue{static_cast<int64_t>(const_equal(a[0], a[1]) ? 1 : 0)};
      });
  r.add("is_not_equal", 2,
        [](OpContext& ctx) {
          return Value::of(static_cast<int64_t>(value_equal(ctx.arg(0), ctx.arg(1)) ? 0 : 1));
        })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 2) return std::nullopt;
        return ConstValue{static_cast<int64_t>(const_equal(a[0], a[1]) ? 0 : 1)};
      });
  add_compare(r, "less_than", [](double a, double b) { return a < b; });
  add_compare(r, "less_equal", [](double a, double b) { return a <= b; });
  add_compare(r, "greater_than", [](double a, double b) { return a > b; });
  add_compare(r, "greater_equal", [](double a, double b) { return a >= b; });

  // --- logic (truthiness-based, results are 0/1) --------------------------
  r.add("not", 1,
        [](OpContext& ctx) { return Value::of(static_cast<int64_t>(ctx.arg(0).truthy() ? 0 : 1)); })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 1) return std::nullopt;
        return ConstValue{static_cast<int64_t>(const_truthy_local(a[0]) ? 0 : 1)};
      });
  r.add("and", 2,
        [](OpContext& ctx) {
          return Value::of(
              static_cast<int64_t>(ctx.arg(0).truthy() && ctx.arg(1).truthy() ? 1 : 0));
        })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 2) return std::nullopt;
        return ConstValue{
            static_cast<int64_t>(const_truthy_local(a[0]) && const_truthy_local(a[1]) ? 1 : 0)};
      });
  r.add("or", 2,
        [](OpContext& ctx) {
          return Value::of(
              static_cast<int64_t>(ctx.arg(0).truthy() || ctx.arg(1).truthy() ? 1 : 0));
        })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 2) return std::nullopt;
        return ConstValue{
            static_cast<int64_t>(const_truthy_local(a[0]) || const_truthy_local(a[1]) ? 1 : 0)};
      });

  // --- strings -------------------------------------------------------------
  r.add("concat", 2,
        [](OpContext& ctx) { return Value::of(ctx.arg_string(0) + ctx.arg_string(1)); })
      .pure()
      .fold([](std::span<const ConstValue> a) -> std::optional<ConstValue> {
        if (a.size() != 2 || !std::holds_alternative<std::string>(a[0]) ||
            !std::holds_alternative<std::string>(a[1])) {
          return std::nullopt;
        }
        return ConstValue{std::get<std::string>(a[0]) + std::get<std::string>(a[1])};
      });
  r.add("str_len", 1,
        [](OpContext& ctx) { return Value::of(static_cast<int64_t>(ctx.arg_string(0).size())); })
      .pure();
  r.add("to_string", 1,
        [](OpContext& ctx) { return Value::of(ctx.arg(0).to_display_string()); })
      .pure();

  // --- conversion ------------------------------------------------------------
  r.add("to_int", 1,
        [](OpContext& ctx) -> Value {
          const Value& a = ctx.arg(0);
          if (a.kind() == Value::Kind::kString) {
            return Value::of(static_cast<int64_t>(std::stoll(a.as_string())));
          }
          return Value::of(static_cast<int64_t>(a.as_float()));
        })
      .pure();
  r.add("to_float", 1,
        [](OpContext& ctx) -> Value {
          const Value& a = ctx.arg(0);
          if (a.kind() == Value::Kind::kString) return Value::of(std::stod(a.as_string()));
          return Value::of(a.as_float());
        })
      .pure();

  // --- multiple-value packages ---------------------------------------------
  // Package construction is syntax (<a, b, c>); these operators make
  // packages useful with parmap and data-driven fan-out. Indices are
  // 0-based.
  r.add("package_size", 1,
        [](OpContext& ctx) {
          return Value::of(static_cast<int64_t>(ctx.arg(0).as_tuple().elems.size()));
        })
      .pure();
  r.add("package_get", 2,
        [](OpContext& ctx) -> Value {
          const MultiValue& mv = ctx.arg(0).as_tuple();
          const int64_t i = ctx.arg_int(1);
          if (i < 0 || static_cast<size_t>(i) >= mv.elems.size()) {
            throw RuntimeError("package_get: index " + std::to_string(i) + " out of a " +
                               std::to_string(mv.elems.size()) + "-element package");
          }
          return mv.elems[static_cast<size_t>(i)];
        })
      .pure();
  r.add("package_append", 2,
        [](OpContext& ctx) {
          std::vector<Value> elems = ctx.arg(0).as_tuple().elems;
          elems.push_back(ctx.take(1));
          return Value::tuple(std::move(elems));
        })
      .pure();
  r.add("package_concat", 2,
        [](OpContext& ctx) {
          std::vector<Value> elems = ctx.arg(0).as_tuple().elems;
          const MultiValue& b = ctx.arg(1).as_tuple();
          elems.insert(elems.end(), b.elems.begin(), b.elems.end());
          return Value::tuple(std::move(elems));
        })
      .pure();
  r.add("package_reverse", 1,
        [](OpContext& ctx) {
          const std::vector<Value>& elems = ctx.arg(0).as_tuple().elems;
          return Value::tuple(std::vector<Value>(elems.rbegin(), elems.rend()));
        })
      .pure();
  r.add("package_slice", 3,
        [](OpContext& ctx) -> Value {
          const MultiValue& mv = ctx.arg(0).as_tuple();
          const int64_t begin = ctx.arg_int(1);
          const int64_t end = ctx.arg_int(2);
          if (begin < 0 || end < begin || static_cast<size_t>(end) > mv.elems.size()) {
            throw RuntimeError("package_slice: range [" + std::to_string(begin) + ", " +
                               std::to_string(end) + ") out of a " +
                               std::to_string(mv.elems.size()) + "-element package");
          }
          return Value::tuple(std::vector<Value>(
              mv.elems.begin() + begin, mv.elems.begin() + end));
        })
      .pure();
  r.add("range", 1,
        [](OpContext& ctx) -> Value {
          const int64_t n = ctx.arg_int(0);
          if (n < 0) throw RuntimeError("range: negative length");
          std::vector<Value> elems;
          elems.reserve(static_cast<size_t>(n));
          for (int64_t i = 0; i < n; ++i) elems.push_back(Value::of(i));
          return Value::tuple(std::move(elems));
        })
      .pure();

  // --- misc -------------------------------------------------------------------
  r.add("identity", 1, [](OpContext& ctx) { return ctx.take(0); }).pure();
  r.add("is_null", 1,
        [](OpContext& ctx) { return Value::of(static_cast<int64_t>(ctx.arg(0).is_null() ? 1 : 0)); })
      .pure();
  // print is the only impure builtin: it must not be folded or eliminated.
  r.add("print", 1, [](OpContext& ctx) {
    {
      std::lock_guard<std::mutex> lock(print_mutex());
      std::cout << ctx.arg(0).to_display_string() << '\n';
    }
    return ctx.take(0);
  });
}

}  // namespace delirium
