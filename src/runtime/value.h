// Runtime values for Delirium.
//
// The coordination model (§8) passes all shared memory explicitly between
// operators as *blocks*. A block may be destructively modified only by an
// operator holding the sole reference; the runtime maintains reference
// counts and copies a block when two or more operators need simultaneous
// write access (copy-on-write). Atomic values (integers, floats,
// strings), multiple-value packages, and closures round out the value
// kinds of the language.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <variant>
#include <vector>

#include "src/graph/template.h"

namespace delirium {

/// Any failure during graph execution: type mismatches, arity mismatches
/// on closure calls, operator-thrown errors. Deterministic programs fail
/// deterministically, which is the point of the model (§9.1).
class RuntimeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where a block's "local memory" currently lives (§9.3): the worker
/// that last produced or pulled it, and that worker's NUMA domain under
/// the run's MemoryTopology. Both coordinates are packed into one
/// atomic word so a reader never sees a worker from one placement and a
/// domain from another. (-1, -1) means unplaced. Purely a performance
/// model; never affects values.
class BlockHome {
 public:
  int worker() const { return unpack_hi(packed_.load(std::memory_order_relaxed)); }
  int domain() const { return unpack_lo(packed_.load(std::memory_order_relaxed)); }
  void store(int worker, int domain) {
    packed_.store(pack(worker, domain), std::memory_order_relaxed);
  }

 private:
  // Each coordinate is biased by +1 so the zero-initialized word reads
  // back as the unplaced (-1, -1) home.
  static uint64_t pack(int worker, int domain) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(worker + 1)) << 32) |
           static_cast<uint32_t>(domain + 1);
  }
  static int unpack_hi(uint64_t packed) {
    return static_cast<int>(static_cast<uint32_t>(packed >> 32)) - 1;
  }
  static int unpack_lo(uint64_t packed) {
    return static_cast<int>(static_cast<uint32_t>(packed)) - 1;
  }

  std::atomic<uint64_t> packed_{0};
};

/// Type-erased shared data block. Apps subclass via TypedBlock<T>.
class BlockBase {
 public:
  virtual ~BlockBase() = default;
  virtual std::shared_ptr<BlockBase> clone() const = 0;
  /// Approximate payload size, used by the simulated-NUMA cost model and
  /// the data-affinity scheduler.
  virtual size_t byte_size() const = 0;
  virtual const char* type_name() const = 0;

  /// The block's home placement (worker + NUMA domain). All reads and
  /// writes go through these accessors; raw member access is private so
  /// the two coordinates can never be torn apart.
  int home_worker() const { return home_.worker(); }
  int home_domain() const { return home_.domain(); }
  void set_home(int worker, int domain) { home_.store(worker, domain); }

 private:
  BlockHome home_;
};

namespace detail {
template <typename T>
concept SizedContainer = requires(const T& t) {
  { t.size() } -> std::convertible_to<size_t>;
  typename T::value_type;
};

template <typename T>
concept HasBlockSizeHook = requires(const T& t) {
  { delirium_block_size(t) } -> std::convertible_to<size_t>;
};

/// Payload size of a block, used by the NUMA cost model and the
/// data-affinity scheduler. Types can customize by providing a free
/// function `size_t delirium_block_size(const T&)` findable by ADL;
/// containers fall back to size()*sizeof(value_type), everything else to
/// sizeof(T).
template <typename T>
size_t payload_bytes(const T& v) {
  if constexpr (HasBlockSizeHook<T>) {
    return delirium_block_size(v);
  } else if constexpr (SizedContainer<T>) {
    return sizeof(T) + v.size() * sizeof(typename T::value_type);
  } else {
    return sizeof(T);
  }
}
}  // namespace detail

template <typename T>
class TypedBlock final : public BlockBase {
 public:
  explicit TypedBlock(T v) : data(std::move(v)) {}
  std::shared_ptr<BlockBase> clone() const override {
    return std::make_shared<TypedBlock<T>>(data);
  }
  size_t byte_size() const override { return detail::payload_bytes(data); }
  const char* type_name() const override { return typeid(T).name(); }

  T data;
};

class Value;

/// Whether `p` is the sole holder of its object, so the caller may move
/// from or write into it. The count is a relaxed load; the acquire that
/// follows a count of 1 orders this holder's access after every access
/// the previous holders made before they released their references.
/// ThreadSanitizer does not model fences, so under it the acquire comes
/// from weak_ptr::lock(), whose acq_rel CAS on the count it does model.
template <class T>
bool sole_holder(const std::shared_ptr<T>& p) {
  if (p.use_count() != 1) return false;
#if defined(__SANITIZE_THREAD__)
  (void)std::weak_ptr<T>(p).lock();
#else
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
  return true;
}

/// A multiple-value package (language construct 2).
struct MultiValue {
  std::vector<Value> elems;
};

/// A function value: template plus captured values. Where a function is
/// passed as an argument, "the run time system actually passes the
/// corresponding graph" (§3).
struct Closure {
  const Template* tmpl = nullptr;
  std::vector<Value> captures;
};

class Value {
 public:
  enum class Kind : uint8_t { kNull, kInt, kFloat, kString, kBlock, kTuple, kClosure };

  Value() = default;
  static Value null() { return Value(); }
  static Value of(int64_t v) { return Value(Storage{std::in_place_index<1>, v}); }
  static Value of(double v) { return Value(Storage{std::in_place_index<2>, v}); }
  static Value of(std::string v) {
    return Value(Storage{std::in_place_index<3>, std::make_shared<const std::string>(std::move(v))});
  }
  static Value of_block(std::shared_ptr<BlockBase> b) {
    return Value(Storage{std::in_place_index<4>, std::move(b)});
  }
  template <typename T>
  static Value block(T data) {
    return of_block(std::make_shared<TypedBlock<T>>(std::move(data)));
  }
  static Value tuple(std::vector<Value> elems) {
    auto mv = std::make_shared<MultiValue>();
    mv->elems = std::move(elems);
    return Value(Storage{std::in_place_index<5>, std::move(mv)});
  }
  static Value closure(const Template* tmpl, std::vector<Value> captures) {
    auto c = std::make_shared<Closure>();
    c->tmpl = tmpl;
    c->captures = std::move(captures);
    return Value(Storage{std::in_place_index<6>, std::move(c)});
  }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }

  int64_t as_int() const {
    if (const auto* p = std::get_if<int64_t>(&v_)) return *p;
    throw RuntimeError(std::string("expected an integer value, got ") + kind_name());
  }
  double as_float() const {
    if (const auto* p = std::get_if<double>(&v_)) return *p;
    if (const auto* p = std::get_if<int64_t>(&v_)) return static_cast<double>(*p);
    throw RuntimeError(std::string("expected a float value, got ") + kind_name());
  }
  const std::string& as_string() const {
    if (const auto* p = std::get_if<std::shared_ptr<const std::string>>(&v_)) return **p;
    throw RuntimeError(std::string("expected a string value, got ") + kind_name());
  }
  const MultiValue& as_tuple() const {
    if (const auto* p = std::get_if<std::shared_ptr<MultiValue>>(&v_)) return **p;
    throw RuntimeError(std::string("expected a multiple-value package, got ") + kind_name());
  }

  /// Mutable access to a *uniquely held* package (e.g. to move elements
  /// out); nullptr when the package is shared and must be treated as
  /// read-only. Not a type error — callers fall back to copying.
  MultiValue* tuple_mut() {
    auto* p = std::get_if<std::shared_ptr<MultiValue>>(&v_);
    if (p == nullptr || !sole_holder(*p)) return nullptr;
    return p->get();
  }
  const Closure& as_closure() const {
    if (const auto* p = std::get_if<std::shared_ptr<Closure>>(&v_)) return **p;
    throw RuntimeError(std::string("expected a function value, got ") + kind_name());
  }

  /// Extract a closure's captured values: moved out when this is the sole
  /// reference (the common case — avoids transient reference counts that
  /// would defeat the copy-on-write uniqueness test), copied otherwise.
  std::vector<Value> take_closure_captures() {
    auto* p = std::get_if<std::shared_ptr<Closure>>(&v_);
    if (p == nullptr) {
      throw RuntimeError(std::string("expected a function value, got ") + kind_name());
    }
    if (sole_holder(*p)) return std::move((*p)->captures);
    return (*p)->captures;
  }
  const std::shared_ptr<BlockBase>& block_ptr() const {
    if (const auto* p = std::get_if<std::shared_ptr<BlockBase>>(&v_)) return *p;
    throw RuntimeError(std::string("expected a data block, got ") + kind_name());
  }

  template <typename T>
  const T& block_as() const {
    const auto* typed = dynamic_cast<const TypedBlock<T>*>(block_ptr().get());
    if (typed == nullptr) {
      throw RuntimeError(std::string("data block holds ") + block_ptr()->type_name() +
                         ", not the requested type");
    }
    return typed->data;
  }

  /// Copy-on-write access: clones the block when the reference count
  /// shows other holders (the §2.1 contention rule). Returns whether a
  /// copy was made.
  template <typename T>
  T& block_mut(bool* copied = nullptr) {
    auto* slot = std::get_if<std::shared_ptr<BlockBase>>(&v_);
    if (slot == nullptr) {
      throw RuntimeError(std::string("expected a data block, got ") + kind_name());
    }
    if (!sole_holder(*slot)) {
      *slot = (*slot)->clone();
      if (copied != nullptr) *copied = true;
    } else if (copied != nullptr) {
      *copied = false;
    }
    auto* typed = dynamic_cast<TypedBlock<T>*>(slot->get());
    if (typed == nullptr) {
      throw RuntimeError(std::string("data block holds ") + (*slot)->type_name() +
                         ", not the requested type");
    }
    return typed->data;
  }

  /// In-place mutable access for statically-proved sole consumers: no
  /// uniqueness check, no clone. Safe only when the sole-consumer
  /// analysis classified this use kUnique. `was_shared` reports whether
  /// the refcount would have forced a copy (counted as a skipped clone).
  template <typename T>
  T& block_mut_inplace(bool* was_shared = nullptr) {
    auto* slot = std::get_if<std::shared_ptr<BlockBase>>(&v_);
    if (slot == nullptr) {
      throw RuntimeError(std::string("expected a data block, got ") + kind_name());
    }
    if (was_shared != nullptr) *was_shared = slot->use_count() > 1;
    auto* typed = dynamic_cast<TypedBlock<T>*>(slot->get());
    if (typed == nullptr) {
      throw RuntimeError(std::string("data block holds ") + (*slot)->type_name() +
                         ", not the requested type");
    }
    return typed->data;
  }

  /// Truthiness (shared with the optimizer): NULL, 0, and 0.0 are false.
  bool truthy() const {
    switch (kind()) {
      case Kind::kNull: return false;
      case Kind::kInt: return std::get<int64_t>(v_) != 0;
      case Kind::kFloat: return std::get<double>(v_) != 0.0;
      default: return true;
    }
  }

  const char* kind_name() const {
    switch (kind()) {
      case Kind::kNull: return "NULL";
      case Kind::kInt: return "int";
      case Kind::kFloat: return "float";
      case Kind::kString: return "string";
      case Kind::kBlock: return "block";
      case Kind::kTuple: return "tuple";
      case Kind::kClosure: return "closure";
    }
    return "?";
  }

  /// Render for debugging / the print operator.
  std::string to_display_string() const;

  /// Deep structural equality (blocks compare by identity; tuples
  /// element-wise). Used by tests.
  friend bool deep_equal(const Value& a, const Value& b);

  static Value from_const(const ConstValue& c) {
    if (std::holds_alternative<std::monostate>(c)) return Value();
    if (const auto* i = std::get_if<int64_t>(&c)) return of(*i);
    if (const auto* d = std::get_if<double>(&c)) return of(*d);
    return of(std::get<std::string>(c));
  }

 private:
  using Storage = std::variant<std::monostate, int64_t, double,
                               std::shared_ptr<const std::string>,
                               std::shared_ptr<BlockBase>, std::shared_ptr<MultiValue>,
                               std::shared_ptr<Closure>>;
  explicit Value(Storage v) : v_(std::move(v)) {}
  Storage v_;
};

bool deep_equal(const Value& a, const Value& b);

}  // namespace delirium
