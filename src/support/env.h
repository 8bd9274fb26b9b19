// Shared parsing for the DELIRIUM_* environment knobs.
//
// Every runtime and analysis knob parses its value through these
// helpers, so all of them keep one contract: a malformed value throws
// EnvError naming the variable and the offending text — a typo like
// DELIRIUM_AFFINITY=operater fails loudly instead of silently running
// the wrong configuration — and an unset variable falls back to the
// caller's default.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace delirium {

/// Thrown on a malformed DELIRIUM_* value. what() always names the
/// variable and quotes the offending text, so the error is actionable
/// no matter how far from the shell it surfaces.
class EnvError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Raw value of an environment variable, or nullopt when unset. An
/// empty string counts as unset: `DELIRIUM_X= ./prog` is the idiomatic
/// way to neutralize a knob exported earlier in a script.
std::optional<std::string> env_raw(const char* name);

/// Boolean knob: "0"/"false"/"off" -> false, "1"/"true"/"on" -> true
/// (case-sensitive, matching the documented forms). Unset -> fallback;
/// anything else throws EnvError.
bool env_flag(const char* name, bool fallback);

/// Integer knob parsed in full (no silently-ignored trailing text).
/// Unset -> fallback; out of [min, max] or malformed throws EnvError.
int64_t env_int(const char* name, int64_t fallback,
                int64_t min = std::numeric_limits<int64_t>::min(),
                int64_t max = std::numeric_limits<int64_t>::max());

/// Enumerated knob: returns the index of the matching choice, or
/// `fallback` when unset. An unrecognized value throws EnvError listing
/// the accepted spellings.
size_t env_choice(const char* name, std::initializer_list<const char*> choices,
                  size_t fallback);

}  // namespace delirium
