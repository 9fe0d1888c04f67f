// Whole-file I/O for the artifacts the engine, the harness and the benches
// write (traces, metrics snapshots, telemetry dumps, run reports) and the
// checkers that read them back.
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace ckpt::util {

/// Writes `body` to `path`, replacing any previous content. kIoError, naming
/// the path, when the file cannot be opened or the write comes up short.
[[nodiscard]] Status WriteFile(const std::string& path, std::string_view body);

/// The whole content of `path`. kIoError, naming the path, when the file
/// cannot be opened or read.
[[nodiscard]] StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace ckpt::util
