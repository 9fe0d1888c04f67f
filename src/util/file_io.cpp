#include "util/file_io.hpp"

#include <fstream>
#include <sstream>

namespace ckpt::util {

Status WriteFile(const std::string& path, std::string_view body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return IoError("cannot open '" + path + "' for writing");
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  f.flush();
  if (!f) return IoError("short write to '" + path + "'");
  return OkStatus();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  if (f.bad()) return IoError("cannot read '" + path + "'");
  return std::move(buf).str();
}

}  // namespace ckpt::util
