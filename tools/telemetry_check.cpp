// telemetry_check: validator for OpenMetrics payloads scraped from the
// engine (VELOCX_Telemetry_scrape, the harness's <out>.openmetrics.txt, or
// a flight-recorder dump). Used by CI after telemetry-enabled runs:
//
//   telemetry_check scrape.txt [--require FAMILY ...] [--prev earlier.txt]
//                              [--expect-zero SAMPLE] [--expect-nonzero SAMPLE]
//                              [--require-label KEY=VALUE ...]
//
// Exits 0 when the payload parses as valid OpenMetrics text (name/label
// charsets, TYPE-before-samples, counter `_total` convention, escaped label
// values, trailing `# EOF`), contains at least one sample for every
// --require'd family, and — with --prev — no counter went backwards since
// the earlier scrape. --expect-zero/--expect-nonzero assert on one sample
// key (exact "name{labels}" form, or a bare family name to sum all of its
// samples): CI uses --expect-zero on ckpt_watchdog_stalls_total for healthy
// runs and --expect-nonzero on it for the forced-stall run.
// --require-label KEY=VALUE asserts at least one sample carries that exact
// label pair (multi-tenant CI scrapes require tenant=<name> per tenant).
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/telemetry_sink.hpp"
#include "util/file_io.hpp"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scrape.txt> [--require FAMILY ...] [--prev FILE]\n"
               "          [--expect-zero SAMPLE] [--expect-nonzero SAMPLE]\n"
               "          [--require-label KEY=VALUE ...]\n",
               argv0);
  return 2;
}

/// Resolves a selector the way a human writes it: a counter family name
/// selects its `_total` samples, a histogram family its `_count` samples,
/// anything else selects itself.
std::string ResolveSelector(const ckpt::core::TelemetryCheck& ck,
                            const std::string& sel) {
  const auto it = ck.family_type.find(sel);
  if (it != ck.family_type.end() && it->second == "counter") {
    return sel + "_total";
  }
  if (it != ck.family_type.end() && it->second == "histogram") {
    return sel + "_count";
  }
  return sel;
}

/// Sum of every sample whose key is `sel` exactly, or whose metric name
/// (the part before '{') equals `sel`.
double SumSelected(const ckpt::core::TelemetryCheck& ck,
                   const std::string& sel, std::size_t& matches) {
  double sum = 0.0;
  matches = 0;
  for (const auto& [key, v] : ck.values) {
    const std::size_t brace = key.find('{');
    const std::string name =
        brace == std::string::npos ? key : key.substr(0, brace);
    if (key == sel || name == sel) {
      sum += v;
      ++matches;
    }
  }
  return sum;
}

/// Samples carrying the exact label pair `KEY="VALUE"` (matched at label
/// boundaries inside the rendered block, never against label values).
std::size_t CountLabelMatches(const ckpt::core::TelemetryCheck& ck,
                              const std::string& key,
                              const std::string& value) {
  const std::string needle = key + "=\"" + value + "\"";
  std::size_t matches = 0;
  for (const auto& [sample, v] : ck.values) {
    (void)v;
    const std::size_t brace = sample.find('{');
    if (brace == std::string::npos) continue;
    std::size_t pos = sample.find(needle, brace);
    while (pos != std::string::npos) {
      const char before = sample[pos - 1];
      const std::size_t end = pos + needle.size();
      const char after = end < sample.size() ? sample[end] : '\0';
      if ((before == '{' || before == ',') && (after == ',' || after == '}')) {
        ++matches;
        break;
      }
      pos = sample.find(needle, pos + 1);
    }
  }
  return matches;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string path = argv[1];
  std::vector<std::string> required;
  std::vector<std::string> expect_zero;
  std::vector<std::string> expect_nonzero;
  std::vector<std::pair<std::string, std::string>> required_labels;
  std::string prev_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      required.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--require-label") == 0 && i + 1 < argc) {
      const std::string kv = argv[++i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr,
                     "telemetry_check: --require-label wants KEY=VALUE, got "
                     "'%s'\n",
                     kv.c_str());
        return 2;
      }
      required_labels.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (std::strcmp(argv[i], "--prev") == 0 && i + 1 < argc) {
      prev_path = argv[++i];
    } else if (std::strcmp(argv[i], "--expect-zero") == 0 && i + 1 < argc) {
      expect_zero.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--expect-nonzero") == 0 && i + 1 < argc) {
      expect_nonzero.emplace_back(argv[++i]);
    } else {
      return Usage(argv[0]);
    }
  }

  const auto text = ckpt::util::ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "telemetry_check: %s\n",
                 text.status().ToString().c_str());
    return 2;
  }
  const ckpt::core::TelemetryCheck check =
      ckpt::core::ValidateOpenMetrics(*text);
  std::printf("%s: %zu families, %zu samples\n", path.c_str(), check.families,
              check.samples);
  if (!check.ok) {
    std::fprintf(stderr, "telemetry_check: INVALID: %s\n",
                 check.error.c_str());
    return 1;
  }

  int failures = 0;
  for (const std::string& fam : required) {
    if (check.family_type.count(fam) == 0) {
      std::fprintf(stderr, "telemetry_check: family '%s' not declared\n",
                   fam.c_str());
      ++failures;
      continue;
    }
    std::size_t matches = 0;
    (void)SumSelected(check, ResolveSelector(check, fam), matches);
    if (matches == 0) {
      std::fprintf(stderr, "telemetry_check: family '%s' has no samples\n",
                   fam.c_str());
      ++failures;
    }
  }
  for (const auto& [lkey, lvalue] : required_labels) {
    const std::size_t matches = CountLabelMatches(check, lkey, lvalue);
    if (matches == 0) {
      std::fprintf(stderr,
                   "telemetry_check: no sample carries label %s=\"%s\"\n",
                   lkey.c_str(), lvalue.c_str());
      ++failures;
    } else {
      std::printf("label %s=\"%s\": %zu sample(s)\n", lkey.c_str(),
                  lvalue.c_str(), matches);
    }
  }
  for (const std::string& raw : expect_zero) {
    const std::string sel = ResolveSelector(check, raw);
    std::size_t matches = 0;
    const double sum = SumSelected(check, sel, matches);
    if (matches == 0) {
      std::fprintf(stderr, "telemetry_check: --expect-zero '%s' matched nothing\n",
                   sel.c_str());
      ++failures;
    } else if (sum != 0.0) {
      std::fprintf(stderr,
                   "telemetry_check: expected '%s' == 0, got %g over %zu sample(s)\n",
                   sel.c_str(), sum, matches);
      ++failures;
    }
  }
  for (const std::string& raw : expect_nonzero) {
    const std::string sel = ResolveSelector(check, raw);
    std::size_t matches = 0;
    const double sum = SumSelected(check, sel, matches);
    if (matches == 0 || sum == 0.0) {
      std::fprintf(stderr,
                   "telemetry_check: expected '%s' > 0, got %g over %zu sample(s)\n",
                   sel.c_str(), sum, matches);
      ++failures;
    }
  }
  if (!prev_path.empty()) {
    const auto prev_text = ckpt::util::ReadFile(prev_path);
    if (!prev_text.ok()) {
      std::fprintf(stderr, "telemetry_check: %s\n",
                   prev_text.status().ToString().c_str());
      return 2;
    }
    const ckpt::core::TelemetryCheck prev =
        ckpt::core::ValidateOpenMetrics(*prev_text);
    if (!prev.ok) {
      std::fprintf(stderr, "telemetry_check: --prev INVALID: %s\n",
                   prev.error.c_str());
      return 1;
    }
    const ckpt::util::Status st =
        ckpt::core::CheckCounterMonotonic(prev, check);
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry_check: %s\n", st.ToString().c_str());
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::printf("telemetry_check: OK\n");
  return 0;
}
