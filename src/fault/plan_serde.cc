#include "src/fault/plan_serde.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

namespace mitt::fault {
namespace {

constexpr std::string_view kHeader = "# mittos fault plan v1";

const FaultKind kAllKinds[] = {
    FaultKind::kFailSlowDisk,   FaultKind::kSsdReadRetry, FaultKind::kNetworkDegrade,
    FaultKind::kNetworkDrop,    FaultKind::kNetworkPartition,
    FaultKind::kNodePause,      FaultKind::kNodeCrashRestart,
};

bool SplitKeyValue(std::string_view token, std::string_view* key, std::string_view* value) {
  const size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

// Copies a token into `buf` as a C string for strtoll/strtoull. False when
// it is empty, too long, or starts with whitespace (which strto* would skip).
bool TokenToCString(std::string_view s, char (&buf)[32]) {
  if (s.empty() || s.size() >= sizeof(buf) || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  return true;
}

// An episode's node or chip selector: an int64 that fits an int.
bool ParseInt(std::string_view s, int* out) {
  int64_t v = 0;
  if (!ParseI64(s, &v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) {
    return false;
  }
  char buf[64];
  if (s.size() >= sizeof(buf)) {
    return false;
  }
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') {
      ++j;
    }
    if (j > i) {
      out.push_back(line.substr(i, j - i));
    }
    i = j;
  }
  return out;
}

bool ParseI64(std::string_view s, int64_t* out) {
  char buf[32];
  if (!TokenToCString(s, buf)) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (end != buf + s.size() || errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  char buf[32];
  // strtoull would accept "-1" as 2^64 - 1.
  if (!TokenToCString(s, buf) || s[0] == '-' || s[0] == '+') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf, &end, 10);
  if (end != buf + s.size() || errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

bool FaultKindFromName(std::string_view name, FaultKind* out) {
  for (const FaultKind kind : kAllKinds) {
    if (FaultKindName(kind) == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string EpisodeToLine(const FaultEpisode& episode) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "episode kind=%s node=%d start=%lld dur=%lld severity=%.17g chip=%d",
                std::string(FaultKindName(episode.kind)).c_str(), episode.node,
                static_cast<long long>(episode.start), static_cast<long long>(episode.duration),
                episode.severity, episode.chip);
  return buf;
}

bool EpisodeFromLine(std::string_view line, FaultEpisode* out, std::string* error) {
  const std::vector<std::string_view> tokens = Tokens(line);
  if (tokens.empty() || tokens[0] != "episode") {
    if (error != nullptr) {
      *error = "expected 'episode' line: " + std::string(line);
    }
    return false;
  }
  FaultEpisode e;
  bool saw_kind = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    std::string_view key;
    std::string_view value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      if (error != nullptr) {
        *error = "malformed token '" + std::string(tokens[i]) + "'";
      }
      return false;
    }
    if (key == "kind") {
      if (!FaultKindFromName(value, &e.kind)) {
        if (error != nullptr) {
          *error = "unknown fault kind '" + std::string(value) + "'";
        }
        return false;
      }
      saw_kind = true;
      continue;
    }
    bool parsed = false;
    if (key == "node") {
      parsed = ParseInt(value, &e.node);
    } else if (key == "start") {
      parsed = ParseI64(value, &e.start);
    } else if (key == "dur") {
      parsed = ParseI64(value, &e.duration);
    } else if (key == "severity") {
      parsed = ParseDouble(value, &e.severity);
    } else if (key == "chip") {
      parsed = ParseInt(value, &e.chip);
    }
    if (!parsed) {
      if (error != nullptr) {
        *error = "unknown or unparsable token '" + std::string(tokens[i]) + "'";
      }
      return false;
    }
  }
  if (!saw_kind) {
    if (error != nullptr) {
      *error = "episode line missing kind=";
    }
    return false;
  }
  // Only what a generated plan can hold: a severity inside its kind's range
  // (the chaos mutator's clamp) and a positive duration.
  const SeverityRange range = SeverityRangeOf(e.kind);
  if (!(e.severity >= range.lo && e.severity <= range.hi)) {  // NaN fails too.
    if (error != nullptr) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "severity %.17g outside [%g, %g] for %s", e.severity,
                    range.lo, range.hi, std::string(FaultKindName(e.kind)).c_str());
      *error = buf;
    }
    return false;
  }
  if (e.duration <= 0) {
    if (error != nullptr) {
      *error = "dur must be positive, got " + std::to_string(e.duration);
    }
    return false;
  }
  *out = e;
  return true;
}

std::string FaultPlanToText(const FaultPlan& plan) {
  std::string out(kHeader);
  out += '\n';
  for (const FaultEpisode& e : plan.episodes()) {
    out += EpisodeToLine(e);
    out += '\n';
  }
  return out;
}

bool FaultPlanFromText(std::string_view text, FaultPlan* out, std::string* error) {
  std::vector<FaultEpisode> episodes;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    std::string_view line =
        nl == std::string_view::npos ? text.substr(pos) : text.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') {
      continue;
    }
    FaultEpisode e;
    std::string line_error;
    if (!EpisodeFromLine(line, &e, &line_error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + line_error;
      }
      return false;
    }
    episodes.push_back(e);
  }
  *out = FaultPlan(std::move(episodes));
  return true;
}

}  // namespace mitt::fault
