#include "src/chaos/corpus.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/fault/plan_serde.h"

namespace mitt::chaos {
namespace {

constexpr std::string_view kHeader = "# mittos chaos corpus v1";

// Stores `v` in *field when lo <= v and the field's type can hold it.
template <typename T>
bool Store(int64_t v, int64_t lo, T* field) {
  if (v < lo || static_cast<uint64_t>(v) > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *field = static_cast<T>(v);
  return true;
}

bool ParseWorldLine(const std::vector<std::string_view>& tokens, ChaosWorldOptions* world,
                    std::string* error) {
  for (size_t i = 1; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      *error = "malformed world token '" + std::string(tokens[i]) + "'";
      return false;
    }
    const std::string_view key = tokens[i].substr(0, eq);
    const std::string_view value = tokens[i].substr(eq + 1);
    int64_t v = 0;
    const bool parsed = key == "seed" ? fault::ParseU64(value, &world->seed)
                                      : fault::ParseI64(value, &v);
    if (!parsed) {
      *error = "unparsable world value '" + std::string(tokens[i]) + "'";
      return false;
    }
    if (key == "seed") {
      continue;  // Parsed straight into the field: a seed is unsigned.
    }
    // Counts, the deadline and the horizon are never negative, and a world
    // has at least one node and one shard.
    bool in_range = false;
    if (key == "nodes") {
      in_range = Store(v, 1, &world->num_nodes);
    } else if (key == "clients") {
      in_range = Store(v, 0, &world->num_clients);
    } else if (key == "requests") {
      in_range = Store(v, 0, &world->requests);
    } else if (key == "warmup") {
      in_range = Store(v, 0, &world->warmup);
    } else if (key == "deadline") {
      in_range = Store(v, 0, &world->deadline);
    } else if (key == "horizon") {
      in_range = Store(v, 0, &world->horizon);
    } else if (key == "shards") {
      in_range = Store(v, 1, &world->num_shards);
    } else if (key == "bug") {
      in_range = Store(v, 0, &world->inject_bug);
    } else if (key == "tenants") {
      in_range = Store(v, 0, &world->tenants);
    } else {
      *error = "unknown world key '" + std::string(key) + "'";
      return false;
    }
    if (!in_range) {
      *error = "world value out of range '" + std::string(tokens[i]) + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string CorpusEntryToText(const CorpusEntry& entry) {
  std::string out(kHeader);
  out += '\n';
  if (!entry.note.empty()) {
    out += "# ";
    out += entry.note;
    out += '\n';
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "world nodes=%d clients=%d requests=%zu warmup=%zu deadline=%" PRId64
                " horizon=%" PRId64 " shards=%d seed=%" PRIu64 " bug=%d tenants=%d",
                entry.world.num_nodes, entry.world.num_clients, entry.world.requests,
                entry.world.warmup, entry.world.deadline, entry.world.horizon,
                entry.world.num_shards, entry.world.seed, entry.world.inject_bug ? 1 : 0,
                entry.world.tenants ? 1 : 0);
  out += buf;
  out += '\n';
  for (const std::string& oracle : entry.expect) {
    out += "expect ";
    out += oracle;
    out += '\n';
  }
  for (const fault::FaultEpisode& e : entry.plan.episodes()) {
    out += fault::EpisodeToLine(e);
    out += '\n';
  }
  return out;
}

bool CorpusEntryFromText(std::string_view text, CorpusEntry* out, std::string* error) {
  CorpusEntry entry;
  std::vector<fault::FaultEpisode> episodes;
  bool saw_world = false;
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
    const std::vector<std::string_view> tokens = fault::Tokens(line);
    std::string line_error;
    if (tokens.empty()) {
      *error = "line " + std::to_string(line_no) + ": whitespace-only line";
      return false;
    }
    if (tokens[0] == "world") {
      if (!ParseWorldLine(tokens, &entry.world, &line_error)) {
        *error = "line " + std::to_string(line_no) + ": " + line_error;
        return false;
      }
      saw_world = true;
    } else if (tokens[0] == "expect") {
      if (tokens.size() != 2) {
        *error = "line " + std::to_string(line_no) + ": expect takes exactly one oracle name";
        return false;
      }
      entry.expect.emplace_back(tokens[1]);
    } else if (tokens[0] == "episode") {
      fault::FaultEpisode e;
      if (!fault::EpisodeFromLine(line, &e, &line_error)) {
        *error = "line " + std::to_string(line_no) + ": " + line_error;
        return false;
      }
      episodes.push_back(e);
    } else {
      *error = "line " + std::to_string(line_no) + ": unknown directive '" +
               std::string(tokens[0]) + "'";
      return false;
    }
  }
  if (!saw_world) {
    *error = "no 'world' line";
    return false;
  }
  entry.plan = fault::FaultPlan(std::move(episodes));
  *out = std::move(entry);
  return true;
}

bool SaveCorpusEntry(const std::string& path, const CorpusEntry& entry, std::string* error) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    *error = "cannot open for write: " + path;
    return false;
  }
  f << CorpusEntryToText(entry);
  f.flush();
  if (!f) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool LoadCorpusEntry(const std::string& path, CorpusEntry* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *error = "cannot open: " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return CorpusEntryFromText(ss.str(), out, error);
}

}  // namespace mitt::chaos
