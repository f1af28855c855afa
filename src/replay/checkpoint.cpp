#include "replay/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "replay/json.hpp"
#include "util/error.hpp"

namespace rfsp {

namespace {

constexpr std::string_view kFormat = "rfsp-checkpoint";
constexpr std::uint64_t kVersion = 1;

void append_word_array(std::string& out, const std::vector<Word>& words) {
  out += '[';
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) out += ',';
    json::append_i64(out, words[i]);
  }
  out += ']';
}

std::vector<Word> read_word_array(const json::Value& arr) {
  std::vector<Word> out;
  out.reserve(arr.as_array().size());
  for (const json::Value& v : arr.as_array()) out.push_back(v.as_i64());
  return out;
}

}  // namespace

std::string checkpoint_to_json(const EngineCheckpoint& cp) {
  std::string out;
  out += R"({"format":"rfsp-checkpoint","version":1,"slot":)";
  json::append_u64(out, cp.slot);

  out += R"(,"tally":{"completed":)";
  json::append_u64(out, cp.tally.completed_work);
  out += R"(,"attempted":)";
  json::append_u64(out, cp.tally.attempted_work);
  out += R"(,"failures":)";
  json::append_u64(out, cp.tally.failures);
  out += R"(,"restarts":)";
  json::append_u64(out, cp.tally.restarts);
  out += R"(,"slots":)";
  json::append_u64(out, cp.tally.slots);
  out += R"(,"halted":)";
  json::append_u64(out, cp.tally.halted);
  out += R"(,"peak_live":)";
  json::append_u64(out, cp.tally.peak_live);
  // New accounting fields ride as optional keys, omitted when zero, so
  // memory-model-free checkpoints stay byte-identical to the old format.
  if (cp.tally.persists != 0) {
    out += R"(,"persists":)";
    json::append_u64(out, cp.tally.persists);
  }
  out += '}';

  out += R"(,"memory":)";
  append_word_array(out, cp.memory);

  // Memory-model state (pram/faults.hpp), likewise omitted when absent:
  // "caches" only under the persistent-cache model (the vector is empty
  // otherwise), "faults" only when the adversary injected cell faults —
  // keeping the round-trip exact in every model.
  if (!cp.caches.empty()) {
    out += R"(,"caches":[)";
    for (std::size_t i = 0; i < cp.caches.size(); ++i) {
      if (i != 0) out += ',';
      const ProcCache& c = cp.caches[i];
      out += R"({"u":)";
      json::append_u64(out, c.unpersisted_cycles);
      out += R"(,"e":[)";
      for (std::size_t j = 0; j < c.entries.size(); ++j) {
        if (j != 0) out += ',';
        out += '[';
        json::append_u64(out, c.entries[j].addr);
        out += ',';
        json::append_i64(out, c.entries[j].value);
        out += ']';
      }
      out += "]}";
    }
    out += ']';
  }
  if (!cp.injected_faults.empty()) {
    out += R"(,"faults":[)";
    for (std::size_t i = 0; i < cp.injected_faults.size(); ++i) {
      if (i != 0) out += ',';
      json::append_u64(out, cp.injected_faults[i]);
    }
    out += ']';
  }

  out += R"(,"status":[)";
  for (std::size_t i = 0; i < cp.status.size(); ++i) {
    if (i != 0) out += ',';
    json::append_u64(out, static_cast<std::uint64_t>(cp.status[i]));
  }
  out += ']';

  out += R"(,"states":[)";
  for (std::size_t i = 0; i < cp.states.size(); ++i) {
    if (i != 0) out += ',';
    if (cp.states[i].has_value()) {
      append_word_array(out, *cp.states[i]);
    } else {
      out += "null";
    }
  }
  out += ']';

  out += R"(,"adversary":[)";
  for (std::size_t i = 0; i < cp.adversary.size(); ++i) {
    if (i != 0) out += ',';
    json::append_u64(out, cp.adversary[i]);
  }
  out += ']';

  // Saver-attached context; omitted when empty so meta-free documents stay
  // byte-identical to the pre-meta format (std::map keeps key order stable).
  if (!cp.meta.empty()) {
    out += R"(,"meta":{)";
    bool first = true;
    for (const auto& [key, value] : cp.meta) {
      if (!first) out += ',';
      first = false;
      json::append_string(out, key);
      out += ':';
      json::append_string(out, value);
    }
    out += '}';
  }

  out += '}';
  return out;
}

EngineCheckpoint checkpoint_from_json(std::string_view text) {
  const json::Value v = json::parse(text);
  if (v.at("format").as_string() != kFormat) {
    throw ConfigError("not an rfsp-checkpoint document");
  }
  if (v.at("version").as_u64() != kVersion) {
    throw ConfigError("unsupported checkpoint version " +
                      std::to_string(v.at("version").as_u64()));
  }

  EngineCheckpoint cp;
  cp.slot = static_cast<Slot>(v.at("slot").as_u64());

  const json::Value& tally = v.at("tally");
  cp.tally.completed_work = tally.at("completed").as_u64();
  cp.tally.attempted_work = tally.at("attempted").as_u64();
  cp.tally.failures = tally.at("failures").as_u64();
  cp.tally.restarts = tally.at("restarts").as_u64();
  cp.tally.slots = tally.at("slots").as_u64();
  cp.tally.halted = tally.at("halted").as_u64();
  cp.tally.peak_live = tally.at("peak_live").as_u64();
  if (const json::Value* persists = tally.find("persists")) {
    cp.tally.persists = persists->as_u64();
  }

  cp.memory = read_word_array(v.at("memory"));

  if (const json::Value* caches = v.find("caches")) {
    for (const json::Value& c : caches->as_array()) {
      ProcCache cache;
      cache.unpersisted_cycles = c.at("u").as_u64();
      for (const json::Value& e : c.at("e").as_array()) {
        const auto& pair = e.as_array();
        if (pair.size() != 2) {
          throw ConfigError("checkpoint cache entry is not an [addr, value]");
        }
        cache.entries.push_back({static_cast<Addr>(pair[0].as_u64()),
                                 pair[1].as_i64()});
      }
      cp.caches.push_back(std::move(cache));
    }
  }
  if (const json::Value* faults = v.find("faults")) {
    for (const json::Value& a : faults->as_array()) {
      cp.injected_faults.push_back(static_cast<Addr>(a.as_u64()));
    }
  }

  for (const json::Value& s : v.at("status").as_array()) {
    const std::uint64_t raw = s.as_u64();
    if (raw > static_cast<std::uint64_t>(ProcStatus::kHalted)) {
      throw ConfigError("checkpoint status out of range: " +
                        std::to_string(raw));
    }
    cp.status.push_back(static_cast<ProcStatus>(raw));
  }

  for (const json::Value& s : v.at("states").as_array()) {
    if (s.kind == json::Value::Kind::kNull) {
      cp.states.emplace_back(std::nullopt);
    } else {
      cp.states.emplace_back(read_word_array(s));
    }
  }

  for (const json::Value& a : v.at("adversary").as_array()) {
    cp.adversary.push_back(a.as_u64());
  }

  if (const json::Value* meta = v.find("meta"); meta != nullptr) {
    for (const auto& [key, value] : meta->as_object()) {
      cp.meta[key] = value.as_string();
    }
  }
  return cp;
}

void save_checkpoint(const EngineCheckpoint& cp, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("cannot open '" + path + "' for writing");
  out << checkpoint_to_json(cp) << '\n';
  out.flush();
  if (!out) throw ConfigError("failed writing checkpoint to '" + path + "'");
}

EngineCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open checkpoint file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return checkpoint_from_json(buf.str());
}

void require_heap_tree_order(const EngineCheckpoint& cp) {
  const auto it = cp.meta.find("tree_order");
  if (it != cp.meta.end() && it->second != "heap") {
    throw ConfigError("checkpoint holds a '" + it->second +
                      "' tree-order memory image; only heap-order "
                      "checkpoints can be resumed");
  }
}

}  // namespace rfsp
