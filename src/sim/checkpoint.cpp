#include "sim/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "sim/serialize.h"

namespace mcs::sim {

namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::uint64_t u64_from_hex(const std::string& s) {
  MCS_CHECK(s.size() == 16, "expected a 16-digit hex u64");
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw Error("invalid hex digit in u64 field");
  }
  return v;
}

Json params_to_json(const SimulatorParams& p) {
  Json::Object o;
  o["max_rounds"] = Json(p.max_rounds);
  o["platform_budget"] = Json(p.platform_budget);
  o["record_events"] = Json(p.record_events);
  // Seeds are full u64s; Json numbers are doubles, which lose bits past
  // 2^53, so they travel as hex strings.
  o["order_seed"] = Json(hex_u64(p.order_seed));
  Json::Object faults;
  faults["dropout_prob"] = Json(p.faults.dropout_prob);
  faults["abandon_prob"] = Json(p.faults.abandon_prob);
  faults["upload_loss_prob"] = Json(p.faults.upload_loss_prob);
  faults["corruption_prob"] = Json(p.faults.corruption_prob);
  faults["withdraw_prob"] = Json(p.faults.withdraw_prob);
  faults["seed"] = Json(hex_u64(p.faults.seed));
  o["faults"] = Json(std::move(faults));
  o["plan_threads"] = Json(p.plan_threads);
  o["reprice_threads"] = Json(p.reprice_threads);
  o["shards"] = Json(p.shards);
  o["phase_timers"] = Json(p.phase_timers);
  Json::Object memo;
  memo["enabled"] = Json(p.memo.enabled);
  memo["cell_size"] = Json(p.memo.cell_size);
  memo["budget_bucket"] = Json(p.memo.budget_bucket);
  memo["max_entries_per_key"] = Json(p.memo.max_entries_per_key);
  o["memo"] = Json(std::move(memo));
  return Json(std::move(o));
}

SimulatorParams params_from_json(const Json& j) {
  SimulatorParams p;
  p.max_rounds = static_cast<Round>(j.at("max_rounds").as_int());
  MCS_CHECK(p.max_rounds >= 1, "max_rounds must be at least 1");
  p.platform_budget = j.at("platform_budget").as_number();
  p.record_events = j.at("record_events").as_bool();
  p.order_seed = u64_from_hex(j.at("order_seed").as_string());
  const Json& jf = j.at("faults");
  p.faults.dropout_prob = jf.at("dropout_prob").as_number();
  p.faults.abandon_prob = jf.at("abandon_prob").as_number();
  p.faults.upload_loss_prob = jf.at("upload_loss_prob").as_number();
  p.faults.corruption_prob = jf.at("corruption_prob").as_number();
  p.faults.withdraw_prob = jf.at("withdraw_prob").as_number();
  p.faults.seed = u64_from_hex(jf.at("seed").as_string());
  // Payloads written while corrupted readings carried a noise knob may hold
  // a "corruption_noise" key; no campaign ever read it, so it is ignored.
  p.faults.validate();
  p.plan_threads = static_cast<int>(j.at("plan_threads").as_int());
  MCS_CHECK(p.plan_threads >= 0, "plan_threads must be non-negative");
  // Added after the first checkpoint format shipped; absent keys keep the
  // defaults so older checkpoints stay loadable.
  if (j.has("reprice_threads")) {
    p.reprice_threads = static_cast<int>(j.at("reprice_threads").as_int());
    MCS_CHECK(p.reprice_threads >= 0, "reprice_threads must be non-negative");
  }
  if (j.has("shards")) {
    p.shards = static_cast<int>(j.at("shards").as_int());
    MCS_CHECK(p.shards >= SimulatorParams::kAutoShards,
              "shards must be -1 (auto), 0 (plan threads) or a worker count");
  }
  if (j.has("phase_timers")) p.phase_timers = j.at("phase_timers").as_bool();
  // Payloads written before the per-user commit was retired may carry a
  // "legacy_commit" flag; both commits were bit-identical, so it is ignored.
  const Json& jm = j.at("memo");
  p.memo.enabled = jm.at("enabled").as_bool();
  p.memo.cell_size = jm.at("cell_size").as_number();
  p.memo.budget_bucket = jm.at("budget_bucket").as_number();
  p.memo.max_entries_per_key =
      static_cast<int>(jm.at("max_entries_per_key").as_int());
  p.memo.validate();
  return p;
}

Json memo_stats_to_json(const select::PlanMemoStats& s) {
  Json::Object o;
  o["exact_hits"] = Json(s.exact_hits);
  o["fixup_hits"] = Json(s.fixup_hits);
  o["misses"] = Json(s.misses);
  o["fallbacks"] = Json(s.fallbacks);
  o["rounds"] = Json(s.rounds);
  return Json(std::move(o));
}

select::PlanMemoStats memo_stats_from_json(const Json& j) {
  select::PlanMemoStats s;
  s.exact_hits = j.at("exact_hits").as_int();
  s.fixup_hits = j.at("fixup_hits").as_int();
  s.misses = j.at("misses").as_int();
  s.fallbacks = j.at("fallbacks").as_int();
  s.rounds = j.at("rounds").as_int();
  MCS_CHECK(s.exact_hits >= 0 && s.fixup_hits >= 0 && s.misses >= 0 &&
                s.fallbacks >= 0 && s.rounds >= 0,
            "plan-memo counters must be non-negative");
  return s;
}

}  // namespace

Json checkpoint_to_json(const CampaignCheckpoint& ckpt) {
  Json::Object o;
  o["version"] = Json(ckpt.version);
  o["scenario"] = ckpt.scenario;
  o["provenance"] = ckpt.provenance;
  o["params"] = params_to_json(ckpt.params);
  o["next_round"] = Json(ckpt.next_round);
  o["world"] = ckpt.world;
  o["mechanism"] = Json(ckpt.mechanism);
  o["mechanism_state"] = ckpt.mechanism_state;
  o["selector"] = Json(ckpt.selector);
  o["mobility"] = Json(ckpt.mobility);
  o["budget_spent"] = Json(ckpt.budget_spent);
  o["budget_comp"] = Json(ckpt.budget_comp);
  o["history"] = rounds_to_json(ckpt.history);
  EventLog log(true);
  log.restore(ckpt.events);
  o["events"] = events_to_json(log);
  o["memo_stats"] = memo_stats_to_json(ckpt.memo_stats);
  Json::Object phase;
  phase["prepass_s"] = Json(ckpt.phase_prepass_s);
  phase["plan_s"] = Json(ckpt.phase_plan_s);
  phase["reprice_s"] = Json(ckpt.phase_reprice_s);
  phase["commit_s"] = Json(ckpt.phase_commit_s);
  o["phase_seconds"] = Json(std::move(phase));
  return Json(std::move(o));
}

CampaignCheckpoint checkpoint_from_json(const Json& json) {
  CampaignCheckpoint c;
  c.version = static_cast<int>(json.at("version").as_int());
  MCS_CHECK(c.version == kCheckpointFormatVersion,
            "unsupported checkpoint format version");
  c.scenario = json.at("scenario");
  c.provenance = json.at("provenance");
  c.params = params_from_json(json.at("params"));
  c.next_round = static_cast<Round>(json.at("next_round").as_int());
  MCS_CHECK(c.next_round >= 1 && c.next_round <= c.params.max_rounds + 1,
            "checkpoint round cursor out of range");
  c.world = json.at("world");
  // Older v1 payloads also carry the retired serial "mobility_rng"; ignored.
  c.mechanism = json.at("mechanism").as_string();
  c.mechanism_state = json.at("mechanism_state");
  c.selector = json.at("selector").as_string();
  c.mobility = json.at("mobility").as_string();
  c.budget_spent = json.at("budget_spent").as_number();
  c.budget_comp = json.at("budget_comp").as_number();
  c.history = rounds_from_json(json.at("history"));
  MCS_CHECK(c.history.size() == static_cast<std::size_t>(c.next_round - 1),
            "checkpoint history length does not match its round cursor");
  c.events = events_from_json(json.at("events"));
  c.memo_stats = memo_stats_from_json(json.at("memo_stats"));
  // Added after the first checkpoint format shipped; absent on older
  // payloads, which decode with all-zero timers.
  if (json.has("phase_seconds")) {
    const Json& jp = json.at("phase_seconds");
    c.phase_prepass_s = jp.at("prepass_s").as_number();
    c.phase_plan_s = jp.at("plan_s").as_number();
    c.phase_reprice_s = jp.at("reprice_s").as_number();
    c.phase_commit_s = jp.at("commit_s").as_number();
    MCS_CHECK(c.phase_prepass_s >= 0.0 && c.phase_plan_s >= 0.0 &&
                  c.phase_reprice_s >= 0.0 && c.phase_commit_s >= 0.0,
              "phase timers must be non-negative");
  }
  return c;
}

std::string encode_checkpoint(const CampaignCheckpoint& ckpt) {
  const std::string payload = checkpoint_to_json(ckpt).dump();
  char header[64];
  std::snprintf(header, sizeof(header), "MCS-CKPT v%d crc32=%08x len=%zu\n",
                ckpt.version,
                crc32(payload.data(), payload.size()), payload.size());
  std::string out(header);
  out += payload;
  out += '\n';
  return out;
}

CampaignCheckpoint decode_checkpoint(const std::string& bytes) {
  const std::size_t eol = bytes.find('\n');
  MCS_CHECK(eol != std::string::npos && eol < 64,
            "checkpoint envelope: missing or oversized header line");
  const std::string header = bytes.substr(0, eol);
  int version = 0;
  unsigned int crc = 0;
  long long len = -1;
  const int matched = std::sscanf(header.c_str(),
                                  "MCS-CKPT v%d crc32=%8x len=%lld",
                                  &version, &crc, &len);
  MCS_CHECK(matched == 3 && header.compare(0, 9, "MCS-CKPT ") == 0,
            "checkpoint envelope: malformed header");
  MCS_CHECK(version == kCheckpointFormatVersion,
            "unsupported checkpoint format version");
  MCS_CHECK(len >= 0, "checkpoint envelope: negative payload length");
  // Exactly header + '\n' + payload + '\n': a shorter file is a torn or
  // truncated write, a longer one is not something this writer produced.
  MCS_CHECK(bytes.size() == eol + 1 + static_cast<std::size_t>(len) + 1 &&
                bytes.back() == '\n',
            "checkpoint envelope: payload length mismatch (truncated?)");
  const char* payload = bytes.data() + eol + 1;
  MCS_CHECK(crc32(payload, static_cast<std::size_t>(len)) == crc,
            "checkpoint envelope: CRC mismatch (corrupted)");
  return checkpoint_from_json(
      Json::parse(std::string(payload, static_cast<std::size_t>(len))));
}

namespace {

constexpr const char* kGenPrefix = "gen-";
constexpr const char* kGenSuffix = ".ckpt";

/// gen-<digits>.ckpt -> generation number; -1 for anything else (including
/// .tmp leftovers, which must never be loaded).
long long parse_generation(const std::string& name) {
  const std::size_t plen = std::strlen(kGenPrefix);
  const std::size_t slen = std::strlen(kGenSuffix);
  if (name.size() <= plen + slen) return -1;
  if (name.compare(0, plen, kGenPrefix) != 0) return -1;
  if (name.compare(name.size() - slen, slen, kGenSuffix) != 0) return -1;
  long long gen = 0;
  for (std::size_t i = plen; i < name.size() - slen; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    gen = gen * 10 + (name[i] - '0');
    if (gen > 1'000'000'000'000LL) return -1;
  }
  return gen;
}

/// Published generations in `dir`, (generation, file name) pairs, unsorted.
std::vector<std::pair<long long, std::string>> list_generations(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw Error("cannot open checkpoint directory '" + dir +
                "': " + std::strerror(errno));
  }
  std::vector<std::pair<long long, std::string>> out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const long long gen = parse_generation(name);
    if (gen >= 0) out.emplace_back(gen, name);
  }
  ::closedir(d);
  return out;
}

void write_all(int fd, const char* data, std::size_t len,
               const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw Error("checkpoint write failed for '" + path +
                  "': " + std::strerror(err));
    }
    off += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("fsync failed for '" + what + "': " + std::strerror(err));
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw Error("cannot open checkpoint directory '" + dir +
                "' for fsync: " + std::strerror(errno));
  }
  fsync_or_throw(fd, dir);
  ::close(fd);
}

void fire_crash_point(StorageFaults& faults) {
  // Move out first: a real kill test calls _exit() inside and never
  // returns, and a surviving caller must see the fault disarmed.
  std::function<void()> hook = std::move(faults.on_crash_point);
  faults = {};
  if (hook) hook();
}

}  // namespace

std::string checkpoint_file_name(long long gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08lld%s", kGenPrefix, gen, kGenSuffix);
  return std::string(buf);
}

CheckpointWriter::CheckpointWriter(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(keep) {
  MCS_CHECK(keep_ >= 1, "checkpoint writer must keep at least one generation");
  // Continue the numbering of whatever generations already exist: a resumed
  // process must not overwrite the file it just recovered from.
  for (const auto& [gen, name] : list_generations(dir_)) {
    next_gen_ = std::max(next_gen_, gen + 1);
  }
}

bool CheckpointWriter::write(const CampaignCheckpoint& ckpt) {
  const std::string envelope = encode_checkpoint(ckpt);
  const std::size_t eol = envelope.find('\n');
  const std::size_t payload_off = eol + 1;
  const std::size_t payload_len = envelope.size() - payload_off - 1;

  const std::string final_path = dir_ + "/" + checkpoint_file_name(next_gen_);
  const std::string tmp_path = final_path + ".tmp";

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error("cannot create checkpoint file '" + tmp_path +
                "': " + std::strerror(errno));
  }

  // Injected short write / ENOSPC: stop after N payload bytes.
  if (faults_.short_write_after >= 0 &&
      static_cast<std::size_t>(faults_.short_write_after) <= payload_len) {
    const std::size_t n = static_cast<std::size_t>(faults_.short_write_after);
    write_all(fd, envelope.data(), payload_off + n, tmp_path);
    ::close(fd);
    fire_crash_point(faults_);
    return false;  // crashed mid-write: torn tmp left behind, never renamed
  }
  if (faults_.enospc_after >= 0 &&
      static_cast<std::size_t>(faults_.enospc_after) <= payload_len) {
    const std::size_t n = static_cast<std::size_t>(faults_.enospc_after);
    write_all(fd, envelope.data(), payload_off + n, tmp_path);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    fire_crash_point(faults_);
    throw Error("checkpoint write failed for '" + tmp_path +
                "': no space left on device (injected)");
  }
  if (faults_.torn_write_after >= 0 &&
      static_cast<std::size_t>(faults_.torn_write_after) <= payload_len) {
    // Good prefix, garbage tail, published anyway: the worst a non-atomic
    // filesystem can do short of losing the rename. Same byte count as the
    // real payload, so only the CRC can tell.
    std::string torn = envelope;
    const std::size_t from =
        payload_off + static_cast<std::size_t>(faults_.torn_write_after);
    for (std::size_t i = from; i < envelope.size() - 1; ++i) torn[i] = '#';
    write_all(fd, torn.data(), torn.size(), tmp_path);
    fsync_or_throw(fd, tmp_path);
    ::close(fd);
    if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
      throw Error("checkpoint rename failed for '" + final_path +
                  "': " + std::strerror(errno));
    }
    ++next_gen_;  // the corrupt generation is published and numbered
    fire_crash_point(faults_);
    return false;
  }

  write_all(fd, envelope.data(), envelope.size(), tmp_path);
  fsync_or_throw(fd, tmp_path);
  ::close(fd);

  if (faults_.crash_before_rename) {
    fire_crash_point(faults_);
    return false;  // durable tmp, never published
  }

  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp_path.c_str());
    throw Error("checkpoint rename failed for '" + final_path +
                "': " + std::strerror(err));
  }
  fsync_dir(dir_);
  last_path_ = final_path;
  const long long published = next_gen_;
  ++next_gen_;

  if (faults_.crash_before_prune) {
    fire_crash_point(faults_);
    return false;  // generation durable, stale ones kept
  }

  // Retention: drop everything older than the newest `keep_` generations.
  for (const auto& [gen, name] : list_generations(dir_)) {
    if (gen <= published - keep_) ::unlink((dir_ + "/" + name).c_str());
  }
  return true;
}

bool has_checkpoint(const std::string& dir) {
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  return !list_generations(dir).empty();
}

CampaignCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw Error("cannot open checkpoint file '" + path +
                "': " + std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return decode_checkpoint(buffer.str());
}

LoadedCheckpoint load_latest_checkpoint(const std::string& dir) {
  std::vector<std::pair<long long, std::string>> gens = list_generations(dir);
  std::sort(gens.begin(), gens.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  int skipped = 0;
  std::string reasons;
  for (const auto& [gen, name] : gens) {
    const std::string path = dir + "/" + name;
    try {
      LoadedCheckpoint loaded;
      loaded.checkpoint = load_checkpoint(path);
      loaded.path = path;
      loaded.generation = gen;
      loaded.skipped_generations = skipped;
      return loaded;
    } catch (const Error& e) {
      // Corrupt/truncated generation: fall back to the next older one.
      ++skipped;
      reasons += "\n  " + name + ": " + e.what();
    }
  }
  throw Error("no usable checkpoint generation in '" + dir + "' (" +
              std::to_string(gens.size()) + " candidate(s))" + reasons);
}

}  // namespace mcs::sim
