#include "svc/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/obs.hpp"

namespace rfmix::svc {

ResultCache::ResultCache(std::size_t max_entries, std::string disk_dir)
    : max_entries_(max_entries == 0 ? 1 : max_entries), disk_dir_(std::move(disk_dir)) {}

std::optional<std::string> ResultCache::get(const Hash128& key) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
      ++stats_.hits;
      RFMIX_OBS_COUNT("svc.cache.hit");
      return it->second->second;
    }
  }
  // Disk probe outside the lock: file IO must not serialize the hot path.
  if (!disk_dir_.empty()) {
    if (auto payload = disk_get(key)) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.hits;
      ++stats_.disk_hits;
      RFMIX_OBS_COUNT("svc.cache.hit");
      RFMIX_OBS_COUNT("svc.cache.disk_hit");
      if (index_.find(key) == index_.end()) {
        lru_.emplace_front(key, *payload);
        index_[key] = lru_.begin();
        while (lru_.size() > max_entries_) {
          index_.erase(lru_.back().first);
          lru_.pop_back();
          ++stats_.evictions;
          RFMIX_OBS_COUNT("svc.cache.evict");
        }
      }
      return payload;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.misses;
  RFMIX_OBS_COUNT("svc.cache.miss");
  return std::nullopt;
}

void ResultCache::put(const Hash128& key, std::string payload) {
  if (!disk_dir_.empty()) disk_put(key, payload);
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.stores;
  RFMIX_OBS_COUNT("svc.cache.store");
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(payload));
  index_[key] = lru_.begin();
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    RFMIX_OBS_COUNT("svc.cache.evict");
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  index_.clear();
}

std::string ResultCache::disk_path(const Hash128& key) const {
  return disk_dir_ + "/" + key.hex() + ".json";
}

namespace {

// On-disk entry format, version 1: "rfmix-cache 1 <payload_bytes>\n"
// followed by exactly that many payload bytes and one trailing newline.
constexpr const char kDiskMagic[] = "rfmix-cache 1 ";

/// Extract the payload from raw file bytes, or nullopt when the file is
/// not a well-formed entry (bad header, wrong length, missing trailing
/// newline — i.e. a torn, truncated, or foreign file).
std::optional<std::string> parse_disk_entry(const std::string& raw) {
  constexpr std::size_t magic_len = sizeof(kDiskMagic) - 1;
  if (raw.compare(0, magic_len, kDiskMagic) != 0) return std::nullopt;
  std::size_t pos = magic_len;
  std::uint64_t len = 0;
  bool any_digit = false;
  while (pos < raw.size() && raw[pos] >= '0' && raw[pos] <= '9') {
    len = len * 10 + static_cast<std::uint64_t>(raw[pos] - '0');
    ++pos;
    any_digit = true;
  }
  if (!any_digit || pos >= raw.size() || raw[pos] != '\n') return std::nullopt;
  ++pos;
  if (raw.size() != pos + len + 1 || raw.back() != '\n') return std::nullopt;
  return raw.substr(pos, len);
}

}  // namespace

std::optional<std::string> ResultCache::disk_get(const Hash128& key) {
  const std::string path = disk_path(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  if (std::optional<std::string> payload = parse_disk_entry(ss.str()))
    return payload;
  // Corrupt or truncated entry: quarantine it for post-mortems (never
  // served, never retried every lookup) and fall through to a miss.
  std::rename(path.c_str(), (path + ".bad").c_str());
  RFMIX_OBS_COUNT("svc.cache.disk_corrupt");
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.disk_corrupt;
  return std::nullopt;
}

void ResultCache::disk_put(const Hash128& key, const std::string& payload) {
  std::error_code ec;
  std::filesystem::create_directories(disk_dir_, ec);
  if (ec) return;  // persistence is best-effort; the memory tier still works
  const std::string final_path = disk_path(key);
  // Unique temp per writer so concurrent stores of the same key cannot
  // interleave; rename() makes the publish atomic.
  std::ostringstream tmp;
  tmp << final_path << ".tmp." << std::this_thread::get_id();
  {
    std::ofstream out(tmp.str(), std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << kDiskMagic << payload.size() << '\n' << payload << '\n';
    if (!out.good()) {
      out.close();
      std::remove(tmp.str().c_str());
      return;
    }
  }
  if (std::rename(tmp.str().c_str(), final_path.c_str()) != 0) {
    std::remove(tmp.str().c_str());
    return;  // nothing was published; don't count it as a disk store
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.disk_stores;
  RFMIX_OBS_COUNT("svc.cache.disk_store");
}

}  // namespace rfmix::svc
