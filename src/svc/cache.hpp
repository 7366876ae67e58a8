// Content-addressed result cache: Hash128 -> serialized result payload.
//
// In-memory LRU over the canonical result bytes, with optional write-
// through persistence to a directory of one-file-per-key entries
// (RFMIX_CACHE_DIR). Payloads are stored and returned verbatim, so a cache
// hit is bit-identical to the run that populated the entry — the property
// the svc/ bit-exactness tests pin down.
//
// Disk entries are self-validating: each file is a header line
// `rfmix-cache 1 <payload_bytes>` followed by the payload and a trailing
// newline. Reads verify the header, the exact length, and the trailing
// newline; anything else (truncated write that survived a crash, torn or
// hand-edited file, a pre-header-format entry) is quarantined by renaming
// it to `<name>.bad` and treated as a miss — a corrupt entry can cost a
// recompute, never a wrong or torn payload.
//
// Thread safety: every public method is safe to call concurrently; the
// cache never calls user code while holding its lock. Counters
// (svc.cache.hit/miss/evict/store, svc.cache.disk_hit/disk_store/
// disk_corrupt) mirror the Stats struct into the obs registry so run
// reports carry them.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "svc/hash.hpp"

namespace rfmix::svc {

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;        // memory or disk
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t stores = 0;
    std::uint64_t disk_hits = 0;   // subset of hits satisfied from disk
    std::uint64_t disk_stores = 0;
    std::uint64_t disk_corrupt = 0;  // entries quarantined to <name>.bad
  };

  /// `max_entries` bounds the in-memory LRU; `disk_dir` enables
  /// persistence when non-empty (the directory is created on first store).
  explicit ResultCache(std::size_t max_entries = 4096, std::string disk_dir = {});

  /// Payload for `key`, or nullopt. Promotes the entry to most recent;
  /// falls back to the disk tier (and re-inserts in memory) when enabled.
  std::optional<std::string> get(const Hash128& key);

  /// Insert/overwrite. Evicts least-recently-used entries above capacity
  /// and writes through to disk when enabled (atomic tmp+rename, so a
  /// concurrent reader never observes a torn file).
  void put(const Hash128& key, std::string payload);

  Stats stats() const;
  std::size_t size() const;
  void clear();  // memory only; the disk tier is left intact

  const std::string& disk_dir() const { return disk_dir_; }

 private:
  std::string disk_path(const Hash128& key) const;
  std::optional<std::string> disk_get(const Hash128& key);
  void disk_put(const Hash128& key, const std::string& payload);

  mutable std::mutex mu_;
  std::size_t max_entries_;
  std::string disk_dir_;
  // MRU-first list; the map points into it.
  std::list<std::pair<Hash128, std::string>> lru_;
  std::unordered_map<Hash128, std::list<std::pair<Hash128, std::string>>::iterator,
                     Hash128Hasher>
      index_;
  Stats stats_;
};

}  // namespace rfmix::svc
