// ResultCache tests: LRU behavior, stats, and the disk persistence tier.
#include "svc/cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace rfmix::svc {
namespace {

namespace fs = std::filesystem;

Hash128 key_of(const std::string& s) { return hash128(s); }

/// Fresh directory under the test temp root, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) / ("rfmix_" + tag + "_" +
                                                std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

TEST(ResultCache, PutGetRoundTripIsBitIdentical) {
  ResultCache cache(8);
  const std::string payload = "{\"v\":0.1000000000000000055511151231257827}";
  cache.put(key_of("a"), payload);
  const auto hit = cache.get(key_of("a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);  // byte-for-byte
  EXPECT_FALSE(cache.get(key_of("b")).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.put(key_of("a"), "A");
  cache.put(key_of("b"), "B");
  ASSERT_TRUE(cache.get(key_of("a")).has_value());  // promote a over b
  cache.put(key_of("c"), "C");                      // evicts b
  EXPECT_TRUE(cache.get(key_of("a")).has_value());
  EXPECT_FALSE(cache.get(key_of("b")).has_value());
  EXPECT_TRUE(cache.get(key_of("c")).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, OverwriteSameKeyKeepsOneEntry) {
  ResultCache cache(4);
  cache.put(key_of("a"), "old");
  cache.put(key_of("a"), "new");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get(key_of("a")), "new");
}

TEST(ResultCache, DiskTierPersistsAcrossInstances) {
  TempDir dir("disk");
  {
    ResultCache cache(8, dir.str());
    cache.put(key_of("persist"), "PAYLOAD");
    EXPECT_EQ(cache.stats().disk_stores, 1u);
  }
  ResultCache fresh(8, dir.str());
  const auto hit = fresh.get(key_of("persist"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "PAYLOAD");
  const auto s = fresh.stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.hits, 1u);
  // The disk hit re-populated the memory tier: next get is a memory hit.
  ASSERT_TRUE(fresh.get(key_of("persist")).has_value());
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
}

TEST(ResultCache, ClearDropsMemoryButNotDisk) {
  TempDir dir("clear");
  ResultCache cache(8, dir.str());
  cache.put(key_of("k"), "V");
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  const auto hit = cache.get(key_of("k"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "V");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST(ResultCache, DiskEntryFormatIsSelfValidating) {
  TempDir dir("fmt");
  ResultCache cache(8, dir.str());
  cache.put(key_of("k"), "PAYLOAD\nWITH\nNEWLINES");
  // One entry file, header + payload + trailing newline.
  ResultCache fresh(8, dir.str());
  const auto hit = fresh.get(key_of("k"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "PAYLOAD\nWITH\nNEWLINES");  // embedded newlines survive
  EXPECT_EQ(fresh.stats().disk_corrupt, 0u);
}

TEST(ResultCache, CorruptDiskEntriesAreQuarantinedAndMiss) {
  TempDir dir("corrupt");
  fs::create_directories(dir.str());
  struct Case {
    const char* name;
    std::string bytes;
  };
  const std::vector<Case> cases = {
      {"empty", ""},
      {"garbage", "not a cache entry at all"},
      {"pre-header legacy payload", "{\"v\":1}"},
      {"truncated payload", "rfmix-cache 1 100\nonly a few bytes\n"},
      {"missing trailing newline", "rfmix-cache 1 4\nBODY"},
      {"length too short", "rfmix-cache 1 2\nBODY\n"},
      {"bad version", "rfmix-cache 9 4\nBODY\n"},
      {"no length", "rfmix-cache 1 \nBODY\n"},
  };
  int quarantined = 0;
  for (const Case& c : cases) {
    ResultCache cache(8, dir.str());
    const Hash128 key = key_of(c.name);
    const std::string path = dir.str() + "/" + key.hex() + ".json";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << c.bytes;
    }
    EXPECT_FALSE(cache.get(key).has_value()) << c.name;
    EXPECT_EQ(cache.stats().disk_corrupt, 1u) << c.name;
    EXPECT_EQ(cache.stats().misses, 1u) << c.name;
    // Quarantined, not deleted and not retried: the entry file is gone,
    // a .bad file holds the original bytes for post-mortems.
    EXPECT_FALSE(fs::exists(path)) << c.name;
    ASSERT_TRUE(fs::exists(path + ".bad")) << c.name;
    std::ifstream in(path + ".bad", std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), c.bytes) << c.name;
    ++quarantined;
    // A re-put heals the slot: the next get hits cleanly.
    cache.clear();
    cache.put(key, "healed");
    ResultCache fresh(8, dir.str());
    const auto hit = fresh.get(key);
    ASSERT_TRUE(hit.has_value()) << c.name;
    EXPECT_EQ(*hit, "healed") << c.name;
  }
  EXPECT_EQ(quarantined, static_cast<int>(cases.size()));
}

TEST(ResultCache, CorruptEntryDoesNotMaskMemoryTier) {
  TempDir dir("mask");
  ResultCache cache(8, dir.str());
  cache.put(key_of("k"), "GOOD");
  // Vandalize the disk file behind the cache's back; the memory tier
  // still answers and the disk file is untouched until a disk probe.
  const std::string path = dir.str() + "/" + key_of("k").hex() + ".json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "junk";
  }
  const auto hit = cache.get(key_of("k"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "GOOD");
  EXPECT_EQ(cache.stats().disk_corrupt, 0u);
}

TEST(ResultCache, ConcurrentMixedUseIsSafe) {
  ResultCache cache(32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string slot = std::to_string((t + i) % 48);
        const Hash128 k = key_of("k" + slot);
        if (i % 3 == 0) {
          cache.put(k, "payload" + std::to_string(i));
        } else {
          (void)cache.get(k);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.size(), 32u);
  const auto s = cache.stats();
  EXPECT_GT(s.stores, 0u);
  EXPECT_EQ(s.hits + s.misses, 8u * 200u - s.stores);
}

TEST(ResultCache, ZeroCapacityClampsToOne) {
  ResultCache cache(0);
  cache.put(key_of("a"), "A");
  EXPECT_EQ(cache.size(), 1u);
  cache.put(key_of("b"), "B");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.get(key_of("a")).has_value());
  EXPECT_TRUE(cache.get(key_of("b")).has_value());
}

}  // namespace
}  // namespace rfmix::svc
