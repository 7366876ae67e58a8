// Table I baseline-data tests.
#include "core/baselines.hpp"

#include <gtest/gtest.h>

namespace rfmix::core {
namespace {

TEST(Baselines, AllEightReferencesPresent) {
  const auto rows = table1_baselines();
  ASSERT_EQ(rows.size(), 8u);
  const std::vector<std::string> expected{"[2]", "[3]", "[5]", "[6]",
                                          "[4]", "[10]", "[11]", "[12]"};
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].label, expected[i]);
}

TEST(Baselines, PrintedFieldsNonEmpty) {
  for (const auto& r : table1_baselines()) {
    EXPECT_FALSE(r.gain_db.empty()) << r.label;
    EXPECT_FALSE(r.power_mw.empty()) << r.label;
    EXPECT_FALSE(r.technology.empty()) << r.label;
    EXPECT_FALSE(r.supply_v.empty()) << r.label;
  }
}

TEST(Baselines, ThisWorkGainBeatsMostReferences) {
  // The paper's headline claim: 29.2 dB active gain exceeds every
  // comparison design except [4] (35 dB).
  int beaten = 0;
  for (const auto& r : table1_baselines())
    if (29.2 > r.gain_mid_db) ++beaten;
  EXPECT_GE(beaten, 7);
}

TEST(Baselines, SixtyFiveNmReferencesRunAt1V2) {
  for (const auto& r : table1_baselines()) {
    if (r.technology == "65nm") {
      EXPECT_EQ(r.supply_v, "1.2") << r.label;
    }
  }
}

}  // namespace
}  // namespace rfmix::core
