// Section IV-F / Table III numbers from the analytical area model.
#include <gtest/gtest.h>

#include "src/area/area_model.h"

namespace fg::area {
namespace {

TEST(Physical, SectionIvFBreakdown) {
  const PhysicalBreakdown b = physical_breakdown();
  EXPECT_NEAR(b.transport_mm2, 0.043, 1e-9);
  EXPECT_NEAR(b.transport_pct_boom, 3.88, 0.05);   // paper: 3.88%
  EXPECT_NEAR(b.transport_pct_soc, 1.48, 0.05);    // paper: 1.48%
  EXPECT_NEAR(b.fireguard4_mm2, 0.287, 1e-9);      // paper: 0.287 mm^2
  EXPECT_NEAR(b.fireguard4_pct_boom, 25.9, 0.2);   // paper: 25.9%
  EXPECT_NEAR(b.fireguard4_pct_soc, 9.86, 0.1);    // paper: 9.86%
}

TEST(Scaling, NormalizedAreasMatchTable3) {
  EXPECT_NEAR(2.53 * scale_to_14nm(5), 22.55, 0.05);   // FireStorm
  EXPECT_NEAR(1.23 * scale_to_14nm(7), 3.61, 0.02);    // Cortex-A76
  EXPECT_NEAR(7.30 * scale_to_14nm(10), 22.63, 0.05);  // AlderLake-S
  EXPECT_DOUBLE_EQ(scale_to_14nm(14), 1.0);
}

TEST(Throughput, NormalizedAgainstBoom) {
  EXPECT_NEAR(normalized_throughput(1.3, 3.2), 1.0, 1e-12);
  EXPECT_NEAR(normalized_throughput(3.79, 3.2), 2.92, 0.01);  // FireStorm
  EXPECT_NEAR(normalized_throughput(2.83, 4.9), 3.33, 0.02);  // AlderLake
}

TEST(Ucores, CountsMatchTable3) {
  EXPECT_EQ(ucores_needed(1.0), 4u);                              // BOOM
  EXPECT_EQ(ucores_needed(normalized_throughput(3.79, 3.2)), 12u);  // FireStorm
  EXPECT_EQ(ucores_needed(1.27), 5u);                             // A76 (paper)
  EXPECT_EQ(ucores_needed(normalized_throughput(2.83, 4.9)), 13u);  // AlderLake
}

TEST(PerCore, BoomReference) {
  const CoreSpec boom{"BOOM", 3.2, 14, 1.11, 1.3, 4, 1};
  const FireGuardCost c = per_core_cost(boom);
  EXPECT_EQ(c.n_ucores, 4u);
  EXPECT_EQ(c.filter_width, 4u);
  EXPECT_NEAR(c.overhead_mm2, 0.287, 1e-9);
  EXPECT_NEAR(c.pct_of_core, 25.9, 0.3);  // paper: 25.9%
}

TEST(PerCore, FireStorm) {
  const CoreSpec fs{"FireStorm", 3.2, 5, 2.53, 3.79, 8, 8};
  const FireGuardCost c = per_core_cost(fs);
  EXPECT_EQ(c.n_ucores, 12u);
  EXPECT_NEAR(c.overhead_mm2, 0.81, 0.01);  // paper: 0.81 mm^2
  EXPECT_NEAR(c.pct_of_core, 3.6, 0.1);     // paper: 3.6%
}

TEST(PerCore, CortexA76) {
  const CoreSpec a76{"Cortex-A76", 2.8, 7, 1.23, 2.07, 4, 4, 1.27};
  const FireGuardCost c = per_core_cost(a76);
  EXPECT_EQ(c.n_ucores, 5u);               // paper: 5
  EXPECT_NEAR(c.overhead_mm2, 0.35, 0.01);  // paper: 0.35 mm^2
  EXPECT_NEAR(c.pct_of_core, 9.6, 0.2);     // paper: 9.6%
}

TEST(PerCore, AlderLake) {
  const CoreSpec adl{"AlderLake-S P", 4.9, 10, 7.30, 2.83, 6, 8};
  const FireGuardCost c = per_core_cost(adl);
  EXPECT_EQ(c.n_ucores, 13u);
  EXPECT_NEAR(c.overhead_mm2, 0.85, 0.01);  // paper: 0.85 mm^2
  EXPECT_NEAR(c.pct_of_core, 3.8, 0.1);     // paper: 3.8%
}

TEST(SocLevel, CommercialSocsUnderOnePercent) {
  for (const SocSpec& s : table3_socs()) {
    if (s.name == "BOOM SoC") continue;
    const double pct = soc_overhead_pct(s);
    EXPECT_LT(pct, 1.05) << s.name;  // paper: < 1% for all commercial SoCs
    EXPECT_GT(pct, 0.1) << s.name;
  }
}

TEST(SocLevel, BoomPrototypePaysMore) {
  const SocSpec boom = table3_socs()[0];  // a copy: the vector is a temporary
  EXPECT_NEAR(soc_overhead_pct(boom), 9.86, 0.1);
}

TEST(SocLevel, OverheadScalesWithCoreCount) {
  SocSpec s;
  s.name = "test";
  s.soc_area_14nm = 100.0;
  s.cores.push_back({"c", 3.2, 14, 1.11, 1.3, 4, 1});
  const double one = soc_overhead_mm2(s);
  s.cores[0].count = 4;
  EXPECT_NEAR(soc_overhead_mm2(s), 4 * one, 1e-9);
}

TEST(Model, BiggerCoresPayRelativelyLess) {
  // The paper's headline: linear µcore scaling vs superlinear core area.
  const CoreSpec boom{"BOOM", 3.2, 14, 1.11, 1.3, 4, 1};
  const CoreSpec fs{"FireStorm", 3.2, 5, 2.53, 3.79, 8, 8};
  EXPECT_GT(per_core_cost(boom).pct_of_core, 5 * per_core_cost(fs).pct_of_core);
}

class FilterWidthArea : public ::testing::TestWithParam<u32> {};

TEST_P(FilterWidthArea, FilterAreaScalesWithWidth) {
  CoreSpec c{"x", 3.2, 14, 1.11, 1.3, GetParam(), 1};
  const FireGuardCost cost = per_core_cost(c);
  EXPECT_NEAR(cost.transport_mm2,
              kFilterArea4Way * GetParam() / 4.0 + kMapperArea, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Widths, FilterWidthArea, ::testing::Values(1, 2, 4, 6, 8));

}  // namespace
}  // namespace fg::area
