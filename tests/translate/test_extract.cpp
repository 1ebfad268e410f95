#include "translate/extract.hpp"

#include <gtest/gtest.h>

#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sources.hpp"

namespace ecsim::translate {
namespace {

// Fig. 2 style model: plant-side blocks omitted; sampler -> err(Sum) ->
// controller -> actuator with a reference source feeding the Sum.
struct LoopFixture {
  sim::Model m;
  LoopFixture() {
    auto& ref = m.add<blocks::Step>("ref", 0.0, 1.0, 0.0);
    auto& sense = m.add<blocks::SampleHold>("sense", 1);
    auto& err = m.add<blocks::Sum>("err", std::vector<double>{1.0, -1.0}, 1);
    auto& ctrl = m.add<blocks::StateSpaceDisc>(
        "ctrl", math::Matrix{{0.0}}, math::Matrix{{1.0}}, math::Matrix{{1.0}},
        math::Matrix{{0.5}});
    auto& act = m.add<blocks::SampleHold>("act", 1);
    m.connect(ref, 0, err, 0);
    m.connect(sense, 0, err, 1);
    m.connect(err, 0, ctrl, 0);
    m.connect(ctrl, 0, act, 0);
  }
};

TEST(Extract, DiscoversOpsAndTransitiveDeps) {
  LoopFixture f;
  TimingAnnotations annot;
  annot.wcet["sense"]["cpu"] = 1e-4;
  annot.wcet["ctrl"]["cpu"] = 5e-4;
  annot.wcet["act"]["cpu"] = 2e-4;
  annot.out_size["sense"] = 8.0;
  annot.out_size["ctrl"] = 4.0;
  annot.binding["sense"] = "P0";
  const aaa::AlgorithmGraph alg = extract_algorithm(
      f.m, {"sense"}, {"ctrl"}, {"act"}, annot, 0.01);

  EXPECT_EQ(alg.num_operations(), 3u);
  EXPECT_DOUBLE_EQ(alg.period(), 0.01);
  const aaa::OpId s = alg.find("sense");
  const aaa::OpId c = alg.find("ctrl");
  const aaa::OpId a = alg.find("act");
  EXPECT_EQ(alg.op(s).kind, aaa::OpKind::kSensor);
  EXPECT_EQ(alg.op(c).kind, aaa::OpKind::kCompute);
  EXPECT_EQ(alg.op(a).kind, aaa::OpKind::kActuator);
  EXPECT_EQ(alg.op(s).bound_processor, "P0");
  EXPECT_DOUBLE_EQ(alg.op(c).wcet.at("cpu"), 5e-4);

  // sense -> ctrl discovered through the unextracted Sum block.
  ASSERT_EQ(alg.dependencies().size(), 2u);
  EXPECT_EQ(alg.predecessors(c), std::vector<aaa::OpId>{s});
  EXPECT_EQ(alg.predecessors(a), std::vector<aaa::OpId>{c});
  // Data size taken from the producer annotation.
  for (const aaa::DataDep& d : alg.dependencies()) {
    if (d.from == s) {
      EXPECT_DOUBLE_EQ(d.size, 8.0);
    }
    if (d.from == c) {
      EXPECT_DOUBLE_EQ(d.size, 4.0);
    }
  }
}

TEST(Extract, DefaultsForUnannotatedBlocks) {
  LoopFixture f;
  const aaa::AlgorithmGraph alg =
      extract_algorithm(f.m, {"sense"}, {"ctrl"}, {"act"}, {}, 0.01);
  EXPECT_DOUBLE_EQ(alg.op(alg.find("ctrl")).wcet.at("cpu"),
                   TimingAnnotations::kDefaultWcet);
  for (const aaa::DataDep& d : alg.dependencies()) {
    EXPECT_DOUBLE_EQ(d.size, 1.0);
  }
}

TEST(Extract, DuplicateListingRejected) {
  LoopFixture f;
  EXPECT_THROW(
      extract_algorithm(f.m, {"sense"}, {"sense"}, {"act"}, {}, 0.01),
      std::invalid_argument);
}

TEST(Extract, UnknownBlockRejected) {
  LoopFixture f;
  EXPECT_THROW(extract_algorithm(f.m, {"ghost"}, {}, {}, {}, 0.01),
               std::out_of_range);
}

TEST(Extract, NoSpuriousEdgeBetweenParallelChains) {
  sim::Model m;
  auto& s1 = m.add<blocks::SampleHold>("s1", 1);
  auto& c1 = m.add<blocks::StateSpaceDisc>("c1", math::Matrix{{0.0}},
                                           math::Matrix{{1.0}},
                                           math::Matrix{{1.0}},
                                           math::Matrix{{0.0}});
  auto& s2 = m.add<blocks::SampleHold>("s2", 1);
  auto& c2 = m.add<blocks::StateSpaceDisc>("c2", math::Matrix{{0.0}},
                                           math::Matrix{{1.0}},
                                           math::Matrix{{1.0}},
                                           math::Matrix{{0.0}});
  m.connect(s1, 0, c1, 0);
  m.connect(s2, 0, c2, 0);
  const aaa::AlgorithmGraph alg =
      extract_algorithm(m, {"s1", "s2"}, {"c1", "c2"}, {}, {}, 0.01);
  ASSERT_EQ(alg.dependencies().size(), 2u);
  EXPECT_EQ(alg.predecessors(alg.find("c1")),
            std::vector<aaa::OpId>{alg.find("s1")});
  EXPECT_EQ(alg.predecessors(alg.find("c2")),
            std::vector<aaa::OpId>{alg.find("s2")});
}

}  // namespace
}  // namespace ecsim::translate
