// Unit and property tests for the graph substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "net/analysis.h"
#include "net/graph.h"
#include "net/topology.h"

namespace lotus::net {
namespace {

TEST(Graph, AddEdgeBasics) {
  Graph g{4};
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate, reversed
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_FALSE(g.add_edge(0, 9));  // out of range
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, NeighborsSymmetric) {
  Graph g{3};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  const auto n1 = g.neighbors(1);
  EXPECT_NE(std::find(n1.begin(), n1.end(), 0u), n1.end());
  EXPECT_NE(std::find(n1.begin(), n1.end(), 2u), n1.end());
}

TEST(Topology, Complete) {
  const auto g = make_complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Topology, Ring) {
  const auto g = make_ring(8);
  EXPECT_EQ(g.edge_count(), 8u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(make_ring(2), std::invalid_argument);
}

TEST(Topology, GridShape) {
  const auto g = make_grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  // Edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17.
  EXPECT_EQ(g.edge_count(), 17u);
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior (row 1, col 1)
  EXPECT_TRUE(is_connected(g));
}

TEST(Topology, TorusIsRegular) {
  const auto g = make_torus(4, 5);
  EXPECT_EQ(g.node_count(), 20u);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(make_torus(2, 5), std::invalid_argument);
}

TEST(Topology, Star) {
  const auto g = make_star(7);
  EXPECT_EQ(g.degree(0), 6u);
  for (NodeId v = 1; v < 7; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Topology, ErdosRenyiEdgeDensity) {
  sim::Rng rng{5};
  const auto g = make_erdos_renyi(100, 0.1, rng);
  const double expected = 0.1 * (100.0 * 99.0 / 2.0);
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, expected * 0.25);
}

TEST(Topology, ErdosRenyiExtremes) {
  sim::Rng rng{6};
  EXPECT_EQ(make_erdos_renyi(20, 0.0, rng).edge_count(), 0u);
  EXPECT_EQ(make_erdos_renyi(20, 1.0, rng).edge_count(), 190u);
}

TEST(Topology, WattsStrogatzDegreeSum) {
  sim::Rng rng{7};
  const auto g = make_watts_strogatz(50, 3, 0.1, rng);
  EXPECT_EQ(g.node_count(), 50u);
  // Each node contributes k forward edges (possibly rewired): 150 total.
  EXPECT_NEAR(static_cast<double>(g.edge_count()), 150.0, 5.0);
}

TEST(Topology, BarabasiAlbertHubs) {
  sim::Rng rng{8};
  const auto g = make_barabasi_albert(200, 2, rng);
  EXPECT_TRUE(is_connected(g));
  const auto stats = degree_stats(g);
  EXPECT_GE(stats.max, 10u);  // preferential attachment grows hubs
  EXPECT_GE(stats.min, 2u);
}

TEST(Analysis, ComponentsOfDisconnected) {
  Graph g{5};
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_FALSE(is_connected(g));
}

TEST(Analysis, BfsDistances) {
  const auto g = make_ring(6);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[5], 1u);
}

TEST(Analysis, BfsUnreachable) {
  Graph g{3};
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], std::numeric_limits<std::uint32_t>::max());
}

TEST(Analysis, GridColumnCutDisconnects) {
  const auto g = make_grid(4, 5);
  const auto cut = grid_column_cut(4, 5, 2);
  std::vector<bool> removed(g.node_count(), false);
  for (const auto v : cut) removed[v] = true;
  EXPECT_TRUE(removal_disconnects(g, removed));
  // A non-cut set does not disconnect.
  std::vector<bool> sparse(g.node_count(), false);
  sparse[0] = true;
  EXPECT_FALSE(removal_disconnects(g, sparse));
}

TEST(Analysis, CompleteGraphResistsCuts) {
  const auto g = make_complete(10);
  std::vector<bool> removed(10, false);
  for (NodeId v = 0; v < 8; ++v) removed[v] = true;  // remove 80%
  EXPECT_FALSE(removal_disconnects(g, removed));
}

TEST(Analysis, ArticulationPointOfPath) {
  Graph g{3};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto cuts = articulation_points(g);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], 1u);
}

TEST(Analysis, StarCenterIsArticulation) {
  const auto g = make_star(6);
  const auto cuts = articulation_points(g);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], 0u);
}

TEST(Analysis, RingHasNoArticulation) {
  const auto g = make_ring(10);
  EXPECT_TRUE(articulation_points(g).empty());
}

TEST(Analysis, DegreeStats) {
  const auto g = make_star(5);
  const auto stats = degree_stats(g);
  EXPECT_EQ(stats.max, 4u);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_DOUBLE_EQ(stats.mean, 8.0 / 5.0);
}

// Property sweep: every generated topology is connected and simple.
struct TopologyCase {
  const char* name;
  Graph (*build)(std::uint64_t seed);
};

// Print a case by its name. The default byte dump holds pointer values, which
// differ per process and would leak into the discovered ctest names.
void PrintTo(const TopologyCase& param, std::ostream* os) { *os << param.name; }

class TopologyProperties : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(TopologyProperties, ConnectedAndSimple) {
  const auto g = GetParam().build(99);
  EXPECT_TRUE(is_connected(g));
  // Simplicity: neighbour lists contain no duplicates or self-loops.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto nbrs = g.neighbors(v);
    std::vector<NodeId> sorted(nbrs.begin(), nbrs.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_EQ(std::find(sorted.begin(), sorted.end(), v), sorted.end());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, TopologyProperties,
    ::testing::Values(
        TopologyCase{"complete",
                     [](std::uint64_t) { return make_complete(30); }},
        TopologyCase{"ring", [](std::uint64_t) { return make_ring(30); }},
        TopologyCase{"grid", [](std::uint64_t) { return make_grid(5, 6); }},
        TopologyCase{"torus", [](std::uint64_t) { return make_torus(5, 6); }},
        TopologyCase{"star", [](std::uint64_t) { return make_star(30); }},
        TopologyCase{"watts_strogatz",
                     [](std::uint64_t seed) {
                       sim::Rng rng{seed};
                       return make_watts_strogatz(30, 3, 0.2, rng);
                     }},
        TopologyCase{"barabasi_albert",
                     [](std::uint64_t seed) {
                       sim::Rng rng{seed};
                       return make_barabasi_albert(30, 2, rng);
                     }}),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lotus::net
