/**
 * @file
 * Task-graph scheduler contract tests: dependency ordering,
 * deterministic commits and errors at any job count, cache-probe
 * dispatch, failure isolation, dumps — plus study-level checks that
 * the graph-scheduled suite is deterministic at any job count.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <sstream>
#include <stdexcept>

#include "harness/experiments.hh"
#include "obs/stats.hh"
#include "pipeline/taskgraph.hh"
#include "sim/study.hh"
#include "test_support.hh"
#include "util/json.hh"
#include "util/threadpool.hh"

using namespace xbsp;
using pipeline::NodeId;
using pipeline::NodeStatus;
using pipeline::TaskGraph;

namespace
{

u64
counterValue(const std::string& path)
{
    return obs::StatRegistry::global().counterValue(path);
}

/** No-op work body for structure-only tests. */
std::function<void()>
noop()
{
    return [] {};
}

} // namespace

TEST(TaskGraph, DependentsRunAfterDependencies)
{
    setGlobalJobs(4);
    TaskGraph graph;
    std::atomic<int> clock{0};
    std::array<int, 4> finished{};
    auto stamp = [&](std::size_t slot) {
        return [&finished, &clock, slot] {
            finished[slot] = ++clock;
        };
    };
    // Diamond: 0 -> {1, 2} -> 3.
    const NodeId a = graph.add("a", "stage", {}, stamp(0));
    const NodeId b = graph.add("b", "stage", {a}, stamp(1));
    const NodeId c = graph.add("c", "stage", {a}, stamp(2));
    const NodeId d = graph.add("d", "stage", {b, c}, stamp(3));
    graph.run(globalPool());
    setGlobalJobs(0);

    EXPECT_LT(finished[0], finished[1]);
    EXPECT_LT(finished[0], finished[2]);
    EXPECT_LT(finished[1], finished[3]);
    EXPECT_LT(finished[2], finished[3]);
    EXPECT_EQ(graph.status(a), NodeStatus::Done);
    EXPECT_EQ(graph.status(d), NodeStatus::Done);
    EXPECT_EQ(graph.nodeCount(), 4u);
    EXPECT_EQ(graph.edgeCount(), 4u);
}

TEST(TaskGraph, SequentialExecutionIsLowestReadyIdFirst)
{
    setGlobalJobs(1); // no workers: nodes run inline in ready order
    TaskGraph graph;
    std::vector<NodeId> order;
    auto record = [&order](NodeId id) {
        return [&order, id] { order.push_back(id); };
    };
    // 0 and 2 start ready; 1 becomes ready once 0 settles.  The
    // scheduler must still pick lowest id first: 0, 1, 2.
    const NodeId a = graph.add("a", "s", {}, record(0));
    graph.add("b", "s", {a}, record(1));
    graph.add("c", "s", {}, record(2));
    graph.run(globalPool());
    setGlobalJobs(0);

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2}));
}

TEST(TaskGraph, CommitsAndResultsIdenticalAcrossJobCounts)
{
    auto runAt = [](u64 jobs, std::vector<std::string>& commits,
                    std::vector<u64>& results) {
        setGlobalJobs(jobs);
        TaskGraph graph;
        results.assign(8, 0);
        std::vector<NodeId> deps;
        for (std::size_t i = 0; i < 8; ++i) {
            // Fan-in chains: even nodes are roots, odd nodes depend
            // on all earlier even nodes.
            std::vector<NodeId> d = (i % 2 == 1) ? deps : std::vector<NodeId>{};
            std::string label = "n";
            label += std::to_string(i);
            const NodeId id = graph.add(
                std::move(label), "s", d,
                [&results, i] { results[i] = 1000u + 7u * i; });
            if (i % 2 == 0)
                deps.push_back(id);
            graph.setCommit(id, [&commits, i] {
                commits.push_back("commit-" + std::to_string(i));
            });
        }
        graph.run(globalPool());
        setGlobalJobs(0);
    };

    std::vector<std::string> commits1, commits8;
    std::vector<u64> results1, results8;
    runAt(1, commits1, results1);
    runAt(8, commits8, results8);

    ASSERT_EQ(commits1.size(), 8u);
    EXPECT_EQ(commits1, commits8);      // node-id order, always
    EXPECT_EQ(commits1.front(), "commit-0");
    EXPECT_EQ(commits1.back(), "commit-7");
    EXPECT_EQ(results1, results8);
}

TEST(TaskGraph, LowestIdFailureRethrownAndDependentsSkipped)
{
    setGlobalJobs(4);
    TaskGraph graph;
    bool committedOk = false, committedBad = false;
    const NodeId ok = graph.add("ok", "s", {}, noop());
    const NodeId bad1 = graph.add("bad1", "s", {}, [] {
        throw std::runtime_error("boom-first");
    });
    const NodeId bad2 = graph.add("bad2", "s", {}, [] {
        throw std::runtime_error("boom-second");
    });
    const NodeId child = graph.add("child", "s", {bad1}, noop());
    const NodeId grandchild = graph.add("grandchild", "s", {child},
                                        noop());
    const NodeId lone = graph.add("lone", "s", {ok}, noop());
    graph.setCommit(ok, [&committedOk] { committedOk = true; });
    graph.setCommit(bad1, [&committedBad] { committedBad = true; });

    try {
        graph.run(globalPool());
        FAIL() << "expected the failed node's exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom-first"); // lowest failed id wins
    }
    setGlobalJobs(0);

    EXPECT_EQ(graph.status(ok), NodeStatus::Done);
    EXPECT_EQ(graph.status(bad1), NodeStatus::Failed);
    EXPECT_EQ(graph.status(bad2), NodeStatus::Failed);
    EXPECT_EQ(graph.status(child), NodeStatus::Skipped);
    EXPECT_EQ(graph.status(grandchild), NodeStatus::Skipped);
    EXPECT_EQ(graph.status(lone), NodeStatus::Done); // unrelated runs
    EXPECT_TRUE(committedOk);   // healthy subgraph still commits
    EXPECT_FALSE(committedBad); // failed nodes never commit
}

TEST(TaskGraph, DependencyMustBeAddedFirstFatal)
{
    EXPECT_EXIT(
        {
            TaskGraph graph;
            graph.add("late", "s", {0}, noop());
        },
        ::testing::ExitedWithCode(1), "has not been added yet");
}

TEST(TaskGraph, ProbeHitRunsInlineAsCacheResolved)
{
    const u64 cached0 = counterValue("scheduler.nodes.cacheResolved");
    const u64 run0 = counterValue("scheduler.nodes.run");
    setGlobalJobs(4);
    TaskGraph graph;
    bool hitRan = false, missRan = false;
    const NodeId hit = graph.add("hit", "s", {},
                                 [&hitRan] { hitRan = true; });
    graph.setProbe(hit, [] { return true; });
    const NodeId miss = graph.add("miss", "s", {},
                                  [&missRan] { missRan = true; });
    graph.setProbe(miss, [] { return false; });
    graph.run(globalPool());
    setGlobalJobs(0);

    EXPECT_TRUE(hitRan); // probe only changes *where* work runs
    EXPECT_TRUE(missRan);
    EXPECT_EQ(graph.status(hit), NodeStatus::CacheResolved);
    EXPECT_EQ(graph.status(miss), NodeStatus::Done);
    EXPECT_EQ(counterValue("scheduler.nodes.cacheResolved"),
              cached0 + 1);
    EXPECT_EQ(counterValue("scheduler.nodes.run"), run0 + 1);
}

TEST(TaskGraph, CriticalPathIsLongestChain)
{
    TaskGraph graph;
    EXPECT_EQ(graph.criticalPathLength(), 0u);
    const NodeId a = graph.add("a", "s", {}, noop());
    const NodeId b = graph.add("b", "s", {a}, noop());
    graph.add("c", "s", {b}, noop());
    graph.add("d", "s", {}, noop());
    EXPECT_EQ(graph.criticalPathLength(), 3u);
    EXPECT_EQ(graph.nodeCount(), 4u);
    EXPECT_EQ(graph.edgeCount(), 2u);
}

TEST(TaskGraph, DumpsDescribeStructureAndStatus)
{
    setGlobalJobs(1);
    TaskGraph graph;
    const NodeId a = graph.add("alpha", "compile", {}, noop());
    graph.add("beta", "profile", {a}, noop());
    graph.run(globalPool());
    setGlobalJobs(0);

    std::ostringstream json;
    {
        JsonWriter w(json);
        graph.writeJson(w);
    }
    const std::string j = json.str();
    EXPECT_NE(j.find("\"nodes\""), std::string::npos);
    EXPECT_NE(j.find("\"alpha\""), std::string::npos);
    EXPECT_NE(j.find("\"compile\""), std::string::npos);
    EXPECT_NE(j.find("\"done\""), std::string::npos);
    EXPECT_NE(j.find("\"criticalPath\""), std::string::npos);

    std::ostringstream dot;
    graph.writeDot(dot);
    const std::string d = dot.str();
    EXPECT_NE(d.find("digraph"), std::string::npos);
    EXPECT_NE(d.find("->"), std::string::npos);
    EXPECT_NE(d.find("alpha"), std::string::npos);
}

// ---------------------------------------------------------------
// Study-level goldens: the suite is deterministic at any job count.
// ---------------------------------------------------------------

TEST(Pipeline, SuiteDeterministicAcrossJobCounts)
{
    auto runSuite = [](u64 jobs, std::string& table,
                       std::vector<u64>& schedulerDeltas) {
        harness::ExperimentConfig config;
        config.workloads = {"gzip", "swim"};
        config.workScale = 0.15;
        config.study = harness::defaultStudyConfig();
        config.study.intervalTarget = 100000;
        config.verbose = false;

        const u64 ready0 = counterValue("scheduler.nodes.ready");
        const u64 run0 = counterValue("scheduler.nodes.run");
        const u64 cached0 =
            counterValue("scheduler.nodes.cacheResolved");
        const u64 edges0 = counterValue("scheduler.edges");
        setGlobalJobs(jobs);
        harness::ExperimentSuite suite(config);
        std::ostringstream os;
        suite.figure3().print(os);
        table = os.str();
        setGlobalJobs(0);
        schedulerDeltas = {
            counterValue("scheduler.nodes.ready") - ready0,
            counterValue("scheduler.nodes.run") - run0,
            counterValue("scheduler.nodes.cacheResolved") - cached0,
            counterValue("scheduler.edges") - edges0,
        };
    };

    std::string table1, table8;
    std::vector<u64> deltas1, deltas8;
    runSuite(1, table1, deltas1);
    runSuite(8, table8, deltas8);

    EXPECT_EQ(table1, table8);
    EXPECT_EQ(deltas1, deltas8); // scheduling stats jobs-independent
    EXPECT_GT(deltas1[0], 0u);   // some nodes actually ran
}
