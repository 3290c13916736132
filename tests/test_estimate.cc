/**
 * @file
 * Unit tests for the sampled-estimation math (weights, per-phase
 * bias, speedup error) on hand-constructed inputs with known answers,
 * and for its label pass against explicit member lists on real
 * studies.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "sim/estimate.hh"
#include "sim/study.hh"
#include "test_support.hh"
#include "util/format.hh"
#include "util/stats.hh"
#include "workloads/workloads.hh"

using namespace xbsp;

namespace
{

/** Clustering: intervals {0,2} -> phase 0 (rep 2), {1,3} -> 1 (rep 1). */
sp::SimPointResult
handmadeClustering()
{
    sp::SimPointResult result;
    result.k = 2;
    result.labels = {0, 1, 0, 1};
    sp::Phase p0;
    p0.id = 0;
    p0.representative = 2;
    sp::Phase p1;
    p1.id = 1;
    p1.representative = 1;
    result.phases = {p0, p1};
    return result;
}

std::vector<sim::IntervalStats>
handmadeIntervals()
{
    // instrs, cycles (cpi): 100@2.0, 100@5.0, 100@3.0, 300@6.0
    return {{100, 200}, {100, 500}, {100, 300}, {300, 1800}};
}

/**
 * estimateSampled as it was written over per-phase member lists: each
 * phase's sums walk its members in rising interval order.
 */
sim::BinaryEstimate
memberListEstimate(const sp::SimPointResult& clustering,
                   const std::vector<sim::IntervalStats>& intervals)
{
    sim::BinaryEstimate est;
    double totalCycles = 0.0;
    for (const sim::IntervalStats& iv : intervals) {
        est.totalInstrs += iv.instrs;
        totalCycles += static_cast<double>(iv.cycles);
    }
    est.trueCycles = totalCycles;
    est.trueCpi = est.totalInstrs
                      ? totalCycles / static_cast<double>(est.totalInstrs)
                      : 0.0;
    const std::vector<std::vector<u32>> members =
        test::phaseMembers(clustering);
    double estCpi = 0.0;
    for (std::size_t p = 0; p < clustering.phases.size(); ++p) {
        const sp::Phase& phase = clustering.phases[p];
        sim::PhaseEstimate pe;
        pe.phaseId = phase.id;
        pe.representative = phase.representative;
        InstrCount phaseInstrs = 0;
        double phaseCycles = 0.0;
        for (u32 member : members[p]) {
            phaseInstrs += intervals[member].instrs;
            phaseCycles += static_cast<double>(intervals[member].cycles);
        }
        pe.weight = est.totalInstrs
                        ? static_cast<double>(phaseInstrs) /
                              static_cast<double>(est.totalInstrs)
                        : 0.0;
        pe.trueCpi = phaseInstrs
                         ? phaseCycles / static_cast<double>(phaseInstrs)
                         : 0.0;
        pe.spCpi = intervals[phase.representative].cpi();
        pe.bias = signedRelativeError(pe.trueCpi, pe.spCpi);
        estCpi += pe.weight * pe.spCpi;
        est.phases.push_back(pe);
    }
    est.estCpi = estCpi;
    est.estCycles = estCpi * static_cast<double>(est.totalInstrs);
    est.cpiError = relativeError(est.trueCpi, est.estCpi);
    return est;
}

/** Bitwise equality of every field of two estimates. */
void
expectSameEstimate(const sim::BinaryEstimate& want,
                   const sim::BinaryEstimate& got)
{
    EXPECT_EQ(got.totalInstrs, want.totalInstrs);
    EXPECT_EQ(got.trueCycles, want.trueCycles);
    EXPECT_EQ(got.trueCpi, want.trueCpi);
    EXPECT_EQ(got.estCpi, want.estCpi);
    EXPECT_EQ(got.estCycles, want.estCycles);
    EXPECT_EQ(got.cpiError, want.cpiError);
    ASSERT_EQ(got.phases.size(), want.phases.size());
    for (std::size_t p = 0; p < want.phases.size(); ++p) {
        SCOPED_TRACE("phase " + std::to_string(p));
        EXPECT_EQ(got.phases[p].phaseId, want.phases[p].phaseId);
        EXPECT_EQ(got.phases[p].representative,
                  want.phases[p].representative);
        EXPECT_EQ(got.phases[p].weight, want.phases[p].weight);
        EXPECT_EQ(got.phases[p].trueCpi, want.phases[p].trueCpi);
        EXPECT_EQ(got.phases[p].spCpi, want.phases[p].spCpi);
        EXPECT_EQ(got.phases[p].bias, want.phases[p].bias);
    }
}

} // namespace

/**
 * One ascending pass over the labels makes each phase's additions in
 * the order its member list did, so every estimate of a real study —
 * all four binaries of gzip and mcf, FLI and VLI — equals the member
 * loops' bit for bit, as does the estimate the study itself made.
 */
TEST(Estimate, LabelPassMatchesMemberLists)
{
    sim::StudyConfig config;
    config.intervalTarget = 50'000;
    std::size_t multiPhase = 0;
    for (const char* name : {"gzip", "mcf"}) {
        const sim::CrossBinaryStudy study = sim::CrossBinaryStudy::run(
            workloads::makeWorkload(name, 0.5), config);
        ASSERT_EQ(study.perBinary().size(), 4u);
        for (const sim::BinaryStudy& bs : study.perBinary()) {
            const std::string binary = bin::targetName(bs.target);
            const struct
            {
                const char* scheme;
                const sp::SimPointResult& clustering;
                const std::vector<sim::IntervalStats>& intervals;
                const sim::BinaryEstimate& studied;
            } schemes[] = {
                {"fli", bs.fliClustering, bs.detailedRun.fliIntervals,
                 bs.fliEstimate},
                {"vli", study.vliClustering(),
                 bs.detailedRun.vliIntervals, bs.vliEstimate}};
            for (const auto& s : schemes) {
                SCOPED_TRACE(format("{} {} {}", name, binary, s.scheme));
                const sim::BinaryEstimate want =
                    memberListEstimate(s.clustering, s.intervals);
                expectSameEstimate(
                    want, sim::estimateSampled(s.clustering, s.intervals));
                expectSameEstimate(want, s.studied);
                multiPhase += s.clustering.phases.size() > 1;
            }
        }
    }
    // Most of the 16 clusterings have several phases to tell apart.
    EXPECT_GE(multiPhase, 8u);
}

TEST(Estimate, WeightsTruthAndSpCpi)
{
    const sim::BinaryEstimate est = sim::estimateSampled(
        handmadeClustering(), handmadeIntervals());

    EXPECT_EQ(est.totalInstrs, 600u);
    EXPECT_DOUBLE_EQ(est.trueCycles, 2800.0);
    EXPECT_NEAR(est.trueCpi, 2800.0 / 600.0, 1e-12);

    ASSERT_EQ(est.phases.size(), 2u);
    const auto& p0 = est.phases[0];
    EXPECT_NEAR(p0.weight, 200.0 / 600.0, 1e-12);
    EXPECT_NEAR(p0.trueCpi, 500.0 / 200.0, 1e-12); // (200+300)/200
    EXPECT_DOUBLE_EQ(p0.spCpi, 3.0);               // rep interval 2
    EXPECT_NEAR(p0.bias, (3.0 - 2.5) / 2.5, 1e-12);

    const auto& p1 = est.phases[1];
    EXPECT_NEAR(p1.weight, 400.0 / 600.0, 1e-12);
    EXPECT_NEAR(p1.trueCpi, 2300.0 / 400.0, 1e-12);
    EXPECT_DOUBLE_EQ(p1.spCpi, 5.0);

    const double expectedEstCpi =
        (200.0 / 600.0) * 3.0 + (400.0 / 600.0) * 5.0;
    EXPECT_NEAR(est.estCpi, expectedEstCpi, 1e-12);
    EXPECT_NEAR(est.estCycles, expectedEstCpi * 600.0, 1e-9);
    EXPECT_NEAR(est.cpiError,
                std::fabs((est.trueCpi - est.estCpi) / est.trueCpi),
                1e-12);
}

TEST(Estimate, PerfectRepresentativesGiveZeroError)
{
    sp::SimPointResult clustering = handmadeClustering();
    // Make every interval in each phase identical.
    std::vector<sim::IntervalStats> intervals{
        {100, 300}, {100, 500}, {100, 300}, {100, 500}};
    const sim::BinaryEstimate est =
        sim::estimateSampled(clustering, intervals);
    EXPECT_NEAR(est.cpiError, 0.0, 1e-12);
    for (const auto& phase : est.phases)
        EXPECT_NEAR(phase.bias, 0.0, 1e-12);
}

TEST(Estimate, PhasesByWeightSorted)
{
    const sim::BinaryEstimate est = sim::estimateSampled(
        handmadeClustering(), handmadeIntervals());
    const auto sorted = est.phasesByWeight();
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_GE(sorted[0].weight, sorted[1].weight);
    EXPECT_EQ(sorted[0].phaseId, 1u);
}

TEST(Estimate, SizeMismatchPanics)
{
    std::vector<sim::IntervalStats> tooFew{{100, 200}};
    EXPECT_DEATH((void)sim::estimateSampled(handmadeClustering(),
                                            tooFew),
                 "intervals");
}

TEST(Estimate, SpeedupMath)
{
    EXPECT_DOUBLE_EQ(sim::speedup(200.0, 100.0), 2.0);
    // true = 2.0, est = 2.2 -> 10% error.
    EXPECT_NEAR(sim::speedupError(200.0, 100.0, 220.0, 100.0), 0.1,
                1e-12);
    // Error is symmetric in formulation |(t-e)/t|.
    EXPECT_NEAR(sim::speedupError(200.0, 100.0, 180.0, 100.0), 0.1,
                1e-12);
}

TEST(Estimate, SpeedupZeroDenominatorPanics)
{
    EXPECT_DEATH((void)sim::speedup(1.0, 0.0), "zero cycles");
}
