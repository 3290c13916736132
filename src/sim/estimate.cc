#include "sim/estimate.hh"

#include <algorithm>

#include "obs/stats.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace xbsp::sim
{

std::vector<PhaseEstimate>
BinaryEstimate::phasesByWeight() const
{
    std::vector<PhaseEstimate> sorted = phases;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const PhaseEstimate& a, const PhaseEstimate& b) {
                         return a.weight > b.weight;
                     });
    return sorted;
}

BinaryEstimate
estimateSampled(const sp::SimPointResult& clustering,
                const std::vector<IntervalStats>& intervals)
{
    if (clustering.labels.size() != intervals.size())
        panic("estimateSampled: clustering has {} intervals but stats "
              "have {}", clustering.labels.size(), intervals.size());

    // One ascending pass over the labels sums each phase's
    // instructions and cycles: per phase, the additions a walk of its
    // member intervals in rising order would make, in that order.
    BinaryEstimate est;
    double totalCycles = 0.0;
    std::vector<InstrCount> instrsOf(clustering.k);
    std::vector<double> cyclesOf(clustering.k);
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        const IntervalStats& iv = intervals[i];
        const u32 label = clustering.labels[i];
        if (label >= clustering.k)
            panic("estimateSampled: interval {} has label {} of {} "
                  "phases", i, label, clustering.k);
        est.totalInstrs += iv.instrs;
        totalCycles += static_cast<double>(iv.cycles);
        instrsOf[label] += iv.instrs;
        cyclesOf[label] += static_cast<double>(iv.cycles);
    }
    est.trueCycles = totalCycles;
    est.trueCpi = est.totalInstrs
                      ? totalCycles / static_cast<double>(est.totalInstrs)
                      : 0.0;

    double estCpi = 0.0;
    for (const sp::Phase& phase : clustering.phases) {
        if (phase.id >= clustering.k)
            panic("estimateSampled: phase id {} of {} phases", phase.id,
                  clustering.k);
        PhaseEstimate pe;
        pe.phaseId = phase.id;
        pe.representative = phase.representative;

        const InstrCount phaseInstrs = instrsOf[phase.id];
        const double phaseCycles = cyclesOf[phase.id];
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
        est.phases.push_back(std::move(pe));
    }
    est.estCpi = estCpi;
    est.estCycles = estCpi * static_cast<double>(est.totalInstrs);
    est.cpiError = relativeError(est.trueCpi, est.estCpi);
    obs::StatRegistry::global().counter("sim.estimates").add();
    return est;
}

double
speedup(double cyclesA, double cyclesB)
{
    if (cyclesB == 0.0)
        panic("speedup with zero cycles in the denominator");
    return cyclesA / cyclesB;
}

double
speedupError(double trueCyclesA, double trueCyclesB,
             double estCyclesA, double estCyclesB)
{
    const double truth = speedup(trueCyclesA, trueCyclesB);
    const double estimate = speedup(estCyclesA, estCyclesB);
    return relativeError(truth, estimate);
}

} // namespace xbsp::sim
