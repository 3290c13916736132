#include "exec/engine.hh"

#include <algorithm>

#include "obs/stats.hh"
#include "util/rng.hh"

namespace xbsp::exec
{

Engine::Engine(const bin::Binary& binary, u64 seed) : bin(binary)
{
    states.resize(bin.blocks.size());
    u32 maxRefs = 0;
    for (u32 i = 0; i < bin.blocks.size(); ++i) {
        const bin::MachineBlock& blk = bin.blocks[i];
        if (blk.memOps > 0) {
            states[i].gen = std::make_unique<mem::AddressGenerator>(
                blk.pattern, hashMix(seed ^ (static_cast<u64>(i) << 32)));
        }
        maxRefs = std::max(maxRefs, blk.memOps + blk.stackOps);
    }
    if (maxRefs > 0)
        refBuf = std::make_unique<mem::MemRef[]>(maxRefs);
}

namespace
{

/** dst += scale x src, both sorted by id. */
void
addCounts(std::vector<IdCount>& dst, const std::vector<IdCount>& src,
          u64 scale)
{
    std::vector<IdCount> sum;
    sum.reserve(dst.size() + src.size());
    auto d = dst.begin();
    auto s = src.begin();
    while (d != dst.end() || s != src.end()) {
        if (s == src.end() || (d != dst.end() && d->id < s->id)) {
            sum.push_back(*d++);
        } else if (d == dst.end() || s->id < d->id) {
            sum.push_back({s->id, scale * s->count});
            ++s;
        } else {
            sum.push_back({d->id, d->count + scale * s->count});
            ++d;
            ++s;
        }
    }
    dst = std::move(sum);
}

/** dst += scale x src. */
void
addSummary(Summary& dst, const Summary& src, u64 scale)
{
    dst.instrs += scale * src.instrs;
    dst.blocks += scale * src.blocks;
    dst.markers += scale * src.markers;
    addCounts(dst.blockCounts, src.blockCounts, scale);
    addCounts(dst.markerCounts, src.markerCounts, scale);
}

void
addBlock(Summary& dst, const bin::Binary& binary, u32 blockId)
{
    dst.instrs += binary.blocks[blockId].instrs;
    ++dst.blocks;
    addCounts(dst.blockCounts, {{blockId, 1}}, 1);
}

void
addMarker(Summary& dst, u32 markerId)
{
    ++dst.markers;
    addCounts(dst.markerCounts, {{markerId, 1}}, 1);
}

} // namespace

const Engine::SummaryNode&
Engine::procNode(u32 procId, u32 depth)
{
    if (procSummaries.empty())
        procSummaries.assign(bin.procs.size(), nullptr);
    if (procSummaries[procId])
        return *procSummaries[procId];
    if (depth > bin.procs.size())
        panic("binary {}: call cycle through proc {}",
              bin.displayName(), bin.procs[procId].name);
    SummaryNode& node = summaries.emplace_back();
    addMarker(node.trip, bin.procs[procId].entryMarkerId);
    summarize(bin.procs[procId].body, node, depth);
    procSummaries[procId] = &node;
    return node;
}

void
Engine::summarize(const std::vector<bin::MachineStmt>& stmts,
                  SummaryNode& node, u32 depth)
{
    node.kids.assign(stmts.size(), nullptr);
    for (std::size_t i = 0; i < stmts.size(); ++i) {
        const bin::MachineStmt& stmt = stmts[i];
        if (const auto* ref = std::get_if<bin::BlockRef>(&stmt)) {
            addBlock(node.trip, bin, ref->blockId);
        } else if (const auto* loop =
                       std::get_if<bin::MachineLoop>(&stmt)) {
            SummaryNode& body = summaries.emplace_back();
            summarize(loop->body, body, depth);
            addBlock(body.trip, bin, loop->branchBlockId);
            addMarker(body.trip, loop->branchMarkerId);
            addMarker(node.trip, loop->entryMarkerId);
            addSummary(node.trip, body.trip, loop->tripCount);
            node.kids[i] = &body;
        } else if (const auto* call =
                       std::get_if<bin::MachineCall>(&stmt)) {
            const SummaryNode& callee = procNode(call->procId, depth + 1);
            addSummary(node.trip, callee.trip, 1);
            node.kids[i] = &callee;
        }
    }
}

void
Engine::run()
{
    if (!stored)
        panic("Engine::run without addObserver");
    stored(*this);
}

void
Engine::flushStats()
{
    auto& reg = obs::StatRegistry::global();
    reg.counter("engine.runs").add();
    reg.counter("engine.blocks").add(blocksExecuted);
    reg.counter("engine.instrs").add(instrCount);
    reg.counter("engine.instrs.bulk").add(bulkInstrs);
    reg.counter("engine.trips.bulk").add(bulkTrips);
    reg.counter("engine.memRefs").add(refsIssued);
    reg.counter("engine.markers").add(markersFired);
    reg.distribution("engine.instrsPerRun").sample(instrCount);
}

bool
selectEngineMode(std::string_view mode)
{
    if (mode == "compiled" || mode == "interp")
        return true;
    warn("unknown engine mode '{}' (compiled|interp)", mode);
    return false;
}

} // namespace xbsp::exec
