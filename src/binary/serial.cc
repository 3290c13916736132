#include "binary/serial.hh"

#include "ir/serial.hh"

namespace xbsp::bin
{

namespace
{

constexpr u64 kindBlockRef = 1;
constexpr u64 kindLoop = 2;
constexpr u64 kindCall = 3;

void
encodePattern(serial::Encoder& e, const ir::MemPattern& p)
{
    e.varint(static_cast<u64>(p.kind));
    e.varint(p.regionId);
    e.varint(p.workingSet);
    e.varint(p.stride);
    e.f64(p.writeFraction);
    e.f64(p.pointerScale);
    e.f64(p.hotFraction);
    e.varint(p.driftPeriod);
    e.f64(p.driftAmp);
}

ir::MemPattern
decodePattern(serial::Decoder& d)
{
    ir::MemPattern p;
    const u64 kind = d.varint();
    if (kind > static_cast<u64>(ir::MemPatternKind::Gather))
        throw serial::DecodeError("bad MemPatternKind");
    p.kind = static_cast<ir::MemPatternKind>(kind);
    p.regionId = d.varint32();
    p.workingSet = d.varint();
    p.stride = d.varint();
    p.writeFraction = d.f64();
    p.pointerScale = d.f64();
    p.hotFraction = d.f64();
    p.driftPeriod = d.varint32();
    p.driftAmp = d.f64();
    return p;
}

void
encodeStmts(serial::Encoder& e, const std::vector<MachineStmt>& body)
{
    e.varint(body.size());
    for (const MachineStmt& stmt : body) {
        if (const auto* ref = std::get_if<BlockRef>(&stmt)) {
            e.varint(kindBlockRef);
            e.varint(ref->blockId);
        } else if (const auto* loop = std::get_if<MachineLoop>(&stmt)) {
            e.varint(kindLoop);
            e.varint(loop->entryMarkerId);
            e.varint(loop->branchMarkerId);
            e.varint(loop->branchBlockId);
            e.varint(loop->tripCount);
            encodeStmts(e, loop->body);
        } else {
            e.varint(kindCall);
            e.varint(std::get<MachineCall>(stmt).procId);
        }
    }
}

std::vector<MachineStmt>
decodeStmts(serial::Decoder& d, u32 depth)
{
    if (depth > ir::maxLoopNesting)
        throw serial::DecodeError("statements nested too deeply");
    const u64 n = d.arrayCount(2);
    std::vector<MachineStmt> body;
    body.reserve(static_cast<std::size_t>(n));
    for (u64 i = 0; i < n; ++i) {
        switch (d.varint()) {
        case kindBlockRef: {
            BlockRef ref;
            ref.blockId = d.varint32();
            body.push_back(ref);
            break;
        }
        case kindLoop: {
            MachineLoop loop;
            loop.entryMarkerId = d.varint32();
            loop.branchMarkerId = d.varint32();
            loop.branchBlockId = d.varint32();
            loop.tripCount = d.varint();
            loop.body = decodeStmts(d, depth + 1);
            body.push_back(std::move(loop));
            break;
        }
        case kindCall: {
            MachineCall call;
            call.procId = d.varint32();
            body.push_back(call);
            break;
        }
        default:
            throw serial::DecodeError("bad MachineStmt kind");
        }
    }
    return body;
}

} // namespace

void
encodeBinary(serial::Encoder& e, const Binary& binary)
{
    e.str(binary.programName);
    e.varint(static_cast<u64>(binary.target.arch));
    e.varint(static_cast<u64>(binary.target.opt));
    e.varint(binary.entryProcId);

    e.varint(binary.procs.size());
    for (const MachineProc& proc : binary.procs) {
        e.str(proc.name);
        e.varint(proc.entryMarkerId);
        encodeStmts(e, proc.body);
    }

    e.varint(binary.blocks.size());
    for (const MachineBlock& block : binary.blocks) {
        e.varint(block.instrs);
        e.varint(block.memOps);
        e.varint(block.stackOps);
        encodePattern(e, block.pattern);
        e.varint(block.sourceLine);
        e.varint(block.procId);
    }

    e.varint(binary.markers.size());
    for (const Marker& marker : binary.markers) {
        e.varint(static_cast<u64>(marker.kind));
        e.str(marker.symbol);
        e.varint(marker.line);
        e.varint(marker.procId);
    }
}

Binary
decodeBinary(serial::Decoder& d)
{
    Binary binary;
    binary.programName = d.str();
    const u64 arch = d.varint();
    if (arch > static_cast<u64>(Arch::X64))
        throw serial::DecodeError("bad Arch");
    binary.target.arch = static_cast<Arch>(arch);
    const u64 opt = d.varint();
    if (opt > static_cast<u64>(OptLevel::Optimized))
        throw serial::DecodeError("bad OptLevel");
    binary.target.opt = static_cast<OptLevel>(opt);
    binary.entryProcId = d.varint32();

    const u64 procs = d.arrayCount(3);
    binary.procs.reserve(static_cast<std::size_t>(procs));
    for (u64 i = 0; i < procs; ++i) {
        MachineProc proc;
        proc.name = d.str();
        proc.entryMarkerId = d.varint32();
        proc.body = decodeStmts(d, 0);
        binary.procs.push_back(std::move(proc));
    }

    const u64 blocks = d.arrayCount(6);
    binary.blocks.reserve(static_cast<std::size_t>(blocks));
    for (u64 i = 0; i < blocks; ++i) {
        MachineBlock block;
        block.instrs = d.varint32();
        block.memOps = d.varint32();
        block.stackOps = d.varint32();
        block.pattern = decodePattern(d);
        block.sourceLine = d.varint32();
        block.procId = d.varint32();
        binary.blocks.push_back(block);
    }

    const u64 markers = d.arrayCount(4);
    binary.markers.reserve(static_cast<std::size_t>(markers));
    for (u64 i = 0; i < markers; ++i) {
        Marker marker;
        const u64 kind = d.varint();
        if (kind > static_cast<u64>(MarkerKind::LoopBranch))
            throw serial::DecodeError("bad MarkerKind");
        marker.kind = static_cast<MarkerKind>(kind);
        marker.symbol = d.str();
        marker.line = d.varint32();
        marker.procId = d.varint32();
        binary.markers.push_back(std::move(marker));
    }
    // The engine indexes a binary unchecked: reject what it could
    // not run, or could not run exactly.
    if (const std::string defect = binaryDefect(binary); !defect.empty())
        throw serial::DecodeError(defect);
    return binary;
}

void
hashTarget(serial::Hasher& h, const Target& target)
{
    h.u64v(static_cast<u64>(target.arch));
    h.u64v(static_cast<u64>(target.opt));
}

void
hashBinary(serial::Hasher& h, const Binary& binary)
{
    serial::Encoder e;
    encodeBinary(e, binary);
    h.str(e.view());
}

} // namespace xbsp::bin
