#include "cpu/decoupled.hh"

#include "util/logging.hh"

namespace xbsp::cpu
{

DecoupledCore::DecoupledCore(const CoreConfig& config) : cfg(config)
{
    if (cfg.fetchWidth < 1 || cfg.fetchWidth > 64)
        fatal("decoupled core: fetchWidth {} out of range (1-64)",
              cfg.fetchWidth);
    if (cfg.ftqDepth < 1 || cfg.ftqDepth > 4096)
        fatal("decoupled core: ftqDepth {} out of range (1-4096)",
              cfg.ftqDepth);
    if (cfg.predictorBits < 1 || cfg.predictorBits > 24)
        fatal("decoupled core: predictorBits {} out of range (1-24)",
              cfg.predictorBits);
    btb.assign(std::size_t(1) << cfg.predictorBits, kNoTarget);
    indexMask = (u32(1) << cfg.predictorBits) - 1;
    ftqCap = static_cast<u64>(cfg.ftqDepth) * cfg.fetchWidth;
}

} // namespace xbsp::cpu
