/**
 * @file
 * SimPoint 3.0 file-format interoperability.
 *
 * The reference SimPoint distribution consumes frequency-vector files
 * (one interval per line, "T:dim:count" fields) and produces
 * `.simpoints` / `.weights` files (one "value phaseId" pair per
 * line) plus a `.labels` file.  This module reads and writes those
 * formats so studies can exchange data with the original tools: BBVs
 * collected here can be clustered by stock SimPoint, and clusterings
 * computed here can drive stock PinPoints-style flows.
 */

#ifndef XBSP_SIMPOINT_IO_HH
#define XBSP_SIMPOINT_IO_HH

#include <istream>
#include <ostream>
#include <string>

#include "simpoint/simpoint.hh"

namespace xbsp::sp
{

/**
 * Write frequency vectors in SimPoint's .bb format:
 *
 *   T:12:345 :17:1 ...
 *
 * Dimension indices are emitted 1-based, as the original tools
 * expect.  Interval lengths are not part of the format; VLI users
 * should also persist lengths via writeLengthsFile().
 */
void writeBbvFile(std::ostream& os, const FrequencyVectorSet& fvs);

/**
 * Largest one-based dimension index readBbvFile() accepts.  Projection
 * allocates one padded row per dimension (128 bytes at the default 15
 * projected dimensions), so this caps that matrix at 512 MB.
 */
inline constexpr u32 kMaxBbvDimension = 1u << 22;

/**
 * Parse a .bb file.  Indices are converted back to 0-based; the
 * dimension is the maximum index seen (or `dimensionHint` if
 * larger).  Lengths are initialised to 1 for every interval (fixed
 * length) unless later overwritten.
 * Calls fatal() on malformed input, on an index above
 * kMaxBbvDimension and on a negative or non-finite value.
 */
FrequencyVectorSet readBbvFile(std::istream& is,
                               u32 dimensionHint = 0);

/** Write one interval length per line (VLI companion file). */
void writeLengthsFile(std::ostream& os,
                      const FrequencyVectorSet& fvs);

/**
 * Read a lengths file into an existing vector set (sizes must match).
 * Every entry must be a decimal integer in u64 range, else fatal().
 */
void readLengthsFile(std::istream& is, FrequencyVectorSet& fvs);

/**
 * Write the `.simpoints` file: "intervalIndex phaseId" per phase,
 * ordered by phase id — the file PinPoints-style tooling consumes to
 * know which intervals to simulate.
 */
void writeSimpointsFile(std::ostream& os, const SimPointResult& result);

/** Write the `.weights` file: "weight phaseId" per phase. */
void writeWeightsFile(std::ostream& os, const SimPointResult& result);

/** Write the `.labels` file: one phase id per interval line. */
void writeLabelsFile(std::ostream& os, const SimPointResult& result);

/**
 * Reconstruct a (partial) SimPointResult from `.simpoints`,
 * `.weights` and `.labels` streams.  Members are rebuilt from the
 * labels; BIC metadata is not representable in the files and is left
 * zero.  Calls fatal() on inconsistent inputs, on interval indices and
 * phase ids that are not decimal integers in u32 range (a phase id of
 * 2^32 - 1 is out of range too: k would wrap) and on negative or
 * non-finite weights.
 */
SimPointResult readSimPointFiles(std::istream& simpoints,
                                 std::istream& weights,
                                 std::istream& labels);

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_IO_HH
