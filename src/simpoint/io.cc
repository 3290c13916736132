#include "simpoint/io.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "util/logging.hh"

namespace xbsp::sp
{

namespace
{

/**
 * Call `fn(fields, lineNo)` for every non-blank line of `is`, with
 * the line split at whitespace.
 */
template <typename Fn>
void
forEachLine(std::istream& is, Fn&& fn)
{
    std::string line;
    std::size_t lineNo = 0;
    std::vector<std::string> fields;
    while (std::getline(is, line)) {
        ++lineNo;
        std::istringstream split(line);
        fields.clear();
        for (std::string field; split >> field;)
            fields.push_back(std::move(field));
        if (!fields.empty())
            fn(fields, lineNo);
    }
}

/** Strict decimal integer in [0, max]; fatal() names file and line. */
u64
parseUint(const std::string& field, u64 max, const char* file,
          std::size_t lineNo)
{
    u64 value = 0;
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, value);
    if (ec == std::errc::result_out_of_range ||
        (ec == std::errc() && ptr == end && value > max))
        fatal("{} file line {}: {} is out of range (max {})", file,
              lineNo, field, max);
    if (ec != std::errc() || ptr != end)
        fatal("{} file line {}: '{}' is not a non-negative integer",
              file, lineNo, field);
    return value;
}

} // namespace

void
writeBbvFile(std::ostream& os, const FrequencyVectorSet& fvs)
{
    // %.17g guarantees strtod() recovers the exact double on read —
    // the text BBV path round-trips bit-for-bit like the binary store.
    char buf[64];
    for (std::size_t i = 0; i < fvs.size(); ++i) {
        const SparseRow row = fvs.row(i);
        os << "T";
        for (std::size_t e = 0; e < row.size(); ++e) {
            std::snprintf(buf, sizeof(buf), "%.17g", row.value[e]);
            os << ":" << (row.index[e] + 1) << ":" << buf << " ";
        }
        os << "\n";
    }
}

FrequencyVectorSet
readBbvFile(std::istream& is, u32 dimensionHint)
{
    // Rows go straight into the set's block; its dimension is known
    // only at the end, so until then it is the largest one accepted.
    FrequencyVectorSet fvs;
    fvs.dimension = kMaxBbvDimension;
    SparseVec vec;
    u32 maxIdx = 0;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] != 'T')
            fatal("bb file line {}: expected 'T' prefix", lineNo);
        vec.clear();
        std::size_t pos = 1;
        while (pos < line.size()) {
            if (line[pos] == ' ') {
                ++pos;
                continue;
            }
            if (line[pos] != ':')
                fatal("bb file line {}: expected ':' at column {}",
                      lineNo, pos);
            ++pos;
            // strtoull would take a sign or leading blanks and wrap
            // "-1"; an index starts with a digit.
            if (!std::isdigit(static_cast<unsigned char>(line[pos])))
                fatal("bb file line {}: bad dimension index", lineNo);
            char* end = nullptr;
            errno = 0;
            const unsigned long long idx =
                std::strtoull(line.c_str() + pos, &end, 10);
            if (*end != ':' || idx == 0)
                fatal("bb file line {}: bad dimension index", lineNo);
            if (errno == ERANGE || idx > kMaxBbvDimension)
                fatal("bb file line {}: dimension index {} exceeds "
                      "the limit of {}", lineNo,
                      line.substr(pos, static_cast<std::size_t>(
                                           end - line.c_str()) - pos),
                      kMaxBbvDimension);
            pos = static_cast<std::size_t>(end - line.c_str()) + 1;
            const double val = std::strtod(line.c_str() + pos, &end);
            if (end == line.c_str() + pos)
                fatal("bb file line {}: bad value", lineNo);
            if (!std::isfinite(val) || val < 0.0)
                fatal("bb file line {}: value {} is not finite and "
                      "non-negative", lineNo, val);
            pos = static_cast<std::size_t>(end - line.c_str());
            vec.emplace_back(static_cast<u32>(idx - 1), val);
            maxIdx = std::max(maxIdx, static_cast<u32>(idx - 1));
        }
        std::sort(vec.begin(), vec.end());
        // Merge duplicate dimension entries (SimPoint frequency
        // semantics: repeated ids on one line accumulate).
        for (std::size_t e = 0; e < vec.size(); ++e) {
            const auto [idx, val] = vec[e];
            if (e > 0 && vec[e - 1].first == idx)
                fvs.value.back() += val;
            else
                fvs.pushEntry(idx, val);
        }
        fvs.closeInterval(1);
    }
    fvs.dimension = std::max(dimensionHint, maxIdx + 1);
    fvs.seal();
    return fvs;
}

void
writeLengthsFile(std::ostream& os, const FrequencyVectorSet& fvs)
{
    for (InstrCount len : fvs.lengths)
        os << len << "\n";
}

void
readLengthsFile(std::istream& is, FrequencyVectorSet& fvs)
{
    std::vector<InstrCount> lengths;
    forEachLine(is, [&](const std::vector<std::string>& fields,
                        std::size_t lineNo) {
        for (const std::string& field : fields)
            lengths.push_back(parseUint(
                field, std::numeric_limits<u64>::max(), "lengths",
                lineNo));
    });
    if (lengths.size() != fvs.size())
        fatal("lengths file has {} entries for {} intervals",
              lengths.size(), fvs.size());
    fvs.lengths = std::move(lengths);
}

void
writeSimpointsFile(std::ostream& os, const SimPointResult& result)
{
    for (const Phase& phase : result.phases)
        os << phase.representative << " " << phase.id << "\n";
}

void
writeWeightsFile(std::ostream& os, const SimPointResult& result)
{
    for (const Phase& phase : result.phases)
        os << phase.weight << " " << phase.id << "\n";
}

void
writeLabelsFile(std::ostream& os, const SimPointResult& result)
{
    for (u32 label : result.labels)
        os << label << "\n";
}

} // namespace xbsp::sp
