#include "obs/live/exposition.hh"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "obs/progress.hh"
#include "obs/stats.hh"
#include "util/format.hh"
#include "util/threadpool.hh"

namespace xbsp::obs
{

std::string
promSeriesName(std::string_view path)
{
    std::string out = "xbsp_";
    for (const char c : path) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    // A digit straight after the prefix would still be legal, but a
    // path can't start a series with one anyway (xbsp_ leads).
    return out;
}

namespace
{

/** Render a double the way Prometheus likes it (no exponent caps). */
std::string
promNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

class ExpositionBuilder
{
  public:
    void
    counter(const std::string& name, u64 value)
    {
        type(name, "counter");
        out += name;
        out += ' ';
        out += std::to_string(value);
        out += '\n';
    }

    void
    gauge(const std::string& name, double value)
    {
        type(name, "gauge");
        out += name;
        out += ' ';
        out += promNumber(value);
        out += '\n';
    }

    std::string take() { return std::move(out); }

  private:
    std::string out;

    void
    type(const std::string& name, const char* kind)
    {
        out += "# TYPE ";
        out += name;
        out += ' ';
        out += kind;
        out += '\n';
    }
};

} // namespace

std::string
renderExposition(const StatRegistry& registry)
{
    ExpositionBuilder b;

    for (const LiveStat& stat : registry.liveStats()) {
        const std::string base = promSeriesName(stat.path);
        switch (stat.kind) {
          case StatKind::Counter:
            b.counter(base + "_total", stat.value);
            break;
          case StatKind::Distribution:
            b.counter(base + "_sum", stat.value);
            b.counter(base + "_count", stat.count);
            break;
          case StatKind::Timer:
            b.counter(base + "_nanos_total", stat.value);
            b.counter(base + "_count", stat.count);
            break;
        }
    }

    // State living outside the registry: rendering must not register
    // stats of its own, or a scraped run's stats dump would differ
    // from a plain run's.
    const Progress& progress = Progress::global();
    b.gauge("xbsp_pool_workers", static_cast<double>(configuredJobs()));
    b.gauge("xbsp_progress_done",
            static_cast<double>(progress.completed()));
    // "steps", not "total": the _total suffix is reserved for
    // counters by the exposition format, and this is a gauge.
    b.gauge("xbsp_progress_steps",
            static_cast<double>(progress.announced()));
    b.gauge("xbsp_progress_zero_cost",
            static_cast<double>(progress.zeroCostCompleted()));
    b.gauge("xbsp_progress_elapsed_seconds", progress.elapsedSeconds());
    b.gauge("xbsp_progress_eta_seconds", progress.etaSeconds());
    return b.take();
}

std::map<std::string, double>
parseExposition(std::string_view text)
{
    std::map<std::string, double> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        const std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string_view::npos)
            throw std::runtime_error(
                format("bad exposition line '{}'",
                       std::string(line)));
        const std::string name(line.substr(0, space));
        const std::string value(line.substr(space + 1));
        char* end = nullptr;
        const double parsed = std::strtod(value.c_str(), &end);
        if (end != value.c_str() + value.size())
            throw std::runtime_error(
                format("bad exposition value '{}' for '{}'", value,
                       name));
        out[name] = parsed;
    }
    return out;
}

} // namespace xbsp::obs
