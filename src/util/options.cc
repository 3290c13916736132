#include "util/options.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/format.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace xbsp
{

namespace
{

/**
 * Parse all of `text` into `out`: no leading blank or '+', no
 * trailing characters, no overflow.  `out` is untouched on failure.
 */
template <typename T>
bool
parseWhole(const std::string& text, T& out)
{
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

Options::Options(std::string desc) : description(std::move(desc))
{
}

void
Options::addString(const std::string& name, const std::string& help,
                   const std::string& def)
{
    opts.push_back({name, help, Kind::String, def, 0, 0.0, false});
}

void
Options::addUint(const std::string& name, const std::string& help,
                 u64 def)
{
    opts.push_back({name, help, Kind::Uint, "", def, 0.0, false});
}

void
Options::addDouble(const std::string& name, const std::string& help,
                   double def)
{
    opts.push_back({name, help, Kind::Double, "", 0, def, false});
}

void
Options::addBool(const std::string& name, const std::string& help,
                 bool def)
{
    opts.push_back({name, help, Kind::Bool, "", 0, 0.0, def});
}

void
Options::addJobs()
{
    addUint("jobs",
            "worker threads (0 = auto: XBSP_JOBS env, else hardware "
            "concurrency)",
            0);
}

u64
Options::applyJobs() const
{
    setGlobalJobs(getUint("jobs"));
    return configuredJobs();
}

Options::Option*
Options::find(const std::string& name)
{
    for (auto& opt : opts) {
        if (opt.name == name)
            return &opt;
    }
    return nullptr;
}

const Options::Option&
Options::require(const std::string& name, Kind kind) const
{
    for (const auto& opt : opts) {
        if (opt.name == name) {
            if (opt.kind != kind)
                panic("option --{} accessed with wrong type", name);
            return opt;
        }
    }
    panic("unknown option --{}", name);
}

void
Options::assign(Option& opt, const std::string& value)
{
    switch (opt.kind) {
      case Kind::String:
        opt.strVal = value;
        break;
      case Kind::Uint:
        if (!parseWhole(value, opt.uintVal))
            fatal("--{} expects an unsigned integer, got '{}'",
                  opt.name, value);
        break;
      case Kind::Double:
        if (!parseWhole(value, opt.dblVal) || !std::isfinite(opt.dblVal))
            fatal("--{} expects a finite number, got '{}'", opt.name,
                  value);
        break;
      case Kind::Bool:
        if (value == "true" || value == "1") {
            opt.boolVal = true;
        } else if (value == "false" || value == "0") {
            opt.boolVal = false;
        } else {
            fatal("--{} expects true/false, got '{}'", opt.name, value);
        }
        break;
    }
}

bool
Options::parse(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp();
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            extra.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::string value;
        bool hasValue = false;
        if (auto eq = body.find('='); eq != std::string::npos) {
            value = body.substr(eq + 1);
            body = body.substr(0, eq);
            hasValue = true;
        }
        Option* opt = find(body);
        if (!opt && body.rfind("no-", 0) == 0) {
            Option* base = find(body.substr(3));
            if (base && base->kind == Kind::Bool) {
                base->boolVal = false;
                continue;
            }
        }
        if (!opt)
            fatal("unknown option --{} (try --help)", body);
        if (opt->kind == Kind::Bool && !hasValue) {
            opt->boolVal = true;
            continue;
        }
        if (!hasValue) {
            if (i + 1 >= argc)
                fatal("--{} requires a value", body);
            value = argv[++i];
        }
        assign(*opt, value);
    }
    return true;
}

const std::string&
Options::getString(const std::string& name) const
{
    return require(name, Kind::String).strVal;
}

u64
Options::getUint(const std::string& name) const
{
    return require(name, Kind::Uint).uintVal;
}

double
Options::getDouble(const std::string& name) const
{
    return require(name, Kind::Double).dblVal;
}

bool
Options::getBool(const std::string& name) const
{
    return require(name, Kind::Bool).boolVal;
}

void
Options::printHelp() const
{
    std::printf("%s\n\nOptions:\n", description.c_str());
    for (const auto& opt : opts) {
        std::string def;
        switch (opt.kind) {
          case Kind::String:
            def = opt.strVal.empty() ? "\"\"" : opt.strVal;
            break;
          case Kind::Uint:
            def = xbsp::format("{}", opt.uintVal);
            break;
          case Kind::Double:
            def = xbsp::format("{}", opt.dblVal);
            break;
          case Kind::Bool:
            def = opt.boolVal ? "true" : "false";
            break;
        }
        std::printf("  --%-24s %s (default: %s)\n", opt.name.c_str(),
                    opt.help.c_str(), def.c_str());
    }
}

std::optional<int>
parseTcpPort(const std::string& text)
{
    u32 port = 0;
    if (!parseWhole(text, port) || port > 65535)
        return std::nullopt;
    return static_cast<int>(port);
}

} // namespace xbsp
