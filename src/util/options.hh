/**
 * @file
 * Minimal command-line option parser for the bench and example
 * binaries.  Supports --name=value, --name value, and boolean
 * --flag / --no-flag forms, plus automatic --help text.
 */

#ifndef XBSP_UTIL_OPTIONS_HH
#define XBSP_UTIL_OPTIONS_HH

#include <optional>
#include <string>
#include <vector>

#include "util/types.hh"

namespace xbsp
{

/** Declarative command-line option set with typed accessors. */
class Options
{
  public:
    /** Create a parser; description is shown at the top of --help. */
    explicit Options(std::string description);

    /** Declare a string option with a default. */
    void addString(const std::string& name, const std::string& help,
                   const std::string& def);

    /** Declare an unsigned integer option with a default. */
    void addUint(const std::string& name, const std::string& help,
                 u64 def);

    /** Declare a floating-point option with a default. */
    void addDouble(const std::string& name, const std::string& help,
                   double def);

    /** Declare a boolean flag (--name / --no-name) with a default. */
    void addBool(const std::string& name, const std::string& help,
                 bool def);

    /**
     * Declare the standard --jobs option (0 = automatic: XBSP_JOBS
     * env var, else hardware concurrency).
     */
    void addJobs();

    /**
     * Apply a previously declared --jobs value to the process-wide
     * thread pool (setGlobalJobs) and return the effective count.
     */
    u64 applyJobs() const;

    /**
     * Parse argv.  Returns false (after printing help) when --help is
     * requested; calls fatal() on unknown options or bad values.
     */
    bool parse(int argc, const char* const* argv);

    /** Value accessors; fatal() on wrong type or unknown name. */
    const std::string& getString(const std::string& name) const;
    u64 getUint(const std::string& name) const;
    double getDouble(const std::string& name) const;
    bool getBool(const std::string& name) const;

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string>& positional() const { return extra; }

    /** Print the generated help text. */
    void printHelp() const;

  private:
    enum class Kind { String, Uint, Double, Bool };

    struct Option
    {
        std::string name;
        std::string help;
        Kind kind;
        std::string strVal;
        u64 uintVal = 0;
        double dblVal = 0.0;
        bool boolVal = false;
    };

    std::string description;
    std::vector<Option> opts;
    std::vector<std::string> extra;

    Option* find(const std::string& name);
    const Option& require(const std::string& name, Kind kind) const;
    void assign(Option& opt, const std::string& value);
};

/**
 * Parse a decimal TCP port: all of `text`, digits only, in
 * [0, 65535]; nothing otherwise.  Callers decide whether 0 ("any
 * port") is acceptable and what a bad port means.
 */
std::optional<int> parseTcpPort(const std::string& text);

} // namespace xbsp

#endif // XBSP_UTIL_OPTIONS_HH
