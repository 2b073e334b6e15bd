/**
 * @file
 * A tiny command-line flag parser for the bench and example binaries.
 *
 * Accepted syntax: --name=value, --name value, and bare --name for
 * booleans. Unknown flags are a fatal user error so typos do not silently
 * fall back to defaults.
 *
 * All usage errors — unknown flags, malformed values, and registered
 * range constraints (requireIntAtLeast / requirePositiveDouble) — are
 * reported uniformly as one `<prog>: error: ...` line on stderr
 * followed by exit(exit_code::Usage), so every binary in the suite
 * rejects bad invocations identically and the mc_suite supervisor can
 * classify them as InvalidArgument without retrying.
 */

#ifndef MC_COMMON_CLI_HH
#define MC_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mc {

/**
 * Install SIG_IGN for SIGPIPE (idempotent). Every tool and bench entry
 * point needs this: a reader that closes early — a client dropping its
 * socket, `mc_suite | head`, a dead log pipe — must surface as an
 * EPIPE write error the code can classify as Unavailable, not as
 * signal 13 killing the process mid-run. CliParser::parse calls it, so
 * any binary that parses flags is covered automatically.
 */
void ignoreSigpipe();

/**
 * Declarative flag registry plus parser.
 */
class CliParser
{
  public:
    /** Create a parser; @p program_summary is shown by --help. */
    explicit CliParser(std::string program_summary);

    /** Register flags before parse(). Defaults define the flag's type. */
    void addFlag(const std::string &name, bool default_value,
                 const std::string &help);
    void addFlag(const std::string &name, std::int64_t default_value,
                 const std::string &help);
    void addFlag(const std::string &name, double default_value,
                 const std::string &help);
    void addFlag(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /**
     * Require the int flag @p name to be >= @p min; checked at the end
     * of parse() (defaults are validated too, so a bad default is
     * caught in testing rather than shipped).
     */
    void requireIntAtLeast(const std::string &name, std::int64_t min);

    /** Require the double flag @p name to be strictly positive. */
    void requirePositiveDouble(const std::string &name);

    /**
     * Parse argv. Exits with usage text on --help; usage errors
     * (unknown flags, malformed values, violated constraints) print
     * one error line and exit with exit_code::Usage.
     */
    void parse(int argc, const char *const *argv);

    bool getBool(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    const std::string &getString(const std::string &name) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return _positional; }

    /** Render the --help text. */
    std::string usage() const;

    /** Report a usage error the parser's way and exit with
     *  exit_code::Usage: for values a caller validates after parse(). */
    [[noreturn]] void usageError(const std::string &message) const;

  private:
    enum class FlagType { Bool, Int, Double, String };

    struct Flag
    {
        FlagType type;
        std::string help;
        bool boolValue = false;
        std::int64_t intValue = 0;
        double doubleValue = 0.0;
        std::string stringValue;
    };

    struct Constraint
    {
        std::string flagName;
        bool isDouble = false;
        std::int64_t minInt = 0; ///< for int flags: value must be >= this
    };

    const Flag &lookup(const std::string &name, FlagType type) const;
    void setFromString(Flag &flag, const std::string &name,
                       const std::string &text);
    void checkConstraints() const;

    std::string _summary;
    std::string _programName;
    std::map<std::string, Flag> _flags;
    std::vector<Constraint> _constraints;
    std::vector<std::string> _positional;
};

} // namespace mc

#endif // MC_COMMON_CLI_HH
