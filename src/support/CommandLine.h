//===- support/CommandLine.h - Tiny flag parser for tools ----------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal command-line flag parser shared by the bench and example
/// binaries. Supports `--name=value` and `--name value`, typed accessors,
/// comma-separated lists of unsigned integers (thread sweeps) or of
/// names (algorithm sets), and `--help` output.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_SUPPORT_COMMANDLINE_H
#define VBL_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <string>
#include <vector>

namespace vbl {

/// Declarative flag registry. Register flags with defaults, then call
/// parse(); unknown flags or malformed values fail parsing with a message
/// on stderr so benches never run with silently-ignored parameters.
class FlagSet {
public:
  explicit FlagSet(std::string ProgramDescription)
      : Description(std::move(ProgramDescription)) {}

  void addInt(const std::string &Name, int64_t Default,
              const std::string &Help);
  void addBool(const std::string &Name, bool Default, const std::string &Help);
  void addString(const std::string &Name, const std::string &Default,
                 const std::string &Help);
  /// Comma-separated list of unsigned integers, e.g. --threads=1,2,4,8.
  void addUnsignedList(const std::string &Name,
                       const std::vector<unsigned> &Default,
                       const std::string &Help);
  /// Comma-separated list of names, e.g. --algos=vbl,lazy. Empty parts
  /// are dropped, so "a,,b," is {a, b}.
  void addStringList(const std::string &Name,
                     const std::vector<std::string> &Default,
                     const std::string &Help);

  /// Parses argv. Returns false (after printing a diagnostic or the help
  /// text) if the program should exit instead of running.
  bool parse(int Argc, char **Argv);

  int64_t getInt(const std::string &Name) const;
  bool getBool(const std::string &Name) const;
  const std::string &getString(const std::string &Name) const;
  const std::vector<unsigned> &getUnsignedList(const std::string &Name) const;
  const std::vector<std::string> &
  getStringList(const std::string &Name) const;

  void printHelp(const char *Argv0) const;

private:
  enum class FlagKind { Int, Bool, String, UnsignedList, StringList };

  struct Flag {
    std::string Name;
    FlagKind Kind;
    std::string Help;
    std::string DefaultText;
    int64_t IntValue = 0;
    bool BoolValue = false;
    std::string StringValue;
    std::vector<unsigned> ListValue;
    std::vector<std::string> StringListValue;
  };

  /// Registers a flag of \p Kind; the caller sets its default value.
  Flag &add(const std::string &Name, FlagKind Kind, const std::string &Help,
            std::string DefaultText);
  Flag *find(const std::string &Name);
  const Flag *findOrDie(const std::string &Name, FlagKind Kind) const;
  bool assign(Flag &F, const std::string &Text);

  std::string Description;
  std::vector<Flag> Flags;
};

} // namespace vbl

#endif // VBL_SUPPORT_COMMANDLINE_H
