//===- support/CommandLine.cpp - Tiny flag parser ------------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/Compiler.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace vbl;

FlagSet::Flag &FlagSet::add(const std::string &Name, FlagKind Kind,
                            const std::string &Help,
                            std::string DefaultText) {
  VBL_ASSERT(!find(Name), "duplicate flag");
  Flag &F = Flags.emplace_back();
  F.Name = Name;
  F.Kind = Kind;
  F.Help = Help;
  F.DefaultText = std::move(DefaultText);
  return F;
}

/// "a,b,c": a list default as the help text shows it.
static std::string joinCommas(const std::vector<std::string> &Parts) {
  std::string Text;
  for (size_t I = 0, E = Parts.size(); I != E; ++I)
    Text += (I ? "," : "") + Parts[I];
  return Text;
}

void FlagSet::addInt(const std::string &Name, int64_t Default,
                     const std::string &Help) {
  add(Name, FlagKind::Int, Help, std::to_string(Default)).IntValue = Default;
}

void FlagSet::addBool(const std::string &Name, bool Default,
                      const std::string &Help) {
  add(Name, FlagKind::Bool, Help, Default ? "true" : "false").BoolValue =
      Default;
}

void FlagSet::addString(const std::string &Name, const std::string &Default,
                        const std::string &Help) {
  add(Name, FlagKind::String, Help, Default).StringValue = Default;
}

void FlagSet::addUnsignedList(const std::string &Name,
                              const std::vector<unsigned> &Default,
                              const std::string &Help) {
  std::vector<std::string> Parts;
  for (unsigned Value : Default)
    Parts.push_back(std::to_string(Value));
  add(Name, FlagKind::UnsignedList, Help, joinCommas(Parts)).ListValue =
      Default;
}

void FlagSet::addStringList(const std::string &Name,
                            const std::vector<std::string> &Default,
                            const std::string &Help) {
  add(Name, FlagKind::StringList, Help, joinCommas(Default))
      .StringListValue = Default;
}

FlagSet::Flag *FlagSet::find(const std::string &Name) {
  for (Flag &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

const FlagSet::Flag *FlagSet::findOrDie(const std::string &Name,
                                        FlagKind Kind) const {
  for (const Flag &F : Flags) {
    if (F.Name != Name)
      continue;
    VBL_ASSERT(F.Kind == Kind, "flag accessed with wrong type");
    return &F;
  }
  vbl_unreachable("unknown flag queried");
}

static bool parseInt64(const std::string &Text, int64_t &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  const long long V = std::strtoll(Text.c_str(), &End, 10);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = V;
  return true;
}

/// Splits \p Text at every comma, keeping empty parts ("" is {""}).
static std::vector<std::string> splitAtCommas(const std::string &Text) {
  std::vector<std::string> Pieces;
  size_t Pos = 0;
  for (;;) {
    const size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos) {
      Pieces.push_back(Text.substr(Pos));
      return Pieces;
    }
    Pieces.push_back(Text.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
}

bool FlagSet::assign(Flag &F, const std::string &Text) {
  switch (F.Kind) {
  case FlagKind::Int:
    return parseInt64(Text, F.IntValue);
  case FlagKind::Bool:
    if (Text == "true" || Text == "1") {
      F.BoolValue = true;
      return true;
    }
    if (Text == "false" || Text == "0") {
      F.BoolValue = false;
      return true;
    }
    return false;
  case FlagKind::String:
    F.StringValue = Text;
    return true;
  case FlagKind::UnsignedList: {
    std::vector<unsigned> Values;
    for (const std::string &Piece : splitAtCommas(Text)) {
      int64_t V = 0;
      if (!parseInt64(Piece, V) || V < 0)
        return false;
      Values.push_back(static_cast<unsigned>(V));
    }
    F.ListValue = std::move(Values);
    return true;
  }
  case FlagKind::StringList:
    F.StringListValue.clear();
    for (std::string &Piece : splitAtCommas(Text))
      if (!Piece.empty())
        F.StringListValue.push_back(std::move(Piece));
    return true;
  }
  vbl_unreachable("covered switch");
}

bool FlagSet::parse(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printHelp(Argv[0]);
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected positional argument '%s'\n",
                   Arg.c_str());
      return false;
    }
    Arg = Arg.substr(2);
    std::string Value;
    bool HaveValue = false;
    const size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg = Arg.substr(0, Eq);
      HaveValue = true;
    }
    Flag *F = find(Arg);
    if (!F) {
      std::fprintf(stderr, "error: unknown flag '--%s'\n", Arg.c_str());
      return false;
    }
    // A bool flag with no inline value means "set to true".
    if (!HaveValue && F->Kind == FlagKind::Bool) {
      F->BoolValue = true;
      continue;
    }
    if (!HaveValue) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: flag '--%s' expects a value\n",
                     Arg.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    if (!assign(*F, Value)) {
      std::fprintf(stderr, "error: invalid value '%s' for flag '--%s'\n",
                   Value.c_str(), Arg.c_str());
      return false;
    }
  }
  return true;
}

int64_t FlagSet::getInt(const std::string &Name) const {
  return findOrDie(Name, FlagKind::Int)->IntValue;
}

bool FlagSet::getBool(const std::string &Name) const {
  return findOrDie(Name, FlagKind::Bool)->BoolValue;
}

const std::string &FlagSet::getString(const std::string &Name) const {
  return findOrDie(Name, FlagKind::String)->StringValue;
}

const std::vector<unsigned> &
FlagSet::getUnsignedList(const std::string &Name) const {
  return findOrDie(Name, FlagKind::UnsignedList)->ListValue;
}

const std::vector<std::string> &
FlagSet::getStringList(const std::string &Name) const {
  return findOrDie(Name, FlagKind::StringList)->StringListValue;
}

void FlagSet::printHelp(const char *Argv0) const {
  std::fprintf(stderr, "%s\n\nusage: %s [flags]\n\nflags:\n",
               Description.c_str(), Argv0);
  for (const Flag &F : Flags)
    std::fprintf(stderr, "  --%-20s %s (default: %s)\n", F.Name.c_str(),
                 F.Help.c_str(), F.DefaultText.c_str());
}
