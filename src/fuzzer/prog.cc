#include "fuzzer/prog.h"

#include <cstring>

#include "util/rng.h"
#include "util/strings.h"

namespace kernelgpt::fuzzer {

void
Prog::AddArg(Arg arg, util::Span<const uint8_t> payload)
{
  arg.bytes_off = static_cast<uint32_t>(bytes.size());
  arg.bytes_len = static_cast<uint32_t>(payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  args.push_back(arg);
  ++calls.back().num_args;
}

void
Prog::RemoveCall(size_t index)
{
  const Call removed = calls[index];
  calls.erase(calls.begin() + static_cast<long>(index));
  args.erase(args.begin() + removed.first_arg,
             args.begin() + removed.first_arg + removed.num_args);
  for (size_t c = index; c < calls.size(); ++c) {
    calls[c].first_arg -= removed.num_args;
  }
  const int gone = static_cast<int>(index);
  for (Arg& arg : args) {
    if (arg.kind != Arg::Kind::kResourceRef) continue;
    if (arg.ref_call == gone) arg.ref_call = -1;
    if (arg.ref_call > gone) --arg.ref_call;
  }
}

void
Prog::DuplicateCall(size_t index)
{
  const Call source = calls[index];
  AddCall(source.syscall_index);
  for (uint32_t a = 0; a < source.num_args; ++a) {
    Arg arg = args[source.first_arg + a];
    // The copy gets its own payload: an in-place edit of one call's
    // bytes must never show through in the other.
    const size_t at = bytes.size();
    bytes.resize(at + arg.bytes_len);
    if (arg.bytes_len) {
      std::memcpy(bytes.data() + at, bytes.data() + arg.bytes_off,
                  arg.bytes_len);
    }
    arg.bytes_off = static_cast<uint32_t>(at);
    args.push_back(arg);
    ++calls.back().num_args;
  }
}

size_t
Prog::LiveBytes() const
{
  size_t live = 0;
  for (const Arg& arg : args) live += arg.bytes_len;
  return live;
}

void
Prog::CompactBytes()
{
  std::vector<uint8_t> live;
  live.reserve(LiveBytes());
  for (Arg& arg : args) {
    const uint32_t at = static_cast<uint32_t>(live.size());
    live.insert(live.end(), bytes.begin() + arg.bytes_off,
                bytes.begin() + arg.bytes_off + arg.bytes_len);
    arg.bytes_off = at;
  }
  bytes.swap(live);
}

uint64_t
HashProg(const Prog& prog)
{
  // Every variable-length sequence is length-prefixed so that no two
  // distinct programs serialize to the same hash stream.
  uint64_t h = util::HashCombine(0x646973746c6cULL, prog.calls.size());
  for (size_t c = 0; c < prog.calls.size(); ++c) {
    h = util::HashCombine(h, prog.calls[c].syscall_index);
    h = util::HashCombine(h, prog.calls[c].num_args);
    for (const Arg& arg : prog.ArgsOf(c)) {
      h = util::HashCombine(h, static_cast<uint64_t>(arg.kind));
      h = util::HashCombine(h, arg.scalar);
      h = util::HashCombine(h, static_cast<uint64_t>(arg.dir));
      h = util::HashCombine(h, static_cast<uint64_t>(arg.ref_call));
      h = util::HashCombine(h, static_cast<uint64_t>(arg.len_of_param));
      h = util::HashCombine(h, arg.bytes_len);
      // FNV-1a over the payload, folded in as one word.
      uint64_t bytes_hash = 0xcbf29ce484222325ULL;
      for (uint8_t b : prog.BytesOf(arg)) {
        bytes_hash = (bytes_hash ^ b) * 0x100000001b3ULL;
      }
      h = util::HashCombine(h, bytes_hash);
    }
  }
  return h;
}

std::string
FormatProg(const Prog& prog, const SpecLibrary& lib)
{
  std::string out;
  for (size_t i = 0; i < prog.calls.size(); ++i) {
    const Call& call = prog.calls[i];
    if (call.syscall_index >= lib.syscalls().size()) continue;
    const syzlang::SyscallDef& def = lib.syscalls()[call.syscall_index];
    out += util::Format("r%zu = %s(", i, def.FullName().c_str());
    const util::Span<const Arg> args = prog.ArgsOf(i);
    for (size_t a = 0; a < args.size(); ++a) {
      if (a) out += ", ";
      const Arg& arg = args[a];
      switch (arg.kind) {
        case Arg::Kind::kScalar:
          out += util::Format("0x%llx",
                              static_cast<unsigned long long>(arg.scalar));
          break;
        case Arg::Kind::kBuffer:
          out += util::Format("&buf[%u]", arg.bytes_len);
          break;
        case Arg::Kind::kResourceRef:
          out += arg.ref_call >= 0 ? util::Format("r%d", arg.ref_call)
                                   : "badfd";
          break;
      }
    }
    out += ")\n";
  }
  return out;
}

}  // namespace kernelgpt::fuzzer
