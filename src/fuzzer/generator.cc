#include "fuzzer/generator.h"

#include <algorithm>

namespace kernelgpt::fuzzer {

using syzlang::Dir;
using syzlang::SyscallDef;
using syzlang::Type;
using syzlang::TypeKind;

Generator::Generator(const SpecLibrary* lib, util::Rng* rng)
    : lib_(lib), rng_(rng)
{
  // Pre-size the slot array so InfoFor() never reallocates mid-use (a
  // held TypeInfo& must stay valid across recursive generation calls).
  slots_.resize(lib_->TypeSlotCount());
}

Generator::TypeInfo&
Generator::StructInfoFor(const Type& type)
{
  TypeInfo& info = InfoFor(type);
  if (!info.struct_known) {
    info.struct_def = lib_->FindStruct(type.ref_name);
    info.is_resource_ref = lib_->HasResource(type.ref_name);
    info.struct_known = true;
  }
  return info;
}

size_t
Generator::CachedTypeSize(const Type& type)
{
  TypeInfo& info = InfoFor(type);
  if (!info.size_known) {
    info.type_size = lib_->TypeSize(type);
    info.size_known = true;
  }
  return info.type_size;
}

uint64_t
Generator::ScalarFor(const Type& type)
{
  int bits = type.bits == 0 ? 64 : type.bits;
  uint64_t mask = bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
  switch (type.kind) {
    case TypeKind::kConst: {
      TypeInfo& info = InfoFor(type);
      if (!info.const_known) {
        info.const_value = lib_->ResolveConst(type.const_name);
        info.const_known = true;
      }
      return info.const_value;
    }
    case TypeKind::kFlags: {
      TypeInfo& info = InfoFor(type);
      if (!info.flags_known) {
        if (const syzlang::FlagsDef* flags =
                lib_->FindFlags(type.flags_name)) {
          for (const auto& name : flags->values) {
            info.flag_values.push_back(lib_->ResolveConst(name));
          }
        }
        info.flags_known = true;
      }
      if (info.flag_values.empty()) return rng_->Next() & mask;
      uint64_t value = 0;
      for (uint64_t flag : info.flag_values) {
        if (rng_->Chance(0.4)) value |= flag;
      }
      return value & mask;
    }
    case TypeKind::kInt: {
      if (type.has_range) {
        // Mostly in-range (the point of semantic specs), occasionally a
        // boundary probe.
        if (rng_->Chance(0.9)) {
          return static_cast<uint64_t>(
                     rng_->Range(type.range_lo, type.range_hi)) &
                 mask;
        }
        return rng_->Chance(0.5)
                   ? static_cast<uint64_t>(type.range_lo) & mask
                   : static_cast<uint64_t>(type.range_hi) & mask;
      }
      // Special-value biased generation (syzkaller-style).
      switch (rng_->Below(6)) {
        case 0: return 0;
        case 1: return 1;
        case 2: return mask;
        case 3: return rng_->Below(64);
        case 4: return rng_->Next() & mask & 0xffff;
        default: return rng_->Next() & mask;
      }
    }
    default:
      return rng_->Next() & mask;
  }
}

namespace {

void
AppendScalarBytes(std::vector<uint8_t>* out, uint64_t value, size_t size)
{
  // push_back's inline fast path beats resize() into a warm arena.
  for (size_t i = 0; i < size; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

bool
IsComposite(TypeKind kind)
{
  return kind == TypeKind::kArray || kind == TypeKind::kString ||
         kind == TypeKind::kStructRef;
}

/// Byte width of a struct's len/bytesize field.
size_t
LenFieldSize(const Type& type)
{
  return type.bits == 0 ? 8 : static_cast<size_t>(type.bits) / 8;
}

}  // namespace

const std::vector<int>&
Generator::LenTargetsFor(const Type& type, const syzlang::StructDef& def)
{
  TypeInfo& info = InfoFor(type);
  if (!info.len_targets_known) {
    // A len field names its target; the last composite field of that
    // name is the one measured.
    info.len_targets.assign(def.fields.size(), -1);
    for (size_t i = 0; i < def.fields.size(); ++i) {
      const Type& ft = def.fields[i].type;
      if (ft.kind != TypeKind::kLen && ft.kind != TypeKind::kBytesize) {
        continue;
      }
      if (ft.len_target == "parent") {
        info.len_targets[i] = kLenOfParent;
        continue;
      }
      for (size_t j = 0; j < def.fields.size(); ++j) {
        if (IsComposite(def.fields[j].type.kind) &&
            def.fields[j].name == ft.len_target) {
          info.len_targets[i] = static_cast<int>(j);
        }
      }
    }
    info.len_targets_known = true;
  }
  return info.len_targets;
}

void
Generator::BuildPayload(const Type& type, std::vector<uint8_t>* out)
{
  const size_t start = out->size();
  switch (type.kind) {
    case TypeKind::kString: {
      if (!type.str_literal.empty()) {
        out->insert(out->end(), type.str_literal.begin(),
                    type.str_literal.end());
      } else {
        size_t n = rng_->Below(16);
        for (size_t i = 0; i < n; ++i) {
          out->push_back(static_cast<uint8_t>('a' + rng_->Below(26)));
        }
      }
      out->push_back(0);
      return;
    }
    case TypeKind::kArray: {
      const Type& elem = type.elems.at(0);
      uint64_t count =
          type.array_len > 0 ? type.array_len : rng_->Below(17);
      size_t elem_size = CachedTypeSize(elem);
      for (uint64_t i = 0; i < count; ++i) {
        if (elem.kind == TypeKind::kStructRef) {
          BuildPayload(elem, out);
        } else {
          AppendScalarBytes(out, ScalarFor(elem), elem_size ? elem_size : 4);
        }
      }
      return;
    }
    case TypeKind::kStructRef: {
      const syzlang::StructDef* def = StructInfoFor(type).struct_def;
      if (!def) {
        out->resize(start + 8, 0);
        return;
      }
      if (def->is_union) {
        // Pick one arm and pad to the union size.
        size_t total = CachedTypeSize(type);
        if (!def->fields.empty()) {
          const auto& arm =
              def->fields[rng_->Below(def->fields.size())];
          BuildPayload(arm.type, out);
          if (out->size() == start) {
            AppendScalarBytes(out, ScalarFor(arm.type),
                              CachedTypeSize(arm.type));
          }
        }
        out->resize(start + total, 0);
        return;
      }
      // First pass: generate non-len fields, remembering each composite
      // field's byte size and each len field's offset; the second pass
      // fills len fields from their resolved target fields.
      const std::vector<int>& len_targets = LenTargetsFor(type, *def);
      const size_t frame = field_scratch_.size();
      field_scratch_.resize(frame + def->fields.size());
      for (size_t f = 0; f < def->fields.size(); ++f) {
        const Type& ft = def->fields[f].type;
        if (ft.kind == TypeKind::kLen || ft.kind == TypeKind::kBytesize) {
          field_scratch_[frame + f] = out->size() - start;
          AppendScalarBytes(out, 0, LenFieldSize(ft));
          continue;
        }
        if (IsComposite(ft.kind)) {
          const size_t field_start = out->size();
          BuildPayload(ft, out);
          field_scratch_[frame + f] = out->size() - field_start;
          // Fixed-size fields keep their declared size.
          size_t declared = CachedTypeSize(ft);
          if (declared > 0) out->resize(field_start + declared, 0);
          continue;
        }
        size_t size = CachedTypeSize(ft);
        AppendScalarBytes(out, ScalarFor(ft), size ? size : 4);
      }
      for (size_t f = 0; f < def->fields.size(); ++f) {
        const Type& ft = def->fields[f].type;
        if (ft.kind != TypeKind::kLen && ft.kind != TypeKind::kBytesize) {
          continue;
        }
        const int target = len_targets[f];
        uint64_t value = 0;
        if (target == kLenOfParent) {
          value = out->size() - start;
        } else if (target >= 0) {
          value = field_scratch_[frame + static_cast<size_t>(target)];
          const Type& tt = def->fields[static_cast<size_t>(target)].type;
          if (ft.kind == TypeKind::kLen && tt.kind == TypeKind::kArray) {
            value /= std::max<size_t>(CachedTypeSize(tt.elems.at(0)), 1);
          }
        }
        const size_t at = start + field_scratch_[frame + f];
        const size_t size = LenFieldSize(ft);
        for (size_t i = 0; i < size; ++i) {
          (*out)[at + i] = static_cast<uint8_t>(value >> (8 * i));
        }
      }
      field_scratch_.resize(frame);
      return;
    }
    default: {
      size_t size = CachedTypeSize(type);
      AppendScalarBytes(out, ScalarFor(type), size ? size : 4);
      return;
    }
  }
}

Arg
Generator::BuildArg(const Type& type, Prog* prog)
{
  Arg arg;
  std::vector<uint8_t>& bytes = prog->bytes;
  arg.bytes_off = static_cast<uint32_t>(bytes.size());
  switch (type.kind) {
    case TypeKind::kResource:
      arg.kind = Arg::Kind::kResourceRef;
      return arg;
    case TypeKind::kStructRef:
      // A bare name can be a resource reference after parsing round-trips.
      if (StructInfoFor(type).is_resource_ref) {
        arg.kind = Arg::Kind::kResourceRef;
        return arg;
      }
      arg.kind = Arg::Kind::kBuffer;
      BuildPayload(type, &bytes);
      break;
    case TypeKind::kPtr:
      arg.kind = Arg::Kind::kBuffer;
      arg.dir = type.dir;
      BuildPayload(type.elems.at(0), &bytes);
      if (type.dir == Dir::kOut) {
        // Out buffers are kernel-filled; provide capacity only.
        size_t want = CachedTypeSize(type.elems.at(0));
        bytes.resize(arg.bytes_off);
        bytes.resize(arg.bytes_off + (want ? want : 64), 0);
      }
      break;
    case TypeKind::kFilename: {
      arg.kind = Arg::Kind::kBuffer;
      static constexpr char kPath[] = "/dev/null";  // NUL included.
      bytes.insert(bytes.end(), kPath, kPath + sizeof(kPath));
      break;
    }
    case TypeKind::kLen:
    case TypeKind::kBytesize:
      arg.kind = Arg::Kind::kScalar;
      arg.scalar = 0;  // Linked by LinkLens.
      return arg;
    default:
      arg.kind = Arg::Kind::kScalar;
      arg.scalar = ScalarFor(type);
      return arg;
  }
  arg.bytes_len = static_cast<uint32_t>(bytes.size() - arg.bytes_off);
  return arg;
}

void
Generator::LinkLens(Prog* prog, size_t call)
{
  const util::Span<Arg> args = prog->ArgsOf(call);
  // (len param, target param) pairs are precomputed by Finalize().
  for (const auto& [len_idx, target_idx] :
       lib_->LenLinksOf(prog->calls[call].syscall_index)) {
    const size_t i = static_cast<size_t>(len_idx);
    const size_t j = static_cast<size_t>(target_idx);
    if (i >= args.size() || j >= args.size()) continue;
    if (args[i].len_of_param == kBrokenLenLink) continue;
    args[i].len_of_param = static_cast<int>(j);
    args[i].scalar = args[j].bytes_len;
  }
}

int
Generator::AppendCall(Prog* prog, size_t syscall_index, int depth)
{
  if (syscall_index >= lib_->syscalls().size()) return -1;
  const SyscallDef& def = lib_->syscalls()[syscall_index];

  // This call's args wait on a stack frame while producer calls for its
  // resource params are appended ahead of it.
  const size_t frame = pending_args_.size();
  for (const auto& param : def.params) {
    Arg arg = BuildArg(param.type, prog);
    if (arg.kind == Arg::Kind::kResourceRef) {
      const std::string& res = param.type.ref_name;
      // Reuse the most recent producer already in the program.
      for (int c = static_cast<int>(prog->calls.size()) - 1; c >= 0; --c) {
        const SyscallDef& prev =
            lib_->syscalls()[prog->calls[static_cast<size_t>(c)].syscall_index];
        if (prev.returns_resource && *prev.returns_resource == res) {
          arg.ref_call = c;
          break;
        }
      }
      if (arg.ref_call < 0 && depth < 4) {
        // Prefer producers that do not themselves consume this resource
        // (socket/openat over accept); precomputed in Finalize().
        TypeInfo& info = InfoFor(param.type);
        if (!info.safe_producers) {
          info.safe_producers = &lib_->SafeProducersOf(res);
        }
        const std::vector<size_t>& pool = *info.safe_producers;
        if (!pool.empty()) {
          size_t producer = pool[rng_->Below(pool.size())];
          arg.ref_call = AppendCall(prog, producer, depth + 1);
        }
      }
    }
    pending_args_.push_back(arg);
  }
  prog->AddCall(syscall_index);
  prog->args.insert(prog->args.end(), pending_args_.begin() + frame,
                    pending_args_.end());
  prog->calls.back().num_args =
      static_cast<uint32_t>(pending_args_.size() - frame);
  pending_args_.resize(frame);
  const size_t index = prog->calls.size() - 1;
  LinkLens(prog, index);
  return static_cast<int>(index);
}

Prog
Generator::Generate(int max_len)
{
  Prog prog;
  Generate(max_len, &prog);
  return prog;
}

void
Generator::Generate(int max_len, Prog* out)
{
  out->Clear();
  if (lib_->syscalls().empty()) return;
  int want = 1 + static_cast<int>(rng_->Below(static_cast<uint64_t>(
                 max_len > 0 ? max_len : 1)));
  while (static_cast<int>(out->calls.size()) < want) {
    size_t idx = rng_->Below(lib_->syscalls().size());
    AppendCall(out, idx);
    if (out->calls.size() > 3 * static_cast<size_t>(want)) break;
  }
}

}  // namespace kernelgpt::fuzzer
