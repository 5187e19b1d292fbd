/// \file
/// Specification-guided program generation: chooses syscalls, satisfies
/// their resource dependencies by inserting producer calls, and builds
/// semantically valid arguments from the spec types (honoring const
/// values, ranges, flag sets, string literals, and len relations).

#ifndef KERNELGPT_FUZZER_GENERATOR_H_
#define KERNELGPT_FUZZER_GENERATOR_H_

#include <unordered_map>

#include "fuzzer/prog.h"
#include "util/rng.h"

namespace kernelgpt::fuzzer {

/// Program generator bound to one spec library.
class Generator {
 public:
  Generator(const SpecLibrary* lib, util::Rng* rng);

  /// Generates a program with up to `max_len` calls (resource producer
  /// chains may push slightly beyond).
  Prog Generate(int max_len);

  /// Generate() into `out`, reusing its capacity.
  void Generate(int max_len, Prog* out);

  /// Builds one argument for a parameter type, appending any payload to
  /// `prog`'s arena; resource params get `ref_call` = -1 and must be
  /// fixed up by the caller.
  Arg BuildArg(const syzlang::Type& type, Prog* prog);

  /// Appends the byte payload for a pointee type (struct/array/string)
  /// to `out`.
  void BuildPayload(const syzlang::Type& type, std::vector<uint8_t>* out);

  /// Appends `syscall_index` to the program, inserting any producer calls
  /// its resource parameters need. Returns the index of the appended call.
  int AppendCall(Prog* prog, size_t syscall_index, int depth = 0);

  /// Resolves call `call`'s len[...] parameters after all its args exist.
  void LinkLens(Prog* prog, size_t call);

  /// Random scalar for an int type, biased toward special values.
  uint64_t ScalarFor(const syzlang::Type& type);

 private:
  /// Per-Type resolutions of the name-keyed library lookups (constant
  /// values, flag sets, struct defs, packed sizes). Spec types are
  /// stable after SpecLibrary::Finalize(), so they are cached by address
  /// the first time a type is generated and hit thereafter — the
  /// generator's hot path stops hashing strings.
  struct TypeInfo {
    bool const_known = false;
    uint64_t const_value = 0;
    bool flags_known = false;
    std::vector<uint64_t> flag_values;
    bool struct_known = false;
    const syzlang::StructDef* struct_def = nullptr;
    bool is_resource_ref = false;
    bool size_known = false;
    size_t type_size = 0;
    /// kStructRef: per field, the index of the field a len/bytesize
    /// field measures (kLenOfParent for "parent", -1 when no composite
    /// field has that name); resolved on first use.
    bool len_targets_known = false;
    std::vector<int> len_targets;
    /// Resource params: SafeProducersOf(ref_name), resolved on first use.
    const std::vector<size_t>* safe_producers = nullptr;
  };
  static constexpr int kLenOfParent = -2;

  /// Flat-array lookup via the slot Finalize() stamped on the type;
  /// types from outside a finalized library fall back to a pointer map.
  /// slots_ is pre-sized in the constructor so a held TypeInfo& stays
  /// valid across recursive generation calls. If the library is
  /// re-Finalize()d behind this generator, slot ids are reassigned, so
  /// every cached entry is discarded before serving the new numbering.
  TypeInfo& InfoFor(const syzlang::Type& type) {
    const int slot = type.cache_slot;
    if (slot < 0) return fallback_cache_[&type];
    if (lib_->TypeSlotCount() != slots_.size()) {
      slots_.assign(lib_->TypeSlotCount(), TypeInfo());
      fallback_cache_.clear();
    }
    if (static_cast<size_t>(slot) >= slots_.size()) {
      return fallback_cache_[&type];
    }
    return slots_[static_cast<size_t>(slot)];
  }

  /// InfoFor() with the kStructRef fields (struct def, resource-ness)
  /// resolved — the shared lazy-init for BuildArg and BuildPayload.
  TypeInfo& StructInfoFor(const syzlang::Type& type);

  /// The TypeInfo::len_targets of struct `type` (whose definition is
  /// `def`), resolved on first use.
  const std::vector<int>& LenTargetsFor(const syzlang::Type& type,
                                        const syzlang::StructDef& def);

  size_t CachedTypeSize(const syzlang::Type& type);

  const SpecLibrary* lib_;
  util::Rng* rng_;
  std::vector<TypeInfo> slots_;
  std::unordered_map<const syzlang::Type*, TypeInfo> fallback_cache_;
  /// Stacks shared by the recursive builders, each frame popped on
  /// return, so warm generation allocates nothing: the args of calls
  /// whose producer calls are still being appended, and per struct field
  /// a len field's offset or a composite field's generated byte size.
  std::vector<Arg> pending_args_;
  std::vector<size_t> field_scratch_;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_GENERATOR_H_
