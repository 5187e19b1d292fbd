/// \file
/// Runtime interpretation of driver/socket models: compiles a DeviceSpec
/// or SocketSpec into an immutable image, then instantiates live vkernel
/// drivers over it, one cheap instance per kernel boot. The interpreter
/// enforces exactly the validation logic the rendered source describes
/// (same command matching, same copy sizes, same checks, same bugs), so
/// source analysis and runtime behaviour cannot diverge.

#ifndef KERNELGPT_DRIVERS_MODEL_RUNTIME_H_
#define KERNELGPT_DRIVERS_MODEL_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "drivers/driver_model.h"
#include "vkernel/model.h"

namespace kernelgpt::drivers {

/// Legacy hash-scattered coverage block id for a (module, role, detail,
/// index) tuple. Every component is hashed, so one module's blocks land
/// on unrelated coverage pages. Kept as the fallback for tuples outside
/// any spec's BlockLayout; new code should resolve ids through a layout.
uint64_t BlockId(const std::string& module, const std::string& role,
                 const std::string& detail, uint32_t index);

/// Dense per-module block-id layout (PR 9). Walks a spec in the
/// canonical runtime-build order, assigning each (role, detail, index)
/// tuple a sequential local index, so a module's blocks pack into
/// contiguous `MakeBlockId` coverage pages — the layout the two-level
/// bitmap was designed for. The runtime and the experiment harness both
/// resolve ids through the same layout, so they cannot diverge; the walk
/// is pure spec order, so ids are stable across runs and processes and
/// the determinism suites keep byte-identical reports.
class BlockLayout {
 public:
  BlockLayout() = default;

  /// Layout of a device spec: open block, then each handler's commands
  /// (dispatch, checks, deep path) in declaration order.
  static BlockLayout ForDevice(const DeviceSpec& dev);

  /// Layout of a socket spec: create block, ioctls, sockopt
  /// pseudo-commands (set then get), then the socket-level ops.
  static BlockLayout ForSocket(const SocketSpec& sock);

  /// Dense id of a (role, detail, index) tuple. Tuples the spec walk
  /// never assigned fall back to the legacy hash-scattered BlockId.
  uint64_t IdOf(const std::string& role, const std::string& detail,
                uint32_t index) const;

  /// Appends one tuple after the canonical walk, for runtimes with
  /// behaviour beyond the declarative spec (the vnet stack claims its
  /// TCP state transitions this way). Call order defines the local
  /// index, so extenders must claim tuples in one fixed order.
  void Extend(const std::string& role, const std::string& detail,
              uint32_t index) {
    Assign(role, detail, index);
  }

  /// Number of distinct blocks the module can produce.
  size_t BlockCount() const { return next_; }

 private:
  explicit BlockLayout(const std::string& module);

  /// Records the next walk tuple (first assignment wins, matching the
  /// legacy hash semantics where identical tuples shared one id).
  void Assign(const std::string& role, const std::string& detail,
              uint32_t index);

  std::string module_;
  uint64_t base_ = 0;  ///< StableHash(module): the MakeBlockId namespace.
  std::unordered_map<std::string, uint32_t> slots_;
  uint32_t next_ = 0;
};

/// Immutable compiled runtime of one device or socket-family spec: its
/// command tables, struct layouts with every check and bug field
/// resolved, match values, macro numbering and dense block ids. Built
/// once per process and shared, read-only, by every kernel on every
/// thread; each kernel's instance adds only mutable state (its handler
/// pool, and per-file state in the handlers it issues).
struct DeviceImage;
struct SocketImage;

/// Compiles `dev` into its image. The spec must outlive the image
/// (corpus specs live in the process-wide registry).
std::shared_ptr<const DeviceImage> CompileDevice(const DeviceSpec& dev);

/// Compiles `sock` into its image; the spec must outlive it.
std::shared_ptr<const SocketImage> CompileSocket(const SocketSpec& sock);

/// Creates a per-kernel virtual-kernel driver over a compiled image.
std::unique_ptr<vkernel::DeviceDriver> MakeModelDevice(
    std::shared_ptr<const DeviceImage> image);

/// Creates a per-kernel socket family over a compiled image.
std::unique_ptr<vkernel::SocketFamily> MakeModelSocketFamily(
    std::shared_ptr<const SocketImage> image);

}  // namespace kernelgpt::drivers

#endif  // KERNELGPT_DRIVERS_MODEL_RUNTIME_H_
