#include "drivers/model_runtime.h"

#include "ksrc/cparser.h"
#include "util/rng.h"
#include "vkernel/coverage.h"

namespace kernelgpt::drivers {

using vkernel::Buffer;
using vkernel::ExecContext;
using vkernel::FileHandler;
using vkernel::KernelModel;

uint64_t
BlockId(const std::string& module, const std::string& role,
        const std::string& detail, uint32_t index)
{
  uint64_t h = util::StableHash(module);
  h = util::HashCombine(h, util::StableHash(role));
  h = util::HashCombine(h, util::StableHash(detail));
  h = util::HashCombine(h, index);
  return h;
}

namespace {

/// Canonical tuple key for BlockLayout's slot map. \x1f never occurs in
/// spec identifiers, so the encoding is collision-free.
std::string
TupleKey(const std::string& role, const std::string& detail, uint32_t index)
{
  std::string key;
  key.reserve(role.size() + detail.size() + 12);
  key += role;
  key += '\x1f';
  key += detail;
  key += '\x1f';
  key += std::to_string(index);
  return key;
}

}  // namespace

BlockLayout::BlockLayout(const std::string& module)
    : module_(module), base_(util::StableHash(module))
{
}

void
BlockLayout::Assign(const std::string& role, const std::string& detail,
                    uint32_t index)
{
  auto [it, inserted] = slots_.emplace(TupleKey(role, detail, index), next_);
  (void)it;
  if (inserted) ++next_;
}

uint64_t
BlockLayout::IdOf(const std::string& role, const std::string& detail,
                  uint32_t index) const
{
  auto it = slots_.find(TupleKey(role, detail, index));
  if (it == slots_.end()) return BlockId(module_, role, detail, index);
  return vkernel::MakeBlockId(base_, it->second);
}

BlockLayout
BlockLayout::ForDevice(const DeviceSpec& dev)
{
  BlockLayout layout(dev.id);
  layout.Assign("open", "", 0);
  auto walk_handler = [&layout](const HandlerSpec& h) {
    for (const auto& cmd : h.ioctls) {
      layout.Assign("cmd", cmd.macro, 0);
      for (uint32_t i = 1; i <= cmd.checks.size(); ++i) {
        layout.Assign("check", cmd.macro, i);
      }
      for (int i = 0; i < cmd.deep_blocks; ++i) {
        layout.Assign("deep", cmd.macro, static_cast<uint32_t>(i));
      }
    }
  };
  walk_handler(dev.primary);
  for (const auto& h : dev.secondary) walk_handler(h);
  return layout;
}

BlockLayout
BlockLayout::ForSocket(const SocketSpec& sock)
{
  BlockLayout layout(sock.id);
  layout.Assign("create", "", 0);
  auto walk_cmd = [&layout](const std::string& macro, size_t checks,
                            int deep) {
    layout.Assign("cmd", macro, 0);
    for (uint32_t i = 1; i <= checks; ++i) layout.Assign("check", macro, i);
    for (int i = 0; i < deep; ++i) {
      layout.Assign("deep", macro, static_cast<uint32_t>(i));
    }
  };
  for (const auto& cmd : sock.ioctls) {
    walk_cmd(cmd.macro, cmd.checks.size(), cmd.deep_blocks);
  }
  // Mirrors SocketImage's SET_/GET_ pseudo-commands: the set pseudo
  // carries the option's checks, the get pseudo none.
  for (const auto& opt : sock.sockopts) {
    walk_cmd("SET_" + opt.macro, opt.checks.size(), opt.deep_blocks);
    walk_cmd("GET_" + opt.macro, 0, opt.deep_blocks);
  }
  auto walk_op = [&layout](const char* op, const SocketOpSpec& spec) {
    layout.Assign("op", op, 0);
    uint32_t idx = 1;
    for (const CheckSpec& check : spec.checks) {
      layout.Assign(std::string("op-check-") + op, check.field, idx++);
    }
    for (int i = 0; i < spec.deep_blocks; ++i) {
      layout.Assign(std::string("op-deep-") + op, "",
                    static_cast<uint32_t>(i));
    }
  };
  walk_op("bind", sock.bind);
  walk_op("connect", sock.connect);
  walk_op("sendto", sock.sendto);
  walk_op("recvfrom", sock.recvfrom);
  walk_op("listen", sock.listen);
  walk_op("accept", sock.accept);
  return layout;
}

namespace {

/// Reads one top-level field out of a user buffer; a field the struct
/// lacks (null `fl.field`) reads as 0.
uint64_t
ReadField(const Buffer& buf, const FieldLayout& fl)
{
  if (!fl.field) return 0;
  return buf.ReadScalar(fl.offset, fl.size > 8 ? 8 : fl.size);
}

/// The layout of `name` in `layout`, resolved once at compile time so
/// the execute path never compares field names. Empty when absent.
FieldLayout
FieldOf(const StructLayout& layout, const std::string& name)
{
  const FieldLayout* fl = layout.Find(name);
  return fl ? *fl : FieldLayout{};
}

const StructSpec*
FindStructIn(const std::vector<StructSpec>& structs, const std::string& name)
{
  if (name.empty()) return nullptr;
  for (const auto& s : structs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Small-index bit set of the command macros a file has executed
/// (sequence-bug state). Macros get dense indices at compile time, so
/// the hot path tests and sets bits, never hashing a string.
class ExecutedSet {
 public:
  bool Test(int idx) const {
    if (idx < 0) return false;
    const size_t i = static_cast<size_t>(idx);
    if (i < 64) return (lo_ & (1ULL << i)) != 0;
    const size_t w = i / 64 - 1;
    return w < hi_.size() && (hi_[w] & (1ULL << (i % 64))) != 0;
  }

  void Set(int idx) {
    if (idx < 0) return;
    const size_t i = static_cast<size_t>(idx);
    if (i < 64) {
      lo_ |= 1ULL << i;
      return;
    }
    const size_t w = i / 64 - 1;
    if (w >= hi_.size()) hi_.resize(w + 1, 0);
    hi_[w] |= 1ULL << (i % 64);
  }

 private:
  uint64_t lo_ = 0;
  std::vector<uint64_t> hi_;  ///< Overflow words for >64 macros (rare).
};

/// A validation check with its field and coverage block resolved.
struct CompiledCheck {
  const CheckSpec* spec = nullptr;
  FieldLayout field;         ///< Null `field.field`: the struct lacks it.
  uint64_t capacity = 4096;  ///< kLenBound: capacity of the counted array.
  uint64_t block = 0;
};

/// A planted bug with its trigger field resolved; `spec` is null when
/// the command has no bug.
struct CompiledBug {
  const BugSpec* spec = nullptr;
  FieldLayout field;
  int prior_idx = -1;  ///< kSequence: macro index of the prerequisite.
};

struct CmdRuntime;
/// The compiled commands of one handler (file_operations instance).
using HandlerTable = std::vector<CmdRuntime>;

/// Everything one command needs at dispatch time: the match values, the
/// arg struct's size and output fields, the resolved checks and bug, and
/// the coverage block ids.
struct CmdRuntime {
  const StructSpec* arg_spec = nullptr;
  size_t arg_size = 0;                 ///< Arg struct size (_IOC size).
  std::vector<FieldLayout> out_fields;  ///< Kernel-written kOutValue fields.
  uint64_t match_value = 0;            ///< Full ioctl command value.
  uint64_t nr = 0;                     ///< _IOC_NR, for kIocNrSwitch.
  uint64_t cmd_block = 0;
  std::vector<CompiledCheck> checks;
  CompiledBug bug;
  std::vector<uint64_t> deep_block_ids;
  int macro_idx = -1;
  /// Set when the command creates a secondary fd; `sub_handler` is that
  /// handler's table, or null when the spec names an unknown handler.
  bool creates_handler = false;
  const HandlerTable* sub_handler = nullptr;
};

/// One socket-level operation (bind/connect/...).
struct OpRuntime {
  bool supported = false;
  uint64_t op_block = 0;
  std::vector<CompiledCheck> checks;
  CompiledBug bug;
  std::vector<uint64_t> deep_block_ids;
  int macro_idx = -1;
};

/// Compile-time state of one module: its structs, its dense block
/// layout and the macro numbering shared by commands, sockopt
/// pseudo-commands, socket ops and sequence-bug priors.
class ModuleCompiler {
 public:
  ModuleCompiler(const std::vector<StructSpec>& structs, BlockLayout blocks)
      : structs_(structs), blocks_(std::move(blocks)) {}

  uint64_t Block(const std::string& role, const std::string& detail,
                 uint32_t index) const {
    return blocks_.IdOf(role, detail, index);
  }

  /// Compiles one command: an ioctl, or one of a sockopt's SET_/GET_
  /// pseudo-commands (SET_ carries the option's checks and bug, GET_
  /// neither).
  CmdRuntime Command(const std::string& macro, const std::string& arg_struct,
                     const std::vector<CheckSpec>& checks, int deep_blocks,
                     const BugSpec* bug) {
    CmdRuntime rt;
    rt.arg_spec = FindStructIn(structs_, arg_struct);
    StructLayout layout;
    if (rt.arg_spec) {
      layout = ComputeLayout(*rt.arg_spec, structs_);
      rt.arg_size = layout.total_size;
      for (const FieldLayout& fl : layout.fields) {
        if (fl.field->kind == FieldSpec::Kind::kOutValue) {
          rt.out_fields.push_back(fl);
        }
      }
    }
    rt.cmd_block = Block("cmd", macro, 0);
    for (uint32_t k = 0; k < checks.size(); ++k) {
      rt.checks.push_back(Check(checks[k], rt.arg_spec, layout,
                                Block("check", macro, k + 1)));
    }
    for (int i = 0; i < deep_blocks; ++i) {
      rt.deep_block_ids.push_back(
          Block("deep", macro, static_cast<uint32_t>(i)));
    }
    rt.macro_idx = Macro(macro);
    rt.bug = Bug(bug, layout);
    return rt;
  }

  CmdRuntime Command(const IoctlSpec& cmd) {
    CmdRuntime rt = Command(cmd.macro, cmd.arg_struct, cmd.checks,
                            cmd.deep_blocks, cmd.bug ? &*cmd.bug : nullptr);
    rt.nr = cmd.nr;
    rt.creates_handler = !cmd.creates_handler.empty();
    return rt;
  }

  /// Compiles a socket op; its checks and field triggers read `addr`.
  OpRuntime Op(const char* op, const SocketOpSpec& spec,
               const StructSpec* addr, const StructLayout& addr_layout) {
    OpRuntime rt;
    rt.supported = spec.supported;
    rt.op_block = Block("op", op, 0);
    uint32_t idx = 1;
    for (const CheckSpec& check : spec.checks) {
      rt.checks.push_back(
          Check(check, addr, addr_layout,
                Block(std::string("op-check-") + op, check.field, idx++)));
    }
    for (int i = 0; i < spec.deep_blocks; ++i) {
      rt.deep_block_ids.push_back(Block(std::string("op-deep-") + op, "",
                                        static_cast<uint32_t>(i)));
    }
    rt.macro_idx = Macro(op);
    rt.bug = Bug(spec.bug ? &*spec.bug : nullptr, addr_layout);
    return rt;
  }

 private:
  int Macro(const std::string& name) {
    return macros_.emplace(name, static_cast<int>(macros_.size()))
        .first->second;
  }

  static CompiledCheck Check(const CheckSpec& check, const StructSpec* arg,
                             const StructLayout& layout, uint64_t block) {
    CompiledCheck out;
    out.spec = &check;
    out.field = FieldOf(layout, check.field);
    out.block = block;
    if (check.kind == CheckSpec::Kind::kLenBound && arg) {
      if (const FieldSpec* len_field = arg->FindField(check.field)) {
        const FieldSpec* target = arg->FindField(len_field->len_of);
        if (target && target->array_len > 0) out.capacity = target->array_len;
      }
    }
    return out;
  }

  CompiledBug Bug(const BugSpec* bug, const StructLayout& layout) {
    CompiledBug out;
    if (!bug) return out;
    out.spec = bug;
    out.field = FieldOf(layout, bug->field);
    if (bug->trigger == BugSpec::Trigger::kSequence) {
      out.prior_idx = Macro(bug->prior_cmd);
    }
    return out;
  }

  const std::vector<StructSpec>& structs_;
  BlockLayout blocks_;
  std::unordered_map<std::string, int> macros_;
};

/// Evaluates a validation check against the user buffer.
bool
CheckPasses(const CompiledCheck& check, const Buffer& buf)
{
  const uint64_t raw = ReadField(buf, check.field);
  switch (check.spec->kind) {
    case CheckSpec::Kind::kRange: {
      int64_t v = static_cast<int64_t>(raw);
      return v >= check.spec->min && v <= check.spec->max;
    }
    case CheckSpec::Kind::kEquals:
      return raw == check.spec->value;
    case CheckSpec::Kind::kNonZero:
      return raw != 0;
    case CheckSpec::Kind::kLenBound:
      return raw <= check.capacity;
  }
  return false;
}

/// Mutable state of one open device file or socket.
struct FileState {
  uint64_t next_out = 0;  ///< Counter behind kernel-written out fields.
  ExecutedSet executed;   ///< Macros already run (sequence-bug state).
  /// Title of an armed kOnRelease bug; fires when the file is released.
  const std::string* release_title = nullptr;
};

/// Evaluates a bug at the top of the deep path, where the rendered
/// source places its trigger. `arg` is null when the command has no
/// struct argument, so field triggers cannot fire.
void
TriggerBug(const CompiledBug& bug, const Buffer* arg, FileState* state,
           ExecContext& ctx)
{
  if (!bug.spec) return;
  const BugSpec& spec = *bug.spec;
  bool fire = false;
  switch (spec.trigger) {
    case BugSpec::Trigger::kFieldAtLeast:
      fire = arg && ReadField(*arg, bug.field) >= spec.value;
      break;
    case BugSpec::Trigger::kFieldEquals:
      fire = arg && ReadField(*arg, bug.field) == spec.value;
      break;
    case BugSpec::Trigger::kFieldZero:
      fire = arg && ReadField(*arg, bug.field) == 0;
      break;
    case BugSpec::Trigger::kSequence:
      fire = state->executed.Test(bug.prior_idx);
      break;
    case BugSpec::Trigger::kOnRelease:
      state->release_title = &spec.title;
      break;
    case BugSpec::Trigger::kAlways:
      fire = true;
      break;
  }
  if (fire) ctx.Crash(spec.title);
}

/// Runs checks, bug triggers, deep path, and out-field writes for one
/// matched command. Returns 0 or negative errno.
long
RunCommand(const CmdRuntime& rt, Buffer* arg, ExecContext& ctx,
           FileState* state)
{
  ctx.Cover(rt.cmd_block);
  if (rt.arg_spec) {
    // copy_from_user fails when the user buffer is too small.
    if (!arg || arg->size() < rt.arg_size) return -vkernel::kEFAULT;
    for (const CompiledCheck& check : rt.checks) {
      if (!CheckPasses(check, *arg)) return -vkernel::kEINVAL;
      ctx.Cover(check.block);
    }
  }
  TriggerBug(rt.bug, rt.arg_spec ? arg : nullptr, state, ctx);
  for (uint64_t block : rt.deep_block_ids) ctx.Cover(block);
  if (rt.arg_spec && arg) {
    for (const FieldLayout& fl : rt.out_fields) {
      arg->WriteScalar(fl.offset, fl.size > 8 ? 8 : fl.size,
                       0x1000 + state->next_out++);
    }
  }
  state->executed.Set(rt.macro_idx);
  return 0;
}

/// Free-list of pooled per-open handler objects. The fuzzing hot path
/// opens and closes device files millions of times; pooling reuses both
/// the handler object and its shared_ptr control block, so a
/// steady-state open costs zero allocations. Each ModelDevice and
/// ModelSocketFamily owns one pool — per kernel, never in the shared
/// image; the vkernel returns handlers through the HandlerRecycler hook
/// when their last descriptor drops. Kernels are single-threaded, so no
/// locking.
class HandlerPool : public vkernel::HandlerRecycler {
 public:
  void Recycle(std::shared_ptr<FileHandler> handler) override {
    free_.push_back(std::move(handler));
  }

  /// Pops a pooled handler; nullptr when the pool is empty. The caller
  /// must fully re-initialize it before reissuing.
  std::shared_ptr<FileHandler> Take() {
    if (free_.empty()) return nullptr;
    std::shared_ptr<FileHandler> handler = std::move(free_.back());
    free_.pop_back();
    return handler;
  }

 private:
  std::vector<std::shared_ptr<FileHandler>> free_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Device side
// ---------------------------------------------------------------------------

/// Immutable compiled runtime of one device spec. Commands and files
/// hold pointers into it, so it can neither be copied nor moved.
struct DeviceImage {
  explicit DeviceImage(const DeviceSpec& spec);
  DeviceImage(const DeviceImage&) = delete;
  DeviceImage& operator=(const DeviceImage&) = delete;

  const DeviceSpec* dev;
  uint64_t open_block = 0;
  /// Command tables: the primary handler first, then each secondary
  /// handler in spec order.
  std::vector<HandlerTable> handlers;
};

DeviceImage::DeviceImage(const DeviceSpec& spec) : dev(&spec)
{
  ModuleCompiler compiler(spec.structs, BlockLayout::ForDevice(spec));
  open_block = compiler.Block("open", "", 0);
  std::vector<const HandlerSpec*> specs = {&spec.primary};
  for (const HandlerSpec& h : spec.secondary) specs.push_back(&h);
  handlers.resize(specs.size());
  for (size_t h = 0; h < specs.size(); ++h) {
    for (const IoctlSpec& cmd : specs[h]->ioctls) {
      handlers[h].push_back(compiler.Command(cmd));
      handlers[h].back().match_value = FullCommandValue(spec, cmd);
    }
  }
  // `handlers` is complete, so pointers into it are now stable.
  for (size_t h = 0; h < specs.size(); ++h) {
    for (size_t i = 0; i < handlers[h].size(); ++i) {
      const std::string& name = specs[h]->ioctls[i].creates_handler;
      if (name.empty()) continue;
      const HandlerSpec* target = spec.FindHandler(name);
      for (size_t sub = 0; sub < specs.size(); ++sub) {
        if (specs[sub] == target) handlers[h][i].sub_handler = &handlers[sub];
      }
    }
  }
}

std::shared_ptr<const DeviceImage>
CompileDevice(const DeviceSpec& dev)
{
  return std::make_shared<DeviceImage>(dev);
}

namespace {

class ModelFile : public FileHandler {
 public:
  ModelFile(const DeviceImage* image, HandlerPool* pool,
            const HandlerTable* cmds)
      : image_(image), pool_(pool), cmds_(cmds) {
    set_recycler(pool);
  }

  /// Restores freshly-opened state on a pooled object (same observable
  /// behaviour as constructing a new ModelFile for `cmds`).
  void Reset(const HandlerTable* cmds) {
    cmds_ = cmds;
    state_ = FileState();
  }

  long Ioctl(uint64_t cmd_value, Buffer* arg, KernelModel& kernel) override {
    const CmdRuntime* match = MatchCommand(cmd_value);
    if (!match) return -vkernel::kENOTTY;

    // The rendered _IOC_NR dispatcher validates the size bits of the
    // full command; a bare nr value (SyzDescribe's wrong inference)
    // fails.
    if (image_->dev->dispatch == DispatchStyle::kIocNrSwitch &&
        ksrc::IocSize(cmd_value) < match->arg_size) {
      return -vkernel::kEINVAL;
    }

    long rc = RunCommand(*match, arg, kernel.context(), &state_);
    if (rc != 0 || !match->creates_handler) return rc;
    if (!match->sub_handler) return -vkernel::kEINVAL;
    return kernel.InstallFile(Acquire(image_, pool_, match->sub_handler));
  }

  void Release(KernelModel& kernel) override {
    if (state_.release_title) kernel.context().Crash(*state_.release_title);
  }

  /// Pool-aware construction: reuses a recycled file when one is
  /// available, otherwise allocates one tagged with the pool.
  static std::shared_ptr<FileHandler> Acquire(const DeviceImage* image,
                                              HandlerPool* pool,
                                              const HandlerTable* cmds) {
    if (std::shared_ptr<FileHandler> pooled = pool->Take()) {
      static_cast<ModelFile*>(pooled.get())->Reset(cmds);
      return pooled;
    }
    return std::make_shared<ModelFile>(image, pool, cmds);
  }

 private:
  const CmdRuntime* MatchCommand(uint64_t cmd_value) const {
    const bool by_nr = image_->dev->dispatch == DispatchStyle::kIocNrSwitch;
    const uint64_t key = by_nr ? ksrc::IocNr(cmd_value) : cmd_value;
    for (const CmdRuntime& rt : *cmds_) {
      if ((by_nr ? rt.nr : rt.match_value) == key) return &rt;
    }
    return nullptr;
  }

  const DeviceImage* image_;
  HandlerPool* pool_;
  const HandlerTable* cmds_;
  FileState state_;
};

/// Per-kernel device instance: a shared image plus this kernel's pool.
class ModelDevice : public vkernel::DeviceDriver {
 public:
  explicit ModelDevice(std::shared_ptr<const DeviceImage> image)
      : image_(std::move(image)) {}

  std::string Name() const override { return image_->dev->id; }
  std::string NodePath() const override { return image_->dev->dev_node; }

  std::shared_ptr<FileHandler> Open(KernelModel& kernel,
                                    long* err) override {
    (void)err;
    kernel.context().Cover(image_->open_block);
    return ModelFile::Acquire(image_.get(), &pool_, &image_->handlers[0]);
  }

 private:
  std::shared_ptr<const DeviceImage> image_;
  HandlerPool pool_;
};

/// One setsockopt/getsockopt option with its compiled pseudo-commands.
struct SockOptRuntime {
  const SockOptSpec* opt = nullptr;
  CmdRuntime set_rt;
  CmdRuntime get_rt;  ///< Its arg_size is the kernel-filled buffer size.
};

uint64_t
SocketCommandValue(const IoctlSpec& cmd, uint64_t size)
{
  char r = (cmd.ioc_dir == 'r' || cmd.ioc_dir == 'b') ? 'r' : '-';
  char w = (cmd.ioc_dir == 'w' || cmd.ioc_dir == 'b') ? 'w' : '-';
  if (cmd.ioc_dir == 'n') size = 0;
  return ksrc::IoctlNumber(r, w, 0x89, cmd.nr, size);  // SIOC family.
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket side
// ---------------------------------------------------------------------------

/// Immutable compiled runtime of one socket-family spec (see DeviceImage).
struct SocketImage {
  explicit SocketImage(const SocketSpec& spec);
  SocketImage(const SocketImage&) = delete;
  SocketImage& operator=(const SocketImage&) = delete;

  const SocketSpec* sock;
  uint64_t create_block = 0;
  std::vector<CmdRuntime> ioctls;
  std::vector<SockOptRuntime> sockopts;
  const StructSpec* addr_spec = nullptr;
  size_t addr_size = 0;
  OpRuntime bind, connect, sendto, recvfrom, listen, accept;
};

SocketImage::SocketImage(const SocketSpec& spec) : sock(&spec)
{
  ModuleCompiler compiler(spec.structs, BlockLayout::ForSocket(spec));
  create_block = compiler.Block("create", "", 0);
  for (const IoctlSpec& cmd : spec.ioctls) {
    ioctls.push_back(compiler.Command(cmd));
    ioctls.back().match_value =
        SocketCommandValue(cmd, ioctls.back().arg_size);
  }
  for (const SockOptSpec& opt : spec.sockopts) {
    SockOptRuntime so;
    so.opt = &opt;
    so.set_rt = compiler.Command("SET_" + opt.macro, opt.arg_struct,
                                 opt.checks, opt.deep_blocks,
                                 opt.bug ? &*opt.bug : nullptr);
    so.get_rt = compiler.Command("GET_" + opt.macro, opt.arg_struct, {},
                                 opt.deep_blocks, nullptr);
    sockopts.push_back(std::move(so));
  }

  StructLayout addr_layout;
  addr_spec = FindStructIn(spec.structs, spec.addr_struct);
  if (addr_spec) {
    addr_layout = ComputeLayout(*addr_spec, spec.structs);
    addr_size = addr_layout.total_size;
  }
  bind = compiler.Op("bind", spec.bind, addr_spec, addr_layout);
  connect = compiler.Op("connect", spec.connect, addr_spec, addr_layout);
  sendto = compiler.Op("sendto", spec.sendto, addr_spec, addr_layout);
  recvfrom = compiler.Op("recvfrom", spec.recvfrom, addr_spec, addr_layout);
  listen = compiler.Op("listen", spec.listen, addr_spec, addr_layout);
  accept = compiler.Op("accept", spec.accept, addr_spec, addr_layout);
}

std::shared_ptr<const SocketImage>
CompileSocket(const SocketSpec& sock)
{
  return std::make_shared<SocketImage>(sock);
}

namespace {

class ModelSocket : public vkernel::SocketHandler {
 public:
  explicit ModelSocket(const SocketImage* image) : image_(image) {}

  /// Restores freshly-created state on a pooled object.
  void Reset() { state_ = FileState(); }

  long SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                  KernelModel& kernel) override {
    if (level != image_->sock->sol_level) return -vkernel::kENOPROTOOPT;
    for (const SockOptRuntime& so : image_->sockopts) {
      if (!so.opt->settable || so.opt->value != optname) continue;
      Buffer copy = val;  // Views copy cheaply; writes materialize.
      return RunCommand(so.set_rt, &copy, kernel.context(), &state_);
    }
    return -vkernel::kENOPROTOOPT;
  }

  long GetSockOpt(uint64_t level, uint64_t optname, Buffer* val,
                  KernelModel& kernel) override {
    if (level != image_->sock->sol_level) return -vkernel::kENOPROTOOPT;
    for (const SockOptRuntime& so : image_->sockopts) {
      if (!so.opt->gettable || so.opt->value != optname) continue;
      // get path: kernel fills the buffer; size it to the struct.
      if (val && val->size() < so.get_rt.arg_size) {
        val->Resize(so.get_rt.arg_size);
      }
      return RunCommand(so.get_rt, val, kernel.context(), &state_);
    }
    return -vkernel::kENOPROTOOPT;
  }

  long Ioctl(uint64_t cmd_value, Buffer* arg, KernelModel& kernel) override {
    for (const CmdRuntime& rt : image_->ioctls) {
      if (rt.match_value == cmd_value) {
        return RunCommand(rt, arg, kernel.context(), &state_);
      }
    }
    return -vkernel::kENOTTY;
  }

  long Bind(const Buffer& addr, KernelModel& kernel) override {
    return RunOp(image_->bind, addr, kernel.context());
  }

  long Connect(const Buffer& addr, KernelModel& kernel) override {
    return RunOp(image_->connect, addr, kernel.context());
  }

  long SendTo(const Buffer& data, const Buffer& addr,
              KernelModel& kernel) override {
    (void)data;
    return RunOp(image_->sendto, addr, kernel.context());
  }

  long RecvFrom(Buffer* data, KernelModel& kernel) override {
    if (data) data->Resize(64);
    return RunOp(image_->recvfrom, Buffer(), kernel.context());
  }

  long Listen(KernelModel& kernel) override {
    return RunOp(image_->listen, Buffer(), kernel.context());
  }

  long Accept(KernelModel& kernel) override {
    return RunOp(image_->accept, Buffer(), kernel.context());
  }

  void Release(KernelModel& kernel) override {
    if (state_.release_title) kernel.context().Crash(*state_.release_title);
  }

 private:
  long RunOp(const OpRuntime& rt, const Buffer& addr, ExecContext& ctx) {
    if (!rt.supported) return -vkernel::kEOPNOTSUPP;
    ctx.Cover(rt.op_block);
    const bool has_addr = image_->addr_spec != nullptr;
    if (has_addr && !rt.checks.empty()) {
      if (addr.size() < image_->addr_size) return -vkernel::kEFAULT;
      for (const CompiledCheck& check : rt.checks) {
        if (!CheckPasses(check, addr)) return -vkernel::kEINVAL;
        ctx.Cover(check.block);
      }
    }
    TriggerBug(rt.bug, has_addr ? &addr : nullptr, &state_, ctx);
    for (uint64_t block : rt.deep_block_ids) ctx.Cover(block);
    state_.executed.Set(rt.macro_idx);
    return 0;
  }

  const SocketImage* image_;
  FileState state_;
};

/// Per-kernel socket-family instance: a shared image plus this kernel's
/// pool.
class ModelSocketFamily : public vkernel::SocketFamily {
 public:
  explicit ModelSocketFamily(std::shared_ptr<const SocketImage> image)
      : image_(std::move(image)) {}

  std::string Name() const override { return image_->sock->id; }
  uint64_t Domain() const override { return image_->sock->domain; }

  std::shared_ptr<vkernel::SocketHandler> Create(uint64_t type,
                                                 uint64_t protocol,
                                                 KernelModel& kernel,
                                                 long* err) override {
    const SocketSpec& spec = *image_->sock;
    if ((spec.sock_type != 0 && type != spec.sock_type) ||
        (spec.protocol != 0 && protocol != spec.protocol)) {
      *err = -vkernel::kEINVAL;
      return nullptr;
    }
    kernel.context().Cover(image_->create_block);
    if (std::shared_ptr<FileHandler> pooled = pool_.Take()) {
      auto* sock = static_cast<ModelSocket*>(pooled.get());
      sock->Reset();
      return std::shared_ptr<vkernel::SocketHandler>(std::move(pooled),
                                                     sock);
    }
    auto sock = std::make_shared<ModelSocket>(image_.get());
    sock->set_recycler(&pool_);
    return sock;
  }

 private:
  std::shared_ptr<const SocketImage> image_;
  HandlerPool pool_;
};

}  // namespace

std::unique_ptr<vkernel::DeviceDriver>
MakeModelDevice(std::shared_ptr<const DeviceImage> image)
{
  return std::make_unique<ModelDevice>(std::move(image));
}

std::unique_ptr<vkernel::SocketFamily>
MakeModelSocketFamily(std::shared_ptr<const SocketImage> image)
{
  return std::make_unique<ModelSocketFamily>(std::move(image));
}

}  // namespace kernelgpt::drivers
