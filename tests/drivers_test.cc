// Tests for the driver-model layer: layout computation, source rendering,
// ground-truth specs, runtime behaviour, and corpus-wide consistency
// properties (parameterized over every module in the corpus).

#include <gtest/gtest.h>

#include "drivers/corpus.h"
#include "drivers/model_render.h"
#include "drivers/model_runtime.h"
#include "drivers/model_spec.h"
#include "ksrc/cparser.h"
#include "syzlang/printer.h"
#include "syzlang/validator.h"
#include "vkernel/kernel.h"

namespace kernelgpt::drivers {
namespace {

const DeviceSpec&
Dm()
{
  const DeviceSpec* dev = Corpus::Instance().FindDevice("dm");
  EXPECT_NE(dev, nullptr);
  return *dev;
}

TEST(LayoutTest, PackedOffsets)
{
  StructSpec s;
  s.name = "t";
  s.fields = {
      FieldSpec::Scalar("a", 32),
      FieldSpec::Scalar("b", 64),
      FieldSpec::Array("c", 16, 4),
      FieldSpec::CString("d", 8),
  };
  StructLayout layout = ComputeLayout(s, {s});
  EXPECT_EQ(layout.total_size, 4u + 8u + 8u + 8u);
  EXPECT_EQ(layout.Find("b")->offset, 4u);
  EXPECT_EQ(layout.Find("c")->offset, 12u);
  EXPECT_EQ(layout.Find("d")->offset, 20u);
}

TEST(LayoutTest, UnionUsesMaxArm)
{
  StructSpec u;
  u.name = "u";
  u.is_union = true;
  u.fields = {
      FieldSpec::Scalar("a", 32),
      FieldSpec::Array("b", 8, 16),
  };
  StructLayout layout = ComputeLayout(u, {u});
  EXPECT_EQ(layout.total_size, 16u);
  EXPECT_EQ(layout.Find("b")->offset, 0u);
}

TEST(LayoutTest, NestedStructSize)
{
  StructSpec inner;
  inner.name = "inner";
  inner.fields = {FieldSpec::Scalar("x", 64)};
  StructSpec outer;
  outer.name = "outer";
  outer.fields = {FieldSpec::Struct("i", "inner"), FieldSpec::Scalar("y", 32)};
  std::vector<StructSpec> all = {inner, outer};
  EXPECT_EQ(StructByteSize("outer", all), 12u);
}

TEST(CommandValueTest, EncodesMagicNrSize)
{
  const DeviceSpec& dm = Dm();
  const IoctlSpec& list = dm.primary.ioctls[2];
  ASSERT_EQ(list.macro, "DM_LIST_DEVICES");
  uint64_t v = FullCommandValue(dm, list);
  EXPECT_EQ(ksrc::IocNr(v), list.nr);
  EXPECT_EQ(ksrc::IocType(v), dm.magic);
  EXPECT_EQ(ksrc::IocSize(v), StructByteSize("dm_ioctl", dm.structs));
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(RenderTest, DmSourceShowsPaperIdioms)
{
  std::string src = RenderDeviceSource(Dm());
  // The .nodename idiom from Fig. 2.
  EXPECT_NE(src.find(".nodename = DM_DIR \"/\" DM_NODE"), std::string::npos);
  // The command-modification idiom.
  EXPECT_NE(src.find("cmd = _IOC_NR(command);"), std::string::npos);
  // Delegation: registered handler forwards to the dispatcher.
  EXPECT_NE(src.find("return dm_ctl_do_ioctl(file, command, u);"),
            std::string::npos);
  // Field comments survive rendering.
  EXPECT_NE(src.find("total size of data passed in"), std::string::npos);
}

TEST(RenderTest, RenderedSourceParsesCleanly)
{
  std::string src = RenderDeviceSource(Dm());
  ksrc::CFile file = ksrc::CParse(src, "dm.c");
  EXPECT_TRUE(file.diagnostics.empty())
      << (file.diagnostics.empty() ? "" : file.diagnostics[0]);
  EXPECT_NE(file.FindStruct("dm_ioctl"), nullptr);
  EXPECT_NE(file.FindVar("_dm_misc"), nullptr);
}

TEST(RenderTest, TableLookupStyleRendersTable)
{
  const DeviceSpec* ubi = Corpus::Instance().FindDevice("ubi");
  ASSERT_NE(ubi, nullptr);
  std::string src = RenderDeviceSource(*ubi);
  EXPECT_NE(src.find("ubi_lookup_ioctl"), std::string::npos);
  EXPECT_NE(src.find("_ubi_ctl_ioctls[]"), std::string::npos);
}

TEST(RenderTest, SecondaryHandlerUsesAnonInode)
{
  const DeviceSpec* kvm = Corpus::Instance().FindDevice("kvm");
  ASSERT_NE(kvm, nullptr);
  std::string src = RenderDeviceSource(*kvm);
  EXPECT_NE(src.find("anon_inode_getfd"), std::string::npos);
  EXPECT_NE(src.find("_kvm_vm_fops"), std::string::npos);
  EXPECT_NE(src.find("_kvm_vcpu_fops"), std::string::npos);
}

TEST(RenderTest, SocketSourceHasProtoOps)
{
  const SocketSpec* rds = Corpus::Instance().FindSocket("rds");
  ASSERT_NE(rds, nullptr);
  std::string src = RenderSocketSource(*rds);
  EXPECT_NE(src.find("rds_proto_ops"), std::string::npos);
  EXPECT_NE(src.find(".family = AF_RDS"), std::string::npos);
  EXPECT_NE(src.find("rds_setsockopt"), std::string::npos);
  EXPECT_NE(src.find("case RDS_RECVERR"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ground truth specs
// ---------------------------------------------------------------------------

TEST(GroundTruthTest, DmSpecShape)
{
  syzlang::SpecFile spec = GroundTruthDeviceSpec(Dm());
  EXPECT_NE(spec.FindSyscall("openat$dm"), nullptr);
  EXPECT_NE(spec.FindSyscall("ioctl$DM_LIST_DEVICES"), nullptr);
  EXPECT_NE(spec.FindStruct("dm_ioctl"), nullptr);
  EXPECT_NE(spec.FindResource("fd_dm"), nullptr);
  // 1 openat + 8 ioctls.
  EXPECT_EQ(spec.Syscalls().size(), 9u);
}

TEST(GroundTruthTest, KvmDependenciesExpressed)
{
  const DeviceSpec* kvm = Corpus::Instance().FindDevice("kvm");
  syzlang::SpecFile spec = GroundTruthDeviceSpec(*kvm);
  const syzlang::SyscallDef* create = spec.FindSyscall("ioctl$KVM_CREATE_VM");
  ASSERT_NE(create, nullptr);
  ASSERT_TRUE(create->returns_resource.has_value());
  EXPECT_EQ(*create->returns_resource, "fd_kvm_vm");
  const syzlang::SyscallDef* vcpu =
      spec.FindSyscall("ioctl$KVM_SET_USER_MEMORY_REGION");
  ASSERT_NE(vcpu, nullptr);
  EXPECT_EQ(vcpu->params[0].type.ref_name, "fd_kvm_vm");
}

TEST(GroundTruthTest, ExistingSubsetRespectsFraction)
{
  const DeviceSpec* hpet = Corpus::Instance().FindDevice("hpet");
  ASSERT_NE(hpet, nullptr);
  syzlang::SpecFile existing = ExistingDeviceSpec(*hpet);
  syzlang::SpecFile full = GroundTruthDeviceSpec(*hpet);
  EXPECT_LT(existing.Syscalls().size(), full.Syscalls().size());
  EXPECT_GE(existing.Syscalls().size(), 2u);  // openat + >= 1 ioctl.
}

TEST(GroundTruthTest, UndescribedDriverHasEmptyExisting)
{
  syzlang::SpecFile existing = ExistingDeviceSpec(Dm());
  EXPECT_EQ(existing.Syscalls().size(), 0u);
}

TEST(GroundTruthTest, SocketSpecShape)
{
  const SocketSpec* rds = Corpus::Instance().FindSocket("rds");
  syzlang::SpecFile spec = GroundTruthSocketSpec(*rds);
  EXPECT_NE(spec.FindSyscall("socket$rds"), nullptr);
  EXPECT_NE(spec.FindSyscall("setsockopt$rds_RDS_RECVERR"), nullptr);
  EXPECT_NE(spec.FindSyscall("sendto$rds"), nullptr);
  EXPECT_NE(spec.FindResource("sock_rds"), nullptr);
}

TEST(GroundTruthTest, RdsExistingSubsetLacksSendto)
{
  // The Table 4 setup: Syzkaller's RDS spec omits sendto.
  const SocketSpec* rds = Corpus::Instance().FindSocket("rds");
  syzlang::SpecFile existing = ExistingSocketSpec(*rds);
  EXPECT_EQ(existing.FindSyscall("sendto$rds"), nullptr);
  EXPECT_NE(existing.FindSyscall("socket$rds"), nullptr);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

class DmRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_.RegisterDevice(MakeModelDevice(CompileDevice(Dm())));
    kernel_.BeginProgram();
  }

  long OpenDm(vkernel::ExecContext& ctx) {
    return kernel_.Openat("/dev/mapper/control", 0, ctx).retval;
  }

  vkernel::Buffer DmArg() {
    vkernel::Buffer buf;
    buf.bytes.assign(StructByteSize("dm_ioctl", Dm().structs), 0);
    return buf;
  }

  vkernel::Kernel kernel_;
  vkernel::Coverage cov_;
};

TEST_F(DmRuntimeTest, CorrectCommandReachesDeepPath)
{
  vkernel::ExecContext ctx(&cov_);
  long fd = OpenDm(ctx);
  ASSERT_GE(fd, 3);
  vkernel::Buffer arg = DmArg();
  const IoctlSpec& list = Dm().primary.ioctls[2];
  size_t before = cov_.Count();
  EXPECT_EQ(kernel_.Ioctl(fd, FullCommandValue(Dm(), list), &arg, ctx).raw(),
            0);
  EXPECT_GT(cov_.Count(), before + 3);  // dispatch + deep blocks.
}

TEST_F(DmRuntimeTest, WrongDeviceNameFails)
{
  vkernel::ExecContext ctx(&cov_);
  // SyzDescribe's wrong inference: the .name field, not .nodename.
  EXPECT_EQ(kernel_.Openat("/dev/device-mapper", 0, ctx).raw(),
            -vkernel::kENOENT);
}

TEST_F(DmRuntimeTest, RawNrCommandRejected)
{
  // SyzDescribe's wrong cmd value (const[3] instead of the _IOWR encoding)
  // fails the dispatcher's _IOC_SIZE validation.
  vkernel::ExecContext ctx(&cov_);
  long fd = OpenDm(ctx);
  vkernel::Buffer arg = DmArg();
  EXPECT_EQ(kernel_.Ioctl(fd, 3, &arg, ctx).raw(), -vkernel::kEINVAL);
}

TEST_F(DmRuntimeTest, ShortBufferGetsEfault)
{
  vkernel::ExecContext ctx(&cov_);
  long fd = OpenDm(ctx);
  vkernel::Buffer small;
  small.bytes.assign(4, 0);
  const IoctlSpec& list = Dm().primary.ioctls[2];
  EXPECT_EQ(kernel_.Ioctl(fd, FullCommandValue(Dm(), list), &small, ctx).raw(),
            -vkernel::kEFAULT);
}

TEST_F(DmRuntimeTest, KmallocBugFiresOnHugeDataSize)
{
  vkernel::ExecContext ctx(&cov_);
  long fd = OpenDm(ctx);
  vkernel::Buffer arg = DmArg();
  const StructSpec* s = Dm().FindStruct("dm_ioctl");
  StructLayout layout = ComputeLayout(*s, Dm().structs);
  arg.WriteScalar(layout.Find("data_size")->offset, 4, 0x40000000);
  const IoctlSpec* status = nullptr;
  for (const auto& c : Dm().primary.ioctls) {
    if (c.macro == "DM_TABLE_STATUS") status = &c;
  }
  ASSERT_NE(status, nullptr);
  kernel_.Ioctl(fd, FullCommandValue(Dm(), *status), &arg, ctx);
  EXPECT_TRUE(ctx.crashed());
  EXPECT_EQ(ctx.crash_title(), "kmalloc bug in ctl_ioctl");
}

TEST_F(DmRuntimeTest, ReleaseBugFiresOnClose)
{
  vkernel::ExecContext ctx(&cov_);
  long fd = OpenDm(ctx);
  vkernel::Buffer arg = DmArg();
  const StructSpec* s = Dm().FindStruct("dm_ioctl");
  StructLayout layout = ComputeLayout(*s, Dm().structs);
  // DM_DEV_SUSPEND arms a release bomb (CVE-2024-50277 shape).
  const IoctlSpec* suspend = nullptr;
  for (const auto& c : Dm().primary.ioctls) {
    if (c.macro == "DM_DEV_SUSPEND") suspend = &c;
  }
  ASSERT_NE(suspend, nullptr);
  (void)layout;
  EXPECT_EQ(
      kernel_.Ioctl(fd, FullCommandValue(Dm(), *suspend), &arg, ctx).raw(), 0);
  EXPECT_FALSE(ctx.crashed());
  kernel_.Close(fd, ctx);
  EXPECT_TRUE(ctx.crashed());
  EXPECT_EQ(ctx.crash_title(),
            "general protection fault in cleanup_mapped_device");
}

TEST(SequenceBugTest, CecUafNeedsTransmitThenReceive)
{
  const DeviceSpec* cec = Corpus::Instance().FindDevice("cec");
  ASSERT_NE(cec, nullptr);
  vkernel::Kernel kernel;
  kernel.RegisterDevice(MakeModelDevice(CompileDevice(*cec)));
  kernel.BeginProgram();
  vkernel::Coverage cov;
  vkernel::ExecContext ctx(&cov);
  long fd = kernel.Openat("/dev/cec0", 0, ctx).retval;
  ASSERT_GE(fd, 3);

  auto arg_for = [&](const char* name) {
    vkernel::Buffer buf;
    buf.bytes.assign(StructByteSize(name, cec->structs), 0);
    return buf;
  };
  const IoctlSpec* transmit = nullptr;
  const IoctlSpec* receive = nullptr;
  for (const auto& c : cec->primary.ioctls) {
    if (c.macro == "CEC_TRANSMIT") transmit = &c;
    if (c.macro == "CEC_RECEIVE") receive = &c;
  }
  ASSERT_NE(transmit, nullptr);
  ASSERT_NE(receive, nullptr);

  // Receive alone does not crash.
  vkernel::Buffer msg = arg_for("cec_msg");
  // Make the len check pass (len = 0 <= capacity) and timeout nonzero.
  const StructSpec* msg_spec = cec->FindStruct("cec_msg");
  StructLayout layout = ComputeLayout(*msg_spec, cec->structs);
  msg.WriteScalar(layout.Find("timeout")->offset, 4, 100);
  EXPECT_EQ(
      kernel.Ioctl(fd, FullCommandValue(*cec, *receive), &msg, ctx).raw(), 0);
  EXPECT_FALSE(ctx.crashed());

  // Transmit then receive triggers the UAF.
  EXPECT_EQ(kernel.Ioctl(fd, FullCommandValue(*cec, *transmit), &msg, ctx).raw(),
            0);
  kernel.Ioctl(fd, FullCommandValue(*cec, *receive), &msg, ctx);
  EXPECT_TRUE(ctx.crashed());
  EXPECT_EQ(ctx.crash_title(),
            "KASAN: slab-use-after-free Read in cec_queue_msg_fh");
}

TEST(SecondaryHandlerTest, KvmCreateVmReturnsUsableFd)
{
  const DeviceSpec* kvm = Corpus::Instance().FindDevice("kvm");
  vkernel::Kernel kernel;
  kernel.RegisterDevice(MakeModelDevice(CompileDevice(*kvm)));
  kernel.BeginProgram();
  vkernel::Coverage cov;
  vkernel::ExecContext ctx(&cov);
  long fd = kernel.Openat("/dev/kvm", 0, ctx).retval;
  ASSERT_GE(fd, 3);
  const IoctlSpec& create_vm = kvm->primary.ioctls[1];
  ASSERT_EQ(create_vm.macro, "KVM_CREATE_VM");
  long vm_fd =
      kernel.Ioctl(fd, FullCommandValue(*kvm, create_vm), nullptr, ctx).retval;
  ASSERT_GE(vm_fd, 3);
  EXPECT_NE(vm_fd, fd);

  // The vm fd accepts vm-handler commands.
  const HandlerSpec* vm = kvm->FindHandler("vm");
  const IoctlSpec& irq = vm->ioctls[3];
  ASSERT_EQ(irq.macro, "KVM_IRQ_LINE");
  vkernel::Buffer arg;
  arg.bytes.assign(StructByteSize("kvm_irq_level", kvm->structs), 0);
  EXPECT_EQ(kernel.Ioctl(vm_fd, FullCommandValue(*kvm, irq), &arg, ctx).raw(),
            0);

  // But the system fd rejects them.
  EXPECT_EQ(kernel.Ioctl(fd, FullCommandValue(*kvm, irq), &arg, ctx).raw(),
            -vkernel::kENOTTY);
}

// ---------------------------------------------------------------------------
// Corpus-wide properties (parameterized)
// ---------------------------------------------------------------------------

class AllDevicesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllDevicesTest, RenderedSourceParsesWithoutDiagnostics)
{
  const DeviceSpec* dev = Corpus::Instance().FindDevice(GetParam());
  ASSERT_NE(dev, nullptr);
  ksrc::CFile file = ksrc::CParse(RenderDeviceSource(*dev), dev->id + ".c");
  EXPECT_TRUE(file.diagnostics.empty())
      << file.diagnostics.size() << " diagnostics, first: "
      << (file.diagnostics.empty() ? "" : file.diagnostics[0]);
}

TEST_P(AllDevicesTest, GroundTruthValidates)
{
  const Corpus& corpus = Corpus::Instance();
  const DeviceSpec* dev = corpus.FindDevice(GetParam());
  static const syzlang::ConstTable consts = corpus.BuildIndex().BuildConstTable();
  syzlang::SpecFile spec = GroundTruthDeviceSpec(*dev);
  syzlang::ValidationResult v = syzlang::Validate(spec, consts);
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors[0].message)
                      << " in " << dev->id;
}

TEST_P(AllDevicesTest, AllStructsResolvable)
{
  const DeviceSpec* dev = Corpus::Instance().FindDevice(GetParam());
  for (const auto& h : {&dev->primary}) {
    for (const auto& cmd : h->ioctls) {
      if (!cmd.arg_struct.empty()) {
        EXPECT_NE(dev->FindStruct(cmd.arg_struct), nullptr)
            << cmd.macro << " references missing struct " << cmd.arg_struct;
      }
    }
  }
}

TEST_P(AllDevicesTest, CommandValuesDistinct)
{
  const DeviceSpec* dev = Corpus::Instance().FindDevice(GetParam());
  std::set<uint64_t> seen;
  for (const auto& cmd : dev->primary.ioctls) {
    uint64_t v = FullCommandValue(*dev, cmd);
    EXPECT_TRUE(seen.insert(v).second)
        << "duplicate command value for " << cmd.macro << " in " << dev->id;
  }
}

std::vector<std::string>
AllDeviceIds()
{
  std::vector<std::string> ids;
  for (const auto& d : Corpus::Instance().devices()) ids.push_back(d.id);
  return ids;
}

INSTANTIATE_TEST_SUITE_P(Corpus, AllDevicesTest,
                         ::testing::ValuesIn(AllDeviceIds()));

class AllSocketsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSocketsTest, RenderedSourceParses)
{
  const SocketSpec* sock = Corpus::Instance().FindSocket(GetParam());
  ASSERT_NE(sock, nullptr);
  ksrc::CFile file = ksrc::CParse(RenderSocketSource(*sock), sock->id + ".c");
  EXPECT_TRUE(file.diagnostics.empty())
      << (file.diagnostics.empty() ? "" : file.diagnostics[0]);
}

TEST_P(AllSocketsTest, GroundTruthValidates)
{
  const Corpus& corpus = Corpus::Instance();
  const SocketSpec* sock = corpus.FindSocket(GetParam());
  static const syzlang::ConstTable consts =
      corpus.BuildIndex().BuildConstTable();
  syzlang::SpecFile spec = GroundTruthSocketSpec(*sock);
  syzlang::ValidationResult v = syzlang::Validate(spec, consts);
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors[0].message);
}

TEST_P(AllSocketsTest, SocketCreationWorksAtRuntime)
{
  const SocketSpec* sock = Corpus::Instance().FindSocket(GetParam());
  vkernel::Kernel kernel;
  kernel.RegisterSocketFamily(MakeModelSocketFamily(CompileSocket(*sock)));
  kernel.BeginProgram();
  vkernel::Coverage cov;
  vkernel::ExecContext ctx(&cov);
  uint64_t type = sock->sock_type ? sock->sock_type : 2;
  long fd = kernel.Socket(sock->domain, type, sock->protocol, ctx).retval;
  EXPECT_GE(fd, 3) << sock->id;
}

std::vector<std::string>
AllSocketIds()
{
  std::vector<std::string> ids;
  for (const auto& s : Corpus::Instance().sockets()) ids.push_back(s.id);
  return ids;
}

INSTANTIATE_TEST_SUITE_P(Corpus, AllSocketsTest,
                         ::testing::ValuesIn(AllSocketIds()));

TEST(CorpusTest, InventoryCounts)
{
  const Corpus& corpus = Corpus::Instance();
  EXPECT_GE(corpus.devices().size(), 40u);
  EXPECT_EQ(corpus.sockets().size(), 12u);  // 10 Table 6 + vnet tcp/udp.
  EXPECT_LT(corpus.LoadedDevices().size(), corpus.devices().size());
}

TEST(CorpusTest, Table4BugInventoryComplete)
{
  // All 24 paper bugs must exist in the corpus, 11 with CVEs, 12 fixed.
  const Corpus& corpus = Corpus::Instance();
  std::vector<const BugSpec*> bugs;
  auto collect_cmds = [&](const std::vector<IoctlSpec>& cmds) {
    for (const auto& c : cmds) {
      if (c.bug && !c.bug->legacy) bugs.push_back(&*c.bug);
    }
  };
  for (const auto& d : corpus.devices()) {
    collect_cmds(d.primary.ioctls);
    for (const auto& h : d.secondary) collect_cmds(h.ioctls);
  }
  for (const auto& s : corpus.sockets()) {
    collect_cmds(s.ioctls);
    for (const auto& o : s.sockopts) {
      if (o.bug && !o.bug->legacy) bugs.push_back(&*o.bug);
    }
    for (const SocketOpSpec* op :
         {&s.bind, &s.connect, &s.sendto, &s.recvfrom, &s.listen,
          &s.accept}) {
      if (op->bug && !op->bug->legacy) bugs.push_back(&*op->bug);
    }
  }
  EXPECT_EQ(bugs.size(), 24u);
  int cves = 0;
  int fixed = 0;
  int confirmed = 0;
  std::set<std::string> titles;
  for (const BugSpec* b : bugs) {
    if (!b->cve.empty()) ++cves;
    if (b->fixed) ++fixed;
    if (b->confirmed) ++confirmed;
    EXPECT_TRUE(titles.insert(b->title).second)
        << "duplicate bug title " << b->title;
  }
  EXPECT_EQ(cves, 11);
  EXPECT_EQ(fixed, 12);
  EXPECT_EQ(confirmed, 21);
}

TEST(CorpusTest, IndexCoversAllModules)
{
  ksrc::DefinitionIndex index = Corpus::Instance().BuildIndex();
  EXPECT_NE(index.FindStruct("dm_ioctl"), nullptr);
  EXPECT_NE(index.FindVar("_dm_misc"), nullptr);
  EXPECT_NE(index.FindVar("rds_proto_ops"), nullptr);
  EXPECT_TRUE(index.ConstValue("DM_TABLE_STATUS").has_value());
}

TEST(CorpusTest, RegisterAllBootstrapsKernel)
{
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  kernel.BeginProgram();
  EXPECT_NE(kernel.FindDeviceByPath("/dev/mapper/control"), nullptr);
  EXPECT_NE(kernel.FindFamilyByDomain(21), nullptr);  // AF_RDS.
  // Excluded/unloaded modules are not registered.
  EXPECT_EQ(kernel.FindDeviceByPath("/dev/gup_test"), nullptr);
  EXPECT_EQ(kernel.FindDeviceByPath("/dev/mei0"), nullptr);
}

}  // namespace
}  // namespace kernelgpt::drivers
