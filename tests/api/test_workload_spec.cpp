/**
 * @file
 * api::WorkloadSpec: the canonical workload description and the
 * library's only workload parser. String forms round-trip, every
 * malformed input fails with a UsageError (the exit-2 class), and
 * the spec pins the session configuration exactly.
 */
#include <gtest/gtest.h>

#include "api/workload.h"
#include "core/check.h"

namespace pinpoint {
namespace api {
namespace {

TEST(WorkloadSpec, IdIsTheStableScenarioKey)
{
    WorkloadSpec spec;
    spec.model = "resnet50";
    spec.batch = 32;
    spec.allocator = runtime::AllocatorKind::kCaching;
    spec.device = "titan-x";
    EXPECT_EQ(spec.id(), "resnet50/b32/caching/titan-x");
}

TEST(WorkloadSpec, SingleDeviceIdIgnoresTopology)
{
    // devices = 1 ids are pinned by golden sweep CSVs: the devices
    // axis must not leak into them, whatever the topology field
    // says.
    WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 8;
    spec.topology = "nvlink";
    EXPECT_EQ(spec.id(), "mlp/b8/caching/titan-x");

    spec.devices = 4;
    EXPECT_EQ(spec.id(), "mlp/b8/caching/titan-x/dp4/nvlink");
}

TEST(WorkloadSpec, ToStringRoundTripsThroughFromString)
{
    WorkloadSpec spec;
    spec.model = "resnet18";
    spec.batch = 16;
    spec.iterations = 3;
    spec.allocator = runtime::AllocatorKind::kBuddy;
    spec.device = "a100";
    spec.micro_batches = 4;
    spec.devices = 2;
    spec.topology = "nvlink";

    const WorkloadSpec reparsed =
        WorkloadSpec::from_string(spec.to_string());
    EXPECT_EQ(reparsed.model, spec.model);
    EXPECT_EQ(reparsed.batch, spec.batch);
    EXPECT_EQ(reparsed.iterations, spec.iterations);
    EXPECT_EQ(reparsed.allocator, spec.allocator);
    EXPECT_EQ(reparsed.device, spec.device);
    EXPECT_EQ(reparsed.micro_batches, spec.micro_batches);
    EXPECT_EQ(reparsed.devices, spec.devices);
    EXPECT_EQ(reparsed.topology, spec.topology);
    EXPECT_EQ(reparsed.to_string(), spec.to_string());
}

TEST(WorkloadSpec, FromArgsParsesFlagValuePairs)
{
    const WorkloadSpec spec = WorkloadSpec::from_args(
        {"--model", "vgg16", "--batch", "8", "--device", "tiny"});
    EXPECT_EQ(spec.model, "vgg16");
    EXPECT_EQ(spec.batch, 8);
    EXPECT_EQ(spec.device, "tiny");
    // Unset fields keep the defaults.
    EXPECT_EQ(spec.iterations, 5);
    EXPECT_EQ(spec.micro_batches, 1);
}

TEST(WorkloadSpec, FromFlagsBaseProvidesDefaults)
{
    WorkloadSpec base;
    base.model = "resnet50";
    base.batch = 64;
    const std::string batch = "16";
    const WorkloadSpec spec = WorkloadSpec::from_flags(
        [&](const std::string &name) -> const std::string * {
            return name == "batch" ? &batch : nullptr;
        },
        base);
    EXPECT_EQ(spec.model, "resnet50");
    EXPECT_EQ(spec.batch, 16);
}

TEST(WorkloadSpec, RejectsUnknownFlag)
{
    EXPECT_THROW(WorkloadSpec::from_args({"--batches", "16"}),
                 UsageError);
}

TEST(WorkloadSpec, RejectsPositionalToken)
{
    EXPECT_THROW(WorkloadSpec::from_args({"resnet50"}), UsageError);
}

TEST(WorkloadSpec, RejectsDanglingValueFlag)
{
    // The old CLI silently fell back to the default here.
    EXPECT_THROW(WorkloadSpec::from_args({"--batch"}), UsageError);
    EXPECT_THROW(
        WorkloadSpec::from_args({"--batch", "--model", "mlp"}),
        UsageError);
}

TEST(WorkloadSpec, RejectsNonNumericNumbers)
{
    // The old CLI died with a raw std::invalid_argument.
    EXPECT_THROW(WorkloadSpec::from_args({"--batch", "abc"}),
                 UsageError);
    // Partial numbers must not silently truncate.
    EXPECT_THROW(WorkloadSpec::from_args({"--batch", "12abc"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--iterations", "2.5"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--micro-batches", ""}),
                 UsageError);
    // strtoX leniencies (leading whitespace, '+' sign) are closed:
    // the whole token must be the number.
    EXPECT_THROW(WorkloadSpec::from_args({"--batch", " 5"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--batch", "+5"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--batch", "5 "}),
                 UsageError);
}

TEST(WorkloadSpec, RejectsUnknownNames)
{
    EXPECT_THROW(WorkloadSpec::from_args({"--model", "lenet"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--device", "h100"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--allocator", "slab"}),
                 UsageError);
    EXPECT_THROW(
        WorkloadSpec::from_args({"--topology", "token-ring"}),
        UsageError);
}

TEST(WorkloadSpec, RejectsBadDeviceCounts)
{
    EXPECT_THROW(WorkloadSpec::from_args({"--devices", "0"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--devices", "-2"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--devices", "two"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--devices", "2.5"}),
                 UsageError);
    // One bound for every surface; the spec is only parsed here,
    // never run.
    EXPECT_THROW(WorkloadSpec::from_args(
                     {"--devices", std::to_string(kMaxDevices + 1)}),
                 UsageError);
    EXPECT_EQ(WorkloadSpec::from_args(
                  {"--devices", std::to_string(kMaxDevices)})
                  .devices,
              kMaxDevices);
    const WorkloadSpec ok = WorkloadSpec::from_args(
        {"--devices", "4", "--topology", "nvlink"});
    EXPECT_EQ(ok.devices, 4);
    EXPECT_EQ(ok.topology, "nvlink");
}

TEST(WorkloadSpec, ValidateChecksRanges)
{
    WorkloadSpec spec;
    spec.batch = 0;
    EXPECT_THROW(spec.validate(), UsageError);
    spec.batch = 1;
    spec.iterations = 0;
    EXPECT_THROW(spec.validate(), UsageError);
    spec.iterations = 1;
    spec.micro_batches = 0;
    EXPECT_THROW(spec.validate(), UsageError);
    // Every micro-batch has the same shape.
    spec.batch = 8;
    spec.micro_batches = 3;
    EXPECT_THROW(spec.validate(), UsageError);
    spec.micro_batches = 4;
    EXPECT_NO_THROW(spec.validate());
    spec.batch = 1;
    spec.micro_batches = 1;
    spec.devices = 0;
    EXPECT_THROW(spec.validate(), UsageError);
    // Two iterations, so only the device bound can reject it.
    spec.iterations = 2;
    spec.devices = kMaxDevices + 1;
    EXPECT_THROW(spec.validate(), UsageError);
    spec.devices = kMaxDevices;
    EXPECT_NO_THROW(spec.validate());
    spec.iterations = 1;
    spec.devices = 1;
    spec.topology = "infiniband";
    EXPECT_THROW(spec.validate(), UsageError);
    spec.topology = "pcie";
    EXPECT_NO_THROW(spec.validate());
}

TEST(WorkloadSpec, DataParallelNeedsTwoIterations)
{
    // The all-reduce schedule is built on the steady-state iteration
    // time, which a session measures from its second iteration on.
    WorkloadSpec spec;
    spec.devices = 2;
    spec.iterations = 1;
    try {
        spec.validate();
        FAIL() << "expected UsageError";
    } catch (const UsageError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--devices"), std::string::npos) << what;
        EXPECT_NE(what.find("--iterations"), std::string::npos) << what;
    }
    EXPECT_THROW(WorkloadSpec::from_args(
                     {"--devices", "4", "--iterations", "1"}),
                 UsageError);
    spec.iterations = 2;
    EXPECT_NO_THROW(spec.validate());
    spec.devices = 1;
    spec.iterations = 1;
    EXPECT_NO_THROW(spec.validate());
}

TEST(WorkloadSpec, UsageErrorIsAnError)
{
    // The CLI maps UsageError to exit 2 and plain Error to exit 1;
    // UsageError must stay a subclass so generic handlers catch it.
    EXPECT_THROW(WorkloadSpec::from_args({"--batch", "x"}), Error);
}

TEST(WorkloadSpec, SessionConfigPinsEveryAxis)
{
    WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 64;
    spec.iterations = 3;
    spec.allocator = runtime::AllocatorKind::kDirect;
    spec.device = "a100";
    spec.micro_batches = 2;
    const runtime::SessionConfig config = spec.session_config();
    EXPECT_EQ(config.batch, 64);
    EXPECT_EQ(config.iterations, 3);
    EXPECT_EQ(config.allocator, runtime::AllocatorKind::kDirect);
    EXPECT_EQ(config.device.name, sim::DeviceSpec::a100_40gb().name);
    EXPECT_EQ(config.plan.micro_batches, 2);
}

TEST(WorkloadSpec, TrainF32IdIgnoresServingAxes)
{
    // train/f32 ids are pinned by golden sweep CSVs from before the
    // serving axis existed: mode/dtype/requests/arrival must not
    // leak into them.
    WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 8;
    spec.requests = 64;
    spec.arrival = runtime::ArrivalKind::kSteady;
    EXPECT_EQ(spec.id(), "mlp/b8/caching/titan-x");

    spec.mode = runtime::SessionMode::kInfer;
    EXPECT_EQ(spec.id(), "mlp/b8/caching/titan-x/infer/steady");

    spec.dtype = DType::kF16;
    EXPECT_EQ(spec.id(), "mlp/b8/caching/titan-x/infer/steady/f16");

    spec.mode = runtime::SessionMode::kTrain;
    EXPECT_EQ(spec.id(), "mlp/b8/caching/titan-x/f16");
}

TEST(WorkloadSpec, ServingFieldsRoundTripThroughFromString)
{
    WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 4;
    spec.mode = runtime::SessionMode::kInfer;
    spec.dtype = DType::kI8;
    spec.requests = 17;
    spec.arrival = runtime::ArrivalKind::kUniform;

    const WorkloadSpec reparsed =
        WorkloadSpec::from_string(spec.to_string());
    EXPECT_EQ(reparsed.mode, spec.mode);
    EXPECT_EQ(reparsed.dtype, spec.dtype);
    EXPECT_EQ(reparsed.requests, spec.requests);
    EXPECT_EQ(reparsed.arrival, spec.arrival);
    EXPECT_EQ(reparsed.to_string(), spec.to_string());
}

TEST(WorkloadSpec, RejectsBadServingFlags)
{
    // The exit-2 rejection matrix for the serving axes, with the
    // shared "unknown X (known: ...)" wording.
    try {
        WorkloadSpec::from_args({"--mode", "nonsense"});
        FAIL() << "expected UsageError";
    } catch (const UsageError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown mode 'nonsense' (known: train, infer)");
    }
    try {
        WorkloadSpec::from_args({"--dtype", "f64"});
        FAIL() << "expected UsageError";
    } catch (const UsageError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown dtype 'f64' (known: f32, f16, i8)");
    }
    try {
        WorkloadSpec::from_args({"--arrival", "poisson"});
        FAIL() << "expected UsageError";
    } catch (const UsageError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown arrival 'poisson' (known: steady, "
                  "uniform, bursty)");
    }
    EXPECT_THROW(WorkloadSpec::from_args({"--requests", "0"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--requests", "-3"}),
                 UsageError);
    EXPECT_THROW(WorkloadSpec::from_args({"--requests", "ten"}),
                 UsageError);
    // Dangling value flag: the old CLI silently used the default.
    EXPECT_THROW(WorkloadSpec::from_args({"--arrival"}), UsageError);
}

TEST(WorkloadSpec, ValidateRejectsInferConflicts)
{
    WorkloadSpec spec;
    spec.mode = runtime::SessionMode::kInfer;
    EXPECT_NO_THROW(spec.validate());
    // One request per plan: gradient accumulation is meaningless
    // without a backward pass.
    spec.micro_batches = 2;
    EXPECT_THROW(spec.validate(), UsageError);
    spec.micro_batches = 1;
    spec.devices = 2;
    EXPECT_THROW(spec.validate(), UsageError);
    spec.devices = 1;
    spec.requests = 0;
    EXPECT_THROW(spec.validate(), UsageError);
}

TEST(WorkloadSpec, Int8AliasParsesAsI8)
{
    EXPECT_EQ(parse_workload_dtype("int8"), DType::kI8);
    const WorkloadSpec spec =
        WorkloadSpec::from_args({"--dtype", "int8"});
    EXPECT_EQ(spec.dtype, DType::kI8);
}

TEST(WorkloadSpec, InferenceConfigDerivesSeedFromId)
{
    WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 8;
    spec.mode = runtime::SessionMode::kInfer;
    spec.requests = 9;
    spec.arrival = runtime::ArrivalKind::kBursty;
    const runtime::InferenceConfig config = spec.inference_config();
    EXPECT_EQ(config.requests, 9);
    EXPECT_EQ(config.arrival, runtime::ArrivalKind::kBursty);
    // The seed is a pure function of the id: the same spec always
    // replays the same traffic, and any axis change re-keys it.
    EXPECT_EQ(config.seed, runtime::arrival_seed(spec.id()));
    WorkloadSpec other = spec;
    other.batch = 16;
    EXPECT_NE(other.inference_config().seed, config.seed);
}

TEST(WorkloadSpec, SessionConfigPinsDtype)
{
    WorkloadSpec spec;
    spec.dtype = DType::kF16;
    EXPECT_EQ(spec.session_config().plan.dtype, DType::kF16);
}

TEST(WorkloadSpec, FlagNamesMatchToStringOrder)
{
    const auto &names = WorkloadSpec::flag_names();
    ASSERT_EQ(names.size(), 12u);
    const std::string str = WorkloadSpec().to_string();
    std::size_t pos = 0;
    for (const auto &name : names) {
        const std::size_t at = str.find("--" + name + " ", pos);
        EXPECT_NE(at, std::string::npos) << name;
        pos = at;
    }
}

}  // namespace
}  // namespace api
}  // namespace pinpoint
