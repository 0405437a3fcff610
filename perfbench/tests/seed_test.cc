// The workload seed fully determines the generated inputs.
#include <gtest/gtest.h>

#include "kernelsim/assertions.h"
#include "sessions.h"
#include "support/log.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kEvents = 50000;

// Field-by-field serialisation of an event stream (no padding bytes), for
// byte-identity checks.
std::string StreamBytes(std::span<const tesla::runtime::Event> events) {
  std::string bytes;
  auto put = [&](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  for (const tesla::runtime::Event& e : events) {
    put(&e.kind, sizeof e.kind);
    put(&e.count, sizeof e.count);
    put(&e.truncated, sizeof e.truncated);
    put(&e.target, sizeof e.target);
    put(&e.ts_ns, sizeof e.ts_ns);
    put(&e.return_value, sizeof e.return_value);
    put(e.values, sizeof e.values);
    put(e.vars, sizeof e.vars);
  }
  return bytes;
}

tesla::runtime::RuntimeStats Dispatch(const std::vector<tesla::runtime::Event>& events) {
  tesla::SetLogLevel(tesla::LogLevel::kSilent);  // broken sessions violate on purpose
  auto manifest = SessionsManifest(true);
  EXPECT_TRUE(manifest.ok());
  tesla::runtime::Runtime rt(SessionsOptions());
  EXPECT_TRUE(rt.Register(manifest.value()).ok());
  {
    tesla::runtime::ThreadContext ctx(rt);
    rt.OnEvents(ctx, events);
  }
  return rt.stats();
}

TEST(Seed, SameSeedSameSessionStreamAndCounts) {
  auto a = MakeSessionStream(7, kEvents);
  auto b = MakeSessionStream(7, kEvents);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(StreamBytes(a.value().events), StreamBytes(b.value().events));
  EXPECT_EQ(a.value().broken_sited, b.value().broken_sited);

  const auto sa = Dispatch(a.value().events);
  const auto sb = Dispatch(b.value().events);
#define EXPECT_FIELD(name, desc, replay) EXPECT_EQ(sa.name, sb.name) << #name;
  TESLA_RUNTIME_STATS(EXPECT_FIELD)
#undef EXPECT_FIELD
  EXPECT_GT(sa.index_probes, 0u);
  EXPECT_EQ(sa.overflows, 0u);
}

TEST(Seed, DifferentSeedDifferentSessionStream) {
  auto a = MakeSessionStream(7, kEvents);
  auto b = MakeSessionStream(8, kEvents);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(StreamBytes(a.value().events), StreamBytes(b.value().events));
}

TEST(Seed, OltpStreamFollowsTheSeed) {
  auto manifest = tesla::kernelsim::KernelAssertions(tesla::kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  const auto plan7 = ChunkPlan(7, 24);
  EXPECT_EQ(plan7, ChunkPlan(7, 24));
  EXPECT_NE(plan7, ChunkPlan(8, 24));
  auto a = CaptureOltpStream(manifest.value(), plan7);
  auto b = CaptureOltpStream(manifest.value(), ChunkPlan(7, 24));
  auto c = CaptureOltpStream(manifest.value(), ChunkPlan(8, 24));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(StreamBytes(a.value()), StreamBytes(b.value()));
  EXPECT_NE(StreamBytes(a.value()), StreamBytes(c.value()));
}

}  // namespace
}  // namespace perfbench
