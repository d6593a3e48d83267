// Unit tests for the structured audit log (src/obs/audit_log.h,
// DESIGN.md §9): JSON rendering, multi-thread no-loss ordering through
// the MPSC ring, size-based file rotation, and drop-and-count
// backpressure.

#include "obs/audit_log.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/system.h"
#include "obs/metrics.h"
#include "paper/paper_example.h"

namespace ucr::obs {
namespace {

AuditEvent MakeDecisionEvent(uint32_t subject) {
  AuditEvent event;
  event.type = AuditEventType::kAccessDecision;
  event.record.subject = subject;
  event.record.object = 2;
  event.record.right = 3;
  event.record.granted = true;
  return event;
}

TEST(ObsAuditLogTest, JsonRenderingEmitsOnlySetFieldGroups) {
  AuditEvent event;
  event.type = AuditEventType::kStrategyChange;
  event.sequence = 7;
  event.wall_ns = 123;
  event.value = 21;
  event.SetDetail("D+LP-");
  const std::string json = AuditEventToJson(event);
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"type\":\"strategy_change\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"value\":21"), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"D+LP-\""), std::string::npos);
  // Unset groups stay out of the line.
  EXPECT_EQ(json.find("\"subject\""), std::string::npos);
  EXPECT_EQ(json.find("\"granted\""), std::string::npos);

  const std::string ids = AuditEventToJson(MakeDecisionEvent(9));
  EXPECT_TRUE(JsonLooksValid(ids)) << ids;
  EXPECT_NE(ids.find("\"subject\":9"), std::string::npos);
  EXPECT_NE(ids.find("\"granted\":true"), std::string::npos);
}

TEST(ObsAuditLogTest, JsonEscapesDetailText) {
  AuditEvent event;
  event.SetDetail("quote \" backslash \\ newline \n tab \t done");
  const std::string json = AuditEventToJson(event);
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(ObsAuditLogTest, DetailTruncatesAtBufferSize) {
  AuditEvent event;
  event.SetDetail(std::string(4096, 'x'));
  EXPECT_EQ(std::string(event.detail).size(), sizeof(event.detail) - 1);
}

#if !UCR_METRICS_ENABLED

TEST(ObsAuditLogTest, DisabledBuildRefusesToStartOrEmit) {
  AuditLogOptions options;
  EXPECT_FALSE(AuditLog::Global().Start(std::move(options)));
  EXPECT_FALSE(AuditLog::Enabled());
  EXPECT_FALSE(AuditLog::Global().Emit(AuditEvent{}));
  EXPECT_EQ(AuditLog::Global().emitted_total(), 0u);
}

#else

/// Appends every rendered line to external storage that outlives the
/// log's ownership of the sink (Stop destroys the sinks).
class VectorSink : public AuditSink {
 public:
  explicit VectorSink(std::vector<std::string>* out) : out_(out) {}
  void Write(std::string_view line) override { out_->emplace_back(line); }

 private:
  std::vector<std::string>* out_;
};

uint64_t ParseSeq(const std::string& line) {
  const size_t at = line.find("\"seq\":");
  EXPECT_NE(at, std::string::npos) << line;
  return std::strtoull(line.c_str() + at + 6, nullptr, 10);
}

TEST(ObsAuditLogTest, StartEmitFlushStopRoundtrip) {
  std::vector<std::string> lines;
  AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(options)));
  EXPECT_TRUE(AuditLog::Enabled());
  EXPECT_FALSE(AuditLog::Global().Start(AuditLogOptions{}));  // Running.

  const uint64_t written_before = AuditLog::Global().written_total();
  EXPECT_TRUE(AuditLog::Global().Emit(MakeDecisionEvent(1)));
  AuditLog::Global().Flush();
  EXPECT_GE(AuditLog::Global().written_total(), written_before + 1);
  AuditLog::Global().Stop();
  EXPECT_FALSE(AuditLog::Enabled());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(JsonLooksValid(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"ts_unix_ns\":"), std::string::npos)
      << "Emit must stamp wall time";
}

TEST(ObsAuditLogTest, EightProducersLoseNothingAndPreserveSequence) {
  std::vector<std::string> lines;
  AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(options)));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t, &accepted] {
      for (int i = 0; i < kPerThread; ++i) {
        if (AuditLog::Global().Emit(
                MakeDecisionEvent(static_cast<uint32_t>(t)))) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& p : producers) p.join();
  AuditLog::Global().Flush();
  AuditLog::Global().Stop();

  // Every accepted event reaches the sink exactly once — drops are
  // allowed (bounded ring, drop-and-count backpressure) but accepted
  // events may never vanish.
  EXPECT_EQ(lines.size(), accepted.load());
  EXPECT_GT(accepted.load(), 0u);

  // The writer drains in ring order: sequence numbers come out
  // strictly increasing, and every line is valid JSON.
  uint64_t previous = 0;
  bool first = true;
  for (const std::string& line : lines) {
    ASSERT_TRUE(JsonLooksValid(line)) << line;
    const uint64_t seq = ParseSeq(line);
    if (!first) {
      EXPECT_GT(seq, previous);
    }
    previous = seq;
    first = false;
  }
}

TEST(ObsAuditLogTest, RotatingFileSinkRotatesAtSizeLimit) {
  const std::string path = testing::TempDir() + "/ucr_audit_rotate.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());
  {
    RotatingFileSink sink(path, /*max_bytes=*/256, /*max_backups=*/2);
    ASSERT_TRUE(sink.ok());
    const std::string line(100, 'a');
    for (int i = 0; i < 10; ++i) sink.Write(line);
    sink.Flush();
    EXPECT_GT(sink.rotations(), 0u);
  }
  // Active file plus at least the first backup exist; no file exceeds
  // the limit by more than one line.
  for (const std::string& p : {path, path + ".1"}) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    ASSERT_NE(f, nullptr) << p;
    std::fseek(f, 0, SEEK_END);
    EXPECT_LE(std::ftell(f), 256 + 101) << p;
    std::fclose(f);
  }
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());
}

TEST(ObsAuditLogTest, EmitWhileStoppedIsRejected) {
  EXPECT_FALSE(AuditLog::Enabled());
  EXPECT_FALSE(AuditLog::Global().Emit(MakeDecisionEvent(1)));
}

// Regression: re-granting an identical right is an idempotent no-op in
// SetMode (the early return precedes audit emission), so it must NOT
// produce a second grant audit event — operators count grant lines as
// actual policy changes.
TEST(ObsAuditLogTest, IdempotentRegrantEmitsNoAuditEvent) {
  std::vector<std::string> lines;
  AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(options)));

  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());  // Idempotent.
  ASSERT_TRUE(system.DenyAccess("S4", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S4", "obj", "read").ok());  // Idempotent.
  ASSERT_TRUE(system.Revoke("S4", "obj", "read").ok());
  ASSERT_TRUE(system.Grant("S4", "obj", "read").ok());  // Real change.

  AuditLog::Global().Flush();
  AuditLog::Global().Stop();
  size_t grants = 0;
  size_t denies = 0;
  size_t revokes = 0;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"grant\"") != std::string::npos) ++grants;
    if (line.find("\"type\":\"deny\"") != std::string::npos) ++denies;
    if (line.find("\"type\":\"revoke\"") != std::string::npos) ++revokes;
  }
  EXPECT_EQ(grants, 2u);  // First grant + the revoke->grant change only.
  EXPECT_EQ(denies, 1u);
  EXPECT_EQ(revokes, 1u);
}

// The rotating sink must never lose audit lines silently: an
// unwritable path counts errors (ucr_audit_sink_errors_total) and
// diverts every line to stderr, and once the path becomes writable a
// later Write reopens it — no restart required.
TEST(ObsAuditLogTest, UnwritableSinkCountsErrorsAndSelfHeals) {
  Counter& sink_errors = Registry::Global().GetCounter(
      "ucr_audit_sink_errors_total",
      "Audit sink I/O failures (open, write, rotate); failed lines "
      "divert to stderr");
  const std::string dir =
      testing::TempDir() + "/ucr_audit_missing_dir_" +
      std::to_string(static_cast<long>(::getpid()));
  const std::string path = dir + "/audit.jsonl";

  RotatingFileSink sink(path, /*max_bytes=*/4096, /*max_backups=*/1);
  EXPECT_FALSE(sink.ok());  // Directory does not exist yet.
  const uint64_t errors_before = sink.errors();
  const uint64_t metric_before = sink_errors.Value();
  sink.Write("{\"type\":\"diverted\"}");
  EXPECT_GT(sink.errors(), errors_before);
  EXPECT_GT(sink_errors.Value(), metric_before);

  // Create the directory: the very next Write opens the file and lands
  // in it (per-Write open retry), without constructing a new sink.
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  sink.Write("{\"type\":\"landed\"}");
  sink.Flush();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string contents(buf, n);
  EXPECT_NE(contents.find("landed"), std::string::npos);
  // The diverted line went to stderr, never half-into the file.
  EXPECT_EQ(contents.find("diverted"), std::string::npos);

  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(ObsAuditLogTest, FsyncOnFlushSinkPersistsLines) {
  const std::string path =
      testing::TempDir() + "/ucr_audit_fsync.jsonl";
  std::remove(path.c_str());
  {
    RotatingFileSink sink(path, /*max_bytes=*/4096, /*max_backups=*/1,
                          /*fsync_on_flush=*/true);
    ASSERT_TRUE(sink.ok());
    sink.Write("{\"type\":\"durable\"}");
    sink.Flush();  // fflush + fsync: on disk, not just in libc buffers.
    EXPECT_EQ(sink.errors(), 0u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_NE(std::string(buf, n).find("durable"), std::string::npos);
  std::remove(path.c_str());
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
