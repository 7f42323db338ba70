#include "util/logging.h"

#include <gtest/gtest.h>

#include <string>

namespace barb {
namespace {

TEST(Logger, LevelGatesEnabledChecks) {
  auto& logger = Logger::instance();
  const auto saved = logger.level();

  logger.set_level(LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kTrace));
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));

  logger.set_level(LogLevel::kError);
  EXPECT_FALSE(logger.enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));

  logger.set_level(LogLevel::kTrace);
  EXPECT_TRUE(logger.enabled(LogLevel::kTrace));

  logger.set_level(saved);
}

TEST(Logger, MacrosCompileAndRespectLevel) {
  auto& logger = Logger::instance();
  const auto saved = logger.level();
  logger.set_level(LogLevel::kError);
  // These must be no-ops (and must not evaluate as errors) below the level.
  BARB_TRACE("trace %d", 1);
  BARB_DEBUG("debug %s", "x");
  BARB_INFO("info");
  BARB_WARN("warn");
  logger.set_level(saved);
}

// A line is the level and the message: no source path or line number, so
// output does not depend on the checkout or on edits near the call site.
TEST(Logger, LineIsLevelAndMessageOnly) {
  auto& logger = Logger::instance();
  const auto saved = logger.level();
  logger.set_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  BARB_WARN("%s: lockup after %d frames", "target/EFW", 7);
  BARB_INFO("below the level");
  const std::string out = testing::internal::GetCapturedStderr();
  logger.set_level(saved);
  EXPECT_EQ(out, "[WARN] target/EFW: lockup after 7 frames\n");
}

}  // namespace
}  // namespace barb
