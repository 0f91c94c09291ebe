// Tracer: disabled sites record nothing, enabled spans buffer and drain
// into well-formed Chrome trace_event JSON, multi-thread buffers merge,
// and reset_tracing() drops everything. The JSON check uses a minimal
// recursive-descent well-formedness parser (no external deps).
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace odn::obs {
namespace {

// --- Minimal JSON well-formedness checker ------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string expected(word);
    if (text_.compare(pos_, expected.size(), expected) != 0) return false;
    pos_ += expected.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SanityOnKnownInputs) {
  std::string good = R"({"a": [1, 2.5, -3e4], "b": {"c": "x\"y"}, "d": null})";
  std::string bad = R"({"a": [1, 2.5,})";
  EXPECT_TRUE(JsonChecker(good).valid());
  EXPECT_FALSE(JsonChecker(bad).valid());
}

// --- Tracer behavior ---------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_tracing(); }
  void TearDown() override { reset_tracing(); }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(tracing_enabled());
  {
    ODN_TRACE_SPAN("test", "disabled.span");
  }
  EXPECT_EQ(buffered_event_count(), 0u);
}

TEST_F(TraceTest, EnabledSpansBufferAndDrainAsTraceEventJson) {
  set_tracing_enabled(true);
  {
    ODN_TRACE_SPAN("test", "outer");
    {
      ODN_TRACE_SPAN("test", "inner");
    }
  }
  set_tracing_enabled(false);
  EXPECT_EQ(buffered_event_count(), 2u);

  std::ostringstream out;
  write_trace_json(out);
  const std::string json = out.str();

  // Drain removes the events.
  EXPECT_EQ(buffered_event_count(), 0u);

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
}

TEST_F(TraceTest, SpanStateCapturedAtConstruction) {
  // A span opened while tracing is on completes (and records) even if
  // tracing is switched off before it closes — events are never torn.
  set_tracing_enabled(true);
  {
    ODN_TRACE_SPAN("test", "straddling");
    set_tracing_enabled(false);
  }
  EXPECT_EQ(buffered_event_count(), 1u);
}

TEST_F(TraceTest, MultiThreadBuffersMergeIntoOneValidTrace) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 25;

  set_tracing_enabled(true);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        ODN_TRACE_SPAN("mt", "mt.span");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  set_tracing_enabled(false);

  // Buffers survive thread exit: every span is still drainable.
  EXPECT_EQ(buffered_event_count(), kThreads * kSpansPerThread);

  std::ostringstream out;
  write_trace_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid());

  std::size_t spans = 0;
  for (std::size_t pos = json.find("\"mt.span\""); pos != std::string::npos;
       pos = json.find("\"mt.span\"", pos + 1))
    ++spans;
  EXPECT_EQ(spans, kThreads * kSpansPerThread);
}

TEST_F(TraceTest, ResetDropsBufferedEvents) {
  set_tracing_enabled(true);
  {
    ODN_TRACE_SPAN("test", "dropped");
  }
  EXPECT_GT(buffered_event_count(), 0u);
  reset_tracing();
  EXPECT_FALSE(tracing_enabled());
  EXPECT_EQ(buffered_event_count(), 0u);

  std::ostringstream out;
  write_trace_json(out);
  EXPECT_EQ(out.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(out.str().find("dropped"), std::string::npos);
}

}  // namespace
}  // namespace odn::obs
