#include "common/status.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace bqe {
namespace {

/// Focused coverage for Status/Result surface that common_test.cc leaves
/// untested: ToString rendering, message round-trips through every factory,
/// copy/move semantics, and the exact Status the convenience macros
/// propagate.

TEST(StatusToStringTest, OkRendersBareOk) {
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  EXPECT_EQ(Status().ToString(), "OK");
}

TEST(StatusToStringTest, ErrorRendersCodeColonMessage) {
  EXPECT_EQ(Status::NotFound("relation cafe").ToString(),
            "NotFound: relation cafe");
  EXPECT_EQ(Status::ParseError("line 3: unexpected ')'").ToString(),
            "ParseError: line 3: unexpected ')'");
}

TEST(StatusToStringTest, EmptyMessageRendersCodeAlone) {
  // No trailing ": " when there is nothing to append.
  EXPECT_EQ(Status::Internal("").ToString(), "Internal");
  EXPECT_EQ(Status::Unimplemented("").ToString(), "Unimplemented");
}

TEST(StatusTest, OkHasEmptyMessage) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_TRUE(ok.message().empty());
}

TEST(StatusTest, EveryFactoryRoundTripsItsMessage) {
  const std::string msg = "context: detail (42)";
  const std::vector<Status> all = {
      Status::InvalidArgument(msg), Status::NotFound(msg),
      Status::AlreadyExists(msg),   Status::OutOfRange(msg),
      Status::FailedPrecondition(msg), Status::NotCovered(msg),
      Status::ConstraintViolation(msg), Status::ParseError(msg),
      Status::Unimplemented(msg),   Status::Internal(msg)};
  for (const Status& s : all) {
    EXPECT_FALSE(s.ok()) << s.ToString();
    EXPECT_EQ(s.message(), msg) << StatusCodeName(s.code());
    EXPECT_EQ(s.ToString(),
              std::string(StatusCodeName(s.code())) + ": " + msg);
  }
}

TEST(StatusTest, ServingCodesHaveStableNamesAndFactories) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_EQ(Status::ResourceExhausted("queue full").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("shut down").ToString(),
            "Unavailable: shut down");
}

TEST(StatusTest, SameCodeDifferentMessageCompareUnequal) {
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_TRUE(Status::NotFound("a") == Status::NotFound("a"));
}

TEST(StatusTest, CopyPreservesCodeAndMessage) {
  Status s = Status::ConstraintViolation("fd violated on cafe.cid");
  Status copy = s;
  EXPECT_TRUE(copy == s);
  Status moved = std::move(s);
  EXPECT_EQ(moved.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(moved.message(), "fd violated on cafe.cid");
}

TEST(ResultStatusTest, ErrorResultPreservesExactStatus) {
  Status err = Status::OutOfRange("bound 10 < rows 12");
  Result<std::string> r = err;
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status() == err);
  EXPECT_EQ(r.status().ToString(), "OutOfRange: bound 10 < rows 12");
}

TEST(ResultStatusTest, DereferenceOperatorsReachTheValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "payload");
  EXPECT_EQ(r->size(), 7u);
  *r += "!";
  EXPECT_EQ(r.value(), "payload!");
}

TEST(ResultStatusTest, ValueOrKeepsValueWhenOk) {
  Result<int> r = 7;
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultStatusTest, RvalueValueMovesOut) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> taken = std::move(r).value();
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
}

Status FailsThrough(const Status& inner) {
  BQE_RETURN_IF_ERROR(inner);
  return Status::Internal("unreachable");
}

TEST(StatusMacroTest, ReturnIfErrorPropagatesMessageVerbatim) {
  Status out = FailsThrough(Status::NotCovered("attr cafe.zip unbounded"));
  EXPECT_EQ(out.ToString(), "NotCovered: attr cafe.zip unbounded");
  EXPECT_TRUE(FailsThrough(Status::Ok()).code() == StatusCode::kInternal);
}

Result<int> HalveEven(Result<int> in) {
  int v = 0;
  BQE_ASSIGN_OR_RETURN(v, std::move(in));
  if (v % 2 != 0) return Status::InvalidArgument(std::to_string(v) + " odd");
  return v / 2;
}

TEST(StatusMacroTest, AssignOrReturnPropagatesStatusAndValue) {
  Result<int> ok = HalveEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 4);
  Result<int> odd = HalveEven(9);
  ASSERT_FALSE(odd.ok());
  EXPECT_EQ(odd.status().ToString(), "InvalidArgument: 9 odd");
  Result<int> fwd = HalveEven(Status::ParseError("bad literal"));
  ASSERT_FALSE(fwd.ok());
  EXPECT_EQ(fwd.status().ToString(), "ParseError: bad literal");
}

}  // namespace
}  // namespace bqe
