// Tests for the canonical Status / StatusOr error model and the solver
// status conversions that feed the retry / degradation machinery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lpvs/common/status.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"
#include "lpvs/solver/revised_lp.hpp"

namespace lpvs::common {
namespace {

TEST(Status, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_TRUE(status.message().empty());
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status status = Status::Unavailable("uplink dropped");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "uplink dropped");
  EXPECT_EQ(status.to_string(), "UNAVAILABLE: uplink dropped");
}

TEST(Status, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(Status::Unavailable().retryable());
  EXPECT_FALSE(Status::Ok().retryable());
  EXPECT_FALSE(Status::InvalidArgument().retryable());
  EXPECT_FALSE(Status::NotFound().retryable());
  EXPECT_FALSE(Status::ResourceExhausted().retryable());
  EXPECT_FALSE(Status::DeadlineExceeded().retryable());
  EXPECT_FALSE(Status::Infeasible().retryable());
  EXPECT_FALSE(Status::DataLoss().retryable());
  EXPECT_FALSE(Status::Internal().retryable());
}

TEST(Status, EqualityComparesCodesNotMessages) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Unavailable());
}

TEST(Status, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kUnavailable,
        StatusCode::kDeadlineExceeded, StatusCode::kInfeasible,
        StatusCode::kDataLoss, StatusCode::kInternal}) {
    EXPECT_STRNE(to_string(code), "");
  }
}

TEST(StatusOr, HoldsValue) {
  const StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(-1), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOr, HoldsError) {
  const StatusOr<int> result = Status::NotFound("no such video");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> result = std::string("payload");
  ASSERT_TRUE(result.ok());
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusOr, ArrowOperatorReachesMembers) {
  StatusOr<std::string> result = std::string("abc");
  EXPECT_EQ(result->size(), 3u);
}

}  // namespace
}  // namespace lpvs::common

namespace lpvs::solver {
namespace {

TEST(SolverStatus, LpStatusMapsToCanonicalCodes) {
  EXPECT_TRUE(to_status(LpStatus::kOptimal).ok());
  EXPECT_EQ(to_status(LpStatus::kUnbounded).code(),
            common::StatusCode::kInternal);
  EXPECT_EQ(to_status(LpStatus::kIterationLimit).code(),
            common::StatusCode::kResourceExhausted);
  EXPECT_EQ(to_status(LpStatus::kMalformed).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SolverStatus, IlpStatusMapsToCanonicalCodes) {
  // A node-limited incumbent is still a usable schedule, so kFeasible maps
  // to Ok; the exact-vs-truncated distinction stays on IlpSolution::status.
  EXPECT_TRUE(to_status(IlpStatus::kOptimal).ok());
  EXPECT_TRUE(to_status(IlpStatus::kFeasible).ok());
  EXPECT_EQ(to_status(IlpStatus::kInfeasible).code(),
            common::StatusCode::kInfeasible);
  EXPECT_EQ(to_status(IlpStatus::kMalformed).code(),
            common::StatusCode::kInvalidArgument);
}

BinaryProgram tiny_program() {
  BinaryProgram program;
  program.objective = {5.0, 4.0, 3.0};
  program.rows = {{2.0, 3.0, 1.0}};
  program.rhs = {5.0};
  return program;
}

TEST(SolverStatus, OptimalSolveMapsToOk) {
  // Weights 2 + 3 fill the capacity 5 exactly: {5, 4} beats {5, 3} and
  // {4, 3}, and all three items do not fit.
  const IlpSolution solution = BranchAndBoundSolver().solve(tiny_program());
  EXPECT_EQ(solution.status, IlpStatus::kOptimal);
  EXPECT_EQ(solution.x, (std::vector<int>{1, 1, 0}));
  EXPECT_DOUBLE_EQ(solution.objective, 9.0);
  EXPECT_TRUE(to_status(solution.status).ok());
}

TEST(SolverStatus, InfeasibleSolvesMapToInfeasibleCode) {
  // Negative rhs with non-negative coefficients: even all-zeros violates
  // it, so both the LP relaxation and the 0/1 program are infeasible.
  BinaryProgram program = tiny_program();
  program.rows.push_back({1.0, 1.0, 1.0});
  program.rhs.push_back(-1.0);

  const IlpSolution ilp = BranchAndBoundSolver().solve(program);
  EXPECT_EQ(ilp.status, IlpStatus::kInfeasible);
  EXPECT_EQ(to_status(ilp.status).code(), common::StatusCode::kInfeasible);

  RevisedLpSolver lp;
  ASSERT_TRUE(lp.load(LpProblem{program.objective, program.rows,
                                program.rhs, {1.0, 1.0, 1.0}}));
  const LpSolution relaxation = lp.solve();
  EXPECT_EQ(relaxation.status, LpStatus::kInfeasible);
  EXPECT_EQ(to_status(relaxation.status).code(),
            common::StatusCode::kInfeasible);
}

}  // namespace
}  // namespace lpvs::solver
