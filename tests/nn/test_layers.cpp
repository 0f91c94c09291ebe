#include "nn/simple_layers.h"

#include <gtest/gtest.h>

#include "gradient_check.h"

namespace odn::nn {
namespace {

using testing::check_input_gradient;
using testing::random_tensor;

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor input({1, 1, 1, 4});
  input[0] = -1.0f;
  input[1] = 0.0f;
  input[2] = 2.0f;
  input[3] = -0.5f;
  const Tensor output = relu.forward(input, false);
  EXPECT_FLOAT_EQ(output[0], 0.0f);
  EXPECT_FLOAT_EQ(output[1], 0.0f);
  EXPECT_FLOAT_EQ(output[2], 2.0f);
  EXPECT_FLOAT_EQ(output[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  Tensor input({4});
  input[0] = -1.0f;
  input[1] = 1.0f;
  input[2] = 3.0f;
  input[3] = -2.0f;
  (void)relu.forward(input, true);
  Tensor grad = Tensor::full({4}, 5.0f);
  const Tensor grad_input = relu.backward(grad);
  EXPECT_FLOAT_EQ(grad_input[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_input[1], 5.0f);
  EXPECT_FLOAT_EQ(grad_input[2], 5.0f);
  EXPECT_FLOAT_EQ(grad_input[3], 0.0f);
}

TEST(ReLU, BackwardWithoutForwardThrows) {
  ReLU relu;
  EXPECT_THROW(relu.backward(Tensor({2})), std::logic_error);
}

TEST(ReLU, NumericInputGradient) {
  util::Rng rng(101);
  ReLU relu;
  const Tensor input = random_tensor({2, 3, 4, 4}, rng);
  check_input_gradient(relu, input, rng);
}

TEST(GlobalAvgPool2d, ForwardAverages) {
  GlobalAvgPool2d pool;
  Tensor input({1, 2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) input[i] = static_cast<float>(i);
  for (std::size_t i = 4; i < 8; ++i) input[i] = 10.0f;
  const Tensor output = pool.forward(input, false);
  EXPECT_EQ(output.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(output.at2(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(output.at2(0, 1), 10.0f);
}

TEST(GlobalAvgPool2d, BackwardSpreadsUniformly) {
  GlobalAvgPool2d pool;
  Tensor input({1, 1, 2, 2});
  (void)pool.forward(input, true);
  Tensor grad({1, 1});
  grad[0] = 8.0f;
  const Tensor grad_input = pool.backward(grad);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(grad_input[i], 2.0f);
}

TEST(GlobalAvgPool2d, NumericInputGradient) {
  util::Rng rng(107);
  GlobalAvgPool2d pool;
  const Tensor input = random_tensor({2, 3, 4, 4}, rng);
  check_input_gradient(pool, input, rng);
}

TEST(Layers, StatelessLayersHaveNoParameters) {
  ReLU relu;
  GlobalAvgPool2d avg;
  EXPECT_TRUE(relu.parameters().empty());
  EXPECT_TRUE(avg.parameters().empty());
}

TEST(Layers, FrozenFlagRoundTrip) {
  ReLU relu;
  EXPECT_FALSE(relu.frozen());
  relu.set_frozen(true);
  EXPECT_TRUE(relu.frozen());
}

}  // namespace
}  // namespace odn::nn
